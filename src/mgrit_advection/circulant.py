"""Circulant operator algebra on a periodic 1-D mesh.

A circulant operator is stored as a sparse stencil: a list of (offset, weight)
pairs interpreted periodically, so row ``i`` of the equivalent dense matrix has
entry ``weight`` in column ``(i + offset) mod n_x``.  All time-stepping and
difference operators in this package are circulant, which keeps their Fourier
symbols exact.  The solver runs in the real orthonormal Fourier basis
(``to_basis``), where a real circulant is a diagonal (``basis_diagonal``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatchError, NotRealOperatorError

#: weights with magnitude below this are dropped when stencils are combined
PRUNE_TOL = 1e-15

#: rows per block of the in-place basis changes and of the solver's residual
#: norm, which bounds their temporaries to about a MB however many rows are
#: transformed
_BASIS_BLOCK_ROWS = 64

_SQRT2 = np.sqrt(2.0)


def _canonical(n_x: int, offsets, weights):
    """Reduce offsets mod n_x into a balanced range, merge duplicates, prune."""
    acc = {}
    for o, w in zip(offsets, weights):
        o = int(o) % n_x
        if o >= n_x - n_x // 2:
            o -= n_x
        acc[o] = acc.get(o, 0.0) + w
    items = sorted((o, w) for o, w in acc.items() if abs(w) > PRUNE_TOL)
    if not items:
        items = [(0, 0.0)]
    off = np.array([o for o, _ in items], dtype=np.int64)
    wgt = np.array([w for _, w in items])
    if np.iscomplexobj(wgt) and np.max(np.abs(wgt.imag)) == 0.0:
        wgt = wgt.real
    return off, wgt


def stencil_symbol(offsets, weights, omega) -> np.ndarray:
    """Fourier symbol sum_j w_j exp(i o_j omega) of the stencil with offsets
    o_j and weights w_j, vectorized over omega."""
    om = np.asarray(omega, dtype=float)
    phases = np.exp(1j * np.multiply.outer(om, np.asarray(offsets, dtype=float)))
    return phases @ np.asarray(weights, dtype=complex)


class CirculantOperator:
    """Periodic constant-coefficient linear operator given by a stencil.

    Instances are immutable and safe to share; all methods are pure.
    """

    __slots__ = ("n_x", "offsets", "weights", "_eig")

    def __init__(self, n_x: int, stencil: Sequence[Tuple[int, float]]):
        if n_x < 1:
            raise ValueError(f"n_x must be positive, got {n_x}")
        offsets = [o for o, _ in stencil]
        weights = [w for _, w in stencil]
        off, wgt = _canonical(n_x, offsets, weights)
        object.__setattr__(self, "n_x", int(n_x))
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "weights", wgt)
        object.__setattr__(self, "_eig", None)
        self.offsets.setflags(write=False)
        self.weights.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("CirculantOperator is immutable")

    @classmethod
    def from_arrays(cls, n_x: int, offsets, weights) -> "CirculantOperator":
        return cls(n_x, list(zip(offsets, weights)))

    @classmethod
    def identity(cls, n_x: int) -> "CirculantOperator":
        return cls(n_x, [(0, 1.0)])

    @classmethod
    def shift(cls, n_x: int, k: int) -> "CirculantOperator":
        """Cyclic shift: (S v)_i = v_{(i+k) mod n_x}."""
        return cls(n_x, [(k, 1.0)])

    @classmethod
    def from_eigenvalues(cls, n_x: int, eigenvalues) -> "CirculantOperator":
        """Stencil whose symbol takes the given values at 2*pi*k/n_x.

        ``eigenvalues[k]`` is the desired symbol at frequency 2*pi*k/n_x in
        FFT ordering.  The inverse transform of the eigenvalue vector is the
        first row of the dense operator, read as weights at offsets 0..n_x-1;
        weights of magnitude 1e-14 or less are dropped.
        """
        lam = np.asarray(eigenvalues, dtype=complex)
        if lam.shape != (n_x,):
            raise DimensionMismatchError(
                f"need {n_x} eigenvalues, got shape {lam.shape}")
        # w_j = (1/n) sum_k lam_k exp(-i j omega_k): the forward transform
        row = np.fft.fft(lam) / n_x
        if np.max(np.abs(row.imag)) < 1e-12 * max(1.0, np.max(np.abs(row))):
            row = row.real
        keep = np.abs(row) > 1e-14
        return cls.from_arrays(n_x, np.nonzero(keep)[0], row[keep])

    # ------------------------------------------------------------------ algebra

    def is_real(self) -> bool:
        return not np.iscomplexobj(self.weights)

    def is_symmetric(self) -> bool:
        """Real weights with w_o == w_{-o} (offsets mod n_x): the dense matrix
        is symmetric and every eigenvalue is real."""
        mirror = CirculantOperator.from_arrays(self.n_x, -self.offsets,
                                               self.weights)
        return (self.is_real() and np.array_equal(mirror.offsets, self.offsets)
                and np.array_equal(mirror.weights, self.weights))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product; ``v`` may be batched with shape (..., n_x).

        A one-point stencil (a scaled cyclic shift) is an exact scaled roll;
        wider stencils multiply by their eigenvalues between FFTs.
        """
        v = np.asarray(v)
        if v.shape[-1] != self.n_x:
            raise DimensionMismatchError(
                f"vector length {v.shape[-1]} != n_x {self.n_x}")
        if len(self.offsets) == 1:
            return self.weights[0] * np.roll(v, -int(self.offsets[0]), axis=-1)
        lam = self.eigenvalues()
        if self.is_real() and not np.iscomplexobj(v):
            half = lam[: self.n_x // 2 + 1]
            return np.fft.irfft(np.fft.rfft(v, axis=-1) * half, n=self.n_x, axis=-1)
        return np.fft.ifft(np.fft.fft(v, axis=-1) * lam, axis=-1)

    def symbol(self, omega) -> complex | np.ndarray:
        """Fourier symbol sum_j w_j exp(i j omega) of the canonical stencil.

        At admissible frequencies omega = 2*pi*k/n_x this is an eigenvalue of
        the dense operator.  Offsets are stored wrapped into a balanced range,
        so between mesh frequencies the phase refers to that representative.
        """
        out = stencil_symbol(self.offsets, self.weights, omega)
        return complex(out) if np.isscalar(omega) else out

    def eigenvalues(self) -> np.ndarray:
        """Symbol on the mesh frequencies 2*pi*k/n_x, k = 0..n_x-1 (FFT order).

        Cached after the first call (the operator is immutable).
        """
        if self._eig is None:
            eig = self.symbol(2.0 * np.pi * np.arange(self.n_x) / self.n_x)
            eig.setflags(write=False)
            object.__setattr__(self, "_eig", eig)
        return self._eig

    def dense(self) -> np.ndarray:
        """Dense matrix representation (test oracle; O(n_x^2) memory)."""
        M = np.zeros((self.n_x, self.n_x), dtype=self.weights.dtype)
        for o, w in zip(self.offsets, self.weights):
            for i in range(self.n_x):
                M[i, (i + int(o)) % self.n_x] += w
        return M

    def compose(self, other: "CirculantOperator") -> "CirculantOperator":
        """Operator product self @ other (stencil convolution)."""
        self._check_same_mesh(other)
        off = (self.offsets[:, None] + other.offsets[None, :]).ravel()
        wgt = (self.weights[:, None] * other.weights[None, :]).ravel()
        return CirculantOperator.from_arrays(self.n_x, off, wgt)

    def add(self, other: "CirculantOperator") -> "CirculantOperator":
        self._check_same_mesh(other)
        off = np.concatenate([self.offsets, other.offsets])
        wgt = np.concatenate([self.weights.astype(np.result_type(self.weights, other.weights)),
                              other.weights])
        return CirculantOperator.from_arrays(self.n_x, off, wgt)

    def scale(self, s) -> "CirculantOperator":
        return CirculantOperator.from_arrays(self.n_x, self.offsets, s * self.weights)

    def power(self, m: int) -> "CirculantOperator":
        """m-fold operator product, m >= 0 (binary exponentiation)."""
        if m < 0:
            raise ValueError(f"power requires m >= 0, got {m}")
        result = CirculantOperator.identity(self.n_x)
        base = self
        while m:
            if m & 1:
                result = result.compose(base)
            base = base.compose(base) if m > 1 else base
            m >>= 1
        return result

    def __repr__(self):
        pairs = ", ".join(f"({int(o)}, {w:+.6g})"
                          for o, w in zip(self.offsets, self.weights))
        return f"CirculantOperator(n_x={self.n_x}, [{pairs}])"

    def _check_same_mesh(self, other: "CirculantOperator"):
        if self.n_x != other.n_x:
            raise DimensionMismatchError(
                f"mesh sizes differ: {self.n_x} vs {other.n_x}")


def to_basis(u: np.ndarray) -> None:
    """Overwrite the physical rows of ``u`` (a vector or a stack of rows; rows
    may be strided, the last axis contiguous) with their basis coefficients.

    With X = rfft(v, norm="ortho") a physical row v of length n is stored as
    n reals: slot 0 holds X_0, slot 1 holds X_{n/2} when n is even (the head
    slots), and the remaining slots, read as complex128 pairs, hold
    sqrt(2) X_k for k = 1 .. (n-1)//2.  The change is orthogonal, so stored
    rows have the norms and dot products of the physical vectors."""
    for blk, h, q in _row_blocks(u):
        X = np.fft.rfft(blk, axis=-1, norm="ortho")
        blk[:, 0] = X[:, 0].real
        if h == 2:
            blk[:, 1] = X[:, -1].real
        np.multiply(X[:, 1: 1 + q], _SQRT2, out=blk[:, h:].view(complex))


def from_basis(u: np.ndarray) -> None:
    """Overwrite the basis rows of ``u`` with the physical vectors."""
    for blk, h, q in _row_blocks(u):
        n = blk.shape[-1]
        X = np.empty((blk.shape[0], n // 2 + 1), dtype=complex)
        X[:, 0] = blk[:, 0]
        if h == 2:
            X[:, -1] = blk[:, 1]
        np.divide(blk[:, h:].view(complex), _SQRT2, out=X[:, 1: 1 + q])
        blk[...] = np.fft.irfft(X, n=n, axis=-1, norm="ortho")


def basis_diagonal(eigenvalues: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The diagonal of a real circulant on basis rows: the head slots' real
    and the interior pairs' complex values of its ``eigenvalues`` (FFT
    order).  ``NotRealOperatorError`` if they are not conjugate-symmetric."""
    lam = np.asarray(eigenvalues)
    n = len(lam)
    # to 1e-8: a symbol evaluated at rounded frequencies carries phase
    # errors that grow with its offsets (a semi-Lagrangian shift)
    mirror = np.conj(lam[-np.arange(n) % n])
    if np.max(np.abs(lam - mirror)) > 1e-8 * np.max(np.abs(lam)):
        raise NotRealOperatorError(
            "the real Fourier basis needs a real operator (a "
            "conjugate-symmetric spectrum)")
    lam = lam[: n // 2 + 1]
    # eigenvalues of the real modes are real up to rounding; the physical
    # rfft/irfft round trip discards the same imaginary parts
    return lam[[0, -1][: 2 - n % 2]].real, lam[1: 1 + (n - 1) // 2]


def basis_multiply(diagonal: Tuple[np.ndarray, np.ndarray], v: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Basis rows ``v`` of shape (..., n_x) times a ``basis_diagonal``, into
    ``out`` when given (last axis contiguous; it may be ``v`` itself)."""
    head, interior = diagonal
    v = np.asarray(v, dtype=float)
    h = len(head)
    if v.shape[-1] != h + 2 * len(interior):
        raise DimensionMismatchError(
            f"vector length {v.shape[-1]} != n_x {h + 2 * len(interior)}")
    if out is None:
        out = np.empty(v.shape)
    np.multiply(v[..., :h], head, out=out[..., :h])
    np.multiply(v[..., h:].view(complex), interior,
                out=out[..., h:].view(complex))
    return out


def basis_forward_substitute(diagonal: Tuple[np.ndarray, np.ndarray],
                             u: np.ndarray) -> np.ndarray:
    """Solve e_k = D e_{k-1} + g_k, e_0 = 0, in place on the basis rows of the
    2-D ``u`` (rows may be strided, the last axis contiguous), with D a
    ``basis_diagonal``: ``u`` holds g_1 .. g_n on entry and e_1 .. e_n on
    return.

    Bitwise the row loop ``u[k] += basis_multiply(diagonal, u[k - 1])`` from
    a zero row: each interior row is one complex multiply and one add on its
    complex view, and each head slot a scalar recurrence."""
    head, interior = diagonal
    h = len(head)
    if u.ndim != 2 or u.shape[-1] != h + 2 * len(interior):
        raise DimensionMismatchError(
            f"need a 2-D stack of rows of length {h + 2 * len(interior)}")
    step = np.empty(len(interior), dtype=complex)
    prev = np.zeros_like(step)  # e_0, so that e_1 = g_1 + D 0
    for row in u[:, h:].view(complex):
        np.multiply(prev, interior, out=step)
        np.add(row, step, out=row)
        prev = row
    for j, d in enumerate(head.tolist()):
        values = u[:, j].tolist()
        e = 0.0
        for k, g in enumerate(values):
            e = g + d * e
            values[k] = e
        u[:, j] = values
    return u


def _row_blocks(u: np.ndarray):
    """Blocks of rows of a vector or 2-D stack (views), with the head-slot
    count and the number of complex interior modes."""
    if u.ndim not in (1, 2) or u.dtype != np.float64:
        raise DimensionMismatchError(
            "basis changes need a float64 vector or a 2-D stack of rows")
    rows = u[np.newaxis] if u.ndim == 1 else u
    n = rows.shape[-1]
    h, q = 2 - n % 2, (n - 1) // 2  # head slots, interior pairs
    for start in range(0, rows.shape[0], _BASIS_BLOCK_ROWS):
        yield rows[start: start + _BASIS_BLOCK_ROWS], h, q


def _gmres_batched(diagonal: Tuple[np.ndarray, np.ndarray], B: np.ndarray,
                   rel_tol: float, max_iters: int):
    """GMRES on many basis rows ``B`` sharing one real circulant, given as
    its ``basis_diagonal``.

    Each row of ``B`` gets its own Krylov space; the Arnoldi matrix-vector
    products are one ``basis_multiply`` across rows.  Breakdown (a zero
    Krylov vector) stops the affected rows with their current iterate; it is
    a status, not an error.  The new vector counts as zero at 1e-14 of the
    norm of its Hessenberg column (that of the operator times the last
    vector), a test that does not depend on the scale of the right-hand side.

    Returns (X, relative residuals, iterations used, breakdown flag).
    """
    K, n = B.shape
    max_iters = min(max_iters, n)
    beta = np.linalg.norm(B, axis=-1)
    live = beta > 0.0
    X = np.zeros_like(B)
    if not np.any(live):
        return X, np.zeros(K), 0, False

    V = np.zeros((K, max_iters + 1, n))
    H = np.zeros((K, max_iters + 1, max_iters))
    cs = np.zeros((K, max_iters))
    sn = np.zeros((K, max_iters))
    g = np.zeros((K, max_iters + 1))
    g[:, 0] = beta
    V[live, 0] = B[live] / beta[live, None]
    res = np.where(live, 1.0, 0.0)
    active = live.copy()
    depth = np.zeros(K, dtype=int)
    breakdown = False

    j = 0
    while j < max_iters and np.any(active):
        w = basis_multiply(diagonal, V[:, j, :])
        # modified Gram-Schmidt against the existing basis
        for i in range(j + 1):
            hij = np.einsum("kn,kn->k", w, V[:, i, :])
            H[:, i, j] = np.where(active, hij, H[:, i, j])
            w -= np.where(active, hij, 0.0)[:, None] * V[:, i, :]
        hnorm = np.linalg.norm(w, axis=-1)
        column = np.sqrt(np.sum(H[:, : j + 1, j] ** 2, axis=-1) + hnorm ** 2)
        happy = active & (hnorm <= 1e-14 * column)
        if np.any(happy):
            breakdown = True
        H[:, j + 1, j] = np.where(active, hnorm, 0.0)
        safe = np.where(hnorm > 0.0, hnorm, 1.0)
        V[:, j + 1, :] = np.where(active[:, None], w / safe[:, None], V[:, j + 1, :])
        # apply stored Givens rotations to the new column
        for i in range(j):
            t = cs[:, i] * H[:, i, j] + sn[:, i] * H[:, i + 1, j]
            H[:, i + 1, j] = -sn[:, i] * H[:, i, j] + cs[:, i] * H[:, i + 1, j]
            H[:, i, j] = t
        denom = np.hypot(H[:, j, j], H[:, j + 1, j])
        denom = np.where(denom > 0.0, denom, 1.0)
        cs[:, j] = H[:, j, j] / denom
        sn[:, j] = H[:, j + 1, j] / denom
        H[:, j, j] = cs[:, j] * H[:, j, j] + sn[:, j] * H[:, j + 1, j]
        H[:, j + 1, j] = 0.0
        g[:, j + 1] = np.where(active, -sn[:, j] * g[:, j], g[:, j + 1])
        g[:, j] = np.where(active, cs[:, j] * g[:, j], g[:, j])
        res = np.where(active, np.abs(g[:, j + 1]) / np.where(beta > 0, beta, 1.0), res)
        depth[active] = j + 1
        j += 1
        active = active & (res > rel_tol) & ~happy

    # H is upper triangular after the rotations: back-substitute all rows at
    # once, column by column; a row uses only the ``depth`` columns it built
    y = g[:, :j].copy()
    for i in range(j - 1, -1, -1):
        built = depth > i
        y[:, i] = np.where(built, y[:, i], 0.0)
        np.divide(y[:, i], H[:, i, i], out=y[:, i], where=built)
        y[:, :i] -= y[:, i, None] * H[:, :i, i]
        X += y[:, i, None] * V[:, i, :]
    return X, res, j, breakdown


def _row_norms(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of the real 2-D ``x``, with the squares
    formed in the first rows of ``work``: bitwise ``np.linalg.norm(x,
    axis=-1)``, which squares a copy of ``x`` each time."""
    squares = np.multiply(x, x, out=work[:len(x)])
    return np.sqrt(np.add.reduce(squares, axis=-1))


def _minres_spectral(diagonal: Tuple[np.ndarray, np.ndarray], B: np.ndarray,
                     rel_tol: float, max_iters: int):
    """``_gmres_batched`` for a symmetric operator, by MINRES on each row's
    frequency spectrum.

    A real symmetric circulant has real eigenvalues, and GMRES on a symmetric
    matrix is MINRES in exact arithmetic (Paige & Saunders 1975): the same
    iterates, residuals and stopping steps, with a three-term Lanczos
    recurrence in place of Arnoldi.  Every iterate is p(A) b for a polynomial
    p that depends on b only through the weights |X_k|^2 of its frequencies,
    so the recurrence runs on the n//2 + 1 magnitudes c_k = |X_k| of each
    basis row (the head slots, and the interior complex pairs) against the
    real eigenvalues of ``diagonal``, and maps back per frequency:
    x = (x_c / c) b.

    Each iteration runs only the Lanczos step and the Givens update of the
    residual estimate.  As in GMRES (Saad & Schultz 1986) the iterate is
    formed once, after the loop: x_c = V y, with V the row's normalized
    Lanczos vectors and y back-substituted from the banded triangular factor
    (gamma, delta, eps) of the Lanczos matrix against the rotated right-hand
    side tau.  The vectors are kept one array per iteration, holding only the
    rows still live, so the storage grows as the iterations run: j
    iterations keep j x (live rows) x (n//2 + 1) x 8 bytes.  At the package's
    caps (at most 20 iterations) storing them takes less time than updating
    three search directions and a running iterate on every iteration, as the
    short-recurrence form of MINRES does.

    Rows stop at relative residual ``rel_tol``, at Lanczos breakdown (the
    counterpart of GMRES's happy breakdown, with the same scale-free test)
    or at the cap, and leave the batch when they stop.  Each row's arithmetic
    is its own, so a row's result does not depend on the rest of the batch.
    Returns what ``_gmres_batched`` returns.

    In floating point the two methods part ways once the Lanczos vectors
    lose orthogonality, which takes iteration counts near the n//2 + 1
    distinct eigenvalues of an ill-conditioned correction; a row reported
    within ``rel_tol`` is still within it.
    """
    K, n = B.shape
    max_iters = min(max_iters, n)
    head, interior = diagonal
    h = len(head)
    lam = np.concatenate([head, interior.real])
    c = np.empty((K, len(lam)))
    np.abs(B[:, :h], out=c[:, :h])
    np.abs(B[:, h:].view(complex), out=c[:, h:])
    work = np.empty_like(c)  # the squares of the row norms
    beta1 = _row_norms(c, work)
    rows = np.flatnonzero(beta1 > 0.0)
    res = np.where(beta1 > 0.0, 1.0, 0.0)
    breakdown = False

    # per live row: Lanczos vectors v and v_prev with coupling beta, the last
    # two Givens rotations (cs1, sn1) and (cs2, sn2) and the residual
    # estimate phibar; per iteration: the live rows, their Lanczos vectors,
    # their column (eps, delta, gamma) of the triangular factor with tau, and
    # which of them stay live (a slice when all do)
    started = rows
    b1 = beta1[rows]
    v = c[rows] / b1[:, None]
    v_prev = np.zeros_like(v)
    beta = np.zeros(len(rows))
    cs1, sn1 = np.ones(len(rows)), np.zeros(len(rows))
    cs2, sn2 = np.ones(len(rows)), np.zeros(len(rows))
    phibar = b1.copy()
    live, basis, columns, kept = [], [], [], []

    j = 0
    while j < max_iters and len(rows):
        w = lam * v
        w -= beta[:, None] * v_prev
        alpha = np.einsum("kn,kn->k", w, v)
        w -= alpha[:, None] * v
        beta_next = _row_norms(w, work)
        # rotate the new tridiagonal column [beta, alpha, beta_next]
        eps = sn2 * beta
        delta_hat = cs2 * beta
        delta = cs1 * delta_hat + sn1 * alpha
        gamma_bar = cs1 * alpha - sn1 * delta_hat
        gamma = np.hypot(gamma_bar, beta_next)
        gamma = np.where(gamma > 0.0, gamma, 1.0)
        cs, sn = gamma_bar / gamma, beta_next / gamma
        tau = cs * phibar
        phibar = -sn * phibar
        live.append(rows)
        basis.append(v)
        columns.append((eps, delta, gamma, tau))
        j += 1

        r = np.abs(phibar) / b1
        res[rows] = r
        # the tridiagonal column [beta, alpha, beta_next] has the norm of
        # lam * v in exact arithmetic
        happy = beta_next <= 1e-14 * np.hypot(np.hypot(beta, alpha), beta_next)
        breakdown |= bool(np.any(happy))
        stop = (r <= rel_tol) | happy | (j == max_iters)
        keep = slice(None)
        if np.any(stop):
            keep = ~stop
            rows, b1, w, v = rows[keep], b1[keep], w[keep], v[keep]
            beta_next, cs, sn, cs1, sn1 = (beta_next[keep], cs[keep], sn[keep],
                                           cs1[keep], sn1[keep])
            phibar = phibar[keep]
        kept.append(keep)
        v_prev, v = v, w / beta_next[:, None]
        beta = beta_next
        cs2, sn2, cs1, sn1 = cs1, sn1, cs, sn

    # back-substitute y from R y = tau for all rows at once, column by column
    # from the last; a row's entries past its last iteration stay zero (with
    # gamma one), so it uses only the columns it built
    R = np.zeros((4, K, j + 2))
    R[2] = 1.0
    for i, (idx, column) in enumerate(zip(live, columns)):
        R[:, idx, i] = column
    eps, delta, gamma, tau = R
    y = np.zeros((K, j + 2))
    for i in range(j - 1, -1, -1):
        y[:, i] = (tau[:, i] - delta[:, i + 1] * y[:, i + 1]
                   - eps[:, i + 2] * y[:, i + 2]) / gamma[:, i]
    # x_c = V y, summed from the last Lanczos vector to the first in place in
    # the stored vectors; the rows live at step i + 1 are those kept at step i
    xs = np.empty((0, len(lam)))
    for i in range(j - 1, -1, -1):
        v = basis.pop()
        v *= y[live[i], i][:, None]
        v[kept[i]] += xs
        xs = v

    xc = np.zeros_like(c)
    xc[started] = xs
    scale = np.divide(xc, c, out=np.zeros_like(c), where=c > 0.0)
    X = np.empty_like(B)
    np.multiply(B[:, :h], scale[:, :h], out=X[:, :h])
    np.multiply(B[:, h:].view(complex), scale[:, h:], out=X[:, h:].view(complex))
    return X, res, j, breakdown
