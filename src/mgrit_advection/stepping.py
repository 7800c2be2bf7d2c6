"""Time-stepping operators for periodic linear advection.

Provides the method-of-lines steppers (explicit and singly diagonally
implicit Runge-Kutta in time, upwind finite differences in space), the
unconditionally stable semi-Lagrangian steppers, and the corrected
semi-Lagrangian coarse steppers whose truncation error matches that of a
repeated fine step.  A stepper is its exact Fourier symbol: it steps rows held
in the real orthonormal Fourier basis by multiplying with the symbol's mesh
values (``Stepper.basis_diagonal``); the one place that steps physical rows,
the oracle ``mgrit.sequential_solve``, builds its stencil from those values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .circulant import (CirculantOperator, _gmres_batched, _minres_spectral,
                        basis_diagonal, basis_multiply, stencil_symbol)
from .errors import SingularOperatorError, StabilityWarning, TableauError
from .lfa import _mesh_order, default_exclusion_count
from .stencils import (StencilWindow, error_constant_fd, f_poly, fd_weights,
                       high_derivative_operator, lagrange_weights,
                       upwind_derivative)

#: amplification factors up to 1 + this count as stable when locating CFL
#: limits; it ignores the tolerance-level excursions of eigenvalues that
#: graze the unit circle while the genuine instability sets in sharply
STABILITY_TOL = 1e-6

#: spatial domain is x in [-1, 1), so the mesh spacing is 2 / n_x
DOMAIN_LENGTH = 2.0


# --------------------------------------------------------------------- tableaux

@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients A, b with kind 'explicit' or 'sdirk'."""

    A: np.ndarray
    b: np.ndarray
    kind: str
    q: int
    name: str = ""

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        s = len(b)
        if A.shape != (s, s):
            raise TableauError(f"A must be {s}x{s}, got {A.shape}")
        if self.kind == "explicit":
            if np.any(np.abs(np.triu(A)) > 0):
                raise TableauError("explicit tableau must be strictly lower triangular")
        elif self.kind == "sdirk":
            if np.any(np.abs(np.triu(A, 1)) > 0):
                raise TableauError("sdirk tableau must be lower triangular")
            diag = np.diag(A)
            if diag[0] <= 0 or np.max(np.abs(diag - diag[0])) > 1e-14:
                raise TableauError("sdirk tableau needs equal positive diagonal entries")
        else:
            raise TableauError(f"unknown tableau kind {self.kind!r}")
        if abs(b.sum() - 1.0) > 1e-12:
            raise TableauError(f"weights must sum to 1, got {b.sum()!r}")

    @property
    def stages(self) -> int:
        return len(self.b)

    def taylor_coefficient(self, j: int) -> float:
        """j-th Taylor coefficient b^T A^(j-1) 1 of the stability function."""
        if j < 0:
            raise ValueError("j must be >= 0")
        if j == 0:
            return 1.0
        one = np.ones(self.stages)
        return float(self.b @ np.linalg.matrix_power(self.A, j - 1) @ one)


def _sdirk5_chain(gamma: float, nodes: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Bidiagonal SDIRK stage matrix with prescribed nodes; weights solved
    from the first five Taylor conditions of the stability function."""
    s = len(nodes)
    A = np.diag([gamma] * s)
    for i in range(1, s):
        A[i, i - 1] = nodes[i] - gamma
    one = np.ones(s)
    M = np.empty((s, s))
    v = one.copy()
    for j in range(s):
        M[:, j] = v
        v = A @ v
    rhs = np.array([1.0 / math.factorial(j + 1) for j in range(s)])
    b = np.linalg.solve(M.T, rhs)
    return A, b


def erk_tableau(q: int) -> ButcherTableau:
    """Shipped explicit methods: forward Euler, Heun, Kutta's third-order,
    the classical fourth-order method, and Butcher's six-stage fifth-order
    method (the variant with a43 = 1/2)."""
    if q == 1:
        return ButcherTableau(np.zeros((1, 1)), [1.0], "explicit", 1, "ERK1")
    if q == 2:
        A = np.zeros((2, 2))
        A[1, 0] = 1.0
        return ButcherTableau(A, [0.5, 0.5], "explicit", 2, "ERK2")
    if q == 3:
        A = np.zeros((3, 3))
        A[1, 0] = 0.5
        A[2, 0], A[2, 1] = -1.0, 2.0
        return ButcherTableau(A, np.array([1, 4, 1]) / 6.0, "explicit", 3, "ERK3")
    if q == 4:
        A = np.zeros((4, 4))
        A[1, 0] = 0.5
        A[2, 1] = 0.5
        A[3, 2] = 1.0
        return ButcherTableau(A, np.array([1, 2, 2, 1]) / 6.0, "explicit", 4, "ERK4")
    if q == 5:
        A = np.zeros((6, 6))
        A[1, 0] = 1 / 4
        A[2, 0], A[2, 1] = 1 / 8, 1 / 8
        A[3, 2] = 1 / 2
        A[4, 0], A[4, 1], A[4, 2], A[4, 3] = 3 / 16, -3 / 8, 3 / 8, 9 / 16
        A[5, 0], A[5, 1], A[5, 2], A[5, 3], A[5, 4] = -3 / 7, 8 / 7, 6 / 7, -12 / 7, 8 / 7
        return ButcherTableau(A, np.array([7, 0, 32, 12, 32, 7]) / 90.0,
                              "explicit", 5, "ERK5")
    raise ValueError(f"no shipped explicit tableau of order {q}")


def sdirk_tableau(q: int) -> ButcherTableau:
    """Shipped A-stable SDIRK methods of orders one to five.

    Orders one to four are the classical choices (backward Euler, the
    two-stage method with gamma = 1 - 1/sqrt(2), Alexander's three-stage
    L-stable method, and the five-stage gamma = 1/4 method).  The fifth-order
    tableau uses the L-stable diagonal gamma = 4024571134387/14474071345096
    with chain structure and weights determined by the order conditions of
    the stability function.
    """
    if q == 1:
        return ButcherTableau([[1.0]], [1.0], "sdirk", 1, "SDIRK1")
    if q == 2:
        g = 1.0 - 1.0 / math.sqrt(2.0)
        return ButcherTableau([[g, 0.0], [1.0 - g, g]], [1.0 - g, g],
                              "sdirk", 2, "SDIRK2")
    if q == 3:
        g = 0.435866521508458999416019  # root of g^3 - 3g^2 + 3g/2 - 1/6
        b1 = -1.5 * g * g + 4.0 * g - 0.25
        b2 = 1.5 * g * g - 5.0 * g + 1.25
        A = [[g, 0.0, 0.0], [(1.0 - g) / 2.0, g, 0.0], [b1, b2, g]]
        return ButcherTableau(A, [b1, b2, g], "sdirk", 3, "SDIRK3")
    if q == 4:
        A = np.array([
            [1 / 4, 0, 0, 0, 0],
            [1 / 2, 1 / 4, 0, 0, 0],
            [17 / 50, -1 / 25, 1 / 4, 0, 0],
            [371 / 1360, -137 / 2720, 15 / 544, 1 / 4, 0],
            [25 / 24, -49 / 48, 125 / 16, -85 / 12, 1 / 4],
        ])
        return ButcherTableau(A, A[-1].copy(), "sdirk", 4, "SDIRK4")
    if q == 5:
        g = 4024571134387 / 14474071345096
        A, b = _sdirk5_chain(g, [g, 0.45, 0.65, 0.85, 1.0])
        return ButcherTableau(A, b, "sdirk", 5, "SDIRK5")
    raise ValueError(f"no shipped sdirk tableau of order {q}")


def tableau(family: str, q: int) -> ButcherTableau:
    if family == "erk":
        return erk_tableau(q)
    if family == "sdirk":
        return sdirk_tableau(q)
    raise ValueError(f"unknown Runge-Kutta family {family!r}")


def rk_error_constant(tab: ButcherTableau) -> float:
    """Leading error constant beta_{q+1} - 1/(q+1)! of the stability function.

    Raises TableauError unless the first q Taylor coefficients match the
    exponential, i.e. unless the method really is order q on linear problems.
    """
    for j in range(1, tab.q + 1):
        beta = tab.taylor_coefficient(j)
        if abs(beta - 1.0 / math.factorial(j)) > 1e-12:
            raise TableauError(
                f"{tab.name or 'tableau'}: Taylor coefficient {j} is {beta}, "
                f"expected 1/{j}!")
    return tab.taylor_coefficient(tab.q + 1) - 1.0 / math.factorial(tab.q + 1)


def stability_function(tab: ButcherTableau, z) -> complex | np.ndarray:
    """R(z) = 1 + b^T k for the stage slopes k = z (1 + Ak) of one step of
    u' = zu from u = 1, vectorized over complex z.

    A is lower triangular: the slopes are a forward substitution,
    k_i = z (1 + sum_{j<i} a_ij k_j) / (1 - a_ii z), skipping zero entries.
    """
    zarr = np.asarray(z, dtype=complex)
    if tab.kind == "sdirk":
        gamma = tab.A[0, 0]
        if np.any(np.abs(1.0 - gamma * zarr) < 1e-14):
            raise SingularOperatorError(
                f"stability function pole: z near 1/gamma = {1.0 / gamma}")
    k = []
    for i, row in enumerate(tab.A):
        ki = zarr * (1.0 + sum(a * kj for a, kj in zip(row, k) if a != 0.0))
        if row[i] != 0.0:
            ki = ki / (1.0 - row[i] * zarr)
        k.append(ki)
    out = 1.0 + sum(b * ki for b, ki in zip(tab.b, k) if b != 0.0)
    return complex(out) if np.isscalar(z) else out


# ------------------------------------------------------------- discretizations

@dataclass(frozen=True)
class DiscretizationSpec:
    """Identifies a fine-grid discretization of the advection problem.

    The mesh has n_x >= 1 points on [-1, 1); at unit advection speed each of
    the n_t >= 1 steps has size c * h, h = 2 / n_x.  Time and space orders are both p.
    """

    family: str  # "erk" | "sdirk" | "semi_lagrangian"
    p: int
    c: float
    n_x: int
    n_t: int

    def __post_init__(self):
        if self.family not in ("erk", "sdirk", "semi_lagrangian"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.c == math.inf:  # a product of CFL factors that overflowed
            raise OverflowError(f"CFL number c = {self.c} is not finite")
        if not self.c > 0:
            raise ValueError(f"CFL number c must be positive, got {self.c}")
        if self.p < 1:
            raise ValueError(f"order must be >= 1, got {self.p}")
        if self.n_x < 1 or self.n_t < 1:
            raise ValueError(f"grid sizes must be >= 1: {self.n_x},{self.n_t}")

    def tableau(self) -> ButcherTableau:
        if self.family == "semi_lagrangian":
            raise ValueError("semi-Lagrangian discretizations have no tableau")
        return tableau(self.family, self.p)


class Stepper:
    """One-step propagation operator u_{n+1} = Phi u_n on the periodic mesh.

    The exact Fourier symbol ``symbol_fn`` is its only representation: the
    mode analysis evaluates it anywhere, and ``apply`` steps rows held in the
    real orthonormal Fourier basis (``circulant.to_basis``) by multiplying
    with its mesh values, ``eigenvalues()``, laid out as ``basis_diagonal()``,
    or with ``apply_fn(u, out)``: a capped stepper's ``CappedCorrection``,
    which approximates that product from the diagonals of its two factors
    and never builds the stepper's own.  The one place that steps physical
    rows, ``mgrit.sequential_solve``, builds its stencil from the same
    values, ``CirculantOperator.from_eigenvalues(n_x, eigenvalues())``.
    ``level`` only labels the stepper: it starts at 0, and
    ``mgrit.TimeGridProblem`` sets it to the stepper's index in a hierarchy.
    """

    def __init__(self, n_x: int,
                 symbol_fn: Callable[[np.ndarray], np.ndarray],
                 apply_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 description: str = ""):
        self.n_x = n_x
        self.level = 0
        self.description = description
        self._symbol_fn = symbol_fn
        self._apply_fn = apply_fn
        self._eig = None
        self._diagonal = None

    def apply(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance rows held in the real orthonormal Fourier basis one step;
        ``u`` may be batched with shape (..., n_x).  Written to ``out`` when
        given; it may be ``u`` itself."""
        if self._apply_fn is not None:
            return self._apply_fn(u, out)
        return basis_multiply(self.basis_diagonal(), u, out)

    def basis_diagonal(self) -> Tuple[np.ndarray, np.ndarray]:
        """``circulant.basis_diagonal`` of the eigenvalues, built once."""
        if self._diagonal is None:
            self._diagonal = basis_diagonal(self.eigenvalues())
        return self._diagonal

    def symbol(self, omega) -> np.ndarray:
        return self._symbol_fn(np.asarray(omega, dtype=float))

    def eigenvalues(self) -> np.ndarray:
        """Symbol at the mesh frequencies 2*pi*k/n_x (FFT order), cached."""
        if self._eig is None:
            om = 2.0 * np.pi * np.arange(self.n_x) / self.n_x
            self._eig = self.symbol(om)
            self._eig.setflags(write=False)
        return self._eig

    def max_amplification(self) -> float:
        om = -np.pi + 2.0 * np.pi * np.arange(4096) / 4096
        return float(np.max(np.abs(self.symbol(om))))

    def __repr__(self):
        return (f"Stepper({self.description}, n_x={self.n_x}, "
                f"level={self.level})")


class CappedCorrection(NamedTuple):
    """One corrected coarse step on rows in the real orthonormal Fourier
    basis, with the correction solve approximated: x = krylov(correction,
    step u), unrestarted from a zero guess, stopped at relative residual
    ``tol`` or after ``max_iters`` iterations per row.

    ``step`` and ``correction`` are the ``circulant.basis_diagonal`` of the
    semi-Lagrangian step, which ``basis_multiply`` applies, and of the
    correction I - phi D, which ``krylov`` solves: ``_gmres_batched``, or
    ``_minres_spectral`` for a symmetric correction, which has the same
    iterates and stopping steps in exact arithmetic.
    Both form each row's iterate once, from the stored Krylov vectors, after
    the last iteration; ``_minres_spectral`` stores one array per iteration
    of the rows still live, so its storage grows with the iterations run.

    The rows are stepped and solved in blocks of ``_CAPPED_BLOCK_ROWS``, each
    block's iterate written straight into ``out``, so the step output and
    the Krylov storage are those of one block however many rows are
    stepped.  Both kernels solve each row on its own, so the result does
    not depend on the blocking.  ``out`` may be ``u`` itself, or rows that
    do not overlap it.

    A batch that is all zeros steps to zeros with neither the step nor the
    solve: every coarse cycle's first F-relaxation steps the zero error.
    """

    step: Tuple[np.ndarray, np.ndarray]
    correction: Tuple[np.ndarray, np.ndarray]
    tol: float
    max_iters: int
    krylov: Callable

    def __call__(self, u: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            out = np.empty(np.shape(u))
        if not np.any(u):
            out[...] = 0.0
            return out
        rows = np.reshape(u, (-1, out.shape[-1]))
        dest = out.reshape(rows.shape)
        # rows of a diverging solve overflow; the residual norm reads inf
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(rows), _CAPPED_BLOCK_ROWS):
                block = slice(start, start + _CAPPED_BLOCK_ROWS)
                rhs = basis_multiply(self.step, rows[block])
                x, _, _, _ = self.krylov(self.correction, rhs, self.tol,
                                         self.max_iters)
                dest[block] = x
        if not np.may_share_memory(dest, out):  # reshaping ``out`` copied it
            out[...] = dest.reshape(out.shape)
        return out


#: relative residual at which the capped correction solve stops a row
CAPPED_TOL = 1e-2

#: rows per block of the capped correction solve, which bounds its step
#: output and Krylov storage to one block however many rows are stepped
_CAPPED_BLOCK_ROWS = 64


def capped_max_iters(p: int) -> int:
    """Iteration cap of the capped correction solve at spatial order p."""
    return 10 if p == 1 else 20


def mol_stepper(spec: DiscretizationSpec) -> Stepper:
    """Method-of-lines stepper R_q(-c L_p) for the given discretization, with
    the shipped tableau ``spec.tableau()``.

    Its symbol is the stability function at -c times the upwind symbol.  An
    explicit spec beyond its stability limit is constructed but flagged with
    a StabilityWarning.
    """
    tab = spec.tableau()
    L = upwind_derivative(spec.p, spec.n_x)
    c = spec.c

    def symbol_fn(om):
        return stability_function(tab, -c * L.symbol(om))

    if spec.family == "erk":
        limit = cfl_limit(spec.p, tab)
        if c > limit * (1.0 + 1e-9):
            warnings.warn(
                f"CFL number {c:.6g} exceeds the stability limit "
                f"{limit:.6g} for {tab.name}+U{spec.p}", StabilityWarning)

    return Stepper(spec.n_x, symbol_fn,
                   description=f"{tab.name}+U{spec.p}, c={c:.6g}")


def split_cfl(mc: float) -> Tuple[int, float]:
    """Split a step CFL number into whole cells k and a fraction eps in
    [0, 1); within 1e-13 of a whole cell the fraction is taken as 0."""
    k = int(math.floor(mc + 1e-13))
    eps = mc - k
    return k, (0.0 if eps < 1e-13 else eps)


def sl_stepper(p: int, mc: float, n_x: int) -> Stepper:
    """Semi-Lagrangian stepper of order p for a step with CFL number ``mc``.

    The departure point of the characteristic through mesh point i lies
    ``mc`` cells to the west; ``split_cfl`` splits it as a whole-cell shift
    to the west plus a fraction eps in [0, 1).  Order-p Lagrange
    interpolation on ``StencilWindow.interpolation(p, eps)``, moved by the
    shift, gives the symbol.  It satisfies max |symbol| <= 1 for every
    mc > 0.
    """
    if mc <= 0:
        raise ValueError(f"step CFL must be positive, got {mc}")
    k, eps = split_cfl(mc)
    window = StencilWindow.interpolation(p, eps)
    offsets = window.offsets - k
    w = lagrange_weights(window, eps)

    def symbol_fn(om):
        return stencil_symbol(offsets, w, om)

    return Stepper(n_x, symbol_fn, description=f"SL{p}, step CFL={mc:.6g}")


def fine_stepper(spec: DiscretizationSpec) -> Stepper:
    """The fine-grid stepper of ``spec``: semi-Lagrangian at CFL number
    ``spec.c``, or method of lines (``mol_stepper``)."""
    if spec.family == "semi_lagrangian":
        return sl_stepper(spec.p, spec.c, spec.n_x)
    return mol_stepper(spec)


_CFL_CACHE: dict = {}


def cfl_limit(p: int, tab: Optional[ButcherTableau] = None) -> float:
    """Largest CFL number keeping max_omega |R(-c L_p)| <= 1 + STABILITY_TOL.

    Located by bisection over c, to an interval of width 1e-6, with
    ``stability_function`` scanned on 4096 uniform samples of [-pi, pi).
    Results are memoized (steppers consult the limit on construction).
    """
    if tab is None:
        tab = erk_tableau(p)
    if tab.kind != "explicit":
        raise ValueError("CFL limits apply to explicit tableaux")
    key = (p, tab.A.tobytes(), tab.b.tobytes())
    if key in _CFL_CACHE:
        return _CFL_CACHE[key]
    win = StencilWindow.upwind(p)
    w = fd_weights(1, win.offsets, 0.0)
    om = -np.pi + 2.0 * np.pi * np.arange(4096) / 4096
    Lsym = stencil_symbol(win.offsets, w, om)

    def stable(c):
        R = stability_function(tab, -c * Lsym)
        return np.max(np.abs(R)) <= 1.0 + STABILITY_TOL

    lo, hi = 1e-8, 1.0
    while stable(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 64.0:
            raise RuntimeError("no instability found below c = 64")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    _CFL_CACHE[key] = 0.5 * (lo + hi)
    return _CFL_CACHE[key]


# -------------------------------------------------- corrected coarse operators

def phi_coefficient(p: int, c: float, F: int,
                    e_fd: float, e_rk: float) -> float:
    """Correction coefficient multiplying the high-derivative operator on the
    coarse level whose step is F fine steps.

    It combines the accumulated one-step errors of F fine steps with the
    interpolation error f(eps) of one semi-Lagrangian step at CFL F*c.  The
    paper defines it level by level: phi_1 at F = m, then
    phi_l = (-1)^(p+1) [ -m_l f(eps_{l-1}) + f(eps_l) ] + m_l phi_{l-1}.
    That recursion telescopes, so phi depends only on the cumulative factor
    F = m_1 ... m_l.
    """
    eps = split_cfl(F * c)[1]
    f_sl = f_poly(p, StencilWindow.interpolation(p, eps), eps)
    return F * (c * e_fd + (-c) ** (p + 1) * e_rk) + (-1) ** (p + 1) * f_sl


def correction_operator(p: int, n_x: int) -> CirculantOperator:
    """High-derivative operator used in the coarse-grid correction: symmetric
    second-order for odd p, left-biased first-order for even p."""
    return high_derivative_operator(p + 1, n_x)


def modified_coarse_stepper(spec: DiscretizationSpec, F: int,
                            solver: str = "direct") -> Stepper:
    """Corrected semi-Lagrangian coarse stepper for a method-of-lines fine grid.

    One application advances F fine steps: a semi-Lagrangian step at CFL
    number F*c followed by the implicit correction solve
    (I - phi D) x = intermediate, with phi set by F and the shipped tableau
    ``spec.tableau()`` alone (``phi_coefficient``).  With
    ``solver='direct'`` the solve is exact (a diagonal multiply in the
    Fourier basis); with ``solver='gmres'`` it is approximated by
    unrestarted GMRES from a zero guess, stopped per row at relative
    residual ``CAPPED_TOL`` or after ``capped_max_iters(p)`` iterations
    (``CappedCorrection``).  The Krylov solver is chosen here, once: the
    symmetric correction of odd p runs that GMRES as MINRES on each row's
    frequency spectrum (``_minres_spectral``), in exact arithmetic the same
    iterates and stopping steps from a short recurrence, and any other
    correction runs ``_gmres_batched``.  A capped stepper builds the basis
    diagonals of both here (``NotRealOperatorError``).
    """
    phi = phi_coefficient(spec.p, spec.c, F, error_constant_fd(spec.p),
                          rk_error_constant(spec.tableau()))
    sl = sl_stepper(spec.p, F * spec.c, spec.n_x)
    D = correction_operator(spec.p, spec.n_x)
    correction = 1.0 - phi * D.eigenvalues()

    bad = np.abs(correction) < 1e-14
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SingularOperatorError(
            f"correction matrix singular for phi = {phi:.6g} at "
            f"omega = 2*pi*{k}/{spec.n_x}")

    def symbol_fn(om):
        return sl.symbol(om) / (1.0 - phi * D.symbol(om))

    if solver == "direct":
        apply_fn = None  # the symbol's mesh values are the exact product
    elif solver == "gmres":
        # I - phi D is symmetric exactly when D is
        krylov = _minres_spectral if D.is_symmetric() else _gmres_batched
        apply_fn = CappedCorrection(sl.basis_diagonal(),
                                    basis_diagonal(correction), CAPPED_TOL,
                                    capped_max_iters(spec.p), krylov)
    else:
        raise ValueError(f"unknown solver {solver!r}")

    return Stepper(spec.n_x, symbol_fn, apply_fn=apply_fn,
                   description=(f"corrected SL{spec.p} (phi={phi:.4g}, "
                                f"F={F}, {solver})"))


def rediscretized_coarse_stepper(spec: DiscretizationSpec, m: int) -> Stepper:
    """The same implicit discretization, shipped tableau included, rebuilt
    with step size m * dt.

    Restricted to sdirk families: enlarging the step of a CFL-limited
    explicit method produces an unstable operator.
    """
    if spec.family != "sdirk":
        raise ValueError("rediscretized coarse steppers require an sdirk family "
                         "(an explicit method is unstable at m times its step)")
    coarse = DiscretizationSpec(spec.family, spec.p, m * spec.c, spec.n_x,
                                max(spec.n_t // m, 1))
    return mol_stepper(coarse)


def ideal_coarse_stepper(fine: Stepper, m: int) -> Stepper:
    """The exact coarse operator: m applications of the fine stepper."""

    def symbol_fn(om):
        return fine.symbol(om) ** m

    return Stepper(fine.n_x, symbol_fn, description=f"ideal (fine^{m})")


def plain_sl_coarse_stepper(spec: DiscretizationSpec, F: int) -> Stepper:
    """Uncorrected semi-Lagrangian coarse stepper over F fine steps (for
    comparison runs)."""
    return sl_stepper(spec.p, F * spec.c, spec.n_x)


# ------------------------------------------------------ truncation-error fits

@dataclass
class TruncationReport:
    """Leading truncation-error fit across a sequence of meshes."""

    n_x: list
    fitted_constants: list
    predicted_constant: float
    residual_norms: list
    remainder_norms: list

    @property
    def remainder_order(self) -> float:
        """Log-log slope of the after-fit remainder against h."""
        return _mesh_order(self.n_x, self.remainder_norms)

    @property
    def residual_order(self) -> float:
        return _mesh_order(self.n_x, self.residual_norms)


def truncation_residual(family: str, p: int, c: float,
                        n_x_list: Sequence[int]) -> TruncationReport:
    """Fit the one-step residual u(t+dt) - Phi u(t) of the order-p ``family``
    stepper at CFL number c to its leading error term.

    The leading term is K * D u(t+dt) with D the correction operator of
    order p+1; K is fitted by least squares on each mesh and compared against
    the closed-form constant:

    - method of lines:  K = -( c e_fd + (-c)^{p+1} e_rk )
    - semi-Lagrangian:  K = (-1)^{p+1} f_{p+1}(eps)

    The profile u(t) = sin(pi x) is the mesh mode Im(-z), z_j = exp(i omega j)
    at omega = 2 pi / n_x, so with a = exp(-i c omega) - lambda(omega) and
    b = D(omega) exp(-i c omega) the residual is Im(-a z) and D u(t+dt) is
    Im(-b z).  For n_x >= 3, sum_j Im(a z_j) Im(b z_j) = (n_x/2) Re(a conj b):
    K = Re(a conj b) / |b|^2, and the RMS residual and remainder are
    |a| / sqrt 2 and |a - K b| / sqrt 2.
    """
    if family in ("erk", "sdirk"):
        e_rk = rk_error_constant(tableau(family, p))
        predicted = -(c * error_constant_fd(p) + (-c) ** (p + 1) * e_rk)
    elif family == "semi_lagrangian":
        eps = split_cfl(c)[1]
        predicted = (-1.0) ** (p + 1) * f_poly(
            p, StencilWindow.interpolation(p, eps), eps)
    else:
        raise ValueError(f"unknown family {family!r}")

    fitted, res_norms, rem_norms = [], [], []
    for n_x in n_x_list:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            stepper = fine_stepper(DiscretizationSpec(family, p, c, n_x, 1))
        om = 2.0 * np.pi / n_x
        exact = np.exp(-1j * c * om)
        a = exact - complex(stepper.symbol(om))
        b = correction_operator(p, n_x).symbol(om) * exact
        K = (a * b.conjugate()).real / abs(b) ** 2
        fitted.append(K)
        res_norms.append(abs(a) / math.sqrt(2.0))
        rem_norms.append(abs(a - K * b) / math.sqrt(2.0))
    return TruncationReport(list(n_x_list), fitted, predicted, res_norms,
                            rem_norms)


def global_error_order(family: str, p: int, c: float,
                       n_x_list: Sequence[int]) -> Tuple[float, list]:
    """Observed global convergence order at a fixed CFL number.

    Steps the mode sin(pi x) of ``truncation_residual`` with the order-p
    ``family`` stepper to (approximately) t = 1 on each mesh, where for
    n_x >= 3 the RMS error is |lambda(omega)^n_t - exp(-i omega c n_t)|
    / sqrt 2, and regresses it against h in log-log coordinates.  Returns
    (slope, errors).
    """
    errors = []
    for n_x in n_x_list:
        h = DOMAIN_LENGTH / n_x
        n_t = max(1, round(1.0 / (c * h)))
        stepper = fine_stepper(DiscretizationSpec(family, p, c, n_x, n_t))
        om = 2.0 * np.pi / n_x
        drift = complex(stepper.symbol(om)) ** n_t - np.exp(-1j * om * c * n_t)
        errors.append(abs(drift) / math.sqrt(2.0))
    return _mesh_order(n_x_list, errors), errors


def modified_ideal_consistency(spec: DiscretizationSpec, m: int,
                               n_x_list: Sequence[int]) -> Tuple[float, list]:
    """Order at which the corrected coarse symbol approaches the ideal one.

    Evaluates |mu(omega) - lambda(omega)^m| at the smallest retained mesh
    frequency on each grid and returns the log-log slope against h (expected
    at least p + 2) together with the sampled differences.
    """
    j_min = default_exclusion_count(spec.p) // 2 + 1
    diffs = []
    for n_x in n_x_list:
        spec_n = DiscretizationSpec(spec.family, spec.p, spec.c, n_x, spec.n_t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            fine = mol_stepper(spec_n)
            coarse = modified_coarse_stepper(spec_n, m)
        om = 2.0 * np.pi * j_min / n_x
        diffs.append(float(abs(coarse.symbol(om) - fine.symbol(om) ** m)))
    return _mesh_order(n_x_list, diffs), diffs
