"""Linear multigrid-reduction-in-time solver.

Solves the block-bidiagonal all-at-once system u_{n+1} = Phi u_n + g_{n+1}
by combining block relaxation on the fine time grid with a coarse-grid
correction on every m-th time point.  F-relaxation overwrites the points
inside each coarse interval by forward substitution (independent across
intervals, hence parallel); C-relaxation does the same at the coarse points.
The coarse problem propagates the restricted residual with the coarse
stepper Psi and its solution corrects the coarse points.

The residual convention everywhere is the global l2 norm over coarse-point
residuals; after a closing F-relaxation the remaining points have zero
residual by construction.

``solve`` runs in the real orthonormal Fourier basis: it changes the basis of
the iterate in place once, cycles with the levels' steppers, whose
``Stepper.apply`` steps basis rows (a multiply by ``basis_diagonal``, built
with the hierarchy, or a capped correction's MINRES or GMRES solve), and
changes back when it returns or raises.  The change of basis is orthogonal,
so the residual norms it computes there equal the physical l2 norms.  Its
two-level residual histories with a direct coarse solve are predicted mode
by mode by ``lfa.predict_history``, and ``sequential_solve`` steps the fine
stepper's physical stencil for the exact solution.

The phase kernels reach a level through its class views [C, F_1, ...,
F_{m-1}] (``class_views``): its C-points u_{km} in rows 0 .. n_c, then for
each j its F-points u_{km+j} in one contiguous block of n_c rows, each class
in time order.  After the change of basis ``solve`` permutes the iterate's
rows in place into this layout (``block_rows``, one row of scratch), and
puts them back in time order before the basis changes back, when it returns
or raises.  An inner V-cycle level starts from a zero error, so it is laid
out in its class blocks for free.  Every class a phase steps, on every
level, is then one block of whole contiguous rows.

``solve`` does each fine-level sweep once, bit for bit the cycle as written:
level 0 passes ``g = None`` (its right-hand side is u0 at t = 0, which row 0
of the iterate holds, and zero elsewhere); after the first cycle it skips the
opening F-relaxation, which the closing one already did, and its first
C-relaxation copies the values the residual norm propagated.

A level whose coarser level is the coarsest (every two-level solve, and the
bottom level of a V-cycle) runs its whole cycle in one pass over its row
blocks (``MgritSolver._pass``): each block of coarse intervals is relaxed,
restricted, forward-substituted from the last error row of the block
before, corrected, F-relaxed and, on level 0, normed while its rows are in
cache, so a two-level cycle and its residual norm stream the iterate once
rather than once per phase.  The C-point a block starts from ends the block
before, which rewrites it in its later C-relaxations and its correction; it
copies the row before each of those writes, and the next block's
F-relaxations read the copies, so the pass is bitwise the phases in turn.

A right-hand side ``g`` holds rows 1..n of a level's n + 1 time points in
time order, or is None for zero.  No kernel reads g_0: row 0 of the iterate
holds the value at t = 0 (u0 on level 0, a zero error below).

The solver reaches a level only through its ``Stepper``, so it does not
know whether a coarse solve is direct or capped.  Every level restricts its
residual over its own last F-points u_{km-1} (the class F_{m-1}, on level
0 its last block), which the closing F-relaxation rewrites, so they are
dead while the level waits for its correction.  Level 0 holds the iterate
for the whole solve.  The coarsest level holds nothing: the level above it
forward-substitutes the coarse problem in its own last F-points from a zero
error, a row block at a time, each from the last error row of the block
before (``Stepper.forward_substitute``), so a two-level solve holds only its
iterate.  An inner V-cycle level l + 1 cycles on its error in the C-points
of level l, zeroed and laid out in level l + 1's class blocks.  Its ``g``
is level l's last F-points.  Level l parks its C-point values in its first
F-points u_{km+1}, as dead as the last ones.  Once the cycle below returns,
it adds each class of the error to the parked values it belongs to and
copies them back; if the cycle raises, it copies them back unchanged.  Row
0 is copied aside and restored.  At m >= 3 a V-cycle so holds nothing but
its iterate and, at any ``threads``, one block of rows' Krylov storage of a
capped coarse solve (``stepping.CappedCorrection``).  At m = 2 each level
that recurses parks its n_c C-point values in a buffer (its first F-points
are its last), about twice level 1's rows.  The README gives the peaks.

With nu >= 1 the residual norm writes its propagated values Phi u_{km-1}
over each interval's last F-point u_{km-1}, which the next F-relaxation
overwrites anyway; with nu = 0 no C-relaxation reads them, and the iterate
is left alone.  When the loop ends the last F-points are stepped once more
from u_{km-2}, so the returned iterate is the cycle's bit for bit.

``solve`` runs with numpy's overflow and invalid-value warnings off, in
every pool task too: a diverging solve stops at its first infinite residual
norm, and no warning escapes.

Every block walk takes its row blocks from ``circulant._block_edges``.
The pass chains its blocks through the forward substitution, so it runs
in the calling thread at every ``threads``.  A recursing V-cycle level runs
its relaxation and restriction phases in at most ``threads`` tasks of whole
blocks of coarse intervals on a pool, which only a solve with such a level
makes.  The residual norm, the basis changes and a capped solve take one
block at a time, so every row keeps its serial arithmetic and Krylov calls:
histories are bitwise independent of ``threads``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .circulant import CirculantOperator, _block_edges, from_basis, to_basis
from .stepping import Stepper


@dataclass
class MgritConfig:
    """Iteration controls: F(CF)^nu pre-relaxation, cycle type, halting, and
    the seed of the random initial iterate."""

    nu: int = 1
    cycle: str = "two_level"  # "two_level" | "v_cycle"
    tol: float = 1e-10
    max_iters: int = 30
    rng_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.nu < 0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if self.cycle not in ("two_level", "v_cycle"):
            raise ValueError(f"unknown cycle {self.cycle!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.rng_seed < 0:
            raise ValueError(f"seed (rng_seed) must be >= 0, got {self.rng_seed}")


@dataclass
class TimeGridProblem:
    """Per-level steppers and coarsening factors plus the initial condition.

    ``steppers[0]`` advances the fine grid; ``steppers[l]`` for l >= 1 is the
    coarse operator on level l, and the problem labels each stepper with its
    level (``Stepper.level = l``).  ``m[l]`` is the coarsening factor from
    level l to l+1, so the number of levels is len(m) + 1, at least two.
    n_t must be divisible by the cumulative coarsening, and the coarsest level
    keeps at least two time points (one step).
    """

    steppers: List[Stepper]
    m: List[int]
    n_t: int
    u0: np.ndarray

    def __post_init__(self):
        self.u0 = np.asarray(self.u0, dtype=float)
        if not self.m:
            raise ValueError("need at least one coarsening factor")
        if len(self.steppers) != len(self.m) + 1:
            raise ValueError("need one stepper per level: "
                             f"{len(self.steppers)} steppers, {len(self.m)} factors")
        n = self.n_t
        for lvl, mf in enumerate(self.m):
            if mf < 2:
                raise ValueError(f"coarsening factor must be >= 2, got {mf}")
            if n % mf != 0:
                raise ValueError(
                    f"level {lvl} has {n} steps, not divisible by m = {mf}")
            n //= mf
        if n < 1:
            raise ValueError("coarsest level must keep at least one step")
        if any(s.n_x != len(self.u0) for s in self.steppers):
            raise ValueError("stepper mesh sizes must match the initial condition")
        for lvl, stepper in enumerate(self.steppers):
            stepper.level = lvl

    @property
    def n_levels(self) -> int:
        return len(self.steppers)

    @property
    def n_x(self) -> int:
        return len(self.u0)


@dataclass
class SolveReport:
    """Residual history and effective convergence factor of one solve.

    ``effective_rho`` is the last iteration's residual ratio
    r^i / r^(i-1).  On a finite time grid the error propagator is nilpotent
    and can cut a divergent history short, so an unconverged run can read a
    small factor after its residual grew far above r^0.  A solve stops
    unconverged after the first cycle whose residual norm is not finite,
    which reads inf once it overflows or the residuals hold nan.
    """

    residual_norms: List[float]
    iterations: int
    effective_rho: float
    converged: bool
    wall_time: float = 0.0


def class_views(u: np.ndarray, m: int) -> List[np.ndarray]:
    """A level's n_c m + 1 time points as its class views [C, F_1, ...,
    F_{m-1}], in ``block_rows``'s layout: the n_c + 1 C-points u_{km} in rows
    0 .. n_c, then for each j the n_c F-points u_{km+j} in one contiguous
    block of rows, each class in time order.  The phase kernels reach a
    level only through these views."""
    n_c = (u.shape[0] - 1) // m
    return [u[:n_c + 1]] + [u[n_c + 1 + (j - 1) * n_c:n_c + 1 + j * n_c]
                            for j in range(1, m)]


def _permute_rows(u: np.ndarray, source) -> None:
    """Move row ``source(i)`` of ``u`` to row i, for every i, in place: each
    cycle of the permutation is followed with one row of scratch, and a bit
    per row marks the rows already placed."""
    n = u.shape[0]
    placed = bytearray((n + 7) // 8)
    scratch = np.empty(u.shape[1:])
    for start in range(n):
        if placed[start >> 3] >> (start & 7) & 1:
            continue
        dst, src = start, source(start)
        if src != start:
            scratch[...] = u[start]
            while src != start:
                u[dst] = u[src]
                placed[dst >> 3] |= 1 << (dst & 7)
                dst, src = src, source(src)
            u[dst] = scratch
        placed[dst >> 3] |= 1 << (dst & 7)


def block_rows(u: np.ndarray, m: int) -> None:
    """Permute a level's n_c m + 1 rows in place from time order to the
    blocked layout: the C-points first, rows 0 .. n_c, then one block of n_c
    rows per F-class j = 1 .. m - 1, each in time order."""
    n_c = (u.shape[0] - 1) // m

    def source(q):
        if q <= n_c:
            return q * m
        j, k = divmod(q - n_c - 1, n_c)
        return k * m + j + 1

    _permute_rows(u, source)


def unblock_rows(u: np.ndarray, m: int) -> None:
    """Undo ``block_rows`` in place: the rows back in time order."""
    n_c = (u.shape[0] - 1) // m

    def source(r):
        k, j = divmod(r, m)
        return k if j == 0 else n_c + 1 + (j - 1) * n_c + k

    _permute_rows(u, source)


def _intervals(level, g, k0, k1, *out):
    """The class views of coarse intervals k0 <= k < k1 (C-points k0 .. k1),
    then their rows of ``g`` (None stays None) and of each ``out``."""
    return ([level[0][k0:k1 + 1]] + [f[k0:k1] for f in level[1:]],
            None if g is None else g[k0 * len(level):k1 * len(level)],
            *(o[k0:k1] for o in out))


def _step_rows(level, g, stepper, j, out=None) -> np.ndarray:
    """Phi u_{km+j-1} + g_{km+j} for every interval k, 1 <= j <= m, of the
    class views ``level``, with ``g`` None read as zero; written to ``out``
    when given.  ``g`` holds rows 1..n in time order, so g_{km+j} is its
    row km+j-1."""
    out = stepper.apply(level[j - 1] if j > 1 else level[0][:-1], out=out)
    if g is not None:
        out += g[j - 1::len(level)]
    return out


def f_relax(level: List[np.ndarray], g: Optional[np.ndarray],
            stepper: Stepper) -> None:
    """Zero the residual at the m-1 points after each coarse point of the
    class views ``level``.

    Sequential inside an interval, batched across intervals, each step
    written straight into its class.  ``g`` holds time points 1..n, or is
    None for zero.
    """
    for j in range(1, len(level)):
        _step_rows(level, g, stepper, j, level[j])


def c_relax(level: List[np.ndarray], g: Optional[np.ndarray],
            stepper: Stepper) -> None:
    """Zero the residual at every coarse point after the first, writing
    straight into the C-points of the class views ``level``; ``g`` holds
    time points 1..n, or is None for zero."""
    _step_rows(level, g, stepper, len(level), level[0][1:])


def restrict_residual(level: List[np.ndarray], g: Optional[np.ndarray],
                      stepper: Stepper,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Coarse-point residuals g_km + Phi u_{km-1} - u_km for k >= 1 of the
    class views ``level``.

    Injected to the coarse grid; valid as the full residual once the interior
    points have been F-relaxed.  ``g`` holds time points 1..n, or is None
    for zero.  Written to ``out`` when given; it may be the last F-class
    ``level[-1]``, the rows stepped from.
    """
    r = _step_rows(level, g, stepper, len(level), out)
    r -= level[0][1:]
    return r


def cpoint_residual_norm(level, g, stepper, out=None) -> float:
    """Global l2 norm of the coarse-point residuals g_km + Phi u_{km-1} - u_km
    of the class views ``level``, with ``g`` as in ``restrict_residual``.

    The residuals are formed, and their squares summed, a row block at a
    time in one block-sized array, so no full-size residual is made.
    ``out``, when given, receives g_km + Phi u_{km-1}, what a C-relaxation
    would write; it may be the last F-class ``level[-1]``, the rows it is
    stepped from.  Without it the level is left as it is.  A norm too large
    for a float, or of residuals that hold nan, is inf, without a warning."""
    n_c = len(level[0]) - 1
    edges = _block_edges(n_c, n_c)  # one range per block, the first longest
    r = np.empty((edges[1] if n_c else 0, level[0].shape[1]))
    outs = [] if out is None else [out]
    total = 0.0
    for k0, k1 in zip(edges, edges[1:]):
        block, g_k, *dest = _intervals(level, g, k0, k1, *outs)
        total += _residual_squares(block, g_k, stepper, r[:k1 - k0], *dest)
    return _root(total)


def _residual_squares(block, g, stepper, res, out=None) -> float:
    """The summed squares of the coarse-point residuals of the class views
    ``block``, one row block, formed in its rows ``res``; ``g`` and ``out``
    as in ``cpoint_residual_norm``."""
    relaxed = _step_rows(block, g, stepper, len(block),
                         res if out is None else out)
    np.subtract(relaxed, block[0][1:], out=res)
    with np.errstate(over="ignore"):
        return float(np.dot(res.ravel(), res.ravel()))


def _root(total: float) -> float:
    """The norm of summed squares: inf if they overflowed or hold nan."""
    norm = math.sqrt(total)
    return math.inf if math.isnan(norm) else norm


def sequential_solve(problem: TimeGridProblem) -> np.ndarray:
    """Exact physical forward substitution u_n = Phi u_{n-1} from u_0 = u0 on
    the fine grid, stepped with the physical stencil built from the fine
    stepper's eigenvalues; the ground truth."""
    st = problem.steppers[0]
    op = CirculantOperator.from_eigenvalues(st.n_x, st.eigenvalues())
    u = np.empty((problem.n_t + 1, problem.n_x))
    u[0] = problem.u0
    for n in range(1, problem.n_t + 1):
        u[n] = op.apply(u[n - 1])
    return u


class MgritSolver:
    """Driver object holding the level hierarchy and the iteration state.

    ``threads`` > 1 runs the relaxation and restriction phases of a
    V-cycle's recursing levels on a pool, in tasks of whole row blocks; a
    level above the coarsest runs its pass in the calling thread, so a
    two-level solve makes no pool.  Histories do not change.
    """

    def __init__(self, problem: TimeGridProblem, config: MgritConfig,
                 threads: int = 1):
        self.problem = problem
        self.config = config
        self.threads = max(1, int(threads))
        self._pool = None

    # -------------------------------------------------------------- iteration

    def initial_state(self) -> np.ndarray:
        """Random initial iterate: exact at t = 0, uniform [0, 1) elsewhere."""
        rng = np.random.default_rng(self.config.rng_seed)
        u = rng.random((self.problem.n_t + 1, self.problem.n_x))
        u[0] = self.problem.u0
        return u

    def _over_intervals(self, kernel, level: List[np.ndarray],
                        g: Optional[np.ndarray], stepper: Stepper,
                        *out: np.ndarray) -> None:
        """Run ``kernel(level, g, stepper, *out)`` on the ``_intervals`` of
        each of at most ``threads`` ranges of whole row blocks
        (``circulant._block_edges``), one in the calling thread, more on the
        pool, so a capped level makes the serial run's Krylov calls.
        Adjacent tasks share only their boundary C-point, which only the
        left task's C-relaxation writes and the right task's never reads.
        """
        edges = _block_edges(len(level[0]) - 1, self.threads)

        def task(k0, k1):
            # a pool thread starts from numpy's default error state
            with np.errstate(over="ignore", invalid="ignore"):
                block, g_k, *out_k = _intervals(level, g, k0, k1, *out)
                kernel(block, g_k, stepper, *out_k)

        run = self._pool.map if len(edges) > 2 else map
        list(run(task, edges[:-1], edges[1:]))

    def _recurses(self, depth: int) -> bool:
        """Whether level ``depth`` cycles on the level below, rather than
        forward-substituting the coarsest level's problem."""
        return (self.config.cycle == "v_cycle"
                and depth + 1 < len(self.problem.m))

    def _cycle(self, depth: int, level: List[np.ndarray],
               g: Optional[np.ndarray],
               warm: bool = False) -> Optional[float]:
        """One cycle in place on the class views ``level`` of hierarchy
        level ``depth`` (``class_views``); on level 0 it returns the
        residual norm the cycle leaves (``cpoint_residual_norm``, with the
        norm's C-point values over the last F-points when ``nu`` >= 1).
        The level restricts its residual over its own last F-points
        ``level[-1]``, which the closing F-relaxation rewrites.  If depth + 1
        is the coarsest, ``_pass`` runs the whole cycle block by block;
        otherwise the phases run on ``_over_intervals``, and the last
        F-points are the right-hand side of depth + 1's cycle on its error,
        which it runs in the class views of this level's C-points
        ``level[0]``, zeroed.  Their values wait in the first F-points
        ``level[1]`` (at m = 2 in an n_c-row buffer, since those are the
        last F-points), row 0 in a copy; the C-points get them back plus
        the error, added class by class, when the cycle returns, and
        without it if it raises.
        ``warm``: the F-points are relaxed, so the opening F-relaxation is
        skipped; with ``nu`` >= 1 each interval's last F-point holds the
        C-point value Phi u_{km-1} in its place (``cpoint_residual_norm``'s
        ``out``), and the first C-relaxation copies it rather than
        stepping."""
        if not self._recurses(depth):
            return self._pass(depth, level, g, warm)
        cfg = self.config
        stepper = self.problem.steppers[depth]
        cpoints, rhs = level[0], level[-1]
        phase = self._over_intervals

        if not warm:
            phase(f_relax, level, g, stepper)
        for sweep in range(cfg.nu):
            if warm and sweep == 0:
                cpoints[1:] = rhs
            else:
                phase(c_relax, level, g, stepper)
            phase(f_relax, level, g, stepper)

        # the last F-points are dead until the closing F-relaxation rewrites
        # them: they hold the restricted residual, the coarse right-hand side
        phase(restrict_residual, level, g, stepper, rhs)
        # depth + 1 cycles on its error in the C-points, in its own class
        # blocks; their values wait in the dead first F-points, which at
        # m = 2 are the last ones, the rhs
        m_next = self.problem.m[depth + 1]
        parked = level[1] if len(level) > 2 else np.empty(rhs.shape)
        parked[...] = cpoints[1:]
        row0 = cpoints[0].copy()
        try:
            cpoints.fill(0.0)
            error = class_views(cpoints, m_next)
            self._cycle(depth + 1, error, rhs)
            # parked row i - 1 takes coarse point i of the error, which is
            # in class i % m_next
            for j, values in enumerate(error[1:] + [error[0][1:]]):
                parked[j::m_next] += values
        finally:
            cpoints[1:] = parked
            cpoints[0] = row0
        phase(f_relax, level, g, stepper)
        if depth == 0:
            return cpoint_residual_norm(level, g, stepper,
                                        rhs if cfg.nu else None)
        return None

    def _pass(self, depth: int, level: List[np.ndarray],
              g: Optional[np.ndarray], warm: bool) -> Optional[float]:
        """``_cycle`` on a level whose coarser level is the coarsest, in one
        pass over its row blocks (``circulant._block_edges``) in the calling
        thread: each block's intervals are relaxed, restricted over their
        last F-points, forward-substituted from the last error row of the
        block before, corrected, F-relaxed and, on level 0, normed while
        their rows are in cache, so the rows stream once per cycle.

        Bitwise the per-phase schedule: the only row two blocks share is
        the C-point k0 that ends the block before.  That block rewrites it
        in each later C-relaxation and in its correction, before this
        block's F-relaxations read it.  So the block before copies the row
        ahead of each of those writes (``nu`` + 1 rows in all), this block's
        F-relaxation s reads copy s in the row, and the row gets its last
        value back before the closing F-relaxation, or if a phase raises."""
        nu = self.config.nu
        stepper, coarser = self.problem.steppers[depth:depth + 2]
        n_c, n_x = len(level[0]) - 1, level[0].shape[1]
        edges = _block_edges(n_c, n_c)
        # row 0 is never written, so the first block reads it in every copy
        saved = np.repeat(level[0][:1], nu + 1, axis=0)
        row0, carry = np.empty(n_x), np.zeros(n_x)
        res = np.empty((edges[1], n_x)) if depth == 0 else None
        total = 0.0
        for k0, k1 in zip(edges, edges[1:]):
            block, g_k = _intervals(level, g, k0, k1)
            cpoints, rhs = block[0], block[-1]
            row0[...] = cpoints[0]
            try:
                if not warm:
                    cpoints[0] = saved[0]
                    f_relax(block, g_k, stepper)
                for sweep in range(nu):
                    saved[sweep] = cpoints[-1]
                    if warm and sweep == 0:
                        cpoints[1:] = rhs
                    else:
                        c_relax(block, g_k, stepper)
                    cpoints[0] = saved[sweep + 1]
                    f_relax(block, g_k, stepper)
                saved[nu] = cpoints[-1]
                restrict_residual(block, g_k, stepper, rhs)
                # forward substitution from the block before's last error
                # row (zero for the first) turns the residual into the error
                coarser.forward_substitute(rhs, carry)
                carry[...] = rhs[-1]
                cpoints[1:] += rhs
            finally:
                cpoints[0] = row0
            f_relax(block, g_k, stepper)
            if depth == 0:
                total += _residual_squares(block, g_k, stepper,
                                           res[:k1 - k0], rhs if nu else None)
        return _root(total) if depth == 0 else None

    # ------------------------------------------------------------------ solve

    def solve(self, u: Optional[np.ndarray] = None) -> SolveReport:
        """Iterate to the halting rule, in place on ``u`` (the seeded random
        state if None): a float64 array of shape (n_t + 1, n_x) with a
        contiguous last axis, checked before it is touched.  Its row 0 is
        set to the initial condition ``problem.u0``.  While the solve runs,
        ``u`` is in the Fourier basis with its rows permuted in place by
        ``block_rows``, so each of level 0's classes is one contiguous
        block; it is physical and in time order again when the solve returns
        or raises.  A two-level solve, and a V-cycle at m >= 3, allocates no
        array of the coarse grid's size: each inner level cycles in the
        C-points of the level above, in its own class blocks (``_cycle``).
        At m = 2 a recursing level parks its C-point values in n_c rows
        while the cycle below visits it.  The residual norm is formed once
        before the first cycle and then by each cycle as it ends."""
        cfg = self.config
        problem = self.problem
        if u is None:
            u = self.initial_state()
        shape = (problem.n_t + 1, problem.n_x)
        if (u.shape != shape or u.dtype != np.float64
                or u.strides[-1] != u.itemsize):
            raise ValueError(
                f"the iterate must be a float64 array of shape {shape} with a "
                f"contiguous last axis, got {u.dtype} of shape {u.shape}")
        m = problem.m[0]
        level = class_views(u, m)

        start = time.perf_counter()
        stepper = problem.steppers[0]
        u[0] = problem.u0
        to_basis(u)
        block_rows(u, m)
        # only a recursing level's phases run on the pool
        if self.threads > 1 and self._recurses(0):
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(max_workers=self.threads)
        # a diverging iterate overflows, the norm reads inf, and the basis
        # change returns what it holds
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                # the norm's C-point values, over the last F-points for the
                # warm cycle's first C-relaxation; with nu = 0 no
                # C-relaxation reads them
                norms = [cpoint_residual_norm(level, None, stepper,
                                              level[-1] if cfg.nu else None)]
                converged = False
                it = 0
                while it < cfg.max_iters:
                    norms.append(self._cycle(0, level, None, warm=it > 0))
                    it += 1
                    # a cycle that leaves a zero residual has converged;
                    # the opening norm alone is never enough, as it reads
                    # only the C-points and leaves the F-points unchecked
                    if norms[-1] == 0.0 or (
                            norms[0] > 0 and norms[-1] / norms[0] <= cfg.tol):
                        converged = True
                        break
                    # past a norm that is not finite, the cycles would only
                    # run on in inf and nan
                    if not math.isfinite(norms[-1]):
                        break
                if cfg.nu:
                    # the closing F-relaxation's values at the last F-points
                    _step_rows(level, None, stepper, m - 1, level[-1])
            finally:
                if self._pool is not None:
                    self._pool.shutdown()
                    self._pool = None
                unblock_rows(u, m)
                from_basis(u)
        wall = time.perf_counter() - start

        if len(norms) >= 2 and norms[-2] > 0:
            rho = norms[-1] / norms[-2]
        else:
            rho = 0.0
        return SolveReport(norms, it, float(rho), converged, wall)


def solve(problem: TimeGridProblem, config: MgritConfig,
          threads: int = 1, initial_iterate: Optional[np.ndarray] = None) -> SolveReport:
    """Run MGRIT to the halting rule; divergence is reported, not raised.
    ``threads`` splits each relaxation and restriction phase of a V-cycle's
    recursing levels into blocks of coarse intervals; a two-level cycle is
    one pass in the calling thread.  The residual history does not depend
    on it."""
    return MgritSolver(problem, config, threads).solve(initial_iterate)


def initial_condition(n_x: int) -> np.ndarray:
    """The smooth periodic initial profile sin^4(pi x) on [-1, 1)."""
    x = -1.0 + 2.0 * np.arange(n_x) / n_x
    return np.sin(np.pi * x) ** 4
