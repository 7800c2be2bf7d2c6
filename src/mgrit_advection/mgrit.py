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

``solve`` does each fine-level sweep once, bit for bit the cycle as written:
level 0 passes ``g = None`` (its right-hand side is u0 at t = 0, which row 0
of the iterate holds, and zero elsewhere); after the first cycle it skips the
opening F-relaxation, which the closing one already did, and its first
C-relaxation copies the values the residual norm propagated.

A right-hand side ``g`` holds rows 1..n of a level's n + 1 time points, or
is None for zero.  No kernel reads g_0: row 0 of the iterate holds the value
at t = 0 (u0 on level 0, a zero error below).

Every level restricts its residual over its own last F-points u_{km-1}:
the closing F-relaxation rewrites every F-point, so those rows are dead
while the level waits for its correction.  The two-level cycle and the
coarsest level forward-substitute the coarse problem there in place, from
a zero error, and add it to the C-points, so a two-level solve holds
nothing but its iterate.  An inner V-cycle level passes those rows as the
next level's ``g`` and cycles a buffer of the next level's n_c + 1 rows,
zeroed, as its error.  A V-cycle at factor m so holds the iterate plus
about m / (m - 1) level-0 coarse buffers, and a capped coarse solve adds
its transients, bounded by one block of rows
(``stepping.CappedCorrection``).  The ``tracemalloc`` peaks of 3-iteration
solves on 64 x 4096, in level-0 coarse buffers, numpy's ufunc buffers
included, are 0.4-0.5 for the SDIRK3 two-level cycle at m = 2, and 2.4 and
2.0 for ERK3 V-cycles at m = 2 and 4.

The residual norm steps, subtracts and sums squares a block of
``_BASIS_BLOCK_ROWS`` coarse points at a time, in one block-sized array.
With nu >= 1 it writes its propagated values Phi u_{km-1} over each
interval's last F-point u_{km-1}, which the next F-relaxation overwrites
anyway; with nu = 0 no C-relaxation reads them, and the iterate is left
alone.  When the loop ends the last F-points are stepped once more from
u_{km-2}, so the returned iterate is the cycle's bit for bit.

``solve`` runs with numpy's overflow and invalid-value warnings off, in
every pool task too: a diverging solve stops at its first infinite residual
norm, and no warning escapes.

``threads`` splits each F- and C-relaxation sweep and each residual
restriction into one task per block of whole coarse intervals, on levels with
at least two intervals per thread; every row keeps its serial arithmetic, so
residual histories are bitwise independent of ``threads``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .circulant import (_BASIS_BLOCK_ROWS, CirculantOperator,
                        basis_forward_substitute, from_basis, to_basis)
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


def _step_rows(u, g, stepper, m, j, out) -> np.ndarray:
    """Phi u_{km+j-1} + g_{km+j} for every interval k, with ``g`` None read
    as zero; written to ``out`` when given.  ``g`` holds rows 1..n, so
    g_{km+j} is its row km+j-1."""
    out = stepper.apply(u[j - 1:-1:m], out=out)
    if g is not None:
        out += g[j - 1::m]
    return out


def f_relax(u: np.ndarray, g: Optional[np.ndarray], stepper: Stepper,
            m: int) -> None:
    """Zero the residual at the m-1 points after each coarse point.

    Sequential inside an interval, batched across intervals, each step
    written straight into ``u``.  ``g`` holds time points 1..n, or is None
    for zero.
    """
    for j in range(1, m):
        _step_rows(u, g, stepper, m, j, u[j::m])


def c_relax(u: np.ndarray, g: Optional[np.ndarray], stepper: Stepper,
            m: int) -> None:
    """Zero the residual at every coarse point after the first, writing
    straight into ``u``; ``g`` holds time points 1..n, or is None for
    zero."""
    _step_rows(u, g, stepper, m, m, u[m::m])


def restrict_residual(u: np.ndarray, g: Optional[np.ndarray], stepper: Stepper,
                      m: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Coarse-point residuals g_km + Phi u_{km-1} - u_km for k >= 1.

    Injected to the coarse grid; valid as the full residual once the interior
    points have been F-relaxed.  ``g`` holds time points 1..n, or is None
    for zero.  Written to ``out`` when given; it may be ``u[m-1::m]``, the
    rows stepped from.
    """
    r = _step_rows(u, g, stepper, m, m, out)
    r -= u[m::m]
    return r


def cpoint_residual_norm(u, g, stepper, m, out=None) -> float:
    """Global l2 norm of the coarse-point residuals g_km + Phi u_{km-1} - u_km,
    with ``g`` as in ``restrict_residual``.

    The residuals are formed, and their squares summed, a block of
    ``_BASIS_BLOCK_ROWS`` coarse points at a time in one block-sized array,
    so no full-size residual is made.  ``out``, when given, receives
    g_km + Phi u_{km-1}, what a C-relaxation of ``u`` would write; it may be
    ``u[m-1:-1:m]``, the rows it is stepped from.  Without it ``u`` is left
    as it is.  A norm too large for a float, or of residuals that hold nan,
    is inf, without a warning."""
    n_c = (u.shape[0] - 1) // m
    r = np.empty((min(n_c, _BASIS_BLOCK_ROWS), u.shape[1]))
    total = 0.0
    for k0 in range(0, n_c, _BASIS_BLOCK_ROWS):
        k1 = min(k0 + _BASIS_BLOCK_ROWS, n_c)
        rows = u[k0 * m:k1 * m + 1]
        res = r[:k1 - k0]
        relaxed = _step_rows(rows, None if g is None else g[k0 * m:k1 * m],
                             stepper, m, m, res if out is None else out[k0:k1])
        np.subtract(relaxed, rows[m::m], out=res)
        with np.errstate(over="ignore"):
            total += float(np.dot(res.ravel(), res.ravel()))
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


def _forward_substitute(stepper: Stepper, u: np.ndarray) -> np.ndarray:
    """Solve e_k = Phi e_{k-1} + g_k, e_0 = 0, in place on basis rows: ``u``
    holds g_1 .. g_n on entry and e_1 .. e_n on return.  A direct stepper
    multiplies by its ``basis_diagonal`` (``basis_forward_substitute``); a
    capped one steps each row with ``Stepper.apply``."""
    if stepper._apply_fn is None:
        return basis_forward_substitute(stepper.basis_diagonal(), u)
    step = np.empty(u.shape[1:])
    prev = np.zeros(u.shape[1:])
    for row in u:
        row += stepper.apply(prev, out=step)
        prev = row
    return u


class MgritSolver:
    """Driver object holding the level hierarchy and the iteration state.

    ``threads`` > 1 runs ``solve``'s relaxation and restriction phases on a
    pool, one block of coarse intervals per thread; histories do not change.
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

    def _over_intervals(self, kernel, u: np.ndarray, g: Optional[np.ndarray],
                        stepper: Stepper, m: int, *out: np.ndarray) -> None:
        """Run ``kernel(u, g, stepper, m, *out)`` over the level's coarse
        intervals: serially, or with at least two intervals per thread as one
        pool task per contiguous block k0 <= k < k1, on rows k0*m .. k1*m of
        ``u`` (rows k0*m .. k1*m-1 of ``g``, which starts at time point 1)
        and rows k0 .. k1-1 of ``out``.  Adjacent blocks share only their
        boundary C-point, which only the left block's C-relaxation writes
        and the right block's kernels never read.
        """
        n_intervals = (u.shape[0] - 1) // m
        if self._pool is None or n_intervals < 2 * self.threads:
            kernel(u, g, stepper, m, *out)
            return
        edges = [n_intervals * i // self.threads
                 for i in range(self.threads + 1)]

        def block(k0, k1):
            # a pool thread starts from numpy's default error state
            with np.errstate(over="ignore", invalid="ignore"):
                kernel(u[k0 * m:k1 * m + 1],
                       None if g is None else g[k0 * m:k1 * m], stepper, m,
                       *(o[k0:k1] for o in out))

        list(self._pool.map(block, edges[:-1], edges[1:]))

    def _has_inner_level(self, level: int) -> bool:
        """Whether level + 1 cycles as an inner V-cycle level; otherwise
        level + 1 is solved directly by forward substitution."""
        return (self.config.cycle == "v_cycle"
                and level + 1 < len(self.problem.m))

    def _cycle(self, level: int, u: np.ndarray, g: Optional[np.ndarray],
               coarse: Optional[np.ndarray] = None, warm: bool = False) -> None:
        """One cycle in place on ``u``.  The level restricts its residual
        over its own last F-points u[km-1], which the closing F-relaxation
        rewrites: a two-level or coarsest-level cycle forward-substitutes the
        coarse problem there, and an inner V-cycle level passes them as the
        next level's right-hand side, with ``coarse`` (the next level's
        n_c + 1 rows, allocated if None) as its error.
        ``warm``: the F-points of ``u`` are relaxed, so the opening
        F-relaxation is skipped; with ``nu`` >= 1 each interval's last
        F-point u[km-1] holds the C-point value Phi u_{km-1} in its place
        (``cpoint_residual_norm``'s ``out``), and the first C-relaxation
        copies it rather than stepping."""
        cfg = self.config
        steppers = self.problem.steppers
        stepper = steppers[level]
        m = self.problem.m[level]
        phase = self._over_intervals

        if not warm:
            phase(f_relax, u, g, stepper, m)
        for sweep in range(cfg.nu):
            if warm and sweep == 0:
                # a ufunc copies between the overlapping views through a
                # small buffer; u[m::m] = u[m-1:-1:m] would copy all rows first
                np.positive(u[m - 1:-1:m], out=u[m::m])
            else:
                phase(c_relax, u, g, stepper, m)
            phase(f_relax, u, g, stepper, m)

        # the last F-points are dead until the closing F-relaxation rewrites
        # them: they hold the restricted residual, the coarse right-hand side
        rhs = u[m - 1::m]
        phase(restrict_residual, u, g, stepper, m, rhs)
        if not self._has_inner_level(level):
            # forward substitution from a zero error turns it into the error
            error = _forward_substitute(steppers[level + 1], rhs)
        else:
            if coarse is None:
                coarse = np.empty((rhs.shape[0] + 1, u.shape[1]))
            coarse[...] = 0.0
            self._cycle(level + 1, coarse, rhs)
            error = coarse[1:]

        # a ufunc, as in the copy above: the error may be u[m-1::m]
        np.add(u[m::m], error, out=u[m::m])
        phase(f_relax, u, g, stepper, m)

    # ------------------------------------------------------------------ solve

    def solve(self, u: Optional[np.ndarray] = None) -> SolveReport:
        """Iterate to the halting rule, in place on ``u`` (the seeded random
        state if None): a float64 array of shape (n_t + 1, n_x) with a
        contiguous last axis, checked before it is touched.  Its row 0 is
        set to the initial condition ``problem.u0``.  ``u`` is in the
        Fourier basis while the solve runs and physical again when it
        returns or raises.  A two-level solve allocates no array of the
        coarse grid's size: only a V-cycle with an inner level holds a
        buffer, for level 1's error."""
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
        # level 1's error, if it is an inner V-cycle level (``_cycle``)
        coarse = (np.empty((u[m::m].shape[0] + 1, u.shape[1]))
                  if self._has_inner_level(0) else None)
        # the norm's C-point values, over the last F-points for the warm
        # cycle's first C-relaxation; with nu = 0 no C-relaxation reads them
        relaxed = u[m - 1:-1:m] if cfg.nu else None

        start = time.perf_counter()
        stepper = problem.steppers[0]
        u[0] = problem.u0
        to_basis(u)
        if self.threads > 1:
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(max_workers=self.threads)
        # a diverging iterate overflows, the norm reads inf, and the basis
        # change returns what it holds
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                norms = [cpoint_residual_norm(u, None, stepper, m, relaxed)]
                converged = False
                it = 0
                while it < cfg.max_iters:
                    self._cycle(0, u, None, coarse, warm=it > 0)
                    it += 1
                    norms.append(cpoint_residual_norm(u, None, stepper, m,
                                                      relaxed))
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
                    _step_rows(u, None, stepper, m, m - 1, u[m - 1::m])
            finally:
                if self._pool is not None:
                    self._pool.shutdown()
                    self._pool = None
                # free the coarse buffer before the basis change's temporaries
                del coarse, relaxed
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
    ``threads`` splits each relaxation and restriction phase into blocks of
    coarse intervals; the residual history does not depend on it."""
    return MgritSolver(problem, config, threads).solve(initial_iterate)


def initial_condition(n_x: int) -> np.ndarray:
    """The smooth periodic initial profile sin^4(pi x) on [-1, 1)."""
    x = -1.0 + 2.0 * np.arange(n_x) / n_x
    return np.sin(np.pi * x) ** 4
