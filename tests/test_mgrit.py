"""MGRIT solver: relaxation contracts, single-iteration exactness with the
exact coarse operator, determinism, and measured convergence behavior."""

import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from mgrit_advection import (CirculantOperator, DiscretizationSpec,
                             MgritConfig, MgritSolver, StabilityWarning,
                             Stepper, TimeGridProblem, c_relax, cfl_limit,
                             class_views, cpoint_residual_norm, f_relax,
                             ideal_coarse_stepper, initial_condition,
                             modified_coarse_stepper, mol_stepper,
                             rediscretized_coarse_stepper,
                             restrict_residual, sequential_solve, sl_stepper,
                             solve)
from mgrit_advection import circulant, mgrit
from mgrit_advection.circulant import from_basis, to_basis
from mgrit_advection.experiments import build_problem


def stepper_from_op(op):
    return Stepper(op.n_x, op.symbol)


def identity_stepper(n_x):
    return stepper_from_op(CirculantOperator.identity(n_x))


def shift_stepper(n_x, k):
    return stepper_from_op(CirculantOperator.shift(n_x, k))


def fine_problem(n_x=32, n_t=32, m=4, c=0.8, family="sdirk", p=1,
                 coarse="ideal"):
    spec = DiscretizationSpec(family, p, c, n_x, n_t)
    fine = mol_stepper(spec)
    if coarse == "ideal":
        psi = ideal_coarse_stepper(fine, m)
    else:
        psi = rediscretized_coarse_stepper(spec, m)
    return TimeGridProblem([fine, psi], [m], n_t, initial_condition(n_x))


def time_order_views(u, m):
    """The class views [C, F_1, ..., F_{m-1}] of rows in time order: the
    strided views u[j::m]."""
    return [u[j::m] for j in range(m)]


def basis_state(problem, seed):
    """A seeded random iterate and the right-hand side (u0 at t = 0, zero
    elsewhere), both in the Fourier basis that ``Stepper.apply`` steps."""
    u = MgritSolver(problem, MgritConfig(rng_seed=seed)).initial_state()
    g = np.zeros_like(u)
    g[0] = problem.u0
    to_basis(u)
    to_basis(g)
    return u, g


# ------------------------------------------------------------------ sequential

def test_sequential_identity_keeps_initial_state():
    problem = TimeGridProblem([identity_stepper(8), identity_stepper(8)],
                              [4], 8, np.arange(8.0))
    u = sequential_solve(problem)
    for n in range(9):
        np.testing.assert_array_equal(u[n], np.arange(8.0))


def test_sequential_shift_advects_exactly():
    n_x = 8
    problem = TimeGridProblem([shift_stepper(n_x, -2), identity_stepper(n_x)],
                              [4], 4, np.arange(float(n_x)))
    u = sequential_solve(problem)
    np.testing.assert_array_equal(u[3], np.roll(np.arange(float(n_x)), 6))


def test_mgrit_matches_sequential_solution():
    problem = fine_problem(n_x=32, n_t=32, m=4, coarse="rediscretized", c=0.5)
    config = MgritConfig(nu=1, tol=1e-12, max_iters=50, rng_seed=3)
    solver = MgritSolver(problem, config)
    u = solver.initial_state()
    assert solver.solve(u).converged
    exact = sequential_solve(problem)
    err = np.linalg.norm((u - exact).ravel()) / np.linalg.norm(exact.ravel())
    assert err <= 1e-9


# ------------------------------------------------------------------ relaxation

def test_f_relax_zeroes_f_point_residuals():
    problem = fine_problem()
    u, g = basis_state(problem, 1)
    stepper, m = problem.steppers[0], problem.m[0]
    f_relax(time_order_views(u, m), g[1:], stepper)
    for n in range(1, problem.n_t + 1):
        if n % m != 0:
            resid = g[n] + stepper.apply(u[n - 1]) - u[n]
            assert np.linalg.norm(resid) <= 1e-13


def test_f_relax_is_idempotent():
    problem = fine_problem()
    u, g = basis_state(problem, 2)
    stepper, m = problem.steppers[0], problem.m[0]
    f_relax(time_order_views(u, m), g[1:], stepper)
    once = u.copy()
    f_relax(time_order_views(u, m), g[1:], stepper)
    np.testing.assert_array_equal(u, once)


def test_c_relax_zeroes_c_point_residuals():
    problem = fine_problem()
    u, g = basis_state(problem, 4)
    stepper, m = problem.steppers[0], problem.m[0]
    c_relax(time_order_views(u, m), g[1:], stepper)
    for n in range(m, problem.n_t + 1, m):
        resid = g[n] + stepper.apply(u[n - 1]) - u[n]
        assert np.linalg.norm(resid) <= 1e-13


def test_relaxation_composition_reproduces_sequential_on_one_interval():
    # with a single coarse interval, alternating F and C relaxations is
    # forward substitution
    n_x, m = 16, 8
    problem = fine_problem(n_x=n_x, n_t=m, m=m, c=0.6)
    u, g = basis_state(problem, 5)
    stepper = problem.steppers[0]
    for _ in range(m):
        f_relax(time_order_views(u, m), g[1:], stepper)
        c_relax(time_order_views(u, m), g[1:], stepper)
    f_relax(time_order_views(u, m), g[1:], stepper)
    from_basis(u)
    np.testing.assert_allclose(u, sequential_solve(problem), atol=1e-11)


# ----------------------------------------------------------------- restriction

def test_restriction_vanishes_on_exact_solution():
    problem = fine_problem()
    u = sequential_solve(problem)
    g = np.zeros_like(u)
    g[0] = problem.u0
    to_basis(u)
    to_basis(g)
    r = restrict_residual(time_order_views(u, problem.m[0]), g[1:],
                          problem.steppers[0])
    assert np.linalg.norm(r.ravel()) <= 1e-12


def test_restriction_first_interval_hand_unrolled():
    # zero initial guess away from t=0: after F-relaxation the first coarse
    # residual is the m-fold propagated initial condition, stepped here with
    # the physical stencil
    n_x, m = 16, 4
    problem = fine_problem(n_x=n_x, n_t=8, m=m, c=0.5)
    stepper = problem.steppers[0]
    u = np.zeros((9, n_x))
    u[0] = problem.u0
    g = np.zeros_like(u)
    g[0] = problem.u0
    to_basis(u)
    to_basis(g)
    f_relax(time_order_views(u, m), g[1:], stepper)
    r = restrict_residual(time_order_views(u, m), g[1:], stepper)
    from_basis(r)
    op = CirculantOperator.from_eigenvalues(stepper.n_x, stepper.eigenvalues())
    expected = problem.u0.copy()
    for _ in range(m):
        expected = op.apply(expected)
    np.testing.assert_allclose(r[0], expected, atol=1e-12)


# -------------------------------------------------------------- blocked layout

def traced_peak(fn, *args):
    """The ``tracemalloc`` peak of one call, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_blocked_layout_round_trips_every_row_in_one_row_of_scratch(m):
    # the permutation follows its cycles in place with one row of scratch;
    # about a kilobyte of Python objects (row views, a bit per row placed)
    # comes on top of it.  Arbitrary bit patterns, nan payloads included,
    # must come back bit for bit
    n_x = 256
    row_bytes = 8 * n_x
    rng = np.random.default_rng(m)
    for n_c in range(1, 65):
        n = n_c * m + 1
        u = np.frombuffer(rng.bytes(8 * n * n_x), dtype=np.float64)
        u = u.reshape(n, n_x).copy()
        orig = u.copy()
        assert traced_peak(mgrit.block_rows, u, m) <= row_bytes + 1024
        for blocked, natural in zip(class_views(u, m),
                                    time_order_views(orig, m)):
            assert blocked.base is u and blocked.flags.c_contiguous
            assert blocked.tobytes() == natural.tobytes()
        assert traced_peak(mgrit.unblock_rows, u, m) <= row_bytes + 1024
        assert u.tobytes() == orig.tobytes()


# --------------------------------------------------------------- residual norm

BLOCK = circulant._BASIS_BLOCK_ROWS


@pytest.mark.parametrize("n_c", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("with_g", [False, True])
@pytest.mark.parametrize("with_out", [False, True])
def test_row_blocked_norm_is_the_full_residual_norm(n_c, with_g, with_out):
    # the norm steps, subtracts and sums squares a block of coarse points at
    # a time, which changes only the order of the sum; its C-point values
    # are the full step's bit for bit
    n_x, m = 15, 3
    stepper = sl_stepper(3, 2.3, n_x)
    rng = np.random.default_rng(n_c)
    u = rng.standard_normal((n_c * m + 1, n_x))
    g = rng.standard_normal((n_c * m, n_x)) if with_g else None
    relaxed = stepper.apply(u[m - 1:-1:m])
    if with_g:
        relaxed += g[m - 1::m]
    expected = np.linalg.norm(relaxed - u[m::m])
    after = u.copy()
    if with_out:
        after[m - 1:-1:m] = relaxed
    out = u[m - 1:-1:m] if with_out else None
    norm = cpoint_residual_norm(time_order_views(u, m), g, stepper, out)
    assert norm == pytest.approx(expected, rel=1e-13, abs=0.0)
    np.testing.assert_array_equal(u, after)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [1e200, np.nan])
def test_row_blocked_norm_reads_overflow_and_nan_as_inf(bad):
    # one residual in the last block overflows its square or is nan
    n_x, m = 15, 2
    u = np.ones((2 * BLOCK * m + 3, n_x))
    u[-1, 4] = bad
    assert cpoint_residual_norm(time_order_views(u, m), None,
                                identity_stepper(n_x)) == math.inf


# ------------------------------------------------------------ ideal exactness

@pytest.mark.parametrize("nu", [0, 1])
def test_ideal_coarse_operator_converges_in_one_iteration(nu):
    problem = fine_problem(n_x=32, n_t=64, m=8, coarse="ideal")
    report = solve(problem, MgritConfig(nu=nu, max_iters=5, rng_seed=7))
    assert report.converged
    assert report.iterations == 1


def test_identity_problem_converges_in_one_iteration():
    n_x = 16
    problem = TimeGridProblem([identity_stepper(n_x), identity_stepper(n_x)],
                              [4], 16, np.arange(float(n_x)))
    report = solve(problem, MgritConfig(nu=0, max_iters=3, rng_seed=8))
    assert report.iterations == 1


# ----------------------------------------------------------------- determinism

def test_residual_history_is_bitwise_deterministic():
    problem = fine_problem(coarse="rediscretized")
    config = MgritConfig(nu=1, max_iters=6, rng_seed=11)
    first = solve(problem, config)
    second = solve(problem, config)
    assert first.residual_norms == second.residual_norms


def test_threaded_run_matches_single_threaded_counts():
    # 256 coarse intervals, 4 row blocks: level 0 splits into 4 tasks
    problem = fine_problem(n_x=32, n_t=1024, m=4, coarse="rediscretized",
                           c=0.5)
    config = MgritConfig(nu=1, max_iters=30, rng_seed=12)
    serial = solve(problem, config, threads=1)
    threaded = solve(problem, config, threads=4)
    assert serial.iterations == threaded.iterations
    assert threaded.residual_norms == serial.residual_norms


def test_different_seeds_change_history_not_convergence():
    problem = fine_problem(coarse="rediscretized", c=0.5)
    a = solve(problem, MgritConfig(max_iters=40, rng_seed=1))
    b = solve(problem, MgritConfig(max_iters=40, rng_seed=2))
    assert a.residual_norms != b.residual_norms
    assert a.converged and b.converged
    assert abs(a.iterations - b.iterations) <= 2


# ------------------------------------------------ each fine-level sweep once

def unreduced_basis_solve(problem, config, u):
    """The MGRIT cycle as written, in place on ``u`` in the Fourier basis: a
    dense fine right-hand side, the opening F-relaxation in every cycle and
    every C-relaxation stepped.  Returns the residual history."""
    steppers = problem.steppers
    g = np.zeros_like(u)
    g[0] = problem.u0
    to_basis(g[0])
    to_basis(u)

    def cycle(level, u, g):
        stepper, m = steppers[level], problem.m[level]
        f_relax(time_order_views(u, m), g[1:], stepper)
        for _ in range(config.nu):
            c_relax(time_order_views(u, m), g[1:], stepper)
            f_relax(time_order_views(u, m), g[1:], stepper)
        g_coarse = np.zeros((u[m::m].shape[0] + 1, u.shape[1]))
        restrict_residual(time_order_views(u, m), g[1:], stepper, g_coarse[1:])
        if config.cycle == "two_level" or level + 2 == len(steppers):
            e = g_coarse
            for n in range(1, len(e)):
                e[n] += steppers[level + 1].apply(e[n - 1])
        else:
            e = np.zeros_like(g_coarse)
            cycle(level + 1, e, g_coarse)
        u[m::m] += e[1:]
        f_relax(time_order_views(u, m), g[1:], stepper)

    m = problem.m[0]
    norms = [cpoint_residual_norm(time_order_views(u, m), g[1:], steppers[0])]
    for _ in range(config.max_iters):
        cycle(0, u, g)
        norms.append(cpoint_residual_norm(time_order_views(u, m), g[1:],
                                          steppers[0]))
        if norms[0] > 0 and norms[-1] / norms[0] <= config.tol:
            break
    from_basis(u)
    return norms


REDUCED_CASES = [
    pytest.param("sdirk", 3, 5.0, cycle, m, nu, n_x, 64, threads,
                 id=f"{cycle}-m{m}-nu{nu}-nx{n_x}-threads{threads}")
    for cycle in ("two_level", "v_cycle")
    for m in (2, 4, [4, 2])
    for nu in (0, 1, 2)
    for n_x in (63, 64)
    for threads in (1, 2, 3)
] + [
    # odd factors below level 0, where the error's classes scatter back to
    # the parked C-points at stride 3, and factors that change from level to
    # level, at 54 = 2 x 3^3 and 72 = 2^3 x 3^2 steps
    pytest.param("sdirk", 3, 5.0, "v_cycle", m, nu, n_x, n_t, threads,
                 id=f"v_cycle-m{m}-nu{nu}-nx{n_x}-nt{n_t}-threads{threads}")
    for m, n_t in ((3, 54), ([3, 2], 72), ([2, 3], 72))
    for nu in (0, 1, 2)
    for n_x in (63, 64)
    for threads in (1, 2, 3)
] + [
    pytest.param("erk", 3, 0.85, "v_cycle", 4, 1, 64, 64, threads,
                 id=f"erk3_capped_v_cycle-threads{threads}")
    for threads in (1, 2, 3)
] + [
    # levels that split into tasks: 160 coarse intervals at m = 2 run as
    # ranges of 128 + 32 intervals at two threads and 64 + 64 + 32 at three
    pytest.param("sdirk", 3, 5.0, cycle, 2, 1, 16, 320, threads,
                 id=f"{cycle}-m2-nx16-nt320-threads{threads}")
    for cycle in ("two_level", "v_cycle")
    for threads in (1, 2, 3)
] + [
    # level 0 of a capped V-cycle with four row blocks of 64 intervals
    pytest.param("erk", 3, 0.85, "v_cycle", 4, 1, 16, 1024, threads,
                 id=f"erk3_capped_v_cycle-nx16-nt1024-threads{threads}")
    for threads in (1, 2, 3)
]


@pytest.mark.parametrize("family,p,c,cycle,m,nu,n_x,n_t,threads",
                         REDUCED_CASES)
def test_solve_is_the_unreduced_cycle_bit_for_bit(monkeypatch, family, p, c,
                                                  cycle, m, nu, n_x, n_t,
                                                  threads):
    # solve skips the opening F-relaxation after the first cycle, copies the
    # residual norm's propagation as the first C-relaxation and reads no
    # fine right-hand side, each inner level cycles in its own class blocks,
    # and each phase runs in tasks of whole row blocks; none of it may
    # change a single bit
    if family == "erk":
        c *= cfl_limit(p)
    problem = build_problem(DiscretizationSpec(family, p, c, n_x, n_t), m,
                            cycle, "modified")
    config = MgritConfig(nu=nu, cycle=cycle, max_iters=10, rng_seed=5)
    solver = MgritSolver(problem, config, threads=threads)
    tasks = []
    over_intervals = MgritSolver._over_intervals

    def counting(self, kernel, *args):
        calls = []
        over_intervals(self, lambda *a: calls.append(kernel(*a)), *args)
        tasks.append(len(calls))

    monkeypatch.setattr(MgritSolver, "_over_intervals", counting)
    u, ref = solver.initial_state(), solver.initial_state()
    report = solver.solve(u)
    norms = unreduced_basis_solve(problem, config, ref)
    assert report.residual_norms == norms
    assert u.tobytes() == ref.tobytes()
    # level 0's phases, the longest, run in a task per thread while there
    # are row blocks enough: the split cases run some phase in 2 or 3 tasks
    level0_blocks = -(-n_t // problem.m[0] // BLOCK)
    assert max(tasks) == min(threads, level0_blocks)


class RowCountingStepper(Stepper):
    """Forwards every apply to ``inner`` and records its row count."""

    def __init__(self, inner, rows=None):
        super().__init__(inner.n_x, inner.symbol,
                         description=inner.description)
        self.level = inner.level
        self.inner = inner
        self.rows = [] if rows is None else rows

    def apply(self, u, out=None):
        u = np.asarray(u)
        self.rows.append(u.size // u.shape[-1])
        return self.inner.apply(u, out)


def test_later_cycles_step_each_fine_interval_four_times(monkeypatch):
    # m = 2: the first cycle steps every interval for F, nu times C and F,
    # restriction and the closing F, and the residual norm once more; later
    # cycles reuse the closing F-relaxation and the norm's propagation (four
    # times at nu = 1), and after the last norm only the last F-points are
    # stepped once more
    n_t, m = 64, 2
    problem = fine_problem(n_x=32, n_t=n_t, m=m, coarse="rediscretized",
                           c=0.5)
    counter = RowCountingStepper(problem.steppers[0])
    problem.steppers[0] = counter
    rhs, marks = [], []

    def recording(kernel):
        def wrapped(level, g, stepper, *out):
            if stepper.level == 0:
                rhs.append(g)
            return kernel(level, g, stepper, *out)
        return wrapped

    for name in ("f_relax", "c_relax", "restrict_residual"):
        monkeypatch.setattr(mgrit, name, recording(getattr(mgrit, name)))
    norm = recording(mgrit.cpoint_residual_norm)

    def marked_norm(*args):
        value = norm(*args)
        marks.append(sum(counter.rows))
        return value

    monkeypatch.setattr(mgrit, "cpoint_residual_norm", marked_norm)
    n_c = n_t // m
    for nu, first, later in ((0, 4, 3), (1, 6, 4), (2, 8, 6)):
        for seen in (counter.rows, rhs, marks):
            seen.clear()
        report = solve(problem, MgritConfig(nu=nu, tol=1e-300, max_iters=5,
                                            rng_seed=0))
        assert report.iterations == 5
        assert list(np.diff(marks)) == [first * n_c] + [later * n_c] * 4
        assert sum(counter.rows) - marks[-1] <= n_c
        # no level-0 kernel reads a full-size right-hand side
        assert len(rhs) > 0 and all(g is None for g in rhs)


def traced_peak_in_coarse_buffers(problem, config, threads=1):
    """The ``tracemalloc`` peak of a solve from the seeded iterate, in units
    of level 0's coarse buffer, (n_t / m + 1) x n_x values.  The thread
    pool's module is imported first, so a threaded solve's peak does not
    hold the import."""
    import concurrent.futures  # noqa: F401
    solver = MgritSolver(problem, config, threads)
    u = solver.initial_state()
    coarse_bytes = (problem.n_t // problem.m[0] + 1) * problem.n_x * u.itemsize
    tracemalloc.start()
    try:
        solver.solve(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / coarse_bytes


def two_level_sdirk3(nu):
    problem = build_problem(DiscretizationSpec("sdirk", 3, 5.0, 64, 4096), 2,
                            "two_level", "modified")
    return problem, MgritConfig(nu=nu, max_iters=3)


@pytest.mark.parametrize("nu", [0, 1, 2])
def test_solve_holds_the_iterate_and_one_coarse_buffer(nu):
    # level 0 cycles in the iterate plus at most one coarse buffer's worth
    # of numpy's ufunc buffers and the row blocks
    assert traced_peak_in_coarse_buffers(*two_level_sdirk3(nu)) <= 1.6


@pytest.mark.parametrize("nu,threads", [
    pytest.param(nu, threads,
                 id=str(nu) if threads == 1 else f"{nu}-threads{threads}")
    for threads in (1, 2, 3) for nu in (0, 1, 2)])
def test_two_level_solve_holds_no_coarse_buffer(nu, threads):
    # the coarse problem is forward-substituted in the iterate's dead last
    # F-points and the residual norm is summed in row blocks, so what is
    # traced is the row blocks and what numpy allocates per multiply: about
    # 0.16-0.18 of the level-0 coarse buffer the solve no longer allocates,
    # at every thread count, now that level 0's classes are contiguous
    assert traced_peak_in_coarse_buffers(*two_level_sdirk3(nu),
                                         threads) <= 0.6


@pytest.mark.parametrize("family,m,bound,threads", [
    pytest.param(family, m, bound, threads, id=f"{family}-{m}-{bound}"
                 + ("" if threads == 1 else f"-threads{threads}"))
    for family, m, bound in [
        ("sdirk", 2, 2.6), ("erk", 2, 2.6), ("sdirk", 3, 0.4),
        ("erk", 3, 0.8), ("sdirk", 4, 0.4), ("erk", 4, 1.0)]
    for threads in ((1, 2, 3) if family == "erk" else (1,))])
def test_v_cycle_holds_one_coarse_buffer_per_level(family, m, bound,
                                                   threads):
    # an inner level cycles on its error in the C-points of the level above,
    # in its own contiguous class blocks, while their values wait in that
    # level's dead first F-points, and restricts over its own dead last
    # F-points; the capped correction solves of the ERK3 levels hold one
    # block of rows at a time, also when pool tasks reach them together.
    # At m >= 3 what is traced is the row blocks and what numpy allocates
    # per multiply (about 0.2-0.3 of level 0's coarse buffer), and on the
    # ERK3 levels the capped solves' one block of storage (about 0.3-0.4); at
    # m = 2 the first F-points are the last ones, so each recursing level
    # parks its n_c C-point rows in a buffer, about m / (m - 1) = 2 level-0
    # coarse buffers in all beyond those
    c = 5.0 if family == "sdirk" else 0.85 * cfl_limit(3)
    n_t = 4374 if m == 3 else 4096  # 4374 = 2 x 3^7
    problem = build_problem(DiscretizationSpec(family, 3, c, 64, n_t), m,
                            "v_cycle", "modified")
    config = MgritConfig(nu=1, cycle="v_cycle", max_iters=3)
    assert traced_peak_in_coarse_buffers(problem, config, threads) <= bound


def run_in_fresh_process(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(pathlib.Path(mgrit.__file__).parents[1]),
                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_package_import_leaves_the_thread_pool_unloaded():
    # importing concurrent.futures costs milliseconds in every process;
    # only a threaded solve or sweep loads it
    done = run_in_fresh_process(
        "import sys, mgrit_advection, mgrit_advection.experiments; "
        "sys.exit('concurrent.futures' in sys.modules)")
    assert done.returncode == 0, done.stderr


def test_setup_leaves_numpy_ma_unloaded():
    # importing numpy.ma (which np.unique does) costs about 10 ms in every
    # process; the import, a CFL limit and a hierarchy build need none of it
    done = run_in_fresh_process(
        "import sys\n"
        "from mgrit_advection import DiscretizationSpec, cfl_limit\n"
        "from mgrit_advection.experiments import build_problem\n"
        "spec = DiscretizationSpec('erk', 3, 0.85 * cfl_limit(3), 64, 256)\n"
        "build_problem(spec, 4, 'v_cycle', 'modified')\n"
        "spec = DiscretizationSpec('sdirk', 3, 5.0, 64, 256)\n"
        "build_problem(spec, 2, 'two_level', 'modified')\n"
        "sys.exit('numpy.ma' in sys.modules)")
    assert done.returncode == 0, done.stderr


# ------------------------------------------------------------------- v-cycles

def test_v_cycle_converges_on_small_modified_hierarchy():
    spec = DiscretizationSpec("sdirk", 3, 5.0, 64, 256)
    problem = build_problem(spec, 16, "v_cycle", "modified")
    assert problem.n_levels == 3
    report = solve(problem, MgritConfig(nu=1, cycle="v_cycle", max_iters=40,
                                        rng_seed=0))
    assert report.converged


def test_mixed_per_level_coarsening_factors():
    spec = DiscretizationSpec("erk", 1, 0.85 * cfl_limit(1), 64, 256)
    problem = build_problem(spec, [16, 4], "v_cycle", "modified")
    assert problem.m == [16, 4, 4]
    # each level is built from its cumulative factor F = 16, 16*4, 16*4*4
    for level, (F, stepper) in enumerate(zip([16, 64, 256],
                                             problem.steppers[1:]), start=1):
        assert stepper.level == level
        np.testing.assert_array_equal(
            stepper.eigenvalues(),
            modified_coarse_stepper(spec, F).eigenvalues())
    report = solve(problem, MgritConfig(nu=1, cycle="v_cycle", max_iters=30,
                                        rng_seed=0))
    assert report.converged


@pytest.mark.parametrize("n_t,m", [(0, 2), (64, 1), (64, [4, 1])])
def test_v_cycle_hierarchy_rejects_inputs_that_never_stop_coarsening(n_t, m):
    # zero steps, or a factor of 1, divides on every pass
    with pytest.raises(ValueError):
        build_problem(DiscretizationSpec("erk", 3, 0.5, 64, n_t), m, "v_cycle")


def test_two_level_and_v_cycle_agree_when_two_levels_suffice():
    # with n_t = m^2 the v-cycle hierarchy has 3 levels; with n_t = m it
    # degenerates to two and must match the two-level solver exactly
    spec = DiscretizationSpec("sdirk", 1, 1.0, 32, 8)
    problem = build_problem(spec, 8, "v_cycle", "modified")
    assert problem.n_levels == 2
    rep_v = solve(problem, MgritConfig(cycle="v_cycle", max_iters=20, rng_seed=3))
    rep_2 = solve(problem, MgritConfig(cycle="two_level", max_iters=20, rng_seed=3))
    assert rep_v.residual_norms == rep_2.residual_norms


# ----------------------------------------------------------------- divergence

def test_divergence_is_reported_not_raised():
    # third-order rediscretized coarse grid at large coarse CFL diverges;
    # the grid keeps enough coarse intervals that finite-grid exactness
    # cannot kick in before the iteration cap
    problem = fine_problem(n_x=64, n_t=1024, m=16, c=5.0, family="sdirk", p=3,
                           coarse="rediscretized")
    report = solve(problem, MgritConfig(nu=1, max_iters=15, rng_seed=21))
    assert not report.converged
    assert report.effective_rho > 1.0


# ----------------------------------------------------------------- validation

def test_solve_takes_the_initial_condition_from_the_problem():
    # an iterate with row 0 zeroed once converged to the zero solution
    spec = DiscretizationSpec("sdirk", 1, 2.0, 32, 64)
    problem = build_problem(spec, 4, "two_level", "modified")
    solver = MgritSolver(problem, MgritConfig(nu=1, max_iters=30, rng_seed=0))
    u = solver.initial_state()
    u[0] = 0.0
    assert solver.solve(u).converged
    exact = sequential_solve(problem)
    assert np.max(np.abs(u - exact)) <= 1e-9 * np.max(np.abs(exact))


@pytest.mark.parametrize("bad", [
    pytest.param(lambda u: u[:-1].copy(), id="wrong_row_count"),
    pytest.param(lambda u: u.astype(np.float32), id="float32"),
    pytest.param(lambda u: (8 * u).astype(np.int64), id="int64"),
    pytest.param(np.asfortranarray, id="fortran_order"),
])
def test_solve_rejects_a_bad_iterate_before_touching_it(bad):
    problem = fine_problem(n_x=32, n_t=64, m=4)
    solver = MgritSolver(problem, MgritConfig(rng_seed=0))
    u = bad(solver.initial_state())
    before = u.copy(order="K")
    with pytest.raises(ValueError, match=re.escape("shape (65, 32)")):
        solver.solve(u)
    np.testing.assert_array_equal(u, before)


def test_problem_validation():
    n_x = 8
    with pytest.raises(ValueError):
        TimeGridProblem([identity_stepper(n_x)], [2], 8, np.zeros(n_x))
    with pytest.raises(ValueError):
        TimeGridProblem([identity_stepper(n_x), identity_stepper(n_x)], [3],
                        8, np.zeros(n_x))
    with pytest.raises(ValueError):
        TimeGridProblem([identity_stepper(n_x), identity_stepper(n_x)], [1],
                        8, np.zeros(n_x))


def test_problem_needs_a_coarsening_factor():
    with pytest.raises(ValueError, match="at least one coarsening factor"):
        TimeGridProblem([identity_stepper(8)], [], 8, np.zeros(8))


def test_problem_labels_each_stepper_with_its_level():
    spec = DiscretizationSpec("sdirk", 3, 0.8, 32, 16)
    steppers = [mol_stepper(spec), sl_stepper(3, 4 * 0.8, 32)]
    assert [s.level for s in steppers] == [0, 0]
    TimeGridProblem(steppers, [4], 16, initial_condition(32))
    assert [s.level for s in steppers] == [0, 1]


@pytest.mark.parametrize("cycle", ["two_level", "v_cycle"])
def test_first_factor_that_does_not_divide_n_t_is_rejected(cycle):
    # either cycle raises here: a one-level problem, with no factor for
    # solve to index, is never built
    spec = DiscretizationSpec("sdirk", 3, 5.0, 64, 255)
    with pytest.raises(ValueError, match="level 0 has 255 steps"):
        build_problem(spec, 2, cycle)


def test_zero_residual_converges_after_one_cycle():
    # a zero initial condition and a zero iterate: every residual is 0.0,
    # which no ratio to the opening norm can show
    spec = DiscretizationSpec("sdirk", 3, 5.0, 64, 256)
    problem = build_problem(spec, 2, "two_level")
    problem.u0 = np.zeros(64)
    u = np.zeros((257, 64))
    report = MgritSolver(problem, MgritConfig(max_iters=30)).solve(u)
    assert report.converged
    assert report.iterations == 1
    assert report.residual_norms == [0.0, 0.0]
    assert not np.any(u)


def test_overflowing_solve_stops_at_its_first_infinite_norm():
    # ERK3 at twice its stability limit diverges until the residual norm
    # overflows after cycle 17; no cycle runs on in inf and nan, and no
    # numpy warning escapes
    spec = DiscretizationSpec("erk", 3, 2.0 * cfl_limit(3), 64, 256)
    with pytest.warns(StabilityWarning):
        problem = build_problem(spec, 4, "two_level")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = solve(problem, MgritConfig(max_iters=30))
    assert not report.converged
    assert report.iterations == 17
    assert report.effective_rho == math.inf
    assert all(math.isfinite(r) for r in report.residual_norms[:-1])


@pytest.mark.parametrize("threads", [1, 2])
def test_overflowing_relaxation_raises_no_warning(threads):
    # ERK3 at 1e17 times its limit steps by factors near 1e54: with nu = 2
    # the first cycle's relaxation overflows, in pool tasks when threaded,
    # and a pool thread starts from numpy's default error state; the basis
    # change back then divides inf
    spec = DiscretizationSpec("erk", 3, 1e17 * cfl_limit(3), 64, 256)
    with pytest.warns(StabilityWarning):
        problem = build_problem(spec, 2, "two_level")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = solve(problem, MgritConfig(nu=2, max_iters=30),
                       threads=threads)
    assert not report.converged
    assert report.iterations == 1
    assert report.effective_rho == math.inf


def test_diverging_capped_v_cycle_stops_at_an_infinite_norm():
    # the capped correction overflows before the residual norm does: its
    # Krylov solve gets rows whose norms overflow and returns inf and nan,
    # which the norm reads as inf, with no numpy warning
    spec = DiscretizationSpec("erk", 3, 2.0 * cfl_limit(3), 64, 256)
    with pytest.warns(StabilityWarning):
        problem = build_problem(spec, 4, "v_cycle")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = solve(problem, MgritConfig(cycle="v_cycle", max_iters=30))
    assert not report.converged
    assert report.iterations == 17
    assert report.effective_rho == math.inf
    assert all(math.isfinite(r) for r in report.residual_norms[:-1])


def test_config_validation():
    with pytest.raises(ValueError):
        MgritConfig(nu=-1)
    with pytest.raises(ValueError):
        MgritConfig(cycle="w_cycle")
    with pytest.raises(ValueError):
        MgritConfig(max_iters=0)
    for tol in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="tol"):
            MgritConfig(tol=tol)
    with pytest.raises(ValueError, match="rng_seed"):
        MgritConfig(rng_seed=-1)


def test_initial_condition_profile():
    u0 = initial_condition(64)
    x = -1.0 + 2.0 * np.arange(64) / 64
    np.testing.assert_allclose(u0, np.sin(np.pi * x) ** 4, atol=1e-15)


def test_report_effective_rho_tracks_last_ratio():
    problem = fine_problem(coarse="rediscretized", c=0.5)
    report = solve(problem, MgritConfig(max_iters=8, rng_seed=0))
    norms = report.residual_norms
    assert report.effective_rho == pytest.approx(norms[-1] / norms[-2])
