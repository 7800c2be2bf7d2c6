"""Real orthonormal Fourier basis: the in-place basis changes, diagonal
operator applies against the dense oracle, stepper applies against their
symbols, and MGRIT solves, which run in the basis, against the finite-grid
mode prediction from the physical iterate and the sequential solution."""

import dataclasses
import functools
import itertools
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgrit_advection import (CirculantOperator, DimensionMismatchError,
                             DiscretizationSpec, MgritConfig, MgritSolver,
                             NotRealOperatorError, Stepper, StabilityWarning,
                             c_relax, cfl_limit,
                             error_constant_fd, f_relax,
                             ideal_coarse_stepper, modified_coarse_stepper,
                             mol_stepper, phi_coefficient,
                             plain_sl_coarse_stepper,
                             rediscretized_coarse_stepper, restrict_residual,
                             rk_error_constant, sequential_solve, sl_stepper,
                             stepping)
from mgrit_advection.circulant import (_gmres_batched, basis_diagonal,
                                       basis_forward_substitute,
                                       basis_multiply, from_basis, to_basis)
from mgrit_advection.experiments import build_problem
from mgrit_advection.lfa import predict_history
from mgrit_advection.stepping import correction_operator


def in_basis(v):
    w = np.array(v, dtype=float).reshape(-1, v.shape[-1])
    to_basis(w)
    return w.reshape(v.shape)


# ---------------------------------------------------------- basis changes

@pytest.mark.parametrize("n_x", [63, 64])
def test_layout_holds_scaled_rfft_coefficients(n_x):
    rng = np.random.default_rng(n_x)
    v = rng.standard_normal(n_x)
    X = np.fft.rfft(v, norm="ortho")
    b = v.copy()
    to_basis(b)
    h = 2 - n_x % 2
    assert b[0] == pytest.approx(X[0].real, abs=1e-14)
    if h == 2:
        assert b[1] == pytest.approx(X[-1].real, abs=1e-14)
    np.testing.assert_allclose(b[h:].view(complex),
                               np.sqrt(2.0) * X[1: 1 + (n_x - 1) // 2],
                               atol=1e-14)


@pytest.mark.parametrize("n_x", [63, 64])
@pytest.mark.parametrize("rows", [1, 7, 600])
def test_round_trip_and_norms_on_contiguous_blocks(n_x, rows):
    # 600 rows spans several transform blocks
    rng = np.random.default_rng(rows)
    u = rng.standard_normal((rows, n_x))
    orig = u.copy()
    to_basis(u)
    np.testing.assert_allclose(np.linalg.norm(u, axis=1),
                               np.linalg.norm(orig, axis=1), rtol=1e-14)
    np.testing.assert_allclose(u @ u.T, orig @ orig.T, atol=1e-12)
    from_basis(u)
    np.testing.assert_allclose(u, orig, atol=1e-14)


@pytest.mark.parametrize("n_x", [63, 64])
@pytest.mark.parametrize("j,m", [(0, 2), (1, 4), (3, 4)])
def test_round_trip_on_strided_row_views(n_x, j, m):
    rng = np.random.default_rng(10 * j + m)
    u = rng.standard_normal((33, n_x))
    orig = u.copy()
    view = u[j::m]
    to_basis(view)
    untouched = np.ones(33, dtype=bool)
    untouched[j::m] = False
    np.testing.assert_array_equal(u[untouched], orig[untouched])
    np.testing.assert_allclose(u[j::m], in_basis(orig[j::m]), atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(view, axis=1),
                               np.linalg.norm(orig[j::m], axis=1), rtol=1e-14)
    from_basis(view)
    np.testing.assert_allclose(u, orig, atol=1e-14)


def test_vector_round_trip_and_tiny_meshes():
    for n_x in (1, 2, 3):
        v = np.arange(1.0, n_x + 1.0)
        b = v.copy()
        to_basis(b)
        assert np.linalg.norm(b) == pytest.approx(np.linalg.norm(v))
        from_basis(b)
        np.testing.assert_allclose(b, v, atol=1e-14)


def test_basis_changes_reject_unsupported_arrays():
    with pytest.raises(DimensionMismatchError):
        to_basis(np.zeros((2, 3, 8)))
    with pytest.raises(DimensionMismatchError):
        from_basis(np.zeros(8, dtype=np.float32))


# --------------------------------------------------------- diagonal apply

@st.composite
def stencil_and_rows(draw):
    n_x = draw(st.sampled_from([17, 24, 31, 40]))
    wide = draw(st.booleans())
    n_pts = draw(st.integers(17, n_x) if wide else st.integers(1, 16))
    offsets = draw(st.lists(st.integers(-(n_x // 2), n_x // 2), min_size=n_pts,
                            max_size=n_pts, unique=True))
    weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=n_pts,
                            max_size=n_pts))
    batch = draw(st.sampled_from([(), (1,), (5,), (2, 3)]))
    seed = draw(st.integers(0, 2 ** 16))
    v = np.random.default_rng(seed).standard_normal(batch + (n_x,))
    return CirculantOperator.from_arrays(n_x, offsets, weights), v


@settings(max_examples=60, deadline=None)
@given(stencil_and_rows())
def test_basis_apply_matches_dense_product(case):
    op, v = case
    expected = in_basis(v @ op.dense().T)
    got = Stepper(op.n_x, op.symbol).apply(in_basis(v))
    assert got.shape == v.shape
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


def basis_matrix(symbol, n_x):
    """The matrix of a real circulant with the given symbol in the real
    orthonormal Fourier basis: the head slots hold the real modes, and each
    interior pair (re, im) one complex mode, which multiplies by the
    eigenvalue lambda_k = symbol(2*pi*k/n_x)."""
    lam = symbol(2.0 * np.pi * np.arange(n_x // 2 + 1) / n_x)
    h, q = 2 - n_x % 2, (n_x - 1) // 2
    M = np.zeros((n_x, n_x))
    M[0, 0] = lam[0].real
    if h == 2:
        M[1, 1] = lam[-1].real
    for k in range(1, q + 1):
        r = h + 2 * (k - 1)
        M[r: r + 2, r: r + 2] = [[lam[k].real, lam[k].imag],
                                 [-lam[k].imag, lam[k].real]]
    return M, lam[[0, -1][:h]]


def assert_basis_apply_is_symbol(apply, symbol, n_x):
    # row j of the response is the basis apply of the unit vector e_j; it
    # must hold the symbol's values to two ulps of the largest entry
    M, head = basis_matrix(symbol, n_x)
    scale = np.max(np.abs(M))
    assert np.max(np.abs(head.imag)) <= 1e-13 * scale
    got = apply(np.eye(n_x))
    assert np.max(np.abs(got - M)) <= 4.5e-16 * scale


def stepper_of_kind(kind, n_x):
    erk = DiscretizationSpec("erk", 3, 0.85 * cfl_limit(3), n_x, 64)
    sdirk = DiscretizationSpec("sdirk", 3, 5.0, n_x, 64)
    build = {
        "erk": lambda: mol_stepper(erk),
        "sdirk": lambda: mol_stepper(sdirk),
        "semi_lagrangian": lambda: sl_stepper(3, 20.3, n_x),
        "modified_direct": lambda: modified_coarse_stepper(erk, 16),
        "ideal": lambda: ideal_coarse_stepper(mol_stepper(sdirk), 4),
        "rediscretized": lambda: rediscretized_coarse_stepper(sdirk, 4),
    }
    return build[kind]()


@pytest.mark.parametrize("n_x", [63, 64])
@pytest.mark.parametrize("kind", ["erk", "sdirk", "semi_lagrangian",
                                  "modified_direct", "ideal", "rediscretized"])
def test_basis_step_of_unit_vectors_is_the_symbol(kind, n_x):
    stepper = stepper_of_kind(kind, n_x)
    assert_basis_apply_is_symbol(stepper.apply, stepper.symbol, n_x)


@pytest.mark.parametrize("n_x", [63, 64])
def test_capped_basis_step_and_correction_are_the_symbol(n_x):
    # the capped step approximates its correction solve, so its basis form
    # is pinned through its parts: the semi-Lagrangian step and the
    # correction, whose symbols divide to the stepper's symbol
    spec = DiscretizationSpec("erk", 3, 0.85 * cfl_limit(3), n_x, 64)
    capped = modified_coarse_stepper(spec, 16, solver="gmres")
    sl = plain_sl_coarse_stepper(spec, 16)
    phi = phi_coefficient(3, spec.c, 16, error_constant_fd(3),
                          rk_error_constant(spec.tableau()))
    correction = CirculantOperator.identity(n_x).add(
        correction_operator(3, n_x).scale(-phi))
    basis = capped._apply_fn
    assert_basis_apply_is_symbol(functools.partial(basis_multiply, basis.step),
                                 sl.symbol, n_x)
    assert_basis_apply_is_symbol(
        functools.partial(basis_multiply, basis.correction), correction.symbol,
        n_x)
    om = 2.0 * np.pi * np.arange(n_x) / n_x
    np.testing.assert_allclose(sl.symbol(om) / correction.symbol(om),
                               capped.symbol(om), rtol=1e-14)


@pytest.mark.parametrize("n_x", [63, 64])
def test_capped_sl_step_is_the_plain_sl_stepper(n_x):
    # F = 1024 moves the departure point ~1400 cells, wrapping the shift
    # past n_x/2 many times: the capped step's semi-Lagrangian part is the
    # plain semi-Lagrangian stepper, bit for bit, not a stencil's spectrum
    spec = DiscretizationSpec("erk", 3, 0.85 * cfl_limit(3), n_x, 4096)
    capped = modified_coarse_stepper(spec, 1024, solver="gmres")
    plain = plain_sl_coarse_stepper(spec, 1024)
    eye = np.eye(n_x)
    np.testing.assert_array_equal(basis_multiply(capped._apply_fn.step, eye),
                                  plain.apply(eye))


@pytest.mark.parametrize("n_x", [63, 64])
def test_basis_operator_takes_steppers_with_long_shifts(n_x):
    # phases of ~2e6 radians leave the mirror eigenvalues conjugate only to
    # ~1e-10; the stepper is real and its basis step is still its symbol
    stepper = sl_stepper(3, 327680.3, n_x)
    M, _ = basis_matrix(stepper.symbol, n_x)
    got = stepper.apply(np.eye(n_x))
    np.testing.assert_allclose(got, M, rtol=0, atol=1e-15)


def test_basis_apply_on_strided_rows_leaves_input_alone():
    rng = np.random.default_rng(0)
    op = CirculantOperator(63, [(-2, 0.5), (0, 1.0), (5, -0.25)])
    u = in_basis(rng.standard_normal((9, 63)))
    before = u.copy()
    got = Stepper(op.n_x, op.symbol).apply(u[1::3])
    np.testing.assert_array_equal(u, before)
    phys = u[1::3].copy()
    from_basis(phys)
    np.testing.assert_allclose(got, in_basis(op.apply(phys)), atol=1e-13)


def test_basis_operator_rejects_complex_and_wrong_length():
    with pytest.raises(ValueError):
        Stepper(8, CirculantOperator(8, [(1, 1j)]).symbol).basis_diagonal()
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        Stepper(8, lambda om: 1j * np.exp(1j * om)).basis_diagonal()
    with pytest.raises(DimensionMismatchError):
        Stepper(8, CirculantOperator.identity(8).symbol).apply(np.ones(7))


#: float64 values a basis row or diagonal may hold beyond the drawn ones:
#: signed zeros, subnormals, magnitudes near overflow, infinities and nan
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.7e308,
               -1.7e308, 8.9e307, np.inf, -np.inf, np.nan]


def sliced_multiply(diagonal, v, out):
    """The reference multiply: the head slots by ``head``, the pairs through
    the interior complex view."""
    head, interior = diagonal
    h = len(head)
    np.multiply(v[..., :h], head, out=out[..., :h])
    np.multiply(v[..., h:].view(complex), interior,
                out=out[..., h:].view(complex))
    return out


@st.composite
def diagonal_rows_and_layout(draw):
    n_x = draw(st.sampled_from([1, 2, 3, 8, 15, 16, 63, 64]))
    values = st.one_of(st.floats(width=64), st.sampled_from(EDGE_VALUES))
    n_pairs = (n_x - 1) // 2
    lam = np.empty(n_x, dtype=complex)
    lam[0] = draw(values)
    for k in range(1, n_pairs + 1):
        lam[k] = complex(draw(values), draw(values))
        lam[n_x - k] = np.conj(lam[k])
    if n_x % 2 == 0:
        lam[n_x // 2] = draw(values)
    rows = draw(st.integers(0, 5))
    stride = draw(st.sampled_from([1, 2, 3]))
    data = draw(st.lists(values, min_size=rows * stride * n_x,
                         max_size=rows * stride * n_x))
    v = np.array(data, dtype=float).reshape(rows * stride, n_x)[::stride]
    out_stride = draw(st.sampled_from([0, 1, 2]))  # 0: in place
    return lam, v, out_stride


@settings(max_examples=100, deadline=None)
@given(diagonal_rows_and_layout())
def test_whole_row_multiply_is_the_sliced_multiply_bit_for_bit(case):
    # an even-length row is multiplied as one complex view over the whole row
    # and its head slots written after; every slot's bits must be those of
    # the sliced multiply, in place or not, on contiguous or strided rows
    lam, v, out_stride = case
    n_x = v.shape[-1]
    with np.errstate(all="ignore"):
        diagonal = basis_diagonal(lam)
        assert (diagonal.row is None) == (n_x % 2 == 1)
        want = sliced_multiply(diagonal, v, np.empty(v.shape))
        if out_stride:
            got = np.full((out_stride * len(v), n_x), np.pi)[::out_stride]
        else:
            got = v
        basis_multiply(diagonal, v, out=got)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    bits = ~np.isnan(want)
    np.testing.assert_array_equal(got.view(np.int64)[bits],
                                  want.view(np.int64)[bits])


def test_build_refuses_a_coarse_level_before_the_fine_stepper_warns():
    # the plain semi-Lagrangian V-cycle levels shift by 2e12 cells and more;
    # their diagonals are built with the hierarchy, which warns of the
    # over-limit ERK3 fine grid only once built, so nothing warns
    spec = DiscretizationSpec("erk", 3, 1e12, 32, 64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NotRealOperatorError):
            build_problem(spec, 2, "v_cycle", "plain_sl")
    assert not [w for w in caught if issubclass(w.category, StabilityWarning)]


# ------------------------------------------------- coarse forward substitution

def row_loop_substitute(stepper, u):
    """e_k = Phi e_{k-1} + g_k from e_0 = 0 in place, one ``Stepper.apply``
    per row: the coarse solve as written."""
    prev = np.zeros(u.shape[1:])
    for row in u:
        row += stepper.apply(prev)
        prev = row
    return u


@pytest.mark.parametrize("n_x", [63, 64])
@pytest.mark.parametrize("kind", ["sdirk", "semi_lagrangian",
                                  "modified_direct", "capped"])
def test_forward_substitution_is_the_row_loop_bit_for_bit(monkeypatch, kind,
                                                          n_x):
    # in the last F-points of an iterate, where the coarse solve runs: a
    # direct stepper multiplies by its diagonal and a capped one falls back
    # to the row loop, and either matches the loop in every bit, signed
    # zeros in g_1 included
    if kind == "capped":
        spec = DiscretizationSpec("erk", 3, 0.85 * cfl_limit(3), n_x, 64)
        stepper = modified_coarse_stepper(spec, 16, solver="gmres")
    else:
        stepper = stepper_of_kind(kind, n_x)
    m = 2
    u = np.random.default_rng(n_x).standard_normal((33, n_x))
    u[m - 1, ::2] = -0.0
    ref = u.copy()
    row_loop_substitute(stepper, ref[m - 1::m])
    kernel_calls = []

    def recording(diagonal, rows):
        kernel_calls.append(len(rows))
        return basis_forward_substitute(diagonal, rows)

    monkeypatch.setattr(stepping, "basis_forward_substitute", recording)
    stepper.forward_substitute(u[m - 1::m])
    assert u.tobytes() == ref.tobytes()
    assert kernel_calls == ([] if kind == "capped" else [16])



def test_forward_substitution_rejects_rows_of_another_length():
    diagonal = sl_stepper(3, 2.3, 16).basis_diagonal()
    with pytest.raises(DimensionMismatchError):
        basis_forward_substitute(diagonal, np.zeros((4, 15)))

# ------------------------------------------------------------------ solves

def hierarchy(family, p, c, kind, cycle, n_x=64, n_t=64, m=4):
    spec = DiscretizationSpec(family, p, c, n_x, n_t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        return build_problem(spec, m, cycle, kind)


def assert_at_sequential_solution(problem, u):
    exact = sequential_solve(problem)
    assert np.max(np.abs(u - exact)) <= 1e-9 * np.max(np.abs(exact))


DIRECT_CASES = (
    [("sdirk", 3, 5.0, kind) for kind in ("modified", "rediscretized",
                                          "plain_sl", "ideal")]
    + [("sdirk", 1, 2.0, kind) for kind in ("modified", "rediscretized")]
    + [("erk", 3, 0.85, "plain_sl"), ("erk", 1, 0.85, "ideal")]
)


@pytest.mark.parametrize("cycle", ["two_level", "v_cycle"])
@pytest.mark.parametrize("family,p,c,kind", DIRECT_CASES)
def test_solve_matches_physical_residual_history(family, p, c, kind, cycle):
    # a two-level hierarchy (a V-cycle on ideal and rediscretized coarse
    # operators is one) is one scalar time problem per frequency: its
    # history is the finite-grid mode prediction from the physical initial
    # iterate, which runs no solver kernel; deeper V-cycles are checked
    # against the sequential solution, as every solve is
    if family == "erk":
        c *= cfl_limit(p)
    for n_x, nu in itertools.product((63, 64), (0, 1, 2)):
        problem = hierarchy(family, p, c, kind, cycle, n_x=n_x)
        config = MgritConfig(nu=nu, cycle=cycle, max_iters=30, rng_seed=1)
        solver = MgritSolver(problem, config)
        u = solver.initial_state()
        report = solver.solve(u)
        assert report.converged
        assert_at_sequential_solution(problem, u)
        if problem.n_levels > 2:
            continue
        m = problem.m[0]
        predicted = predict_history(problem.steppers[0].symbol,
                                    problem.steppers[1].symbol, m, nu,
                                    solver.initial_state()[::m],
                                    report.iterations)
        # entries at the rounding floor (1e-16 of the iterate) carry no digits
        np.testing.assert_allclose(report.residual_norms[1:], predicted,
                                   rtol=1e-10,
                                   atol=1e-14 * report.residual_norms[0])


@pytest.mark.parametrize("p,n_x", [(1, 64), (3, 64), (3, 63), (2, 64)])
def test_capped_gmres_v_cycle_matches_physical_counts(monkeypatch, p, n_x):
    # the capped coarse solve runs spectral MINRES for odd p and GMRES for
    # even p, both in the basis; a hierarchy built with GMRES in place of
    # MINRES must take as many iterations
    def build():
        return hierarchy("erk", p, 0.85 * cfl_limit(p), "modified",
                         "v_cycle", n_x=n_x, n_t=256)

    problem = build()
    assert problem.n_levels > 2
    config = MgritConfig(nu=1, cycle="v_cycle", max_iters=30, rng_seed=0)
    solver = MgritSolver(problem, config)
    u = solver.initial_state()
    report = solver.solve(u)
    assert report.converged
    assert_at_sequential_solution(problem, u)
    monkeypatch.setattr(stepping, "_minres_spectral", _gmres_batched)
    gmres = build()
    assert all(s._apply_fn.krylov is _gmres_batched for s in gmres.steppers[1:])
    assert MgritSolver(gmres, config).solve().iterations == report.iterations


def test_capped_v_cycle_steps_only_its_hierarchy(monkeypatch):
    # a capped level steps and solves with its two basis diagonals, so every
    # Stepper.apply of an even-p (GMRES) capped V-cycle is one of its levels
    problem = hierarchy("erk", 4, 0.85 * cfl_limit(4), "modified", "v_cycle",
                        n_t=256)
    calls = []
    apply = Stepper.apply

    def recording_apply(self, *args, **kwargs):
        calls.append(self)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(Stepper, "apply", recording_apply)
    config = MgritConfig(nu=1, cycle="v_cycle", max_iters=40, rng_seed=0)
    report = MgritSolver(problem, config).solve()
    assert report.converged and report.iterations == 19
    levels = {id(s) for s in problem.steppers}
    strays = [s for s in calls if id(s) not in levels]
    assert calls and not strays, f"{len(strays)} applies off the hierarchy"


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_capped_and_direct_erk3_v_cycles_take_equal_counts(m):
    # capping the correction solve costs no iteration: the same hierarchy
    # with exact (direct) correction solves on every coarse level converges
    # in as many V-cycles
    capped = hierarchy("erk", 3, 0.85 * cfl_limit(3), "modified", "v_cycle",
                       n_t=256, m=m)
    assert all(s._apply_fn is not None for s in capped.steppers[1:])
    spec = DiscretizationSpec("erk", 3, 0.85 * cfl_limit(3), 64, 256)
    steppers, F = [capped.steppers[0]], 1
    for mf in capped.m:
        F *= mf
        steppers.append(modified_coarse_stepper(spec, F))
    direct = dataclasses.replace(capped, steppers=steppers)
    config = MgritConfig(nu=1, cycle="v_cycle", tol=1e-10, max_iters=40,
                         rng_seed=0)
    got_capped = MgritSolver(capped, config).solve()
    got_direct = MgritSolver(direct, config).solve()
    assert got_capped.converged and got_direct.converged
    assert got_capped.iterations == got_direct.iterations


THREAD_CASES = {
    # id: family, p, c (a fraction of c_max for erk), cycle, m, n_x, n_t
    "1": ("erk", 1, 0.85, "v_cycle", 4, 64, 256),
    "3": ("erk", 3, 0.85, "v_cycle", 4, 64, 256),
    "erk2_v_cycle_gmres": ("erk", 2, 0.85, "v_cycle", 4, 64, 256),
    "sdirk3_two_level": ("sdirk", 3, 5.0, "two_level", 2, 64, 256),
    "sdirk3_v_cycle_4_2": ("sdirk", 3, 5.0, "v_cycle", [4, 2], 64, 256),
    # m = 3: each inner level's error is the class blocks of the C-points
    # of the level above, whose values are parked in its first F-points
    "erk3_v_cycle_3": ("erk", 3, 0.85, "v_cycle", 3, 64, 243),
    # 3 coarse intervals, one row block: a single task in the calling thread
    "sdirk1_serial_fallback": ("sdirk", 1, 2.0, "two_level", 16, 32, 48),
}


@pytest.mark.parametrize(
    "family,p,c,cycle,m,n_x,n_t,threads",
    [pytest.param(*case, 2, id=name) for name, case in THREAD_CASES.items()]
    + [pytest.param(*case, 3, id=f"{name}-threads3")
       for name, case in THREAD_CASES.items()])
def test_capped_v_cycle_histories_do_not_depend_on_threads(
        family, p, c, cycle, m, n_x, n_t, threads):
    # threads split each phase into tasks of whole 64-interval row blocks
    # (here only level 0 of the m = 2 two-level and m = 3 V-cycle cases has
    # two of them; every other level is one task), and every row keeps its
    # serial arithmetic, Krylov solves included, so every residual norm is
    # bitwise unchanged
    if family == "erk":
        c *= cfl_limit(p)
    problem = hierarchy(family, p, c, "modified", cycle, n_x=n_x, n_t=n_t,
                        m=m)
    config = MgritConfig(nu=1, cycle=cycle, max_iters=30, rng_seed=0)
    serial = MgritSolver(problem, config, threads=1).solve()
    threaded = MgritSolver(problem, config, threads=threads).solve()
    assert serial.converged
    assert threaded.residual_norms == serial.residual_norms


@pytest.mark.parametrize("threads", [2, 3])
def test_threaded_capped_v_cycle_splits_and_makes_the_serial_krylov_calls(
        monkeypatch, threads):
    # 32 x 4096 at m = 4: level 0 has 16 row blocks of 64 coarse intervals
    # and the capped level 1 has 4, so both split over the threads; every
    # task holds whole blocks, so the capped level makes the serial run's
    # Krylov calls, one per block, and the history and iterate are bitwise
    problem = hierarchy("erk", 3, 0.85 * cfl_limit(3), "modified", "v_cycle",
                        n_x=32, n_t=4096, m=4)
    krylov_calls, ran_on = [0], set()

    def counting(krylov):
        def wrapped(*args):
            krylov_calls[0] += 1
            return krylov(*args)
        return wrapped

    for stepper in problem.steppers[1:]:
        capped = stepper._apply_fn
        assert capped.krylov is stepping._minres_spectral
        stepper._apply_fn = capped._replace(krylov=counting(capped.krylov))
    apply = Stepper.apply

    def recording_apply(self, u, out=None):
        ran_on.add((self.level, threading.get_ident()))
        return apply(self, u, out)

    monkeypatch.setattr(Stepper, "apply", recording_apply)
    config = MgritConfig(nu=1, cycle="v_cycle", max_iters=3, rng_seed=0)

    def run(n_threads):
        krylov_calls[0] = 0
        ran_on.clear()
        solver = MgritSolver(problem, config, threads=n_threads)
        u = solver.initial_state()
        report = solver.solve(u)
        return report.residual_norms, u.tobytes(), krylov_calls[0]

    serial = run(1)
    assert run(threads) == serial and serial[2] > 0
    for level in (0, 1):
        assert len({ident for lvl, ident in ran_on if lvl == level}) >= 2


def fail_at_step(monkeypatch, n_calls):
    """Make step call number ``n_calls`` (from 0) fail.  A ``Stepper.apply``
    is one call; the coarse forward substitution counts one call per row it
    steps, as the per-row applies it replaces did, and fails at its entry
    when one of them is the failing call."""
    apply, substitute = Stepper.apply, stepping.basis_forward_substitute
    calls = itertools.count()

    def failing_apply(self, u, out=None):
        if next(calls) == n_calls:
            raise RuntimeError("stepper failed")
        return apply(self, u, out)

    def failing_substitute(diagonal, u):
        steps = [next(calls) for _ in range(len(u))]
        if n_calls in steps:
            raise RuntimeError("stepper failed")
        return substitute(diagonal, u)

    monkeypatch.setattr(Stepper, "apply", failing_apply)
    monkeypatch.setattr(stepping, "basis_forward_substitute",
                        failing_substitute)


@pytest.mark.parametrize("cycle,m,n_calls", [
    pytest.param("two_level", 4, 0, id="0"),
    pytest.param("two_level", 4, 40, id="40"),
    pytest.param("v_cycle", 4, 48, id="v_cycle-48"),
    pytest.param("v_cycle", 2, 34, id="v_cycle-m2-34"),
    pytest.param("two_level", 3, 27, id="m3-27")])
def test_failing_stepper_leaves_initial_iterate_physical(monkeypatch, cycle,
                                                          m, n_calls):
    # two-level: the first residual norm and cycle make 28 step calls, the
    # next norm 1, and the second cycle's F-relaxation and restriction 4
    # before its 16-row coarse forward substitution, so call 40 fails at its
    # entry; the iterate must come back physical, as the second cycle's
    # relaxation (its first C-relaxation and an F-relaxation) and restriction
    # (over the last F-points) left it.  V-cycle (m = 4 on levels of 64, 16,
    # 4 and 1 steps): the first norm and cycle make 35 calls, the next norm
    # 1, and the second cycle 4 on level 0 and 8 on level 1, so call 48 is
    # level 2's first F-relaxation step; level 1's error has then replaced
    # the C-points and a zero error row 0, and both must be restored, to the
    # values level 0's relaxation left there and to u0.  Two-level at m = 3
    # on 48 steps: the first norm and cycle make 25 calls and the next norm
    # 1, so call 27 is the second step of level 0's F-relaxation in its
    # second cycle, with the solve's rows in their blocked layout; they
    # must come back in time order, the last F-points still holding the
    # norm's C-point values.  V-cycle at m = 2 (levels of 32, 16, 8, 4, 2
    # and 1 steps): the first norm and cycle make 27 calls, the next norm 1,
    # and the second cycle 2 on level 0 and 4 on level 1, so call 34 is
    # level 2's first F-relaxation step; level 0's C-point values wait in a
    # buffer of their own, since its first F-points are its last ones and
    # hold the restricted residual, and must come back with u0
    problem = hierarchy("sdirk", 3, 5.0, "modified", cycle,
                        n_t=16 * m, m=m)
    config = MgritConfig(nu=1, cycle=cycle, max_iters=5, rng_seed=2)
    solver = MgritSolver(problem, config)
    u = solver.initial_state()
    fail_at_step(monkeypatch, n_calls)
    with pytest.raises(RuntimeError, match="stepper failed"):
        solver.solve(u)
    monkeypatch.undo()

    ref = solver.initial_state()
    stepper = problem.steppers[0]
    if n_calls:
        one_cycle = dataclasses.replace(config, max_iters=1)
        MgritSolver(problem, one_cycle).solve(ref)
        to_basis(ref)
        level = [ref[j::m] for j in range(m)]
        c_relax(level, None, stepper)
        f_relax(level, None, stepper)
        if m == 3:
            np.copyto(level[-1], level[0][1:])
        else:
            restrict_residual(level, None, stepper, level[-1])
        from_basis(ref)
    if cycle == "v_cycle" and m > 2:
        # the dead first F-points hold the C-point values they parked
        ref[1::m] = ref[m::m]
    np.testing.assert_allclose(u, ref, atol=1e-12)
    np.testing.assert_allclose(u[0], problem.u0, atol=1e-14)
