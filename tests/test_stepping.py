"""Time-stepping operators: tableau contracts, stepper equivalences,
stability limits, correction coefficients, and truncation-error fits."""

import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from mgrit_advection import (ButcherTableau, CirculantOperator,
                             DiscretizationSpec, SingularOperatorError,
                             StabilityWarning, StencilWindow, TableauError,
                             cfl_limit, erk_tableau, error_constant_fd,
                             ideal_coarse_stepper, modified_coarse_stepper,
                             mol_stepper, phi_coefficient,
                             plain_sl_coarse_stepper,
                             rediscretized_coarse_stepper, rk_error_constant,
                             sdirk_tableau, sl_stepper, stability_function,
                             truncation_residual, upwind_derivative)
from mgrit_advection.circulant import (_gmres_batched, _minres_spectral,
                                       basis_multiply, from_basis, to_basis)
from mgrit_advection import circulant, stepping
from mgrit_advection.experiments import _measured_fd_constant, build_problem
from mgrit_advection.stencils import fd_weights, lagrange_weights
from mgrit_advection.stepping import (correction_operator, f_poly,
                                      fine_stepper, global_error_order,
                                      split_cfl)
from test_circulant import gmres_reference


def stencil(stepper):
    """The physical stencil a stepper's eigenvalues give."""
    return CirculantOperator.from_eigenvalues(stepper.n_x,
                                              stepper.eigenvalues())


# ------------------------------------------------------------------- tableaux

ERK_CONSTANTS = {1: -5e-1, 2: -1.6667e-1, 3: -4.1667e-2, 4: -8.3333e-3,
                 5: -6.0764e-4}
SDIRK_CONSTANTS = {1: 5e-1, 2: 4.0440e-2, 3: -2.5897e-2, 4: -8.4635e-4,
                   5: 5.3005e-4}


def matches_4_digits(value, reference):
    """Agreement to four significant digits of the reference."""
    scale = 10.0 ** math.floor(math.log10(abs(reference)))
    return abs(value - reference) < 0.5e-3 * scale


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_erk_error_constants(q):
    assert matches_4_digits(rk_error_constant(erk_tableau(q)), ERK_CONSTANTS[q])


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_sdirk_error_constants(q):
    assert matches_4_digits(rk_error_constant(sdirk_tableau(q)),
                            SDIRK_CONSTANTS[q])


def test_explicit_euler_error_constant():
    assert rk_error_constant(erk_tableau(1)) == pytest.approx(-0.5)


def test_classical_rk4_error_constant():
    # four stages: the fifth Taylor coefficient vanishes
    assert rk_error_constant(erk_tableau(4)) == pytest.approx(-1 / 120)


def test_implicit_euler_error_constant():
    assert rk_error_constant(sdirk_tableau(1)) == pytest.approx(0.5)


def test_inconsistent_tableau_rejected():
    bad = ButcherTableau(np.zeros((1, 1)), [1.0], "explicit", 2)  # only order 1
    with pytest.raises(TableauError):
        rk_error_constant(bad)


def test_tableau_validation():
    with pytest.raises(TableauError):
        ButcherTableau(np.array([[0.0, 1.0], [0.0, 0.0]]), [0.5, 0.5],
                       "explicit", 2)
    with pytest.raises(TableauError):
        ButcherTableau(np.array([[0.5, 0.0], [0.0, 0.25]]), [0.5, 0.5],
                       "sdirk", 2)
    with pytest.raises(TableauError):
        ButcherTableau(np.zeros((1, 1)), [0.9], "explicit", 1)


@pytest.mark.parametrize("family,q", [("erk", q) for q in range(1, 6)]
                         + [("sdirk", q) for q in range(1, 6)])
def test_taylor_coefficients_match_exponential(family, q):
    tab = erk_tableau(q) if family == "erk" else sdirk_tableau(q)
    for j in range(q + 1):
        assert tab.taylor_coefficient(j) == pytest.approx(
            1 / math.factorial(j), abs=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_sdirk_methods_are_a_stable(q):
    tab = sdirk_tableau(q)
    ys = np.concatenate([np.linspace(1e-3, 50, 3000), np.logspace(1.7, 6, 200)])
    vals = np.abs(stability_function(tab, 1j * ys))
    assert np.max(vals) <= 1.0 + 1e-10


# --------------------------------------------------------- stability function

def test_stability_function_euler():
    tab = erk_tableau(1)
    assert stability_function(tab, -1.0) == pytest.approx(0.0)
    assert stability_function(tab, 0.5j) == pytest.approx(1 + 0.5j)


def test_stability_function_implicit_euler():
    tab = sdirk_tableau(1)
    assert stability_function(tab, -1.0) == pytest.approx(0.5)


def test_stability_function_pole_raises():
    tab = sdirk_tableau(1)
    with pytest.raises(SingularOperatorError):
        stability_function(tab, 1.0)


@pytest.mark.parametrize("family,q", [("erk", 2), ("erk", 5), ("sdirk", 1),
                                      ("sdirk", 3)])
def test_stability_function_taylor_remainder(family, q):
    # |R(z) - truncated series - beta_{q+1} z^{q+1}| = O(z^{q+2}); for the
    # explicit methods the polynomial terminates there and the remainder
    # vanishes identically
    tab = erk_tableau(q) if family == "erk" else sdirk_tableau(q)
    beta = tab.taylor_coefficient(q + 1)
    zs = [0.1 * 2.0 ** (-j) for j in range(4)]
    rem = []
    for z in zs:
        series = sum(z ** j / math.factorial(j) for j in range(q + 1))
        rem.append(abs(stability_function(tab, z) - series - beta * z ** (q + 1)))
    if family == "erk":
        assert max(rem) <= 1e-14
    else:
        slope = np.polyfit(np.log(zs), np.log(rem), 1)[0]
        assert slope >= q + 2 - 0.2


@pytest.mark.parametrize("c", [1e9, 1e17])
def test_stability_function_is_conjugate_symmetric_far_past_the_limit(c):
    # an ERK3 stepper far beyond its CFL limit is still a real operator:
    # R at -c times the upwind symbol on the mesh is finite and mirrors
    # itself, lambda(2 pi - omega) = conj(lambda(omega)), to rounding (the
    # test circulant.basis_diagonal makes, at 1e-14 rather than 1e-8)
    n_x = 64
    lsym = upwind_derivative(3, n_x).symbol(2.0 * np.pi * np.arange(n_x) / n_x)
    lam = stability_function(erk_tableau(3), -c * lsym)
    assert np.all(np.isfinite(lam))
    mirror = np.conj(lam[-np.arange(n_x) % n_x])
    assert np.max(np.abs(lam - mirror)) <= 1e-14 * np.max(np.abs(lam))


# ----------------------------------------------------------------- mol_stepper

def test_explicit_euler_upwind_stencil():
    c = 0.7
    spec = DiscretizationSpec("erk", 1, c, 32, 8)
    op = stencil(mol_stepper(spec))
    assert list(op.offsets) == [-1, 0]
    np.testing.assert_allclose(op.weights, [c, 1 - c], atol=1e-12)


def test_explicit_euler_symbol():
    c = 0.4
    spec = DiscretizationSpec("erk", 1, c, 32, 8)
    st = mol_stepper(spec)
    om = np.linspace(-np.pi, np.pi, 17)
    np.testing.assert_allclose(st.symbol(om), 1 - c * (1 - np.exp(-1j * om)),
                               atol=1e-13)


def rk_stage_sweep(spec, u):
    """One step of ``mol_stepper(spec)`` by the Runge-Kutta stage sweep,
    each implicit stage solved directly: the reference for the stepper
    built from the symbol."""
    tab = spec.tableau()
    cL = upwind_derivative(spec.p, spec.n_x).scale(-spec.c)
    stage_matrix = None
    if tab.kind == "sdirk":
        # equal diagonal entries: one stage matrix serves every stage
        stage_matrix = CirculantOperator.identity(spec.n_x).add(
            cL.scale(-tab.A[0, 0]))
    z = []
    for i in range(tab.stages):
        rhs = u.copy()
        for j in range(i):
            if tab.A[i, j] != 0.0:
                rhs = rhs + tab.A[i, j] * z[j]
        if stage_matrix is not None:
            rhs = np.linalg.solve(stage_matrix.dense(), rhs)
        z.append(cL.apply(rhs))
    out = u.copy()
    for i in range(tab.stages):
        if tab.b[i] != 0.0:
            out = out + tab.b[i] * z[i]
    return out


@pytest.mark.parametrize("family,p", [("erk", 2), ("erk", 4), ("sdirk", 1),
                                      ("sdirk", 3), ("sdirk", 5)])
def test_staged_matches_assembled(family, p):
    c = 0.5 * cfl_limit(p) if family == "erk" else 1.3
    spec = DiscretizationSpec(family, p, c, 64, 16)
    assembled = mol_stepper(spec)
    rng = np.random.default_rng(p)
    for _ in range(3):
        v = rng.standard_normal(64)
        np.testing.assert_allclose(rk_stage_sweep(spec, v),
                                   stencil(assembled).apply(v), atol=1e-11)


def test_spec_rejects_a_cfl_number_that_is_not_finite():
    with pytest.raises(ValueError, match="CFL number c must be positive"):
        DiscretizationSpec("sdirk", 3, math.nan, 32, 8)
    # an infinite c is what a product of CFL factors reads once it overflows
    with pytest.raises(OverflowError, match="CFL number c = inf"):
        DiscretizationSpec("sdirk", 3, math.inf, 32, 8)


def test_cfl_violation_warns_but_constructs():
    # the stepper constructs silently (pyproject makes a StabilityWarning an
    # error); a hierarchy built on it warns
    spec = DiscretizationSpec("erk", 1, 1.5, 32, 8)
    assert mol_stepper(spec).max_amplification() > 1.0 + 1e-6
    with pytest.warns(StabilityWarning):
        build_problem(spec, 2, "two_level")


def test_steppers_and_fits_past_the_limit_do_not_warn():
    spec = DiscretizationSpec("erk", 3, 1.2 * cfl_limit(3), 64, 64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fine = mol_stepper(spec)
        assert fine_stepper(spec).max_amplification() > 1.0 + 1e-6
        ideal_coarse_stepper(fine, 4).eigenvalues()
        truncation_residual("erk", 3, spec.c, [24, 32, 48])
        stepping.modified_ideal_consistency(spec, 2, [64, 128])
    assert caught == []


@pytest.mark.parametrize("cycle", ["two_level", "v_cycle"])
@pytest.mark.parametrize("kind", ["modified", "plain_sl", "ideal"])
def test_an_over_limit_build_warns_once_from_experiments(kind, cycle):
    c = 1.2 * cfl_limit(3)
    spec = DiscretizationSpec("erk", 3, c, 64, 64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_problem(spec, 2, cycle, kind)
    assert len(caught) == 1
    assert caught[0].category is StabilityWarning
    assert str(caught[0].message) == (
        f"CFL number {c:.6g} exceeds the stability limit "
        f"{cfl_limit(3):.6g} for ERK3+U3")
    assert caught[0].filename.endswith(
        os.path.join("mgrit_advection", "experiments.py"))


@pytest.mark.parametrize("family", ["erk", "sdirk"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_global_order(family, p):
    c = 0.7 * cfl_limit(p) if family == "erk" else 0.8
    slope, _ = global_error_order(family, p, c, [64, 128, 256, 512])
    assert slope == pytest.approx(p, abs=0.15)


# ----------------------------------------------------------------- sl_stepper

def departure(p, mc, n_x):
    """Whole-cell shift, fraction and window of a semi-Lagrangian step, and
    the Lagrange stencil they give."""
    k, eps = split_cfl(mc)
    window = StencilWindow.interpolation(p, eps)
    lagrange = CirculantOperator.from_arrays(
        n_x, window.offsets - k, lagrange_weights(window, eps))
    return -k, eps, window, lagrange


def test_integer_cfl_is_pure_shift():
    st = sl_stepper(3, 4.0, 32)
    shift, eps, _, lagrange = departure(3, 4.0, 32)
    assert eps == 0.0
    assert shift == -4
    np.testing.assert_allclose(st.eigenvalues(), lagrange.eigenvalues(),
                               rtol=0, atol=1e-13)
    op = stencil(st)
    assert list(op.offsets) == [-4]
    np.testing.assert_allclose(op.weights, [1.0], atol=1e-13)


def test_first_order_sl_equals_explicit_euler_upwind():
    for c in (0.15, 0.5, 0.85):
        sl = stencil(sl_stepper(1, c, 32))
        mol = stencil(mol_stepper(DiscretizationSpec("erk", 1, c, 32, 8)))
        assert list(sl.offsets) == list(mol.offsets)
        np.testing.assert_allclose(sl.weights, mol.weights, atol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mc", [0.3, 0.5, 1.6, 7.25, 12.0])
def test_sl_unconditional_stability(p, mc):
    st = sl_stepper(p, mc, 64)
    assert st.max_amplification() <= 1.0 + 1e-12


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_sl_global_order(p):
    slope, _ = global_error_order("semi_lagrangian", p, 0.7, [64, 128, 256, 512])
    assert slope == pytest.approx(p, abs=0.15)


def test_sl_departure_decomposition():
    shift, eps, window, lagrange = departure(2, 3.68, 64)
    assert shift == -3
    assert eps == pytest.approx(0.68)
    assert window == StencilWindow(2, 0)  # eps > 1/2 recenters west
    np.testing.assert_allclose(sl_stepper(2, 3.68, 64).eigenvalues(),
                               lagrange.eigenvalues(), rtol=0, atol=1e-13)


# ------------------------------------------------------------------ cfl_limit

TABLE_CMAX = {1: 1.0, 2: 0.5, 3: 1.62589, 4: 1.04449, 5: 1.96583}


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_cfl_limits(p):
    assert matches_4_digits(cfl_limit(p), TABLE_CMAX[p])


#: c_max of ERK q + U p, keyed (p, q): the bisection gives exactly these
#: values whichever way R is evaluated (stage recurrence, Horner polynomial,
#: resolvent 1 + z b^T (I - zA)^{-1} 1): those differ by rounding only
CMAX_PINNED = {
    (1, 1): 1.0000004768371582, (1, 2): 1.0000004768371582,
    (1, 3): 1.2563729286193848, (1, 4): 1.3926472663879395,
    (1, 5): 2.3350090980529785,
    (2, 1): 0.0157485106664896, (2, 2): 0.5000004818371534,
    (2, 3): 0.6280694045066596, (2, 4): 0.69632387464931,
    (2, 5): 1.1426548957824707,
    (3, 1): 0.010986814852290153, (3, 2): 0.8783421528584242,
    (3, 3): 1.6258912086486816, (3, 4): 1.7452692985534668,
    (3, 5): 2.2823386192321777,
    (4, 1): 0.004644880711607933, (4, 2): 0.2997574876237631,
    (4, 3): 0.9046006212237693, (4, 4): 1.0444855690002441,
    (4, 5): 1.5712103843688965,
    (5, 1): 0.00385905308274746, (5, 2): 0.24930239474452498,
    (5, 3): 1.434983730316162, (5, 4): 1.7319750785827637,
    (5, 5): 1.965832233428955,
}


@pytest.mark.parametrize("p,q", sorted(CMAX_PINNED))
def test_cfl_limit_is_pinned_bitwise(p, q):
    assert cfl_limit(p, erk_tableau(q)) == CMAX_PINNED[(p, q)]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_explicit_stability_function_is_its_taylor_polynomial(p, q):
    # A is nilpotent, so the series b^T A^(j-1) 1 z^j stops at j = s; the
    # polynomial must match the stage recurrence on cfl_limit's scan samples
    tab = erk_tableau(q)
    assert tab.taylor_coefficient(tab.stages + 1) == 0.0
    beta = [tab.taylor_coefficient(j) for j in range(tab.stages, -1, -1)]
    win = StencilWindow.upwind(p)
    om = -np.pi + 2.0 * np.pi * np.arange(4096) / 4096
    lsym = (np.exp(1j * np.outer(om, win.offsets.astype(float)))
            @ fd_weights(1, win.offsets, 0.0).astype(complex))
    for factor in (0.5, 1.0, 2.0):
        z = -factor * cfl_limit(p, tab) * lsym
        reference = stability_function(tab, z)
        np.testing.assert_array_less(
            np.abs(np.polyval(beta, z) - reference), 1e-12 * np.abs(reference))


def test_cfl_limit_requires_explicit():
    with pytest.raises(ValueError):
        cfl_limit(1, sdirk_tableau(1))


# ------------------------------------------------------------ phi coefficient

def test_phi_vanishes_for_unit_coarsening():
    e_fd = error_constant_fd(1)
    e_rk = rk_error_constant(erk_tableau(1))
    for c in (0.2, 0.5, 0.9):
        assert phi_coefficient(1, c, 1, e_fd, e_rk) == pytest.approx(
            0.0, abs=1e-14)


def test_phi_small_coarse_cfl_closed_form():
    # m*c < 1 keeps the interpolation window on the first cell:
    # phi = m (m - 1) c^2 / 2 for the first-order pair
    e_fd = error_constant_fd(1)
    e_rk = rk_error_constant(erk_tableau(1))
    m, c = 2, 0.4
    assert phi_coefficient(1, c, m, e_fd, e_rk) == pytest.approx(
        m * (m - 1) * c * c / 2, abs=1e-14)


def test_phi_hand_computed_value():
    # m=4, c=0.4: 4 [0.2 - 0.08] + f_2(0.6) = 0.48 - 0.12 = 0.36
    e_fd = error_constant_fd(1)
    e_rk = rk_error_constant(erk_tableau(1))
    assert phi_coefficient(1, 0.4, 4, e_fd, e_rk) == pytest.approx(
        0.36, abs=1e-14)


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_phi_level_recursion_consistency(p, m, level):
    # the closed form in the cumulative factor F = m^level satisfies the
    # paper's level recursion
    # phi_l = (-1)^(p+1) [ -m f(eps_{l-1}) + f(eps_l) ] + m phi_{l-1}
    e_fd = error_constant_fd(p)
    e_rk = rk_error_constant(erk_tableau(p))
    c = 0.3

    def frac_part(x):
        return x - math.floor(x + 1e-13)

    def f(F):
        eps = frac_part(F * c)
        return f_poly(p, StencilWindow.interpolation(p, eps), eps)

    F_prev, F = m ** (level - 1), m ** level
    phi_prev = phi_coefficient(p, c, F_prev, e_fd, e_rk)
    expected = (-1) ** (p + 1) * (-m * f(F_prev) + f(F)) + m * phi_prev
    assert phi_coefficient(p, c, F, e_fd, e_rk) == pytest.approx(
        expected, rel=1e-13)


# ------------------------------------------------- corrected coarse operators

def test_zero_phi_reduces_to_plain_sl():
    # m = 1 makes the correction vanish for the first-order pair
    spec = DiscretizationSpec("erk", 1, 0.5, 64, 16)
    corrected = modified_coarse_stepper(spec, F=1)
    plain = sl_stepper(1, 0.5, 64)
    om = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    np.testing.assert_allclose(corrected.symbol(om), plain.symbol(om),
                               atol=1e-13)


@pytest.mark.parametrize("family,p,c,m", [
    ("erk", 3, 0.8, 4), ("sdirk", 1, 2.0, 8), ("sdirk", 5, 1.0, 2)])
def test_modified_symbol_two_ways(family, p, c, m):
    # assembled stencil eigenvalues against the symbol quotient
    spec = DiscretizationSpec(family, p, c, 64, 16)
    st = modified_coarse_stepper(spec, m)
    om = 2 * np.pi * np.arange(64) / 64
    np.testing.assert_allclose(np.abs(stencil(st).symbol(om)),
                               np.abs(st.symbol(om)), atol=1e-11)


@pytest.mark.parametrize("family,p,c,m", [
    ("erk", 1, 0.6, 4), ("erk", 3, 1.2, 4), ("sdirk", 3, 5.0, 16)])
def test_modified_stepper_is_stable(family, p, c, m):
    spec = DiscretizationSpec(family, p, c, 64, 16)
    st = modified_coarse_stepper(spec, m)
    assert st.max_amplification() <= 1.0 + 1e-10


def test_modified_gmres_matches_direct_application():
    spec = DiscretizationSpec("erk", 3, 0.8, 128, 16)
    direct = modified_coarse_stepper(spec, 4, solver="direct")
    approx = modified_coarse_stepper(spec, 4, solver="gmres")
    approx._apply_fn = approx._apply_fn._replace(tol=1e-10, max_iters=128)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(128)
    np.testing.assert_allclose(approx.apply(v), direct.apply(v), atol=1e-8)


def physical_correction(spec, F):
    """The correction I - phi D of the modified coarse step over F fine
    steps, as the circulant stencil it is built from."""
    phi = phi_coefficient(spec.p, spec.c, F, error_constant_fd(spec.p),
                          rk_error_constant(spec.tableau()))
    return CirculantOperator.identity(spec.n_x).add(
        correction_operator(spec.p, spec.n_x).scale(-phi))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_capped_correction_selects_minres_on_symmetric_corrections(p):
    spec = DiscretizationSpec("erk", p, 0.5 * cfl_limit(p), 64, 16)
    capped = modified_coarse_stepper(spec, 16, solver="gmres")._apply_fn
    symmetric = physical_correction(spec, 16).is_symmetric()
    assert symmetric == (p % 2 == 1)
    assert capped.krylov is (_minres_spectral if symmetric else _gmres_batched)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_x", [64, 96])
def test_modified_gmres_basis_step_matches_physical_step(p, n_x):
    # the physical reference: textbook GMRES, row by row, on the
    # semi-Lagrangian step of physical rows, with the physical correction
    # stencil
    spec = DiscretizationSpec("erk", p, 0.85 * cfl_limit(p), n_x, 16)
    for level in (1, 3):
        F = 4 ** level
        stepper = modified_coarse_stepper(spec, F, solver="gmres")
        capped = stepper._apply_fn
        rng = np.random.default_rng(level)
        x = 2 * np.pi * np.arange(n_x) / n_x
        V = np.stack([rng.standard_normal(n_x), np.exp(np.sin(x)),
                      np.zeros(n_x)])
        step = plain_sl_coarse_stepper(spec, F)
        correction = physical_correction(spec, F)
        expected = np.stack([
            gmres_reference(correction, row, capped.tol, capped.max_iters)[0]
            for row in stencil(step).apply(V)])
        U = V.copy()
        to_basis(U)
        got = stepper.apply(U)
        from_basis(got)
        scale = np.max(np.abs(expected), axis=1, keepdims=True)
        assert np.all(np.abs(got - expected) <= 1e-10 * np.maximum(scale, 1e-300))


def test_modified_gmres_batched_rows_match_single():
    spec = DiscretizationSpec("erk", 3, 0.8, 64, 16)
    st = modified_coarse_stepper(spec, 4, solver="gmres")
    rng = np.random.default_rng(1)
    V = rng.standard_normal((5, 64))
    batched = st.apply(V)
    for i in range(5):
        np.testing.assert_allclose(batched[i], st.apply(V[i]), atol=1e-12)


def test_capped_correction_steps_a_zero_batch_to_zeros():
    # a coarse cycle's first F-relaxation steps the zero error
    spec = DiscretizationSpec("erk", 3, 0.85 * cfl_limit(3), 64, 16)
    capped = modified_coarse_stepper(spec, 16, solver="gmres")._apply_fn
    zeros = np.zeros((3, 64))
    np.testing.assert_array_equal(capped(zeros), zeros)
    out = np.full((3, 64), np.nan)
    assert capped(zeros, out) is out
    np.testing.assert_array_equal(out, zeros)


@pytest.mark.parametrize("p", [3, 4])
def test_capped_correction_in_row_blocks_is_one_kernel_call(p):
    # three blocks and a remainder, stepped and solved block by block into
    # ``out``, are bitwise the whole batch in one kernel call, also when
    # ``out`` is ``u`` itself; odd p runs MINRES, even p GMRES
    spec = DiscretizationSpec("erk", p, 0.85 * cfl_limit(p), 64, 16)
    capped = modified_coarse_stepper(spec, 16, solver="gmres")._apply_fn
    assert capped.krylov is (_minres_spectral if p == 3 else _gmres_batched)
    rows = 3 * circulant._BASIS_BLOCK_ROWS + 5
    u = np.random.default_rng(p).standard_normal((rows, 64))
    to_basis(u)
    whole, _, _, _ = capped.krylov(capped.correction,
                                   basis_multiply(capped.step, u),
                                   capped.tol, capped.max_iters)
    assert capped(u).tobytes() == whole.tobytes()
    out = np.full_like(u, np.nan)
    assert capped(u, out) is out
    assert out.tobytes() == whole.tobytes()
    assert capped(u, u) is u
    assert u.tobytes() == whole.tobytes()


def test_capped_correction_from_threads_holds_one_block():
    # pool tasks of a threaded solve that reach a capped level step and
    # solve one block at a time between them: three concurrent applies to
    # disjoint 130-row groups, which straddle the block edges, give the
    # serial rows bit for bit and trace about the peak of one serial apply,
    # not one block of Krylov storage per thread
    from concurrent.futures import ThreadPoolExecutor

    spec = DiscretizationSpec("erk", 3, 0.85 * cfl_limit(3), 256, 16)
    capped = modified_coarse_stepper(spec, 16, solver="gmres")._apply_fn
    u = np.random.default_rng(3).standard_normal((390, 256))
    to_basis(u)
    groups = [slice(k, k + 130) for k in range(0, 390, 130)]
    serial = [capped(u[group]) for group in groups]
    out = np.full_like(u, np.nan)
    tracemalloc.start()
    try:
        capped(u[groups[0]], out[groups[0]])
        serial_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    out = np.full_like(u, np.nan)
    start = threading.Barrier(len(groups))

    def apply(group):
        start.wait()
        capped(u[group], out[group])

    with ThreadPoolExecutor(len(groups)) as pool:
        tracemalloc.start()
        try:
            list(pool.map(apply, groups))
            threaded_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    for group, rows in zip(groups, serial):
        assert out[group].tobytes() == rows.tobytes()
    assert threaded_peak <= 1.25 * serial_peak


# ------------------------------------------------- rediscretized coarse grids

def test_rediscretized_requires_implicit_family():
    spec = DiscretizationSpec("erk", 1, 0.5, 32, 8)
    with pytest.raises(ValueError):
        rediscretized_coarse_stepper(spec, 2)


def test_rediscretized_unit_factor_matches_fine():
    spec = DiscretizationSpec("sdirk", 1, 1.5, 64, 16)
    fine = mol_stepper(spec)
    coarse = rediscretized_coarse_stepper(spec, 1)
    om = np.linspace(-np.pi, np.pi, 33)
    np.testing.assert_allclose(coarse.symbol(om), fine.symbol(om), atol=1e-13)


def test_rediscretized_symbol_formula():
    c, m = 0.7, 2
    spec = DiscretizationSpec("sdirk", 1, c, 64, 16)
    coarse = rediscretized_coarse_stepper(spec, m)
    om = np.linspace(-np.pi, np.pi, 17)
    expected = 1.0 / (1.0 + m * c * (1 - np.exp(-1j * om)))
    np.testing.assert_allclose(coarse.symbol(om), expected, atol=1e-13)


def test_ideal_stepper_symbol_is_fine_power():
    spec = DiscretizationSpec("sdirk", 2, 1.0, 64, 16)
    fine = mol_stepper(spec)
    ideal = ideal_coarse_stepper(fine, 4)
    om = np.linspace(-np.pi, np.pi, 29)
    np.testing.assert_allclose(ideal.symbol(om), fine.symbol(om) ** 4,
                               atol=1e-12)


def test_plain_sl_coarse_matches_sl():
    spec = DiscretizationSpec("erk", 2, 0.3, 64, 16)
    coarse = plain_sl_coarse_stepper(spec, 8)
    direct = sl_stepper(2, 8 * 0.3, 64)
    om = np.linspace(-np.pi, np.pi, 33)
    np.testing.assert_allclose(coarse.symbol(om), direct.symbol(om), atol=1e-13)


# ------------------------------------------------------- truncation residuals

def test_unit_cfl_explicit_euler_is_exact():
    rep = truncation_residual("erk", 1, 1.0, [32, 64])
    assert max(rep.residual_norms) <= 1e-12


def test_mol_truncation_constant_third_order():
    rep = truncation_residual("erk", 3, 0.8, [24, 32, 48])
    assert rep.fitted_constants[-1] == pytest.approx(rep.predicted_constant,
                                                     rel=0.05)
    expected = -(0.8 * error_constant_fd(3)
                 + (-0.8) ** 4 * rk_error_constant(erk_tableau(3)))
    assert rep.predicted_constant == pytest.approx(expected, rel=1e-12)


def test_sl_truncation_constant_fractional_shift():
    rep = truncation_residual("semi_lagrangian", 1, 1.6, [24, 32, 48])
    assert rep.predicted_constant == pytest.approx(f_poly(1, StencilWindow(1, 0), 0.6),
                                                   rel=1e-12)
    assert rep.fitted_constants[-1] == pytest.approx(rep.predicted_constant,
                                                     rel=0.05)


def test_truncation_remainder_gains_an_order():
    rep = truncation_residual("sdirk", 3, 0.8, [24, 32, 48, 64])
    assert rep.residual_order >= 4 - 0.2        # leading term is order p+1
    assert rep.remainder_order >= 5 - 0.35      # after removing it: order p+2


# ------------------------------------- single-mode fits against the profile
#
# The fits evaluate symbols at the one mesh mode of their profile.  These
# references sample the profile and step it physically instead; they differ
# from the closed forms by the physical path's rounding only.

def profile(n_x, time_shift=0.0):
    """sin(pi x) sampled on the mesh, advected by ``time_shift``."""
    x = -1.0 + 2.0 * np.arange(n_x) / n_x
    return np.sin(np.pi * (x - time_shift))


def physical_truncation_fit(family, p, c, n_x):
    """(K, residual norm, remainder norm) of one step of the sampled
    profile with the stencil of the stepper's eigenvalues, K fitted by
    least squares."""
    op = stencil(fine_stepper(DiscretizationSpec(family, p, c, n_x, 1)))
    u_new = profile(n_x, c * 2.0 / n_x)
    tau = u_new - op.apply(profile(n_x))
    basis = correction_operator(p, n_x).apply(u_new)
    K = float(tau @ basis) / float(basis @ basis)
    scale = math.sqrt(n_x)
    return (K, np.linalg.norm(tau) / scale,
            np.linalg.norm(tau - K * basis) / scale)


def physical_global_error(family, p, c, n_x):
    """RMS error of the sampled profile after the stepper's steps to t ~ 1,
    taken as eigenvalue powers between FFTs."""
    n_t = max(1, round(1.0 / (c * (2.0 / n_x))))
    stepper = fine_stepper(DiscretizationSpec(family, p, c, n_x, n_t))
    u = np.fft.ifft(np.fft.fft(profile(n_x)) * stepper.eigenvalues() ** n_t)
    exact = profile(n_x, n_t * c * 2.0 / n_x)
    return np.linalg.norm(u.real - exact) / math.sqrt(n_x)


def validation_cfl(family, p):
    """CFL numbers of the validation suite's (truncation, global) fits."""
    if family == "erk":
        return 0.7 * cfl_limit(p), 0.7 * cfl_limit(p)
    return (0.8, 0.8) if family == "sdirk" else (1.6, 0.7)


@pytest.mark.parametrize("family", ["erk", "sdirk", "semi_lagrangian"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_single_mode_fits_match_the_physical_profile(family, p):
    c_trunc, c_global = validation_cfl(family, p)
    meshes = [n for n in (24, 32, 48, 64) if n > 4 * p]
    rep = truncation_residual(family, p, c_trunc, meshes)
    physical = np.array([physical_truncation_fit(family, p, c_trunc, n)
                         for n in meshes])
    np.testing.assert_allclose(rep.fitted_constants, physical[:, 0],
                               rtol=1e-5)
    np.testing.assert_allclose(rep.residual_norms, physical[:, 1], rtol=1e-5)
    np.testing.assert_allclose(rep.remainder_norms, physical[:, 2],
                               rtol=1e-5, atol=1e-13)

    meshes = [64, 128, 256, 512]
    _, errors = global_error_order(family, p, c_global, meshes)
    physical = [physical_global_error(family, p, c_global, n) for n in meshes]
    np.testing.assert_allclose(errors, physical, rtol=1e-5, atol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_fd_constant_fit_matches_the_physical_profile(p):
    n_x = 512
    h = 2.0 / n_x
    x = -1.0 + h * np.arange(n_x)
    k = 2.0 * np.pi
    err = (k * np.cos(k * x)
           - upwind_derivative(p, n_x).apply(np.sin(k * x)) / h)
    basis = h ** p * k ** (p + 1) * np.sin(k * x + (p + 1) * np.pi / 2.0)
    physical = float(err @ basis) / float(basis @ basis)
    assert _measured_fd_constant(p, n_x) == pytest.approx(physical, rel=1e-5)
