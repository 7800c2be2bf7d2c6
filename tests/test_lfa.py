"""Two-level mode analysis: per-mode factors, worst-case sweeps, the
finite-grid residual prediction, the characteristic lower bound, and
smooth-mode symbol estimates."""

import math
import sys
import warnings

import numpy as np
import pytest

from mgrit_advection import (DiscretizationSpec, MgritConfig,
                             StabilityWarning, default_exclusion_count,
                             erk_tableau, error_constant_fd,
                             ideal_coarse_stepper, modified_coarse_stepper,
                             mol_stepper,
                             predict_history, rediscretized_coarse_stepper,
                             rho_check, rho_mode, rho_two_level,
                             rk_error_constant, sdirk_tableau,
                             validate_eigenvalue_estimates)
from mgrit_advection.experiments import lfa_sweep, measured_point
from mgrit_advection.lfa import sample_frequencies


def sdirk_symbols(p, c, m):
    spec = DiscretizationSpec("sdirk", p, c, 64, 64)
    fine = mol_stepper(spec)
    coarse = rediscretized_coarse_stepper(spec, m)
    return fine.symbol, coarse.symbol


# ------------------------------------------------------------------- rho_mode

def test_rho_mode_ideal_coarse_symbol_is_zero():
    lam = 0.95 * np.exp(0.3j)
    for theta in (-0.5, 0.0, 0.2):
        assert rho_mode(lam, lam ** 4, 4, 1, theta) == pytest.approx(0.0)


def test_rho_mode_unit_fine_no_coarse():
    assert rho_mode(1.0, 0.0, 2, 0, 0.7) == pytest.approx(1.0)


def test_rho_mode_hand_value():
    # 0.9^2 * |0.81 - 0.5| / |1 - 0.5| with m=2, nu=1, theta=0
    assert rho_mode(0.9, 0.5, 2, 1, 0.0) == pytest.approx(0.5022, abs=1e-12)


def test_rho_mode_near_singular_denominator_is_flagged():
    assert rho_mode(0.9, 1.0, 2, 0, 0.0) == math.inf


# -------------------------------------------------------------- rho_two_level

def test_frequency_sampling_excludes_near_zero():
    om = sample_frequencies(16, 2)
    assert 0.0 not in om
    assert len(om) == 13
    assert np.min(np.abs(om)) == pytest.approx(2 * (2 * np.pi / 16))


def test_ideal_coarse_symbol_gives_zero_factor():
    lam_fn, _ = sdirk_symbols(1, 1.0, 2)
    sweep = rho_two_level(lam_fn, lambda om: lam_fn(om) ** 2, 2, 1)
    assert sweep.rho_e == pytest.approx(0.0, abs=1e-10)
    assert not sweep.divergent


# ------------------------------------------------------ finite-grid prediction

@pytest.mark.parametrize("nu", [0, 1])
def test_predict_history_hand_unrolled(nu):
    # n_x = 2 has the two real modes omega = 0 and pi, each weighed 1;
    # N_c = 3 and m = 2, so E is 3 x 3 with a = (lambda^2 - mu) lambda^(2 nu)
    # on its (1 + nu)-th subdiagonal and a mu below
    lam, mu = (0.9, -0.6), (0.7, -0.3)
    u_c = np.random.default_rng(nu).standard_normal((4, 2))
    modes = np.stack([u_c[:, 0] + u_c[:, 1], u_c[:, 0] - u_c[:, 1]],
                     axis=1) / np.sqrt(2.0)
    squares = np.zeros(2)
    for k in (0, 1):
        l2, mk, U = lam[k] ** 2, mu[k], modes[:, k]
        r = [l2 * U[j - 1] - U[j] for j in (1, 2, 3)]  # r0_1, r0_2, r0_3
        if nu == 0:
            a = l2 - mk
            once = [0.0, a * r[0], a * (r[1] + mk * r[0])]
            twice = [0.0, 0.0, a * a * r[0]]
        else:
            a = (l2 - mk) * l2
            once = [0.0, 0.0, a * r[0]]
            twice = [0.0, 0.0, 0.0]
        squares += [sum(x * x for x in once), sum(x * x for x in twice)]
    predicted = predict_history(lambda om: 0.15 + 0.75 * np.cos(om),
                                lambda om: 0.2 + 0.5 * np.cos(om), 2, nu, u_c,
                                2)
    np.testing.assert_allclose(predicted, np.sqrt(squares), rtol=1e-14,
                               atol=0.0)


@pytest.mark.parametrize("nu", [0, 1, 2])
@pytest.mark.parametrize("n_x", [63, 64])
def test_predict_history_ideal_coarse_symbol_is_exact_after_one_cycle(nu, n_x):
    # mu = lambda^m makes E zero: one cycle reaches the exact solution
    fine = mol_stepper(DiscretizationSpec("sdirk", 3, 5.0, n_x, 64))
    ideal = ideal_coarse_stepper(fine, 4)
    u_c = np.random.default_rng(n_x).random((17, n_x))
    predicted = predict_history(fine.symbol, ideal.symbol, 4, nu, u_c, 3)
    assert predicted == [0.0, 0.0, 0.0]


def test_theta_maximum_matches_discrete_scan():
    # the closed-form denominator 1 - |mu| equals the worst theta sample
    lam_fn, mu_fn = sdirk_symbols(1, 1.0, 2)
    m, nu = 2, 1
    sweep = rho_two_level(lam_fn, mu_fn, m, nu, n_samples=256, n_excluded=2)
    thetas = -np.pi / m + np.pi / m * 2 * np.arange(256) / 256
    for idx in (3, 40, 100, 127):
        om = sweep.omega[idx]
        lam, mu = sweep.lam[idx], sweep.mu[idx]
        if abs(mu) > 0.9:
            continue
        scanned = max(rho_mode(lam, mu, m, nu, th) for th in thetas)
        assert scanned == pytest.approx(sweep.rho[idx], rel=0.01)


def test_sweep_symmetric_under_frequency_reflection():
    lam_fn, mu_fn = sdirk_symbols(3, 2.0, 4)
    sweep = rho_two_level(lam_fn, mu_fn, 4, 1, n_samples=512, n_excluded=10)
    rho = {round(om, 12): r for om, r in zip(sweep.omega, sweep.rho)}
    for om, r in rho.items():
        if -om in rho:
            assert r == pytest.approx(rho[-om], rel=1e-9)


def test_divergent_samples_reported_not_clipped():
    lam_fn, _ = sdirk_symbols(1, 1.0, 2)
    sweep = rho_two_level(lam_fn, lambda om: np.ones_like(om, dtype=complex),
                          2, 0)
    assert sweep.divergent
    assert sweep.rho_e == math.inf


def test_default_exclusion_policy():
    assert default_exclusion_count(1) == 2
    assert default_exclusion_count(2) == 2
    assert default_exclusion_count(3) == 10
    assert default_exclusion_count(5) == 10


# ------------------------------------------------------------------ rho_check

def test_rho_check_hand_value():
    # same method both grids: 4 * |0.5 - 1.0| / |0.5 + 4.0|
    assert rho_check(1, 4.0, 2, 0.5, 0.5) == pytest.approx(4.0 / 9.0,
                                                           abs=1e-12)


def test_rho_check_large_coarse_cfl_asymptote():
    for p, m in ((1, 2), (1, 16), (3, 2), (3, 16)):
        e_rk = rk_error_constant(sdirk_tableau(p))
        e_fd = error_constant_fd(p)
        c = 1e3 / m
        value = rho_check(p, c, m, e_rk, e_fd)
        assert value == pytest.approx(abs(1 - m ** (-p)), rel=0.02)


def test_rho_check_small_coarse_cfl_scaling():
    p, m = 1, 4
    e_rk = rk_error_constant(sdirk_tableau(p))
    e_fd = error_constant_fd(p)
    ratios = [rho_check(p, c, m, e_rk, e_fd) / (m * c) ** p
              for c in (1e-3, 1e-4, 1e-5)]
    assert max(ratios) < 10 * min(ratios)  # bounded as c -> 0


def test_rho_check_requires_odd_order():
    with pytest.raises(ValueError):
        rho_check(2, 1.0, 2, 0.1, 0.3)


# ---------------------------------------------------------------- lower bound

@pytest.mark.parametrize("m", [2, 16])
def test_lower_bound_holds_for_first_order_implicit(m):
    e_rk = rk_error_constant(sdirk_tableau(1))
    e_fd = error_constant_fd(1)
    for c in np.linspace(0.25, 8.0, 16):
        lam_fn, mu_fn = sdirk_symbols(1, float(c), m)
        sweep = rho_two_level(lam_fn, mu_fn, m, 1, n_excluded=2)
        bound = rho_check(1, float(c), m, e_rk, e_fd)
        assert sweep.rho_e >= 0.95 * bound


def test_lower_bound_tight_for_small_coarse_cfl():
    m = 2
    e_rk = rk_error_constant(sdirk_tableau(1))
    e_fd = error_constant_fd(1)
    for c in (0.05, 0.2, 0.4):
        if m * c >= 1:
            continue
        lam_fn, mu_fn = sdirk_symbols(1, c, m)
        sweep = rho_two_level(lam_fn, mu_fn, m, 1, n_excluded=2)
        bound = rho_check(1, c, m, e_rk, e_fd)
        assert bound >= 0.9 * sweep.rho_e


def test_characteristic_mode_is_relaxation_independent():
    lam_fn, mu_fn = sdirk_symbols(1, 2.0, 4)
    om = 2.0 * np.pi * 2 / 2 ** 11
    lam = complex(lam_fn(np.array([om]))[0])
    mu = complex(mu_fn(np.array([om]))[0])
    values = [rho_mode(lam, mu, 4, nu, -om * 2.0) for nu in (0, 1, 2)]
    assert max(values) - min(values) <= 0.01 * max(values)


def test_divergent_region_third_order_rediscretized():
    # large coarse CFL numbers make the third-order rediscretized pair diverge
    lam_fn, mu_fn = sdirk_symbols(3, 5.0, 16)
    sweep = rho_two_level(lam_fn, mu_fn, 16, 1, n_excluded=10)
    assert sweep.rho_e > 1.0


# ------------------------------------------------------- eigenvalue estimates

def _mol_symbol(family, p, c):
    def fn(om):
        spec = DiscretizationSpec(family, p, c, 64, 64)
        return mol_stepper(spec).symbol(om)
    return fn


@pytest.mark.parametrize("family,p,c,m", [
    ("erk", 1, 0.5, 4), ("sdirk", 1, 1.0, 4), ("sdirk", 3, 1.0, 2)])
def test_eigenvalue_estimates_converge(family, p, c, m):
    tab = erk_tableau(p) if family == "erk" else sdirk_tableau(p)
    e_rk = rk_error_constant(tab)
    report = validate_eigenvalue_estimates(
        p, c, m, error_constant_fd(p), e_rk,
        _mol_symbol(family, p, c), _mol_symbol(family, p, m * c),
        n_x_list=[1024, 2048, 4096, 8192])
    fit_tol = 0.1
    assert report.fine_order >= 1.0 - fit_tol
    assert report.ideal_order >= 1.0 - fit_tol
    assert report.coarse_order >= 1.0 - fit_tol
    assert report.fine_deviation[-1] < report.fine_deviation[0]


def test_ideal_estimate_reduces_to_fine_at_unit_factor():
    # with m = 1 the m-step and single-step expansions coincide
    p, c = 1, 0.5
    e_rk = rk_error_constant(erk_tableau(1))
    fn = _mol_symbol("erk", p, c)
    report = validate_eigenvalue_estimates(
        p, c, 1, error_constant_fd(p), e_rk, fn, fn,
        n_x_list=[256, 512])
    np.testing.assert_allclose(report.fine_deviation, report.ideal_deviation,
                               rtol=1e-12)
    np.testing.assert_allclose(report.fine_deviation, report.coarse_deviation,
                               rtol=1e-12)


def test_estimates_require_odd_order():
    with pytest.raises(ValueError):
        validate_eigenvalue_estimates(2, 0.5, 2, 0.3, 0.1,
                                      lambda om: om, lambda om: om, [64])


# -------------------------------------------- relaxation monotonicity (nu)

@pytest.mark.parametrize("family,p,c,m", [
    ("erk", 1, 0.6, 4), ("erk", 3, 1.0, 8), ("sdirk", 3, 5.0, 16)])
def test_extra_relaxation_never_hurts_modified_operator(family, p, c, m):
    spec = DiscretizationSpec(family, p, c, 64, 64)
    fine = mol_stepper(spec)
    coarse = modified_coarse_stepper(spec, m)
    k = default_exclusion_count(p)
    rho_f = rho_two_level(fine.symbol, coarse.symbol, m, 0, n_excluded=k).rho_e
    rho_fcf = rho_two_level(fine.symbol, coarse.symbol, m, 1, n_excluded=k).rho_e
    assert rho_fcf <= rho_f + 1e-12


def test_threaded_sweep_matches_serial_and_keeps_warning_filters():
    # the workers' catch_warnings blocks interleave and can leave an extra
    # "ignore" filter behind; the sweep must restore the caller's filters
    c_values = [0.5, 1.2, 1.8, 2.5] * 8  # ERK3 c_max is 1.63
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            before = list(warnings.filters)
            serial = lfa_sweep("erk", 3, "modified", c_values, [2, 4],
                               n_samples=64)
            threaded = lfa_sweep("erk", 3, "modified", c_values, [2, 4],
                                 n_samples=64, threads=4)
            assert warnings.filters == before
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_threaded_sweep_emits_no_stability_warnings():
    # a per-worker catch_warnings block could lift another worker's filter
    # mid-sweep and let a past-c_max point warn; the sweep filters once
    c_values = [0.5, 1.2, 1.8, 2.5] * 4  # ERK3 c_max is 1.63
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(8):
                lfa_sweep("erk", 3, "modified", c_values, [2, 4],
                          n_samples=256, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert not [w for w in caught if issubclass(w.category, StabilityWarning)]


def test_measured_sweep_point_relaxes_with_the_sweeps_nu():
    # nu sets the measured solve too: a configuration's own nu must not
    # measure another relaxation than the prediction uses
    point, = lfa_sweep("sdirk", 3, "modified", [5.0], [4], MgritConfig(nu=2),
                       measure_grid=(64, 256))
    direct = measured_point("sdirk", 3, "modified", 5.0, 4, 64, 256,
                            MgritConfig(nu=2))
    assert point.measured_iters == direct.iterations
    assert point.rho_measured == direct.effective_rho


@pytest.mark.parametrize("p", [1, 2, 3])
def test_sweep_bounds_exactly_the_odd_rediscretized_points(p):
    c = 1.5
    redisc, = lfa_sweep("sdirk", p, "rediscretized", [c], [4], n_samples=64)
    modified, = lfa_sweep("sdirk", p, "modified", [c], [4], n_samples=64)
    assert modified.rho_bound is None
    if p % 2 == 0:
        assert redisc.rho_bound is None
    else:
        e_rk = rk_error_constant(sdirk_tableau(p))
        assert redisc.rho_bound == rho_check(p, c, 4, e_rk,
                                             error_constant_fd(p))
