"""Stencil generation against exact-rational and monomial-exactness oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mgrit_advection import (StencilWindow, error_constant_fd, f_poly,
                             fd_weights, high_derivative_operator,
                             lagrange_weights, upwind_derivative)


def exact_weights(d, offsets, eval_point):
    """Independent weight oracle in exact rational arithmetic."""
    n = len(offsets)
    rows = [[Fraction(int(o)) ** k for o in offsets] for k in range(n)]
    rhs = [Fraction(0)] * n
    e = Fraction(eval_point)
    for k in range(d, n):
        rhs[k] = (Fraction(math.factorial(k), math.factorial(k - d))
                  * e ** (k - d))
    # Gaussian elimination over the rationals
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


# ----------------------------------------------------------------- fd_weights

def test_two_point_backward_difference():
    np.testing.assert_allclose(fd_weights(1, [-1, 0]), [-1.0, 1.0], atol=1e-14)


def test_linear_interpolation_weights():
    eps = 0.3
    np.testing.assert_allclose(fd_weights(0, [-1, 0], -eps), [eps, 1 - eps],
                               atol=1e-14)


def test_third_order_upwind_weights():
    # exactness on monomials x^0..x^3 pins these uniquely
    w = fd_weights(1, [-2, -1, 0, 1])
    np.testing.assert_allclose(w, [1 / 6, -1.0, 1 / 2, 1 / 3], atol=1e-13)


@pytest.mark.parametrize("d,offsets,eval_point", [
    (1, (-2, -1, 0, 1), 0),
    (2, (-1, 0, 1), 0),
    (0, (-3, -2, -1, 0), Fraction(-1, 4)),
    (3, (-2, -1, 0, 1), 0),
    (1, (-3, -2, -1, 0, 1, 2), Fraction(1, 2)),
])
def test_weights_match_rational_oracle(d, offsets, eval_point):
    w = fd_weights(d, offsets, float(eval_point))
    exact = [float(x) for x in exact_weights(d, offsets, eval_point)]
    np.testing.assert_allclose(w, exact, atol=1e-12)


@pytest.mark.parametrize("d,offsets", [(1, (-1, 0, 1)), (2, (-2, -1, 0, 1, 2))])
def test_weights_exact_on_monomials(d, offsets):
    # at eval point 0 the d-th derivative of z^k is d! for k = d, else 0
    w = fd_weights(d, offsets)
    for k in range(len(offsets)):
        total = sum(wj * oj ** k for wj, oj in zip(w, offsets))
        expected = float(math.factorial(d)) if k == d else 0.0
        assert total == pytest.approx(expected, abs=1e-11)


def test_repeated_offsets_rejected():
    with pytest.raises(ValueError):
        fd_weights(1, [-1, -1, 0])


def test_too_few_offsets_rejected():
    with pytest.raises(ValueError):
        fd_weights(2, [-1, 0])


# -------------------------------------------------------------------- windows

@pytest.mark.parametrize("p,ell,r", [(1, 1, 0), (2, 2, 0), (3, 2, 1),
                                     (4, 3, 1), (5, 3, 2)])
def test_upwind_window_bias(p, ell, r):
    win = StencilWindow.upwind(p)
    assert (win.ell, win.r) == (ell, r)
    assert win.ell + win.r == p


def test_interpolation_window_recenters_for_even_order():
    assert StencilWindow.interpolation(2, 0.2) == StencilWindow(1, 1)
    assert StencilWindow.interpolation(2, 0.8) == StencilWindow(2, 0)
    # the tie goes to the east-neighbor branch
    assert StencilWindow.interpolation(2, 0.5) == StencilWindow(1, 1)
    assert StencilWindow.interpolation(3, 0.2) == StencilWindow(2, 1)
    assert StencilWindow.interpolation(3, 0.9) == StencilWindow(2, 1)


# ---------------------------------------------------------- upwind derivative

def test_first_order_upwind_stencil():
    op = upwind_derivative(1, 16)
    assert list(op.offsets) == [-1, 0]
    np.testing.assert_allclose(op.weights, [-1.0, 1.0], atol=1e-14)


def test_upwind_rejects_tiny_mesh():
    with pytest.raises(ValueError):
        upwind_derivative(3, 4)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_upwind_derivative_order(p):
    meshes = [64, 128, 256, 512]
    errors = []
    for n_x in meshes:
        h = 2.0 / n_x
        x = -1.0 + h * np.arange(n_x)
        v = np.sin(2 * np.pi * x)
        exact = 2 * np.pi * np.cos(2 * np.pi * x)
        approx = upwind_derivative(p, n_x).apply(v) / h
        errors.append(np.linalg.norm(approx - exact) / np.sqrt(n_x))
    slope = np.polyfit(np.log([2.0 / n for n in meshes]), np.log(errors), 1)[0]
    assert slope == pytest.approx(p, abs=0.1)


def test_derivative_stencils_annihilate_constants():
    for p in range(1, 6):
        op = upwind_derivative(p, 32)
        assert abs(op.weights.sum()) < 1e-13
    for d in (2, 3, 4, 5):
        op = high_derivative_operator(d, 32)
        assert abs(op.weights.sum()) < 1e-13


# ------------------------------------------------------------ error constants

@pytest.mark.parametrize("p,value", [
    (1, 0.5), (2, 1 / 3), (3, -1 / 12), (4, -0.05), (5, 1 / 60)])
def test_error_constant_closed_form(p, value):
    assert error_constant_fd(p) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_error_constant_matches_measurement(p):
    # fit the leading coefficient of (v' - L_p v / h) against h^p v^(p+1)
    n_x = 512
    h = 2.0 / n_x
    x = -1.0 + h * np.arange(n_x)
    k = 2 * np.pi
    v = np.sin(k * x)
    err = k * np.cos(k * x) - upwind_derivative(p, n_x).apply(v) / h
    basis = h ** p * k ** (p + 1) * np.sin(k * x + (p + 1) * np.pi / 2)
    fitted = float(err @ basis) / float(basis @ basis)
    assert fitted == pytest.approx(error_constant_fd(p), rel=0.02)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_leading_error_subtraction_gains_an_order(p):
    # subtracting the modeled leading term leaves a residual of order >= p+1
    d = p + 1
    meshes = [64, 128, 256, 512]
    residuals = []
    for n_x in meshes:
        h = 2.0 / n_x
        x = -1.0 + h * np.arange(n_x)
        v = np.sin(2 * np.pi * x)
        exact = 2 * np.pi * np.cos(2 * np.pi * x)
        D = high_derivative_operator(d, n_x)
        model = error_constant_fd(p) * D.apply(v) / h
        resid = exact - upwind_derivative(p, n_x).apply(v) / h - model
        residuals.append(np.linalg.norm(resid) / np.sqrt(n_x))
    slope = np.polyfit(np.log([2.0 / n for n in meshes]), np.log(residuals), 1)[0]
    assert slope >= p + 1 - 0.15


# ---------------------------------------------------- high-derivative operator

def test_standard_second_difference():
    op = high_derivative_operator(2, 16)
    assert list(op.offsets) == [-1, 0, 1]
    np.testing.assert_allclose(op.weights, [1.0, -2.0, 1.0], atol=1e-13)


def test_fourth_difference_stencil():
    op = high_derivative_operator(4, 16)
    assert list(op.offsets) == [-2, -1, 0, 1, 2]
    np.testing.assert_allclose(op.weights, [1.0, -4.0, 6.0, -4.0, 1.0],
                               atol=1e-12)


def test_left_biased_third_difference():
    op = high_derivative_operator(3, 16)
    assert list(op.offsets) == [-2, -1, 0, 1]
    np.testing.assert_allclose(op.weights, [-1.0, 3.0, -3.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_symmetric_weights_are_exactly_symmetric(d):
    op = high_derivative_operator(d, 32)
    np.testing.assert_array_equal(op.offsets, -op.offsets[::-1])
    np.testing.assert_array_equal(op.weights, op.weights[::-1])
    assert op.is_symmetric()


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_correction_window_is_the_correction_stencil(p):
    from mgrit_advection.stepping import correction_operator, correction_window
    win = correction_window(p)
    np.testing.assert_array_equal(correction_operator(p, 64).offsets,
                                  win.offsets)
    with pytest.raises(ValueError):
        correction_operator(p, 2 * max(win.ell, win.r))


# correction_operator(p, 64), weights written as the repr of their floats:
# the centred stencils of odd p and the left-biased ones of even p
PINNED_CORRECTION_STENCILS = {
    1: ([-1, 0, 1], [1.0, -2.0, 1.0]),
    2: ([-2, -1, 0, 1], [-1.0, 3.0, -3.0, 1.0]),
    3: ([-2, -1, 0, 1, 2],
        [1.0, -3.9999999999999996, 5.999999999999999, -3.9999999999999996,
         1.0]),
    4: ([-3, -2, -1, 0, 1, 2],
        [-0.9999999999999999, 5.0, -10.000000000000004, 10.000000000000005,
         -5.0000000000000036, 1.0000000000000007]),
    5: ([-3, -2, -1, 0, 1, 2, 3],
        [1.0, -6.000000000000002, 14.999999999999996, -19.999999999999993,
         14.999999999999996, -6.000000000000002, 1.0]),
}


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_correction_stencil_is_fixed_by_its_order(p):
    # the parity of d = p + 1 alone picks the window, and the weights are
    # bit for bit those of the named symmetric/left-biased variants
    from mgrit_advection.stepping import correction_operator
    op = correction_operator(p, 64)
    offsets, weights = PINNED_CORRECTION_STENCILS[p]
    assert op.offsets.tolist() == offsets
    assert op.weights.dtype == np.float64
    assert op.weights.tolist() == weights


def test_high_derivative_rejects_order_below_one():
    with pytest.raises(ValueError, match="derivative order must be >= 1"):
        high_derivative_operator(0, 16)


def _order_and_window(d):
    """Order and window that the parity of d picks: even d is centred and
    second order, odd d is left-biased and first order."""
    return (2, "symmetric") if d % 2 == 0 else (1, "left_biased")


@pytest.mark.parametrize("d", [2, 3, 4, 5],
                         ids=lambda d: "{}-{}-{}".format(d, *_order_and_window(d)))
def test_high_derivative_observed_order(d):
    s, _ = _order_and_window(d)
    meshes = [64, 128, 256, 512]
    errors = []
    for n_x in meshes:
        h = 2.0 / n_x
        x = -1.0 + h * np.arange(n_x)
        v = np.sin(2 * np.pi * x)
        exact = (2 * np.pi) ** d * np.sin(2 * np.pi * x + d * np.pi / 2)
        approx = high_derivative_operator(d, n_x).apply(v) / h ** d
        errors.append(np.linalg.norm(approx - exact) / np.sqrt(n_x))
    slope = np.polyfit(np.log([2.0 / n for n in meshes]), np.log(errors), 1)[0]
    assert slope == pytest.approx(s, abs=0.15)


# --------------------------------------------------------------------- f_poly

def test_f_poly_first_order_values():
    win = StencilWindow(1, 0)
    assert f_poly(1, win, 0.6) == pytest.approx(-0.12, abs=1e-14)
    assert f_poly(1, win, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert f_poly(1, win, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert f_poly(1, win, 0.5) == pytest.approx(-0.125, abs=1e-14)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_f_poly_vanishes_on_window(p):
    win = StencilWindow.interpolation(p, 0.3)
    for j in range(-win.r, win.ell + 1):
        assert f_poly(p, win, float(j)) == pytest.approx(0.0, abs=1e-13)


def test_f_poly_window_size_checked():
    with pytest.raises(ValueError):
        f_poly(2, StencilWindow(1, 0), 0.5)


# ----------------------------------------------------------- lagrange weights

def test_linear_interpolation_stencil():
    win = StencilWindow(1, 0)
    for eps in (0.1, 0.5, 0.9):
        np.testing.assert_allclose(lagrange_weights(win, eps), [eps, 1 - eps],
                                   atol=1e-14)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_on_grid_departure_is_identity(p):
    win = StencilWindow.interpolation(p, 0.0)
    w = lagrange_weights(win, 0.0)
    expected = np.zeros(win.size)
    expected[win.ell] = 1.0
    np.testing.assert_allclose(w, expected, atol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_interpolation_reproduces_polynomials(p):
    win = StencilWindow.interpolation(p, 0.37)
    w = lagrange_weights(win, 0.37)
    assert w.sum() == pytest.approx(1.0, abs=1e-13)
    for degree in range(p + 1):
        val = sum(wj * float(j) ** degree
                  for wj, j in zip(w, win.offsets))
        assert val == pytest.approx((-0.37) ** degree, abs=1e-12)
