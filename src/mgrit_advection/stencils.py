"""Finite-difference and interpolation stencil generation.

Everything here reduces to one primitive: the weights of the derivative (or
value) of a polynomial interpolant on an integer offset window.  On top of it
sit the upwind first-derivative operators, the high-order difference operators
used for truncation-error corrections, and the semi-Lagrangian interpolation
weights, together with their leading-error constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circulant import CirculantOperator


def fd_weights(derivative_order: int, offsets, eval_point: float = 0.0) -> np.ndarray:
    """Weights w_j with sum_j w_j v(x + j h) = h^d * d-th derivative at x + eval_point*h.

    The weights come from differentiating the interpolating polynomial through
    the offsets, so they are exact on polynomials of degree < len(offsets).
    """
    d = int(derivative_order)
    if d < 0:
        raise ValueError(f"derivative order must be >= 0, got {d}")
    off = np.asarray(offsets, dtype=float)
    if off.ndim != 1 or len(off) < d + 1:
        raise ValueError(f"need at least {d + 1} offsets for derivative order {d}")
    ordered = np.sort(off)  # np.unique would import numpy.ma
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("offsets must be distinct")
    n = len(off)
    # moment conditions: sum_j w_j off_j^k = (d-th derivative of z^k)(eval_point)
    V = np.vander(off, n, increasing=True).T
    rhs = np.zeros(n)
    for k in range(d, n):
        rhs[k] = (math.factorial(k) // math.factorial(k - d)) * eval_point ** (k - d)
    return np.linalg.solve(V, rhs)


@dataclass(frozen=True)
class StencilWindow:
    """Offset window {-ell, ..., r} around a reference mesh point."""

    ell: int
    r: int

    def __post_init__(self):
        if self.ell < 0 or self.r < 0:
            raise ValueError(f"window extents must be nonnegative: {self}")

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(-self.ell, self.r + 1)

    @property
    def size(self) -> int:
        return self.ell + self.r + 1

    @classmethod
    def upwind(cls, p: int) -> "StencilWindow":
        """Window of the p-th order upwind first-derivative stencil.

        Odd p carries a one-point bias to the left, even p a two-point bias;
        both use p + 1 points.
        """
        if p < 1:
            raise ValueError(f"order must be >= 1, got {p}")
        ell = (p + 1) // 2 if p % 2 == 1 else p // 2 + 1
        return cls(ell, p - ell)

    @classmethod
    def interpolation(cls, p: int, eps: float) -> "StencilWindow":
        """Window of the p+1 mesh points nearest a departure point.

        The departure point sits a fraction ``eps`` in [0, 1) west of the
        reference (east-neighbor) point.  For odd p the nearest p+1 points
        are fixed; for even p they re-center on the nearer interval endpoint,
        with the tie eps = 1/2 resolved toward the east neighbor.
        """
        if not 0.0 <= eps < 1.0:
            raise ValueError(f"eps must be in [0, 1), got {eps}")
        if p % 2 == 1:
            return cls((p + 1) // 2, (p - 1) // 2)
        if eps > 0.5:
            return cls(p // 2 + 1, p // 2 - 1)
        return cls(p // 2, p // 2)

    @classmethod
    def high_derivative(cls, d: int) -> "StencilWindow":
        """Window of the minimal-width d-th difference stencil on d + 1
        points, fixed by the parity of d: centred for even d, with the extra
        point west for odd d."""
        return cls(d // 2 + d % 2, d // 2)


def upwind_derivative(p: int, n_x: int) -> CirculantOperator:
    """The operator L_p: L_p/h approximates d/dx at order p on the periodic mesh.
    No stencil of an order-p run is wider, so its mesh floor is every run's."""
    win = StencilWindow.upwind(p)
    if n_x <= 2 * win.ell:
        raise ValueError(f"n_x = {n_x} too small for the order-{p} stencil; "
                         f"need n_x >= {2 * win.ell + 1}")
    w = fd_weights(1, win.offsets, 0.0)
    return CirculantOperator.from_arrays(n_x, win.offsets, w)


def error_constant_fd(p: int) -> float:
    """Leading error constant of the order-p upwind derivative.

    With window extents ell, r the constant is
    (-1)^r * ell! * r! / (p + 1)!.
    """
    win = StencilWindow.upwind(p)
    return ((-1) ** win.r * math.factorial(win.ell) * math.factorial(win.r)
            / math.factorial(p + 1))


def high_derivative_operator(d: int, n_x: int) -> CirculantOperator:
    """The operator D such that D/h^d approximates the d-th derivative, on
    the d + 1 points of ``StencilWindow.high_derivative(d)``.

    Even d is centred and second order (it gains one order from symmetry);
    its weights are exactly symmetric.  Odd d is first order.
    """
    if d < 1:
        raise ValueError(f"derivative order must be >= 1, got {d}")
    win = StencilWindow.high_derivative(d)
    if n_x <= 2 * max(win.ell, win.r):
        raise ValueError(f"n_x = {n_x} too small for the stencil window {win}")
    w = fd_weights(d, win.offsets, 0.0)
    if d % 2 == 0:
        # the centred weights are symmetric; averaging each pair removes the
        # rounding of the moment solve, so the operator is exactly symmetric
        w = 0.5 * (w + w[::-1])
    return CirculantOperator.from_arrays(n_x, win.offsets, w)


def f_poly(p: int, window: StencilWindow, z: float) -> float:
    """Interpolation error polynomial (1/(p+1)!) * prod_{j=-ell}^{r} (j + z).

    Vanishes whenever the evaluation point -z lands on a window offset.
    """
    if window.ell + window.r != p:
        raise ValueError(
            f"window {window} has {window.size} points, expected {p + 1}")
    acc = 1.0
    for j in range(-window.ell, window.r + 1):
        acc *= j + z
    return acc / math.factorial(p + 1)


def lagrange_weights(window: StencilWindow, eps: float) -> np.ndarray:
    """Polynomial interpolation weights at the departure offset -eps.

    Returned in window-offset order (-ell, ..., r); the weights sum to one.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    return fd_weights(0, window.offsets, -eps)
