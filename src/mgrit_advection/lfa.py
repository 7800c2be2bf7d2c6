"""Mode-by-mode two-level convergence analysis on the infinite time grid.

For spatial frequency omega, let lambda(omega) and mu(omega) be the symbols
of the fine and coarse steppers.  The convergence factor of the space-time
mode (omega, theta) under F(CF)^nu relaxation and coarsening factor m is

    |lambda|^(m nu) * |lambda^m - mu| / |1 - exp(-i m theta) mu|,

and its worst case over the low temporal frequencies theta is obtained by
replacing the denominator with 1 - |mu|.  The worst case over omega predicts
the asymptotic two-level convergence factor; a closed-form lower bound along
the characteristic direction theta = -omega*c is available for odd-order
discretizations rediscretized on the coarse grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import SingularOperatorError

#: denominators smaller than this mean the mode is not damped at all
DENOM_TOL = 1e-13


def default_exclusion_count(p: int) -> int:
    """How many near-zero frequencies to drop from worst-case scans.

    The eigenvalues at the smoothest retained modes sit within rounding
    distance of the unit circle, which makes the quotient numerically
    meaningless there; higher-order discretizations need a wider guard band.
    """
    return 2 if p <= 2 else 10


def sample_frequencies(n_samples: int = 2 ** 11,
                       n_excluded: int = 2) -> np.ndarray:
    """Uniform samples of [-pi, pi) with omega = 0 and the ``n_excluded``
    nearest frequencies removed."""
    om = -np.pi + 2.0 * np.pi * np.arange(n_samples) / n_samples
    order = np.argsort(np.abs(om), kind="stable")
    drop = order[: n_excluded + 1]
    keep = np.ones(n_samples, dtype=bool)
    keep[drop] = False
    return om[keep]


def rho_mode(lam: complex, mu: complex, m: int, nu: int, theta: float) -> float:
    """Convergence factor of a single space-time mode (omega, theta)."""
    denom = abs(1.0 - np.exp(-1j * m * theta) * mu)
    if denom <= DENOM_TOL:
        return math.inf
    return float(abs(lam) ** (m * nu) * abs(lam ** m - mu) / denom)


@dataclass
class LfaSweep:
    """Per-mode and worst-case two-level convergence factors."""

    omega: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    rho: np.ndarray
    rho_e: float
    divergent: bool


def rho_two_level(fine_symbol: Callable[[np.ndarray], np.ndarray],
                  coarse_symbol: Callable[[np.ndarray], np.ndarray],
                  m: int, nu: int, n_samples: int = 2 ** 11,
                  n_excluded: int = 2) -> LfaSweep:
    """Worst-case two-level convergence factor over all space-time modes.

    Evaluates |lambda|^(m nu) |lambda^m - mu| / (1 - |mu|) on the retained
    frequency samples.  Samples with |mu| >= 1 are recorded as +inf and mark
    the sweep divergent rather than being clipped.  A factor too large for
    a float, of a fine stepper far past its stability limit, is +inf too,
    without a warning, and does not mark the sweep.
    """
    om = sample_frequencies(n_samples, n_excluded)
    if om.size == 0:
        raise ValueError("all frequency samples were excluded")
    lam = np.asarray(fine_symbol(om), dtype=complex)
    mu = np.asarray(coarse_symbol(om), dtype=complex)
    denom = 1.0 - np.abs(mu)
    unstable = ~(denom > DENOM_TOL)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rho = np.abs(lam) ** (m * nu) * np.abs(lam ** m - mu) / denom
    rho[unstable | np.isnan(rho)] = np.inf  # nan: inf - inf in lambda^m
    return LfaSweep(om, lam, mu, rho, float(np.max(rho)),
                    bool(np.any(unstable)))


def predict_history(fine_symbol: Callable[[np.ndarray], np.ndarray],
                    coarse_symbol: Callable[[np.ndarray], np.ndarray],
                    m: int, nu: int, u_c: np.ndarray,
                    iterations: int) -> list:
    """Residual history of a two-level solve with a direct coarse solve,
    predicted mode by mode on the finite time grid.

    With circulant steppers every spatial frequency omega_k = 2 pi k / n_x
    is its own scalar time problem, with fine and coarse symbols lambda and
    mu there.  ``u_c`` holds the physical C-point rows U_0, U_1, ..., U_Nc
    of the initial iterate (its rows 0, m, 2m, ...; U_0 the initial
    condition).  The opening F-relaxation leaves, in each frequency of their
    real FFTs, the C-point residual r0_j = lambda^m U_{j-1} - U_j for
    j = 1 .. Nc.  A cycle with F(CF)^nu relaxation multiplies it by the
    Nc x Nc lower-triangular Toeplitz matrix E whose generating function is

        e(z) = (lambda^m - mu) lambda^(m nu) z^(1 + nu) / (1 - mu z)

    (Dobrev, Kolev, Petersson & Schroder, SISC 2017), so the residual after
    i cycles is E^i r0, the series of e(z)^i r0(z) truncated to Nc terms.
    Each factor E multiplies the series by (lambda^m - mu) lambda^(m nu)
    z^(1 + nu) and divides it by 1 - mu z, a first-order recurrence in j
    that keeps each entry's rounding relative to that entry.  This is
    semi-algebraic mode analysis (Friedhoff & MacLachlan, NLAA 2015) for
    circulant space operators; it calls no solver kernel and no stepper.

    Returns the l2 norms over all C-points and mesh points after cycles
    1 .. ``iterations``, which are ``SolveReport.residual_norms[1:]``.  By
    Parseval over the orthonormal real FFT, the real modes (k = 0, and
    n_x / 2 for even n_x) weigh 1 and every other mode 2.
    """
    u_c = np.asarray(u_c, dtype=float)
    n_c, n_x = u_c.shape[0] - 1, u_c.shape[1]
    om = 2.0 * np.pi * np.arange(n_x // 2 + 1) / n_x
    lam_m = np.asarray(fine_symbol(om), dtype=complex) ** m
    mu = np.asarray(coarse_symbol(om), dtype=complex)
    U = np.fft.rfft(u_c, axis=-1, norm="ortho")
    r = lam_m * U[:-1] - U[1:]
    weight = np.full(len(om), 2.0)
    weight[[0, -1][: 2 - n_x % 2]] = 1.0

    gain = (lam_m - mu) * lam_m ** nu
    shift = min(1 + nu, n_c)
    norms = []
    for _ in range(iterations):
        e = np.zeros_like(r)
        e[shift:] = gain * r[: n_c - shift]
        for j in range(1, n_c):
            e[j] += mu * e[j - 1]
        r = e
        norms.append(float(np.sqrt(weight @ np.sum(np.abs(r) ** 2, axis=0))))
    return norms


def rho_check(p: int, c: float, m: int, e_rk: float, e_fd: float) -> float:
    """Characteristic-component lower bound for rediscretized coarse grids,
    which reuse the fine grid's tableau and so its error constant ``e_rk``.

        c^p | (e_rk - m^p e_rk) / (e_fd + (mc)^p e_rk) |

    Valid for odd p; grows from O((mc)^p) at small coarse CFL numbers to
    |1 - m^{-p}| as mc tends to infinity.
    """
    if p % 2 != 1:
        raise ValueError(f"the bound requires odd p, got {p}")
    denom = e_fd + (m * c) ** p * e_rk
    if denom == 0.0:
        raise SingularOperatorError("lower-bound denominator vanishes")
    return float(c ** p * abs((e_rk - m ** p * e_rk) / denom))


# ------------------------------------------------- smooth-mode symbol estimates

#: smoothest retained mesh frequencies each symbol estimate is checked on
ESTIMATE_MODES = 4


def _mesh_order(n_x: Sequence[int], values: Sequence[float]) -> float:
    """Order at which ``values`` vanish under mesh refinement: their
    log-log slope against 1 / n_x, which the domain length only shifts."""
    x = np.log(1.0 / np.asarray(n_x, dtype=float))
    return float(np.polyfit(x, np.log(np.asarray(values, dtype=float)), 1)[0])


@dataclass
class EigenvalueEstimateReport:
    """Deviation of exact symbols from their leading-order smooth-mode form."""

    n_x: list
    fine_deviation: list
    ideal_deviation: list
    coarse_deviation: list

    @property
    def fine_order(self) -> float:
        return _mesh_order(self.n_x, self.fine_deviation)

    @property
    def ideal_order(self) -> float:
        return _mesh_order(self.n_x, self.ideal_deviation)

    @property
    def coarse_order(self) -> float:
        return _mesh_order(self.n_x, self.coarse_deviation)


def validate_eigenvalue_estimates(p: int, c: float, m: int,
                                  e_fd: float, e_rk: float,
                                  fine_symbol: Callable,
                                  coarse_symbol: Callable,
                                  n_x_list: Sequence[int]
                                  ) -> EigenvalueEstimateReport:
    """Compare exact symbols with their smooth-mode expansions (odd p).

    The fine symbol should satisfy
        lambda(omega) = exp(-i c omega) [1 + (-1)^((p+1)/2) c (e_fd + c^p e_rk) omega^(p+1) + ...]
    with the m-step and coarse variants obtained by m-fold amplification and
    by the substitution c -> m c, all with the one tableau's constant
    ``e_rk``.  The report records, per mesh, the maximum relative deviation
    of the bracketed correction term over the ``ESTIMATE_MODES`` smoothest
    retained modes; the deviations should shrink at observed order >= 1.
    """
    if p % 2 != 1:
        raise ValueError(f"estimates require odd p, got {p}")
    sign = (-1.0) ** ((p + 1) // 2)
    k_excl = default_exclusion_count(p)
    fine_dev, ideal_dev, coarse_dev = [], [], []
    for n_x in n_x_list:
        j0 = k_excl // 2 + 1
        om = 2.0 * np.pi * np.arange(j0, j0 + ESTIMATE_MODES) / n_x
        lam = np.asarray(fine_symbol(om), dtype=complex)
        mu = np.asarray(coarse_symbol(om), dtype=complex)
        # fine: single step at CFL c
        term_f = sign * c * (e_fd + c ** p * e_rk) * om ** (p + 1)
        dev_f = np.abs(lam * np.exp(1j * om * c) - 1.0 - term_f) / np.abs(term_f)
        # ideal: m steps at CFL c
        term_i = sign * m * c * (e_fd + c ** p * e_rk) * om ** (p + 1)
        dev_i = np.abs(lam ** m * np.exp(1j * om * m * c) - 1.0 - term_i) / np.abs(term_i)
        # coarse: one step at CFL m c
        term_c = sign * m * c * (e_fd + (m * c) ** p * e_rk) * om ** (p + 1)
        dev_c = np.abs(mu * np.exp(1j * om * m * c) - 1.0 - term_c) / np.abs(term_c)
        fine_dev.append(float(np.max(dev_f)))
        ideal_dev.append(float(np.max(dev_i)))
        coarse_dev.append(float(np.max(dev_c)))
    return EigenvalueEstimateReport(list(n_x_list), fine_dev, ideal_dev,
                                    coarse_dev)
