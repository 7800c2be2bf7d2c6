"""Circulant operator algebra against dense-matrix and symbol-calculus oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mgrit_advection import CirculantOperator, DimensionMismatchError
from mgrit_advection.circulant import (_gmres_batched, _minres_spectral,
                                       basis_diagonal, basis_multiply,
                                       from_basis, to_basis)
from mgrit_advection.stepping import correction_operator


def random_operator(rng, n_x, n_offsets=4, complex_weights=False):
    offsets = rng.choice(np.arange(-(n_x // 2), n_x // 2), size=n_offsets,
                         replace=False)
    weights = rng.standard_normal(n_offsets)
    if complex_weights:
        weights = weights + 1j * rng.standard_normal(n_offsets)
    return CirculantOperator.from_arrays(n_x, offsets, weights)


# --------------------------------------------------------------------- apply

def test_identity_apply():
    op = CirculantOperator.identity(5)
    v = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    np.testing.assert_array_equal(op.apply(v), v)


def test_cyclic_shift_apply():
    op = CirculantOperator(4, [(-1, 1.0)])
    np.testing.assert_allclose(op.apply([1.0, 2.0, 3.0, 4.0]), [4.0, 1.0, 2.0, 3.0])


def test_first_difference_annihilates_constants():
    op = CirculantOperator(16, [(0, 1.0), (-1, -1.0)])
    np.testing.assert_allclose(op.apply(np.full(16, 7.5)), np.zeros(16),
                               atol=1e-14)


def test_apply_rejects_wrong_length():
    op = CirculantOperator.identity(8)
    with pytest.raises(DimensionMismatchError):
        op.apply(np.ones(7))


@pytest.mark.parametrize("n_x", [5, 8, 17, 32])
def test_apply_matches_dense_oracle(n_x):
    rng = np.random.default_rng(n_x)
    op = random_operator(rng, n_x)
    M = op.dense()
    for _ in range(3):
        v = rng.standard_normal(n_x)
        np.testing.assert_allclose(op.apply(v), M @ v, atol=1e-10)


def test_batched_apply_matches_loop():
    rng = np.random.default_rng(3)
    op = random_operator(rng, 12)
    V = rng.standard_normal((7, 12))
    batched = op.apply(V)
    for i in range(7):
        np.testing.assert_allclose(batched[i], op.apply(V[i]), atol=1e-13)


def test_wide_stencil_fft_apply_matches_dense():
    rng = np.random.default_rng(11)
    n_x = 32
    offsets = np.arange(-14, 14)
    weights = rng.standard_normal(len(offsets)) * np.exp(-0.3 * np.abs(offsets))
    op = CirculantOperator.from_arrays(n_x, offsets, weights)
    v = rng.standard_normal(n_x)
    np.testing.assert_allclose(op.apply(v), op.dense() @ v, atol=1e-10)


@st.composite
def operator_and_rows(draw, one_point):
    """A one-point stencil (a scaled cyclic shift, applied as a rolled copy)
    or a multi-point stencil (applied through the FFT), and a batch of rows;
    complex weights or rows take the full-FFT branch."""
    n_x = draw(st.integers(1, 48) if one_point else st.integers(2, 48))
    span = range(-(n_x // 2), n_x - n_x // 2)
    n_pts = 1 if one_point else draw(st.integers(2, n_x))
    offsets = draw(st.lists(st.sampled_from(span), min_size=n_pts,
                            max_size=n_pts, unique=True))
    weights = np.array(draw(st.lists(
        st.floats(0.01, 2.0) | st.floats(-2.0, -0.01), min_size=n_pts,
        max_size=n_pts)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        weights = weights + 1j * rng.standard_normal(n_pts)
    v = rng.standard_normal(draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
                            + (n_x,))
    if draw(st.booleans()):
        v = v + 1j * rng.standard_normal(v.shape)
    return CirculantOperator.from_arrays(n_x, offsets, weights), v


@pytest.mark.parametrize("one_point", [True, False],
                         ids=["one_point", "multi_point"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_physical_apply_matches_dense_product(one_point, data):
    op, v = data.draw(operator_and_rows(one_point))
    assert (len(op.offsets) == 1) == one_point
    expected = v @ op.dense().T
    got = op.apply(v)
    assert got.shape == v.shape
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("weight", [1.0, -0.75, 0.5 - 2.0j])
@pytest.mark.parametrize("offset", [0, -3, 5])
def test_one_point_stencil_applies_exactly(weight, offset):
    # a scaled cyclic shift is one multiply per entry, (S v)_i = w v_{i+o}
    n_x = 12
    op = CirculantOperator(n_x, [(offset, weight)])
    V = np.random.default_rng(5).standard_normal((4, 6, n_x))
    cols = (np.arange(n_x) + offset) % n_x
    rows = (V[0, 0], V, V[:, ::2], V[1] - 1j * V[2], (V + 2j * V)[::3, 1::2])
    for v in rows:
        got = op.apply(v)
        np.testing.assert_array_equal(got, weight * v[..., cols])
        assert got.dtype == np.result_type(v, op.weights)


# -------------------------------------------------------------------- symbol

def test_identity_symbol_is_one():
    op = CirculantOperator.identity(6)
    for om in (-2.0, 0.0, 0.7, np.pi / 3):
        assert op.symbol(om) == pytest.approx(1.0)


def test_first_difference_symbol():
    op = CirculantOperator(8, [(0, 1.0), (-1, -1.0)])
    for om in np.linspace(-np.pi, np.pi, 9):
        assert op.symbol(om) == pytest.approx(1.0 - np.exp(-1j * om), abs=1e-14)


def test_symbol_matches_dense_eigenvalues_as_multiset():
    rng = np.random.default_rng(8)
    op = random_operator(rng, 8)
    dense_eigs = np.linalg.eigvals(op.dense())
    symbol_eigs = op.eigenvalues()
    key = lambda z: (np.round(z.real, 9), np.round(z.imag, 9))
    dense_sorted = sorted(dense_eigs, key=key)
    symbol_sorted = sorted(symbol_eigs, key=key)
    np.testing.assert_allclose(dense_sorted, symbol_sorted, atol=1e-12)


def test_mode_is_eigenvector():
    rng = np.random.default_rng(21)
    n_x = 16
    op = random_operator(rng, n_x)
    for k in (1, 5, 11):
        om = 2 * np.pi * k / n_x
        mode = np.exp(1j * om * np.arange(n_x))
        np.testing.assert_allclose(op.apply(mode), op.symbol(om) * mode,
                                   atol=1e-12)


# ------------------------------------------------------------------- algebra

def test_compose_shifts_cancel():
    left = CirculantOperator.shift(8, -1)
    right = CirculantOperator.shift(8, +1)
    prod = left.compose(right)
    np.testing.assert_array_equal(prod.offsets, [0])
    np.testing.assert_allclose(prod.weights, [1.0])


def test_power_zero_is_identity():
    rng = np.random.default_rng(5)
    op = random_operator(rng, 10)
    eye = op.power(0)
    np.testing.assert_array_equal(eye.offsets, [0])
    np.testing.assert_allclose(eye.weights, [1.0])


@pytest.mark.parametrize("seed", range(4))
def test_symbol_homomorphism(seed):
    # sampled at admissible mesh frequencies, where the symbol is an
    # eigenvalue and offset wrap-around is invisible
    rng = np.random.default_rng(seed)
    n_x = 64
    a = random_operator(rng, n_x, 5)
    b = random_operator(rng, n_x, 3)
    om = 2 * np.pi * np.arange(n_x) / n_x
    np.testing.assert_allclose(a.compose(b).symbol(om),
                               a.symbol(om) * b.symbol(om), atol=1e-12)
    np.testing.assert_allclose(a.add(b).symbol(om),
                               a.symbol(om) + b.symbol(om), atol=1e-12)
    np.testing.assert_allclose(a.power(3).symbol(om), a.symbol(om) ** 3,
                               atol=1e-11)
    np.testing.assert_allclose(a.scale(-2.5).symbol(om), -2.5 * a.symbol(om),
                               atol=1e-12)


def test_compose_matches_dense_oracle():
    rng = np.random.default_rng(13)
    a = random_operator(rng, 16, 4)
    b = random_operator(rng, 16, 5)
    np.testing.assert_allclose(a.compose(b).dense(), a.dense() @ b.dense(),
                               atol=1e-10)


def test_power_matches_dense_oracle():
    rng = np.random.default_rng(17)
    op = random_operator(rng, 12, 3)
    np.testing.assert_allclose(op.power(4).dense(),
                               np.linalg.matrix_power(op.dense(), 4), atol=1e-9)


def test_mesh_mismatch_raises():
    a = CirculantOperator.identity(8)
    b = CirculantOperator.identity(16)
    with pytest.raises(DimensionMismatchError):
        a.compose(b)
    with pytest.raises(DimensionMismatchError):
        a.add(b)


def test_offsets_wrap_periodically():
    op = CirculantOperator(8, [(9, 2.0)])  # same column as offset 1
    assert list(op.offsets) == [1]
    duplicated = CirculantOperator(8, [(1, 1.5), (-7, 0.5)])
    np.testing.assert_allclose(duplicated.weights, [2.0])


# -------------------------------------------------------------------- solves

def gmres_one(diagonal, b, rel_tol, max_iters):
    """``_gmres_batched`` on a single basis row: (x, relative residual,
    iterations)."""
    X, res, iters, _ = _gmres_batched(diagonal,
                                      np.asarray(b, dtype=float)[None, :],
                                      rel_tol, max_iters)
    return X[0], float(res[0]), iters


def gmres_physical(op, B, rel_tol, max_iters):
    """``_gmres_batched`` for the real circulant ``op`` on physical rows
    ``B``, through the basis and back."""
    B = np.array(B, dtype=float, ndmin=2)
    to_basis(B)
    X, res, iters, breakdown = _gmres_batched(basis_diagonal(op.eigenvalues()),
                                              B, rel_tol, max_iters)
    from_basis(X)
    return X, res, iters, breakdown


def test_gmres_identity_one_iteration():
    b = np.linspace(0, 1, 16)
    x, res, iters = gmres_one(basis_diagonal(np.ones(16)), b, rel_tol=0.5,
                              max_iters=10)
    assert iters == 1
    assert res <= 0.5
    np.testing.assert_allclose(x, b, atol=1e-12)


def test_gmres_round_trip_to_tolerance():
    from mgrit_advection import high_derivative_operator
    n_x = 64
    D = high_derivative_operator(2, n_x)
    diagonal = basis_diagonal(1.0 - 0.36 * D.eigenvalues())
    rng = np.random.default_rng(1)
    v = rng.standard_normal(n_x)
    b = basis_multiply(diagonal, v)
    x, reported, _ = gmres_one(diagonal, b, rel_tol=1e-2, max_iters=10)
    res = np.linalg.norm(b - basis_multiply(diagonal, x)) / np.linalg.norm(b)
    assert res <= 1e-2
    assert reported <= 1e-2


def test_gmres_agrees_with_direct():
    from mgrit_advection import high_derivative_operator
    n_x = 48
    D = high_derivative_operator(2, n_x)
    op = CirculantOperator.identity(n_x).add(D.scale(-0.2))
    rng = np.random.default_rng(2)
    b = rng.standard_normal(n_x)
    direct = np.linalg.solve(op.dense(), b)
    rel_tol = 1e-8
    (x,), _, _, _ = gmres_physical(op, b, rel_tol=rel_tol, max_iters=48)
    assert np.linalg.norm(x - direct) <= 10 * rel_tol * np.linalg.norm(direct)


def test_gmres_zero_rhs_is_breakdown_free():
    X, res, iters, breakdown = _gmres_batched(basis_diagonal(np.ones(8)),
                                              np.zeros((1, 8)), 1e-2, 5)
    np.testing.assert_array_equal(X, np.zeros((1, 8)))
    assert res[0] == 0.0 and iters == 0 and not breakdown


def gmres_reference(op, b, rel_tol, max_iters):
    """Textbook GMRES on one vector: Arnoldi with modified Gram-Schmidt and a
    least-squares solve of the Hessenberg system at every step."""
    n = len(b)
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros(n), 0.0
    V = [b / beta]
    H = np.zeros((max_iters + 1, max_iters))
    for j in range(min(max_iters, n)):
        w = op.apply(V[j])
        for i in range(j + 1):
            H[i, j] = w @ V[i]
            w = w - H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        e1 = np.zeros(j + 2)
        e1[0] = beta
        y = np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)[0]
        res = np.linalg.norm(e1 - H[: j + 2, : j + 1] @ y) / beta
        if res <= rel_tol or H[j + 1, j] <= 1e-14 * np.linalg.norm(H[:, j]):
            break
        V.append(w / H[j + 1, j])
    return np.array(V[: j + 1]).T @ y, res


def test_batched_gmres_matches_per_row_reference():
    # rows stop at different steps: one Fourier mode after two (its cosine
    # and sine span the Krylov space), a smooth row after three, white noise
    # at the cap; a zero row never starts
    n_x = 48
    D = correction_operator(2, n_x)  # left-biased: non-symmetric
    op = CirculantOperator.identity(n_x).add(D.scale(0.4))
    rng = np.random.default_rng(4)
    x = np.arange(n_x) * 2 * np.pi / n_x
    B = np.stack([np.cos(3 * x), np.exp(np.sin(x)), rng.standard_normal(n_x),
                  np.zeros(n_x), rng.standard_normal(n_x)])
    with np.errstate(all="raise"):
        X, res, _, _ = gmres_physical(op, B, 1e-6, 12)
    for k in range(len(B)):
        ref_x, ref_res = gmres_reference(op, B[k], 1e-6, 12)
        scale = max(1.0, np.max(np.abs(ref_x)))
        assert np.max(np.abs(X[k] - ref_x)) <= 1e-10 * scale
        assert res[k] == pytest.approx(ref_res, rel=1e-8, abs=1e-14)
    assert res[2] > 1e-6 and res[0] <= 1e-6 and res[3] == 0.0


# --------------------------------------------------------- spectral MINRES

def symmetric_correction(p, n_x, cond):
    """I - phi D for the symmetric correction operator of odd p, with phi
    chosen so that the eigenvalues span [1, cond], as on the coarse levels
    of explicit hierarchies (cond reaches about 1e4 there)."""
    D = correction_operator(p, n_x)
    d_hat = D.eigenvalues().real
    phi = (cond - 1.0) / np.max(np.abs(d_hat)) * -np.sign(d_hat[n_x // 2])
    return basis_diagonal(1.0 - phi * D.eigenvalues())


def basis_rows(rng, k, n_x):
    rows = rng.standard_normal((k, n_x))
    to_basis(rows)
    return rows


def minres_direction_reference(diagonal, B, rel_tol, max_iters):
    """MINRES as Paige & Saunders write it: the spectral recurrence of
    ``_minres_spectral`` that updates the search directions d, d1, d2 and the
    running iterate on every iteration.  Its Lanczos step, Givens update and
    stopping decisions are those of ``_minres_spectral`` operation for
    operation; only the way the iterate is formed differs."""
    K, n = B.shape
    max_iters = min(max_iters, n)
    head, interior = diagonal
    h = len(head)
    lam = np.concatenate([head, interior.real])
    c = np.empty((K, len(lam)))
    np.abs(B[:, :h], out=c[:, :h])
    np.abs(B[:, h:].view(complex), out=c[:, h:])
    beta1 = np.linalg.norm(c, axis=-1)
    rows = np.flatnonzero(beta1 > 0.0)
    res = np.where(beta1 > 0.0, 1.0, 0.0)
    xc = np.zeros_like(c)
    breakdown = False

    b1 = beta1[rows]
    v = c[rows] / b1[:, None]
    v_prev = np.zeros_like(v)
    d1, d2, x = np.zeros_like(v), np.zeros_like(v), np.zeros_like(v)
    beta = np.zeros(len(rows))
    cs1, sn1 = np.ones(len(rows)), np.zeros(len(rows))
    cs2, sn2 = np.ones(len(rows)), np.zeros(len(rows))
    phibar = b1.copy()

    j = 0
    while j < max_iters and len(rows):
        w = lam * v
        w -= beta[:, None] * v_prev
        alpha = np.einsum("kn,kn->k", w, v)
        w -= alpha[:, None] * v
        beta_next = np.linalg.norm(w, axis=-1)
        eps = sn2 * beta
        delta_hat = cs2 * beta
        delta = cs1 * delta_hat + sn1 * alpha
        gamma_bar = cs1 * alpha - sn1 * delta_hat
        gamma = np.hypot(gamma_bar, beta_next)
        gamma = np.where(gamma > 0.0, gamma, 1.0)
        cs, sn = gamma_bar / gamma, beta_next / gamma
        tau = cs * phibar
        phibar = -sn * phibar
        d = v - delta[:, None] * d1
        d -= eps[:, None] * d2
        d /= gamma[:, None]
        x += tau[:, None] * d
        j += 1

        r = np.abs(phibar) / b1
        res[rows] = r
        happy = beta_next <= 1e-14 * np.hypot(np.hypot(beta, alpha), beta_next)
        breakdown |= bool(np.any(happy))
        stop = (r <= rel_tol) | happy | (j == max_iters)
        if np.any(stop):
            xc[rows[stop]] = x[stop]
            keep = ~stop
            rows, b1, x = rows[keep], b1[keep], x[keep]
            w, v, d, d1 = w[keep], v[keep], d[keep], d1[keep]
            beta_next, cs, sn, cs1, sn1 = (beta_next[keep], cs[keep], sn[keep],
                                           cs1[keep], sn1[keep])
            phibar = phibar[keep]
        v_prev, v = v, w / beta_next[:, None]
        beta = beta_next
        d2, d1 = d1, d
        cs2, sn2, cs1, sn1 = cs1, sn1, cs, sn

    scale = np.divide(xc, c, out=np.zeros_like(c), where=c > 0.0)
    X = np.empty_like(B)
    np.multiply(B[:, :h], scale[:, :h], out=X[:, :h])
    np.multiply(B[:, h:].view(complex), scale[:, h:], out=X[:, h:].view(complex))
    return X, res, j, breakdown


def assert_minres_matches_gmres(diagonal, B, tol, cap):
    with np.errstate(all="raise"):
        xg, rg, jg, bg = _gmres_batched(diagonal, B, tol, cap)
        xm, rm, jm, bm = _minres_spectral(diagonal, B, tol, cap)
    scale = np.maximum(np.max(np.abs(xg), axis=1), 1e-300)
    assert np.all(np.max(np.abs(xm - xg), axis=1) <= 1e-10 * scale)
    np.testing.assert_array_equal(rm <= tol, rg <= tol)
    np.testing.assert_allclose(rm, rg, rtol=1e-6, atol=1e-12)
    return xm, rm, jm, bm


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([1, 3, 5]), n_x=st.integers(64, 160),
       log_cond=st.floats(0.0, 5.0), k=st.integers(1, 6),
       cap=st.integers(1, 20), log_tol=st.floats(-8.0, -0.3),
       seed=st.integers(0, 2 ** 16))
def test_minres_matches_gmres_at_the_package_caps(p, n_x, log_cond, k, cap,
                                                  log_tol, seed):
    # caps up to 20 (the package uses 10 and 20) on meshes with at least 33
    # distinct eigenvalues, corrections up to condition number 1e5
    diagonal = symmetric_correction(p, n_x, 10.0 ** log_cond)
    B = basis_rows(np.random.default_rng(seed), k, n_x)
    assert_minres_matches_gmres(diagonal, B, 10.0 ** log_tol, cap)


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([1, 3, 5]), n_x=st.integers(64, 160),
       log_cond=st.floats(0.0, 5.0), k=st.integers(1, 6),
       cap=st.integers(1, 20), log_tol=st.floats(-8.0, -0.3),
       seed=st.integers(0, 2 ** 16), zero_row=st.booleans())
def test_minres_matches_the_direction_recurrence(p, n_x, log_cond, k, cap,
                                                 log_tol, seed, zero_row):
    # the regimes of the package caps: the Lanczos step, the Givens update
    # and the stopping decisions are unchanged, so residuals, stopping steps
    # and breakdowns are bitwise those of the recurrence; the iterate is
    # summed in another order
    diagonal = symmetric_correction(p, n_x, 10.0 ** log_cond)
    B = basis_rows(np.random.default_rng(seed), k, n_x)
    if zero_row:
        B[k // 2] = 0.0
    tol = 10.0 ** log_tol
    with np.errstate(all="raise"):
        X, res, iters, breakdown = _minres_spectral(diagonal, B, tol, cap)
        X_ref, res_ref, iters_ref, breakdown_ref = minres_direction_reference(
            diagonal, B, tol, cap)
    np.testing.assert_array_equal(res, res_ref)
    assert iters == iters_ref and breakdown == breakdown_ref
    scale = np.maximum(np.max(np.abs(X_ref), axis=1), 1e-300)
    assert np.all(np.max(np.abs(X - X_ref), axis=1) <= 1e-13 * scale)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([1, 3, 5]), n_x=st.integers(16, 160),
       log_cond=st.floats(0.0, 5.0), k=st.integers(2, 8),
       cap=st.integers(1, 20), log_tol=st.floats(-8.0, -0.3),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_minres_split_batches_match_the_whole_batch(p, n_x, log_cond, k, cap,
                                                    log_tol, seed, data):
    # threaded solves hand each thread a block of rows: a row's result must
    # not depend on which rows share its batch
    diagonal = symmetric_correction(p, n_x, 10.0 ** log_cond)
    B = basis_rows(np.random.default_rng(seed), k, n_x)
    if data.draw(st.booleans()):
        B[data.draw(st.integers(0, k - 1))] = 0.0
    cuts = sorted(data.draw(st.sets(st.integers(1, k - 1), min_size=1)))
    tol = 10.0 ** log_tol
    X, res, _, _ = _minres_spectral(diagonal, B, tol, cap)
    for lo, hi in zip([0] + cuts, cuts + [k]):
        X_part, res_part, _, _ = _minres_spectral(diagonal, B[lo:hi], tol, cap)
        np.testing.assert_array_equal(X_part, X[lo:hi])
        np.testing.assert_array_equal(res_part, res[lo:hi])


def test_minres_basis_storage_grows_per_iteration():
    # the stored Lanczos vectors add one array of live rows per iteration;
    # a (rows, cap, n) buffer allocated up front would exceed the bound
    K, n_x = 256, 1024
    D = correction_operator(3, n_x)
    diagonal = basis_diagonal(1.0 + 2.0 * D.eigenvalues())
    B = basis_rows(np.random.default_rng(0), K, n_x)
    unit = K * (n_x // 2 + 1) * 8
    tracemalloc.start()
    try:
        _, res, iters, _ = _minres_spectral(diagonal, B, 1e-2, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iters == 14 and np.all(res <= 1e-2)
    assert peak <= (iters + 10) * unit


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([1, 3, 5]), n_x=st.integers(3, 63),
       cond=st.floats(1.0, 10.0), k=st.integers(1, 6), extra=st.integers(0, 4),
       cap_fraction=st.floats(0.0, 1.0), log_tol=st.floats(-8.0, -0.3),
       seed=st.integers(0, 2 ** 16))
def test_minres_matches_gmres_with_caps_beyond_the_mesh(p, n_x, cond, k, extra,
                                                        cap_fraction, log_tol,
                                                        seed):
    # caps from 1 to above n_x: the tolerance or the exhausted Krylov space
    # stops the rows first on these well-conditioned corrections
    assume(n_x >= p + 2)
    cap = 1 + int(cap_fraction * (n_x + extra - 1))
    diagonal = symmetric_correction(p, n_x, cond)
    B = basis_rows(np.random.default_rng(seed), k, n_x)
    assert_minres_matches_gmres(diagonal, B, 10.0 ** log_tol, cap)


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([1, 3, 5]), n_x=st.integers(3, 160),
       log_cond=st.floats(0.0, 5.0), k=st.integers(1, 4),
       cap_fraction=st.floats(0.0, 1.0), log_tol=st.floats(-8.0, -0.3),
       seed=st.integers(0, 2 ** 16))
def test_minres_reports_its_true_residual(p, n_x, log_cond, k, cap_fraction,
                                          log_tol, seed):
    # everywhere, also where rounding makes MINRES and GMRES part ways (deep
    # iterations on ill-conditioned corrections), a row reported as within
    # the tolerance is within it
    assume(n_x >= p + 2)
    tol = 10.0 ** log_tol
    diagonal = symmetric_correction(p, n_x, 10.0 ** log_cond)
    B = basis_rows(np.random.default_rng(seed), k, n_x)
    with np.errstate(all="raise"):
        X, res, _, _ = _minres_spectral(diagonal, B, tol,
                                        1 + int(cap_fraction * n_x))
    true = (np.linalg.norm(B - basis_multiply(diagonal, X), axis=1)
            / np.linalg.norm(B, axis=1))
    assert np.all(true[res <= tol] <= tol * (1.0 + 1e-6))


@pytest.mark.parametrize("n_x", [64, 65])
def test_minres_zero_rows_among_live_rows(n_x):
    diagonal = symmetric_correction(3, n_x, 300.0)
    B = basis_rows(np.random.default_rng(n_x), 5, n_x)
    B[[0, 3]] = 0.0
    X, res, _, _ = assert_minres_matches_gmres(diagonal, B, 1e-2, 20)
    np.testing.assert_array_equal(X[[0, 3]], 0.0)
    np.testing.assert_array_equal(res[[0, 3]], 0.0)


@pytest.mark.parametrize("n_x", [63, 64])
@pytest.mark.parametrize("slot", [0, 1, 10, 11])
def test_minres_eigenvector_breaks_down_after_one_iteration(n_x, slot):
    # a head slot, or one component of an interior pair, is an eigenvector
    diagonal = symmetric_correction(5, n_x, 50.0)
    B = np.zeros((1, n_x))
    B[0, slot] = 2.5
    X, res, iters, breakdown = assert_minres_matches_gmres(diagonal, B, 1e-12,
                                                           20)
    assert iters == 1 and breakdown
    assert res[0] <= 1e-15
    eigenvalues = basis_multiply(diagonal, np.ones((1, n_x)))
    np.testing.assert_allclose(X, B / eigenvalues, rtol=1e-14)


def test_minres_single_row_and_mixed_stopping_steps():
    n_x = 128
    diagonal = symmetric_correction(3, n_x, 1e4)
    rng = np.random.default_rng(9)
    smooth = np.exp(np.sin(2 * np.pi * np.arange(n_x) / n_x))[None, :]
    to_basis(smooth)
    eigen = np.zeros((1, n_x))
    eigen[0, 7] = 1.0
    B = np.concatenate([basis_rows(rng, 2, n_x), smooth, eigen])
    X, res, iters, _ = assert_minres_matches_gmres(diagonal, B, 1e-2, 20)
    assert iters == 20
    assert np.all(res[:2] > 1e-2) and np.all(res[2:] <= 1e-2)
    for k in range(len(B)):  # K = 1: the batch composition changes nothing
        Xk, res_k, _, _ = assert_minres_matches_gmres(diagonal, B[k: k + 1],
                                                      1e-2, 20)
        np.testing.assert_array_equal(Xk[0], X[k])
        assert res_k[0] == res[k]


@pytest.mark.parametrize("solver", ["gmres", "minres"])
@pytest.mark.parametrize("big,small,cap", [
    pytest.param(1e6, 1e-6, 9, id="1e6_1e-6_cap9"),
    pytest.param(2.0 ** 20, 2.0 ** -20, 20, id="2^20_2^-20_cap20")])
def test_breakdown_verdict_does_not_depend_on_rhs_scale(solver, big, small,
                                                        cap):
    # the 16-point p = 3 correction has 9 distinct eigenvalues, so its Krylov
    # spaces are exhausted after 9 iterations; beyond that, at a tolerance
    # of 1e-14, rounding noise decides when a row stops, so the decimal
    # scales are capped there; power-of-two scales change no rounding, and
    # the two rows must then stop alike at any cap
    n_x = 16
    diagonal = basis_diagonal(1.0 + 30.0 * correction_operator(3, n_x)
                              .eigenvalues())
    krylov = _gmres_batched if solver == "gmres" else _minres_spectral
    b = np.random.default_rng(0).standard_normal(n_x)
    to_basis(b)
    runs = [krylov(diagonal, scale * b[None, :], 1e-14, cap)
            for scale in (big, small)]
    (_, res_big, it_big, brk_big), (_, res_small, it_small, brk_small) = runs
    assert it_big == it_small and brk_big == brk_small
    if cap == 20:
        assert res_big[0] == res_small[0] and not brk_big


def test_is_symmetric():
    for p in (1, 3, 5):
        assert correction_operator(p, 64).is_symmetric()
    for p in (2, 4):
        assert not correction_operator(p, 64).is_symmetric()
    assert CirculantOperator(8, [(4, 1.0)]).is_symmetric()  # 4 == -4 mod 8
    assert not CirculantOperator.shift(8, 1).is_symmetric()
    assert not CirculantOperator(8, [(-1, 1j), (1, 1j)]).is_symmetric()


def test_complex_weights_supported():
    op = CirculantOperator(6, [(0, 1.0 + 0.5j), (1, -0.25j)])
    v = np.ones(6)
    np.testing.assert_allclose(op.apply(v), op.dense() @ v, atol=1e-13)


def test_immutability():
    op = CirculantOperator.identity(4)
    with pytest.raises(AttributeError):
        op.n_x = 8
    with pytest.raises(ValueError):
        op.weights[0] = 2.0
