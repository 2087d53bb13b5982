import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayframe import linalg
from delayframe.embedding import TimeSeries, build_hankel, split_shift
from delayframe.errors import DataError, ParameterError
from delayframe.linalg import (
    as_matrix,
    eigen_nonsymmetric,
    pseudo_inverse,
    thin_svd,
)
from delayframe.models import FitConfig, fit


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        as_matrix(np.ones(3), "a")
    with pytest.raises(ParameterError):
        as_matrix(np.ones((0, 2)), "a")
    with pytest.raises(DataError):
        as_matrix([[1.0, np.nan]], "a")


def test_thin_svd_reconstructs_low_rank(rng):
    left = rng.standard_normal((12, 3))
    right = rng.standard_normal((3, 30))
    a = left @ right
    svd = thin_svd(a, 3)
    assert svd.u.shape == (12, 3)
    assert svd.v.shape == (30, 3)
    recon = svd.u @ np.diag(svd.sigma) @ svd.v.T
    np.testing.assert_allclose(recon, a, atol=1e-10 * svd.sigma[0])


def test_thin_svd_orthonormal_factors(rng):
    a = rng.standard_normal((9, 20))
    svd = thin_svd(a, 4)
    np.testing.assert_allclose(svd.u.T @ svd.u, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(svd.v.T @ svd.v, np.eye(4), atol=1e-12)
    assert np.all(np.diff(svd.sigma) <= 0.0)


def test_thin_svd_sign_convention(rng):
    # Largest-magnitude entry of each left vector is positive, so repeated
    # runs and LAPACK variants agree on orientation.
    a = rng.standard_normal((8, 15))
    svd = thin_svd(a, 5)
    for j in range(5):
        col = svd.u[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_thin_svd_rank_validation(rng):
    a = rng.standard_normal((4, 10))
    with pytest.raises(ParameterError):
        thin_svd(a, 5)
    with pytest.raises(ParameterError):
        thin_svd(a, 0)


def _graded_matrix(rng, shape, sigma):
    """A matrix with prescribed singular values and random orthonormal bases."""
    left, _ = np.linalg.qr(rng.standard_normal((shape[0], len(sigma))))
    right, _ = np.linalg.qr(rng.standard_normal((shape[1], len(sigma))))
    return (left * sigma) @ right.T


# sigma_k / sigma_1 from 1 down to 1e-11, stepping over the 1e-6 Gram floor.
_GRADED = 10.0 ** -np.array([0, 1, 2, 3, 4, 5, 5.5, 6.5, 8, 9.5, 11])
# sigma_2 and sigma_3 agree to 1e-9 relative: their vectors are not unique.
_NEAR_PAIR = np.array([1.0, 0.5, 0.5 * (1.0 + 1e-9), 0.1, 1e-3])


@pytest.mark.parametrize("shape", [(40, 900), (900, 40)])
@pytest.mark.parametrize("sigma", [_GRADED, _NEAR_PAIR], ids=["graded", "near-pair"])
def test_thin_svd_matches_dense_svd(rng, dense_svd, shape, sigma):
    a = _graded_matrix(rng, shape, sigma)
    for center in (None, 13):
        _assert_matches_dense_svd(a, center, range(1, len(sigma) + 1), dense_svd)


def _assert_matches_dense_svd(a, center, ranks, dense_svd):
    """thin_svd(a, rank, center) agrees with the dense oracle: sigma to
    1e-12 sigma_1 and the well-separated vectors to 1e-8.

    Below the Gram floor this holds for every pair whose residual, taken
    here on the dense matrix, meets thin_svd's stopping tolerance
    ``eps * sigma_1 * sqrt(max(a.shape))``. A pair that misses it (its
    passes ran out) is still a Ritz pair: sigma_j is no larger than the
    oracle's, and some singular value of the matrix, or 0, lies within
    its residual over sqrt(2) of sigma_j.
    """
    dense = a if center is None else a - a[center]
    full = np.linalg.svd(dense, compute_uv=False)
    gaps = np.minimum(-np.diff(full, prepend=np.inf),
                      -np.diff(full, append=0.0))
    tol = np.finfo(float).eps * np.sqrt(max(a.shape))
    for rank in ranks:
        svd = thin_svd(a, rank, center=center)
        ref = dense_svd(a, rank, center)
        atol = 1e-12 * ref.sigma[0]
        converged = np.ones(rank, dtype=bool)
        if ref.sigma[-1] <= 1e-6 * ref.sigma[0]:
            residual = np.hypot(
                np.linalg.norm(dense @ svd.v - svd.u * svd.sigma, axis=0),
                np.linalg.norm(dense.T @ svd.u - svd.v * svd.sigma, axis=0))
            converged = residual <= tol * svd.sigma[0]
            for j in np.flatnonzero(~converged):
                assert svd.sigma[j] <= ref.sigma[j] + atol, (center, rank, j)
                dist = np.abs(np.append(full, 0.0) - svd.sigma[j]).min()
                assert dist <= residual[j] / np.sqrt(2.0) + atol, (
                    center, rank, j, dist, residual[j])
        np.testing.assert_allclose(svd.sigma[converged], ref.sigma[converged],
                                   rtol=0.0, atol=atol)
        for j in np.flatnonzero(converged):
            if full[j] < 1e-3 * full[0] or gaps[j] < 1e-3 * full[0]:
                continue
            for got, want in ((svd.u[:, j], ref.u[:, j]),
                              (svd.v[:, j], ref.v[:, j])):
                err = min(np.abs(got - want).max(), np.abs(got + want).max())
                assert err < 1e-8, (center, rank, j, err)


def _three_tones(samples, offset):
    t = 0.05 * np.arange(samples)
    return TimeSeries(t0=0.0, dt=0.05, values=offset + np.sin(t)
                      + 0.5 * np.sin(2.3 * t) + 0.25 * np.sin(3.7 * t))


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e9])
@pytest.mark.parametrize("delays, samples", [(41, 1040), (201, 301)],
                         ids=["wide", "tall"])
def test_thin_svd_matches_dense_svd_on_windows(dense_svd, offset, delays,
                                              samples):
    # Hankel windows take their products from the series: both split
    # halves and the reversed window too, centered on each end and the
    # middle. Offsets push the uncentered spectrum under the Gram floor
    # (repeated passes) and test that centering loses nothing to them.
    # Rank 1 takes one pass, 2 repeated ones when uncentered with an
    # offset, 6 one pass when centered, 7 repeated ones.
    emb = build_hankel(_three_tones(samples, offset), delays)
    first, second = split_shift(emb)
    windows = [emb.matrix, first.matrix, second.matrix, emb.matrix[::-1, ::-1]]
    for a in windows:
        assert a.strides[0] == a.strides[1]
        rows = a.shape[0]
        for center in (None, 0, rows // 2, rows - 1):
            _assert_matches_dense_svd(a, center, (1, 2, 6, 7), dense_svd)


def _calls(monkeypatch, name):
    """Record each call's argument shape of ``np.linalg.<name>`` in the
    list returned."""
    shapes = []
    function = getattr(np.linalg, name)

    def recording(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return function(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return shapes


def test_thin_svd_factorizes_wide_matrix_through_gram(rng, monkeypatch):
    # Every SVD taken is of a small delays x rank projection, never of the
    # full matrix, whether the matrix is held in memory or is a Hankel
    # window of a series. Above the Gram floor one pass takes one such SVD;
    # below it (a graded matrix down to 1e-8, an offset-1e9 window) any
    # further pass takes one more.
    shapes = _calls(monkeypatch, "svd")
    window = build_hankel(_three_tones(529, 0.0), 30).matrix
    above = [(_graded_matrix(rng, (30, 500), _GRADED[:4]), None),
             (_graded_matrix(rng, (500, 30), _GRADED[:4]), None)]
    above += [(a, center) for center in (None, 15) for a in (window, window.T)]
    for a, center in above:
        shapes.clear()
        thin_svd(a, 3, center=center)
        assert shapes == [(30, 3)], (a.shape, center, shapes)
    offset = build_hankel(_three_tones(529, 1e9), 30).matrix
    below = [(_graded_matrix(rng, (30, 500), _GRADED[:9]), 9),
             (offset, 2), (offset.T, 2)]
    for a, rank in below:
        shapes.clear()
        thin_svd(a, rank)
        assert shapes and set(shapes) == {(30, rank)}, (a.shape, shapes)


@pytest.mark.filterwarnings("error")
def test_thin_svd_scales_away_gram_overflow(dense_svd):
    # Squaring a 1e200 entry would overflow. thin_svd scales the matrix by
    # a power of two first, so it runs without a warning and its singular
    # values match the dense SVD's.
    a = np.array([[1e200, 1.0, 2.0], [3.0, 4.0, 5.0]])
    np.testing.assert_allclose(thin_svd(a, 2).sigma, dense_svd(a, 2).sigma,
                               rtol=1e-12)
    # A window of a series with one 1e200 sample: the series is scaled.
    values = np.arange(12.0)
    values[5] = 1e200
    window = build_hankel(TimeSeries(t0=0.0, dt=1.0, values=values), 3).matrix
    for a in (window, window.T):
        np.testing.assert_allclose(thin_svd(a, 2).sigma, dense_svd(a, 2).sigma,
                                   rtol=1e-12)


def test_thin_svd_returns_the_last_pass_on_a_near_degenerate_pair(rng,
                                                                 monkeypatch):
    # sigma_4 / sigma_3 = 0.999 below the Gram floor: each pass gains only
    # a factor 0.999^2, so the residual cannot reach rounding level and the
    # pass budget runs out. The last Ritz triple comes back: orthonormal,
    # nonincreasing, and no singular value above the matrix's own.
    sigma = np.array([1.0, 0.5, 1e-7, 0.999e-7, 1e-8])
    a = _graded_matrix(rng, (40, 900), sigma)
    shapes = _calls(monkeypatch, "svd")
    svd = thin_svd(a, 3)
    assert shapes == [(40, 3)] * linalg._MAX_PASSES
    np.testing.assert_allclose(svd.u.T @ svd.u, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(svd.v.T @ svd.v, np.eye(3), atol=1e-12)
    assert np.all(np.diff(svd.sigma) <= 0.0)
    assert np.all(svd.sigma <= sigma[:3] + 1e-12 * sigma[0])
    residual = np.linalg.norm(a.T @ svd.u - svd.v * svd.sigma, axis=0)
    assert residual[2] > np.finfo(float).eps * np.sqrt(900)


def test_thin_svd_v_is_orthonormal_past_the_rank(dense_svd):
    # Three tones make a rank-6 window; rank 7 asks for one pair more. The
    # seventh column of each Ritz product is rounding noise, yet v comes
    # back orthonormal and C-contiguous.
    window = build_hankel(_three_tones(1040, 0.0), 41).matrix
    for a in (window, window.T):
        svd = thin_svd(a, 7)
        assert svd.v.flags.c_contiguous
        np.testing.assert_allclose(svd.v.T @ svd.v, np.eye(7), atol=1e-12)
        np.testing.assert_allclose(svd.sigma[:6], dense_svd(a, 6).sigma,
                                   rtol=1e-10)
        assert svd.sigma[6] <= 1e-12 * svd.sigma[0]


def test_thin_svd_peak_memory_stays_near_its_v():
    # A centered 41 x 49,961 window at rank 5: the Ritz product is
    # orthonormalized and rotated in place, so it is the one long array,
    # and it becomes v (1.67 v in all, with the series' copies). LAPACK's
    # QR of the product held its working copy and Q, and the rotation a
    # second basis (3.41 v).
    values = np.random.default_rng(7).standard_normal(50_001)
    window = build_hankel(TimeSeries(t0=0.0, dt=1.0, values=values), 41).matrix
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        svd = thin_svd(window, 5, center=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert svd.v.shape == (49_961, 5)
    assert peak < 2 * svd.v.nbytes


def _columns(draw, gen, n, k):
    """A tall n x k matrix whose columns are each kept, zeroed, a copy of
    an earlier one, or scaled by 1e-300 or 1e200; its random part has
    rank ``r <= k``."""
    r = draw(st.integers(min_value=1, max_value=k))
    p = gen.standard_normal((n, r)) @ gen.standard_normal((r, k))
    for j in range(k):
        kind = draw(st.sampled_from(["keep", "zero", "copy", "tiny", "huge"]))
        if kind == "zero":
            p[:, j] = 0.0
        elif kind == "copy":
            p[:, j] = p[:, draw(st.integers(min_value=0, max_value=j))]
        elif kind != "keep":
            p[:, j] *= 1e-300 if kind == "tiny" else 1e200
    return p


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=300),
       st.data())
def test_orthonormalize_in_place_whatever_the_rank(seed, k, extra, data):
    # Zero, duplicated, 1e-300 and 1e200 columns and exactly rank-deficient
    # products: the operand itself comes back, orthonormal to eps sqrt(n),
    # spanning every nonzero input column, and without a warning.
    n = k + extra
    p = _columns(data.draw, np.random.default_rng(seed), n, k)
    before = p.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = linalg._orthonormalize(p)
    assert q is p
    eps = np.finfo(float).eps
    assert np.max(np.abs(q.T @ q - np.eye(k))) <= 4.0 * eps * np.sqrt(n)
    for c in before.T:
        top = np.max(np.abs(c))
        if top > 0.0:
            c = c / top
            assert np.linalg.norm(c - q @ (q.T @ c)) <= 1e-10 * np.linalg.norm(c)


def _spd(seed, m, spectrum):
    """A symmetric m x m matrix with the named kind of positive spectrum
    and a random orthonormal eigenbasis."""
    gen = np.random.default_rng(seed)
    if spectrum == "graded":
        w = 10.0 ** -gen.uniform(0.0, 16.0, m)
    elif spectrum == "clustered":
        centers = 10.0 ** -gen.uniform(0.0, 8.0, gen.integers(1, 4))
        w = gen.choice(centers, m) * (1.0 + 1e-10 * gen.standard_normal(m))
    elif spectrum == "near-degenerate":
        w = np.repeat(10.0 ** -gen.uniform(0.0, 6.0, (m + 1) // 2), 2)[:m]
        w[1::2] *= 1.0 - 1e-12
    elif spectrum == "slow":
        w = 0.99 ** np.arange(m)
    else:
        w = np.ones(m)
    q = np.linalg.qr(gen.standard_normal((m, m)))[0]
    g = (q * w) @ q.T
    return 0.5 * (g + g.T)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=60),
       st.sampled_from(["graded", "clustered", "near-degenerate", "slow", "flat"]),
       st.data())
def test_leading_eigenpairs_match_dense_eigh(seed, m, spectrum, data):
    # The leading Ritz values lie within 8 sqrt(m) eps w_1 of eigh's, and
    # each vector within 8 sqrt(m) eps w_1 / gap_j of eigh's (the
    # Davis-Kahan bound of a residual at the stopping tolerance). A block
    # as wide as the matrix, or one widened after its step budget (the
    # slow 0.99^k spectrum), takes eigh of the matrix itself: the same
    # bits. Reruns give the same bits.
    rank = data.draw(st.integers(min_value=1, max_value=m))
    g = _spd(seed, m, spectrum)
    with pytest.MonkeyPatch.context() as mp:
        shapes = _calls(mp, "eigh")
        theta, vectors = linalg._leading_eigenpairs(g, rank)
    again = linalg._leading_eigenpairs(g, rank)
    assert np.array_equal(theta, again[0]) and np.array_equal(vectors, again[1])
    w, q = np.linalg.eigh(g)
    w, q = w[:-rank - 1:-1], q[:, :-rank - 1:-1]
    if shapes[-1] == (m, m):
        assert np.array_equal(theta, w) and np.array_equal(vectors, q)
        return
    assert len(shapes) <= linalg._EIG_BUDGET
    assert set(shapes) == {(rank + linalg._OVERSAMPLE,) * 2}
    full = np.linalg.eigvalsh(g)[::-1]
    tol = 8.0 * np.sqrt(m) * np.finfo(float).eps * full[0]
    np.testing.assert_allclose(theta, w, rtol=0.0, atol=tol)
    gaps = np.minimum(-np.diff(full, prepend=np.inf),
                      -np.diff(full, append=-np.inf))
    for j in range(rank):
        err = min(np.abs(vectors[:, j] - q[:, j]).max(),
                  np.abs(vectors[:, j] + q[:, j]).max())
        assert err * gaps[j] <= tol, (j, err, gaps[j])


def test_leading_eigenpairs_widen_after_the_step_budget(monkeypatch):
    # On the 0.99^k spectrum each step gains only 0.99^4 on the block of
    # rank + 4: the budget runs out and the block widens to eigh itself.
    g = _spd(7, 60, "slow")
    shapes = _calls(monkeypatch, "eigh")
    theta, vectors = linalg._leading_eigenpairs(g, 3)
    assert shapes == [(7, 7)] * linalg._EIG_BUDGET + [(60, 60)]
    w, q = np.linalg.eigh(g)
    assert np.array_equal(theta, w[:-4:-1]) and np.array_equal(vectors, q[:, :-4:-1])


def test_leading_eigenpairs_on_a_rank_deficient_gram(two_tone, monkeypatch):
    # sin(t) + sin(2t) has a rank-4 Hankel matrix, so the start block of 8
    # Gram columns spans 4 directions; its dependent columns become
    # coordinate vectors, and the block still meets the residual test
    # without widening.
    h = build_hankel(two_tone, 41).matrix
    gram = h @ h.T
    shapes = _calls(monkeypatch, "eigh")
    theta, vectors = linalg._leading_eigenpairs(gram, 4)
    assert set(shapes) == {(8, 8)} and len(shapes) < linalg._EIG_BUDGET
    tol = np.sqrt(41) * np.finfo(float).eps * theta[0]
    residual = np.linalg.norm(gram @ vectors - vectors * theta, axis=0)
    assert np.all(residual <= tol), residual / theta[0]
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(4), rtol=0.0, atol=1e-14)


def test_shavok_fit_takes_eigh_of_small_blocks_only(series_cache, monkeypatch):
    # A 401-delay sHAVOK fit: each half's Gram is 401 x 401, yet every eigh
    # is of a Ritz block of at most rank + 4, and neither half widens.
    shapes = _calls(monkeypatch, "eigh")
    cfg = FitConfig(delays=401, rank=4, method="shavok")
    fit(series_cache("lorenz_short"), cfg)
    assert shapes
    assert all(s[0] <= cfg.rank + linalg._OVERSAMPLE for s in shapes), shapes


def _correlate_oracle(x, b):
    """The products _correlate replaced: one ``np.correlate`` per column."""
    out = np.empty((len(x) - len(b) + 1, b.shape[1]))
    for j, c in enumerate(b.T):
        out[:, j] = np.correlate(x, c, "valid")
    return out


# Lengths below and above one chunk of folded rows (_FOLD * _CHUNK = 512).
_LENGTHS = st.one_of(st.integers(min_value=1, max_value=48),
                     st.integers(min_value=480, max_value=1100))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), _LENGTHS, _LENGTHS,
       st.integers(min_value=1, max_value=9),
       st.sampled_from(["contiguous", "transposed", "reversed", "spread-adjoint"]))
@example(seed=0, kernel=1, output=1, columns=1, layout="contiguous")
@example(seed=1, kernel=1, output=700, columns=3, layout="contiguous")
@example(seed=2, kernel=700, output=1, columns=9, layout="transposed")
@example(seed=3, kernel=513, output=513, columns=4, layout="spread-adjoint")
@example(seed=4, kernel=512, output=16, columns=2, layout="reversed")
def test_correlate_matches_per_column_np_correlate(seed, kernel, output,
                                                   columns, layout):
    # Kernels shorter than, as long as and longer than the output, so both
    # folded products run, with lengths on and off the fold width and the
    # chunk, for kernels in the layouts the fit passes (the adjoint of the
    # centering's prefix sums) and others no product may assume away. The
    # sums run in another order than np.correlate's: each column agrees to
    # a few eps * |x| * |b_j| on zero-mean data.
    gen = np.random.default_rng(seed)
    x = gen.standard_normal(kernel + output - 1)
    if layout == "transposed":
        b = gen.standard_normal((columns, kernel)).T
    elif layout == "reversed":
        b = gen.standard_normal((kernel, columns))[::-1]
    elif layout == "spread-adjoint":
        q = gen.standard_normal((kernel + 1, columns))
        b = linalg._spread_adjoint(q, int(gen.integers(kernel + 1)))
    else:
        b = gen.standard_normal((kernel, columns))
    got = linalg._correlate(x, b)
    want = _correlate_oracle(x, b)
    assert got.shape == want.shape == (output, columns)
    bound = (4.0 * np.finfo(float).eps * np.linalg.norm(x)
             * np.linalg.norm(b, axis=0))
    err = np.abs(got - want).max(axis=0)
    assert np.all(err <= bound), (err / bound)


def test_pseudo_inverse_moore_penrose(rng):
    a = rng.standard_normal((5, 8))
    p = pseudo_inverse(a)
    np.testing.assert_allclose(a @ p @ a, a, atol=1e-10)
    np.testing.assert_allclose(p @ a @ p, p, atol=1e-10)
    np.testing.assert_allclose((a @ p).T, a @ p, atol=1e-10)
    np.testing.assert_allclose((p @ a).T, p @ a, atol=1e-10)


def test_pseudo_inverse_drops_tiny_directions(rng):
    u = np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :2]
    v = np.linalg.qr(rng.standard_normal((7, 7)))[0][:, :2]
    a = u @ np.diag([1.0, 1e-15]) @ v.T
    p = pseudo_inverse(a)
    # The 1e-15 direction is treated as noise, not inverted to 1e15.
    assert np.linalg.norm(p) < 10.0


def test_pseudo_inverse_zero_matrix():
    p = pseudo_inverse(np.zeros((3, 5)))
    assert p.shape == (5, 3)
    assert np.all(p == 0.0)


def test_eigen_nonsymmetric_rotation_generator():
    a = np.array([[0.0, 2.0], [-2.0, 0.0]])
    spec = eigen_nonsymmetric(a)
    np.testing.assert_allclose(
        spec.eigenvalues, [-2.0j, 2.0j], atol=1e-12
    )
    for k in range(2):
        w, vec = spec.eigenvalues[k], spec.eigenvectors[:, k]
        np.testing.assert_allclose(a @ vec, w * vec, atol=1e-12)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_eigen_ordering_is_imaginary_major(rng):
    a = rng.standard_normal((6, 6))
    spec = eigen_nonsymmetric(a)
    keys = list(zip(spec.eigenvalues.imag, spec.eigenvalues.real))
    assert keys == sorted(keys)
    # LAPACK's geev returns unit-norm eigenvectors.
    np.testing.assert_allclose(np.linalg.norm(spec.eigenvectors, axis=0), 1.0,
                               rtol=0.0, atol=1e-14)


def test_one_blas_thread_sets_one_and_restores_the_count():
    get_threads, set_threads = linalg._blas_thread_functions()
    if set_threads is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count setter")
    before = get_threads()
    with linalg._one_blas_thread():
        assert get_threads() == 1
    assert get_threads() == before
