import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayframe import linalg
from delayframe.errors import DataError, DegenerateInputError, ParameterError
from delayframe.linalg import (
    as_matrix,
    eigen_nonsymmetric,
    gram_schmidt,
    pseudo_inverse,
    thin_svd,
)


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
def test_thin_svd_matches_dense_svd(rng, dense_svd, monkeypatch, shape, sigma):
    a = _graded_matrix(rng, shape, sigma)
    one_block = linalg._BLOCK_BYTES
    # Blocks of 7 columns of the 40-row wide orientation: its 900 columns
    # leave a ragged last block of 4.
    seven_columns = 7 * 8 * min(shape)
    for center in (None, 13):
        dense = a if center is None else a - a[center]
        full = np.linalg.svd(dense, compute_uv=False)
        gaps = np.minimum(-np.diff(full, prepend=np.inf),
                          -np.diff(full, append=0.0))
        for block_bytes in (one_block, seven_columns):
            monkeypatch.setattr(linalg, "_BLOCK_BYTES", block_bytes)
            for rank in range(1, len(sigma) + 1):
                svd = thin_svd(a, rank, center=center)
                ref = dense_svd(a, rank, center)
                np.testing.assert_allclose(svd.sigma, ref.sigma, rtol=0.0,
                                           atol=1e-12 * ref.sigma[0])
                if ref.sigma[-1] <= 1e-6 * ref.sigma[0]:
                    # Below the Gram floor thin_svd is the dense SVD, bit
                    # for bit.
                    np.testing.assert_array_equal(svd.u, ref.u)
                    np.testing.assert_array_equal(svd.sigma, ref.sigma)
                    np.testing.assert_array_equal(svd.v, ref.v)
                    continue
                for j in range(rank):
                    if full[j] < 1e-3 * full[0] or gaps[j] < 1e-3 * full[0]:
                        continue
                    for got, want in ((svd.u[:, j], ref.u[:, j]),
                                      (svd.v[:, j], ref.v[:, j])):
                        err = min(np.abs(got - want).max(),
                                  np.abs(got + want).max())
                        assert err < 1e-8, (center, block_bytes, rank, j, err)


def test_thin_svd_factorizes_wide_matrix_through_gram(rng, monkeypatch):
    # Above the floor the only SVD taken is of the small delays x rank
    # projection, never of the full matrix.
    shapes = []
    svd = np.linalg.svd

    def recording_svd(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    thin_svd(_graded_matrix(rng, (30, 500), _GRADED[:4]), 3)
    thin_svd(_graded_matrix(rng, (500, 30), _GRADED[:4]), 3)
    assert shapes == [(30, 3), (30, 3)]


def test_thin_svd_falls_back_when_gram_overflows(dense_svd):
    a = np.array([[1e200, 1.0, 2.0], [3.0, 4.0, 5.0]])
    svd = thin_svd(a, 2)
    ref = dense_svd(a, 2)
    np.testing.assert_array_equal(svd.sigma, ref.sigma)
    np.testing.assert_array_equal(svd.u, ref.u)


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
    w = eigen_nonsymmetric(a).eigenvalues
    keys = list(zip(w.imag, w.real))
    assert keys == sorted(keys)


def test_gram_schmidt_orthonormalizes(rng):
    vectors = [rng.standard_normal(10) for _ in range(4)]
    basis, dropped = gram_schmidt(vectors)
    assert dropped == ()
    q = np.column_stack(basis)
    np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)


def test_gram_schmidt_drops_dependent_vector(rng):
    v1 = rng.standard_normal(8)
    v2 = rng.standard_normal(8)
    basis, dropped = gram_schmidt([v1, v2, 2.0 * v1 - 3.0 * v2])
    assert dropped == (2,)
    assert len(basis) == 2


def test_gram_schmidt_zero_vector_raises():
    with pytest.raises(DegenerateInputError, match="1"):
        gram_schmidt([np.ones(5), np.zeros(5)])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_gram_schmidt_span_property(seed):
    """Every input vector lies in the span of the returned basis."""
    gen = np.random.default_rng(seed)
    vectors = [gen.standard_normal(7) for _ in range(gen.integers(1, 6))]
    basis, dropped = gram_schmidt(vectors)
    if not basis:
        return
    q = np.column_stack(basis)
    for i, v in enumerate(vectors):
        if i in dropped:
            continue
        resid = v - q @ (q.T @ v)
        assert np.linalg.norm(resid) <= 1e-9 * max(np.linalg.norm(v), 1.0)
