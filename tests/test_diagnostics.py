import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayframe.diagnostics import (
    antisymmetry_score,
    spectrum_distance,
    structure_report,
    tridiagonality_score,
)
from delayframe.errors import NumericalError, ParameterError
from delayframe.linalg import eigen_nonsymmetric


SKEW = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def test_antisymmetry_score_extremes():
    assert antisymmetry_score(SKEW) == 0.0
    sym = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert antisymmetry_score(sym) == pytest.approx(1.0)


def test_antisymmetry_score_zero_matrix():
    with pytest.raises(NumericalError, match="zero matrix"):
        antisymmetry_score(np.zeros((3, 3)))


def test_tridiagonality_score_extremes():
    assert tridiagonality_score(SKEW) == 0.0
    corner = np.zeros((4, 4))
    corner[0, 3] = 5.0
    assert tridiagonality_score(corner) == pytest.approx(1.0)


def test_tridiagonality_score_known_value():
    a = np.eye(4)
    a[0, 2] = 1.0
    # one of five unit-energy entries lies off the band
    assert tridiagonality_score(a) == pytest.approx(0.2)


def test_scores_reject_nonsquare():
    with pytest.raises(ParameterError):
        antisymmetry_score(np.ones((2, 3)))
    with pytest.raises(ParameterError):
        tridiagonality_score(np.ones((2, 3)))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=1e-300, max_value=1e300),
)
def test_scores_scale_invariant(seed, scale):
    # Squaring the entries would overflow or underflow at the ends of this
    # range; the scores scale the matrix exactly first.
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((5, 5))
    assert antisymmetry_score(scale * a) == pytest.approx(
        antisymmetry_score(a), rel=1e-9
    )
    assert tridiagonality_score(scale * a) == pytest.approx(
        tridiagonality_score(a), rel=1e-9
    )


def test_structure_report_bands():
    rep = structure_report(SKEW)
    assert rep.antisymmetry == 0.0
    assert rep.tridiagonality == 0.0
    assert rep.superdiagonal == (2.0, 1.0)
    assert rep.subdiagonal == (-2.0, -1.0)
    assert rep.offband_max == 0.0
    noisy = SKEW.copy()
    noisy[2, 0] = 0.25
    assert structure_report(noisy).offband_max == 0.25


def test_spectrum_distance_exact():
    a = np.array([1.0 + 1.0j, 2.0 - 1.0j])
    b = np.array([2.0 - 1.0j, 1.0 + 1.0j])  # permuted
    cmp_ = spectrum_distance(a, b)
    assert cmp_.mean_distance == 0.0
    assert cmp_.pair_distances == (0.0, 0.0)


def test_spectrum_distance_known_value():
    a = np.array([0.0 + 0.0j, 3.0 + 0.0j])
    b = np.array([4.0 + 0.0j, 0.0 + 1.0j])
    cmp_ = spectrum_distance(a, b)
    # optimal matching pairs 0<->i and 3<->4
    assert cmp_.mean_distance == pytest.approx(1.0)
    assert cmp_.max_real_part_a == 3.0
    assert cmp_.max_real_part_b == 4.0


def test_spectrum_distance_accepts_spectrum_objects(rng):
    a = rng.standard_normal((4, 4))
    sa = eigen_nonsymmetric(a)
    cmp_ = spectrum_distance(sa, sa.eigenvalues)
    assert cmp_.mean_distance == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_spectrum_distance_permutation_invariant(seed):
    gen = np.random.default_rng(seed)
    w = gen.standard_normal(5) + 1j * gen.standard_normal(5)
    shuffled = gen.permutation(w)
    assert spectrum_distance(w, shuffled).mean_distance < 1e-12


def test_spectrum_distance_size_mismatch():
    with pytest.raises(ParameterError):
        spectrum_distance(np.ones(3, dtype=complex), np.ones(4, dtype=complex))
