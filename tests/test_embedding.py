import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayframe.embedding import (
    TimeSeries,
    build_hankel,
    center_hankel,
    center_index,
    center_row,
    split_shift,
)
from delayframe.errors import DataError, ParameterError


def _series(values, dt=0.1, t0=0.0):
    return TimeSeries(t0=t0, dt=dt, values=np.asarray(values, dtype=float))


def test_time_series_validation():
    with pytest.raises(ParameterError):
        TimeSeries(t0=0.0, dt=0.0, values=np.ones(5))
    with pytest.raises(ParameterError):
        TimeSeries(t0=0.0, dt=0.1, values=np.ones(1))
    with pytest.raises(DataError):
        TimeSeries(t0=0.0, dt=0.1, values=np.array([1.0, np.inf]))
    with pytest.raises(ParameterError):
        TimeSeries(t0=0.0, dt=0.1, values=np.ones((3, 2)))


def test_time_series_times():
    x = _series([1.0, 2.0, 3.0], dt=0.5, t0=1.0)
    np.testing.assert_allclose(x.times, [1.0, 1.5, 2.0])
    assert len(x) == 3


def test_hankel_shape_and_entries():
    x = _series(np.arange(10.0))
    emb = build_hankel(x, 4)
    assert emb.matrix.shape == (4, 7)
    assert emb.delays == 4
    # entry (i, j) = x[i + j]
    for i in range(4):
        for j in range(7):
            assert emb.matrix[i, j] == i + j
    np.testing.assert_array_equal(emb.matrix[:, 0], np.arange(4.0))
    np.testing.assert_array_equal(emb.matrix[:, -1], np.arange(6.0, 10.0))


def test_hankel_delay_bounds():
    x = _series(np.arange(6.0))
    with pytest.raises(ParameterError):
        build_hankel(x, 1)
    with pytest.raises(ParameterError):
        build_hankel(x, 7)
    # delays == len(x) leaves one column, too few for any fit but legal here
    assert build_hankel(x, 6).matrix.shape == (6, 1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=12),
)
def test_hankel_entry_property(seed, delays):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(delays, delays + 20))
    values = gen.standard_normal(n)
    emb = build_hankel(_series(values), delays)
    i = int(gen.integers(0, delays))
    j = int(gen.integers(0, emb.matrix.shape[1]))
    assert emb.matrix[i, j] == values[i + j]


def test_hankel_does_not_alias_input():
    x = _series(np.arange(8.0))
    emb = build_hankel(x, 3)
    # The matrix is a read-only window onto the series: it cannot be
    # written through, so the series cannot change under it.
    with pytest.raises(ValueError):
        emb.matrix[0, 0] = 99.0
    np.testing.assert_array_equal(x.values, np.arange(8.0))


def test_center_hankel_subtracts_central_row():
    x = _series(np.sin(np.arange(30.0)))
    emb = build_hankel(x, 5)
    original = emb.matrix.copy()
    centered = center_hankel(emb)
    mid = 2
    np.testing.assert_allclose(centered.matrix[mid], 0.0)
    np.testing.assert_allclose(
        centered.matrix, original - original[mid][None, :]
    )


def test_center_hankel_requires_odd_delays():
    x = _series(np.arange(12.0))
    emb = build_hankel(x, 4)
    hint = "use an odd number of delays or turn centering off"
    with pytest.raises(ParameterError, match=hint):
        center_hankel(emb)


def test_center_hankel_twice_is_once():
    # The centered central row is exactly zero, so subtracting it again
    # changes no bit.
    x = _series(np.sin(0.7 * np.arange(40.0)) + 3.0)
    once = center_hankel(build_hankel(x, 7))
    twice = center_hankel(once)
    assert twice.matrix.tobytes() == once.matrix.tobytes()


def test_center_row_is_a_view_of_the_central_row():
    x = _series(np.cos(0.3 * np.arange(25.0)))
    for delays in (3, 5, 11):
        row = center_row(x, delays)
        np.testing.assert_array_equal(
            row, build_hankel(x, delays).matrix[center_index(delays)]
        )
        assert np.shares_memory(row, x.values)
        assert not row.flags.writeable
    hint = "use an odd number of delays or turn centering off"
    with pytest.raises(ParameterError, match=hint):
        center_row(x, 6)


def test_split_shift_columns():
    x = _series(np.arange(9.0), dt=0.25, t0=2.0)
    emb = build_hankel(x, 3)
    first, second = split_shift(emb)
    np.testing.assert_array_equal(first.matrix, emb.matrix[:, :-1])
    np.testing.assert_array_equal(second.matrix, emb.matrix[:, 1:])
    for half in (first, second):
        assert np.shares_memory(half.matrix, emb.matrix)
        assert not half.matrix.flags.writeable


def test_split_shift_needs_three_columns():
    x = _series(np.arange(4.0))
    emb = build_hankel(x, 3)  # two columns
    with pytest.raises(ParameterError):
        split_shift(emb)
