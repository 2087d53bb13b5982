import numpy as np
import pytest

from delayframe.embedding import TimeSeries
from delayframe.errors import ParameterError
from delayframe.preprocess import resample, trim_series


def _series(values, dt=0.1, t0=0.0):
    return TimeSeries(t0=t0, dt=dt, values=np.asarray(values, dtype=float))


def test_resample_needs_four_samples():
    with pytest.raises(ParameterError, match="at least 4 samples"):
        resample(_series([1.0, 2.0, 3.0]), 0.05)


def test_spline_interpolates_knots():
    # Every fourth sample of a quarter-step grid lands on a knot.
    x = _series(np.sin(np.linspace(0.0, 3.0, 31)))
    y = resample(x, 0.025)
    np.testing.assert_allclose(y.values[::4], x.values, atol=1e-12)


def test_spline_reproduces_linear_exactly():
    # A line has zero second derivative everywhere, so the natural
    # boundary condition is exact for it.
    x = _series(2.5 * np.arange(20.0) - 3.0, dt=0.5)
    y = resample(x, 0.0125)
    assert len(y) == 761
    np.testing.assert_allclose(y.values, 5.0 * y.times - 3.0, atol=1e-10)


def test_resample_grid():
    x = _series(np.arange(11.0), dt=0.1, t0=2.0)
    y = resample(x, 0.025)
    assert y.dt == 0.025
    assert y.t0 == 2.0
    assert len(y) == 41
    assert y.times[-1] == pytest.approx(3.0)
    # resampling at the original step returns the knot values
    z = resample(x, 0.1)
    np.testing.assert_allclose(z.values, x.values, atol=1e-12)


def test_resample_step_too_large():
    x = _series(np.arange(5.0), dt=0.1)
    with pytest.raises(ParameterError):
        resample(x, 10.0)


def test_resample_accuracy_interior():
    """Upsampling a 0.1-step sine to 0.001 is 1e-4-accurate away from
    the ends; the natural boundary inflates the error in the first and
    last knot spans, which is why fits trim a delay window per end."""
    t = np.arange(0.0, 10.0001, 0.1)
    x = _series(np.sin(t), dt=0.1)
    y = resample(x, 0.001)
    err = np.abs(y.values - np.sin(y.times))
    inner = (y.times >= 0.1) & (y.times <= 9.9)
    assert np.max(err[inner]) <= 1e-4
    assert np.max(err) <= 5e-4


def test_trim_series():
    x = _series(np.arange(20.0), dt=0.5, t0=1.0)
    y = trim_series(x, 3)
    assert len(y) == 14
    assert y.t0 == pytest.approx(2.5)
    np.testing.assert_array_equal(y.values, np.arange(3.0, 17.0))


def test_trim_series_validation():
    x = _series(np.arange(6.0))
    with pytest.raises(ParameterError):
        trim_series(x, 3)  # nothing would remain
    with pytest.raises(ParameterError):
        trim_series(x, -1)
    np.testing.assert_array_equal(trim_series(x, 0).values, x.values)
