"""Cubic-spline interpolation and resampling.

Sparsely sampled series break the small-sampling-period requirement that
delay models need; fitting a natural cubic spline and resampling at a
finer step restores it. Natural boundary conditions introduce O(h^2)
error in the first and last knot intervals, which callers absorb by
trimming one delay window from each end before fitting (the CLI does this
by default after resampling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .embedding import TimeSeries
from .errors import ParameterError, check_instance, check_int, check_positive

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

__all__ = ["SplineModel", "spline_fit", "resample", "trim_series"]

# The most float64 samples numpy can index in one array.
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(float).itemsize


@dataclass(frozen=True)
class SplineModel:
    """Natural cubic spline through uniformly spaced samples.

    ``knots`` are the sample times; ``evaluate`` reads the spline and its
    derivatives between the first and the last of them.
    """

    knots: np.ndarray = field(repr=False)
    _spline: CubicSpline = field(repr=False, compare=False, default=None)

    def evaluate(self, t, order: int = 0) -> np.ndarray:
        """Evaluate the spline (or a derivative) inside the knot span."""
        t = np.asarray(t, dtype=float)
        check_int("order", order)
        if not 0 <= order <= 3:
            raise ParameterError(f"order must be in 0..3, got {order!r}")
        lo, hi = self.knots[0], self.knots[-1]
        if np.any(t < lo) or np.any(t > hi):
            raise ParameterError(
                f"evaluation outside the knot span [{lo}, {hi}] "
                "is extrapolation and is not supported"
            )
        return self._spline(t, nu=order)


def spline_fit(x: TimeSeries) -> SplineModel:
    """Natural cubic spline through all samples of a uniform series.

    Reproduces the knot values exactly and is C2 at interior knots; the
    zero-second-derivative end conditions are the least-assumptive choice
    when nothing is known beyond the samples.
    """
    check_instance(x, TimeSeries)
    if len(x) < 4:
        raise ParameterError(f"spline_fit needs at least 4 samples, got {len(x)}")
    from scipy.interpolate import CubicSpline

    knots = x.times
    cs = CubicSpline(knots, x.values, bc_type="natural")
    return SplineModel(knots=knots, _spline=cs)


def resample(model: SplineModel, dt_new: float) -> TimeSeries:
    """Sample a spline uniformly at dt_new over its knot span.

    The grid starts at the first knot and never extends past the last one
    (no extrapolation); a dt_new wider than the span leaves fewer than two
    samples and is rejected, and so is one whose grid cannot be allocated.
    """
    check_instance(model, SplineModel)
    check_positive("dt_new", dt_new)
    start = float(model.knots[0])
    span = float(model.knots[-1]) - start
    steps = np.floor(span / dt_new * (1.0 + 1e-12))
    if steps < 1.0:
        raise ParameterError(
            f"dt_new = {dt_new} exceeds the knot span {span}; nothing to sample"
        )
    # A grid longer than numpy can index (or an infinite one) is rejected
    # before anything is allocated; a shorter one may still not fit.
    indexable = steps < _MAX_SAMPLES
    count = int(steps) + 1 if indexable else float(steps)
    too_large = (
        f"dt_new = {dt_new} asks for {count} samples over the knot span "
        f"{span}; that grid does not fit in memory"
    )
    if not indexable:
        raise ParameterError(too_large)
    try:
        t = start + dt_new * np.arange(count)
        # Roundoff can push the last point a hair past the final knot.
        t[-1] = min(t[-1], model.knots[-1])
        values = model.evaluate(t)
    except MemoryError as exc:
        raise ParameterError(too_large) from exc
    return TimeSeries(t0=start, dt=float(dt_new), values=values)


def trim_series(x: TimeSeries, count: int) -> TimeSeries:
    """Drop ``count`` samples from each end, advancing t0 to match."""
    check_instance(x, TimeSeries)
    check_int("count", count, minimum=0)
    if len(x) - 2 * count < 2:
        raise ParameterError(
            f"trimming {count} samples per end leaves fewer than 2 of {len(x)}"
        )
    if count == 0:
        return x
    return TimeSeries(
        t0=x.t0 + count * x.dt, dt=x.dt, values=x.values[count:-count].copy()
    )
