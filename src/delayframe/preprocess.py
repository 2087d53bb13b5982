"""Cubic-spline interpolation and resampling.

Sparsely sampled series break the small-sampling-period requirement that
delay models need; ``resample`` fits a natural cubic spline and samples it
at a finer step, which restores it. Natural boundary conditions introduce
O(h^2) error in the first and last knot intervals, which callers absorb by
trimming one delay window from each end before fitting: the CLI's
``--dt-resample`` and the ``interpolation`` scenario both fit
``trim_series(resample(x, dt), delays)``.
"""

from __future__ import annotations

import numpy as np

from .embedding import TimeSeries
from .errors import ParameterError, check_instance, check_int, check_positive

__all__ = ["resample", "trim_series"]

# The most float64 samples numpy can index in one array.
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(float).itemsize


def resample(x: TimeSeries, dt_new: float) -> TimeSeries:
    """Sample the natural cubic spline through ``x`` uniformly at dt_new.

    The spline reproduces the samples exactly and is C2 between them; its
    zero-second-derivative end conditions are the least-assumptive choice
    when nothing is known beyond the samples. The grid starts at the first
    sample and never extends past the last one (no extrapolation); a
    dt_new wider than the span leaves fewer than two samples and is
    rejected, and so is one whose grid cannot be allocated.
    """
    check_instance(x, TimeSeries)
    if len(x) < 4:
        raise ParameterError(f"resample needs at least 4 samples, got {len(x)}")
    check_positive("dt_new", dt_new)
    knots = x.times
    start = float(knots[0])
    span = float(knots[-1]) - start
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
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(knots, x.values, bc_type="natural")
    try:
        t = start + dt_new * np.arange(count)
        # Roundoff can push the last point a hair past the final knot.
        t[-1] = min(t[-1], knots[-1])
        values = spline(t)
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
