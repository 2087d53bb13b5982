"""Hankel (time-delay) embedding of uniformly sampled scalar series.

``build_hankel`` returns a read-only ``sliding_window_view`` of the
series, so the delay matrix costs no memory of its own, and
``center_row`` a view of its central row. ``center_hankel`` makes the
centered copy for callers that want it; the fit passes the window and
``center_index`` to ``linalg.thin_svd`` instead, which factorizes the
centered window from the series without forming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ParameterError, check_instance, check_int, check_positive

__all__ = [
    "TimeSeries",
    "HankelEmbedding",
    "build_hankel",
    "center_hankel",
    "center_index",
    "center_row",
    "split_shift",
]


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar series: sample k sits at ``t0 + k * dt``."""

    t0: float
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ParameterError(f"values must be 1-d, got ndim={v.ndim}")
        if v.shape[0] < 2:
            raise ParameterError(f"need at least 2 samples, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise DataError("values contain non-finite entries")
        check_positive("dt", self.dt)
        if not np.isfinite(self.t0):
            raise ParameterError(f"t0 must be finite, got {self.t0}")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self))


@dataclass(frozen=True)
class HankelEmbedding:
    """Delay matrix with entry (i, j) = x[i + j].

    Rows walk the delay axis, columns the time axis; column j is the
    window starting at sample j of the series it was built from; from
    ``build_hankel`` it is a read-only view of that series.
    """

    matrix: np.ndarray = field(repr=False)

    @property
    def delays(self) -> int:
        return self.matrix.shape[0]

    @property
    def columns(self) -> int:
        return self.matrix.shape[1]


def build_hankel(x: TimeSeries, delays: int) -> HankelEmbedding:
    """Stack ``delays`` shifted copies of a series into a Hankel matrix.

    A series of length N yields a ``delays x (N - delays + 1)`` matrix, so
    every sample is used and each anti-diagonal is constant. The matrix is
    a read-only, zero-copy window onto ``x.values``: entry (i, j) is the
    sample ``x.values[i + j]`` itself, not a copy of it.
    """
    check_instance(x, TimeSeries)
    check_int("delays", delays)
    n_samples = len(x)
    if not 2 <= delays <= n_samples:
        raise ParameterError(
            f"delays must be in [2, {n_samples}] for this series, got {delays}"
        )
    width = n_samples - delays + 1
    return HankelEmbedding(matrix=sliding_window_view(x.values, width))


def center_index(delays: int) -> int:
    """Index of the central row of a ``delays``-row Hankel matrix.

    Centering needs an odd delay count so "central" is unambiguous; with
    an even count, use an odd one or leave the matrix uncentered.
    """
    check_int("delays", delays, minimum=1)
    if delays % 2 == 0:
        raise ParameterError(
            f"centering needs an odd delay count, got {delays}; "
            "use an odd number of delays or turn centering off"
        )
    return (delays - 1) // 2


def center_row(x: TimeSeries, delays: int) -> np.ndarray:
    """Central row of the ``delays``-row Hankel matrix of ``x``: a
    read-only view of ``x.values``, not a copy. Requires an odd number of
    delays (see ``center_index``)."""
    return build_hankel(x, delays).matrix[center_index(delays)]


def center_hankel(embedding: HankelEmbedding) -> HankelEmbedding:
    """Subtract the central row from every row, into a new array.

    The result's central row is zero, so centering it again changes no
    bit. Requires an odd number of delays (see ``center_index``).
    """
    check_instance(embedding, HankelEmbedding)
    m = embedding.matrix
    return HankelEmbedding(matrix=m - m[center_index(embedding.delays)])


def split_shift(embedding: HankelEmbedding):
    """Split into the (all-but-last, all-but-first) column submatrices.

    The two halves cover the same windows shifted by one sample. Their
    matrices are read-only column views of the parent, not copies.
    """
    check_instance(embedding, HankelEmbedding)
    if embedding.columns < 3:
        raise ParameterError(
            f"need at least 3 columns to split, got {embedding.columns}"
        )
    first = HankelEmbedding(matrix=_read_only(embedding.matrix[:, :-1]))
    second = HankelEmbedding(matrix=_read_only(embedding.matrix[:, 1:]))
    return first, second


def _read_only(view):
    view.flags.writeable = False
    return view
