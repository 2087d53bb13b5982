"""Linear models of scalar time series in delay coordinates.

The package builds Hankel (time-delay) embeddings of a scalar signal,
reduces them with the SVD, and fits linear dynamics in the reduced
coordinates, with or without a forcing input on the last retained mode
(the HAVOK and structured-HAVOK constructions). A geometry layer relates
the fitted matrices to the curvatures of the delay-embedded curve, and a
diagnostics layer scores how antisymmetric and tridiagonal a fitted
generator is.

Typical use::

    from delayframe import systems, models

    series, _ = systems.preset_series("lorenz_short")
    model = models.fit(series, models.FitConfig(delays=101, rank=5))
"""

from .embedding import (
    HankelEmbedding,
    TimeSeries,
    build_hankel,
    center_hankel,
    split_shift,
)
from .errors import (
    DataError,
    DegenerateInputError,
    DegenerateRankError,
    DelayFrameError,
    NumericalError,
    ParameterError,
)
from .models import (
    DelayModel,
    FitConfig,
    fit,
    forcing_signal,
    log_mapped_spectrum,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DegenerateInputError",
    "DegenerateRankError",
    "DelayFrameError",
    "DelayModel",
    "FitConfig",
    "HankelEmbedding",
    "NumericalError",
    "ParameterError",
    "TimeSeries",
    "build_hankel",
    "center_hankel",
    "fit",
    "forcing_signal",
    "log_mapped_spectrum",
    "reconstruct",
    "split_shift",
    "__version__",
]
