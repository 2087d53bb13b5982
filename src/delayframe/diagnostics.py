"""Structure and spectrum diagnostics.

The geometric theory predicts skew-symmetric tridiagonal dynamics
matrices; these scores turn that qualitative claim into scale-free
numbers in [0, 1] where 0 is the ideal structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .linalg import Spectrum, as_matrix

__all__ = [
    "StructureReport",
    "SpectrumComparison",
    "antisymmetry_score",
    "tridiagonality_score",
    "structure_report",
    "spectrum_distance",
]


@dataclass(frozen=True)
class StructureReport:
    antisymmetry: float
    tridiagonality: float
    offband_max: float
    superdiagonal: tuple
    subdiagonal: tuple


@dataclass(frozen=True)
class SpectrumComparison:
    pair_distances: tuple
    max_real_part_a: float
    max_real_part_b: float

    @property
    def mean_distance(self) -> float:
        return float(np.mean(self.pair_distances))


def _square_nonzero(a, caller):
    """The checked square matrix and its copy scaled so max|a| is in [0.5, 1).

    The scale is a power of two, so it is exact and the scale-free scores
    read off the copy are those of ``a``, but squaring its entries can
    neither overflow nor underflow.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ParameterError(f"{caller} needs a square matrix, got shape {a.shape}")
    peak = float(np.max(np.abs(a)))
    if peak == 0.0:
        raise NumericalError(f"{caller} is undefined for the zero matrix")
    return a, np.ldexp(a, -math.frexp(peak)[1])


def antisymmetry_score(a) -> float:
    """||A + A^T||_F / (2 ||A||_F): 0 iff exactly skew, 1 iff symmetric."""
    _, a = _square_nonzero(a, "antisymmetry_score")
    return float(np.linalg.norm(a + a.T) / (2.0 * np.linalg.norm(a)))


def tridiagonality_score(a) -> float:
    """Fraction of Frobenius energy outside the three central diagonals."""
    _, a = _square_nonzero(a, "tridiagonality_score")
    band = np.abs(np.arange(a.shape[0])[:, None] - np.arange(a.shape[0])) <= 1
    total = float(np.sum(a * a))
    outside = float(np.sum(a[~band] ** 2))
    return outside / total


def structure_report(a) -> StructureReport:
    """Both structure scores plus the band contents and off-band peak."""
    a, scaled = _square_nonzero(a, "structure_report")
    band = np.abs(np.arange(a.shape[0])[:, None] - np.arange(a.shape[0])) <= 1
    off = a[~band]
    return StructureReport(
        antisymmetry=antisymmetry_score(scaled),
        tridiagonality=tridiagonality_score(scaled),
        offband_max=float(np.max(np.abs(off))) if off.size else 0.0,
        superdiagonal=tuple(np.diag(a, 1)),
        subdiagonal=tuple(np.diag(a, -1)),
    )


def spectrum_distance(a: Spectrum, b: Spectrum) -> SpectrumComparison:
    """Minimum-cost perfect matching between two equal-size spectra.

    Pairs eigenvalues by the Hungarian algorithm on |w_i - w'_j| (greedy
    pairing misattributes conjugate partners when spectra crowd the
    imaginary axis) and reports per-pair distances, their mean, and each
    spectrum's maximum real part as a stability indicator.
    """
    wa = _eigenvalues_of(a, "a")
    wb = _eigenvalues_of(b, "b")
    if wa.shape[0] != wb.shape[0]:
        raise ParameterError(
            f"spectra have different sizes {wa.shape[0]} and {wb.shape[0]}; "
            "truncate to a common rank first"
        )
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(wa[:, None] - wb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return SpectrumComparison(
        pair_distances=tuple(float(p) for p in cost[rows, cols]),
        max_real_part_a=float(np.max(wa.real)),
        max_real_part_b=float(np.max(wb.real)),
    )


def _eigenvalues_of(s, name):
    if isinstance(s, Spectrum):
        w = s.eigenvalues
    else:
        w = np.asarray(s)
    w = np.atleast_1d(w.astype(complex))
    if w.ndim != 1 or w.shape[0] == 0:
        raise ParameterError(f"spectrum {name} must be a nonempty 1-d eigenvalue list")
    if not np.all(np.isfinite(w)):
        raise ParameterError(f"spectrum {name} contains non-finite eigenvalues")
    return w
