"""Moving-frame geometry: Frenet frames, curvature matrices, and the
discrete orthogonal polynomial bases that delay-coordinate models converge to.

Conventions used throughout:

* a frame is an ordered list of orthonormal vectors e1..er, the
  Gram-Schmidt orthonormalization of the successive derivatives of a
  curve, with a derivative dropped when its pivot is negligible against
  its own norm;
* the curvature matrix K = (1/speed) (dQ/dt) Q^T is skew-symmetric with the
  curvatures on its first off-diagonals;
* derivative estimates from sampled data use second-order central
  differences, which trim one sample per end per differentiation;
* each Gram-determinant ratio is read off the pivots of that same
  Gram-Schmidt pass, and the orthonormal polynomials come from one
  Arnoldi recurrence on the grid, for every degree the grid allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError, DegenerateInputError, NumericalError, ParameterError, check_int,
    check_positive,
)
from .linalg import _project_twice, _scale, as_matrix

__all__ = [
    "FrenetApparatus",
    "CurvatureMatrixEstimate",
    "ModelCurvatures",
    "central_difference",
    "derivative_stack",
    "frenet_frame",
    "curvature_matrix_from_frame",
    "analytic_curvatures_gram",
    "curvatures_from_singular_values",
    "discrete_orthopoly",
    "curvatures_from_model",
]

# A derivative d_j is dependent on d_1..d_{j-1} when its squared pivot
# R_jj^2 is at most this fraction of ||d_j||^2 (see _orthonormalize).
_PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class FrenetApparatus:
    """Moving frame of a curve at one point.

    ``frame`` holds the orthonormal vectors e1..er in order; ``speed`` is
    the norm of the first derivative; ``dropped`` lists indices of input
    derivatives that were linearly dependent and contributed no frame
    vector.
    """

    frame: tuple
    speed: float
    dropped: tuple = ()

    @property
    def rank(self) -> int:
        return len(self.frame)


@dataclass(frozen=True)
class CurvatureMatrixEstimate:
    """Skew curvature matrix plus the symmetric part that was discarded.

    ``symmetric_residual`` is the Frobenius norm of (K + K^T)/2 of the raw
    finite-difference estimate; it is the primary convergence diagnostic
    and shrinks like dt on resolved data.
    """

    k_matrix: np.ndarray = field(repr=False)
    symmetric_residual: float


@dataclass(frozen=True)
class ModelCurvatures:
    """Speed-normalized model matrix and its superdiagonal read as curvatures."""

    k_matrix: np.ndarray = field(repr=False)

    @property
    def curvatures(self) -> tuple:
        return tuple(np.diag(self.k_matrix, 1).tolist())


def central_difference(values, dt: float) -> np.ndarray:
    """Second-order central difference, shorter by one sample per end."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.shape[0] < 3:
        raise ParameterError(
            f"need a 1-d array of at least 3 samples, got shape {v.shape}"
        )
    check_positive("dt", dt)
    return (v[2:] - v[:-2]) / (2.0 * dt)


def derivative_stack(values, dt: float, order: int):
    """Repeated central differences d1..d_order, trimmed to a common grid.

    Each returned array has length ``len(values) - 2 * order`` and all are
    aligned: entry j of every derivative refers to the same sample time.
    """
    v = np.asarray(values, dtype=float)
    check_int("order", order, minimum=1)
    if v.ndim != 1 or v.shape[0] < 2 * order + 1:
        raise ParameterError(
            f"need at least {2 * order + 1} samples for order {order}, "
            f"got shape {v.shape}"
        )
    derivs = []
    current = v
    for _ in range(order):
        current = central_difference(current, dt)
        derivs.append(current)
    target = v.shape[0] - 2 * order
    out = []
    for d in derivs:
        extra = d.shape[0] - target
        lo = extra // 2
        out.append(d[lo:lo + target].copy())
    return out


def _orthonormalize(derivatives):
    """Orthonormalize the derivative columns in order, by one CGS2 pass,
    dropping dependent ones.

    Each d_j is scaled by a power of two (``linalg._scale``), so no square
    overflows or underflows, and projected twice off the vectors kept so
    far (``linalg._project_twice``); its pivot R_jj is the norm of what
    remains. It is dependent, and dropped, when R_jj^2 <= _PIVOT_TOL *
    ||d_j||^2: against its own norm, so the rule does not depend on the
    unit of time (which scales d_j by s^j), and a zero column always drops.

    Returns (q, pivots, dropped): the orthonormal columns of the kept
    derivatives, their pivots R_jj > 0, and the input indices dropped.
    """
    arr = [np.asarray(d, dtype=float) for d in derivatives]
    if not arr:
        raise ParameterError("need at least one derivative")
    shape = arr[0].shape
    for i, v in enumerate(arr):
        if v.ndim != 1 or v.shape != shape:
            raise ParameterError(f"d{i + 1} has shape {v.shape}, expected {shape}")
        if not np.all(np.isfinite(v)):
            raise DataError(f"d{i + 1} contains non-finite entries")
    # Kept vector k is written to column k, over an input already used.
    columns = np.column_stack(arr)
    pivots, dropped = [], []
    for j in range(len(arr)):
        w = columns[:, j]
        exponent = _scale(w)
        if exponent is not None:
            norm_squared = float(w @ w)
            pivot = _project_twice(w, columns[:, :len(pivots)])[1]
            if pivot**2 > _PIVOT_TOL * norm_squared:
                w /= pivot
                columns[:, len(pivots)] = w
                pivots.append(math.ldexp(pivot, exponent))
                continue
        dropped.append(j)
    return columns[:, :len(pivots)], np.array(pivots), tuple(dropped)


def frenet_frame(derivatives) -> FrenetApparatus:
    """Orthonormal moving frame from an ordered derivative list.

    The frame is the Gram-Schmidt orthonormalization of the derivatives,
    in order (e1 is the normalized first derivative). Dependent
    derivatives are dropped and reported through the ``dropped`` field
    rather than raising, so a straight line yields a rank-1 frame. A zero
    first derivative is degenerate.
    """
    q, pivots, dropped = _orthonormalize(derivatives)
    if dropped[:1] == (0,):
        raise DegenerateInputError("first derivative is zero; the frame is undefined")
    return FrenetApparatus(frame=tuple(q.T), speed=float(pivots[0]), dropped=dropped)


def curvature_matrix_from_frame(frames, dt: float) -> CurvatureMatrixEstimate:
    """Estimate K = (1/speed) (dQ/dt) Q^T from a frame sequence.

    Consecutive frame pairs give forward-difference estimates which are
    averaged, then the result is split into skew and symmetric parts. Only
    the skew part is returned; the symmetric part's Frobenius norm is
    reported, not hidden, since for exact frames it measures pure
    discretization error.
    """
    frames = list(frames)
    if len(frames) < 2:
        raise ParameterError(f"need at least 2 frames, got {len(frames)}")
    check_positive("dt", dt)
    mats = []
    for i, f in enumerate(frames):
        if not isinstance(f, FrenetApparatus):
            raise ParameterError(
                f"frame {i} must be a FrenetApparatus, got {type(f).__name__}"
            )
        check_positive("speed", f.speed)
        mats.append(np.vstack(f.frame))
    shape = mats[0].shape
    for i, q in enumerate(mats):
        if q.shape != shape:
            raise ParameterError(
                f"frame {i} has shape {q.shape}, expected {shape}"
            )
    acc = np.zeros((shape[0], shape[0]))
    for (qa, qb, fa) in zip(mats[:-1], mats[1:], frames[:-1]):
        acc += ((qb - qa) / dt) @ qa.T / fa.speed
    raw = acc / (len(frames) - 1)
    symmetric = 0.5 * (raw + raw.T)
    skew = 0.5 * (raw - raw.T)
    return CurvatureMatrixEstimate(
        k_matrix=skew,
        symmetric_residual=float(np.linalg.norm(symmetric)),
    )


def analytic_curvatures_gram(d1, d2, d3, d4):
    """First three curvatures from derivative data via Gram determinant ratios.

    Parameters
    ----------
    d1, d2, d3, d4 : real vectors of equal length
        Sampled first through fourth derivatives of the curve.

    Returns
    -------
    (kappa_1, kappa_2, kappa_3) : floats
        kappa_i = sqrt(det G_{i+1} det G_{i-1}) / (det G_i ||d1||), where
        G_i is the Gram matrix of the first i derivatives and det G_0 = 1.
        With R_jj the Gram-Schmidt pivots of [d1 d2 d3 d4] (the diagonal
        of R in their QR factorization), det G_i is the product of R_jj^2
        over j <= i, so kappa_i = |R_{i+1,i+1}| / (|R_ii| |R_11|).

    Raises
    ------
    DegenerateInputError
        If some derivative is dependent on the earlier ones (R_jj^2 is at
        most 1e-12 times ||d_j||^2, a rule unchanged by the unit of time),
        the error names the first undefined curvature and carries the
        earlier, well-defined ones on its ``partial`` attribute. A planar
        curve, for example, has kappa_2 undefined because d3 lies in the
        span of d1 and d2.
    """
    _, r, dropped = _orthonormalize((d1, d2, d3, d4))
    defined = dropped[0] if dropped else 4
    if defined == 0:
        raise DegenerateInputError("first derivative is zero; kappa_1 is undefined")
    # In mantissa and exponent, so the product cannot overflow or underflow
    # where the curvature itself is in range; the bits are those of
    # r[i] / (r[i-1] * r[0]) wherever that does not.
    m, e = np.frexp(r)
    kappas = tuple(float(np.ldexp(m[i] / (m[i - 1] * m[0]), e[i] - e[i - 1] - e[0]))
                   for i in range(1, defined))
    if defined < 4:
        raise DegenerateInputError(
            f"kappa_{defined} is undefined: the Gram matrix of the first "
            f"{defined + 1} derivatives is numerically singular",
            partial=kappas,
        )
    return kappas


def curvatures_from_singular_values(sigma):
    """Asymptotic curvatures from a singular value sequence.

    In the wide-matrix limit kappa_i = sqrt(a_i) sigma_{i+1} / (sigma_1
    sigma_i) with a_i = ((i+1) / ((i+1) + (-1)^(i+1)))^2 (4 (i+1)^2 - 1) / 3,
    so a_1 = 20/9.
    """
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 1 or s.shape[0] < 2:
        raise ParameterError(
            f"need at least 2 singular values, got shape {s.shape}"
        )
    if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
        raise ParameterError("singular values must be positive and finite")
    if np.any(np.diff(s) > 0.0):
        raise ParameterError("singular values must be nonincreasing")
    out = []
    for i in range(1, s.shape[0]):
        j = i + 1
        a = (j / (j + (-1.0) ** j)) ** 2 * (4.0 * j * j - 1.0) / 3.0
        out.append(math.sqrt(a) * s[i] / (s[0] * s[i - 1]))
    return out


def discrete_orthopoly(delays: int, degree: int) -> np.ndarray:
    """Discrete orthonormal polynomials p1..p_degree, as the columns of a
    (delays, degree) array: column k holds the polynomial of degree k + 1.

    Evaluated on the centered integer grid n in {-p..p} with p =
    (delays - 1) / 2, for any degree up to p. These are the polynomials
    the delay-axis singular vectors of a centered Hankel matrix converge
    to: p_k is the orthonormalization of n, n^2, ..., n^k, with a positive
    leading coefficient. They come from the Arnoldi recurrence
    (Brubeck, Nakatsukasa and Trefethen, SIAM Review 63(2), 2021): p1 =
    n / ||n||, and p_{k+1} is n * p_k projected off p1..p_k twice
    (``linalg._project_twice``), then normalized. The second projection
    keeps them orthonormal to rounding at high degree, where the
    monomials themselves are far too ill conditioned to orthonormalize.
    """
    check_int("delays", delays)
    check_int("degree", degree)
    if delays % 2 == 0 or delays < 3:
        raise ParameterError(f"delays must be odd and >= 3, got {delays}")
    if degree < 1:
        raise ParameterError(f"degree must be >= 1, got {degree}")
    p = (delays - 1) // 2
    if p < degree:
        raise ParameterError(
            f"half-width (delays-1)/2 = {p} must be >= degree {degree}"
        )
    grid = np.arange(-p, p + 1, dtype=float)
    q = np.empty((delays, degree))
    q[:, 0] = grid / np.linalg.norm(grid)
    for k in range(1, degree):
        v = grid * q[:, k - 1]
        q[:, k] = v / _project_twice(v, q[:, :k])[1]
    return q


def curvatures_from_model(a_continuous, speed: float) -> ModelCurvatures:
    """Speed-normalize a fitted generator and read off its superdiagonal.

    K = a_continuous / speed has the curvatures on its first
    superdiagonal; the subdiagonal carries their negation only
    approximately, so the superdiagonal alone is the estimate. A K that
    overflows float64 (a speed far below the generator's entries) raises
    NumericalError.
    """
    a = as_matrix(a_continuous, name="a_continuous")
    if a.shape[0] != a.shape[1]:
        raise ParameterError(f"matrix must be square, got shape {a.shape}")
    check_positive("speed", speed)
    with np.errstate(over="ignore"):
        k = a / float(speed)
    if not np.all(np.isfinite(k)):
        raise NumericalError(
            f"a_continuous / speed overflows float64 (speed {float(speed):.3e})")
    return ModelCurvatures(k_matrix=k)
