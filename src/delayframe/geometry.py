"""Moving-frame geometry: Frenet frames, curvature matrices, and the
discrete orthogonal polynomial bases that delay-coordinate models converge to.

Conventions used throughout:

* a frame is an ordered list of orthonormal vectors e1..er built from the
  successive derivatives of a curve by Gram-Schmidt;
* the curvature matrix K = (1/speed) (dQ/dt) Q^T is skew-symmetric with the
  curvatures on its first off-diagonals;
* derivative estimates from sampled data use second-order central
  differences, which trim one sample per end per differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError, DegenerateInputError, ParameterError, check_int, check_positive,
)
from .linalg import as_matrix, gram_schmidt

__all__ = [
    "FrenetApparatus",
    "PolynomialBasis",
    "CurvatureMatrixEstimate",
    "ModelCurvatures",
    "central_difference",
    "derivative_stack",
    "frenet_frame",
    "curvature_matrix_from_frame",
    "analytic_curvatures_gram",
    "curvatures_from_singular_values",
    "discrete_orthopoly",
    "monomial_orthobasis",
    "curvatures_from_model",
]

# Relative pivot threshold below which a Gram matrix is treated as rank
# deficient (see analytic_curvatures_gram).
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
class PolynomialBasis:
    """Sampled orthonormal polynomials on the centered grid {-p..p}.

    Column k of ``vectors`` (shape (2p + 1, degree)) is the polynomial of
    degree k + 1.
    """

    vectors: np.ndarray = field(repr=False)

    @property
    def degrees(self) -> tuple:
        return tuple(range(1, self.vectors.shape[1] + 1))

    @property
    def half_width(self) -> int:
        return (self.vectors.shape[0] - 1) // 2


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
        return tuple(np.diag(self.k_matrix, 1))


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


def frenet_frame(derivatives) -> FrenetApparatus:
    """Orthonormal moving frame from an ordered derivative list.

    e1 is the normalized first derivative, later vectors follow by
    Gram-Schmidt. Dependent derivatives are dropped and reported through
    the ``dropped`` field rather than raising, so a straight line yields a
    rank-1 frame. A zero first derivative is degenerate.
    """
    arr = [np.asarray(d, dtype=float) for d in derivatives]
    if not arr:
        raise ParameterError("frenet_frame needs at least one derivative")
    dim = arr[0].shape
    for i, v in enumerate(arr):
        if v.ndim != 1 or v.shape != dim:
            raise ParameterError(
                f"derivative {i} has shape {v.shape}, expected {dim}"
            )
        if not np.all(np.isfinite(v)):
            raise DataError(f"derivative {i} contains non-finite entries")
    speed = float(np.linalg.norm(arr[0]))
    if speed == 0.0:
        raise DegenerateInputError("first derivative is zero; the frame is undefined")
    # Zero higher derivatives are dependent (a straight line has d2 = 0
    # exactly), so they drop with a report instead of raising.
    nonzero = [i for i, v in enumerate(arr) if np.linalg.norm(v) > 0.0]
    basis, dependent = gram_schmidt([arr[i] for i in nonzero])
    dropped = sorted(
        set(range(len(arr))).difference(nonzero) | {nonzero[j] for j in dependent}
    )
    return FrenetApparatus(frame=tuple(basis), speed=speed, dropped=tuple(dropped))


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


def _gram_determinants(columns):
    """Cholesky determinants of the nested Gram matrices G_1..G_q.

    Returns (dets, defined) where defined is the largest i such that G_i is
    numerically positive definite: Cholesky succeeds and no squared pivot
    falls below _PIVOT_TOL times the largest diagonal of G_i.
    """
    dets = []
    for i in range(1, columns.shape[1] + 1):
        g = columns[:, :i].T @ columns[:, :i]
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            return dets, i - 1
        pivots = np.diag(chol) ** 2
        if np.min(pivots) < _PIVOT_TOL * np.max(np.diag(g)):
            return dets, i - 1
        dets.append(float(np.prod(np.diag(chol)) ** 2))
    return dets, columns.shape[1]


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

    Raises
    ------
    DegenerateInputError
        If some G_i is numerically singular (Cholesky pivot collapse), the
        error names the first undefined curvature and carries the earlier,
        well-defined ones on its ``partial`` attribute. A planar curve,
        for example, has kappa_2 undefined because G_3 is singular.
    """
    vecs = []
    for name, d in (("d1", d1), ("d2", d2), ("d3", d3), ("d4", d4)):
        v = np.asarray(d, dtype=float)
        if v.ndim != 1:
            raise ParameterError(f"{name} must be 1-d, got ndim={v.ndim}")
        if not np.all(np.isfinite(v)):
            raise DataError(f"{name} contains non-finite entries")
        vecs.append(v)
    length = vecs[0].shape[0]
    for name, v in zip(("d2", "d3", "d4"), vecs[1:]):
        if v.shape[0] != length:
            raise ParameterError(
                f"{name} has length {v.shape[0]}, expected {length}"
            )
    columns = np.column_stack(vecs)
    dets, defined = _gram_determinants(columns)
    if defined == 0:
        raise DegenerateInputError("first derivative is zero; kappa_1 is undefined")
    speed = math.sqrt(dets[0])
    padded = [1.0] + dets
    kappas = []
    for i in range(1, min(defined, 4)):
        kappas.append(
            math.sqrt(padded[i + 1] * padded[i - 1]) / (padded[i] * speed)
        )
    if defined < 4:
        raise DegenerateInputError(
            f"kappa_{defined} is undefined: the Gram matrix of the first "
            f"{defined + 1} derivatives is numerically singular",
            partial=tuple(kappas),
        )
    return tuple(kappas)


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


def _closed_form_columns(p: int, degree: int, grid: np.ndarray):
    """The five closed-form orthonormal polynomial columns on {-p..p}."""
    n = grid
    cols = []
    if degree >= 1:
        c1 = math.sqrt(p * (2 * p + 1) * (p + 1) / 3.0)
        cols.append(n / c1)
    if degree >= 2:
        c2 = math.sqrt(p * (2 * p + 1) * (p + 1) * (3 * p**2 + 3 * p - 1) / 15.0)
        cols.append(n**2 / c2)
    if degree >= 3:
        c3 = math.sqrt(
            p * (2 * p - 1) * (2 * p + 1) * (2 * p + 3)
            * (p - 1) * (p + 1) * (p + 2) / 175.0
        )
        cols.append((n**3 - n * (3 * p**2 + 3 * p - 1) / 5.0) / c3)
    if degree >= 4:
        c4 = math.sqrt(
            p * (2 * p - 1) * (2 * p + 1) * (2 * p + 3)
            * (p - 1) * (p + 1) * (p + 2)
            * (15 * p**4 + 30 * p**3 - 35 * p**2 - 50 * p + 12)
            / (2205.0 * (3 * p**2 + 3 * p - 1))
        )
        cols.append(
            (n**4 - 5.0 * n**2 * (3 * p**4 + 6 * p**3 - 3 * p + 1)
             / (7.0 * (3 * p**2 + 3 * p - 1))) / c4
        )
    if degree >= 5:
        c5 = math.sqrt(
            4 * p * (2 * p - 1) * (2 * p + 1) * (2 * p - 3) * (2 * p + 3)
            * (2 * p + 5) * (p - 1) * (p + 1) * (p - 2) * (p + 2) * (p + 3)
            / 43659.0
        )
        cols.append(
            (5.0 * (n * (3 * p**2 + 3 * p - 1) / 5.0 - n**3)
             * (2 * p**2 + 2 * p - 3) / 9.0
             - n * (3 * p**4 + 6 * p**3 - 3 * p + 1) / 7.0
             + n**5) / c5
        )
    return cols


def _centered_grid(delays, degree, max_degree=None):
    """Validate (delays, degree) and return (p, the grid {-p..p}).

    ``max_degree`` bounds the degree for the closed forms; it is checked
    before the half-width, so a too-high degree reports that first.
    """
    check_int("delays", delays)
    check_int("degree", degree)
    if delays % 2 == 0 or delays < 3:
        raise ParameterError(f"delays must be odd and >= 3, got {delays}")
    if degree < 1:
        raise ParameterError(f"degree must be >= 1, got {degree}")
    if max_degree is not None and degree > max_degree:
        raise ParameterError(
            f"only degrees 1..{max_degree} have closed forms, got {degree}; "
            "use monomial_orthobasis for higher degrees"
        )
    p = (delays - 1) // 2
    if p < degree:
        raise ParameterError(
            f"half-width (delays-1)/2 = {p} must be >= degree {degree}"
        )
    return p, np.arange(-p, p + 1, dtype=float)


def discrete_orthopoly(delays: int, degree: int) -> PolynomialBasis:
    """Closed-form discrete orthonormal polynomials p1..p_degree.

    Evaluated on the centered integer grid n in {-p..p} with p =
    (delays - 1) / 2. These are the polynomials the delay-axis singular
    vectors of a centered Hankel matrix converge to. Only five closed
    forms exist; for higher degrees use monomial_orthobasis, which builds
    the same family by Gram-Schmidt (numerically, not symbolically,
    orthogonal).
    """
    p, grid = _centered_grid(delays, degree, max_degree=5)
    cols = _closed_form_columns(p, degree, grid)
    return PolynomialBasis(vectors=np.column_stack(cols))


def monomial_orthobasis(delays: int, degree: int) -> PolynomialBasis:
    """Gram-Schmidt orthonormalization of {n, n^2, ..., n^degree}.

    Serves arbitrary degrees; agrees with discrete_orthopoly where both
    are defined. Orthogonality holds numerically rather than by closed
    form.
    """
    _, grid = _centered_grid(delays, degree)
    monomials = [grid**k for k in range(1, degree + 1)]
    basis, dropped = gram_schmidt(monomials)
    if dropped:
        raise DegenerateInputError(
            f"monomial powers {dropped} are dependent on this grid"
        )
    # Sign convention: leading (highest-n) entry positive, matching the
    # closed forms, whose leading coefficient is positive.
    cols = [q if q[-1] >= 0.0 else -q for q in basis]
    return PolynomialBasis(vectors=np.column_stack(cols))


def curvatures_from_model(a_continuous, speed: float) -> ModelCurvatures:
    """Speed-normalize a fitted generator and read off its superdiagonal.

    K = a_continuous / speed has the curvatures on its first
    superdiagonal; the subdiagonal carries their negation only
    approximately, so the superdiagonal alone is the estimate.
    """
    a = as_matrix(a_continuous, name="a_continuous")
    if a.shape[0] != a.shape[1]:
        raise ParameterError(f"matrix must be square, got shape {a.shape}")
    check_positive("speed", speed)
    return ModelCurvatures(k_matrix=a / float(speed))
