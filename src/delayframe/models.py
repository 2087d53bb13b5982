"""Linear delay-coordinate models fit on Hankel singular vectors.

Two fitting procedures are provided. The single-decomposition variant
(``havok``) takes one SVD of the centered Hankel matrix and regresses
time-shifted rows of V^T against each other; its regressors are one basis
expressed at two times, so the fitted matrix picks up a systematic
symmetric distortion. The split variant (``shavok``) decomposes the two
time-shifted column halves separately, giving each side of the regression
its own orthonormal basis; the result is markedly closer to the
skew-symmetric tridiagonal generator the underlying geometry predicts.

Both support an optional scalar forcing term: the state keeps the first
r - 1 delay coordinates and the r-th acts as an exogenous input, which is
the standard closure for chaotic systems that a finite-rank linear model
cannot capture.

Sign conventions: on top of the per-vector SVD sign fix, fitted models are
canonicalized by flipping singular pairs so the superdiagonal of the
dynamics matrix is nonnegative. Curvatures are nonnegative by definition,
so this pins the frame orientation that the geometry predicts without
changing the fit quality, the spectrum, or any subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedding import TimeSeries, build_hankel, center_hankel, split_shift
from .errors import DegenerateRankError, ParameterError
from .linalg import Spectrum, SvdTriple, eigen_nonsymmetric, pseudo_inverse, thin_svd

__all__ = [
    "FitConfig",
    "DelayModel",
    "fit",
    "fit_havok",
    "fit_shavok",
    "log_mapped_spectrum",
    "reconstruct",
    "forcing_signal",
]

# A requested dimension whose singular value falls below this fraction of
# sigma_1 means the data cannot support the state space.
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class FitConfig:
    """Everything that determines a fit besides the data itself.

    ``dt`` may be left None to take the series' own step; if both are
    given they must agree. ``rank`` counts retained singular vectors; with
    ``forcing`` on, the model state is the first rank - 1 coordinates and
    the last one drives them.
    """

    delays: int
    rank: int
    dt: float | None = None
    centering: bool = True
    forcing: bool = True
    method: str = "havok"
    derivative_scheme: str = "forward"

    def __post_init__(self):
        for name in ("delays", "rank"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ParameterError(f"{name} must be an integer, got {v!r}")
        if self.delays < 2:
            raise ParameterError(f"delays must be >= 2, got {self.delays}")
        if not 2 <= self.rank <= self.delays:
            raise ParameterError(
                f"rank must be in [2, delays={self.delays}], got {self.rank}"
            )
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ParameterError(f"dt must be positive and finite, got {self.dt}")
        if self.method not in ("havok", "shavok"):
            raise ParameterError(
                f"method must be 'havok' or 'shavok', got {self.method!r}"
            )
        if self.derivative_scheme not in ("forward", "central"):
            raise ParameterError(
                "derivative_scheme must be 'forward' or 'central', "
                f"got {self.derivative_scheme!r}"
            )

    @property
    def state_dim(self) -> int:
        return self.rank - 1 if self.forcing else self.rank


@dataclass(frozen=True)
class DelayModel:
    """Fitted linear model of delay-coordinate dynamics.

    ``a_discrete`` maps v_k to v_{k+1}; ``a_continuous`` = (a_discrete -
    I)/dt is its generator. With forcing, ``b_discrete``/``b_continuous``
    couple the forcing signal into the state; both are None otherwise.
    ``speed`` is the central-difference estimate of the embedded curve's
    velocity norm, present only for centered fits. ``residual`` is the
    largest one-step prediction error norm over the fitted window, and
    ``t0`` is the time of the first column's window center. ``basis`` is
    the sign-canonicalized rank-r SVD the regression ran on (for the split
    method, that of the first half). ``spectrum`` holds the eigenvalues of
    ``a_continuous``; log_mapped_spectrum gives the ln(lambda)/dt map of
    ``a_discrete`` instead, and the two agree to O(dt).
    """

    a_discrete: np.ndarray = field(repr=False)
    a_continuous: np.ndarray = field(repr=False)
    b_discrete: np.ndarray | None
    b_continuous: np.ndarray | None
    basis: SvdTriple = field(repr=False)
    spectrum: Spectrum = field(repr=False)
    config: FitConfig
    dt: float
    t0: float
    speed: float | None
    residual: float

    @property
    def state_dim(self) -> int:
        return self.a_discrete.shape[0]


def _resolve_dt(x: TimeSeries, config: FitConfig) -> float:
    if config.dt is None:
        return x.dt
    if abs(config.dt - x.dt) > 1e-9 * max(config.dt, x.dt):
        raise ParameterError(
            f"config dt = {config.dt} disagrees with the series dt = {x.dt}"
        )
    return x.dt


def _check_arguments(x, config):
    if not isinstance(x, TimeSeries):
        raise ParameterError(f"expected a TimeSeries, got {type(x).__name__}")
    if not isinstance(config, FitConfig):
        raise ParameterError(f"expected a FitConfig, got {type(config).__name__}")
    columns = len(x) - config.delays + 1
    if config.delays > len(x):
        raise ParameterError(
            f"delays = {config.delays} exceeds the series length {len(x)}"
        )
    # The shift regression consumes one column; both methods need at
    # least rank + 1 columns to be overdetermined at all.
    if columns < config.rank + 1:
        raise ParameterError(
            f"series yields {columns} columns; need at least rank + 1 = "
            f"{config.rank + 1}"
        )


def _guarded_svd(matrix, rank, state_dim):
    svd = thin_svd(matrix, rank)
    if svd.sigma[0] <= 0.0:
        raise DegenerateRankError(
            "matrix is numerically zero; the signal has no variation"
        )
    if svd.sigma[state_dim - 1] < _RANK_TOL * svd.sigma[0]:
        raise DegenerateRankError(
            f"numerical rank is below the requested state dimension "
            f"{state_dim}: sigma_{state_dim}/sigma_1 = "
            f"{svd.sigma[state_dim - 1] / svd.sigma[0]:.3e}"
        )
    return svd


def _speed_from_center(center_row, dt):
    d = (center_row[2:] - center_row[:-2]) / (2.0 * dt)
    return float(np.linalg.norm(d))


def _band_orientation(a_ext):
    """Sign flips making the superdiagonal nonnegative, chained from s_1 = 1."""
    r = a_ext.shape[1]
    s = np.ones(r)
    for i in range(min(a_ext.shape[0], r - 1)):
        entry = a_ext[i, i + 1]
        s[i + 1] = s[i] * (1.0 if entry >= 0.0 else -1.0)
    return s


def _regress(v1_full, v2_state, dt, state_dim, scheme):
    """Extended system matrix [A | B] from shifted singular vector rows.

    v1_full has all rank rows over columns 1..n-1; v2_state the state rows
    over columns 2..n. Forward differencing fits the discrete map
    directly; central differencing fits the derivative (v2 - v1)/dt
    against state midpoints (the forcing row, which has no second-basis
    counterpart in the split method, enters at the left endpoint). Either
    way both the discrete and continuous extended matrices are returned,
    related exactly by a_ext_discrete = I_pad + dt * a_ext_continuous.
    """
    rank = v1_full.shape[0]
    pad = np.eye(state_dim, rank)
    if scheme == "forward":
        ext_discrete = v2_state @ pseudo_inverse(v1_full)
        ext_continuous = (ext_discrete - pad) / dt
    else:
        deriv = (v2_state - v1_full[:state_dim]) / dt
        mid = v1_full.copy()
        mid[:state_dim] = 0.5 * (v1_full[:state_dim] + v2_state)
        ext_continuous = deriv @ pseudo_inverse(mid)
        ext_discrete = pad + dt * ext_continuous
    return ext_discrete, ext_continuous


def _assemble(ext_discrete, ext_continuous, basis, dt, t0, speed, config,
              v1_full, v2_state, forcing_row):
    state_dim = config.state_dim
    a_discrete = ext_discrete[:, :state_dim].copy()
    a_continuous = ext_continuous[:, :state_dim].copy()
    if config.forcing:
        sigma_r = float(basis.sigma[config.rank - 1])
        if sigma_r <= 0.0:
            raise DegenerateRankError(
                "forcing direction has zero singular value"
            )
        # The regression sees the unit-norm row v_r; the stored vectors
        # are rescaled so that b pairs with the physical-amplitude
        # forcing signal sigma_r * v_r.
        b_discrete = ext_discrete[:, state_dim].copy() / sigma_r
        b_continuous = ext_continuous[:, state_dim].copy() / sigma_r
        predicted = a_discrete @ v1_full[:state_dim] + np.outer(
            b_discrete, sigma_r * forcing_row
        )
    else:
        b_discrete = None
        b_continuous = None
        predicted = a_discrete @ v1_full
    residual = float(np.max(np.linalg.norm(v2_state - predicted, axis=0)))
    return DelayModel(
        a_discrete=a_discrete,
        a_continuous=a_continuous,
        b_discrete=b_discrete,
        b_continuous=b_continuous,
        basis=basis,
        spectrum=eigen_nonsymmetric(a_continuous),
        config=config,
        dt=dt,
        t0=t0,
        speed=speed,
        residual=residual,
    )


def fit(x: TimeSeries, config: FitConfig) -> DelayModel:
    """Dispatch to fit_havok or fit_shavok on config.method."""
    if not isinstance(config, FitConfig):
        raise ParameterError(f"expected a FitConfig, got {type(config).__name__}")
    if config.method == "havok":
        return fit_havok(x, config)
    return fit_shavok(x, config)


def fit_havok(x: TimeSeries, config: FitConfig) -> DelayModel:
    """Single-decomposition fit on the (optionally centered) Hankel matrix.

    One SVD supplies the reduced trajectory V^T; the dynamics matrix is
    the least-squares map from its columns 1..n-1 to the state rows of
    columns 2..n. With forcing, the regressors keep all rank rows while
    the response keeps the first rank - 1, so the last column of the
    extended solution is the forcing coupling.
    """
    _check_arguments(x, config)
    if config.method != "havok":
        raise ParameterError(f"fit_havok requires method 'havok', got {config.method!r}")
    dt = _resolve_dt(x, config)
    embedding = build_hankel(x, config.delays)
    speed = None
    if config.centering:
        embedding = center_hankel(embedding)
        speed = _speed_from_center(embedding.center_row, dt)
    svd = _guarded_svd(embedding.matrix, config.rank, config.state_dim)
    vt = svd.v.T.copy()
    u = svd.u.copy()
    state_dim = config.state_dim
    v1_full = vt[:, :-1]
    v2_state = vt[:state_dim, 1:]
    ext_discrete, ext_continuous = _regress(
        v1_full, v2_state, dt, state_dim, config.derivative_scheme
    )
    signs = _band_orientation(ext_discrete)
    vt *= signs[:, None]
    u *= signs[None, :]
    ext_discrete = signs[:state_dim, None] * ext_discrete * signs[None, :]
    ext_continuous = signs[:state_dim, None] * ext_continuous * signs[None, :]
    basis = SvdTriple(u=u, sigma=svd.sigma, v=vt.T.copy(), rank=config.rank)
    t0 = x.t0 + 0.5 * (config.delays - 1) * dt
    return _assemble(
        ext_discrete, ext_continuous, basis, dt, t0, speed, config,
        vt[:, :-1], vt[:state_dim, 1:], vt[config.rank - 1, :-1],
    )


def fit_shavok(x: TimeSeries, config: FitConfig) -> DelayModel:
    """Split-decomposition fit: separate SVDs for the two Hankel halves.

    The centered matrix is split into columns 1..n-1 and 2..n, each half
    gets its own SVD (ranks r and r, or r and r-1 with forcing), the
    second basis is sign-aligned to the first, and the dynamics matrix is
    V2^T V1. Because the first half's right singular vectors are
    orthonormal, that product is already the least-squares solution.
    """
    _check_arguments(x, config)
    if config.method != "shavok":
        raise ParameterError(
            f"fit_shavok requires method 'shavok', got {config.method!r}"
        )
    dt = _resolve_dt(x, config)
    embedding = build_hankel(x, config.delays)
    speed = None
    if config.centering:
        embedding = center_hankel(embedding)
        speed = _speed_from_center(embedding.center_row, dt)
    first, second = split_shift(embedding)
    state_dim = config.state_dim
    svd1 = _guarded_svd(first.matrix, config.rank, state_dim)
    svd2 = _guarded_svd(second.matrix, state_dim, state_dim)
    u1 = svd1.u.copy()
    v1t = svd1.v.T.copy()
    u2 = svd2.u.copy()
    v2t = svd2.v.T.copy()
    # The halves are nearly identical, so matched singular pairs should
    # point the same way; realign the second basis where they do not.
    for j in range(state_dim):
        if float(u1[:, j] @ u2[:, j]) < 0.0:
            u2[:, j] = -u2[:, j]
            v2t[j] = -v2t[j]
    ext_discrete, ext_continuous = _regress(
        v1t, v2t, dt, state_dim, config.derivative_scheme
    )
    signs = _band_orientation(ext_discrete)
    v1t *= signs[:, None]
    u1 *= signs[None, :]
    v2t *= signs[:state_dim, None]
    u2 *= signs[None, :state_dim]
    ext_discrete = signs[:state_dim, None] * ext_discrete * signs[None, :]
    ext_continuous = signs[:state_dim, None] * ext_continuous * signs[None, :]
    basis = SvdTriple(u=u1, sigma=svd1.sigma, v=v1t.T.copy(), rank=config.rank)
    t0 = x.t0 + 0.5 * (config.delays - 1) * dt
    return _assemble(
        ext_discrete, ext_continuous, basis, dt, t0, speed, config,
        v1t, v2t, v1t[config.rank - 1],
    )


def log_mapped_spectrum(model: DelayModel) -> np.ndarray:
    """Eigenvalues of a_discrete mapped by omega = ln(lambda)/dt.

    Exact for a model that is itself a sampled linear flow, where
    (lambda - 1)/dt carries an O(dt) bias.
    """
    if not isinstance(model, DelayModel):
        raise ParameterError(f"expected a DelayModel, got {type(model).__name__}")
    lam = eigen_nonsymmetric(model.a_discrete).eigenvalues
    omega = np.log(lam.astype(complex)) / model.dt
    order = np.lexsort((omega.real, omega.imag))
    return omega[order]


def reconstruct(model: DelayModel, v0, steps: int, forcing_series=None) -> np.ndarray:
    """Roll the discrete model forward from v0.

    Returns ``steps`` state snapshots with row 0 equal to v0, so
    ``steps - 1`` transitions are taken; a forced model needs that many
    forcing values. Feeding back the model's own forcing_signal values
    reproduces the fitted V columns to within the stored residual.
    """
    if not isinstance(model, DelayModel):
        raise ParameterError(f"expected a DelayModel, got {type(model).__name__}")
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (model.state_dim,):
        raise ParameterError(
            f"v0 must have shape ({model.state_dim},), got {v0.shape}"
        )
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool):
        raise ParameterError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    forced = model.b_discrete is not None
    if forced and steps > 1:
        if forcing_series is None:
            raise ParameterError(
                "this model was fit with forcing; pass a forcing_series "
                f"of at least {steps - 1} values"
            )
        f = np.asarray(forcing_series, dtype=float)
        if f.ndim != 1 or f.shape[0] < steps - 1:
            raise ParameterError(
                f"forcing_series must hold at least steps - 1 = {steps - 1} "
                f"values, got shape {f.shape}"
            )
    elif not forced and forcing_series is not None:
        raise ParameterError("model has no forcing input; forcing_series given")
    out = np.empty((steps, model.state_dim))
    out[0] = v0
    v = v0.copy()
    for k in range(steps - 1):
        v = model.a_discrete @ v
        if forced:
            v += model.b_discrete * f[k]
        out[k + 1] = v
    return out


def forcing_signal(model: DelayModel) -> TimeSeries:
    """The forcing time series the model was fit against.

    This is the r-th delay coordinate at physical amplitude, sigma_r times
    the unit-norm singular vector row, sampled at the model's dt and
    aligned with the fitted columns (value k belongs to column k).
    """
    if not isinstance(model, DelayModel):
        raise ParameterError(f"expected a DelayModel, got {type(model).__name__}")
    if model.b_discrete is None:
        raise ParameterError("model was fit without forcing")
    r = model.config.rank
    values = model.basis.sigma[r - 1] * model.basis.v[:, r - 1]
    return TimeSeries(t0=model.t0, dt=model.dt, values=values)
