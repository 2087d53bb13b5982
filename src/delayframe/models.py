"""Linear delay-coordinate models fit on Hankel singular vectors.

One pipeline, ``fit``, serves both methods of the paper; they differ only
in where the regression's two bases come from. The single-decomposition
method (``havok``) takes one SVD of the centered Hankel matrix and
regresses the columns of V (one row per window) at window k + 1 on
those at window k; its regressors are one basis expressed at two times,
so the fitted matrix picks up a systematic symmetric distortion. The
split method (``shavok``) decomposes the two time-shifted column halves
separately, giving each side of the regression its own orthonormal basis;
the result is markedly closer to the skew-symmetric tridiagonal generator
the underlying geometry predicts.

Both methods support an optional scalar forcing term: the state keeps the
first r - 1 delay coordinates and the r-th acts as an exogenous input,
which is the standard closure for chaotic systems that a finite-rank
linear model cannot capture.

Sign conventions: on top of the per-vector SVD sign fix, fitted models are
canonicalized by flipping singular pairs so the superdiagonal of the
dynamics matrix is nonnegative. Curvatures are nonnegative by definition,
so this pins the frame orientation that the geometry predicts without
changing the fit quality, the spectrum, or any subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# fit does not call center_hankel (thin_svd centers the window itself), but
# perfbench/spans.py looks center_hankel up in this module to trace it, so
# it stays imported here.
from .embedding import (
    TimeSeries,
    build_hankel,
    center_hankel,
    center_index,
    center_row,
    split_shift,
)
from .errors import (
    DegenerateRankError, NumericalError, ParameterError, check_instance, check_int,
)
from .geometry import central_difference
from .linalg import (
    Spectrum, SvdTriple, _BLOCK_ROWS, _scale, eigen_nonsymmetric, pseudo_inverse,
    thin_svd,
)

__all__ = [
    "FitConfig",
    "DelayModel",
    "fit",
    "log_mapped_spectrum",
    "reconstruct",
    "forcing_signal",
]

# A requested dimension whose singular value falls below this fraction of
# sigma_1 means the data cannot support the state space.
_RANK_TOL = 1e-12

# Transitions per block of reconstruct's rollout: A^1..A^L are formed once
# per call, and each block is one row of the rollout's product.
_BLOCK = 64


@dataclass(frozen=True)
class FitConfig:
    """Everything that determines a fit besides the data itself.

    The sampling step is the series' own ``dt``, so it is not set here.
    ``rank`` counts retained singular vectors; with ``forcing`` on, the
    model state is the first rank - 1 coordinates and the last one drives
    them.
    """

    delays: int
    rank: int
    centering: bool = True
    forcing: bool = True
    method: str = "havok"
    derivative_scheme: str = "forward"

    def __post_init__(self):
        check_int("delays", self.delays)
        check_int("rank", self.rank)
        if self.delays < 2:
            raise ParameterError(f"delays must be >= 2, got {self.delays}")
        if not 2 <= self.rank <= self.delays:
            raise ParameterError(
                f"rank must be in [2, delays={self.delays}], got {self.rank}"
            )
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


def _check_arguments(x, config):
    check_instance(config, FitConfig)
    check_instance(x, TimeSeries)
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


def _guarded_svd(matrix, rank, state_dim, center):
    svd = thin_svd(matrix, rank, center=center)
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


def _norm(d):
    """Euclidean norm of ``d``, which ``_scale`` scales in place exactly so
    no square overflows or underflows."""
    exponent = _scale(d)
    return 0.0 if exponent is None else float(np.ldexp(np.linalg.norm(d), exponent))


def _band_orientation(a_ext):
    """Sign flips making the superdiagonal nonnegative, chained from s_1 = 1."""
    r = a_ext.shape[1]
    s = np.ones(r)
    for i in range(min(a_ext.shape[0], r - 1)):
        entry = a_ext[i, i + 1]
        s[i + 1] = s[i] * (1.0 if entry >= 0.0 else -1.0)
    return s


def _regress(v1, v2, dt, state_dim, scheme):
    """Extended system matrix [A | B] from shifted singular vectors.

    v1 holds all rank columns of V over windows 1..n-1; v2 the state
    columns over windows 2..n. Forward differencing fits the discrete map
    directly; central differencing fits the derivative (v2 - v1)/dt
    against state midpoints (the forcing column, which has no second-basis
    counterpart in the split method, enters at the left endpoint). Either
    way both the discrete and continuous extended matrices are returned,
    related exactly by a_ext_discrete = I_pad + dt * a_ext_continuous.

    Each least-squares solution goes through the rank x rank normal
    matrix, ``(y.T @ v) @ pinv(v.T @ v)``, which equals ``y.T @ pinv(v.T)``
    and takes no SVD of the long columns. Squaring makes pseudo_inverse's
    1e-12 cutoff act on sigma(v)^2; the columns of v1 are nearly
    orthonormal (for the split method, exactly), so cond(v) is about 1
    and no direction comes near the cutoff.
    """
    rank = v1.shape[1]
    pad = np.eye(state_dim, rank)
    if scheme == "forward":
        ext_discrete = (v2.T @ v1) @ pseudo_inverse(v1.T @ v1)
        ext_continuous = (ext_discrete - pad) / dt
    else:
        deriv = (v2 - v1[:, :state_dim]) / dt
        mid = v1.copy()
        mid[:, :state_dim] = 0.5 * (v1[:, :state_dim] + v2)
        ext_continuous = (deriv.T @ mid) @ pseudo_inverse(mid.T @ mid)
        ext_discrete = pad + dt * ext_continuous
    return ext_discrete, ext_continuous


def _assemble(ext_discrete, ext_continuous, svd, v1, v2, dt, t0, speed,
              config):
    """Band-orient the regression's extended matrices and build the model.

    The residual is taken in the regression's own frame: the prediction
    of each window is one product with the extended matrix, [A | B] @ v1^T,
    whose forcing column already pairs with the unit-norm v_r. The
    orientation then multiplies rows and columns by exact signs, which
    leaves every window's prediction error norm unchanged.
    """
    state_dim = config.state_dim
    if config.forcing:
        sigma_r = float(svd.sigma[config.rank - 1])
        if sigma_r <= 0.0:
            raise DegenerateRankError(
                "forcing direction has zero singular value"
            )
    # The error of _BLOCK_ROWS windows at a time overwrites their prediction
    # and is squared in place: the operations of np.linalg.norm(axis=0),
    # with no temporary the length of V. The prediction is formed transposed,
    # one column per window, because summing each window's few squares
    # along a row took three times as long.
    residual = 0.0
    for start in range(0, v2.shape[0], _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        error = ext_discrete @ v1[block].T
        np.square(np.subtract(v2[block].T, error, out=error), out=error)
        residual = max(residual, float(np.max(np.sqrt(np.add.reduce(error, axis=0)))))
    signs = _band_orientation(ext_discrete)
    row, col = signs[:state_dim, None], signs[None, :]
    ext_discrete, ext_continuous = row * ext_discrete * col, row * ext_continuous * col
    a_continuous = ext_continuous[:, :state_dim].copy()
    # fit owns svd, and v1 and v2 may be views of svd.v: flip in place,
    # after the residual has read them.
    np.multiply(svd.u, signs, out=svd.u)
    np.multiply(svd.v, signs, out=svd.v)
    b_discrete = b_continuous = None
    if config.forcing:
        # The regression sees the unit-norm column v_r; the stored vectors
        # are rescaled so that b pairs with the physical-amplitude
        # forcing signal sigma_r * v_r.
        b_discrete = ext_discrete[:, state_dim] / sigma_r
        b_continuous = ext_continuous[:, state_dim] / sigma_r
    return DelayModel(
        a_discrete=ext_discrete[:, :state_dim].copy(),
        a_continuous=a_continuous,
        b_discrete=b_discrete,
        b_continuous=b_continuous,
        basis=svd,
        spectrum=eigen_nonsymmetric(a_continuous),
        config=config,
        dt=dt,
        t0=t0,
        speed=speed,
        residual=residual,
    )


def fit(x: TimeSeries, config: FitConfig) -> DelayModel:
    """Fit a linear model in delay coordinates.

    One pipeline serves both methods: build the Hankel window, take the
    bases of it (centered on request), regress, orient the band. The
    window is a view of the series. When it has no more delays than
    columns, as in the paper's regime, ``thin_svd`` takes its products
    with the (centered) window from the series itself, so neither the
    Hankel matrix nor its centered copy is ever formed; a window with
    more delays than columns is copied and factorized as a matrix. The
    regression maps the reduced coordinates of windows 1..n-1 (all rank
    columns of V) to the state columns of windows 2..n; with forcing, the
    last column of its solution is the forcing coupling. ``config.method``
    picks only where the two bases come from: ``havok`` reads one SVD's V
    at two shifts, ``shavok`` takes one SVD of each shifted column half
    (ranks r and state_dim), the second sign-aligned to the first. Either
    way the regression reads the SVDs' own V through views; no copy of a
    basis as long as the series is made.
    """
    _check_arguments(x, config)
    dt = x.dt
    embedding = build_hankel(x, config.delays)
    center = speed = None
    if config.centering:
        center = center_index(config.delays)
        speed = _norm(central_difference(center_row(x, config.delays), dt))
    state_dim = config.state_dim
    if config.method == "havok":
        svd = _guarded_svd(embedding.matrix, config.rank, state_dim, center)
        v1, v2 = svd.v[:-1], svd.v[1:, :state_dim]
    else:
        first, second = split_shift(embedding)
        svd = _guarded_svd(first.matrix, config.rank, state_dim, center)
        second_svd = _guarded_svd(second.matrix, state_dim, state_dim, center)
        v1, v2 = svd.v, second_svd.v
        # The halves are nearly identical, so matched singular pairs should
        # point the same way; realign the second basis, which fit owns,
        # where they do not.
        for j in range(state_dim):
            if float(svd.u[:, j] @ second_svd.u[:, j]) < 0.0:
                np.negative(v2[:, j], out=v2[:, j])
    ext_discrete, ext_continuous = _regress(
        v1, v2, dt, state_dim, config.derivative_scheme
    )
    t0 = x.t0 + 0.5 * (config.delays - 1) * dt
    return _assemble(
        ext_discrete, ext_continuous, svd, v1, v2, dt, t0, speed, config,
    )


def log_mapped_spectrum(model: DelayModel) -> np.ndarray:
    """Eigenvalues of a_discrete mapped by omega = ln(lambda)/dt.

    Exact for a model that is itself a sampled linear flow, where
    (lambda - 1)/dt carries an O(dt) bias. An eigenvalue 0 has no
    logarithm: it raises NumericalError.
    """
    check_instance(model, DelayModel)
    lam = eigen_nonsymmetric(model.a_discrete).eigenvalues
    if np.any(lam == 0.0):
        raise NumericalError("a_discrete has the eigenvalue 0, which has no "
                             "logarithm")
    omega = np.log(lam.astype(complex)) / model.dt
    order = np.lexsort((omega.real, omega.imag))
    return omega[order]


def reconstruct(model: DelayModel, v0, steps: int, forcing_series=None) -> np.ndarray:
    """Roll the discrete model v_{k+1} = A v_k + b f_k forward from v0.

    Returns ``steps`` state snapshots with row 0 equal to v0, so
    ``steps - 1`` transitions are taken; a forced model needs that many
    forcing values, and any beyond them are ignored. Feeding back the
    model's own forcing_signal values reproduces the fitted V columns to
    within the stored residual.

    The recurrence is evaluated in blocks of L = ``_BLOCK`` transitions,
    not one matvec per step. Row j of a block that starts from state s is
    A^j s + sum_{i<j} A^(j-1-i) b f_i. The powers A^1..A^L and g_i = A^i b
    are formed once by repeated products. The start states are chained by
    one matvec per block, s <- A^L s plus the block's last forced row, and
    then every row is one product: each block's start state and forcing
    values against the stacked powers over the lower-triangular Toeplitz
    of g, written straight into the result. Only the order of the sums
    differs from the per-step recurrence: on models of spectral radius up
    to 1.01 the two agree within 1e-12 of the largest row entry (in
    practice about 1e-14).
    """
    check_instance(model, DelayModel)
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (model.state_dim,):
        raise ParameterError(
            f"v0 must have shape ({model.state_dim},), got {v0.shape}"
        )
    if not np.all(np.isfinite(v0)):
        raise ParameterError("v0 must be finite")
    check_int("steps", steps, minimum=1)
    forced = model.b_discrete is not None
    n = steps - 1
    if forced and n > 0:
        if forcing_series is None:
            raise ParameterError(
                "this model was fit with forcing; pass a forcing_series "
                f"of at least {n} values"
            )
        f = np.asarray(forcing_series, dtype=float)
        if f.ndim != 1 or f.shape[0] < n:
            raise ParameterError(
                f"forcing_series must hold at least steps - 1 = {n} "
                f"values, got shape {f.shape}"
            )
        # A NaN would also poison the earlier rows of its block, through
        # NaN * 0 in the Toeplitz product.
        if not np.all(np.isfinite(f[:n])):
            raise ParameterError(
                f"forcing_series must be finite over its first steps - 1 = "
                f"{n} values"
            )
    elif not forced and forcing_series is not None:
        raise ParameterError("model has no forcing input; forcing_series given")
    p = model.state_dim
    out = np.empty((steps, p))
    out[0] = v0
    if n == 0:
        return out
    full, tail = divmod(n, _BLOCK)
    blocks = full + (tail > 0)
    # Row j of a block is its coefficients (start state, then its forcing
    # values) times operator[:, j]: A^(j+1) transposed over column j of the
    # lower-triangular Toeplitz of g_i = A^i b.
    width = p + _BLOCK if forced else p
    coefficients = np.zeros((blocks, width))
    operator = np.zeros((width, _BLOCK, p))
    a = model.a_discrete
    power = np.eye(p)
    for j in range(_BLOCK):
        power = a @ power
        operator[:p, j] = power.T
    if forced:
        g = np.empty((_BLOCK, p))
        g[0] = model.b_discrete
        for i in range(1, _BLOCK):
            g[i] = a @ g[i - 1]
        for i in range(_BLOCK):
            operator[p + i, i:] = g[:_BLOCK - i]
        coefficients[:full, p:] = f[:full * _BLOCK].reshape(full, _BLOCK)
        coefficients[full:, p:p + tail] = f[full * _BLOCK:n]
        last_forced = coefficients[:, p:] @ operator[p:, -1]
    s = v0
    for k in range(blocks):
        coefficients[k, :p] = s
        s = power @ s
        if forced:
            s += last_forced[k]
    operator = operator.reshape(width, _BLOCK * p)
    np.matmul(coefficients[:full], operator,
              out=out[1:1 + full * _BLOCK].reshape(full, _BLOCK * p))
    if tail:
        last = coefficients[full] @ operator[:, :tail * p]
        out[1 + full * _BLOCK:] = last.reshape(tail, p)
    return out


def forcing_signal(model: DelayModel) -> TimeSeries:
    """The forcing time series the model was fit against.

    This is the r-th delay coordinate at physical amplitude, sigma_r times
    the unit-norm singular vector (column r of V), sampled at the model's
    dt and aligned with the fitted columns (value k belongs to column k).
    """
    check_instance(model, DelayModel)
    if model.b_discrete is None:
        raise ParameterError("model was fit without forcing")
    r = model.config.rank
    values = model.basis.sigma[r - 1] * model.basis.v[:, r - 1]
    return TimeSeries(t0=model.t0, dt=model.dt, values=values)
