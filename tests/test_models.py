import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayframe import diagnostics, linalg, models, systems
from delayframe.embedding import TimeSeries
from delayframe.errors import DegenerateRankError, NumericalError, ParameterError
from delayframe.linalg import SvdTriple, pseudo_inverse
from delayframe.models import FitConfig, fit


def _two_tone_segment(columns, delays=41, dt=0.001):
    spec = systems.SystemSpec(
        kind="two_tone", parameters={}, initial_state=(),
        dt=dt, samples=columns + delays - 1,
    )
    return systems.measure(systems.simulate(spec), "x")


# ---------------------------------------------------------------------------
# Configuration


def test_fit_config_validation():
    with pytest.raises(ParameterError):
        FitConfig(delays=1, rank=2)
    with pytest.raises(ParameterError):
        FitConfig(delays=10, rank=1)
    with pytest.raises(ParameterError):
        FitConfig(delays=10, rank=11)
    with pytest.raises(ParameterError):
        FitConfig(delays=10, rank=4, method="dmd")
    with pytest.raises(ParameterError):
        FitConfig(delays=10, rank=4, derivative_scheme="spectral")


def test_fit_config_state_dim():
    assert FitConfig(delays=41, rank=5).state_dim == 4
    assert FitConfig(delays=41, rank=5, forcing=False).state_dim == 5


def test_too_few_columns():
    x = _two_tone_segment(columns=3)
    with pytest.raises(ParameterError, match="column"):
        fit(x, FitConfig(delays=41, rank=4, forcing=False))


# ---------------------------------------------------------------------------
# Shapes, conventions, guards


def test_unforced_model_shapes(two_tone_models):
    m = two_tone_models["havok"]
    assert m.a_discrete.shape == (4, 4)
    assert m.a_continuous.shape == (4, 4)
    assert m.b_discrete is None and m.b_continuous is None
    assert m.basis.u.shape == (41, 4)
    assert m.basis.v.shape[1] == 4
    assert m.state_dim == 4


def test_forced_model_shapes(two_tone):
    m = fit(two_tone, FitConfig(delays=41, rank=5, forcing=True))
    assert m.state_dim == 4
    assert m.a_discrete.shape == (4, 4)
    assert m.b_discrete.shape == (4,)
    assert m.b_continuous.shape == (4,)
    np.testing.assert_allclose(m.b_continuous, m.b_discrete / m.dt)


def test_basis_orthonormality(two_tone_models):
    for m in two_tone_models.values():
        u, v = m.basis.u, m.basis.v
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(4), atol=1e-12)
        assert np.all(np.diff(m.basis.sigma) <= 0.0)


def test_basis_is_the_rank_r_svd_triple(two_tone, two_tone_models):
    forced = fit(two_tone, FitConfig(delays=41, rank=5, method="shavok"))
    for m in (*two_tone_models.values(), forced):
        assert isinstance(m.basis, SvdTriple)
        assert m.basis.rank == m.config.rank == m.basis.sigma.shape[0]
        assert m.basis.u.shape == (41, m.config.rank)


@pytest.mark.parametrize("method", ["havok", "shavok"])
@pytest.mark.parametrize("forcing", [True, False])
@pytest.mark.parametrize("centering", [True, False])
@pytest.mark.parametrize("scheme", ["forward", "central"])
def test_pipeline_conventions(method, forcing, centering, scheme):
    n = 2001
    x = _two_tone_segment(columns=n)
    cfg = FitConfig(delays=41, rank=5 if forcing else 4, centering=centering,
                    forcing=forcing, method=method, derivative_scheme=scheme)
    m = fit(x, cfg)
    # havok's basis spans all n columns; shavok's is the first half's.
    assert m.basis.v.shape[0] == (n if method == "havok" else n - 1)
    assert (m.speed is None) == (not centering)
    assert np.all(np.diag(m.a_continuous, 1) >= 0.0)
    for b in (m.b_discrete, m.b_continuous):
        assert (b.shape == (cfg.state_dim,)) if forcing else b is None
    np.testing.assert_allclose(
        m.a_discrete, np.eye(cfg.state_dim) + m.dt * m.a_continuous,
        rtol=1e-12, atol=1e-12,
    )


def test_superdiagonal_orientation(two_tone_models):
    # The band orientation convention makes curvature estimates positive.
    for m in two_tone_models.values():
        super_diag = np.diag(m.a_continuous, 1)
        assert np.all(super_diag > 0.0)


def test_model_timing(two_tone):
    m = fit(two_tone, FitConfig(delays=41, rank=4, forcing=False))
    assert m.dt == two_tone.dt
    assert m.t0 == pytest.approx(two_tone.t0 + 0.5 * 40 * two_tone.dt)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from(["havok", "shavok"]),
    st.booleans(),
)
def test_time_shift_leaves_the_fit_bit_identical(seed, t0, method, forcing):
    """Moving a series in time moves only the model's t0."""
    values = np.random.default_rng(seed).standard_normal(60)
    cfg = FitConfig(delays=7, rank=4, forcing=forcing, method=method)
    base = fit(TimeSeries(t0=0.0, dt=0.05, values=values), cfg)
    moved = fit(TimeSeries(t0=t0, dt=0.05, values=values), cfg)
    for name in ("a_discrete", "a_continuous", "b_discrete", "b_continuous"):
        a, b = getattr(base, name), getattr(moved, name)
        assert (a is None and b is None) or np.array_equal(a, b), name
    for a, b in ((base.basis.u, moved.basis.u),
                 (base.basis.sigma, moved.basis.sigma),
                 (base.basis.v, moved.basis.v),
                 (base.spectrum.eigenvalues, moved.spectrum.eigenvalues),
                 (base.spectrum.eigenvectors, moved.spectrum.eigenvectors)):
        assert np.array_equal(a, b)
    assert (base.speed, base.residual) == (moved.speed, moved.residual)
    assert moved.t0 == pytest.approx(t0 + 0.5 * (cfg.delays - 1) * 0.05)


def test_speed_requires_centering(two_tone):
    m = fit(two_tone, FitConfig(delays=41, rank=4, forcing=False,
                                centering=False))
    assert m.speed is None
    c = fit(two_tone, FitConfig(delays=41, rank=4, forcing=False))
    assert c.speed == pytest.approx(153.849, abs=1e-2)


def test_rank_guard_uses_state_dimension(two_tone):
    # Two tones give numerical rank 4. Rank 5 with forcing only needs a
    # 4-dimensional state, so it must fit; without forcing it must not.
    fit(two_tone, FitConfig(delays=41, rank=5, forcing=True))
    with pytest.raises(DegenerateRankError, match="sigma"):
        fit(two_tone, FitConfig(delays=41, rank=5, forcing=False))
    with pytest.raises(DegenerateRankError):
        fit(two_tone, FitConfig(delays=41, rank=6, forcing=True))


def _tone_with_faint_overtone(amplitude):
    dt = 0.01
    t = dt * np.arange(3000)
    return TimeSeries(t0=0.0, dt=dt, values=np.sin(t) + amplitude * np.sin(2.0 * t))


@pytest.mark.parametrize("method", ["havok", "shavok"])
def test_rank_guard_between_gram_floor_and_rank_tolerance(method, dense_svd,
                                                          monkeypatch):
    # An overtone at 1e-4 puts sigma_4 / sigma_1 near 7e-8: above the 1e-12
    # rank tolerance, below the 1e-6 where one Ritz pass would do. The fit
    # agrees with the dense SVD's fit to the factorization's sensitivity
    # eps * sigma_1 / sigma_4, norm-wise.
    cfg = FitConfig(delays=41, rank=4, forcing=False, method=method)
    x = _tone_with_faint_overtone(1e-4)
    m = fit(x, cfg)
    ratio = m.basis.sigma[3] / m.basis.sigma[0]
    assert 1e-12 < ratio < 1e-6
    # At 1e-10 the ratio falls to about 7e-14, under the rank tolerance.
    with pytest.raises(DegenerateRankError, match="sigma_4"):
        fit(_tone_with_faint_overtone(1e-10), cfg)
    monkeypatch.setattr(models, "thin_svd", dense_svd)
    ref = fit(x, cfg).a_continuous
    assert (np.linalg.norm(m.a_continuous - ref)
            <= np.finfo(float).eps / ratio * np.linalg.norm(ref))


@pytest.mark.parametrize("forcing", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("method", ["havok", "shavok"])
def test_tall_window_fit_matches_dense_svd_fit(method, forcing, dense_svd,
                                               monkeypatch):
    # 301 samples with 201 delays leave 101 columns (100 per sHAVOK half):
    # a window with more delays than columns, which thin_svd copies and
    # factorizes as a matrix. The ramp gives the forced fit a fifth
    # direction apart from the tone pairs. The fit agrees with the dense
    # SVD's fit to the factorization's sensitivity eps * sigma_1 / sigma_r,
    # norm-wise, on the discrete maps: the continuous ones divide the same
    # error by dt.
    dt = 0.03
    t = dt * np.arange(301)
    x = TimeSeries(t0=0.0, dt=dt,
                   values=np.sin(t) + 1e-2 * np.sin(2.0 * t) + 1e-3 * t)
    cfg = FitConfig(delays=201, rank=5 if forcing else 4, forcing=forcing,
                    method=method)

    def maps(model):
        if model.b_discrete is None:
            return model.a_discrete
        return np.column_stack([model.a_discrete, model.b_discrete])

    m = fit(x, cfg)
    assert m.basis.u.shape[0] > m.basis.v.shape[0]
    ratio = m.basis.sigma[-1] / m.basis.sigma[0]
    monkeypatch.setattr(models, "thin_svd", dense_svd)
    ref = maps(fit(x, cfg))
    assert (np.linalg.norm(maps(m) - ref)
            <= np.finfo(float).eps / ratio * np.linalg.norm(ref))


@pytest.mark.parametrize("method, overtone", [
    pytest.param("havok", 1.0, id="havok"),
    pytest.param("shavok", 1.0, id="shavok"),
    pytest.param("havok", 1e-6, id="havok-below-gram-floor"),
    pytest.param("shavok", 1e-6, id="shavok-below-gram-floor"),
])
def test_fit_holds_no_copy_of_the_hankel_matrix(method, overtone):
    # 201 delays x 10,000 columns: the Hankel matrix H would take 16.1 MB.
    # The fit factorizes a zero-copy window of the series, taking every
    # product with it (and the finiteness check) from the series itself,
    # so its traced peak stays below one eighth of H: the size of a boolean
    # mask of the window (holding H and its centered copy took two H). A
    # faint overtone puts sigma_4 below the Gram floor, where the Ritz
    # passes repeat on the same products.
    delays, columns = 201, 10_000
    t = 0.01 * np.arange(columns + delays - 1)
    x = TimeSeries(t0=0.0, dt=0.01,
                   values=np.sin(t) + overtone * np.sin(2.0 * t))
    cfg = FitConfig(delays=delays, rank=4, forcing=False, method=method)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        m = fit(x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < delays * columns
    if overtone < 1.0:
        assert m.basis.sigma[3] / m.basis.sigma[0] < 1e-6


@pytest.mark.parametrize("method, bound", [("havok", 1.9), ("shavok", 3.0)])
def test_fit_peak_memory_stays_near_its_v(method, bound):
    # A centered 41 x 50,001 window at rank 5: the regression and the
    # residual read thin_svd's own V through views, so the peak is that of
    # the factorizations (1.67 V for havok, 2.46 V for shavok, whose first
    # V is alive while the second half is factorized). Transposed copies of
    # each V took 2.15 V and 3.61 V.
    values = np.random.default_rng(7).standard_normal(50_041)
    x = TimeSeries(t0=0.0, dt=1.0, values=values)
    cfg = FitConfig(delays=41, rank=5, method=method)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        m = fit(x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert m.basis.v.shape[1] == 5
    assert peak < bound * m.basis.v.nbytes


@pytest.mark.parametrize("method, scheme", [
    ("havok", "forward"), ("havok", "central"), ("shavok", "forward"),
])
def test_regress_through_normal_matrix_matches_svd_pseudo_inverse(
        series_cache, monkeypatch, method, scheme):
    # The regression solves through the rank x rank normal matrix; on the
    # fit's own bases that agrees with the SVD pseudo-inverse of the long
    # columns to 1e-13, norm-wise. Its inputs are views of the SVDs' V.
    inputs, svds = [], []
    regress, factorize = models._regress, models.thin_svd

    def recording(*args):
        inputs.append(args)
        return regress(*args)

    def recording_svd(*args, **kwargs):
        svds.append(factorize(*args, **kwargs))
        return svds[-1]

    monkeypatch.setattr(models, "_regress", recording)
    monkeypatch.setattr(models, "thin_svd", recording_svd)
    fit(series_cache("lorenz_short"),
        FitConfig(delays=41, rank=5, method=method, derivative_scheme=scheme))
    (v1, v2, dt, state_dim, _), = inputs
    assert np.shares_memory(v1, svds[0].v)
    assert np.shares_memory(v2, svds[-1].v)
    ext_discrete, ext_continuous = regress(*inputs[0])
    if scheme == "forward":
        got, want = ext_discrete, v2.T @ pseudo_inverse(v1.T)
    else:
        mid = v1.copy()
        mid[:, :state_dim] = 0.5 * (v1[:, :state_dim] + v2)
        got = ext_continuous
        want = ((v2 - v1[:, :state_dim]) / dt).T @ pseudo_inverse(mid.T)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_constant_signal_rejected():
    x = TimeSeries(t0=0.0, dt=0.1, values=np.zeros(100))
    with pytest.raises(DegenerateRankError, match="no variation"):
        fit(x, FitConfig(delays=11, rank=3, forcing=False))


# ---------------------------------------------------------------------------
# Dynamics quality


def test_two_tone_frequencies(two_tone_models):
    for m in two_tone_models.values():
        freqs = np.sort(np.abs(m.spectrum.eigenvalues.imag))
        np.testing.assert_allclose(freqs[:2], 1.0, atol=0.1)
        np.testing.assert_allclose(freqs[2:], 2.0, atol=0.1)


def test_log_mapped_spectrum_matches_continuous(two_tone_models):
    m = two_tone_models["havok"]
    mapped = models.log_mapped_spectrum(m)
    dist = diagnostics.spectrum_distance(mapped, m.spectrum.eigenvalues)
    assert dist.mean_distance < 2e-3


def test_log_mapped_spectrum_of_a_zero_eigenvalue_is_an_error():
    # One spike in zeros: the forced model's A is 0, whose logarithm is
    # -inf (JSON has no such number).
    spike = TimeSeries(t0=0.0, dt=1.0, values=np.eye(1, 40, 1)[0])
    m = fit(spike, FitConfig(delays=5, rank=2))
    assert np.all(m.a_discrete == 0.0)
    with pytest.raises(NumericalError, match="eigenvalue 0"):
        models.log_mapped_spectrum(m)


def test_central_scheme_removes_damping_bias(two_tone):
    fwd = fit(two_tone, FitConfig(delays=41, rank=4, forcing=False))
    ctr = fit(two_tone, FitConfig(delays=41, rank=4, forcing=False,
                                  derivative_scheme="central"))
    # forward differencing damps each mode by about sigma*dt/2
    assert np.max(fwd.spectrum.eigenvalues.real) < -1e-4
    assert np.max(np.abs(ctr.spectrum.eigenvalues.real)) < 1e-6
    assert (diagnostics.antisymmetry_score(ctr.a_continuous)
            <= diagnostics.antisymmetry_score(fwd.a_continuous) + 1e-6)


@pytest.mark.parametrize("method", ["havok", "shavok"])
@pytest.mark.parametrize("forcing", [False, True])
def test_fit_does_not_depend_on_its_block_sizes(monkeypatch, method, forcing):
    # The fit's residual, and thin_svd's rotation and residual test, run
    # over blocks of rows of V; blocks of 7, with a ragged last one, give
    # the model of the default blocks. The 1e-6 overtone puts sigma_4
    # below the Gram floor, so the Ritz passes repeat.
    t = 0.01 * np.arange(10_000)
    x = TimeSeries(t0=0.0, dt=0.01, values=np.sin(t) + 1e-6 * np.sin(2.0 * t))
    cfg = FitConfig(delays=41, rank=4, method=method, forcing=forcing)
    base = fit(x, cfg)
    monkeypatch.setattr(models, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(linalg, "_BLOCK_ROWS", 7)
    small = fit(x, cfg)
    assert small.residual == pytest.approx(base.residual, rel=1e-12)
    np.testing.assert_allclose(small.basis.v, base.basis.v, rtol=0, atol=1e-14)
    np.testing.assert_allclose(small.a_continuous, base.a_continuous, rtol=1e-12)


def test_residual_small_on_clean_signal(two_tone_models):
    for m in two_tone_models.values():
        assert m.residual < 1e-6


def test_methods_converge_together():
    gaps = []
    for columns in (1001, 10001):
        x = _two_tone_segment(columns)
        h = fit(x, FitConfig(delays=41, rank=4, forcing=False))
        s = fit(x, FitConfig(delays=41, rank=4, forcing=False,
                             method="shavok"))
        gaps.append(np.linalg.norm(s.a_discrete - h.a_discrete))
    assert gaps[1] < gaps[0] / 10.0


# ---------------------------------------------------------------------------
# Rollouts and forcing


def test_forced_rollout_tracks_data(two_tone):
    m = fit(two_tone, FitConfig(delays=41, rank=5, forcing=True))
    f = models.forcing_signal(m)
    roll = models.reconstruct(
        m, m.basis.v[0, :m.state_dim], m.basis.v.shape[0], f.values
    )
    err = np.max(np.abs(roll - m.basis.v[:, :m.state_dim]))
    assert err < 1e-6


def test_unforced_rollout_tracks_data(two_tone_models):
    m = two_tone_models["havok"]
    roll = models.reconstruct(m, m.basis.v[0], m.basis.v.shape[0])
    err = np.max(np.abs(roll - m.basis.v))
    assert err < 1e-4


def test_reconstruct_validation(two_tone, two_tone_models):
    unforced = two_tone_models["havok"]
    forced = fit(two_tone, FitConfig(delays=41, rank=5, forcing=True))
    v0 = np.zeros(4)
    with pytest.raises(ParameterError):
        models.reconstruct(unforced, v0, 0)
    with pytest.raises(ParameterError):
        models.reconstruct(unforced, np.zeros(3), 5)
    with pytest.raises(ParameterError, match="forcing"):
        models.reconstruct(unforced, v0, 5, np.ones(4))
    with pytest.raises(ParameterError, match="forcing"):
        models.reconstruct(forced, v0, 5)
    with pytest.raises(ParameterError):
        models.reconstruct(forced, v0, 5, np.ones(3))  # needs steps-1
    out = models.reconstruct(forced, v0, 5, np.ones(4))
    assert out.shape == (5, 4)
    single = models.reconstruct(forced, v0, 1)
    np.testing.assert_array_equal(single, np.zeros((1, 4)))


def _per_step_rollout(a, b, v0, steps, forcing):
    """The recurrence v_{k+1} = A v_k + b f_k taken one matvec at a time."""
    out = np.empty((steps, a.shape[0]))
    out[0] = v0
    v = v0.copy()
    for k in range(steps - 1):
        v = a @ v
        if b is not None:
            v += b * forcing[k]
        out[k + 1] = v
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=1.01),
    st.one_of(st.sampled_from([1, 2, 64, 65, 129]),
              st.integers(min_value=1, max_value=2000)),
    st.booleans(),
    st.integers(min_value=-300, max_value=305),
)
def test_reconstruct_matches_per_step_recurrence(
    two_tone_models, seed, p, radius, steps, forced, exponent
):
    """The blocked rollout is the per-step recurrence up to rounding.

    Random models of spectral radius up to 1.01, forced and unforced, at
    every scale a double holds; rows after the recurrence's first
    non-finite row are not compared.
    """
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((p, p))
    a *= radius / np.max(np.abs(np.linalg.eigvals(a)))
    b = gen.standard_normal(p) if forced else None
    scale = 10.0**exponent
    v0 = scale * gen.standard_normal(p)
    forcing = scale * gen.standard_normal(steps + 3) if forced else None
    model = dataclasses.replace(two_tone_models["havok"], a_discrete=a, b_discrete=b)
    with np.errstate(over="ignore", invalid="ignore"):
        got = models.reconstruct(model, v0, steps, forcing)
        want = _per_step_rollout(a, b, v0, steps, forcing)
    assert got.shape == (steps, p)
    np.testing.assert_array_equal(got[0], v0)
    finite = np.all(np.isfinite(want), axis=1)
    compared = want[:steps if finite.all() else int(np.argmin(finite))]
    err = np.max(np.abs(got[:len(compared)] - compared))
    assert err <= 1e-12 * np.max(np.abs(compared)), err
    if forced:
        # Forcing values past steps - 1 are never read.
        forcing[steps - 1:] = np.nan
        np.testing.assert_array_equal(
            models.reconstruct(model, v0, steps, forcing), got
        )


def test_forcing_signal_scaling(two_tone):
    m = fit(two_tone, FitConfig(delays=41, rank=5, forcing=True))
    f = models.forcing_signal(m)
    np.testing.assert_array_equal(
        f.values, m.basis.sigma[4] * m.basis.v[:, 4]
    )
    assert f.t0 == m.t0
    assert f.dt == m.dt
    # quasi-periodic signal: the forcing channel is numerically empty
    rms_f = np.sqrt(np.mean(f.values**2))
    rms_v1 = np.sqrt(np.mean(m.basis.v[:, 0] ** 2))
    assert rms_f < 1e-3 * rms_v1


def test_forcing_signal_significant_for_chaos(series_cache):
    x = series_cache("lorenz_short")
    m = fit(x, FitConfig(delays=101, rank=5, forcing=True))
    f = models.forcing_signal(m)
    rms_f = np.sqrt(np.mean(f.values**2))
    rms_v1 = np.sqrt(np.mean(m.basis.v[:, 0] ** 2))
    assert rms_f > 1e-2 * rms_v1


def test_forcing_signal_requires_forced_model(two_tone_models):
    with pytest.raises(ParameterError):
        models.forcing_signal(two_tone_models["havok"])


# ---------------------------------------------------------------------------
# Oracle equivalence


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_havok_matches_normal_equations(seed):
    """The pseudo-inverse regression equals the textbook least squares."""
    gen = np.random.default_rng(seed)
    x = TimeSeries(t0=0.0, dt=0.05, values=gen.standard_normal(45))
    m = fit(x, FitConfig(delays=6, rank=4, centering=False, forcing=False))
    v1 = m.basis.v.T[:, :-1]
    v2 = m.basis.v.T[:, 1:]
    oracle = (v2 @ v1.T) @ np.linalg.inv(v1 @ v1.T)
    rel = np.linalg.norm(m.a_discrete - oracle) / np.linalg.norm(oracle)
    assert rel < 1e-8
