import math

import numpy as np
import pytest

from delayframe.errors import NumericalError, ParameterError
from delayframe.scenarios import SPECTRA_CONFIGS
from delayframe.systems import (
    SystemSpec,
    default_observable,
    measure,
    observables_for,
    pendulum_energy,
    preset,
    preset_names,
    preset_series,
    simulate,
)


def _lorenz(dt=0.001, samples=200, **params):
    return SystemSpec(
        kind="lorenz", parameters=params, initial_state=(-8.0, 8.0, 27.0),
        dt=dt, samples=samples,
    )


def test_spec_validation():
    with pytest.raises(ParameterError, match="kind"):
        SystemSpec(kind="vanderpol", parameters={}, initial_state=(0.0,),
                   dt=0.01, samples=10)
    with pytest.raises(ParameterError, match="sigma"):
        _lorenz(gamma=1.0)  # unknown name; message lists the valid ones
    with pytest.raises(ParameterError):
        SystemSpec(kind="lorenz", parameters={}, initial_state=(1.0, 2.0),
                   dt=0.01, samples=10)
    with pytest.raises(ParameterError):
        _lorenz(dt=0.0)
    with pytest.raises(ParameterError):
        _lorenz(samples=1)


def test_spec_merges_default_parameters():
    spec = _lorenz(rho=24.0)
    assert spec.parameters["rho"] == 24.0
    assert spec.parameters["sigma"] == 10.0
    assert spec.parameters["beta"] == pytest.approx(8.0 / 3.0)


def test_two_tone_closed_form():
    spec = SystemSpec(kind="two_tone", parameters={}, initial_state=(),
                      dt=0.01, samples=500)
    traj = simulate(spec)
    t = 0.01 * np.arange(500)
    np.testing.assert_allclose(
        traj.states[:, 0], np.sin(t) + np.sin(2.0 * t), atol=1e-14
    )


def test_simulate_shapes_and_finiteness():
    for kind, state, dim in (
        ("lorenz", (-8.0, 8.0, 27.0), 3),
        ("rossler", (1.0, 1.0, 1.0), 3),
        ("double_pendulum", (0.3, 0.2, 0.0, 0.0), 4),
    ):
        spec = SystemSpec(kind=kind, parameters={}, initial_state=state,
                          dt=0.001, samples=300)
        traj = simulate(spec)
        assert traj.states.shape == (300, dim)
        assert np.all(np.isfinite(traj.states))
        np.testing.assert_allclose(traj.states[0], state)


def test_rk4_order():
    """Halving the step shrinks the error by roughly 2^4."""

    def endpoint(dt):
        spec = _lorenz(dt=dt, samples=round(0.4 / dt) + 1)
        return simulate(spec).states[-1]

    ref = endpoint(0.01 / 20.0)
    e1 = np.linalg.norm(endpoint(0.01) - ref)
    e2 = np.linalg.norm(endpoint(0.005) - ref)
    assert 12.0 < e1 / e2 < 20.0


def test_divergence_raises_with_step_index():
    """Each kind stops at the first non-finite state, without a warning."""
    for kind, state, dt, step in (
        ("lorenz", (-8.0, 8.0, 27.0), 1.0, 3),
        ("rossler", (1.0, 1.0, 1.0), 1.0, 4),
        ("double_pendulum", (0.3, 0.2, 0.0, 0.0), 5.0, 3),
        # The angles overflow within a step, so the RHS takes sin(inf).
        ("double_pendulum", (0.3, 0.2, 0.0, 0.0), 8.0, 3),
    ):
        spec = SystemSpec(kind=kind, parameters={}, initial_state=state,
                          dt=dt, samples=200)
        with pytest.raises(NumericalError, match=f"integration step {step}$"):
            simulate(spec)


def test_pendulum_energy_conservation():
    traj = simulate(preset("pendulum_short"))
    energy = pendulum_energy(traj)
    assert np.max(np.abs(energy - energy[0])) < 1e-8


def test_pendulum_energy_wrong_kind():
    with pytest.raises(ParameterError):
        pendulum_energy(simulate(_lorenz()))


def test_observables():
    assert observables_for("lorenz") == ("x",)
    assert default_observable("lorenz") == "x"
    assert default_observable("double_pendulum") == "sin_theta1"
    assert observables_for("double_pendulum") == ("sin_theta1", "sin_theta2")


def test_lorenz_fixed_point_is_stationary():
    rho, beta = 28.0, 8.0 / 3.0
    fp = (np.sqrt(beta * (rho - 1.0)), np.sqrt(beta * (rho - 1.0)), rho - 1.0)
    spec = SystemSpec(kind="lorenz", parameters={}, initial_state=fp,
                      dt=0.001, samples=1000)
    states = simulate(spec).states
    assert np.max(np.abs(states - states[0])) < 1e-6


def test_measure_returns_series():
    traj = simulate(_lorenz(samples=50))
    x = measure(traj, "x")
    assert len(x) == 50
    assert x.dt == traj.spec.dt
    assert x.t0 == 0.0
    np.testing.assert_array_equal(x.values, traj.states[:, 0])
    with pytest.raises(ParameterError, match="observable"):
        measure(traj, "w")


def test_pendulum_observables_are_sines():
    spec = SystemSpec(
        kind="double_pendulum", parameters={},
        initial_state=(np.pi / 2.0, np.pi / 2.0, -0.01, -0.005),
        dt=0.001, samples=500,
    )
    traj = simulate(spec)
    s1 = measure(traj, "sin_theta1").values
    np.testing.assert_array_equal(s1, np.sin(traj.states[:, 0]))
    assert np.max(np.abs(s1)) <= 1.0


def test_presets_pinned():
    names = preset_names()
    assert set(names) >= {
        "two_tone", "lorenz_short", "lorenz_long", "rossler_short",
        "rossler_long", "pendulum_short", "pendulum_long",
    }
    assert preset("lorenz_short").samples == 3000
    assert preset("lorenz_long").samples == 300000
    assert preset("rossler_short").samples == 70000
    assert preset("pendulum_short").samples == 1200
    assert preset("pendulum_long").samples == 100000
    assert preset("two_tone").dt == 0.001
    with pytest.raises(ParameterError):
        preset("lorenz")


def test_short_spectra_presets_are_prefixes_of_their_long_presets():
    # The short-spectra scenario slices each short series from its long
    # one instead of simulating it, which holds only while the two specs
    # differ in nothing but the sample count.
    for short, long_, *_ in SPECTRA_CONFIGS.values():
        s, full = preset(short), preset(long_)
        assert (s.kind, s.parameters, s.initial_state, s.dt) == (
            full.kind, full.parameters, full.initial_state, full.dt)
        assert s.samples < full.samples


def test_trajectory_is_deterministic():
    a = simulate(_lorenz(samples=400)).states
    b = simulate(_lorenz(samples=400)).states
    np.testing.assert_array_equal(a, b)


def _oracle_rk4(f, state, dt, steps, dim):
    """The original index-list RK4, kept verbatim as a bit-identity oracle."""
    out = np.empty((steps, dim))
    s = state
    half = 0.5 * dt
    rng = range(dim)
    for i in range(steps):
        out[i] = s
        k1 = f(*s)
        k2 = f(*[s[j] + half * k1[j] for j in rng])
        k3 = f(*[s[j] + half * k2[j] for j in rng])
        k4 = f(*[s[j] + dt * k3[j] for j in rng])
        s = tuple(
            s[j] + dt * (k1[j] + 2 * k2[j] + 2 * k3[j] + k4[j]) / 6 for j in rng
        )
        if not all(math.isfinite(v) for v in s):
            raise NumericalError(
                f"state became non-finite at integration step {i + 1}"
            )
    return out


def _oracle_rhs(spec):
    """The original right-hand sides (the pendulum on numpy scalars)."""
    p = spec.parameters
    if spec.kind == "lorenz":
        sig, rho, beta = p["sigma"], p["rho"], p["beta"]
        return lambda x, y, z: (sig * (y - x), x * (rho - z) - y, x * y - beta * z)
    if spec.kind == "rossler":
        a, b, c = p["a"], p["b"], p["c"]
        return lambda x, y, z: (-y - z, x + a * y, b + z * (x - c))
    gl = p["g"] / p["l"]

    def f(th1, th2, w1, w2):
        c = np.cos(th1 - th2)
        s = np.sin(th1 - th2)
        b1 = -3 * s * w2 * w2 - 9 * gl * np.sin(th1)
        b2 = 3 * s * w1 * w1 - 3 * gl * np.sin(th2)
        det = 16 - 9 * c * c
        return w1, w2, (2 * b1 - 3 * c * b2) / det, (8 * b2 - 3 * c * b1) / det

    return f


@pytest.mark.parametrize("kind, parameters, state, dt", [
    ("lorenz", {}, (-8.0, 8.0, 27.0), 0.001),
    ("lorenz", {"rho": 35.0}, (1.5, -2.25, 30.0), 0.004),
    ("rossler", {}, (1.0, 1.0, 1.0), 0.001),
    ("rossler", {"c": 9.0}, (-3.0, 2.5, 0.5), 0.01),
    ("double_pendulum", {}, (np.pi / 2, np.pi / 2, -0.01, -0.005), 0.001),
    ("double_pendulum", {"g": 9.81}, (2.5, -1.0, 0.7, -1.3), 0.002),
])
def test_rk4_bit_identical_to_index_list_oracle(kind, parameters, state, dt):
    spec = SystemSpec(kind=kind, parameters=parameters, initial_state=state,
                      dt=dt, samples=3000)
    expected = _oracle_rk4(_oracle_rhs(spec), spec.initial_state, spec.dt,
                           spec.samples, len(spec.initial_state))
    assert np.array_equal(simulate(spec).states, expected)


_DIVERGING = (
    ("lorenz", (-8.0, 8.0, 27.0), 1.0, 3),
    ("rossler", (1.0, 1.0, 1.0), 1.0, 4),
    ("double_pendulum", (0.3, 0.2, 0.0, 0.0), 5.0, 3),
    # The angles overflow within a step, so the RHS takes sin(inf).
    ("double_pendulum", (0.3, 0.2, 0.0, 0.0), 8.0, 3),
)


@pytest.mark.parametrize("kind, state, dt, step", _DIVERGING)
def test_rk4_takes_one_step_less_than_samples(kind, state, dt, step):
    """A run whose last sample is the last finite state returns it; one
    more sample raises at that step. The oracle stores the same rows."""
    spec = SystemSpec(kind=kind, parameters={}, initial_state=state,
                      dt=dt, samples=step)
    states = simulate(spec).states
    assert states.shape == (step, len(state))
    assert np.all(np.isfinite(states))
    with np.errstate(all="ignore"):
        expected = _oracle_rk4(_oracle_rhs(spec), spec.initial_state, dt,
                               step - 1, len(state))
    assert np.array_equal(states[:-1], expected)
    longer = SystemSpec(kind=kind, parameters={}, initial_state=state,
                        dt=dt, samples=step + 1)
    with pytest.raises(NumericalError, match=f"integration step {step}$"):
        simulate(longer)


def test_preset_series_measures_the_default_observable():
    series, obs = preset_series("pendulum_short")
    assert obs == "sin_theta1"
    np.testing.assert_array_equal(
        series.values,
        measure(simulate(preset("pendulum_short")), "sin_theta1").values,
    )
    series, obs = preset_series("pendulum_short", "sin_theta2")
    assert obs == "sin_theta2"
    with pytest.raises(ParameterError, match="observable"):
        preset_series("lorenz_short", "sin_theta1")
