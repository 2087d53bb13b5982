"""Deterministic synthetic signal generators.

Four systems: a closed-form two-tone signal sin(t) + sin(2t), the Lorenz
and Rossler attractors, and a double pendulum of two uniform rods with
equal masses and lengths. ODE systems integrate with fixed-step RK4; there
is no RNG anywhere, so identical specs produce bit-identical trajectories.

The pendulum's equations of motion come from the Lagrangian

    L = (1/6) m l^2 (w2^2 + 4 w1^2 + 3 w1 w2 cos(th1 - th2))
        + (1/2) m g l (3 cos th1 + cos th2),

whose Euler-Lagrange equations reduce to

    [8   3c] [w1']   [-3 s w2^2 - 9 (g/l) sin th1]
    [3c   2] [w2'] = [ 3 s w1^2 - 3 (g/l) sin th2]

with c = cos(th1 - th2), s = sin(th1 - th2). The derivation is validated
by the energy-conservation test rather than trusted: total energy is
conserved to well below 0.1% of the m g l scale over the short run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .embedding import TimeSeries
from .errors import (
    NumericalError, ParameterError, check_instance, check_int, check_positive,
)

__all__ = [
    "SystemSpec",
    "Trajectory",
    "simulate",
    "measure",
    "preset",
    "preset_series",
    "preset_names",
    "observables_for",
    "default_observable",
    "pendulum_energy",
]


class _Kind(NamedTuple):
    """What a system kind accepts: parameter defaults, the length of its
    initial state, and its observables (the first is the default)."""

    parameters: dict
    state_dim: int
    observables: tuple


_SYSTEMS = {
    "two_tone": _Kind({}, 0, ("x",)),
    "lorenz": _Kind({"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}, 3, ("x",)),
    "rossler": _Kind({"a": 0.1, "b": 0.1, "c": 14.0}, 3, ("x",)),
    "double_pendulum": _Kind(
        {"m": 1.0, "l": 1.0, "g": 10.0}, 4, ("sin_theta1", "sin_theta2")
    ),
}


def _kind(kind: str) -> _Kind:
    if kind not in _SYSTEMS:
        raise ParameterError(
            f"unknown system kind {kind!r}; choose from {tuple(_SYSTEMS)}"
        )
    return _SYSTEMS[kind]


@dataclass(frozen=True)
class SystemSpec:
    """Full description of one deterministic simulation."""

    kind: str
    parameters: dict
    initial_state: tuple
    dt: float
    samples: int

    def __post_init__(self):
        defaults, state_dim, _ = _kind(self.kind)
        params = dict(self.parameters)
        unknown = sorted(set(params) - set(defaults))
        if unknown:
            raise ParameterError(
                f"unknown parameter(s) {unknown} for kind {self.kind!r}; "
                f"valid names: {sorted(defaults)}"
            )
        merged = dict(defaults)
        for k, v in params.items():
            merged[k] = float(v)
            if not math.isfinite(merged[k]):
                raise ParameterError(f"parameter {k!r} must be finite, got {v}")
        state = tuple(float(v) for v in self.initial_state)
        if len(state) != state_dim:
            raise ParameterError(
                f"{self.kind} needs an initial state of length "
                f"{state_dim}, got {len(state)}"
            )
        if not all(math.isfinite(v) for v in state):
            raise ParameterError("initial state must be finite")
        check_positive("dt", self.dt)
        check_int("samples", self.samples, minimum=2)
        object.__setattr__(self, "parameters", merged)
        object.__setattr__(self, "initial_state", state)
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "samples", int(self.samples))


@dataclass(frozen=True)
class Trajectory:
    """Simulated state snapshots, one row per sample, starting at t0 = 0."""

    spec: SystemSpec
    states: np.ndarray = field(repr=False)

    @property
    def dt(self) -> float:
        return self.spec.dt

    def __len__(self):
        return self.states.shape[0]


def _diverged(step):
    return NumericalError(f"state became non-finite at integration step {step}")


# The RK4 loops below store sample k's state at flat[k*d : k*d + d] of a
# memoryview over the preallocated (samples, d) array: one flat store per
# value costs far less than a numpy row assignment. They take samples - 1
# steps, so every state they compute is stored, and the first non-finite
# state raises NumericalError naming its step. Each coordinate advances as
# s + dt * (k1 + 2*k2 + 2*k3 + k4) / 6 in straight-line scalar code. The
# constants are written as floats: CPython takes a slower generic path
# for an int operand, and the result is the same double.


def _lorenz_rk4(sig, rho, beta, state, dt, samples):
    """RK4 of the Lorenz system, its right-hand side written out per stage."""
    out = np.empty((samples, 3))
    flat = memoryview(out.reshape(-1))
    x, y, z = flat[0], flat[1], flat[2] = state
    half = 0.5 * dt
    isfinite = math.isfinite
    for j in range(3, 3 * samples, 3):
        k1x = sig * (y - x)
        k1y = x * (rho - z) - y
        k1z = x * y - beta * z
        u, v, w = x + half * k1x, y + half * k1y, z + half * k1z
        k2x = sig * (v - u)
        k2y = u * (rho - w) - v
        k2z = u * v - beta * w
        u, v, w = x + half * k2x, y + half * k2y, z + half * k2z
        k3x = sig * (v - u)
        k3y = u * (rho - w) - v
        k3z = u * v - beta * w
        u, v, w = x + dt * k3x, y + dt * k3y, z + dt * k3z
        k4x = sig * (v - u)
        k4y = u * (rho - w) - v
        k4z = u * v - beta * w
        x = x + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y = y + dt * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        z = z + dt * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            raise _diverged(j // 3)
        flat[j] = x
        flat[j + 1] = y
        flat[j + 2] = z
    return out


def _rossler_rk4(a, b, c, state, dt, samples):
    """RK4 of the Rossler system, its right-hand side written out per stage."""
    out = np.empty((samples, 3))
    flat = memoryview(out.reshape(-1))
    x, y, z = flat[0], flat[1], flat[2] = state
    half = 0.5 * dt
    isfinite = math.isfinite
    for j in range(3, 3 * samples, 3):
        k1x = -y - z
        k1y = x + a * y
        k1z = b + z * (x - c)
        u, v, w = x + half * k1x, y + half * k1y, z + half * k1z
        k2x = -v - w
        k2y = u + a * v
        k2z = b + w * (u - c)
        u, v, w = x + half * k2x, y + half * k2y, z + half * k2z
        k3x = -v - w
        k3y = u + a * v
        k3z = b + w * (u - c)
        u, v, w = x + dt * k3x, y + dt * k3y, z + dt * k3z
        k4x = -v - w
        k4y = u + a * v
        k4z = b + w * (u - c)
        x = x + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y = y + dt * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        z = z + dt * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            raise _diverged(j // 3)
        flat[j] = x
        flat[j + 1] = y
        flat[j + 2] = z
    return out


def _rk4_4(f, state, dt, samples):
    """RK4 of a 4-state system with right-hand side f, one call per stage."""
    out = np.empty((samples, 4))
    flat = memoryview(out.reshape(-1))
    a, b, c, d = flat[0], flat[1], flat[2], flat[3] = state
    half = 0.5 * dt
    isfinite = math.isfinite
    for j in range(4, 4 * samples, 4):
        k1a, k1b, k1c, k1d = f(a, b, c, d)
        k2a, k2b, k2c, k2d = f(
            a + half * k1a, b + half * k1b, c + half * k1c, d + half * k1d
        )
        k3a, k3b, k3c, k3d = f(
            a + half * k2a, b + half * k2b, c + half * k2c, d + half * k2d
        )
        k4a, k4b, k4c, k4d = f(
            a + dt * k3a, b + dt * k3b, c + dt * k3c, d + dt * k3d
        )
        a = a + dt * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0
        b = b + dt * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0
        c = c + dt * (k1c + 2.0 * k2c + 2.0 * k3c + k4c) / 6.0
        d = d + dt * (k1d + 2.0 * k2d + 2.0 * k3d + k4d) / 6.0
        if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
            raise _diverged(j // 4)
        flat[j] = a
        flat[j + 1] = b
        flat[j + 2] = c
        flat[j + 3] = d
    return out


def simulate(spec: SystemSpec) -> Trajectory:
    """Integrate the specified system; trajectory length equals spec.samples.

    The two-tone signal is evaluated in closed form (one state column);
    the ODE systems use fixed-step RK4 with the stated right-hand sides.
    """
    check_instance(spec, SystemSpec)
    p = spec.parameters
    if spec.kind == "two_tone":
        t = spec.dt * np.arange(spec.samples)
        states = (np.sin(t) + np.sin(2.0 * t))[:, None].copy()
        return Trajectory(spec=spec, states=states)
    if spec.kind == "lorenz":
        states = _lorenz_rk4(p["sigma"], p["rho"], p["beta"],
                             spec.initial_state, spec.dt, spec.samples)
        return Trajectory(spec=spec, states=states)
    if spec.kind == "rossler":
        states = _rossler_rk4(p["a"], p["b"], p["c"],
                              spec.initial_state, spec.dt, spec.samples)
        return Trajectory(spec=spec, states=states)
    # double pendulum
    gl = p["g"] / p["l"]

    # The trig results become Python floats (exactly), so the rest runs on
    # floats, which overflow to inf silently instead of warning.
    def f(th1, th2, w1, w2):
        c = float(np.cos(th1 - th2))
        s = float(np.sin(th1 - th2))
        b1 = -3 * s * w2 * w2 - 9 * gl * float(np.sin(th1))
        b2 = 3 * s * w1 * w1 - 3 * gl * float(np.sin(th2))
        det = 16 - 9 * c * c
        return w1, w2, (2 * b1 - 3 * c * b2) / det, (8 * b2 - 3 * c * b1) / det

    # The sine of an angle that overflowed is NaN; the finiteness check
    # reports the step, so numpy's invalid-value warning is silenced.
    with np.errstate(invalid="ignore"):
        states = _rk4_4(f, spec.initial_state, spec.dt, spec.samples)
    return Trajectory(spec=spec, states=states)


def observables_for(kind: str):
    """Valid observable names for a system kind."""
    return _kind(kind).observables


def default_observable(kind: str) -> str:
    return observables_for(kind)[0]


def measure(trajectory: Trajectory, observable: str) -> TimeSeries:
    """Project a trajectory onto a scalar observable.

    'x' reads the first state coordinate; 'sin_theta1'/'sin_theta2' apply
    sine to the pendulum angles. The series keeps the simulation's dt and
    starts at t0 = 0.
    """
    check_instance(trajectory, Trajectory)
    kind = trajectory.spec.kind
    valid = _SYSTEMS[kind].observables
    if observable not in valid:
        raise ParameterError(
            f"observable {observable!r} is not valid for {kind!r}; "
            f"choose from {valid}"
        )
    if observable == "x":
        values = trajectory.states[:, 0].copy()
    elif observable == "sin_theta1":
        values = np.sin(trajectory.states[:, 0])
    else:
        values = np.sin(trajectory.states[:, 1])
    return TimeSeries(t0=0.0, dt=trajectory.dt, values=values)


def pendulum_energy(trajectory: Trajectory) -> np.ndarray:
    """Total energy of the double pendulum at each sample."""
    check_instance(trajectory, Trajectory)
    if trajectory.spec.kind != "double_pendulum":
        raise ParameterError(
            f"energy is defined for double_pendulum, got {trajectory.spec.kind!r}"
        )
    p = trajectory.spec.parameters
    m, l, g = p["m"], p["l"], p["g"]
    th1, th2, w1, w2 = trajectory.states.T
    c = np.cos(th1 - th2)
    kinetic = m * l * l / 6 * (w2**2 + 4 * w1**2 + 3 * w1 * w2 * c)
    potential = -0.5 * m * g * l * (3 * np.cos(th1) + np.cos(th2))
    return kinetic + potential


_PRESETS = {
    "two_tone": ("two_tone", {}, (), 0.001, 10001),
    "lorenz_short": ("lorenz", {}, (-8.0, 8.0, 27.0), 0.001, 3000),
    "lorenz_long": ("lorenz", {}, (-8.0, 8.0, 27.0), 0.001, 300000),
    "rossler_short": ("rossler", {}, (1.0, 1.0, 1.0), 0.001, 70000),
    "rossler_long": ("rossler", {}, (1.0, 1.0, 1.0), 0.001, 300000),
    "pendulum_short": (
        "double_pendulum", {}, (np.pi / 2, np.pi / 2, -0.01, -0.005), 0.001, 1200,
    ),
    "pendulum_long": (
        "double_pendulum", {}, (np.pi / 2, np.pi / 2, -0.01, -0.005), 0.001, 100000,
    ),
    # Extra named configurations used by the sweep and interpolation
    # scenarios: a fine-sampled Lorenz run whose strides realize the dt
    # grid, and a 50 s run for the sparse-sampling rescue experiment.
    "lorenz_sweep": ("lorenz", {}, (-8.0, 8.0, 27.0), 0.0005, 21001),
    "lorenz_interp": ("lorenz", {}, (-8.0, 8.0, 27.0), 0.001, 50001),
}


def preset_names():
    return tuple(sorted(_PRESETS))


def preset(name: str) -> SystemSpec:
    """Named simulation configurations addressable from the CLI."""
    if name not in _PRESETS:
        raise ParameterError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    kind, params, x0, dt, samples = _PRESETS[name]
    return SystemSpec(
        kind=kind, parameters=params, initial_state=x0, dt=dt, samples=samples
    )


def preset_series(name: str, observable: str | None = None):
    """Simulate a preset and measure it: returns (TimeSeries, observable).

    ``observable`` None is the preset kind's default observable; any other
    value, ``""`` too, must name one of the kind's observables.
    """
    spec = preset(name)
    obs = default_observable(spec.kind) if observable is None else observable
    return measure(simulate(spec), obs), obs
