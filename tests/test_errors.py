import math
import pathlib
import re

import numpy as np
import pytest

from delayframe import diagnostics, embedding, errors, geometry, linalg, models
from delayframe import preprocess, systems
from delayframe.errors import (
    DataError,
    DegenerateInputError,
    DegenerateRankError,
    DelayFrameError,
    NumericalError,
    ParameterError,
)


def test_taxonomy_roots():
    assert issubclass(ParameterError, DelayFrameError)
    assert issubclass(DataError, DelayFrameError)
    assert issubclass(NumericalError, DelayFrameError)


def test_parameter_and_data_errors_are_value_errors():
    # Callers that only know stdlib exceptions can still catch these.
    assert issubclass(ParameterError, ValueError)
    assert issubclass(DataError, ValueError)
    assert not issubclass(NumericalError, ValueError)


def test_numerical_errors_are_runtime_errors():
    assert issubclass(NumericalError, RuntimeError)
    assert issubclass(DegenerateRankError, NumericalError)
    assert issubclass(DegenerateInputError, NumericalError)


def test_degenerate_input_carries_partial_results():
    err = DegenerateInputError("kappa_2 is undefined", partial=(0.5,))
    assert err.partial == (0.5,)
    assert "kappa_2" in str(err)


def test_degenerate_input_partial_defaults_to_none():
    assert DegenerateInputError("no progress").partial is None


# --------------------------------------------------------------------------
# Argument rules: one bad value per rule per entry point, with the exact
# exception class and message each one raises.

_SERIES = embedding.TimeSeries(t0=0.0, dt=0.1, values=np.sin(0.3 * np.arange(40)))
_MODEL = models.fit(_SERIES, models.FitConfig(delays=5, rank=3))
_FRAMES = [geometry.frenet_frame([[1.0, 0.0], [0.0, 1.0]])] * 2
_STILL_FRAMES = [geometry.FrenetApparatus(frame=((1.0, 0.0),), speed=0.0)] * 2


def _spec(**changes):
    fields = dict(kind="lorenz", parameters={}, initial_state=(1.0, 1.0, 1.0),
                  dt=0.01, samples=10)
    return systems.SystemSpec(**{**fields, **changes})


RULES = [
    # integer
    pytest.param(lambda: embedding.build_hankel(_SERIES, 3.0), ParameterError,
                 "delays must be an integer, got 3.0", id="int-build_hankel"),
    pytest.param(
        lambda: geometry.derivative_stack(np.arange(9.0), 0.1, 2.0),
        ParameterError, "order must be an integer, got 2.0",
        id="int-derivative_stack",
    ),
    pytest.param(lambda: geometry.discrete_orthopoly(5.0, 1), ParameterError,
                 "delays must be an integer, got 5.0", id="int-discrete_orthopoly"),
    pytest.param(lambda: geometry.discrete_orthopoly(5, True), ParameterError,
                 "degree must be an integer, got True", id="int-discrete_orthopoly-degree"),
    pytest.param(lambda: linalg.thin_svd(np.eye(3), 2.0), ParameterError,
                 "rank must be an integer, got 2.0", id="int-thin_svd"),
    pytest.param(lambda: linalg.thin_svd(np.eye(3), 2, center=1.0), ParameterError,
                 "center must be an integer, got 1.0", id="int-thin_svd-center"),
    pytest.param(lambda: embedding.center_index(5.0), ParameterError,
                 "delays must be an integer, got 5.0", id="int-center_index"),
    pytest.param(lambda: models.FitConfig(delays=5.0, rank=3), ParameterError,
                 "delays must be an integer, got 5.0", id="int-FitConfig-delays"),
    pytest.param(lambda: models.FitConfig(delays=5, rank=True), ParameterError,
                 "rank must be an integer, got True", id="int-FitConfig-rank"),
    pytest.param(lambda: models.reconstruct(_MODEL, np.zeros(2), 2.5), ParameterError,
                 "steps must be an integer, got 2.5", id="int-reconstruct"),
    pytest.param(lambda: preprocess.trim_series(_SERIES, 1.0), ParameterError,
                 "count must be an integer, got 1.0", id="int-trim_series"),
    pytest.param(lambda: _spec(samples=10.0), ParameterError,
                 "samples must be an integer, got 10.0", id="int-SystemSpec"),
    # integer at least a minimum
    pytest.param(
        lambda: geometry.derivative_stack(np.arange(9.0), 0.1, 0),
        ParameterError, "order must be >= 1, got 0",
        id="min-derivative_stack",
    ),
    pytest.param(lambda: geometry.discrete_orthopoly(5, 0), ParameterError,
                 "degree must be >= 1, got 0", id="min-discrete_orthopoly"),
    pytest.param(lambda: models.FitConfig(delays=1, rank=3), ParameterError,
                 "delays must be >= 2, got 1", id="min-FitConfig"),
    pytest.param(lambda: models.reconstruct(_MODEL, np.zeros(2), 0), ParameterError,
                 "steps must be >= 1, got 0", id="min-reconstruct"),
    pytest.param(lambda: preprocess.trim_series(_SERIES, -1), ParameterError,
                 "count must be >= 0, got -1", id="min-trim_series"),
    pytest.param(lambda: _spec(samples=1), ParameterError,
                 "samples must be >= 2, got 1", id="min-SystemSpec"),
    # range checks that keep their own wording
    pytest.param(
        lambda: embedding.build_hankel(_SERIES, 41),
        ParameterError, "delays must be in [2, 40] for this series, got 41",
        id="range-build_hankel",
    ),
    pytest.param(lambda: linalg.thin_svd(np.eye(3), 4), ParameterError,
                 "rank must be in [1, 3] for shape (3, 3), got 4", id="range-thin_svd"),
    pytest.param(lambda: linalg.thin_svd(np.eye(3), 2, center=3), ParameterError,
                 "center must be in [0, 2] for shape (3, 3), got 3",
                 id="range-thin_svd-center"),
    # type
    pytest.param(lambda: embedding.build_hankel([1.0, 2.0], 2), ParameterError,
                 "expected a TimeSeries, got list", id="type-build_hankel"),
    pytest.param(lambda: embedding.center_hankel(None), ParameterError,
                 "expected a HankelEmbedding, got NoneType", id="type-center_hankel"),
    pytest.param(lambda: embedding.split_shift(None), ParameterError,
                 "expected a HankelEmbedding, got NoneType", id="type-split_shift"),
    pytest.param(lambda: models.fit(_SERIES, {"delays": 5}), ParameterError,
                 "expected a FitConfig, got dict", id="type-fit-config"),
    pytest.param(lambda: models.fit(_SERIES.values, _MODEL.config), ParameterError,
                 "expected a TimeSeries, got ndarray", id="type-fit-series"),
    pytest.param(lambda: models.log_mapped_spectrum(None), ParameterError,
                 "expected a DelayModel, got NoneType", id="type-log_mapped_spectrum"),
    pytest.param(lambda: models.reconstruct(None, np.zeros(2), 2), ParameterError,
                 "expected a DelayModel, got NoneType", id="type-reconstruct"),
    pytest.param(lambda: models.forcing_signal(None), ParameterError,
                 "expected a DelayModel, got NoneType", id="type-forcing_signal"),
    pytest.param(lambda: preprocess.resample(None, 0.05), ParameterError,
                 "expected a TimeSeries, got NoneType", id="type-resample"),
    pytest.param(lambda: preprocess.trim_series(None, 1), ParameterError,
                 "expected a TimeSeries, got NoneType", id="type-trim_series"),
    pytest.param(lambda: systems.simulate("lorenz"), ParameterError,
                 "expected a SystemSpec, got str", id="type-simulate"),
    pytest.param(lambda: systems.measure(None, "x"), ParameterError,
                 "expected a Trajectory, got NoneType", id="type-measure"),
    pytest.param(lambda: systems.pendulum_energy(None), ParameterError,
                 "expected a Trajectory, got NoneType", id="type-pendulum_energy"),
    # positive and finite
    pytest.param(
        lambda: embedding.TimeSeries(t0=0.0, dt=0.0, values=[1.0, 2.0]),
        ParameterError, "dt must be positive and finite, got 0.0",
        id="pos-TimeSeries",
    ),
    pytest.param(
        lambda: geometry.central_difference(np.arange(5.0), math.inf),
        ParameterError, "dt must be positive and finite, got inf",
        id="pos-central_difference",
    ),
    pytest.param(
        lambda: geometry.curvature_matrix_from_frame(_FRAMES, math.inf),
        ParameterError, "dt must be positive and finite, got inf",
        id="pos-curvature_matrix_from_frame",
    ),
    pytest.param(
        lambda: geometry.curvature_matrix_from_frame(_STILL_FRAMES, 0.1),
        ParameterError, "speed must be positive and finite, got 0.0",
        id="pos-curvature_matrix_from_frame-speed",
    ),
    pytest.param(
        lambda: geometry.curvatures_from_model(np.eye(2), -1.0),
        ParameterError, "speed must be positive and finite, got -1.0",
        id="pos-curvatures_from_model",
    ),
    pytest.param(
        lambda: diagnostics.sv_decay_report([1.0, 0.5], math.nan),
        ParameterError, "eps must be positive and finite, got nan",
        id="pos-sv_decay_report",
    ),
    pytest.param(lambda: preprocess.resample(_SERIES, -0.1), ParameterError,
                 "dt_new must be positive and finite, got -0.1", id="pos-resample"),
    pytest.param(lambda: _spec(dt=math.inf), ParameterError,
                 "dt must be positive and finite, got inf", id="pos-SystemSpec"),
    # finite rollout inputs
    pytest.param(
        lambda: models.reconstruct(_MODEL, [0.0, math.nan], 3, np.zeros(2)),
        ParameterError, "v0 must be finite", id="finite-reconstruct-v0-nan",
    ),
    pytest.param(
        lambda: models.reconstruct(_MODEL, [math.inf, 0.0], 1),
        ParameterError, "v0 must be finite", id="finite-reconstruct-v0-inf",
    ),
    pytest.param(
        lambda: models.reconstruct(_MODEL, np.zeros(2), 3, [0.0, math.nan, 0.0]),
        ParameterError,
        "forcing_series must be finite over its first steps - 1 = 2 values",
        id="finite-reconstruct-forcing-nan",
    ),
    pytest.param(
        lambda: models.reconstruct(_MODEL, np.zeros(2), 3, [-math.inf, 0.0]),
        ParameterError,
        "forcing_series must be finite over its first steps - 1 = 2 values",
        id="finite-reconstruct-forcing-inf",
    ),
]


@pytest.mark.parametrize("call, cls, message", RULES)
def test_argument_rules(call, cls, message):
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message


def test_branches_carry_their_exit_codes():
    assert (ParameterError.exit_code, DataError.exit_code,
            NumericalError.exit_code) == (2, 3, 4)
    assert DegenerateRankError.exit_code == DegenerateInputError.exit_code == 4


# The code of each argument rule; errors.py is the one place it may appear.
# An f-string opening with "expected a" is the type rule's message, which
# other messages ("{path}: expected a 'time,value' header") do not match.
_RULE_CODE = {
    "integer": re.compile(r"\(int, np\.integer\)"),
    "type": re.compile(r"""f["']expected an? [^"']*\{"""),
    "positive": re.compile(r"must be positive and finite, got"),
}


@pytest.mark.parametrize("rule", sorted(_RULE_CODE))
def test_argument_rules_are_written_once(rule):
    package = pathlib.Path(errors.__file__).parent
    assert _RULE_CODE[rule].search((package / "errors.py").read_text())
    copies = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _RULE_CODE[rule].search(line)
    ]
    assert copies == []
