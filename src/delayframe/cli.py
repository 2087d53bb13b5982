"""Command line pipeline driver.

Subcommands compose the library into reproducible experiments: simulate a
named preset, fit a model from a preset or CSV, emit spectra and structure
reports, run the sampling-period/column-count sweep, or reproduce one of
the named verification scenarios. Everything is deterministic: rerunning
a command overwrites its outputs with byte-identical content, at any
thread count of the same OpenBLAS build, because ``main`` runs each
command on one BLAS thread (another count would sum in another order
and move the numbers in their last bits). The pin is process-wide while
``main`` runs and is undone when it returns; library calls run at the
caller's thread count.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
error (each error class's ``exit_code``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from . import diagnostics, models, preprocess, systems
from .csvio import _float_table, _series_table, format_series_csv, load_series_csv
from .errors import DataError, DelayFrameError, NumericalError, ParameterError
from .geometry import curvatures_from_model
from .linalg import _one_blas_thread
from .scenarios import SCENARIOS, run_sweep

__all__ = ["PipelineConfig", "run_pipeline", "main"]


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved description of one fit pipeline run."""

    input: str
    observable: str | None
    fit: models.FitConfig
    dt_resample: float | None


# --------------------------------------------------------------------------
# Input


def _resolve_input(name: str, observable: str | None):
    """A preset name or a CSV path becomes (TimeSeries, resolved observable)."""
    if name in systems.preset_names():
        return systems.preset_series(name, observable)
    if os.path.exists(name):
        if observable is not None:
            raise ParameterError("--observable applies to presets, not CSV input")
        return load_series_csv(name), None
    if name.endswith(".csv") or os.sep in name:
        raise DataError(f"input file not found: {name}")
    raise ParameterError(
        f"unknown preset {name!r}; available: {', '.join(systems.preset_names())}"
    )


# --------------------------------------------------------------------------
# JSON payload builders


def _matrix_payload(m):
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        return {"dims": [int(a.shape[0])], "data": [float(v) for v in a]}
    return {
        "dims": [int(a.shape[0]), int(a.shape[1])],
        "data": [[float(v) for v in row] for row in a],
    }


def _complex_pairs(w):
    return [[float(z.real), float(z.imag)] for z in np.asarray(w, dtype=complex)]


def _config_echo(cfg: PipelineConfig, dt: float) -> dict:
    """The run's settings, flat: the pipeline's, the fit's and the step used."""
    echo = asdict(cfg)
    echo.update(echo.pop("fit"), dt=dt)
    return echo


def _model_payload(model: models.DelayModel, echo: dict) -> dict:
    return {
        "config": echo,
        "state_dim": model.state_dim,
        "a_discrete": _matrix_payload(model.a_discrete),
        "a_continuous": _matrix_payload(model.a_continuous),
        "b_discrete": None if model.b_discrete is None
        else _matrix_payload(model.b_discrete),
        "b_continuous": None if model.b_continuous is None
        else _matrix_payload(model.b_continuous),
        "singular_values": [float(s) for s in model.basis.sigma],
        "speed": model.speed,
        "residual": model.residual,
        "t0": model.t0,
    }


def _spectrum_payload(model: models.DelayModel, echo: dict) -> dict:
    return {
        "config": echo,
        "continuous": _complex_pairs(model.spectrum.eigenvalues),
        "log_mapped": _complex_pairs(models.log_mapped_spectrum(model)),
    }


def _report_payload(model: models.DelayModel, echo: dict) -> dict:
    rep = diagnostics.structure_report(model.a_continuous)
    payload = {
        "config": echo,
        "antisymmetry": rep.antisymmetry,
        "tridiagonality": rep.tridiagonality,
        "offband_max": rep.offband_max,
        "superdiagonal": list(rep.superdiagonal),
        "subdiagonal": list(rep.subdiagonal),
        "speed": model.speed,
        "curvatures": None,
    }
    if model.speed is not None and model.speed > 0.0:
        payload["curvatures"] = list(
            curvatures_from_model(model.a_continuous, model.speed).curvatures
        )
    return payload


def _plotdata_csv(model: models.DelayModel, echo: dict):
    """Yield the reduced delay coordinates beside the model's rollout, as
    CSV chunks.

    A ``# config:`` line and a header precede one row per column of the
    delay window: ``time``, ``v1`` … ``v{rank}``, ``forcing`` when the fit
    is forced, and ``recon_v1``, the first state coordinate of the model
    rolled forward from the first row.

    The forcing and the rollout are computed when the first chunk is
    asked for; the rows then come one ``_float_table`` block at a time.
    """
    v = model.basis.v
    p = model.state_dim
    r = model.config.rank
    forced = model.b_discrete is not None
    forcing = models.forcing_signal(model).values if forced else None
    recon = models.reconstruct(model, v[0, :p], v.shape[0], forcing)[:, 0]
    header = ["time"] + [f"v{i + 1}" for i in range(r)]
    if forced:
        header.append("forcing")
    header.append("recon_v1")
    head = (
        "# config: " + json.dumps(echo, sort_keys=True) + "\n"
        + ",".join(header) + "\n"
    )
    columns = [v, forcing, recon] if forced else [v, recon]
    yield from _float_table(head, model.t0, model.dt, columns)


def _dump_json(payload) -> str:
    """``payload`` as JSON text; a non-finite number, which JSON cannot
    hold, is a NumericalError."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"a result is not finite: {exc}") from exc


def _json_artifact(payload):
    """The artifact builder that yields ``payload(model, echo)`` as one
    JSON text."""
    def build(model: models.DelayModel, echo: dict):
        yield _dump_json(payload(model, echo))
    return build


# --------------------------------------------------------------------------
# Pipelines


def _prepared_series(cfg: PipelineConfig):
    series, obs = _resolve_input(cfg.input, cfg.observable)
    if cfg.dt_resample is not None:
        # One delay window per end absorbs the natural-boundary error.
        series = preprocess.trim_series(
            preprocess.resample(series, cfg.dt_resample), cfg.fit.delays
        )
    return series, obs


# Each builder takes (model, echo) and returns a generator of the
# artifact's str chunks; nothing is computed before the first chunk is
# asked for.
_ARTIFACTS = {
    "model.json": _json_artifact(_model_payload),
    "spectrum.json": _json_artifact(_spectrum_payload),
    "report.json": _json_artifact(_report_payload),
    "plotdata.csv": _plotdata_csv,
}

# The artifacts each fitting command writes; only these are built.
_COMMAND_ARTIFACTS = {
    "fit": tuple(_ARTIFACTS),
    "spectrum": ("spectrum.json",),
    "diagnose": ("report.json",),
}


def _fit_artifacts(cfg: PipelineConfig, names) -> dict:
    """Fit per config once; {filename: chunks} for each of ``names``, in
    their order."""
    series, obs = _prepared_series(cfg)
    try:
        model = models.fit(series, cfg.fit)
    except DelayFrameError as exc:
        raise exc.__class__(f"fit on {cfg.input!r} failed: {exc}") from exc
    echo = _config_echo(cfg, model.dt)
    if obs is not None:
        echo["observable"] = obs
    return {name: _ARTIFACTS[name](model, echo) for name in names}


def run_pipeline(cfg: PipelineConfig, names=tuple(_ARTIFACTS)) -> dict:
    """Fit per config once and build the named artifacts.

    Returns {filename: text} in the order of ``names``; the default builds
    all four (``model.json``, ``spectrum.json``, ``report.json`` and
    ``plotdata.csv``). Each text is the join of the chunks the CLI
    writes to that file, so it holds the whole artifact in memory at
    once; the CLI never does.
    """
    return {name: "".join(chunks)
            for name, chunks in _fit_artifacts(cfg, names).items()}


# --------------------------------------------------------------------------
# Argument parsing and entry point


def _add_fit_arguments(parser):
    parser.add_argument("--input", required=True,
                        help="preset name or CSV path (time,value)")
    parser.add_argument("--observable", default=None,
                        help="observable for preset input (default per system)")
    parser.add_argument("--delays", type=int, default=41, metavar="M")
    parser.add_argument("--rank", type=int, default=5, metavar="R")
    parser.add_argument("--method", choices=("havok", "shavok"), default="havok")
    parser.add_argument("--no-centering", dest="centering", action="store_false")
    parser.add_argument("--no-forcing", dest="forcing", action="store_false")
    parser.add_argument("--derivative", choices=("forward", "central"),
                        default="forward")
    parser.add_argument("--dt-resample", type=float, default=None, metavar="DT",
                        help="spline-resample the input to this step first "
                        "and trim one delay window from each end")
    parser.add_argument("--out-dir", required=True)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="delayframe",
        description="Linear delay-coordinate models from scalar time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a named preset, write series.csv")
    p.add_argument("--input", required=True, help="preset name")
    p.add_argument("--observable", default=None)
    p.add_argument("--out-dir", required=True)

    for name, help_text in (
        ("fit", "fit a model, write model/spectrum/report/plotdata"),
        ("spectrum", "fit and write spectrum.json only"),
        ("diagnose", "fit and write report.json only"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_fit_arguments(p)

    p = sub.add_parser("sweep", help="structure scores over dt and column grids")
    p.add_argument("--input", default="lorenz_sweep",
                   help="preset or CSV; the dt grid subsamples it")
    p.add_argument("--observable", default=None)
    p.add_argument("--delays", type=int, default=41, metavar="M")
    p.add_argument("--rank", type=int, default=5, metavar="R")
    p.add_argument("--method", choices=("havok", "shavok"), default="havok")
    p.add_argument("--no-forcing", dest="forcing", action="store_false")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("reproduce", help="run a named verification scenario")
    p.add_argument("--scenario", required=True,
                   help=", ".join(SCENARIOS))
    p.add_argument("--out-dir", required=True)
    return parser


def _write_artifacts(out_dir: str, artifacts: dict):
    """Write every artifact or none.

    ``artifacts`` maps each file name to an iterable of its str chunks.
    The chunks are written to a staged file in a temporary directory
    inside ``out_dir`` as they come, so no artifact need be held whole
    in memory; a lazy builder formats each chunk here. A target that is a
    directory (which a file cannot replace), an error raised by a builder
    or a failed write stops before anything moves. Only when every file
    is staged are they committed (``_commit``), all or none. A failure
    removes the staging directory and an ``out_dir`` this call created,
    so it leaves ``out_dir`` as it was.
    """
    fresh = not os.path.isdir(out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
        try:
            for name, chunks in artifacts.items():
                if os.path.isdir(os.path.join(out_dir, name)):
                    raise ParameterError(
                        f"cannot write to --out-dir {out_dir}: {name} is a directory"
                    )
                with open(os.path.join(staging, name), "w", encoding="utf-8") as fh:
                    for chunk in chunks:
                        fh.write(chunk)
            _commit(staging, out_dir, list(artifacts))
        finally:
            shutil.rmtree(staging, ignore_errors=True)
            if fresh and not os.listdir(out_dir):
                os.rmdir(out_dir)
    except OSError as exc:
        raise ParameterError(
            f"cannot write to --out-dir {out_dir}: {exc.strerror or exc}"
        ) from exc


def _commit(staging: str, out_dir: str, names: list):
    """Move the staged files ``names`` into ``out_dir``, all or none.

    Each existing target is first moved into ``staging/.old``, then each
    staged file into its place. If a move fails, the moves done so far
    are undone in reverse order, new files back to ``staging`` and old
    ones back to ``out_dir``, before the error propagates. A process
    killed between two moves cannot undo them: ``out_dir`` then holds
    some new files, and the old ones it lacks are in ``staging/.old``.
    """
    old = os.path.join(staging, ".old")
    os.mkdir(old)
    moved = []

    def move(source, target):
        os.replace(source, target)
        moved.append((source, target))

    try:
        for name in names:
            if os.path.lexists(os.path.join(out_dir, name)):
                move(os.path.join(out_dir, name), os.path.join(old, name))
        for name in names:
            move(os.path.join(staging, name), os.path.join(out_dir, name))
    except BaseException:
        for source, target in reversed(moved):
            os.replace(target, source)
        raise


def _pipeline_config(args) -> PipelineConfig:
    fit_cfg = models.FitConfig(
        delays=args.delays,
        rank=args.rank,
        centering=args.centering,
        forcing=args.forcing,
        method=args.method,
        derivative_scheme=args.derivative,
    )
    return PipelineConfig(
        input=args.input,
        observable=args.observable,
        fit=fit_cfg,
        dt_resample=args.dt_resample,
    )


def _run(args) -> int:
    if args.command == "simulate":
        if args.input not in systems.preset_names():
            raise ParameterError(
                f"simulate needs a preset name, got {args.input!r}; "
                f"available: {', '.join(systems.preset_names())}"
            )
        series, _ = _resolve_input(args.input, args.observable)
        _write_artifacts(args.out_dir, {"series.csv": _series_table(series)})
        return 0
    if args.command in _COMMAND_ARTIFACTS:
        artifacts = _fit_artifacts(
            _pipeline_config(args), _COMMAND_ARTIFACTS[args.command]
        )
        _write_artifacts(args.out_dir, artifacts)
        return 0
    if args.command == "sweep":
        series, obs = _resolve_input(args.input, args.observable)
        payload = run_sweep(
            series, delays=args.delays, rank=args.rank,
            method=args.method, forcing=args.forcing,
        )
        payload["config"] = {
            "input": args.input,
            "observable": obs,
            "delays": args.delays,
            "rank": args.rank,
            "method": args.method,
            "forcing": args.forcing,
            "base_dt": series.dt,
            "samples": len(series),
        }
        _write_artifacts(args.out_dir, {"sweep.json": (_dump_json(payload),)})
        return 0
    # reproduce
    if args.scenario not in SCENARIOS:
        raise ParameterError(
            f"unknown scenario {args.scenario!r}; "
            f"available: {', '.join(SCENARIOS)}"
        )
    payload, lines = SCENARIOS[args.scenario]()
    name = args.scenario.replace("-", "_") + ".json"
    _write_artifacts(args.out_dir, {name: (_dump_json(payload),)})
    for line in lines:
        print(line)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _one_blas_thread():
            return _run(args)
    except (ParameterError, DataError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
