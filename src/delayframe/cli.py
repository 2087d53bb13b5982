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
from .embedding import TimeSeries
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
# CSV input/output


# Rows of a CSV table formatted at a time; a block's floats and text are
# the only objects alive beside the finished blocks.
_ROWS_PER_BLOCK = 4096


def _float_table(head: str, t0: float, dt: float, columns) -> str:
    """``head``, then one CSV row per sample: its time, then ``columns``.

    Row k starts with ``t0 + k * dt`` and continues with row k of each
    array in ``columns`` (1-D or 2-D, all of the same length). Each cell
    is the ``repr`` of a float, so the text reads back to the same bits.

    Rows are formatted in blocks of ``_ROWS_PER_BLOCK``, each by one
    ``%r`` format of the block's floats, so no per-row list or string is
    made; the peak is the finished blocks plus their join.
    """
    blocks = [head]
    n = len(columns[0])
    for start in range(0, n, _ROWS_PER_BLOCK):
        stop = min(start + _ROWS_PER_BLOCK, n)
        block = np.column_stack(
            [t0 + np.arange(start, stop) * dt] + [c[start:stop] for c in columns]
        )
        row = ",".join(["%r"] * block.shape[1]) + "\n"
        blocks.append(row * len(block) % tuple(block.ravel().tolist()))
    return "".join(blocks)


def format_series_csv(x: TimeSeries) -> str:
    """The series as a ``time,value`` CSV.

    The values read back to the same bits. The time column is ``t0 + k *
    dt``, so ``t0`` reads back equal in value (a ``-0.0`` becomes ``0.0``)
    and ``dt`` as the mean step between rows, which differs from it by
    the rounding of the times.
    """
    return _float_table("time,value\n", x.t0, x.dt, [x.values])


def _file_line(lines, k: int) -> int:
    """The 1-based file line of row ``k`` (0-based) of ``lines`` once blank
    and comment lines are dropped, for error messages."""
    numbers = [n for n, row in enumerate(map(str.strip, lines), 1)
               if row and not row.startswith("#")]
    return numbers[k]


def load_series_csv(path: str) -> TimeSeries:
    """Read a two-column time,value CSV into a uniform TimeSeries.

    The header is required; spacing must be uniform to 1e-9 relative
    jitter. Non-uniform series are data errors with a hint to resample.
    """
    try:
        # utf-8-sig drops a byte-order mark, which some editors write.
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    rows = [row for row in map(str.strip, lines) if row and not row.startswith("#")]
    if not rows or [c.strip().lower() for c in rows[0].split(",")] != ["time", "value"]:
        raise DataError(f"{path}: expected a 'time,value' header")
    if len(rows) < 3:
        raise DataError(f"{path}: need at least 2 data rows")
    times = np.empty(len(rows) - 1)
    values = np.empty(len(rows) - 1)
    for i, row in enumerate(rows[1:]):
        cells = row.split(",")
        if len(cells) != 2:
            raise DataError(f"{path}: line {_file_line(lines, i + 1)} has "
                            f"{len(cells)} columns, expected 2")
        try:
            times[i] = float(cells[0])
            values[i] = float(cells[1])
        except ValueError as exc:
            raise DataError(f"{path}: line {_file_line(lines, i + 1)} is not "
                            f"numeric: {row!r}") from exc
    if not np.all(np.isfinite(times)):
        raise DataError(f"{path}: time column has non-finite entries")
    diffs = np.diff(times)
    if np.any(diffs <= 0.0):
        raise DataError(f"{path}: time column must be strictly increasing")
    dt = float(np.mean(diffs))
    if (np.max(diffs) - np.min(diffs)) > 1e-9 * dt:
        raise DataError(
            f"{path}: sampling is not uniform (relative jitter "
            f"{(np.max(diffs) - np.min(diffs)) / dt:.2e} > 1e-9); "
            "resample onto a uniform grid first (--dt-resample)"
        )
    return TimeSeries(t0=float(times[0]), dt=dt, values=values)


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


def _plotdata_csv(model: models.DelayModel, echo: dict) -> str:
    """The reduced delay coordinates beside the model's rollout, as CSV.

    A ``# config:`` line and a header precede one row per column of the
    delay window: ``time``, ``v1`` … ``v{rank}``, ``forcing`` when the fit
    is forced, and ``recon_v1``, the first state coordinate of the model
    rolled forward from the first row.

    The result is one str, because ``run_pipeline`` returns every
    artifact as text; writing the blocks straight to the staged file
    needs the artifact builders to yield chunks instead.
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
    return _float_table(head, model.t0, model.dt, columns)


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


_ARTIFACTS = {
    "model.json": lambda model, echo: _dump_json(_model_payload(model, echo)),
    "spectrum.json": lambda model, echo: _dump_json(_spectrum_payload(model, echo)),
    "report.json": lambda model, echo: _dump_json(_report_payload(model, echo)),
    "plotdata.csv": _plotdata_csv,
}

# The artifacts each fitting command writes; only these are built.
_COMMAND_ARTIFACTS = {
    "fit": tuple(_ARTIFACTS),
    "spectrum": ("spectrum.json",),
    "diagnose": ("report.json",),
}


def run_pipeline(cfg: PipelineConfig, names=tuple(_ARTIFACTS)) -> dict:
    """Fit per config once and build the named artifacts.

    Returns {filename: text} in the order of ``names``; the default builds
    all four (``model.json``, ``spectrum.json``, ``report.json`` and
    ``plotdata.csv``).
    """
    series, obs = _prepared_series(cfg)
    try:
        model = models.fit(series, cfg.fit)
    except DelayFrameError as exc:
        raise exc.__class__(f"fit on {cfg.input!r} failed: {exc}") from exc
    echo = _config_echo(cfg, model.dt)
    if obs is not None:
        echo["observable"] = obs
    return {name: _ARTIFACTS[name](model, echo) for name in names}


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

    The files are staged in a temporary directory inside ``out_dir`` and
    moved into place only after all of them are written, and a target
    that is a directory (which a file cannot replace) fails the write
    before anything moves, so a failed write leaves ``out_dir`` as it was.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
        try:
            for name, text in artifacts.items():
                if os.path.isdir(os.path.join(out_dir, name)):
                    raise ParameterError(
                        f"cannot write to --out-dir {out_dir}: {name} is a directory"
                    )
                with open(os.path.join(staging, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            for name in artifacts:
                os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    except OSError as exc:
        raise ParameterError(
            f"cannot write to --out-dir {out_dir}: {exc.strerror or exc}"
        ) from exc


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
        _write_artifacts(args.out_dir, {"series.csv": format_series_csv(series)})
        return 0
    if args.command in _COMMAND_ARTIFACTS:
        artifacts = run_pipeline(
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
        _write_artifacts(args.out_dir, {"sweep.json": _dump_json(payload)})
        return 0
    # reproduce
    if args.scenario not in SCENARIOS:
        raise ParameterError(
            f"unknown scenario {args.scenario!r}; "
            f"available: {', '.join(SCENARIOS)}"
        )
    payload, lines = SCENARIOS[args.scenario]()
    name = args.scenario.replace("-", "_") + ".json"
    _write_artifacts(args.out_dir, {name: _dump_json(payload)})
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
