"""Command line pipeline driver.

Subcommands compose the library into reproducible experiments: simulate a
named preset, fit a model from a preset or CSV, emit spectra and structure
reports, run the sampling-period/column-count sweep, or reproduce one of
the named verification scenarios. Everything is deterministic; rerunning a
command overwrites its outputs with byte-identical content.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import diagnostics, models, preprocess, systems
from .embedding import TimeSeries, build_hankel, center_hankel
from .errors import DataError, DelayFrameError, NumericalError, ParameterError
from .geometry import curvatures_from_model, derivative_stack, analytic_curvatures_gram

__all__ = ["PipelineConfig", "run_pipeline", "run_sweep", "run_scenario", "main"]

_SCENARIOS = (
    "curvature",
    "structure-sweep",
    "interpolation",
    "short-spectra",
    "stability",
    "derivative-ratio",
)

# Calibrated fit configurations for the short-vs-long spectrum scenario.
_SPECTRA_CONFIGS = {
    "lorenz": ("lorenz_short", "lorenz_long", 101, 5, True),
    "rossler": ("rossler_short", "rossler_long", 51, 6, False),
    "double_pendulum": ("pendulum_short", "pendulum_long", 401, 4, True),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved description of one fit pipeline run."""

    input: str
    observable: str | None
    fit: models.FitConfig
    dt_resample: float | None
    trim: bool
    out_dir: str


# --------------------------------------------------------------------------
# CSV input/output


def format_series_csv(x: TimeSeries) -> str:
    lines = ["time,value"]
    t0, dt = x.t0, x.dt
    for k, v in enumerate(x.values):
        lines.append(f"{t0 + k * dt!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def load_series_csv(path: str) -> TimeSeries:
    """Read a two-column time,value CSV into a uniform TimeSeries.

    The header is required; spacing must be uniform to 1e-9 relative
    jitter. Non-uniform series are data errors with a hint to resample.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    rows = [ln.strip() for ln in lines if ln.strip() and not ln.startswith("#")]
    if not rows or [c.strip().lower() for c in rows[0].split(",")] != ["time", "value"]:
        raise DataError(f"{path}: expected a 'time,value' header")
    if len(rows) < 3:
        raise DataError(f"{path}: need at least 2 data rows")
    times = np.empty(len(rows) - 1)
    values = np.empty(len(rows) - 1)
    for i, row in enumerate(rows[1:]):
        cells = row.split(",")
        if len(cells) != 2:
            raise DataError(f"{path}: row {i + 2} has {len(cells)} columns, expected 2")
        try:
            times[i] = float(cells[0])
            values[i] = float(cells[1])
        except ValueError as exc:
            raise DataError(f"{path}: row {i + 2} is not numeric: {row!r}") from exc
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
        spec = systems.preset(name)
        obs = observable or systems.default_observable(spec.kind)
        series = systems.measure(systems.simulate(spec), obs)
        return series, obs
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
    fit = cfg.fit
    return {
        "input": cfg.input,
        "observable": cfg.observable,
        "delays": fit.delays,
        "rank": fit.rank,
        "dt": dt,
        "centering": fit.centering,
        "forcing": fit.forcing,
        "method": fit.method,
        "derivative_scheme": fit.derivative_scheme,
        "center_per_half": fit.center_per_half,
        "dt_resample": cfg.dt_resample,
        "trim": cfg.trim,
    }


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
    v = model.basis.v
    p = model.state_dim
    r = model.config.rank
    forced = model.b_discrete is not None
    if forced:
        forcing = models.forcing_signal(model).values
        rollout = models.reconstruct(model, v[0, :p], v.shape[0], forcing)
    else:
        forcing = None
        rollout = models.reconstruct(model, v[0, :p], v.shape[0])
    header = ["time"] + [f"v{i + 1}" for i in range(r)]
    if forced:
        header.append("forcing")
    header.append("recon_v1")
    lines = [
        "# config: " + json.dumps(echo, sort_keys=True),
        ",".join(header),
    ]
    n = v.shape[0]
    columns = [model.t0 + np.arange(n) * model.dt, v]
    if forced:
        columns.append(forcing)
    columns.append(rollout[:, 0])
    rows = np.column_stack(columns).tolist()
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# Pipelines


def _prepared_series(cfg: PipelineConfig):
    series, obs = _resolve_input(cfg.input, cfg.observable)
    if cfg.dt_resample is not None:
        spline = preprocess.spline_fit(series)
        series = preprocess.resample(spline, cfg.dt_resample)
        if cfg.trim:
            # One delay window per end absorbs the natural-boundary error.
            series = preprocess.trim_series(series, cfg.fit.delays)
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


def run_sweep(series: TimeSeries, delays: int, rank: int, method: str,
              forcing: bool) -> dict:
    """Structure scores across a sampling-period grid and a column grid.

    The dt grid subsamples the input by strides (20, 10, 2, 1) over the
    full record (fixed time span, fixed rows); the column grid runs at
    stride 2 with n in (1001, 2001, 5001, 10001) columns (fixed dt). The
    standard input is the lorenz_sweep preset, whose base step 0.0005
    realizes dt in {0.01, 0.005, 0.001, 0.0005} and the column grid at
    dt = 0.001.
    """
    dt_rows = []
    for stride in (20, 10, 2, 1):
        sub = TimeSeries(
            t0=series.t0, dt=series.dt * stride, values=series.values[::stride]
        )
        if len(sub) < delays + rank + 1:
            raise ParameterError(
                f"input too short for stride {stride}: {len(sub)} samples"
            )
        cfg = models.FitConfig(
            delays=delays, rank=rank, method=method, forcing=forcing
        )
        model = models.fit(sub, cfg)
        dt_rows.append({
            "dt": sub.dt,
            "stride": stride,
            "columns": len(sub) - delays + 1,
            "antisymmetry": diagnostics.antisymmetry_score(model.a_continuous),
            "tridiagonality": diagnostics.tridiagonality_score(model.a_continuous),
        })
    col_rows = []
    sub = TimeSeries(t0=series.t0, dt=series.dt * 2, values=series.values[::2])
    for columns in (1001, 2001, 5001, 10001):
        need = columns + delays - 1
        if len(sub) < need:
            raise ParameterError(
                f"column sweep needs {need} samples at stride 2, got {len(sub)}"
            )
        window = TimeSeries(t0=sub.t0, dt=sub.dt, values=sub.values[:need])
        cfg = models.FitConfig(
            delays=delays, rank=rank, method=method, forcing=forcing
        )
        model = models.fit(window, cfg)
        col_rows.append({
            "columns": columns,
            "dt": sub.dt,
            "antisymmetry": diagnostics.antisymmetry_score(model.a_continuous),
            "tridiagonality": diagnostics.tridiagonality_score(model.a_continuous),
        })
    return {"dt_sweep": dt_rows, "column_sweep": col_rows}


# --------------------------------------------------------------------------
# Named scenarios


def _fit_preset(preset_name, delays, rank, method, forcing):
    series = systems.measure(
        systems.simulate(systems.preset(preset_name)),
        systems.default_observable(systems.preset(preset_name).kind),
    )
    cfg = models.FitConfig(delays=delays, rank=rank, method=method, forcing=forcing)
    return models.fit(series, cfg)


def _scenario_curvature():
    series = systems.measure(systems.simulate(systems.preset("two_tone")), "x")
    emb = center_hankel(build_hankel(series, 41))
    d1, d2, d3, d4 = derivative_stack(emb.center_row, series.dt, 4)
    analytic = analytic_curvatures_gram(d1, d2, d3, d4)
    rows = {"analytic": list(analytic)}
    for method in ("havok", "shavok"):
        cfg = models.FitConfig(delays=41, rank=4, method=method, forcing=False)
        model = models.fit(series, cfg)
        est = curvatures_from_model(model.a_continuous, model.speed)
        rows[method] = {
            "curvatures": list(est.curvatures),
            "delta_vs_analytic": [
                float(abs(a - b)) for a, b in zip(est.curvatures, analytic)
            ],
        }
    reference = (1.205e-2, 4.46e-3, 6.62e-3)
    rows["reference"] = list(reference)
    rows["analytic_within_5e-5"] = bool(
        max(abs(a - b) for a, b in zip(analytic, reference)) <= 5e-5
    )
    rows["shavok_within_5e-4"] = bool(
        max(rows["shavok"]["delta_vs_analytic"]) <= 5e-4
    )
    lines = [
        f"analytic curvatures: {analytic[0]:.5e} {analytic[1]:.5e} {analytic[2]:.5e}",
        f"analytic within 5e-5 of reference: {rows['analytic_within_5e-5']}",
        f"shavok superdiagonal within 5e-4 of analytic: {rows['shavok_within_5e-4']}",
    ]
    return rows, lines


def _monotone_with_tolerance(scores, rel=0.05):
    """Nonincreasing allowing at most one adjacent rise of <= rel."""
    violations = [
        (b - a) / a for a, b in zip(scores[:-1], scores[1:]) if b > a
    ]
    return (len(violations) == 0
            or (len(violations) == 1 and violations[0] <= rel))


def _scenario_structure_sweep():
    series = systems.measure(systems.simulate(systems.preset("lorenz_sweep")), "x")
    payload = run_sweep(series, delays=41, rank=5, method="havok", forcing=True)
    dt_scores = [row["antisymmetry"] for row in payload["dt_sweep"]]
    col_scores = [row["antisymmetry"] for row in payload["column_sweep"]]
    payload["dt_sweep_monotone"] = _monotone_with_tolerance(dt_scores)
    payload["column_sweep_monotone"] = _monotone_with_tolerance(col_scores)
    lines = [
        "dt sweep antisymmetry: " + " ".join(f"{s:.4f}" for s in dt_scores),
        "column sweep antisymmetry: " + " ".join(f"{s:.4f}" for s in col_scores),
        f"both monotone (<=1 violation of 5%): "
        f"{payload['dt_sweep_monotone'] and payload['column_sweep_monotone']}",
    ]
    return payload, lines


def _scenario_interpolation():
    fine = systems.measure(systems.simulate(systems.preset("lorenz_interp")), "x")
    coarse = TimeSeries(t0=fine.t0, dt=fine.dt * 100, values=fine.values[::100])
    delays, rank = 201, 5
    cfg = models.FitConfig(delays=delays, rank=rank, method="havok", forcing=True)
    raw_model = models.fit(coarse, cfg)
    resampled = preprocess.resample(preprocess.spline_fit(coarse), 0.001)
    resampled = preprocess.trim_series(resampled, delays)
    new_model = models.fit(resampled, cfg)
    raw_score = diagnostics.antisymmetry_score(raw_model.a_continuous)
    new_score = diagnostics.antisymmetry_score(new_model.a_continuous)
    payload = {
        "raw_antisymmetry": raw_score,
        "resampled_antisymmetry": new_score,
        "improvement_factor": raw_score / new_score,
        "improved_2x": bool(raw_score / new_score >= 2.0),
    }
    lines = [
        f"raw (dt=0.1) antisymmetry: {raw_score:.4f}",
        f"resampled (dt=0.001) antisymmetry: {new_score:.4f}",
        f"improvement: {raw_score / new_score:.1f}x (>= 2x: {payload['improved_2x']})",
    ]
    return payload, lines


def _scenario_short_spectra():
    payload = {}
    lines = []
    for kind, (short, long_, delays, rank, forcing) in _SPECTRA_CONFIGS.items():
        reference = _fit_preset(long_, delays, rank, "havok", forcing)
        havok = _fit_preset(short, delays, rank, "havok", forcing)
        shavok = _fit_preset(short, delays, rank, "shavok", forcing)
        dist_h = diagnostics.spectrum_distance(
            havok.spectrum, reference.spectrum
        ).mean_distance
        dist_s = diagnostics.spectrum_distance(
            shavok.spectrum, reference.spectrum
        ).mean_distance
        payload[kind] = {
            "delays": delays,
            "rank": rank,
            "forcing": forcing,
            "havok_mean_distance": dist_h,
            "shavok_mean_distance": dist_s,
            "shavok_closer": bool(dist_s < dist_h),
        }
        lines.append(
            f"{kind}: havok {dist_h:.4f} vs shavok {dist_s:.4f} "
            f"(shavok closer: {dist_s < dist_h})"
        )
    return payload, lines


def _scenario_stability():
    series = systems.measure(
        systems.simulate(systems.preset("pendulum_short")), "sin_theta1"
    )
    payload = {}
    lines = []
    rollout_steps = 100000
    for method in ("havok", "shavok"):
        cfg = models.FitConfig(delays=201, rank=5, method=method, forcing=True)
        model = models.fit(series, cfg)
        max_re = float(np.max(model.spectrum.eigenvalues.real))
        forcing = models.forcing_signal(model).values
        window = models.reconstruct(
            model, model.basis.v[0, :model.state_dim], model.basis.v.shape[0],
            forcing,
        )
        norms = np.linalg.norm(window, axis=1)
        initial = float(np.linalg.norm(model.basis.v[0, :model.state_dim]))
        # Long homogeneous rollout: the spectral gap decides boundedness.
        v = model.basis.v[0, :model.state_dim].copy()
        peak = float(np.linalg.norm(v))
        for _ in range(rollout_steps):
            v = model.a_discrete @ v
            n = float(np.linalg.norm(v))
            if n > peak:
                peak = n
        payload[method] = {
            "max_real_part": max_re,
            "window_peak_over_initial": float(np.max(norms) / initial),
            "homogeneous_peak_over_initial": peak / initial,
            "window_exceeds_10x": bool(np.max(norms) > 10.0 * initial),
        }
        lines.append(
            f"{method}: max Re = {max_re:+.4f}, homogeneous peak "
            f"{peak / initial:.2f}x initial over {rollout_steps} steps"
        )
    payload["shavok_max_re_not_larger"] = bool(
        payload["shavok"]["max_real_part"] <= payload["havok"]["max_real_part"]
    )
    lines.append(
        f"shavok max Re <= havok max Re: {payload['shavok_max_re_not_larger']}"
    )
    return payload, lines


def _scenario_derivative_ratio():
    delays = 41
    dt = 0.001
    payload = {"ratios": []}
    lines = []
    for columns in (10**3, 10**4, 10**5):
        samples = columns + delays - 1
        spec = systems.SystemSpec(
            kind="two_tone", parameters={}, initial_state=(),
            dt=dt, samples=samples,
        )
        series = systems.measure(systems.simulate(spec), "x")
        emb = center_hankel(build_hankel(series, delays))
        d1, d2 = derivative_stack(emb.center_row, dt, 2)
        ratio = 2.0 * float(np.linalg.norm(d2)) / float(np.linalg.norm(d1))
        payload["ratios"].append({"columns": columns, "ratio": ratio})
        lines.append(f"n = {columns}: ratio = {ratio:.4f}")
    limit = 2.0 * float(np.sqrt(17.0 / 5.0))
    final = payload["ratios"][-1]["ratio"]
    payload["limit"] = limit
    payload["final_within_1pct"] = bool(abs(final - limit) <= 0.01 * limit)
    lines.append(
        f"limit 2*sqrt(17/5) = {limit:.4f}; final within 1%: "
        f"{payload['final_within_1pct']}"
    )
    return payload, lines


def run_scenario(name: str):
    """Dispatch a named scenario; returns (payload, printed lines)."""
    runners = {
        "curvature": _scenario_curvature,
        "structure-sweep": _scenario_structure_sweep,
        "interpolation": _scenario_interpolation,
        "short-spectra": _scenario_short_spectra,
        "stability": _scenario_stability,
        "derivative-ratio": _scenario_derivative_ratio,
    }
    if name not in runners:
        raise ParameterError(
            f"unknown scenario {name!r}; available: {', '.join(_SCENARIOS)}"
        )
    return runners[name]()


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
                        help="spline-resample the input to this step first")
    parser.add_argument("--no-trim", dest="trim", action="store_false",
                        help="keep the spline's edge windows after resampling")
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
                   help=", ".join(_SCENARIOS))
    p.add_argument("--out-dir", required=True)
    return parser


def _write_artifacts(out_dir: str, artifacts: dict):
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in artifacts.items():
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
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
        trim=args.trim,
        out_dir=args.out_dir,
    )


def _run(args) -> int:
    if args.command == "simulate":
        if args.input not in systems.preset_names():
            raise ParameterError(
                f"simulate needs a preset name, got {args.input!r}; "
                f"available: {', '.join(systems.preset_names())}"
            )
        spec = systems.preset(args.input)
        obs = args.observable or systems.default_observable(spec.kind)
        series = systems.measure(systems.simulate(spec), obs)
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
    payload, lines = run_scenario(args.scenario)
    name = args.scenario.replace("-", "_") + ".json"
    _write_artifacts(args.out_dir, {name: _dump_json(payload)})
    for line in lines:
        print(line)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
