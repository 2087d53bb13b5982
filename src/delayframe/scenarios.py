"""Named verification scenarios: the method's headline claims as runs.

Each scenario simulates the presets it needs once, fits them, and returns
``(payload, lines)``: a JSON-ready dict and the summary lines that
``delayframe reproduce`` prints. The acceptance tests assert on the same
payloads, so each claim is computed in one place. ``run_sweep`` is the
sampling-period/column-count sweep behind both the ``sweep`` command and
the ``structure-sweep`` scenario.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import diagnostics, models, preprocess, systems
from .embedding import TimeSeries, center_row
from .errors import DelayFrameError, ParameterError
from .geometry import analytic_curvatures_gram, curvatures_from_model, derivative_stack

__all__ = [
    "CURVATURE_REFERENCE",
    "SCENARIOS",
    "SPECTRA_CONFIGS",
    "monotone_with_tolerance",
    "run_sweep",
]

# Curvatures of the sin(t) + sin(2t) delay trajectory (41 delays, dt 0.001).
CURVATURE_REFERENCE = (1.205e-2, 4.46e-3, 6.62e-3)

# Calibrated fit configurations for the short-vs-long spectrum scenario:
# kind -> (short preset, long preset, delays, rank, forcing). Each short
# preset is its long preset with fewer samples.
SPECTRA_CONFIGS = {
    "lorenz": ("lorenz_short", "lorenz_long", 101, 5, True),
    "rossler": ("rossler_short", "rossler_long", 51, 6, False),
    "double_pendulum": ("pendulum_short", "pendulum_long", 401, 4, True),
}


def monotone_with_tolerance(scores, rel=0.05):
    """Nonincreasing allowing at most one adjacent rise of <= rel."""
    violations = [
        (b - a) / a for a, b in zip(scores[:-1], scores[1:]) if b > a
    ]
    return (len(violations) == 0
            or (len(violations) == 1 and violations[0] <= rel))


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
    cfg = models.FitConfig(delays=delays, rank=rank, method=method, forcing=forcing)
    dt_rows = []
    for stride in (20, 10, 2, 1):
        # Checked before the TimeSeries is built, which rejects < 2 samples
        # with a message that names no stride.
        values = series.values[::stride]
        if len(values) < delays + rank + 1:
            raise ParameterError(
                f"input too short for stride {stride}: {len(values)} samples"
            )
        sub = TimeSeries(t0=series.t0, dt=series.dt * stride, values=values)
        row = _structure_row(sub, cfg, f"stride {stride} (dt {sub.dt:g})")
        dt_rows.append({"stride": stride, **row})
    col_rows = []
    sub = TimeSeries(t0=series.t0, dt=series.dt * 2, values=series.values[::2])
    for columns in (1001, 2001, 5001, 10001):
        need = columns + delays - 1
        if len(sub) < need:
            raise ParameterError(
                f"column sweep needs {need} samples at stride 2, got {len(sub)}"
            )
        window = TimeSeries(t0=sub.t0, dt=sub.dt, values=sub.values[:need])
        col_rows.append(_structure_row(window, cfg, f"{columns} columns"))
    return {"dt_sweep": dt_rows, "column_sweep": col_rows}


def _structure_row(x: TimeSeries, cfg: models.FitConfig, label: str) -> dict:
    """Fit ``x`` and score the generator's structure: one sweep row.

    A failed fit re-raises its own error class, so the exit code is kept,
    with ``label`` naming the grid row.
    """
    try:
        a = models.fit(x, cfg).a_continuous
    except DelayFrameError as exc:
        raise exc.__class__(f"sweep fit at {label} failed: {exc}") from exc
    return {
        "dt": x.dt,
        "columns": len(x) - cfg.delays + 1,
        "antisymmetry": diagnostics.antisymmetry_score(a),
        "tridiagonality": diagnostics.tridiagonality_score(a),
    }


def _curvature():
    series = systems.preset_series("two_tone")[0]
    d1, d2, d3, d4 = derivative_stack(center_row(series, 41), series.dt, 4)
    analytic = analytic_curvatures_gram(d1, d2, d3, d4)
    rows = {"analytic": list(analytic)}
    for method in ("havok", "shavok"):
        cfg = models.FitConfig(delays=41, rank=4, method=method, forcing=False)
        model = models.fit(series, cfg)
        est = curvatures_from_model(model.a_continuous, model.speed)
        rep = diagnostics.structure_report(est.k_matrix)
        rows[method] = {
            "curvatures": list(est.curvatures),
            "delta_vs_analytic": [
                float(abs(a - b)) for a, b in zip(est.curvatures, analytic)
            ],
            "subdiagonal": list(rep.subdiagonal),
            "offband_max": rep.offband_max,
            "antisymmetry": rep.antisymmetry,
            "tridiagonality": rep.tridiagonality,
        }
    rows["reference"] = list(CURVATURE_REFERENCE)
    rows["analytic_within_5e-5"] = bool(
        max(abs(a - b) for a, b in zip(analytic, CURVATURE_REFERENCE)) <= 5e-5
    )
    rows["shavok_within_5e-4"] = bool(
        max(rows["shavok"]["delta_vs_analytic"]) <= 5e-4
    )
    lines = [
        f"analytic curvatures: {analytic[0]:.5e} {analytic[1]:.5e} {analytic[2]:.5e}",
        f"analytic within 5e-5 of reference: {rows['analytic_within_5e-5']}",
    ]
    lines.extend(
        f"{method}: antisymmetry {rows[method]['antisymmetry']:.3e}, "
        f"tridiagonality {rows[method]['tridiagonality']:.3e}, "
        f"superdiagonal vs analytic max delta "
        f"{max(rows[method]['delta_vs_analytic']):.2e}"
        for method in ("havok", "shavok")
    )
    lines.append(
        f"shavok superdiagonal within 5e-4 of analytic: {rows['shavok_within_5e-4']}"
    )
    return rows, lines


def _structure_sweep():
    series = systems.preset_series("lorenz_sweep")[0]
    payload = run_sweep(series, delays=41, rank=5, method="havok", forcing=True)
    dt_scores = [row["antisymmetry"] for row in payload["dt_sweep"]]
    col_scores = [row["antisymmetry"] for row in payload["column_sweep"]]
    payload["dt_sweep_monotone"] = monotone_with_tolerance(dt_scores)
    payload["column_sweep_monotone"] = monotone_with_tolerance(col_scores)
    lines = [
        "dt sweep antisymmetry: " + " ".join(f"{s:.4f}" for s in dt_scores),
        "column sweep antisymmetry: " + " ".join(f"{s:.4f}" for s in col_scores),
        f"both monotone (<=1 violation of 5%): "
        f"{payload['dt_sweep_monotone'] and payload['column_sweep_monotone']}",
    ]
    return payload, lines


def _interpolation():
    fine = systems.preset_series("lorenz_interp")[0]
    coarse = TimeSeries(t0=fine.t0, dt=fine.dt * 100, values=fine.values[::100])
    delays, rank = 201, 5
    cfg = models.FitConfig(delays=delays, rank=rank, method="havok", forcing=True)
    raw_model = models.fit(coarse, cfg)
    resampled = preprocess.trim_series(preprocess.resample(coarse, 0.001), delays)
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


def _short_spectra():
    payload = {}
    lines = []
    for kind, (short, long_, delays, rank, forcing) in SPECTRA_CONFIGS.items():
        cfg = models.FitConfig(delays=delays, rank=rank, forcing=forcing)
        full = systems.preset_series(long_)[0]
        reference = models.fit(full, cfg)
        # The short preset is the long one stopped early, so its series is
        # a prefix of the long series rather than a second simulation.
        series = TimeSeries(
            t0=full.t0, dt=full.dt,
            values=full.values[:systems.preset(short).samples],
        )
        havok = models.fit(series, cfg)
        shavok = models.fit(series, replace(cfg, method="shavok"))
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


def _stability():
    series = systems.preset_series("pendulum_short")[0]
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
        # The peak squared row norm, square-rooted once: sqrt is monotone,
        # so it picks the same row as the peak of the row norms.
        homogeneous = models.reconstruct(
            model, model.basis.v[0, :model.state_dim], rollout_steps + 1,
            np.zeros(rollout_steps),
        )
        peak_sq = np.max(np.einsum("ij,ij->i", homogeneous, homogeneous))
        peak = float(np.sqrt(peak_sq))
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


def _derivative_ratio():
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
        d1, d2 = derivative_stack(center_row(series, delays), dt, 2)
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


# Scenario name -> runner returning (payload, printed lines).
SCENARIOS = {
    "curvature": _curvature,
    "structure-sweep": _structure_sweep,
    "interpolation": _interpolation,
    "short-spectra": _short_spectra,
    "stability": _stability,
    "derivative-ratio": _derivative_ratio,
}
