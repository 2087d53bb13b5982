import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import delayframe
from delayframe import models
from delayframe.cli import format_series_csv, load_series_csv, main
from delayframe.embedding import TimeSeries
from delayframe.errors import DataError


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_csv_round_trip(tmp_path):
    x = TimeSeries(t0=0.5, dt=0.25, values=np.array([1.0, -2.5, 3.125, 0.1]))
    path = _write(tmp_path / "x.csv", format_series_csv(x))
    y = load_series_csv(path)
    assert y.t0 == x.t0
    assert y.dt == pytest.approx(x.dt, rel=1e-12)
    np.testing.assert_array_equal(y.values, x.values)


def test_csv_requires_header(tmp_path):
    path = _write(tmp_path / "x.csv", "0.0,1.0\n0.1,2.0\n0.2,3.0\n")
    with pytest.raises(DataError, match="header"):
        load_series_csv(path)


def test_csv_rejects_bad_rows(tmp_path):
    path = _write(tmp_path / "x.csv", "time,value\n0.0,1.0\n0.1,abc\n")
    with pytest.raises(DataError, match="row 3"):
        load_series_csv(path)
    path = _write(tmp_path / "y.csv", "time,value\n0.0,1.0,9\n0.1,2.0\n")
    with pytest.raises(DataError, match="columns"):
        load_series_csv(path)


def test_csv_rejects_jitter_with_hint(tmp_path):
    rows = "time,value\n0.0,1.0\n0.1,2.0\n0.25,3.0\n0.3,4.0\n"
    path = _write(tmp_path / "x.csv", rows)
    with pytest.raises(DataError, match="resample"):
        load_series_csv(path)


def test_csv_rejects_nonincreasing_time(tmp_path):
    path = _write(tmp_path / "x.csv", "time,value\n0.2,1.0\n0.1,2.0\n0.0,3.0\n")
    with pytest.raises(DataError, match="increasing"):
        load_series_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_csv_rejects_non_finite_time(tmp_path, capsys, bad):
    path = _write(tmp_path / "x.csv",
                  f"time,value\n0.0,1.0\n{bad},2.0\n0.2,3.0\n0.3,4.0\n")
    with pytest.raises(DataError, match="non-finite"):
        load_series_csv(path)
    code = main(["diagnose", "--input", path, "--delays", "2", "--rank", "2",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_simulate_writes_closed_form(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--input", "two_tone", "--out-dir", str(out)]) == 0
    series = load_series_csv(str(out / "series.csv"))
    t = 0.001 * np.arange(10001)
    np.testing.assert_allclose(
        series.values, np.sin(t) + np.sin(2.0 * t), atol=1e-12
    )


def test_simulate_rejects_csv_input(tmp_path):
    code = main(["simulate", "--input", "whatever", "--out-dir",
                 str(tmp_path / "o")])
    assert code == 2


def test_fit_artifacts(tmp_path):
    out = tmp_path / "fit"
    code = main([
        "fit", "--input", "two_tone", "--delays", "41", "--rank", "4",
        "--method", "shavok", "--no-forcing", "--out-dir", str(out),
    ])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"model.json", "spectrum.json", "report.json",
                     "plotdata.csv"}

    model = json.loads((out / "model.json").read_text())
    assert model["a_continuous"]["dims"] == [4, 4]
    assert len(model["a_continuous"]["data"]) == 4
    assert model["b_discrete"] is None
    assert model["b_continuous"] is None
    assert len(model["singular_values"]) == 4
    echo = model["config"]
    assert echo["method"] == "shavok"
    assert echo["forcing"] is False
    assert echo["centering"] is True
    assert echo["dt"] == 0.001
    assert echo["delays"] == 41

    spectrum = json.loads((out / "spectrum.json").read_text())
    assert len(spectrum["continuous"]) == 4
    freqs = sorted(abs(im) for _, im in spectrum["continuous"])
    assert freqs[0] == pytest.approx(0.936, abs=0.01)

    report = json.loads((out / "report.json").read_text())
    assert report["antisymmetry"] < 1e-2
    assert len(report["curvatures"]) == 3

    header = (out / "plotdata.csv").read_text().splitlines()[1]
    assert header == "time,v1,v2,v3,v4,recon_v1"


def test_fit_forced_has_b_and_forcing_column(tmp_path):
    out = tmp_path / "fit"
    code = main([
        "fit", "--input", "two_tone", "--delays", "41", "--rank", "5",
        "--out-dir", str(out),
    ])
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert model["b_discrete"]["dims"] == [4]
    assert model["state_dim"] == 4
    header = (out / "plotdata.csv").read_text().splitlines()[1]
    assert header == "time,v1,v2,v3,v4,v5,forcing,recon_v1"


def test_fit_is_idempotent(tmp_path):
    args = ["fit", "--input", "two_tone", "--delays", "41", "--rank", "4",
            "--no-forcing"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    for name in ("model.json", "spectrum.json", "report.json", "plotdata.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fit_on_csv_round_trip_matches_preset(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--input", "two_tone", "--out-dir", str(sim)]) == 0
    args = ["--delays", "41", "--rank", "4", "--no-forcing"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["fit", "--input", "two_tone"] + args
                + ["--out-dir", str(a)]) == 0
    assert main(["fit", "--input", str(sim / "series.csv")] + args
                + ["--out-dir", str(b)]) == 0
    one = json.loads((a / "model.json").read_text())
    two = json.loads((b / "model.json").read_text())
    # Only the echoed input name and observable may differ.
    cfg_one, cfg_two = one.pop("config"), two.pop("config")
    assert cfg_two["input"].endswith("series.csv")
    assert cfg_two["observable"] is None
    for key in ("input", "observable"):
        cfg_one.pop(key), cfg_two.pop(key)
    assert cfg_one == cfg_two
    assert one == two


def test_spectrum_and_diagnose_write_subsets(tmp_path):
    base = ["--input", "two_tone", "--delays", "41", "--rank", "4",
            "--no-forcing"]
    s_dir, d_dir = tmp_path / "s", tmp_path / "d"
    assert main(["spectrum"] + base + ["--out-dir", str(s_dir)]) == 0
    assert main(["diagnose"] + base + ["--out-dir", str(d_dir)]) == 0
    assert {p.name for p in s_dir.iterdir()} == {"spectrum.json"}
    assert {p.name for p in d_dir.iterdir()} == {"report.json"}


@pytest.mark.parametrize("command, name", [
    ("spectrum", "spectrum.json"),
    ("diagnose", "report.json"),
])
def test_single_artifact_commands_match_fit(tmp_path, command, name):
    base = ["--input", "two_tone", "--delays", "41", "--rank", "4",
            "--no-forcing"]
    fit_dir, one_dir = tmp_path / "fit", tmp_path / "one"
    assert main(["fit"] + base + ["--out-dir", str(fit_dir)]) == 0
    assert main([command] + base + ["--out-dir", str(one_dir)]) == 0
    assert [p.name for p in one_dir.iterdir()] == [name]
    assert (one_dir / name).read_bytes() == (fit_dir / name).read_bytes()


@pytest.mark.parametrize("rank, forcing", [(4, False), (5, True)])
def test_plotdata_rows_match_per_cell_repr(tmp_path, two_tone, rank, forcing):
    args = ["fit", "--input", "two_tone", "--delays", "41", "--rank",
            str(rank), "--out-dir", str(tmp_path)]
    if not forcing:
        args.append("--no-forcing")
    assert main(args) == 0
    rows = (tmp_path / "plotdata.csv").read_text().splitlines()[2:]
    # Reference: the row format written one cell at a time.
    model = models.fit(two_tone, models.FitConfig(
        delays=41, rank=rank, forcing=forcing))
    v = model.basis.v
    f = models.forcing_signal(model).values if forcing else None
    rollout = models.reconstruct(model, v[0, :model.state_dim], v.shape[0],
                                 f)
    expected = []
    for k in range(v.shape[0]):
        cells = [repr(model.t0 + k * model.dt)]
        cells += [repr(float(x)) for x in v[k]]
        if forcing:
            cells.append(repr(float(f[k])))
        cells.append(repr(float(rollout[k, 0])))
        expected.append(",".join(cells))
    assert rows == expected


@pytest.mark.parametrize("under", [False, True])
def test_unusable_out_dir_is_a_config_error(tmp_path, capsys, under):
    blocker = _write(tmp_path / "file", "not a directory\n")
    out = os.path.join(blocker, "sub") if under else blocker
    code = main(["simulate", "--input", "two_tone", "--out-dir", out])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and blocker in err
    assert "Traceback" not in err


def test_failed_write_leaves_no_partial_artifacts(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "plotdata.csv").mkdir(parents=True)
    code = main(["fit", "--input", "two_tone", "--delays", "41", "--rank", "4",
                 "--no-forcing", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    # nothing was moved into place, and the staging directory is gone
    assert os.listdir(out) == ["plotdata.csv"]
    assert os.listdir(out / "plotdata.csv") == []
    assert err.startswith("error:") and "plotdata.csv" in err
    assert "Traceback" not in err


def test_rewrite_replaces_every_artifact(tmp_path):
    out = tmp_path / "o"
    args = ["fit", "--input", "two_tone", "--delays", "41", "--rank", "4",
            "--no-forcing", "--out-dir", str(out)]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    (out / "model.json").write_text("stale\n")
    assert main(args) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    assert sorted(first) == ["model.json", "plotdata.csv", "report.json",
                             "spectrum.json"]


# 1e16 samples is beyond the address space, 1e301 beyond what numpy can
# index, and 1e-320 asks for infinitely many: nothing is allocated.
@pytest.mark.parametrize("dt", ["1e-15", "1e-300", "1e-320"])
def test_resample_grid_too_large_is_a_config_error(tmp_path, capsys, dt):
    out = tmp_path / "o"
    code = main(["fit", "--input", "two_tone", "--dt-resample", dt,
                 "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and f"dt_new = {dt}" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_report_scores_finite_at_a_tiny_step(tmp_path, capsys):
    # At dt 1e-300 the generator (A - I)/dt has entries near 1e299, whose
    # squares overflow unless the scores rescale the matrix first; so do
    # the centered fit's velocity entries unless its speed is rescaled.
    def fit_report(dt, *flags):
        rows = [f"{k * dt!r},{math.sin(0.3 * k)!r}" for k in range(27)]
        path = _write(tmp_path / f"x{dt!r}.csv",
                      "time,value\n" + "\n".join(rows) + "\n")
        out = tmp_path / f"o{dt!r}{''.join(flags)}"
        code = main(["fit", "--input", path, "--delays", "5", "--rank", "3",
                     *flags, "--out-dir", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        return json.loads((out / "report.json").read_text(),
                          parse_constant=_reject_constant)

    report = fit_report(1e-300, "--no-centering")
    for name in ("antisymmetry", "tridiagonality"):
        assert math.isfinite(report[name]) and 0.0 <= report[name] <= 1.0
    # Curvatures are rates per unit arc length, so the step cancels.
    tiny, unit = fit_report(1e-300), fit_report(1.0)
    assert math.isfinite(tiny["speed"]) and tiny["speed"] > 0.0
    np.testing.assert_allclose(tiny["curvatures"], unit["curvatures"],
                               rtol=1e-12, atol=0.0)


def test_fit_with_even_delays_and_centering_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["fit", "--input", "two_tone", "--delays", "40", "--rank", "4",
                 "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "use an odd number of delays or turn centering off" in err
    assert not out.exists()


def test_csv_not_utf8_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_bytes(b"time,value\n0.0,1.0\n0.1,\xff\xfe\n0.2,3.0\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_series_csv(str(path))
    out = tmp_path / "o"
    code = main(["diagnose", "--input", str(path), "--delays", "11",
                 "--rank", "3", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "not UTF-8" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(delayframe.__file__)))
    probe = ("import sys, delayframe.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "o")
    # config error: rank out of range
    assert main(["fit", "--input", "two_tone", "--delays", "5",
                 "--rank", "9", "--out-dir", out]) == 2
    # data error: missing file
    assert main(["fit", "--input", str(tmp_path / "no.csv"),
                 "--delays", "5", "--rank", "3", "--out-dir", out]) == 3
    # numerical error: constant signal has no rank at all
    flat = TimeSeries(t0=0.0, dt=0.01, values=np.zeros(100))
    path = _write(tmp_path / "flat.csv", format_series_csv(flat))
    assert main(["fit", "--input", path, "--delays", "11", "--rank", "3",
                 "--out-dir", out]) == 4
    err = capsys.readouterr().err
    assert "error" in err
    # every failure above must leave no partial artifacts behind
    assert not (tmp_path / "o").exists()


def test_unknown_preset_lists_options(tmp_path, capsys):
    assert main(["fit", "--input", "lorenz", "--delays", "11", "--rank", "3",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "lorenz_short" in capsys.readouterr().err


def test_observable_flag(tmp_path):
    out = tmp_path / "o"
    code = main([
        "diagnose", "--input", "pendulum_short", "--observable", "sin_theta2",
        "--delays", "201", "--rank", "5", "--out-dir", str(out),
    ])
    assert code == 0
    echo = json.loads((out / "report.json").read_text())["config"]
    assert echo["observable"] == "sin_theta2"


def test_observable_rejected_for_csv(tmp_path):
    x = TimeSeries(t0=0.0, dt=0.01, values=np.sin(np.arange(300) * 0.01))
    path = _write(tmp_path / "x.csv", format_series_csv(x))
    code = main(["diagnose", "--input", path, "--observable", "x",
                 "--delays", "11", "--rank", "3", "--out-dir",
                 str(tmp_path / "o")])
    assert code == 2


def test_dt_resample_flow(tmp_path):
    x = TimeSeries(t0=0.0, dt=0.1,
                   values=np.sin(np.arange(0.0, 50.0, 0.1)))
    path = _write(tmp_path / "coarse.csv", format_series_csv(x))
    base = ["fit", "--input", path, "--delays", "41", "--rank", "3",
            "--no-forcing", "--dt-resample", "0.01"]
    out_trim = tmp_path / "trim"
    out_full = tmp_path / "full"
    assert main(base + ["--out-dir", str(out_trim)]) == 0
    assert main(base + ["--no-trim", "--out-dir", str(out_full)]) == 0
    trimmed = json.loads((out_trim / "model.json").read_text())
    full = json.loads((out_full / "model.json").read_text())
    assert trimmed["config"]["dt"] == 0.01
    assert trimmed["config"]["trim"] is True
    assert full["config"]["trim"] is False
    # trimming drops one delay window per end before fitting
    assert trimmed["t0"] == pytest.approx(full["t0"] + 41 * 0.01)


def test_sweep_input_too_short(tmp_path, capsys):
    x = TimeSeries(t0=0.0, dt=0.01, values=np.sin(np.arange(500) * 0.01))
    path = _write(tmp_path / "x.csv", format_series_csv(x))
    code = main(["sweep", "--input", path, "--delays", "41", "--rank", "5",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()


def test_reproduce_curvature(tmp_path, capsys):
    out = tmp_path / "rep"
    code = main(["reproduce", "--scenario", "curvature",
                 "--out-dir", str(out)])
    assert code == 0
    assert "analytic curvatures" in capsys.readouterr().out
    payload = json.loads((out / "curvature.json").read_text())
    assert payload["analytic_within_5e-5"] is True
    assert payload["shavok_within_5e-4"] is True


def test_reproduce_unknown_scenario(tmp_path, capsys):
    code = main(["reproduce", "--scenario", "nope",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "derivative-ratio" in capsys.readouterr().err
