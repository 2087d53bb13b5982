import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delayframe
from delayframe import cli, csvio, linalg, models, systems
from delayframe.cli import format_series_csv, load_series_csv, main
from delayframe.embedding import TimeSeries
from delayframe.errors import DataError, NumericalError


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


@pytest.mark.parametrize("rows", ["", "0.0,1.0\n", "# note\n0.0,1.0\n\n"])
def test_csv_needs_two_data_rows(tmp_path, rows):
    path = _write(tmp_path / "x.csv", "time,value\n" + rows)
    with pytest.raises(DataError, match="need at least 2 data rows"):
        load_series_csv(path)


def test_csv_with_byte_order_mark_fits_as_without(tmp_path):
    t = 0.01 * np.arange(300)
    text = format_series_csv(TimeSeries(t0=0.0, dt=0.01, values=np.sin(t)))
    plain = _write(tmp_path / "plain.csv", text)
    marked = _write(tmp_path / "bom.csv", "\ufeff" + text)
    assert (tmp_path / "bom.csv").read_bytes()[:3] == b"\xef\xbb\xbf"
    outs = []
    for name, path in (("plain", plain), ("bom", marked)):
        out = tmp_path / name
        assert main(["fit", "--input", path, "--delays", "11", "--rank", "3",
                     "--out-dir", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        del model["config"]["input"]
        outs.append(model)
    assert outs[0] == outs[1]


def test_csv_indented_comment_is_skipped(tmp_path):
    # Whitespace-only and blank lines are skipped too.
    path = _write(tmp_path / "x.csv",
                  "time,value\n0.0,1.0\n  # note\n0.1,2.0\n\t#tab\n \t \n\n"
                  "0.2,3.0\n")
    y = load_series_csv(path)
    np.testing.assert_array_equal(y.values, [1.0, 2.0, 3.0])


def test_csv_with_crlf_line_ends_reads_as_with_lf(tmp_path):
    text = "time,value\n# note\n0.0,1.5\n0.1,-2.0\n0.2,3.25\n"
    plain = load_series_csv(_write(tmp_path / "lf.csv", text))
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    y = load_series_csv(str(crlf))
    assert (y.t0, y.dt) == (plain.t0, plain.dt)
    assert y.values.tobytes() == plain.values.tobytes()


def test_csv_rejects_bad_rows(tmp_path):
    path = _write(tmp_path / "x.csv", "time,value\n0.0,1.0\n0.1,abc\n")
    with pytest.raises(DataError, match="line 3 is not numeric"):
        load_series_csv(path)
    path = _write(tmp_path / "y.csv", "time,value\n0.0,1.0,9\n0.1,2.0\n")
    with pytest.raises(DataError, match="line 2 has 3 columns"):
        load_series_csv(path)
    # Header, comments and blank lines count: the bad row is line 5.
    path = _write(tmp_path / "z.csv", "time,value\n# note\n\n0.0,1.0\n0.1,abc\n")
    with pytest.raises(DataError, match="line 5 is not numeric"):
        load_series_csv(path)
    path = _write(tmp_path / "w.csv", "# note\ntime,value\n\n0.0,1.0\n0.1\n")
    with pytest.raises(DataError, match="line 5 has 1 columns"):
        load_series_csv(path)
    # A comment after a row is not stripped.
    path = _write(tmp_path / "v.csv", "time,value\n0.0,1.0 # note\n0.1,2.0\n")
    with pytest.raises(DataError, match="line 2 is not numeric: '0.0,1.0 # note'"):
        load_series_csv(path)


_CSV_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e300, -1e300, 5e-324, -5e-324, 2.225e-308, -0.0]),
)
# dt reads back within 1e-9 of itself only while |t0| stays within a few
# million steps of zero: the rounding of the end times moves the mean step
# by up to 2 * eps * max|t| / (rows - 1).
_CSV_GRID = st.tuples(st.floats(1e-6, 1e3), st.floats(-1e6, 1e6))
# The last three are cells that Python's float() reads (as 10, 12 and 1)
# but numpy's C parser does not: digit separators and non-ASCII digits.
_BAD_ROWS = st.sampled_from(
    ["0.5", "0.5,1.0,2.0", "0.5,abc", "abc,1.0", "0.5,", ",", "0.5;1.0",
     "0.5,1_0", "\u0661\u0662,1.0", "0.5,\uff11"]
)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_CSV_VALUES, min_size=2, max_size=40), grid=_CSV_GRID)
def test_csv_round_trip_keeps_the_bits(tmp_path_factory, values, grid):
    dt, steps = grid
    x = TimeSeries(t0=steps * dt, dt=dt, values=np.array(values))
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    y = load_series_csv(_write(path, format_series_csv(x)))
    # Compared by value: the time column is t0 + k*dt, so t0 = -0.0 is
    # written as 0.0.
    assert y.t0 == x.t0
    assert y.values.tobytes() == x.values.tobytes()
    assert y.dt == pytest.approx(x.dt, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_CSV_VALUES, min_size=2, max_size=20),
       filler=st.lists(st.sampled_from(["", "# note", "  #x", "\t"]), max_size=5),
       bad=_BAD_ROWS, data=st.data())
def test_csv_names_the_file_line_of_a_bad_row(tmp_path_factory, values,
                                              filler, bad, data):
    """A bad row anywhere after the header is reported by its 1-based line
    in the file, counting the header, comments and blank lines."""
    lines = format_series_csv(
        TimeSeries(t0=0.0, dt=0.5, values=np.array(values))).splitlines()
    for line in filler:
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    header = lines.index("time,value")
    at = data.draw(st.integers(header + 1, len(lines)))
    lines.insert(at, bad)
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    _write(path, "\n".join(lines) + "\n")
    with pytest.raises(DataError, match=rf": line {at + 1} (has|is not numeric)"):
        load_series_csv(str(path))


def test_csv_round_trip_keeps_the_bits_from_1e_300_to_1e300(tmp_path):
    # Values only: dt reads back as the mean step (see format_series_csv).
    rng = np.random.default_rng(300)
    values = np.concatenate([
        10.0 ** rng.uniform(-300.0, 300.0, 20_000),
        rng.integers(1, 2**52, 2_000).view(np.float64),  # subnormal
        [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300],
    ])
    values *= rng.choice([-1.0, 1.0], len(values))
    x = TimeSeries(t0=0.0, dt=0.5, values=values)
    y = load_series_csv(_write(tmp_path / "x.csv", format_series_csv(x)))
    assert y.values.tobytes() == x.values.tobytes()


def test_csv_rejects_jitter_with_hint(tmp_path):
    rows = "time,value\n0.0,1.0\n0.1,2.0\n0.25,3.0\n0.3,4.0\n"
    path = _write(tmp_path / "x.csv", rows)
    with pytest.raises(DataError, match="resample"):
        load_series_csv(path)


@pytest.mark.parametrize("t0", [1e6, 1.7e9])
def test_csv_round_trip_from_a_clock_far_from_zero(tmp_path, t0):
    # The times' own rounding spreads the steps by up to 4 * eps * max|t|,
    # at 1.7e9 (Unix seconds) 2e-4 of a 1 ms step.
    x = TimeSeries(t0=t0, dt=1e-3, values=np.sin(np.arange(3000.0)))
    y = load_series_csv(_write(tmp_path / "x.csv", format_series_csv(x)))
    assert y.t0 == x.t0
    assert y.values.tobytes() == x.values.tobytes()
    end = t0 + 3000 * x.dt
    assert abs(y.dt - x.dt) <= 1e-9 * x.dt + 2 * np.finfo(float).eps * end / 2999


@pytest.mark.parametrize("t0", [0.0, 1.7e9])
def test_csv_rejects_jitter_above_the_rounding_bound(tmp_path, capsys, t0):
    # One time moved by the bound moves two steps by it, in opposite
    # directions, so their spread exceeds it whatever the rounding.
    x = TimeSeries(t0=t0, dt=1e-3, values=np.zeros(3000))
    rows = format_series_csv(x).splitlines()
    time, value = map(float, rows[1500].split(","))
    end = float(rows[-1].split(",")[0])
    bound = 1e-9 * x.dt + 4 * sys.float_info.epsilon * end
    rows[1500] = f"{time + bound!r},{value!r}"
    path = _write(tmp_path / "x.csv", "\n".join(rows) + "\n")
    code = main(["diagnose", "--input", path, "--delays", "2", "--rank", "2",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert "sampling is not uniform" in capsys.readouterr().err


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


def test_csv_non_finite_value_names_the_file(tmp_path, capsys):
    path = _write(tmp_path / "x.csv", "time,value\n0,1\n1,2\n2,nan\n")
    message = f"{path}: value column has non-finite entries"
    with pytest.raises(DataError) as err:
        load_series_csv(path)
    assert str(err.value) == message
    code = main(["diagnose", "--input", path, "--delays", "2", "--rank", "2",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_fit_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Two OpenBLAS threads sum the 401-row Gram matrix and the correlations
    # in another order than one, unless the command pins one thread.
    src = os.path.dirname(os.path.dirname(os.path.abspath(delayframe.__file__)))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "delayframe", "fit",
                        "--input", "lorenz_sweep", "--delays", "401",
                        "--rank", "4", "--method", "shavok",
                        "--out-dir", str(out)],
                       env=env, capture_output=True, check=True)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["model.json", "plotdata.csv", "report.json", "spectrum.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class _FakeBlas:
    """A BLAS thread count read and set through recording callables."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def get(self):
        self.calls.append("get")
        return self.threads

    def set(self, threads):
        self.calls.append(threads)
        self.threads = threads


@pytest.fixture()
def fake_blas(monkeypatch):
    blas = _FakeBlas(3)
    monkeypatch.setattr(linalg, "_blas_thread_functions",
                        lambda: (blas.get, blas.set))
    return blas


def test_main_runs_the_fit_on_one_blas_thread(tmp_path, monkeypatch, fake_blas):
    seen = []
    fit = models.fit

    def recording_fit(series, cfg):
        seen.append(fake_blas.threads)
        return fit(series, cfg)

    monkeypatch.setattr(models, "fit", recording_fit)
    code = main(["fit", "--input", "two_tone", "--delays", "41", "--rank", "4",
                 "--no-forcing", "--out-dir", str(tmp_path / "o")])
    assert code == 0
    assert seen == [1]
    assert fake_blas.calls == ["get", 1, 3]
    assert fake_blas.threads == 3


def test_main_restores_the_blas_threads_after_each_error_exit(tmp_path, capsys,
                                                             fake_blas):
    flat = TimeSeries(t0=0.0, dt=0.01, values=np.zeros(100))
    flat_csv = _write(tmp_path / "flat.csv", format_series_csv(flat))
    out = str(tmp_path / "o")
    for expected, source, delays, rank in ((2, "two_tone", "5", "9"),
                                           (3, str(tmp_path / "no.csv"), "5", "3"),
                                           (4, flat_csv, "11", "3")):
        fake_blas.calls.clear()
        assert main(["fit", "--input", source, "--delays", delays,
                     "--rank", rank, "--out-dir", out]) == expected
        assert fake_blas.calls == ["get", 1, 3]
        assert fake_blas.threads == 3
    assert capsys.readouterr().err.count("error:") == 3


def test_main_without_a_blas_thread_setter_writes_the_same_bytes(tmp_path,
                                                                 monkeypatch):
    args = ["fit", "--input", "two_tone", "--delays", "41", "--rank", "4",
            "--no-forcing"]
    pinned, unpinned = tmp_path / "pinned", tmp_path / "unpinned"
    assert main(args + ["--out-dir", str(pinned)]) == 0
    monkeypatch.setattr(linalg, "_blas_thread_functions", lambda: (None, None))
    assert main(args + ["--out-dir", str(unpinned)]) == 0
    for name in ("model.json", "spectrum.json", "report.json", "plotdata.csv"):
        assert (pinned / name).read_bytes() == (unpinned / name).read_bytes()


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


def _plotdata_one_shot(model, echo):
    """Reference: the whole table stacked, listed and joined at once."""
    v = model.basis.v
    forced = model.b_discrete is not None
    forcing = models.forcing_signal(model).values if forced else None
    rollout = models.reconstruct(model, v[0, :model.state_dim], v.shape[0],
                                 forcing)
    header = ["time"] + [f"v{i + 1}" for i in range(model.config.rank)]
    if forced:
        header.append("forcing")
    header.append("recon_v1")
    lines = ["# config: " + json.dumps(echo, sort_keys=True), ",".join(header)]
    columns = [model.t0 + np.arange(v.shape[0]) * model.dt, v]
    if forced:
        columns.append(forcing)
    columns.append(rollout[:, 0])
    lines.extend(",".join(map(repr, row))
                 for row in np.column_stack(columns).tolist())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rank, forcing", [(4, False), (5, True)])
def test_plotdata_chunks_join_to_the_one_shot_table(monkeypatch, two_tone,
                                                    rank, forcing):
    # Calls of whole rows, from a few hundred rows to past the row count,
    # give the bytes of the table formatted in one piece.
    model = models.fit(two_tone, models.FitConfig(
        delays=41, rank=rank, forcing=forcing))
    echo = {"input": "two_tone", "forcing": forcing}
    expected = _plotdata_one_shot(model, echo).encode()
    n = model.basis.v.shape[0]
    width = rank + 2 + forcing
    for cells in (csvio._CELLS_PER_CALL, 997 * width, n * width - 1,
                  n * width, (n + 1) * width):
        monkeypatch.setattr(csvio, "_CELLS_PER_CALL", cells)
        chunks = list(cli._plotdata_csv(model, echo))
        assert "".join(chunks).encode() == expected, cells
        # The head (config line and header), then one chunk per call.
        rows = cells // width
        sizes = [min(rows, n - start) for start in range(0, n, rows)]
        assert [c.count("\n") for c in chunks] == [2] + sizes, cells


def test_each_chunk_is_one_kernel_call(monkeypatch):
    # The shape of the benchmark's sweep fit plotdata.csv: 20,600 rows of
    # time, v1..v4, forcing and recon_v1. Whole rows of up to 4,096 cells
    # per call are 585 rows, so 36 calls and a chunk for each.
    table = np.random.default_rng(31).standard_normal((20_600, 6))
    calls = []

    def counted(x, *buffers):
        calls.append(len(x))
        return kernel(x, *buffers)

    kernel = csvio._repr_cells
    monkeypatch.setattr(csvio, "_repr_cells", counted)
    chunks = list(csvio._float_table("", 0.0, 0.01, [table]))
    assert len(calls) == 36 and max(calls) == 585 * 7
    assert [c.count("\n") for c in chunks] == [0] + [585] * 35 + [125]
    assert all(c.endswith("\n") for c in chunks[1:])
    # A call takes one row at least, and only whole rows: a short table,
    # against its cells formatted one at a time.
    short = table[:40]
    expected = "".join(",".join(map(repr, [0.01 * k] + row)) + "\n"
                       for k, row in enumerate(short.tolist()))
    for cells in (1, 6, 7, 8, 20, 279, 280, 281):
        calls.clear()
        monkeypatch.setattr(csvio, "_CELLS_PER_CALL", cells)
        chunks = list(csvio._float_table("", 0.0, 0.01, [short]))
        rows = max(1, cells // 7)
        assert calls == [7 * min(rows, 40 - start)
                         for start in range(0, 40, rows)], cells
        assert len(chunks) == 1 + len(calls), cells
        assert "".join(chunks) == expected, cells


def _assert_cells_are_repr(values, width=5):
    """The table of ``values``, ``width`` to a row after the time column
    0, 1, 2, ..., is each cell's ``repr`` (the reference), row by row."""
    cells = np.asarray(values, dtype=float)
    cells = cells[:len(cells) // width * width].reshape(-1, width)
    rows = "".join(cli._float_table("", 0.0, 1.0, [cells])).splitlines()
    expected = [",".join(map(repr, [float(k)] + row))
                for k, row in enumerate(cells.tolist())]
    assert len(rows) == len(expected)
    for k, (row, want) in enumerate(zip(rows, expected)):
        assert row == want, cells[k].tolist()


def test_cells_are_repr_on_every_class_of_float():
    rng = np.random.default_rng(30)
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-8, 18)])
    u = rng.uniform(-1.0, 1.0, 2_000) * 10.0 ** rng.integers(-7, 17, 2_000)
    for values in (
        # every class, nan and inf included; most are out of range
        rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-6.5, 16.5, 100_000),
        np.concatenate([powers_of_ten, np.nextafter(powers_of_ten, 0.0),
                        np.nextafter(powers_of_ten, np.inf)]),
        np.ldexp(1.0, np.arange(-1074, 1024)),
        np.concatenate([rng.integers(0, 2**53, 20_000), [2**53, 2**53 - 1]]),
        # halfway between two 17-digit decimals, and between two 16-digit
        (rng.integers(2 * 10**15, 4 * 10**15, 2_000) * 2 + 1) / 4.0,
        rng.integers(6 * 10**14, 10**15, 2_000) + 0.25,
        np.concatenate([np.round(u, k) for k in range(17)]),
        rng.integers(1, 2**52, 5_000).view(np.float64),  # subnormal
        [0.0, 1e-6, 1e16, 5e-324, 1.7976931348623157e308, np.inf, np.nan],
    ):
        values = np.asarray(values, dtype=float)
        _assert_cells_are_repr(np.concatenate([values, -values]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(width=64), min_size=5, max_size=200))
def test_cells_are_repr_on_any_floats(values):
    _assert_cells_are_repr(values)


def test_sweep_plotdata_cells_are_repr_and_few_need_it(monkeypatch):
    # The benchmark's fit. The numpy search leaves few cells to repr (ties,
    # edges of an interval, zeros, powers of two): about 20 of 144,200.
    series = systems.preset_series("lorenz_sweep")[0]
    model = models.fit(series, models.FitConfig(delays=401, rank=4,
                                                method="shavok"))
    v = model.basis.v
    forcing = models.forcing_signal(model).values
    rollout = models.reconstruct(model, v[0, :model.state_dim], len(v), forcing)
    asked = []

    def counted_repr(value):
        asked.append(value)
        return repr(value)

    monkeypatch.setattr(csvio, "repr", counted_repr, raising=False)
    rows = "".join(cli._plotdata_csv(model, {})).splitlines()[2:]
    monkeypatch.undo()
    table = np.column_stack([model.t0 + np.arange(len(v)) * model.dt, v,
                             forcing, rollout[:, 0]])
    assert rows == [",".join(map(repr, row)) for row in table.tolist()]
    assert len(asked) < 1e-3 * table.size


def _traced_peak(call):
    """``call()``'s result and the most memory it held at once beyond what
    was held when it started, in bytes, as ``tracemalloc`` counts it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("samples", [30_000, 90_000])
def test_plotdata_stream_peak_does_not_grow_with_its_rows(samples):
    # A reader that writes each chunk and drops it holds the forcing and
    # the rollout, which the table needs whole, and one kernel call's
    # floats, buffers and text. The table joined into one str, about 160
    # bytes a row, took 9.4 MB more than the rollout at 30,000 rows and
    # 28.9 MB at 90,000.
    t = 0.01 * np.arange(samples)
    x = TimeSeries(t0=0.0, dt=0.01, values=np.sin(t) + np.sin(2.0 * t))
    model = models.fit(x, models.FitConfig(delays=41, rank=5))

    def rollout():
        forcing = models.forcing_signal(model).values
        models.reconstruct(model, model.basis.v[0, :model.state_dim],
                           len(forcing), forcing)

    def stream():
        for _ in cli._plotdata_csv(model, {}):
            pass

    assert _traced_peak(stream)[1] < _traced_peak(rollout)[1] + 4 * 2**20


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


def _snapshot(path):
    """Every file under ``path`` by relative name, with its bytes; None if
    ``path`` does not exist."""
    if not path.exists():
        return None
    return {str(p.relative_to(path)): p.read_bytes() if p.is_file() else None
            for p in sorted(path.rglob("*"))}


# A fresh --out-dir takes the 4 artifacts' moves into place; the populated
# one holds 3 of them and another file, so 3 old files move out first.
@pytest.mark.parametrize("populated, index",
                         [(False, i) for i in range(4)]
                         + [(True, i) for i in range(7)])
def test_failed_move_leaves_out_dir_as_it_was(tmp_path, capsys, monkeypatch,
                                              populated, index):
    out = tmp_path / "o"
    args = ["fit", "--input", "two_tone", "--delays", "41", "--rank", "4",
            "--no-forcing", "--out-dir", str(out)]
    if populated:
        assert main(["fit", "--input", "two_tone", "--delays", "41", "--rank",
                     "3", "--out-dir", str(out)]) == 0
        (out / "spectrum.json").unlink()
        (out / "notes.txt").write_text("kept\n")
    before = _snapshot(out)
    calls = []
    replace = os.replace

    def failing(source, target):
        calls.append(target)
        if len(calls) == index + 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        replace(source, target)

    monkeypatch.setattr(os, "replace", failing)
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "No space left on device" in err
    assert _snapshot(out) == before
    # The moves before the failed one were undone, one move each.
    assert len(calls) == 2 * index + 1
    monkeypatch.setattr(os, "replace", replace)
    assert main(args) == 0
    assert len(_snapshot(out)) == 4 + populated


def _raise_after_one_chunk(model, echo):
    yield "# config: {}\n"
    raise NumericalError("rollout diverged")


class _FullDisk:
    """A text file whose writes fail with ENOSPC after its first one."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def write(self, text):
        self._writes += 1
        if self._writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.mark.parametrize("populated", [False, True])
@pytest.mark.parametrize("failure, exit_code, message", [
    ("builder", 4, "rollout diverged"),
    ("write", 2, "No space left on device"),
])
def test_failure_mid_stream_leaves_out_dir_as_it_was(
        tmp_path, capsys, monkeypatch, populated, failure, exit_code, message):
    # plotdata.csv fails after its first chunk reached the staged file,
    # with the three JSON files already staged beside it.
    out = tmp_path / "o"
    if populated:
        assert main(["fit", "--input", "two_tone", "--delays", "41", "--rank",
                     "3", "--out-dir", str(out)]) == 0
        (out / "notes.txt").write_text("kept\n")
    before = _snapshot(out)
    if failure == "builder":
        monkeypatch.setitem(cli._ARTIFACTS, "plotdata.csv",
                            _raise_after_one_chunk)
    else:
        def opening(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return _FullDisk(fh) if path.endswith("plotdata.csv") else fh

        monkeypatch.setattr(cli, "open", opening, raising=False)
    code = main(["fit", "--input", "two_tone", "--delays", "41", "--rank", "4",
                 "--no-forcing", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == exit_code
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    # No file moved, no .staging-* is left, and a fresh --out-dir is gone.
    assert _snapshot(out) == before


def test_written_files_equal_the_str_forms(tmp_path):
    # The CLI streams each artifact into its file; run_pipeline and
    # format_series_csv join the same chunks. Both run on one BLAS thread,
    # as main does, so the numbers are the same to the bit.
    out = tmp_path / "o"
    argv = ["fit", "--input", "two_tone", "--delays", "41", "--rank", "5",
            "--out-dir", str(out / "fit")]
    assert main(argv) == 0
    assert main(["simulate", "--input", "two_tone",
                 "--out-dir", str(out / "sim")]) == 0
    cfg = cli._pipeline_config(cli._build_parser().parse_args(argv))
    with linalg._one_blas_thread():
        texts = cli.run_pipeline(cfg)
    series, _ = systems.preset_series("two_tone", None)
    texts["series.csv"] = format_series_csv(series)
    written = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert written == {name: text.encode() for name, text in texts.items()}


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


def test_csv_not_utf8_past_the_first_read_is_a_data_error(tmp_path, capsys):
    # The bad byte sits beyond the first 64 KiB, so the rows before it are
    # already parsed when decoding fails.
    rows = "".join(f"{0.001 * k!r},{k}.0\n" for k in range(10_000))
    assert len(rows) > 65_536
    path = tmp_path / "series.csv"
    path.write_bytes(b"time,value\n" + rows.encode() + b"10.0,\xff\n")
    out = tmp_path / "o"
    code = main(["diagnose", "--input", str(path), "--delays", "11",
                 "--rank", "3", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "not UTF-8" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_csv_read_peaks_near_its_table(tmp_path):
    # The rows stream from the file into the parser: the peak is the
    # parsed table and a few column-sized arrays, not the lines. A list of
    # the lines alone would take more than the bound.
    n = 50_001
    x = TimeSeries(t0=0.0, dt=0.001, values=np.sin(0.001 * np.arange(n)))
    path = _write(tmp_path / "x.csv", format_series_csv(x))
    y, peak = _traced_peak(lambda: load_series_csv(path))
    assert y.values.tobytes() == x.values.tobytes()
    assert peak < 3 * 16 * n


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


_FUZZ_CELLS = st.one_of(
    st.floats(), st.sampled_from(["", "x", "1_0", " 1e5 ", "-inf", "0x1p3"]))


@st.composite
def _fuzz_csv(draw):
    """Bytes that a CSV input could hold: any bytes, or a header and rows
    of times and values, a few of them anything at all."""
    if draw(st.sampled_from([False, False, False, True])):
        return draw(st.binary(max_size=200))
    t0, dt = draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-6, 10.0))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=draw(
        st.sampled_from([40, 40, 40, 0, 1, 2])), max_size=150))
    rows = [f"{t0 + k * dt!r},{v!r}" for k, v in enumerate(values)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = draw(st.one_of(st.text(max_size=10),
                                 st.builds("{!r},{}".format, st.floats(),
                                           _FUZZ_CELLS)))
    return ("time,value\n" + "\n".join(rows) + "\n").encode()


@st.composite
def _fuzz_flags(draw):
    flags = [draw(st.sampled_from(["fit", "spectrum", "diagnose"]))]
    # Mostly a window that fits, so that the fit runs.
    for name, usual, odd in (("--delays", [5, 11, 21], [-1, 0, 1, 2, 4, 200]),
                             ("--rank", [2, 3, 4], [-1, 0, 1, 40])):
        flags += [name, str(draw(st.sampled_from(usual * 4 + odd)))]
    flags += ["--method", draw(st.sampled_from(["havok", "shavok"])),
              "--derivative", draw(st.sampled_from(["forward", "central"]))]
    flags += draw(st.lists(st.sampled_from(["--no-centering", "--no-forcing"]),
                           unique=True))
    if draw(st.sampled_from([False, False, False, True])):
        flags += ["--dt-resample", draw(st.sampled_from(
            ["0.05", "0.3", "1e-9", "0", "-1", "nan", "inf", "x"]))]
    # "x" is Lorenz's observable and "sin_theta2" the pendulum's; any of
    # them is an error for a CSV.
    observable = draw(st.sampled_from(
        [None] * 4 + ["", "x", "sin_theta2", "bogus"]))
    if observable is not None:
        flags += ["--observable", observable]
    return flags


@settings(max_examples=40, deadline=None)
@given(data=_fuzz_csv(), flags=_fuzz_flags(), preset=st.sampled_from(
    [None, None, None, "lorenz_short", "pendulum_short"]))
def test_cli_fuzz_exits_with_a_code_and_no_traceback(tmp_path_factory, data,
                                                     flags, preset):
    # The input is the CSV ``data``, or a preset when one is drawn.
    path = tmp_path_factory.mktemp("fuzz") / "x.csv"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(flags + ["--input", preset or str(path),
                                 "--out-dir", str(path.parent / "o")])
        except SystemExit as exc:  # argparse rejects a flag's value
            code = exc.code
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _tiny_two_tone_csv():
    k = np.arange(400)
    values = 1e-310 * (np.sin(0.05 * k) + np.sin(0.11 * k))
    return "time,value\n" + "".join(
        f"{0.01 * i!r},{v!r}\n" for i, v in zip(k.tolist(), values.tolist()))


@pytest.mark.parametrize("text, flags", [
    # The singular values overflow when scaled back.
    ("time,value\n0,1e308\n1,-1e308\n2,1e308\n3,-1e308\n4,1e308\n"
     "5,-1e308\n6,1\n7,2\n", ["--delays", "3", "--rank", "2"]),
    # A subnormal speed: the curvature matrix a_continuous / speed overflows.
    (_tiny_two_tone_csv(), ["--delays", "21", "--rank", "4", "--no-forcing"]),
], ids=["singular-values", "curvatures"])
def test_overflow_is_a_numerical_error_not_infinity(tmp_path, capsys, recwarn,
                                                    text, flags):
    path = _write(tmp_path / "x.csv", text)
    out = tmp_path / "o"
    out.mkdir()
    (out / "model.json").write_text("old")
    code = main(["fit", "--input", path, "--out-dir", str(out)] + flags)
    err = capsys.readouterr().err
    assert code == 4, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflows float64" in err
    assert [str(w.message) for w in recwarn] == []
    assert os.listdir(out) == ["model.json"]
    assert (out / "model.json").read_text() == "old"


def test_json_artifacts_refuse_non_finite_numbers():
    assert cli._dump_json({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(NumericalError, match="not finite"):
            cli._dump_json({"x": [1.0, bad]})


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


@pytest.mark.parametrize("argv", [
    ["simulate", "--input", "pendulum_short"],
    ["fit", "--input", "pendulum_short", "--delays", "41", "--rank", "4",
     "--no-forcing"],
], ids=["simulate", "fit"])
def test_empty_observable_is_not_the_default(tmp_path, capsys, argv):
    # Only a missing --observable means the default.
    out = tmp_path / "o"
    assert main(argv + ["--observable", "", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "observable '' is not valid" in err
    assert "sin_theta1" in err and "sin_theta2" in err
    assert not out.exists()


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
    out = tmp_path / "o"
    assert main(["fit", "--input", path, "--delays", "41", "--rank", "3",
                 "--no-forcing", "--dt-resample", "0.01",
                 "--out-dir", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    assert model["config"]["dt"] == 0.01
    assert "trim" not in model["config"]
    # The resampled series starts at t = 0 and loses one delay window
    # (41 samples) per end; the model's t0 is its first window's center,
    # 20 samples further on.
    assert model["t0"] == pytest.approx((41 + 20) * 0.01)


def test_sweep_input_too_short(tmp_path, capsys):
    x = TimeSeries(t0=0.0, dt=0.01, values=np.sin(np.arange(500) * 0.01))
    path = _write(tmp_path / "x.csv", format_series_csv(x))
    code = main(["sweep", "--input", path, "--delays", "41", "--rank", "5",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert not (tmp_path / "o").exists()
    # Three rows leave one sample at stride 20, which the sweep's own
    # length check reports before any series is built.
    capsys.readouterr()
    tiny = _write(tmp_path / "tiny.csv", "time,value\n0.0,1.0\n0.1,2.0\n0.2,3.0\n")
    code = main(["sweep", "--input", tiny, "--out-dir", str(tmp_path / "t")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: input too short for stride 20: 1 samples\n")


def test_sweep_error_names_its_grid_row(tmp_path, capsys):
    # Two tones support rank 4, so the first of the eight fits fails; the
    # message names that row and the exit code is the fit's own.
    code = main(["sweep", "--input", "two_tone", "--delays", "41",
                 "--rank", "41", "--out-dir", str(tmp_path / "o")])
    assert code == 4
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err.startswith(
        "error: sweep fit at stride 20 (dt 0.02) failed: numerical rank is "
        "below the requested state dimension 40: ")


def test_reproduce_curvature(tmp_path, capsys):
    out = tmp_path / "rep"
    code = main(["reproduce", "--scenario", "curvature",
                 "--out-dir", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "analytic curvatures" in printed
    for method in ("havok", "shavok"):
        assert f"{method}: antisymmetry " in printed
    payload = json.loads((out / "curvature.json").read_text())
    assert payload["analytic_within_5e-5"] is True
    assert payload["shavok_within_5e-4"] is True


def test_reproduce_unknown_scenario(tmp_path, capsys):
    code = main(["reproduce", "--scenario", "nope",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "derivative-ratio" in capsys.readouterr().err
