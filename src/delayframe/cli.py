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
import contextlib
import json
import os
import shutil
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass
from typing import NoReturn

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


# Rows of a CSV table formatted at a time; a block's floats and text, and
# the work buffers of _repr_cells, are the only objects the table adds
# while it is written.
_ROWS_PER_BLOCK = 4096

# Cells per call of _repr_cells: enough to spread numpy's cost per call,
# few enough that its buffers and temporaries, about 220 bytes a cell,
# stay below what one %r format of a plotdata.csv block held.
_CELLS_PER_CALL = 4096

# The shortest round-trip digits (Steele & White, PLDI 1990), found
# exactly. A cell with 1e-6 <= |x| < 1e16 is scaled to P = |x| * 10**k in
# [1e16, 1e17); 10**k is exact for k <= 22, and so are the two 26-bit
# halves of it that Dekker's two-product (Numer. Math. 1971) takes to
# give P as hi + lo. The rounding interval of x scales to (P - B, P + B),
# B = spacing(x) / 2 * 10**k, a power of two times 10**k, so exact too.
_POW10 = np.array([float(10 ** k) for k in range(23)])
_SPLIT = 2.0 ** 27 + 1
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _scaled(x):
    """``(h, f, b, k, ok)``: P = |x| * 10**k = h + f exactly, with h an
    integer and |f| <= 1/2, and B = b. ``ok`` is False where ``x`` is out
    of range, zero, non-finite or a power of two, whose interval is
    lopsided, and where a log10 one off left P outside [1e16, 1e17)."""
    ax = np.abs(x)
    ok = (ax >= 1e-6) & (ax < 1e16) & (x.view(np.uint64) << 12 != 0)
    ax[~ok] = 1.0
    k = 16 - np.clip(np.floor(np.log10(ax)), -6, 15).astype(np.intp)
    b = np.spacing(ax)
    b *= 0.5 * _POW10.take(k)
    hi = ax * _POW10.take(k)
    ah = ax * _SPLIT
    ah -= ah - ax
    ax -= ah
    lo = ah * _POW10_HI.take(k) - hi
    lo += ah * _POW10_LO.take(k)
    lo += ax * _POW10_HI.take(k)
    lo += ax * _POW10_LO.take(k)
    ok &= ((hi > 1e16) | (hi == 1e16) & (lo >= 0)) & (hi < 1e17)
    # lo - rint(lo) is exact (Sterbenz).
    ah = np.rint(lo)
    lo -= ah
    h = hi.astype(np.int64)
    h += ah.astype(np.int64)
    return h, lo, b, k, ok


def _shortest_digits(x):
    """The digits of ``repr(x)`` for each cell of ``x``, and where they
    were found.

    Returns ``(m, nd, decpt, ok)``: the digits are the first ``nd`` of the
    17-digit integer ``m`` (the rest are zeros) and ``|x|`` is
    ``0.digits * 10**decpt``. They are the multiple of the largest power
    of ten strictly inside the rounding interval, nearest P. ``ok`` is
    False where ``repr`` must decide: where ``_scaled`` rules the cell
    out, and where the nearest multiple is a tie or lies on the
    interval's edge.
    """
    h, f, b, k, ok = _scaled(x)
    # 0.55 < B < 11.2 in that range: an integer lies inside the interval,
    # and at most one multiple of 100, the nearest. A sum d + f that rounds
    # onto B leaves the test open.
    d = h - h // 100 * 100
    d -= 100 * (d > 50)
    s = np.abs(d + f)
    hundred = s < b
    tie = s == b
    e = h - h // 10 * 10
    e -= 10 * ((e > 5) | (e == 5) & (f > 0))
    s = np.abs(e + f)
    ten = (s < b) & ~hundred
    # Two nearest multiples (of 10 or of 1) are ties that repr settles.
    tie |= ~hundred & ((s == b) | ten & (e == 5) & (f == 0)
                       | ~ten & (np.abs(f) == 0.5))
    h -= np.where(hundred, d, np.where(ten, e, 0))
    zeros = np.where(hundred, 2, ten)
    # The multiple of 100 may end in up to 15 more zeros: count them.
    at = np.flatnonzero(hundred)
    z = h[at] // 100
    for p in (8, 4, 2, 1):
        q = z // 10 ** p
        hit = q * 10 ** p == z
        z = np.where(hit, q, z)
        zeros[at] += p * hit
    # A multiple 1e17 would be a power of ten just above x that reads back
    # to x; none in range does, but repr would format it.
    ok &= ~tie & (h < 10 ** 17)
    nd = 17 - zeros
    return h, nd, np.where(ok, 17 - k, 1), ok


def _ascii8(v):
    """Eight ASCII digits of each ``v < 10**8``, most significant first in
    the bytes of a little-endian word.

    The word is split into lanes of 4, 2 and then 1 digit; each lane's
    quotient is a multiply and shift, exact in its range.
    """
    q = v // 10000
    w = q | ((v - q * 10000) << 32)
    q = ((w * 5243) >> 19) & 0x0000007F0000007F
    w = q | ((w - q * 100) << 16)
    q = ((w * 103) >> 10) & 0x000F000F000F000F
    return (q | ((w - q * 10) << 8)) + 0x3030303030303030


# A cell's canvas is 7 little-endian words, 56 bytes, in which its text
# reads in order without moving a digit:
#   0-7    "-000000" and the first digit; the sign is byte 0, and byte 6 the
#          "0" before a point that comes first;
#   8-23   digits 2 to 17;
#   24-31  "000.000" and the first digit again: the point is byte 27 and
#          three zeros follow it;
#   32-47  digits 2 to 17 again;
#   48-52  the exponent ("e-05") and the separator.
# With the point after dp >= 1 digits, the text is bytes [7, 7 + dp), the
# point and [31 + dp, 31 + max(nd, dp + 1)): the ".0" of an integral value
# is one more zero digit. With dp <= 0 it is "0", the point and
# [31 + dp, 31 + nd). An exponent form is the first digit, the point when
# nd > 1, [32, 31 + nd) and the exponent. A cell that repr formats has
# its text written over bytes 0 to 23.
_HEAD = int.from_bytes(b"-0000000", "little")
_POINT = int.from_bytes(b"000.0000", "little")
_EXPONENT = np.array([int.from_bytes(f"e{p - 1:+03d}".encode(), "little")
                      for p in range(-5, 18)])


def _cell_spans():
    """The canvas bytes of a cell's text, by ``layout * 24 + nd - 1``:
    layouts 0-19 are fixed notation with the point after ``layout - 3``
    digits, 20 the exponent form and 21 repr's text of ``nd`` bytes. The
    second half of the rows adds the sign."""
    b = np.arange(56)
    layout, nd = np.divmod(np.arange(22 * 24)[:, None], 24)
    nd += 1
    dp = layout - 3
    fixed = layout < 20
    spans = np.where(
        fixed,
        (b >= 6 + (dp > 0)) & (b < 7 + np.maximum(dp, 0))
        | (b >= 31 + dp) & (b < 31 + np.maximum(nd, dp + 1)),
        (b == 7) | (b >= 32) & (b < 31 + nd) | (b >= 48) & (b < 52),
    )
    spans |= (b == 27) & (fixed | (nd > 1))
    spans = np.where(layout == 21, b < nd, spans) | (b == 52)
    return np.concatenate([spans, spans | (b == 0)])


_SPANS = _cell_spans()


def _repr_cells(x, tails, canvas, mask):
    """The text of the cells ``x``, each ``repr(x)`` then its separator,
    as bytes.

    ``tails`` holds each cell's separator shifted into byte 4 of a word;
    ``canvas`` and ``mask`` are work buffers of at least ``len(x)`` rows,
    reused from call to call.
    """
    n = len(x)
    m, nd, decpt, ok = _shortest_digits(x)
    layout = np.where((decpt <= -4) | (decpt > 16), 20, decpt + 3) * 24 + nd - 1
    layout[x < 0] += len(_SPANS) // 2
    first = m // 10 ** 16
    m -= first * 10 ** 16
    high = m // 10 ** 8
    first <<= 56
    words = canvas[:n]
    words[:, 0] = first + _HEAD
    words[:, 3] = first + _POINT
    words[:, 1] = words[:, 4] = _ascii8(high)
    words[:, 2] = words[:, 5] = _ascii8(m - high * 10 ** 8)
    words[:, 6] = _EXPONENT.take(decpt + 5) | tails[:n]
    chars = words.view(np.uint8)
    for i in np.flatnonzero(~ok):
        text = repr(float(x[i])).encode()
        chars[i, :len(text)] = np.frombuffer(text, np.uint8)
        layout[i] = 21 * 24 + len(text) - 1
    return chars[_SPANS.take(layout, 0, out=mask[:n])].tobytes()


def _float_table(head: str, t0: float, dt: float, columns):
    """Yield ``head``, then the CSV rows of each sample: its time, then
    ``columns``.

    Row k starts with ``t0 + k * dt`` and continues with row k of each
    array in ``columns`` (1-D or 2-D, all of the same length). Each cell
    is the text of ``repr`` of its float, the shortest decimal that reads
    back to the same bits. numpy finds the digits and lays out the text
    for ``_CELLS_PER_CALL`` cells at a time (``_repr_cells``); ``repr``
    itself formats only the few cells the exact search leaves open.

    Rows come in blocks of ``_ROWS_PER_BLOCK``, each one str, so no
    per-row list or string is made; a caller that writes each block and
    drops it holds one block at a time, whatever the row count.
    """
    yield head
    n = len(columns[0])
    width = 1 + sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
    step = max(1, _CELLS_PER_CALL // width) * width
    last = np.arange(step) % width == width - 1
    tails = np.where(last, ord("\n"), ord(",")) << 32
    canvas = np.empty((step, 7), "<i8")
    mask = np.empty((step, 56), bool)
    for start in range(0, n, _ROWS_PER_BLOCK):
        stop = min(start + _ROWS_PER_BLOCK, n)
        cells = np.column_stack(
            [t0 + np.arange(start, stop) * dt] + [c[start:stop] for c in columns]
        ).ravel()
        yield "".join([
            _repr_cells(cells[i:i + step], tails, canvas, mask).decode("ascii")
            for i in range(0, len(cells), step)
        ])


def _series_table(x: TimeSeries):
    """The chunks of ``format_series_csv(x)``."""
    return _float_table("time,value\n", x.t0, x.dt, [x.values])


def format_series_csv(x: TimeSeries) -> str:
    """The series as a ``time,value`` CSV.

    Each cell is the shortest decimal that reads back to its float, the
    text ``repr`` gives it: numpy formats the cells a block at a time,
    with ``repr`` as the fallback (``_float_table``). So the values read
    back to the same bits. The time column is ``t0 + k *
    dt``, so ``t0`` reads back equal in value (a ``-0.0`` becomes ``0.0``)
    and ``dt`` as the mean step between rows, which carries the rounding
    of the end times: for 3,000 rows at dt 1e-3 it is exact at t0 = 0,
    and 1.6e-11 and 2.4e-8 relative off at t0 = 1e6 and 1.7e9. ``simulate``
    writes the same chunks straight to ``series.csv``.
    """
    return "".join(_series_table(x))


def _is_header(line: str) -> bool:
    return [c.strip().lower() for c in line.split(",")] == ["time", "value"]


def _is_number(cell: str) -> bool:
    """Whether numpy's C parser reads ``cell`` as a float: ``float()``'s
    syntax in ASCII, without ``_`` digit separators, with whitespace
    around it allowed."""
    cell = cell.strip()
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


@contextlib.contextmanager
def _open_csv(path: str):
    """``path`` opened as text; a file that cannot be read or is not UTF-8
    is a DataError."""
    try:
        # utf-8-sig drops a byte-order mark, which some editors write.
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _reject(path: str, reason) -> NoReturn:
    """Raise the DataError for the first rule the CSV at ``path`` breaks.

    This is ``load_series_csv``'s error path. It reads the whole file
    first, so a file that is not UTF-8 is reported as such wherever the
    bad byte sits, then checks the header, the row count and each row in
    turn, naming a bad row by its 1-based file line (the header, comments
    and blank lines count). ``reason`` is the parser's own message, the
    last resort.
    """
    with _open_csv(path) as fh:
        lines = fh.readlines()
    # The same skip rule as load_series_csv's, written out in both: a
    # call per line would cost that reader about a tenth of its time.
    rows = [(n, text.rstrip()) for n, line in enumerate(lines, 1)
            if (text := line.lstrip()) and text[0] != "#"]
    if not rows or not _is_header(rows[0][1]):
        raise DataError(f"{path}: expected a 'time,value' header")
    if len(rows) < 3:
        raise DataError(f"{path}: need at least 2 data rows")
    for n, row in rows[1:]:
        cells = row.split(",")
        if len(cells) != 2:
            raise DataError(f"{path}: line {n} has {len(cells)} columns, expected 2")
        if not all(map(_is_number, cells)):
            raise DataError(f"{path}: line {n} is not numeric: {row!r}")
    raise DataError(f"{path}: {reason}")


def load_series_csv(path: str) -> TimeSeries:
    """Read a two-column time,value CSV into a uniform TimeSeries.

    The file is UTF-8 text, with or without a byte-order mark. Lines that
    are blank, whitespace-only or start with ``#`` after any indentation
    are skipped; the first other line is the ``time,value`` header (case
    and spaces around each name ignored), and at least 2 rows of two
    comma-separated cells follow it. A cell is a decimal float in ASCII
    as numpy's C parser reads it, with spaces around it allowed: an
    optional sign, digits with an optional point and exponent (``1``,
    ``-2.5``, ``.5``, ``6.02e23``), or ``inf``, ``infinity`` or ``nan`` in
    any case. Digit separators (``1_0``), non-ASCII digits, hexadecimal,
    quotes and a trailing ``# note`` are errors that name the row's
    1-based file line. Times and values must be finite (``nan`` and
    ``inf`` parse, then are rejected), and times strictly increasing with
    uniform spacing: the largest and smallest step may differ by at most
    1e-9 of the mean step plus 4 * eps * max|t|, the most the rounding of
    the times themselves can spread them; ``dt`` is the mean step, which
    carries the rounding of the end times (see ``format_series_csv``). A
    non-uniform series is a data error with a hint to resample. Lines
    end in ``\\n``, ``\\r\\n`` or ``\\r``.

    The rows stream from the file into ``np.loadtxt``, so no list of lines
    is built; only a rejected file is read a second time, to name its
    first bad line.
    """
    table = reason = None
    with _open_csv(path) as fh:
        # Skip blank and whitespace-only lines and comments ("#" after any
        # indentation).
        rows = (line for line in fh if (text := line.lstrip()) and text[0] != "#")
        if _is_header(next(rows, "")):
            try:
                with warnings.catch_warnings():
                    # A header without rows is rejected below.
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data", UserWarning)
                    table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                # A UnicodeDecodeError lands here too, and the error path,
                # which decodes the whole file first, reports it.
                reason = exc
    if table is None or table.shape[1] != 2 or len(table) < 2:
        _reject(path, reason)
    times = table[:, 0]
    # Contiguous, like every other series: a strided view could take other
    # BLAS kernels and move the fit's last bits.
    values = table[:, 1].copy()
    if not np.all(np.isfinite(times)):
        raise DataError(f"{path}: time column has non-finite entries")
    diffs = np.diff(times)
    if np.any(diffs <= 0.0):
        raise DataError(f"{path}: time column must be strictly increasing")
    dt = float(np.mean(diffs))
    spread = float(np.max(diffs) - np.min(diffs))
    # The rounding of the times alone spreads the steps by up to 4 eps max|t|.
    bound = 1e-9 * dt + 4.0 * np.finfo(float).eps * max(abs(times[0]), abs(times[-1]))
    if spread > bound:
        raise DataError(
            f"{path}: sampling is not uniform (relative jitter "
            f"{spread / dt:.2e} > {bound / dt:.2e}); "
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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
