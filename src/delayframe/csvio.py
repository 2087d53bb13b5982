"""The series CSV format: the cell kernel, the table writer and the reader.

Every CSV cell the package writes is Python's ``repr`` text of its float,
the shortest decimal that reads back to the same bits. ``_repr_cells``
finds those digits exactly with numpy and lays out the text of a few
thousand cells per call; ``_float_table`` streams a table of them a block
of rows at a time. It writes ``plotdata.csv`` and ``series.csv``.
``load_series_csv`` reads a ``time,value`` CSV back into a uniform
``TimeSeries``. ``cli`` imports all four by name.
"""

from __future__ import annotations

import contextlib
import warnings
from typing import NoReturn

import numpy as np

from .embedding import TimeSeries
from .errors import DataError

__all__ = ["format_series_csv", "load_series_csv"]


# Rows of a CSV table in each chunk; a block's text, one call's floats and
# the work buffers of _repr_cells are the only objects the table adds
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
    for whole rows of up to ``_CELLS_PER_CALL`` cells at a time
    (``_repr_cells``), across the ends of blocks, so the number of calls
    does not depend on the block size; ``repr`` itself formats only the
    few cells the exact search leaves open.

    Rows come in blocks of ``_ROWS_PER_BLOCK``, each one str cut from the
    calls' text at the block's last row, so no per-row list or string is
    made; a caller that writes each block and drops it holds one block at
    a time, whatever the row count.
    """
    yield head
    n = len(columns[0])
    width = 1 + sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
    rows = max(1, _CELLS_PER_CALL // width)
    last = np.arange(rows * width) % width == width - 1
    tails = np.where(last, ord("\n"), ord(",")) << 32
    canvas = np.empty((rows * width, 7), "<i8")
    mask = np.empty((rows * width, 56), bool)
    block, end = [], min(_ROWS_PER_BLOCK, n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        cells = np.column_stack(
            [t0 + np.arange(start, stop) * dt] + [c[start:stop] for c in columns]
        ).ravel()
        text = _repr_cells(cells, tails, canvas, mask)
        if end <= stop:
            # The byte after each row: only a row's last cell ends in "\n".
            row_ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")) + 1
        at = 0
        while end <= stop:
            cut = row_ends[end - start - 1]
            block.append(text[at:cut].decode("ascii"))
            yield "".join(block)
            if end == n:
                return
            block, at = [], cut
            end = min(end + _ROWS_PER_BLOCK, n)
        block.append(text[at:].decode("ascii"))


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
    return _uniform_series(path, _read_table(path))


def _read_table(path: str):
    """The ``(rows, 2)`` float table of the ``time,value`` CSV at ``path``:
    its header, skip rule and cell syntax (``load_series_csv``). Any value
    parses, ``nan`` and ``inf`` too; a file that breaks a rule is
    rejected with its first bad line (``_reject``)."""
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
    return table


def _uniform_series(path: str, table) -> TimeSeries:
    """The uniform TimeSeries of a ``(rows, 2)`` time, value ``table`` read
    from ``path``: finite, strictly increasing and evenly spaced times,
    finite values, and the mean step as ``dt`` (``load_series_csv``). A
    table that breaks a rule is a DataError that names ``path``."""
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
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: value column has non-finite entries")
    return TimeSeries(t0=float(times[0]), dt=dt, values=values)
