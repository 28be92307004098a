r"""Multi-channel tables, CSV and JSON serialization, synthetic data.

CSV grammar: a header line ``frame,<name1>,<name2>,...`` followed by one
row per frame. The frame column counts 0, 1, 2, ... without gaps; every
other cell is a finite float. One UTF-8 byte-order mark before the
header, as spreadsheet exports write, is skipped. Values are written
with 9 significant digits, which keeps a write/read round trip well
below pipeline tolerances for pose-scale values.

``read_csv`` first tries one ``np.loadtxt`` parse. The header record is
read with ``csv.reader`` and checked as the line parser checks it. A
check pass over the body bytes, in blocks of about 64 KiB, then takes the
body only when it is printable ASCII other than ``"``, every line (the
last one too) ends in the header's line end, ``\n`` or ``\r\n``, with no
other ``\r``, and no cell is longer than ``csv.field_size_limit()``. On
such a body numpy's reader splits the same cells as ``csv.reader``, and
every cell it takes, ``int`` and ``float`` take to the same bits: its
float reader ends in ``PyOS_string_to_double`` as ``float`` does, its
int64 reader takes only a sign and digits, and in ASCII the only
whitespace any of them strips is the space. A cell only Python takes,
such as ``1_0``, fails the parse. After the parse, which runs with
warnings as errors, the table is taken only when every line gave a row,
the frames are 0, 1, 2, ... and every value is finite. Any other file,
valid or not, every zero-channel table among them, goes to the
line-precise ``csv.reader`` parser, which is the one source of every
error message, so both paths give the same table or the same error.

Both writers give the bytes of the plain per-row and per-value
formatting they replace. ``write_csv`` formats a block of rows with array
code. A value's 9-digit mantissa is r = rint(|x|*10**k), for the k in
0..12 that puts the product in [1e8, 1e9). ``10**k`` is exact, so the
one rounded product is within 2**-24 of the exact one, and r is the
mantissa ``%.9g`` rounds to whenever that product is more than 1e-6 from
a half-integer. Such a value is laid out as an integer part and a
12-digit fraction in 4-digit ASCII words from lookup tables, with as many
integer-part words as the largest in its block of rows needs. Every other
value is formatted with ``%.9g`` itself: below 1e-4 or from 1e9 up, a
mantissa that rounds up to 1e9, or a near tie.

``write_report`` lays out the two object levels of ``json.dumps(...,
indent=2)`` itself, from pieces encoded once per report. It joins the
float arrays of every entry into one array and writes each value as the
shortest text that reads back to it, which is the text
``float.__repr__`` and so json give, with array code after Ryū (U.
Adams, PLDI 2018). Ryū's general case gives the digits of a normal value
below 2**54 from one 125-bit product per value: its high bits are the
scaled value, and two comparisons of its 64 bits below those with
per-exponent constants give the scaled bounds of the values that round to
it. The text is gathered from a layout per notation, decimal point and
digit count, in blocks of WRITE_BLOCK_CELLS values, and translate deletes
the NUL padding. json formats every other value: ±0, subnormals, 2**54
and up, NaN and ±inf, powers of two, those where Ryū would flag trailing
zeros (mostly integers and other values with a short binary mantissa),
and those whose low bits equal a comparison's constant, which then cannot
decide. Names, the float scalar and int lists go through json, int scalars
through ``%d``.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .series import finite_error, raise_if_error

SYNTH_CHANNEL = "synth"
# Largest synthetic table, in frames; far past what fits in memory, but
# below sizes numpy rejects with an error of its own.
MAX_SYNTH_FRAMES = 2**31
# Bytes per read_csv check block and cells per write_csv block: large
# enough that the per-block Python work is small, small enough that every
# transient stays a small fraction of the table.
READ_BLOCK_BYTES = 1 << 16
WRITE_BLOCK_CELLS = 1 << 13
# Bytes a body line of the read_csv fast path may hold besides its line
# end: printable ASCII but the quote.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"")


@dataclass(eq=False)
class PoseTable:
    """A rectangular block of per-frame channel values."""

    channel_names: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.channel_names = [str(name) for name in self.channel_names]
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise UsageError(f"table values must be 2-D, got shape {self.values.shape}")
        if self.values.shape[1] != len(self.channel_names):
            raise UsageError(f"{len(self.channel_names)} channel names but {self.values.shape[1]} columns")
        raise_if_error(names_error(self.channel_names) or finite_error(self.values))

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    def channel(self, name: str) -> np.ndarray:
        """Copy of one channel's values."""
        try:
            idx = self.channel_names.index(name)
        except ValueError:
            raise KeyError(f"no channel {name!r}; table has {self.channel_names}") from None
        return self.values[:, idx].copy()


def _write_text_atomic(path, chunks) -> None:
    """Write the bytes ``chunks`` yields via a temp file in the same
    directory, then rename over path. An OSError names path, not the
    temp file."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp.{os.urandom(8).hex()}~")
    try:
        # "x" creates the file with mode 0o666, so the umask sets its
        # permissions as for any new file.
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        exc.filename = path
        del exc.filename2
        raise


def read_csv(path) -> PoseTable:
    """Parse a pose table, reporting the line number of anything malformed.

    Every malformed file raises DataError, including one holding bytes
    that are not UTF-8 or a cell the csv module refuses (over its field
    size limit, for example). A file whose rows are plain ASCII takes one
    ``np.loadtxt`` parse; the module docstring lists what that path
    declines, and every declined file is parsed one line at a time with
    csv.reader.
    """
    table = _read_csv_blocks(path)
    return table if table is not None else _read_csv_lines(path)


def _read_csv_blocks(path) -> PoseTable | None:
    """The table from a check pass over the body bytes and one np.loadtxt
    parse; None for any file this path declines, including every
    malformed one."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            names = _channel_names(next(reader, []), path)
            # The physical lines of the header record, as the line parser
            # reads them and numpy skips them.
            header_lines = reader.line_num
            fh.seek(0)
            header = "".join(itertools.islice(fh, header_lines))
        crlf = header.endswith("\r\n")
        if not names or not header.endswith("\n"):
            return None
        with open(path, "rb") as fh:
            fh.seek(len(header.encode("utf-8")) + 3 * (fh.read(3) == codecs.BOM_UTF8))
            n_lines = _plain_line_count(fh, crlf)
        if n_lines is None:
            return None
        # Warnings as errors: an empty body and, in older numpy, an integer
        # read through a float only warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # numpy's opener fetches a path that parses as a URL; an
            # absolute path never does.
            rows = np.loadtxt(
                os.path.abspath(path), delimiter=",", comments=None, skiprows=header_lines,
                encoding="utf-8", ndmin=1,
                dtype=[("frame", np.int64), ("values", float, (len(names),))],
            )
    except (OSError, ValueError, Warning, csv.Error):
        return None
    # loadtxt skips blank lines, so equal counts give one row per line.
    values = rows["values"]
    if (
        len(rows) != n_lines
        or not np.array_equal(rows["frame"], np.arange(n_lines))
        or not np.isfinite(values).all()
    ):
        return None
    return PoseTable(names, np.ascontiguousarray(values))


def _plain_line_count(fh, crlf: bool) -> int | None:
    r"""Number of lines in the rest of the binary file fh if they are all
    plain, else None.

    Plain lines hold printable ASCII other than ``"`` and each ends in
    ``\r\n`` (crlf) or ``\n`` (not crlf), with no other ``\r``; no cell
    is longer than ``csv.field_size_limit()``. Such lines split on commas
    into the cells csv.reader gives, and each cell numpy's reader takes,
    ``int`` and ``float`` take to the same number. The rest of fh is
    checked in blocks of about READ_BLOCK_BYTES, each cut after its last
    ``\n``.
    """
    limit = csv.field_size_limit()
    n_lines = 0
    pieces = []  # the start of a line that is still open
    while chunk := fh.read(READ_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pieces.append(chunk)
            continue
        block = b"".join([*pieces, chunk[:cut]])
        pieces = [chunk[cut:]]
        size = len(block)
        if crlf:
            block = block.replace(b"\r\n", b"\n")
        # Without its plain bytes a block of plain lines is its line ends,
        # and in a CRLF block the replace dropped one byte from each.
        ends = block.translate(None, _PLAIN_BYTES)
        if ends != b"\n" * len(ends) or (crlf and size - len(block) != len(ends)):
            return None
        # No cell is longer than its block, so cells are measured only
        # when a block is long.
        if len(block) > limit and max(map(len, block.replace(b"\n", b",").split(b","))) > limit:
            return None
        n_lines += len(ends)
    return None if any(pieces) else n_lines


def _read_csv_lines(path) -> PoseTable:
    """Parse a pose table with csv.reader, one line at a time."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            names, rows = _parse_rows(reader, path)
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            # The text layer decodes ahead in blocks, so reader.line_num
            # does not locate the bad byte; the raw bytes do.
            line = _first_non_utf8_line(path)
            raise DataError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    return PoseTable(names, np.asarray(rows, dtype=float).reshape(len(rows), len(names)))


def _parse_rows(reader, path) -> tuple[list[str], list[list[float]]]:
    """Channel names and per-frame values from a csv reader over a pose table."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: file is empty, expected a header line") from None
    names = _channel_names(header, path)
    rows = []
    expected_frame = 0
    for row in reader:
        lineno = reader.line_num
        if len(row) != len(header):
            raise DataError(f"{path}: line {lineno}: expected {len(header)} cells, got {len(row)}")
        try:
            frame = int(row[0])
        except ValueError:
            raise DataError(
                f"{path}: line {lineno}: frame index {row[0]!r} is not an integer"
            ) from None
        if frame != expected_frame:
            raise DataError(f"{path}: line {lineno}: frame {frame}, expected {expected_frame}")
        expected_frame += 1
        parsed = []
        for name, cell in zip(names, row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: channel {name!r} cell {cell!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: line {lineno}: channel {name!r} value {cell!r} is not finite"
                )
            parsed.append(value)
        rows.append(parsed)
    return names, rows


def _channel_names(header: list[str], path) -> list[str]:
    """The channel names a pose table's header row declares, else DataError."""
    error = names_error(header[1:]) if header[:1] == ["frame"] else DataError("header must start with 'frame'")
    if error is not None:
        raise DataError(f"{path}: line 1: {error}")
    return header[1:]


def names_error(names: list[str]) -> DataError | None:
    """The error of a table's channel names, or None: a blank name or one
    holding a NUL character, which Python 3.10's csv module can neither
    write nor read, and then a name given twice."""
    for name in names:
        if not name.strip():
            return DataError(f"channel name {name!r} is blank")
        if "\0" in name:
            return DataError(f"channel name {name!r} holds a NUL character")
    seen = set()
    for name in names:
        if name in seen:
            return DataError(f"duplicate channel name {name!r}")
        seen.add(name)
    return None


def _first_non_utf8_line(path) -> int | None:
    """1-based line of the first byte in the file that is not UTF-8; None
    if the whole file decodes (it changed since it was read)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return None


def write_csv(table: PoseTable, path) -> None:
    r"""Write a pose table atomically, 9 significant digits per value.

    csv.writer writes the header, so names holding a comma, a quote or a
    line break come out quoted. Its record ends in ``\r\n``, which makes
    it quote a name holding a lone ``\r`` too, and that end is then cut
    to ``\n``. The body rows ``i,v1,...,vC`` are the bytes of writing
    ``str(i)`` and formatting each value with ``f"{v:.9g}"`` row by row.
    They are built a block of rows at a time in a byte buffer of fixed
    slots, whose frame and integer-part fields are as wide as the block's
    largest ones need: a value whose ``%.9g`` text is plain decimal,
    neither exponent form nor within 1e-6 of a rounding tie in its 9th
    digit, is laid out from 4-digit word tables (the module docstring
    gives the exactness bound); every other value is formatted with
    ``%.9g`` into its slot. Runs of NUL padding are then deleted from the
    buffer.
    """
    header = io.StringIO()
    csv.writer(header, lineterminator="\r\n").writerow(["frame"] + list(table.channel_names))
    head = (header.getvalue()[:-2] + "\n").encode("utf-8")
    _write_text_atomic(path, itertools.chain([head], _csv_body(table.values)))


_POW10 = 10 ** np.arange(13)
# Offsets of the three tables in _digit_words(): all four digits; leading
# zeros blanked but for the last digit; trailing zeros blanked, which
# makes _TRAIL + 0 the word that prints nothing.
_FULL, _LEAD, _TRAIL = 0, 10_000, 20_000


def _csv_body(values: np.ndarray):
    """Yield the body rows of a table as ASCII bytearrays, about
    WRITE_BLOCK_CELLS cells per block."""
    n, c = values.shape
    step = max(1, WRITE_BLOCK_CELLS // (c + 1))
    for start in range(0, n, step):
        yield _csv_block(values[start : start + step], start)


def _csv_block(x: np.ndarray, start: int) -> bytearray:
    """The body rows of the block x of a table, its first row frame
    start. The frame field holds as many 4-digit words as the block's last
    frame needs, and each cell's integer part as many as the block's
    largest laid-out integer part needs."""
    decided, whole, frac = _decimal_parts(x)
    stop = start + len(x)
    cell = _cell_dtype(_word_count(int(whole.max(initial=0))))
    row = np.dtype([("frame", np.uint32, (_word_count(stop - 1),)), ("cells", cell, (x.shape[1],)), ("end", np.uint8)])
    # Built in a bytearray, which translate reads in place.
    buf = bytearray(len(x) * row.itemsize)
    block = np.frombuffer(buf, row)
    _int_words(np.arange(start, stop), block["frame"])
    cells = block["cells"]
    cells["sep"] = ord(",")
    cells["sign"] = np.signbit(x) * np.uint8(ord("-"))
    _int_words(whole, cells["int"])
    cells["dot"] = (frac > 0) * np.uint8(ord("."))
    _frac_words(frac, cells["frac"])
    undecided = ~decided
    if undecided.any():
        cells["text"][undecided] = [b"%.9g" % v for v in x[undecided].tolist()]
    block["end"] = ord("\n")
    return buf.translate(None, b"\0")


def _word_count(n: int) -> int:
    """4-digit words the decimal digits of the integer n >= 0 fill."""
    return (len(str(n)) + 3) // 4


@functools.cache
def _cell_dtype(int_words: int) -> np.dtype:
    """A body cell whose integer part has int_words words: separator,
    sign, integer part, dot and 12-digit fraction (three words), NUL where
    nothing is printed. "text" overlays the sign to the fraction for the
    cells formatted with %.9g; at 18 bytes or more, it holds the longest
    such text, the 16 bytes of -1.23456789e+100."""
    size = 15 + 4 * int_words
    return np.dtype({
        "names": ["sep", "sign", "int", "dot", "frac", "text"],
        "formats": [np.uint8, np.uint8, (np.uint32, (int_words,)), np.uint8, (np.uint32, (3,)), f"S{size - 1}"],
        "offsets": [0, 1, 2, size - 13, size - 12, 1],
        "itemsize": size,
    })


def _decimal_parts(x: np.ndarray):
    """Which values of x have a plain-decimal %.9g text that array code
    decides exactly, and that text's integer part and 12-digit fraction as
    integers (0 for the other values)."""
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        k = (8 - np.clip(np.floor(np.log10(a)), -4, 8)).astype(np.intp)
    m = a * _POW10[k]
    # log10 can round across a power of ten; one step puts m in range.
    off = np.nonzero((m < 1e8) | (m >= 1e9))
    k[off] = np.clip(k[off] + np.where(m[off] < 1e8, 1, -1), 0, 12)
    m[off] = a[off] * _POW10[k[off]]
    r = np.rint(m)
    # m is within 2**-24 of the exact |x|*10**k, so away from a tie r is
    # the 9-digit mantissa %.9g rounds to, and its exponent 8 - k is one
    # %.9g prints in plain decimal with k places.
    decided = ((m >= 1e8) & (r < 1e9) & (np.abs(m - r) < 0.5 - 1e-6)) | (a == 0)
    r = np.where(decided, r, 0).astype(np.int64)
    whole = r // _POW10[k]
    return decided, whole, (r - whole * _POW10[k]) * _POW10[12 - k]


@functools.cache
def _digit_words() -> np.ndarray:
    """The _FULL, _LEAD and _TRAIL tables, one after another: the ASCII
    digits of 0..9999 as uint32 words, NUL for each blanked digit."""
    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = (np.arange(10_000, dtype=np.int16)[:, None] // place % 10).astype(np.uint8)
    full = digits + np.uint8(ord("0"))
    # A digit prints unless every digit before it (lead) or after it
    # (trail) in its word is a zero too.
    lead = np.where(np.maximum.accumulate(digits, axis=1) > 0, full, 0)
    lead[:, 3] = full[:, 3]
    trail = np.where(np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] > 0, full, 0)
    words = np.concatenate([full, lead, trail]).view(np.uint32).ravel()
    words.flags.writeable = False
    return words


def _digit_groups(n: np.ndarray, count: int) -> list:
    """The count 4-digit groups of the integers 0 <= n < 10**(4 * count),
    most significant first."""
    groups = []
    for _ in range(count - 1):
        q = n // 10**4
        groups.append(n - q * 10**4)
        n = q
    return [n, *groups[::-1]]


def _int_words(n: np.ndarray, out: np.ndarray) -> None:
    """Write the integers 0 <= n < 10**(4 * w) into the w words of out's
    last axis, with no leading zeros."""
    words = _digit_words()
    width = out.shape[-1]
    for i, group in enumerate(_digit_groups(n, width)):
        # A word prints in full after a nonzero group. Before any, a zero
        # group prints nothing, but the last word prints "0".
        lead = _LEAD if i == width - 1 else np.where(group > 0, _LEAD, _TRAIL)
        out[..., i] = words.take(group + np.where(n >= 10 ** (4 * (width - i)), _FULL, lead))


def _frac_words(f: np.ndarray, out: np.ndarray) -> None:
    """Write the 12-digit fractions f (0 <= f < 10**12) into the three
    words of out's last axis, with no trailing zeros."""
    words = _digit_words()
    hi, mid, lo = _digit_groups(f, 3)
    out[..., 0] = words.take(hi + np.where((mid > 0) | (lo > 0), _FULL, _TRAIL))
    out[..., 1] = words.take(mid + np.where(lo > 0, _FULL, _TRAIL))
    out[..., 2] = words.take(lo + _TRAIL)


def write_report(diagnostics, path) -> None:
    r"""Dump per-channel diagnostics as JSON with a fixed key order.

    ``diagnostics`` maps channel name to a ChannelDiagnostics; channels
    appear in mapping order. Fields that were never computed (filtered or
    skipped channels) are null. Array fields are plain lists, ready to
    plot.

    The text is the bytes of ``json.dumps(entries, indent=2) + "\n"``.
    That call would run json's pure-Python encoder, which ``indent``
    selects, over every float; here each entry is laid out from pieces
    encoded once per report: the key heads, ``null``, the brackets and
    each distinct status text. json writes the names, the float scalar and
    the int lists (the latter through its C encoder); int scalars are
    ``%d``. The float arrays of every entry (acf, spectrum and
    mean_factor) are joined into one array, which ``_float_texts`` formats
    in one array pass, and each is written as views of that text. An
    entry's other bytes go out as one chunk between those views.
    """
    statuses = {}
    entries = []
    for name, diag in diagnostics.items():
        seq = diag.target
        fields = [_NULL] * 6
        if seq is not None:
            fields = [
                b"%d" % int(seq.report.dominant_frequency),
                json.dumps(float(seq.report.reference_period)).encode(),
                _float_field(seq.report.acf),
                _float_field(seq.report.spectrum),
                b"%d" % int(seq.trend.order),
                _NULL if seq.segmentation is None else _int_list(seq.segmentation.period_starts.tolist()),
            ]
        if diag.status not in statuses:
            statuses[diag.status] = json.dumps(diag.status).encode()
        fields += [
            _NULL if diag.l_min is None else b"%d" % int(diag.l_min),
            _float_field(diag.mean_factor),
            statuses[diag.status],
        ]
        entries.append((json.dumps(name).encode(), fields))
    _write_text_atomic(path, _report_text(entries))


# json.dumps(..., indent=2) puts each key of an entry on its own line at
# this depth, and each item of an entry's array one level deeper.
_KEY_HEADS = [
    b'%s\n    "%s": ' % (b"," if i else b"{", key)
    for i, key in enumerate([
        b"dominant_frequency", b"reference_period", b"acf", b"spectrum", b"trend_order",
        b"period_starts", b"l_min", b"mean_factor", b"status",
    ])
]
_NULL = b"null"
_ITEM_SEP = b",\n      "
_LIST_OPEN, _LIST_CLOSE = b"[\n      ", b"\n    ]"
# Runs json's C encoder (it takes no indent) with that separator.
_LIST_ENCODER = json.JSONEncoder(separators=(_ITEM_SEP.decode(), ": "))


def _float_field(value):
    """An entry's float-array field: null, ``[]`` or the non-empty array
    itself, whose items _report_text takes from the formatted text."""
    if value is None:
        return _NULL
    return value if value.size else b"[]"


def _int_list(values: list) -> bytes:
    """An entry's int-list field as json.dumps(..., indent=2) lays it out."""
    if not values:
        return b"[]"
    return _LIST_OPEN + _LIST_ENCODER.encode(values)[1:-1].encode() + _LIST_CLOSE


def _report_text(entries):
    r"""Yield the bytes of ``json.dumps(..., indent=2) + "\n"`` for a list
    of (name as json, fields) pairs, the fields in _KEY_HEADS' order, each
    either its text or a non-empty float array. json.dumps escapes every
    non-ASCII character, so each chunk is ASCII.

    All the float arrays' values are formatted in one _float_texts pass,
    a block at a time: an array's items are memoryviews that run between
    per-value offsets of a block's text, each yielded as it is cut, so
    one block's text is alive at a time."""
    if not entries:
        yield b"{}\n"
        return
    arrays = [v for _, fields in entries for v in fields if not isinstance(v, bytes)]
    blocks = _float_texts(np.concatenate(arrays, dtype=float)) if arrays else None
    text, starts, at = memoryview(b""), [0], 0
    frame, head = [], b"{\n  "
    for name, fields in entries:
        frame += [head, name, b": "]
        for key_head, value in zip(_KEY_HEADS, fields):
            frame.append(key_head)
            if isinstance(value, bytes):
                frame.append(value)
                continue
            frame.append(_LIST_OPEN)
            yield b"".join(frame)
            left = value.size
            while left:
                if at == len(starts) - 1:
                    text, starts = next(blocks)
                    text, at = memoryview(text), 0
                stop = min(at + left, len(starts) - 1)
                left -= stop - at
                # The last value of the array drops its separator.
                yield text[starts[at] : starts[stop] - (0 if left else len(_ITEM_SEP))]
                at = stop
            frame = [_LIST_CLOSE]
        frame.append(b"\n  }")
        head = b",\n  "
    frame.append(b"\n}\n")
    yield b"".join(frame)


# Shortest round-trip float text with array code, after Ryū (U. Adams,
# "Ryū: fast float-to-string conversion", PLDI 2018): the general case of
# its float64 conversion, for normal values below 2**54, where its binary
# exponent e2 is negative. A value is mv * 2**e2 with mv = 4 * m2 (m2 the
# mantissa with its hidden bit), and the reals that round to it lie
# between (mv - 2) * 2**e2 (mv - 1 for a power of two) and (mv + 2) * 2**e2.
# vm, vr and vp are those three numbers times 2**e2 / 10**e10, e10 = q + e2,
# rounded down: m * w // 2**j, w a 125-bit multiplier for 5**(-e2 - q).
# The one product mv * w per value gives vr as its bits j and up, and
# "low", its 64 bits below j. With D = 2 * w, vp is vr + D // 2**j plus the
# carry of low bits and D mod 2**j, and vm is vr - D // 2**j less the
# borrow; each is one comparison of low with a 64-bit window of D. Where
# low equals the window the comparison cannot tell, and json formats the
# value, as it does a power of two, whose vm is mv - 1.
# The digits are vr with every low digit removed that vm and vp let go,
# rounded.
_POW5_BITS = 125
_LIMB_MASK = np.uint64(0xFFFFFFFF)
_LIMB_BITS = np.uint64(32)
_POW10_U64 = np.array([10**t for t in range(20)], dtype=np.uint64)
# Half of 10**t: the removed digits round up from there (t = 0 never does).
_HALF_POW10 = np.array([1] + [5 * 10**t for t in range(19)], dtype=np.uint64)
# A value's source row: a fixed head, where its sign and exponent sign go,
# the 20 digits of its decimal mantissa right-aligned as five 4-digit
# words, then its exponent as a 4-digit word. Text layouts are byte
# positions in this row; position 0 is NUL, the padding translate deletes.
_ROW_HEAD = b"\0\0\0.0e\0\0"
_SIGN, _EXP_SIGN, _DOT, _ZERO, _E = 1, 2, 3, 4, 5
_DIGITS_END, _ROW_BYTES = 28, 32
# The longest text: sign, 17 digits, point and a 3-digit exponent form.
_TEXT_BYTES = 24
# Values per text gather, which keeps its int32 byte index at 96 KiB.
_GATHER_ROWS = 1 << 10
# A report value: its text, then the item separator.
_SLOT = np.dtype([("text", f"S{_TEXT_BYTES}"), ("sep", f"S{len(_ITEM_SEP)}")])


@functools.cache
def _ryu_tables():
    """Ryū's constants per biased exponent 0..2047 of a float64: the 32-bit
    limbs of the 5**i multiplier w (4 rows); the shifts j - 96, 128 - j and
    160 - j that take a 64-bit window out of three limbs of a product
    (3 rows); for D = 2 * w, D // 2**j and the complement of D's bits
    j - 64..j - 1, d_low, and d_low itself (3 rows); e10; and the mask
    of the low q bits of mv. The mask is 0, so the value is not decided,
    at exponents outside 1..1076 (subnormal, zero, 2**54 and up, inf and
    NaN) and where q <= 1, the case Ryū flags vr as having trailing zeros;
    the other trailing-zero case is mv divisible by 2**q, which the mask
    tests."""
    # 5**i as 125 bits: 5**i >> shift, rounded down where shift > 0.
    pow5 = [5**i for i in range(326)]
    pow5_shift = [p.bit_length() - _POW5_BITS for p in pow5]
    multipliers = [p >> s if s >= 0 else p << -s for p, s in zip(pow5, pow5_shift)]
    pow5_limbs = np.array([[w >> 32 * b & 0xFFFFFFFF for w in multipliers] for b in range(4)])
    e = np.arange(1076, 0, -1)  # -e2 of the biased exponents 1..1076
    q = ((e * 732923) >> 20) - 1  # floor(log10(5**e)) - 1
    e, q = e[q > 1], q[q > 1]
    biased, i = 1077 - e, e - q
    # mv * 5**i / 2**q is mv times the multiplier over 2**j.
    j = q - np.array(pow5_shift)[i]
    limbs = np.zeros((4, 2048), np.uint64)
    shifts = np.zeros((3, 2048), np.uint64)
    e10 = np.zeros(2048, np.intp)
    low_bits = np.zeros(2048, np.uint64)
    limbs[:, biased] = pow5_limbs[:, i]
    shifts[:, biased] = [j - 96, 128 - j, 160 - j]
    e10[biased] = q - e
    low_bits[biased] = (np.uint64(1) << np.minimum(q, 63).astype(np.uint64)) - np.uint64(1)
    # The windows of D are those of the product 2 * w.
    d_high, d_low = _product_windows(np.full(2048, 2, np.uint64), limbs, shifts)
    return limbs, shifts, np.stack([d_high, ~d_low, d_low]), e10, low_bits


def _product_windows(m, limbs, shifts):
    """Bits j..j + 63 and j - 64..j - 1 of m * w for m < 2**55 and 125-bit
    multipliers w given by their 32-bit limbs, j given by _ryu_tables'
    shifts (j is 118..121, and m * w below 2**(j + 64)). Each product of a
    32-bit half of m and a limb is exact in uint64; the product is summed a
    32-bit column at a time, so only one column's products are held at
    once. The windows lie in limbs 3..5 and 1..3 of the product, and the
    shift triple takes either out of its three limbs: a left shift past bit
    63 drops the limb's bits that belong to the window above."""
    halves = (m & _LIMB_MASK, m >> _LIMB_BITS)
    # uint64 zeros: numpy before 2.0 takes a Python int with a uint64
    # scalar to float64.
    column = high = np.uint64(0)
    out = []
    for k in range(6):
        # Column k: the low halves of the products a_h * w_(k-h), the high
        # halves of column k - 1's products, and its carry.
        products = [halves[h] * limbs[k - h] for h in (0, 1) if 0 <= k - h < 4]
        column = (column >> _LIMB_BITS) + high + sum(p & _LIMB_MASK for p in products)
        high = sum(p >> _LIMB_BITS for p in products)
        if k:
            out.append(column & _LIMB_MASK)
    s0, s1, s2 = shifts
    return tuple((a >> s0) | (b << s1) | (c << s2) for a, b, c in (out[2:5], out[0:3]))


def _ryu_bounds(mv, biased):
    """m * w // 2**j for m = mv, mv + 2 and mv - 2 at the biased exponents,
    Ryū's vr, vp and vm but for a power of two, and where the windows of
    the one product mv * w decided vp's carry and vm's borrow."""
    limbs, shifts, bounds, _, _ = _ryu_tables()
    vr, low = _product_windows(mv, limbs.take(biased, axis=1), shifts.take(biased, axis=1))
    d_high, carry_above, borrow_below = bounds.take(biased, axis=1)
    # Below the windows the product and D mod 2**j hold less than one unit
    # of bit j - 64 each. So bit j takes a carry exactly where low is above
    # ~d_low (low + d_low passes 2**64), and lends a borrow where low is
    # below d_low; only a low equal to the threshold leaves it open.
    vp = vr + d_high + (low > carry_above)
    vm = vr - d_high - (low < borrow_below)
    return vr, vp, vm, (low != carry_above) & (low != borrow_below)


def _shortest_digits(x: np.ndarray):
    """Which values of the float64 array x Ryū's general case decides, and
    for those the digits of their shortest round-trip text as an integer
    and its power of ten: the text is of |x| = digits * 10**power."""
    _, _, _, e10, low_bits = _ryu_tables()
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.intp) & 0x7FF
    # mv without its hidden bit: 0 for a power of two, which the mask then
    # leaves undecided.
    fraction = (bits & np.uint64(2**52 - 1)) << np.uint64(2)
    vr, vp, vm, exact = _ryu_bounds(fraction | np.uint64(2**54), biased)
    # Ryū removes digits while vp // 10 > vm // 10; the t for which
    # vp // 10**t > vm // 10**t are 0..removed, so counting them gives it.
    # Every value is tested for t = 1..3, which ends the count of nearly all
    # of them; the few at 3 go on alone.
    removed = np.zeros(len(x), np.intp)
    for scale in _POW10_U64[1:4]:
        removed += vp // scale * scale > vm
    more = np.flatnonzero(removed == 3)
    for scale in _POW10_U64[4:19]:
        more = more[vp[more] // scale * scale > vm[more]]
        if not more.size:
            break
        removed[more] += 1
    scale = _POW10_U64[removed]
    digits = vr // scale
    rest = vr - digits * scale
    # Round half up, and up where vr's truncation is not above vm.
    digits += (rest >= _HALF_POW10[removed]) | (vm >= vr - rest)
    return exact & ((fraction & low_bits[biased]) != 0), digits, e10[biased] + removed


@functools.cache
def _repr_layouts():
    """The text layouts, as source-row positions padded with NUL to
    _TEXT_BYTES, and each one's length without the sign. Layout
    (point + 3) * 17 + count - 1 writes count digits as a plain decimal
    with the point at ``point`` (-3..16, where repr writes no exponent);
    layout 340 + 2 * (count - 1) + wide writes them in exponent form with
    2 or (wide) 3 exponent digits. Each layout starts with the sign."""
    texts = []
    for point in range(-3, 17):
        for count in range(1, 18):
            digits = list(range(_DIGITS_END - count, _DIGITS_END))
            if point <= 0:
                texts.append([_ZERO, _DOT] + [_ZERO] * -point + digits)
            elif point < count:
                texts.append(digits[:point] + [_DOT] + digits[point:])
            else:
                texts.append(digits + [_ZERO] * (point - count) + [_DOT, _ZERO])
    for count in range(1, 18):
        digits = list(range(_DIGITS_END - count, _DIGITS_END))
        mantissa = digits[:1] + ([_DOT] + digits[1:] if count > 1 else [])
        for wide in (False, True):
            texts.append(mantissa + [_E, _EXP_SIGN] + list(range(_ROW_BYTES - 2 - wide, _ROW_BYTES)))
    layouts = np.zeros((len(texts), _TEXT_BYTES), np.int32)
    for layout, text in zip(layouts, texts):
        layout[: len(text) + 1] = [_SIGN, *text]
    return layouts, np.array([len(text) for text in texts])


def _float_texts(x: np.ndarray):
    """Yield, a block of WRITE_BLOCK_CELLS values of the float64 array x at
    a time, the ASCII bytes of ``json.dumps(v)`` followed by _ITEM_SEP for
    each value v, and the offsets where each value's text starts, with the
    end of the last as the final offset."""
    for start in range(0, len(x), WRITE_BLOCK_CELLS):
        yield _float_block(x[start : start + WRITE_BLOCK_CELLS])


def _float_block(x: np.ndarray):
    """The bytes and offsets _float_texts yields for one block.

    A value _shortest_digits decides is gathered from the layout its
    notation, point and digit count select. Every other value (±0, a
    subnormal, 2**54 and up, NaN and ±inf, a power of two, those Ryū flags
    as having trailing zeros and those whose bounds the product's low
    bits leave open) is formatted by json's encoder.
    """
    decided, digits, power = _shortest_digits(x)
    count = np.searchsorted(_POW10_U64, digits, side="right")
    # |x| = 0.DIGITS * 10**point; the exponent form writes point - 1.
    point = count + power
    exponent = point - 1
    key = np.where(
        (point >= -3) & (point <= 16),
        (point + 3) * 17 + count - 1,
        340 + 2 * (count - 1) + (np.abs(exponent) >= 100),
    )
    key[~decided] = 0
    n = len(x)
    words = _digit_words()
    row_words = np.empty((n, _ROW_BYTES // 4), np.uint32)
    row_words[:, :2] = np.frombuffer(_ROW_HEAD, np.uint32)
    for column in range(6, 2, -1):
        high = digits // np.uint64(10**4)
        row_words[:, column] = words.take(digits - high * np.uint64(10**4))
        digits = high
    row_words[:, 2] = words.take(digits)
    row_words[:, 7] = words.take(np.abs(exponent))
    source = row_words.ravel().view(np.uint8)
    negative = np.signbit(x)
    source[_SIGN::_ROW_BYTES] = negative * np.uint8(ord("-"))
    source[_EXP_SIGN::_ROW_BYTES] = np.where(exponent < 0, ord("-"), ord("+"))
    buf = bytearray(n * _SLOT.itemsize)
    slots = np.frombuffer(buf, _SLOT)
    slots["sep"] = _ITEM_SEP
    chars = np.frombuffer(buf, np.uint8).reshape(n, _SLOT.itemsize)
    layouts, lengths = _repr_layouts()
    row_start = np.arange(0, n * _ROW_BYTES, _ROW_BYTES, dtype=np.int32)[:, None]
    for first in range(0, n, _GATHER_ROWS):
        part = slice(first, first + _GATHER_ROWS)
        index = layouts[key[part]]
        index += row_start[part]
        chars[part, :_TEXT_BYTES] = source.take(index)
    size = lengths[key] + negative
    undecided = np.flatnonzero(~decided)
    if undecided.size:
        # The C encoder writes each value as json.dumps(value) does.
        texts = json.dumps(x[undecided].tolist())[1:-1].encode().split(b", ")
        slots["text"][undecided] = texts
        size[undecided] = [len(text) for text in texts]
    starts = np.zeros(n + 1, np.intp)
    np.cumsum(size + len(_ITEM_SEP), out=starts[1:])
    return buf.translate(None, b"\0"), starts


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic generator: linear trend plus sinusoid
    plus white gaussian noise."""

    n: int
    period: int
    trend_slope: float
    amplitude: float
    noise_sigma: float
    seed: int

    def __post_init__(self):
        if self.n > MAX_SYNTH_FRAMES:
            raise UsageError(f"n must be <= {MAX_SYNTH_FRAMES}, got {self.n}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.period < 4:
            raise UsageError(f"period must be >= 4, got {self.period}")
        if self.n < 2 * self.period:
            raise UsageError(f"n must be >= 2*period, got n={self.n} period={self.period}")
        if self.noise_sigma < 0:
            raise UsageError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for field_name in ("trend_slope", "amplitude", "noise_sigma"):
            if not np.isfinite(getattr(self, field_name)):
                raise UsageError(f"{field_name} must be finite")


def synth_generate(spec: SynthSpec) -> PoseTable:
    """Generate a one-channel table from a SynthSpec.

    values[t] = trend_slope*t + amplitude*sin(2*pi*t/period) + noise, with
    noise drawn from a PCG64 generator seeded by spec.seed. The same spec
    always yields bit-identical output; a noise-free companion is just the
    same spec with noise_sigma = 0. Parameters whose values overflow
    float64 raise UsageError.
    """
    t = np.arange(spec.n, dtype=float)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    with np.errstate(over="ignore", invalid="ignore"):
        values = spec.trend_slope * t + spec.amplitude * np.sin(2.0 * np.pi * t / spec.period)
        values += rng.standard_normal(spec.n) * spec.noise_sigma
    if not np.isfinite(values).all():
        raise UsageError("trend_slope, amplitude, noise_sigma and n give values that overflow float64")
    return PoseTable([SYNTH_CHANNEL], values.reshape(-1, 1))
