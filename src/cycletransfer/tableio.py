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
formatting they replace, with the per-value work in C: ``write_csv``
formats a block of rows with one ``%`` format string that holds the frame
numbers as literals, and ``write_report`` lays out the two object levels
of ``json.dumps(..., indent=2)`` itself and encodes each array with
json's C encoder.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError

SYNTH_CHANNEL = "synth"
# Largest synthetic table, in frames; far past what fits in memory, but
# below sizes numpy rejects with an error of its own.
MAX_SYNTH_FRAMES = 2**31
# Bytes per read_csv check block and cells per write_csv block: large
# enough that the per-block Python work is small, small enough that every
# transient stays a small fraction of the table.
READ_BLOCK_BYTES = 1 << 16
WRITE_BLOCK_CELLS = 1 << 14
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
            raise UsageError(
                f"{len(self.channel_names)} channel names but {self.values.shape[1]} columns"
            )
        for name in self.channel_names:
            if not name.strip():
                raise UsageError("channel names must be non-empty")
        seen = set()
        for name in self.channel_names:
            if name in seen:
                raise DataError(f"duplicate channel name {name!r}")
            seen.add(name)
        if not np.all(np.isfinite(self.values)):
            raise UsageError("table contains NaN or infinite values")

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
    """Write the strings ``chunks`` yields via a temp file in the same
    directory, then rename over path."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp.{os.urandom(8).hex()}~")
    # Mode 0o666 lets the umask set the permissions, as for any new file.
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
    values = np.asarray(rows, dtype=float) if rows else np.empty((0, len(names)))
    values = values.reshape(len(rows), len(names))
    return PoseTable(list(names), values)


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
            if not np.isfinite(value):
                raise DataError(
                    f"{path}: line {lineno}: channel {name!r} value {cell!r} is not finite"
                )
            parsed.append(value)
        rows.append(parsed)
    return names, rows


def _channel_names(header: list[str], path) -> list[str]:
    """The channel names a header row declares; DataError if it is not a
    pose table header."""
    if not header or header[0] != "frame":
        raise DataError(f"{path}: line 1: header must start with 'frame'")
    names = header[1:]
    for name in names:
        if not name.strip():
            raise DataError(f"{path}: line 1: empty channel name in header")
    seen = set()
    for name in names:
        if name in seen:
            raise DataError(f"{path}: line 1: duplicate channel {name!r}")
        seen.add(name)
    return names


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
    to ``\n``. The body rows ``i,v1,...,vC`` are formatted a block at a
    time with one ``%`` format string that holds the frame numbers as
    literals, which gives the same bytes as writing ``str(i)`` and
    formatting each value with ``f"{v:.9g}"`` row by row.
    """
    header = io.StringIO()
    csv.writer(header, lineterminator="\r\n").writerow(["frame"] + list(table.channel_names))
    _write_text_atomic(path, itertools.chain([header.getvalue()[:-2] + "\n"], _csv_body(table.values)))


def _csv_body(values: np.ndarray):
    """Yield the body rows of a table, about WRITE_BLOCK_CELLS cells per string."""
    n, c = values.shape
    row_end = ",%.9g" * c + "\n"
    step = max(1, WRITE_BLOCK_CELLS // (c + 1))
    for start in range(0, n, step):
        stop = min(start + step, n)
        # "0" + row_end + "1" + row_end + ...: each frame number, then the
        # formats of its values and the newline.
        fmt = row_end.join(itertools.chain(map(str, range(start, stop)), [""]))
        yield fmt % tuple(values[start:stop].ravel().tolist())


def write_report(diagnostics, path) -> None:
    r"""Dump per-channel diagnostics as JSON with a fixed key order.

    ``diagnostics`` maps channel name to a ChannelDiagnostics; channels
    appear in mapping order. Fields that were never computed (filtered or
    skipped channels) are null. Array fields are plain lists, ready to
    plot.

    The text is the bytes of ``json.dumps(entries, indent=2) + "\n"``.
    That call would run json's pure-Python encoder, which ``indent``
    selects, over every float; here the two object levels are laid out
    directly and each array goes through the C encoder, with the list
    indent as its item separator.
    """
    out = {}
    for name, diag in diagnostics.items():
        seq = diag.target
        entry = {
            "dominant_frequency": None,
            "reference_period": None,
            "acf": None,
            "spectrum": None,
            "trend_order": None,
            "period_starts": None,
            "l_min": None,
            "mean_factor": None,
            "status": diag.status,
        }
        if seq is not None:
            entry["dominant_frequency"] = int(seq.report.dominant_frequency)
            entry["reference_period"] = float(seq.report.reference_period)
            entry["acf"] = seq.report.acf.tolist()
            entry["spectrum"] = seq.report.spectrum.tolist()
            entry["trend_order"] = int(seq.trend.order)
            if seq.segmentation is not None:
                entry["period_starts"] = seq.segmentation.period_starts.tolist()
        if diag.l_min is not None:
            entry["l_min"] = int(diag.l_min)
        if diag.mean_factor is not None:
            entry["mean_factor"] = diag.mean_factor.tolist()
        out[name] = entry
    _write_text_atomic(path, _report_text(out))


# Runs json's C encoder (it takes no indent); the separator puts each list
# item on its own line at the depth of an entry's array items.
_LIST_ENCODER = json.JSONEncoder(separators=(",\n" + " " * 6, ": "))


def _report_text(out: dict):
    r"""Yield the text of ``json.dumps(out, indent=2) + "\n"`` for a mapping
    of channel name to entry, an entry being a non-empty dict of scalars,
    None and lists of scalars; one string per channel."""
    if not out:
        yield "{}\n"
        return
    head = "{\n  "
    for name, entry in out.items():
        fields = ",\n    ".join(f"{json.dumps(key)}: {_json_field(v)}" for key, v in entry.items())
        yield f"{head}{json.dumps(name)}: {{\n    {fields}\n  }}"
        head = ",\n  "
    yield "\n}\n"


def _json_field(value) -> str:
    """One entry value as ``json.dumps(..., indent=2)`` lays it out inside
    an entry."""
    if not isinstance(value, list):
        return json.dumps(value)
    if not value:
        return "[]"
    return "[\n      " + _LIST_ENCODER.encode(value)[1:-1] + "\n    ]"


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
    same spec with noise_sigma = 0.
    """
    t = np.arange(spec.n, dtype=float)
    base = spec.trend_slope * t + spec.amplitude * np.sin(2.0 * np.pi * t / spec.period)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    noise = rng.standard_normal(spec.n) * spec.noise_sigma
    return PoseTable([SYNTH_CHANNEL], (base + noise).reshape(-1, 1))
