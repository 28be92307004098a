r"""Multi-channel tables, CSV and JSON serialization, synthetic data.

CSV grammar: a header line ``frame,<name1>,<name2>,...`` followed by one
row per frame. The frame column counts 0, 1, 2, ... without gaps; every
other cell is a finite float. Values are written with 9 significant
digits, which keeps a write/read round trip well below pipeline
tolerances for pose-scale values.

``read_csv`` first tries a block parser that splits about 64 KiB of lines
at a time on commas and converts every value cell with ``float``. It
takes a file only when the file holds no ``"``, every line (the last one
too) ends in the header's line end, ``\n`` or ``\r\n``, with no other
``\r`` anywhere, the header starts with ``frame`` and names no channel
twice or blank, every row has exactly one comma per channel (counted for
all lines of a block by array code), every frame cell is written as
``str(i)`` for its row i, no cell is longer than
``csv.field_size_limit()``, every value cell parses and every value is
finite. Any other file, valid or not, goes to the line-precise
``csv.reader`` parser, which is the one source of every error message, so
both paths give the same table or the same error.

Both writers give the bytes of the plain per-row and per-value
formatting they replace, with the per-value work in C: ``write_csv``
formats a block of rows with one ``%`` format string that holds the frame
numbers as literals, and ``write_report`` lays out the two object levels
of ``json.dumps(..., indent=2)`` itself and encodes each array with
json's C encoder.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError

SYNTH_CHANNEL = "synth"
# Largest synthetic table, in frames; far past what fits in memory, but
# below sizes numpy rejects with an error of its own.
MAX_SYNTH_FRAMES = 2**31
# Characters of lines per read_csv block and cells per write_csv block:
# large enough that the per-block Python work is small, small enough that
# every transient stays a small fraction of the table.
READ_BLOCK_CHARS = 1 << 16
WRITE_BLOCK_CELLS = 1 << 14


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
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix="~")
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
    size limit, for example). Plain files take the block parser; the
    module docstring lists what it declines.
    """
    table = _read_csv_blocks(path)
    return table if table is not None else _read_csv_lines(path)


def _read_csv_blocks(path) -> PoseTable | None:
    """The table, parsed a block of lines at a time; None for any file the
    block parser declines, including every malformed one."""
    limit = csv.field_size_limit()
    blocks = []
    n_frames = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = fh.readline()
            crlf = header.endswith("\r\n")
            names = _plain_header(header, crlf, limit)
            if names is None:
                return None
            while lines := fh.readlines(READ_BLOCK_CHARS):
                block = _parse_block(lines, crlf, n_frames, len(names), limit)
                if block is None:
                    return None
                blocks.append(block)
                n_frames += len(lines)
    except (OSError, UnicodeDecodeError):
        return None
    values = np.concatenate(blocks) if blocks else np.empty(0)
    values = values.reshape(n_frames, len(names))
    if not np.isfinite(values).all():
        return None
    return PoseTable(names, values)


def _plain_text(text: str, crlf: bool) -> str | None:
    r"""text with ``\n`` line ends if it is whole lines that csv.reader
    splits on commas alone, else None: no quote, and every line ended by
    ``\r\n`` (crlf) or ``\n`` (not crlf), with no other carriage return.
    """
    if crlf:
        # With every \r\n made \n and no \r left, each \r stood before a
        # \n; equal counts make each \n stand after a \r.
        if text.count("\r") != text.count("\n"):
            return None
        text = text.replace("\r\n", "\n")
    if text.endswith("\n") and '"' not in text and "\r" not in text:
        return text
    return None


def _plain_header(line: str, crlf: bool, limit: int) -> list[str] | None:
    """Channel names of a header line the block parser takes, else None."""
    line = _plain_text(line, crlf)
    if line is None:
        return None
    cells = line[:-1].split(",")
    names = cells[1:]
    if (
        cells[0] != "frame"
        or max(map(len, cells)) > limit
        or not all(name.strip() for name in names)
        or len(set(names)) != len(names)
    ):
        return None
    return names


def _parse_block(lines: list[str], crlf: bool, first_frame: int, n_channels: int, limit: int):
    """Values of consecutive body lines as one flat array, else None.

    With plain text and exactly n_channels commas per line, the cells
    below are the cells csv.reader would give and ``float`` gives its
    values.
    """
    text = _plain_text("".join(lines), crlf)
    if text is None:
        return None
    # Every line holds n_channels commas exactly when the k-th newline has
    # k * n_channels commas before it. In UTF-8 no byte of a multi-byte
    # character is a comma or a newline.
    raw = np.frombuffer(text.encode(), np.uint8)
    newlines = np.flatnonzero(raw == 10)
    commas_before = np.searchsorted(np.flatnonzero(raw == 44), newlines)
    if not np.array_equal(commas_before, n_channels * np.arange(1, newlines.size + 1)):
        return None
    cells = text[:-1].replace("\n", ",").split(",")
    # No cell is longer than its line, so cells are measured only when a
    # line is long.
    if max(map(len, lines)) > limit and max(map(len, cells)) > limit:
        return None
    if cells[:: n_channels + 1] != list(map(str, range(first_frame, first_frame + len(lines)))):
        return None
    del cells[:: n_channels + 1]
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return None


def _read_csv_lines(path) -> PoseTable:
    """Parse a pose table with csv.reader, one line at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
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
    """Write a pose table atomically, 9 significant digits per value.

    csv.writer writes the header, so names holding a comma or a quote
    come out quoted. The body rows ``i,v1,...,vC`` are formatted a block
    at a time with one ``%`` format string that holds the frame numbers
    as literals, which gives the same bytes as writing ``str(i)`` and
    formatting each value with ``f"{v:.9g}"`` row by row.
    """
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(["frame"] + list(table.channel_names))
    _write_text_atomic(path, itertools.chain([header.getvalue()], _csv_body(table.values)))


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
        if diag.factor is not None:
            entry["mean_factor"] = diag.factor.mean_factor.tolist()
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
