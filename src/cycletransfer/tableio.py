"""Multi-channel tables, CSV and JSON serialization, synthetic data.

CSV grammar: a header line ``frame,<name1>,<name2>,...`` followed by one
row per frame. The frame column counts 0, 1, 2, ... without gaps; every
other cell is a finite float. Values are written with 9 significant
digits, which keeps a write/read round trip well below pipeline
tolerances for pose-scale values.
"""

from __future__ import annotations

import csv
import io
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


def _write_text_atomic(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename over path."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_csv(path) -> PoseTable:
    """Parse a pose table, reporting the line number of anything malformed.

    Every malformed file raises DataError, including one holding bytes
    that are not UTF-8 or a cell the csv module refuses (over its field
    size limit, for example).
    """
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
    """Write a pose table atomically, 9 significant digits per value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["frame"] + list(table.channel_names))
    for i in range(table.n_frames):
        writer.writerow([str(i)] + [f"{v:.9g}" for v in table.values[i]])
    _write_text_atomic(path, buf.getvalue())


def write_report(diagnostics, path) -> None:
    """Dump per-channel diagnostics as JSON with a fixed key order.

    ``diagnostics`` maps channel name to a ChannelDiagnostics; channels
    appear in mapping order. Fields that were never computed (filtered or
    skipped channels) are null. Array fields are plain lists, ready to
    plot.
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
            entry["acf"] = [float(v) for v in seq.report.acf]
            entry["spectrum"] = [float(v) for v in seq.report.spectrum]
            entry["trend_order"] = int(seq.trend.order)
            if seq.segmentation is not None:
                entry["period_starts"] = [int(p) for p in seq.segmentation.period_starts]
        if diag.l_min is not None:
            entry["l_min"] = int(diag.l_min)
        if diag.factor is not None:
            entry["mean_factor"] = [float(v) for v in diag.factor.mean_factor]
        out[name] = entry
    _write_text_atomic(path, json.dumps(out, indent=2) + "\n")


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
