"""Per-layer spans and counts, recorded from outside the package.

The package imports its helpers with ``from .x import y``, so each wrapper
is installed on the module attribute its caller looks up, for example
``cycletransfer.transfer.fit_trend`` rather than
``cycletransfer.decomposition.fit_trend``. Nothing inside the package
changes; installing the wrappers is undone when the traced jobs end.

A span is (name, start, end, parent span, job id). Spans stay in memory
until the run ends. A span's self time is its duration minus the time its
child spans cover; in one thread the children of a span never overlap, so
that is the sum of their durations.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import cycletransfer.cli
import cycletransfer.seasonality
import cycletransfer.transfer
from cycletransfer.decomposition import RISING
from cycletransfer.transfer import STATUS_SKIPPED


def _mults(args, kwargs, out):
    n, max_lag = len(args[0]), int(args[1])
    # autocorrelation multiplies n - k sample pairs for each lag k = 0..max_lag.
    return {"mults": (max_lag + 1) * n - max_lag * (max_lag + 1) // 2}


def _fit_trend(args, kwargs, out):
    return {"calls": 1, "fallbacks": int(out is not None and out.fallback)}


def _rising(args, kwargs, out):
    return {"rising": 0 if out is None else sum(c.direction == RISING for c in out)}


def _validate(args, kwargs, out):
    k = len(args[0])
    return {"pairs": k * k, "candidates": k, "kept": 0 if out is None else len(out.period_starts)}


def _frames(args, kwargs, out):
    return {"frames": len(args[1]), "in_period": 0 if out is None else int(out[0].transferred.sum())}


def _skipped(args, kwargs, out):
    return {"skipped": 0 if out is None else sum(d.status == STATUS_SKIPPED for d in out[1].values())}


def _read_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _written_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1]) if os.path.exists(args[1]) else 0}


# (module, attribute its caller looks up, span name, self-time metric, counter)
TARGETS = [
    (cycletransfer.cli, "cli_main", "cli.cli_main", "cli.cli_main.self_s", None),
    (cycletransfer.cli, "read_csv", "tableio.read_csv", "tableio.read_csv.s", _read_bytes),
    (cycletransfer.cli, "write_csv", "tableio.write_csv", "tableio.write_csv.s", _written_bytes),
    (cycletransfer.cli, "write_report", "tableio.write_report", "tableio.write_report.s", _written_bytes),
    (cycletransfer.cli, "transfer_table", "transfer.transfer_table", "transfer.transfer_table.self_s", _skipped),
    (cycletransfer.transfer, "transfer_channel", "transfer.transfer_channel",
     "transfer.transfer_channel.self_s", _frames),
    (cycletransfer.transfer, "normalize_minmax", "series.normalize_minmax", "series.normalize_minmax.s", None),
    (cycletransfer.transfer, "mean_smoothing", "series.mean_smoothing", "series.mean_smoothing.s", None),
    (cycletransfer.transfer, "denormalize", "series.denormalize", "series.denormalize.s", None),
    (cycletransfer.transfer, "analyze_series", "seasonality.analyze_series",
     "seasonality.analyze_series.self_s", None),
    (cycletransfer.seasonality, "autocorrelation", "seasonality.autocorrelation",
     "seasonality.autocorrelation.s", _mults),
    (cycletransfer.seasonality, "power_spectrum", "seasonality.power_spectrum", "seasonality.power_spectrum.s", None),
    (cycletransfer.transfer, "fit_trend", "decomposition.fit_trend", "decomposition.fit_trend.s", _fit_trend),
    (cycletransfer.transfer, "find_crossovers", "decomposition.find_crossovers",
     "decomposition.find_crossovers.s", _rising),
    (cycletransfer.transfer, "validate_periods", "decomposition.validate_periods",
     "decomposition.validate_periods.s", _validate),
    (cycletransfer.transfer, "build_phi", "transfer.build_phi", "transfer.build_phi.s", None),
    (cycletransfer.transfer, "extract_additive", "transfer.extract_additive", "transfer.extract_additive.s", None),
    (cycletransfer.transfer, "mean_additive_factor", "transfer.mean_additive_factor",
     "transfer.mean_additive_factor.s", None),
    (cycletransfer.transfer, "apply_transfer", "transfer.apply_transfer", "transfer.apply_transfer.s", None),
]

# Per-layer metrics other than self times: (name, unit, value from counts).
# Counts follow from the inputs, so they repeat exactly for a seed; a change
# that only makes the program faster must leave every one of them equal.
COUNT_METRICS = [
    ("seasonality.autocorrelation.mults", "count", lambda c: c["seasonality.autocorrelation.mults"]),
    ("decomposition.fit_trend.calls", "count", lambda c: c["decomposition.fit_trend.calls"]),
    ("decomposition.find_crossovers.rising", "count", lambda c: c["decomposition.find_crossovers.rising"]),
    ("decomposition.validate_periods.pairs", "count", lambda c: c["decomposition.validate_periods.pairs"]),
    ("tableio.read_csv.bytes", "B", lambda c: c["tableio.read_csv.bytes"]),
    ("tableio.write_csv.bytes", "B", lambda c: c["tableio.write_csv.bytes"]),
    ("tableio.write_report.bytes", "B", lambda c: c["tableio.write_report.bytes"]),
    ("decomposition.fit_trend.fallback_ratio", "ratio",
     lambda c: _ratio(c["decomposition.fit_trend.fallbacks"], c["decomposition.fit_trend.calls"])),
    ("decomposition.validate_periods.kept_ratio", "ratio",
     lambda c: _ratio(c["decomposition.validate_periods.kept"], c["decomposition.validate_periods.candidates"])),
    ("transfer.transferred_frame_ratio", "ratio",
     lambda c: _ratio(c["transfer.transfer_channel.in_period"], c["transfer.transfer_channel.frames"])),
    ("transfer.skipped_channels", "count", lambda c: c["transfer.transfer_table.skipped"]),
]


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Collects spans and counts for the jobs run while it is installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.job = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            out = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.job)
                if counter is not None:
                    for key, value in counter(args, kwargs, out).items():
                        self.counts[self.job][f"{name}.{key}"] += value

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, attr, name, _, counter in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict:
        """Job id -> span name -> summed self time in seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        per_job: dict = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, job), child in zip(self.spans, covered):
            per_job[job][name] += end - start - child
        return per_job

    def metrics(self, scales: dict, round_jobs) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        ``scales`` maps each traced job to the factor that scales its wall
        times to the reference machine speed. Self times are scaled medians
        over those jobs. Counts are per-job means over
        ``round_jobs``, one traced job for each of the workload's inputs, so
        they do not depend on how many jobs fitted into the run.
        """
        selfs = self.self_times()
        out = {}
        for _, _, name, metric, _ in TARGETS:
            out[metric] = (statistics.median(selfs[j].get(name, 0.0) * f for j, f in scales.items()), "s")
        totals: dict = defaultdict(int)
        for job in round_jobs:
            for key, value in self.counts[job].items():
                totals[key] += value
        per_job = {key: value / len(round_jobs) for key, value in totals.items()}
        for metric, unit, value in COUNT_METRICS:
            out[metric] = (value(defaultdict(int, per_job)), unit)
        return out
