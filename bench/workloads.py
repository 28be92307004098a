"""Seeded synthetic inputs for the benchmark workloads.

Every workload is a reference table, a noisy target table and the
noise-free truth of the target. The program only ever sees the two CSV
files; the truth and the channel kinds stay with the benchmark, which
uses them to check and score each job's output.

A periodic channel draws its period, amplitude and harmonic mix once and
shares them between reference and target, the way two recordings of the
same motion share a gait. Phase, offset, trend and noise are drawn for
each side separately.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

PERIODIC = "periodic"
NOISE = "noise"
CONSTANT = "constant"

PERIOD_RANGE = (12.0, 40.0)
REF_NOISE = 0.05  # reference noise sigma, as a share of the cycle amplitude
TARGET_NOISE = 0.3  # target noise sigma, as a share of the cycle amplitude
MAX_HARMONIC = 0.3  # largest second-harmonic amplitude, as a share of the fundamental's


@dataclass(frozen=True)
class Shape:
    """Table sizes of one workload."""

    ref_frames: int
    target_frames: int
    periodic: int
    noise: int = 0
    constant: int = 0
    tables: int = 1  # independent reference/target pairs that jobs cycle through
    selected: int | None = None  # channels per job passed to --channels; None = all


# Why each workload exists is written down in bench/README.md. Sizes put
# 20-90 jobs into a 30 s run on a 2-core machine.
SHAPES = {
    "long_single": Shape(ref_frames=6_000, target_frames=60_000, periodic=1, tables=8),
    "wide_mixed": Shape(ref_frames=300, target_frames=600, periodic=48, noise=9, constant=3),
    "io_filtered": Shape(ref_frames=1_500, target_frames=1_500, periodic=60, selected=2),
}
SMOKE_SHAPES = {
    "long_single": Shape(ref_frames=400, target_frames=2_000, periodic=1, tables=2),
    "wide_mixed": Shape(ref_frames=200, target_frames=400, periodic=16, noise=3, constant=1),
    "io_filtered": Shape(ref_frames=200, target_frames=200, periodic=20, selected=2),
}


@dataclass(eq=False)
class Inputs:
    """One reference/target table pair and what the benchmark knows about it."""

    names: list[str]
    kinds: list[str]
    ref: np.ndarray
    target: np.ndarray
    truth: np.ndarray  # noise-free target; NaN for white-noise channels
    selections: list[list[str] | None]  # the --channels value of each job


def _kinds(shape: Shape) -> list[str]:
    """Channel kinds, with the control channels spread through the table."""
    controls = [NOISE] * shape.noise + [CONSTANT] * shape.constant
    total = shape.periodic + len(controls)
    kinds = [PERIODIC] * total
    for i, kind in enumerate(controls):
        kinds[(2 * i + 1) * total // (2 * len(controls))] = kind
    return kinds


def _periodic_side(rng, n: int, period: float, amplitude: float, harmonic: float,
                   harmonic_phase: float, noise: float) -> tuple[np.ndarray, np.ndarray]:
    t = np.arange(n, dtype=float)
    w = 2.0 * np.pi * t / period + rng.uniform(0.0, 2.0 * np.pi)
    cycle = amplitude * (np.sin(w) + harmonic * np.sin(2.0 * w + harmonic_phase))
    drift = rng.uniform(-0.5, 0.5) * amplitude  # over the whole series: a slow trend
    truth = rng.uniform(-1.0, 1.0) + drift * t / (n - 1) + cycle
    return truth, truth + noise * amplitude * rng.standard_normal(n)


def _stratified(rng, m: int, lo: float, hi: float) -> np.ndarray:
    """m draws from [lo, hi), one in each of m equal strata, in random order.

    Stratifying the per-channel draws keeps the mix of easy and hard
    channels the same from seed to seed, so timings and RMSE gains averaged
    over channels move little between seeds.
    """
    return lo + (hi - lo) * (rng.permutation(m) + rng.uniform(size=m)) / m


def generate(workload: str, seed: int, smoke: bool = False) -> list[Inputs]:
    """Draw a workload's table pairs from ``seed``; the same seed gives the same tables.

    Values are not yet rounded to the CSV's 9 significant digits.
    """
    shape = (SMOKE_SHAPES if smoke else SHAPES)[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    m = shape.tables * shape.periodic
    periods = iter(_stratified(rng, m, *PERIOD_RANGE))
    harmonics = iter(_stratified(rng, m, 0.0, MAX_HARMONIC))
    kinds = _kinds(shape)
    names = [f"c{i:02d}" for i in range(len(kinds))]
    n_ref, n_tgt = shape.ref_frames, shape.target_frames
    pairs = []
    for _ in range(shape.tables):
        ref = np.empty((n_ref, len(kinds)))
        target = np.empty((n_tgt, len(kinds)))
        truth = np.empty((n_tgt, len(kinds)))
        for c, kind in enumerate(kinds):
            if kind == PERIODIC:
                shared = (next(periods), rng.uniform(0.5, 2.0), next(harmonics),
                          rng.uniform(0.0, 2.0 * np.pi))
                _, ref[:, c] = _periodic_side(rng, n_ref, *shared, REF_NOISE)
                truth[:, c], target[:, c] = _periodic_side(rng, n_tgt, *shared, TARGET_NOISE)
            elif kind == NOISE:
                for table, n in ((ref, n_ref), (target, n_tgt)):
                    table[:, c] = rng.uniform(-1.0, 1.0) + rng.uniform(0.5, 2.0) * rng.standard_normal(n)
                truth[:, c] = np.nan
            else:
                ref[:, c] = rng.uniform(-1.0, 1.0)
                target[:, c] = truth[:, c] = rng.uniform(-1.0, 1.0)
        selections: list[list[str] | None] = [None]
        if shape.selected is not None:
            # Successive jobs process disjoint channel groups, so the scores
            # cover every channel once the jobs have gone round.
            order = rng.permutation(len(names))
            groups = order[: len(order) // shape.selected * shape.selected].reshape(-1, shape.selected)
            selections = [[names[i] for i in sorted(group)] for group in groups]
        pairs.append(Inputs(names, kinds, ref, target, truth, selections))
    return pairs


def write_table(path, names: list[str], values: np.ndarray) -> None:
    """Write a table in the program's CSV grammar, 9 significant digits per value."""
    frames = np.arange(values.shape[0], dtype=float).reshape(-1, 1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["frame", *names]) + "\n")
        np.savetxt(fh, np.hstack([frames, values]), fmt=["%d"] + ["%.9g"] * len(names),
                   delimiter=",", newline="\n")


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Read a table back: channel names and values, frame column dropped.

    Raises ValueError when the frame column does not count 0, 1, 2, ...
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header[0] != "frame":
        raise ValueError(f"{path}: header starts with {header[0]!r}, not 'frame'")
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} columns for {len(header)} header names")
    if not np.array_equal(data[:, 0], np.arange(data.shape[0])):
        raise ValueError(f"{path}: frame column does not count 0, 1, 2, ...")
    return header[1:], data[:, 1:]
