"""Closed-loop benchmark of the ``cycletransfer transfer`` job.

Usage, from the repository root:

    python3 bench/run.py --workload long_single --seed 1 --seconds 30 --trace 0

One caller runs jobs back to back in this process and starts no threads:
the next job starts only after the previous one has returned and its
output has been checked. A job is one in-process call to
``cycletransfer.cli.cli_main(["transfer", ...])`` on CSV files generated
from ``--seed`` during set-up. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates plain and traced jobs and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Every time metric is
a wall time scaled to one fixed machine speed (see calibration.py).
bench/README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
import workloads
from workloads import CONSTANT, PERIODIC

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

COLD_STARTS = 11
SMOKE_COLD_STARTS = 2
# job_s.tail is the highest percentile with at least this many slower jobs.
TAIL_BEYOND = 10
PASSTHROUGH_TOLERANCE = 1e-8

TRANSFERRED = "transferred"
SKIPPED = "skipped_no_seasonality"
PASSTHROUGH = "passthrough"


@dataclass(eq=False)
class Spec:
    """One distinct job: the CLI arguments and what its output must satisfy."""

    index: int
    argv: list[str]
    out: Path
    report: Path
    inputs: workloads.Inputs
    target: np.ndarray  # the target exactly as written to its CSV
    selected: set[str]
    output_hash: str | None = None


@dataclass
class Scores:
    """Quality of one spec's output, recorded the first time it passes."""

    gains: list[float] = field(default_factory=list)
    false_transfers: int = 0
    controls: int = 0


class JobFailed(Exception):
    pass


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def check_output(spec: Spec) -> Scores:
    """Check one job's output CSV and report; raise JobFailed on any violation."""
    inputs = spec.inputs
    try:
        names, values = workloads.read_table(spec.out)
        with open(spec.report, encoding="utf-8") as fh:
            statuses = {name: entry["status"] for name, entry in json.load(fh).items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise JobFailed(f"output unreadable: {exc!r}") from None
    if names != inputs.names:
        raise JobFailed(f"output channels {names[:5]}... differ from the target's {inputs.names[:5]}...")
    if values.shape != spec.target.shape:
        raise JobFailed(f"output shape {values.shape}, target shape {spec.target.shape}")
    if list(statuses) != inputs.names:
        raise JobFailed("report channels differ from the target's")
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    if spec.output_hash is not None and digest != spec.output_hash:
        raise JobFailed("output differs from an earlier job on the same inputs")
    spec.output_hash = digest

    scores = Scores()
    for c, (name, kind) in enumerate(zip(inputs.names, inputs.kinds)):
        status = statuses[name]
        unchanged = float(np.max(np.abs(values[:, c] - spec.target[:, c]))) <= PASSTHROUGH_TOLERANCE
        if status != TRANSFERRED and not unchanged:
            raise JobFailed(f"channel {name}: status {status} but values changed")
        if name not in spec.selected:
            if status != PASSTHROUGH:
                raise JobFailed(f"channel {name}: filtered out but status {status}")
            continue
        if kind == PERIODIC:
            if status != TRANSFERRED:
                raise JobFailed(f"periodic channel {name}: status {status}")
            truth = inputs.truth[:, c]
            scores.gains.append(1.0 - _rmse(values[:, c], truth) / _rmse(spec.target[:, c], truth))
        else:
            if kind == CONSTANT and status != SKIPPED:
                raise JobFailed(f"constant channel {name}: status {status}")
            scores.controls += 1
            scores.false_transfers += status != SKIPPED
    return scores


def run_job(spec: Spec) -> tuple[float, str | None]:
    """Run one job; return its wall time and why it failed, or None."""
    import cycletransfer.cli  # found on sys.path once main() has checked for it

    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cycletransfer.cli.cli_main(spec.argv)
    except Exception as exc:  # a crash of the program is one failed job
        return time.perf_counter() - start, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit code {code}: {stderr.getvalue().strip()[-300:]}"
    return elapsed, None


def build_specs(workload: str, seed: int, smoke: bool, work: Path) -> list[Spec]:
    """Generate the inputs and write them as CSV files in ``work``."""
    specs = []
    out, report = work / "out.csv", work / "report.json"
    for t, inputs in enumerate(workloads.generate(workload, seed, smoke)):
        ref_path, target_path = work / f"ref{t}.csv", work / f"target{t}.csv"
        workloads.write_table(ref_path, inputs.names, inputs.ref)
        workloads.write_table(target_path, inputs.names, inputs.target)
        _, target = workloads.read_table(target_path)
        for selection in inputs.selections:
            argv = ["transfer", "--ref", str(ref_path), "--target", str(target_path),
                    "--out", str(out), "--report", str(report)]
            if selection is not None:
                argv += ["--channels", ",".join(selection)]
            specs.append(Spec(len(specs), argv, out, report, inputs, target,
                              set(selection if selection is not None else inputs.names)))
    return specs


class Speed:
    """Scales wall times to the machine speed of calibration.REFERENCE_S.

    The calibration kernel runs between jobs; each job's wall time is
    scaled by the mean of the kernel times just before and just after it.
    """

    def __init__(self):
        self.kernel_times = [calibration.kernel_seconds()]

    def scale(self, wall: float) -> float:
        self.kernel_times.append(calibration.kernel_seconds())
        around = (self.kernel_times[-2] + self.kernel_times[-1]) / 2.0
        return wall * calibration.REFERENCE_S / around


def cold_import_seconds(starts: int) -> float:
    """Median scaled time of a fresh interpreter that imports cycletransfer.cli.

    Each start is scaled by calibration.IMPORT_REFERENCE_S over the time of
    a fresh interpreter that imports only numpy, started right after it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def cold_start(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    cold_start("import cycletransfer.cli")  # writes the bytecode cache; not timed
    times = []
    for _ in range(starts):
        wall = cold_start("import cycletransfer.cli")
        times.append(wall * calibration.IMPORT_REFERENCE_S / cold_start(calibration.IMPORT_REFERENCE))
    return statistics.median(times)


def blas_threads() -> str:
    """OpenBLAS's thread count as the library reports it, when it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return str(getattr(handle, symbol)())
    return "unknown"


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile of ``times`` with TAIL_BEYOND jobs slower than it.

    That is the (TAIL_BEYOND + 1)-th slowest time. Returns (value,
    percentile, jobs beyond); with too few jobs, the slowest one.
    """
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


class Loop:
    """Runs and checks jobs, keeping count of attempts, failures and scores."""

    def __init__(self, specs: list[Spec], speed: Speed):
        self.specs = specs
        self.speed = speed
        self.wall: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.scores: dict[int, Scores] = {}

    def job(self, spec: Spec) -> float:
        """Run and check one job; return its scaled time, failed or not."""
        self.attempted += 1
        elapsed, error = run_job(spec)
        if error is None:
            try:
                self.scores.setdefault(spec.index, check_output(spec))
            except JobFailed as exc:
                error = str(exc)
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"job {self.attempted} failed: {error}", file=sys.stderr)
        self.wall.append(elapsed)
        return self.speed.scale(elapsed)

    def rounds(self, seconds: float):
        """Yield specs round-robin for ``seconds``, and at least one full round."""
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(self.specs) or time.perf_counter() < deadline:
            yield self.specs[i % len(self.specs)]
            i += 1


def measure_plain(loop: Loop, seconds: float) -> list[float]:
    return [loop.job(spec) for spec in loop.rounds(seconds)]


def measure_traced(loop: Loop, seconds: float):
    """Alternate a plain and a traced job on each spec.

    Returns (plain times, traced times, per-layer metrics).
    """
    import tracing  # imported late: it needs the package on sys.path

    tracer = tracing.Tracer()
    plain, traced, scales, first = [], [], {}, {}
    for spec in loop.rounds(seconds):
        plain.append(loop.job(spec))
        tracer.job = loop.attempted + 1  # the attempt number the traced job gets
        first.setdefault(spec.index, tracer.job)
        with tracer.installed():
            traced.append(loop.job(spec))
        scales[tracer.job] = traced[-1] / loop.wall[-1]
    return plain, traced, tracer.metrics(scales, list(first.values()))


def quality(loop: Loop) -> tuple[float, int, int]:
    """Mean RMSE gain over scored periodic channels, false transfers, controls."""
    gains = [g for s in loop.scores.values() for g in s.gains]
    false_transfers = sum(s.false_transfers for s in loop.scores.values())
    controls = sum(s.controls for s in loop.scores.values())
    return (float(np.mean(gains)) if gains else 0.0), false_transfers, controls


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cycletransfer" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_s = None
    if not args.trace:
        setup_s = cold_import_seconds(SMOKE_COLD_STARTS if args.smoke else COLD_STARTS)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        specs = build_specs(args.workload, args.seed, args.smoke, work)
        loop = Loop(specs, Speed())
        loop.job(specs[0])  # warm-up: first-call costs are not part of a job
        if args.trace:
            plain, traced, layers = measure_traced(loop, args.seconds)
        else:
            plain = measure_plain(loop, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    gain, false_transfers, controls = quality(loop)
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 caller, {len(specs)} distinct jobs; "
          f"OpenBLAS threads {blas_threads()} (nproc {os.cpu_count()}, "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})")
    print(f"error_rate = {loop.failed}/{loop.attempted}; "
          f"false_transfer_rate = {false_transfers}/{controls} control channels")
    print(f"median unscaled job wall time {statistics.median(loop.wall[1:] or loop.wall):.4f} s; "
          f"calibration kernel median {statistics.median(loop.speed.kernel_times):.5f} s, "
          f"reference {calibration.REFERENCE_S} s")
    if args.trace:
        metrics = dict(layers)
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["quality.false_transfer_rate"] = (false_transfers / controls if controls else 0.0, "ratio")
    else:
        tail_s, percentile, beyond = tail(plain)
        cells = specs[0].target.size
        print(f"job_s.tail is p{percentile:.1f} of {len(plain)} jobs, {beyond} beyond it")
        metrics = {
            "job_s.p50": (statistics.median(plain), "s"),
            "job_s.tail": (tail_s, "s"),
            "cells_per_s": (cells * len(plain) / sum(plain), "cells/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "rmse_gain": (gain, "ratio"),
        }
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
