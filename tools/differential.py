"""Compare the CLI output of two revisions of the package, case by case.

Usage, from anywhere inside the repository:

    python3 tools/differential.py BASE [HEAD] [--match TEXT]

BASE and HEAD are git revisions; HEAD defaults to the working tree. Each
revision's ``src/`` is extracted with ``git archive`` into a temporary
directory, so the checkout and its worktree list are left alone. One
fixed list of cases runs through ``cycletransfer.cli.cli_main`` in one
fresh process per tree, on input files written once and shared by both.
For every case the exit code, stdout, stderr, output CSV bytes, report
bytes and noise-free ``--truth-out`` CSV bytes are compared; each
mismatch is printed, and the exit status is 1 if there is any, 0 if there
is none. A report mismatch also prints, for each
float field that differs (``acf``, ``spectrum``, ``mean_factor``,
``reference_period``), its largest per-element difference, absolute,
relative to the field's largest magnitude and relative to each element.
``--match`` keeps only the cases whose name contains TEXT.

The cases are ``transfer`` and ``analyze`` on the seed-3 tables of the
three benchmark workloads (bench/workloads.py, imported read-only) under
eight flag sets, and on their seed-4 tables under the defaults; both
commands on small wave, noise, constant, ramp, curve, triangle and mixed
tables of 2 to 200 frames under four flag sets and a ``--channels``
subset; ``analyze`` on the golden input of tests/data with and without
``--smooth-radius 120``; and a few edge cases: values near float64's
limit and near its smallest normal scale, BOM, CRLF and quoted-header
files, malformed cells, a blank, a duplicate and a NUL-holding channel
name, each in a file the fast CSV reader would take but for its header
and in one only the line parser reads, ``--smooth-radius`` equal to the
series length, a missing output directory, a report path that is a
directory and one that is the output CSV. The precedence cases run the
tables of tests/test_side_front.py's precedence tests: flat, plain-ramp,
wave and range- or output-overflowing channels in several orders, with and
without ``--smooth-radius`` equal to the series length, and a reference
that fails before its target. The curve cases run the 64-frame parabolas
+-(t/64)^2 against a sine reference under the defaults and
``--smooth-kind exponential``. The synth cases run ``synth`` on one spec
with and without ``--truth-out``, with n below twice the period and with
a trend slope whose values overflow float64; the last two exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

WORKLOAD_SEEDS = (3, 4)  # every flag set runs at the first, the defaults at both
WORKLOAD_FLAGS = {
    "default": [],
    "max-order-1": ["--max-order", "1"],
    "exponential": ["--smooth-kind", "exponential"],
    "radius-3": ["--smooth-radius", "3"],
    "radius-0": ["--smooth-radius", "0"],
    "alpha-0.6": ["--alpha", "0.6"],
    "max-order-5": ["--max-order", "5"],
    "max-order-12": ["--max-order", "12"],
}
SMALL_FLAGS = {name: WORKLOAD_FLAGS[name] for name in ("default", "max-order-1", "exponential", "radius-3")}
SMALL_KINDS = ("wave", "noise", "constant", "ramp", "curve", "triangle")
SMALL_SIZES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 20, 64, 65, 200)
GOLDEN_INPUT = ROOT / "tests" / "data" / "analyze_input.csv"
# Bad names for channel b of the edge tables, as header bytes.
BAD_NAMES = {"blank-name": b" ", "duplicate-name": b"a", "nul-name": b"b\0"}
FLOAT_FIELDS = ("acf", "spectrum", "mean_factor", "reference_period")
# Channel orders of the precedence tables, each run through both commands
# as reference and target.
PRECEDENCE_ORDERS = (
    ("flat", "wave", "ramp", "wave2"),
    ("flat", "ramp", "big", "wave"),
    ("wave", "big", "flat"),
    ("out", "big"),
    ("big", "out"),
    ("flat", "out", "big"),
    ("flat", "ramp", "wave2", "big"),
    ("flat", "big", "wave"),
)


def _small_channel(kind: str, n: int, rng) -> np.ndarray:
    t = np.arange(n, dtype=float)
    period = rng.uniform(7.0, 13.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    if kind == "wave":
        return np.sin(2.0 * np.pi * t / period + phase) + 0.01 * t + 0.1 * rng.standard_normal(n)
    if kind == "noise":
        return rng.standard_normal(n)
    if kind == "constant":
        return np.full(n, rng.uniform(-1.0, 1.0))
    if kind == "ramp":
        return rng.uniform(-1.0, 1.0) + rng.uniform(0.1, 2.0) * t
    if kind == "curve":
        return 1e-3 * (t - n / 3.0) ** 2 + 0.5 * np.sin(2.0 * np.pi * t / period + phase)
    return 2.0 * np.abs((t / period + phase) % 1.0 - 0.5)  # triangle


def _small_table(kinds, n: int, seed: int) -> tuple[list[str], np.ndarray]:
    rng = np.random.default_rng(seed)
    if len(kinds) == 1:
        names, kinds = ["a", "b"], kinds * 2
    else:
        names = list(kinds)
    return names, np.column_stack([_small_channel(kind, n, rng) for kind in kinds])


def _table_bytes(names, values) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        workloads.write_table(path, names, values)
        return path.read_bytes()


@functools.lru_cache(maxsize=None)
def _workload_pair(workload: str, seed: int) -> workloads.Inputs:
    return workloads.generate(workload, seed)[0]


def _edge_tables() -> dict:
    """Input files of the edge cases, as {file name: bytes maker}, built
    from the 200-frame two-channel wave tables: channel b scaled near
    float64's limit on both sides (the transfer overflows) or beyond it
    (the range overflows), or scaled apart from channel a, and the
    target's text changed. Each bad channel name comes in a file that ends
    in a newline and in one without it, which only the line parser reads."""
    names, wave = _small_table(["wave"], 200, 2)
    ref = _small_table(["wave"], 200, 1)[1]
    with_nan = wave.copy()
    with_nan[3, 0] = np.nan
    plain = functools.partial(_table_bytes, names, wave)

    def scaled(values, scales):
        return functools.partial(_table_bytes, names, values / np.abs(values).max(axis=0) * scales)

    def header(name, final_newline):
        return lambda: plain().replace(b"frame,a,b", b"frame,a," + name, 1)[: None if final_newline else -1]

    bad = {f"{kind}{suffix}.csv": header(name, not suffix) for kind, name in BAD_NAMES.items() for suffix in ("", "-lines")}
    return bad | {
        "huge-ref.csv": scaled(ref, [1.0, 0.7e308]),
        "huge.csv": scaled(wave, [1.0, 0.7e308]),
        "range.csv": scaled(wave, [1.0, 1.5e308]),
        "scaled.csv": scaled(wave, [1e-300, 1e150]),
        "bom-crlf.csv": lambda: b"\xef\xbb\xbf" + plain().replace(b"\n", b"\r\n"),
        "quoted.csv": lambda: plain().replace(b"frame,a,b", b'"frame","a","b"', 1),
        "nan-cell.csv": functools.partial(_table_bytes, names, with_nan),
        "bad-frame.csv": lambda: plain().replace(b"\n5,", b"\nfive,", 1),
    }


def _precedence_tables() -> dict:
    """Input files of the precedence cases, as {file name: bytes maker}:
    240-frame tables of the columns tests/test_side_front.py's precedence
    tests use, one file per channel order."""
    t = np.arange(240, dtype=float)
    wave = np.sin(2.0 * np.pi * (t + 0.5) / 16.0)
    columns = {"wave": wave + 0.003 * t, "flat": np.full(t.size, 4.0), "ramp": np.linspace(-2.0, 5.0, t.size),
               "big": 1.5e308 * wave, "out": 0.8e308 * wave, "wave2": 2.0 * np.sin(2.0 * np.pi * t / 24.0)}

    def table(order, names=None):
        values = np.column_stack([columns[name] for name in order])
        return functools.partial(_table_bytes, names or order, values)

    files = {f"prec-{'-'.join(order)}.csv": table(order) for order in PRECEDENCE_ORDERS}
    files["prec-abc-ref.csv"] = table(["flat", "ramp", "big"], ["a", "b", "c"])
    files["prec-abc-target.csv"] = table(["big", "flat", "flat"], ["a", "b", "c"])
    files.update({f"prec-s-{name}.csv": table([name], ["s"]) for name in ("wave", "flat")})
    return files


def _curve_tables() -> dict:
    """Input files of the curve cases: the 64-frame parabolas +-(t/64)^2,
    which have no cycle, and a sine reference of period 16."""
    t = np.arange(64, dtype=float)
    files = {f"curve64-{label}.csv": functools.partial(_table_bytes, ["a"], sign * (t / 64.0)[:, None] ** 2)
             for label, sign in (("convex", 1.0), ("concave", -1.0))}
    files["sine64.csv"] = functools.partial(_table_bytes, ["a"], np.sin(2.0 * np.pi * t / 16.0)[:, None])
    return files


def cases() -> tuple[list[tuple[str, list[str]]], dict]:
    """The fixed case list, as (name, argv), and the input files the cases
    read, as {file name: function that makes its bytes}. Paths in argv are
    relative to the directory a tree's cases run in: inputs under
    ``inputs/``, outputs under ``out/``, named by the case's place in the
    list."""
    out: list[tuple[str, list[str]]] = []
    files: dict = {}

    def add(name, argv):
        out.append((name, [arg.replace("{i}", str(len(out))) for arg in argv]))

    def both(name, ref, target, flags):
        add(f"transfer/{name}", ["transfer", "--ref", f"inputs/{ref}", "--target", f"inputs/{target}",
                                 "--out", "out/{i}.csv", "--report", "out/{i}.json", *flags])
        add(f"analyze/{name}", ["analyze", "--input", f"inputs/{target}", "--report", "out/{i}.json", *flags])

    for seed in WORKLOAD_SEEDS:
        flag_sets = WORKLOAD_FLAGS if seed == WORKLOAD_SEEDS[0] else {"default": []}
        for workload, shape in workloads.SHAPES.items():
            pair = functools.partial(_workload_pair, workload, seed)
            label = workload if seed == WORKLOAD_SEEDS[0] else f"{workload}-seed{seed}"
            ref, target = f"{label}-ref.csv", f"{label}-target.csv"
            files[ref] = lambda pair=pair: _table_bytes(pair().names, pair().ref)
            files[target] = lambda pair=pair: _table_bytes(pair().names, pair().target)
            for flag_name, flags in flag_sets.items():
                both(f"{label}/{flag_name}", ref, target, flags)
            if shape.selected is not None and seed == WORKLOAD_SEEDS[0]:
                both(f"{label}/channels", ref, target, ["--channels", ",".join(pair().selections[0])])

    for n in SMALL_SIZES:
        for kind in (*SMALL_KINDS, "mixed"):
            kinds = list(SMALL_KINDS) if kind == "mixed" else [kind]
            ref, target = f"{kind}-{n}-ref.csv", f"{kind}-{n}-target.csv"
            files[ref] = lambda kinds=kinds, n=n: _table_bytes(*_small_table(kinds, n, 1))
            files[target] = lambda kinds=kinds, n=n: _table_bytes(*_small_table(kinds, n, 2))
            for flag_name, flags in SMALL_FLAGS.items():
                both(f"{kind}-n{n}/{flag_name}", ref, target, flags)
            both(f"{kind}-n{n}/channels", ref, target, ["--channels", "wave,noise" if kind == "mixed" else "a"])

    files["golden.csv"] = GOLDEN_INPUT.read_bytes
    for flag_name, flags in (("default", []), ("radius-120", ["--smooth-radius", "120"])):
        add(f"golden/{flag_name}", ["analyze", "--input", "inputs/golden.csv", "--report", "out/{i}.json", *flags])

    files.update(_edge_tables())
    bad_names = [f"{kind}{suffix}" for kind in BAD_NAMES for suffix in ("", "-lines")]
    for name in ("huge", "range", "scaled", "bom-crlf", "quoted", "nan-cell", "bad-frame", *bad_names):
        both(f"edge/{name}", "huge-ref.csv" if name == "huge" else "wave-200-ref.csv", f"{name}.csv", [])
    both("edge/radius-n", "wave-200-ref.csv", "wave-200-target.csv", ["--smooth-radius", "200"])
    ref, target = "inputs/wave-200-ref.csv", "inputs/wave-200-target.csv"
    transfer = ["transfer", "--ref", ref, "--target", target]
    analyze = ["analyze", "--input", target, "--report", "out/{i}.json"]
    add("edge/missing-out-dir", [*transfer, "--out", "missing/{i}.csv"])
    add("edge/report-is-dir", [*transfer, "--out", "out/{i}.csv", "--report", "out"])
    add("edge/report-is-out", [*transfer, "--out", "out/{i}.csv", "--report", "out/{i}.csv"])
    add("edge/max-order-50", [*analyze, "--max-order", "50"])
    add("edge/radius-5000", [*analyze, "--smooth-radius", "5000"])
    add("edge/unknown-channel", [*analyze, "--channels", "zz"])
    add("edge/empty-channels", [*analyze, "--channels", ","])
    add("edge/missing-input", ["analyze", "--input", "inputs/none.csv", "--report", "out/{i}.json"])

    files.update(_precedence_tables())
    for order in PRECEDENCE_ORDERS:
        table = f"prec-{'-'.join(order)}.csv"
        for flag_name, flags in (("default", []), ("radius-n", ["--smooth-radius", "240"])):
            both(f"precedence/{'-'.join(order)}/{flag_name}", table, table, flags)
    for flag_name, flags in (("default", []), ("channels", ["--channels", "a,b"])):
        both(f"precedence/reference-first/{flag_name}", "prec-abc-ref.csv", "prec-abc-target.csv", flags)
    for ref, target in (("wave", "flat"), ("flat", "wave")):
        both(f"precedence/{ref}-onto-{target}", f"prec-s-{ref}.csv", f"prec-s-{target}.csv", [])

    files.update(_curve_tables())
    for label in ("convex", "concave"):
        for flag_name, flags in (("default", []), ("exponential", ["--smooth-kind", "exponential"])):
            both(f"curve64/{label}/{flag_name}", "sine64.csv", f"curve64-{label}.csv", flags)

    def synth(name, n, slope, *extra):
        add(f"synth/{name}", ["synth", "--n", n, "--period", "16", "--trend-slope", slope, "--amplitude", "1.5",
                              "--noise-sigma", "0.2", "--seed", "7", "--out", "out/{i}.csv", *extra])

    synth("truth-out", "200", "0.01", "--truth-out", "out/{i}-truth.csv")
    synth("no-truth", "200", "0.01")
    synth("short", "31", "0.01")
    synth("overflow", "200", "1e307")
    return out, files


def run_cases(case_file: str) -> None:
    """Run the cases listed in ``case_file`` with the cycletransfer found on
    sys.path, in the current directory, and write what each returned to
    ``results.json`` there. Every warning is shown, each time it is
    raised, so that a tree's stderr does not depend on the cases before."""
    import cycletransfer
    from cycletransfer.cli import cli_main

    results = {"package": cycletransfer.__file__, "cases": []}
    warnings.simplefilter("always")
    for name, argv in json.loads(Path(case_file).read_text(encoding="utf-8")):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli_main(argv)
            except Exception:  # a crash is an outcome to compare, not the harness's failure
                code = "raised: " + traceback.format_exc().splitlines()[-1]
        results["cases"].append({"name": name, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    Path("results.json").write_text(json.dumps(results), encoding="utf-8")


def _extract(rev: str, dest: Path) -> Path:
    """The ``src`` directory of revision ``rev``, extracted under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=False)
    if archive.returncode != 0:
        sys.exit(f"git archive {rev} failed: {archive.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest / "src"


def _run_tree(src: Path, work: Path, inputs: Path, case_file: Path) -> dict:
    work.mkdir()
    (work / "out").mkdir()
    os.symlink(inputs, work / "inputs")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run-cases", str(case_file)],
                          cwd=work, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"the case runner failed on {src}:\n{proc.stderr}")
    results = json.loads((work / "results.json").read_text(encoding="utf-8"))
    if not Path(results["package"]).resolve().is_relative_to(src.resolve()):
        sys.exit(f"the case runner imported {results['package']}, not the package under {src}")
    return results


def _first_difference(a: bytes, b: bytes) -> str:
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"{len(a)} vs {len(b)} bytes, first difference at byte {at}: {a[at:at + 40]!r} vs {b[at:at + 40]!r}"


def float_differences(base: bytes, head: bytes) -> list[str]:
    """One line per float field that differs between two reports: the
    largest per-element difference over the channels where both reports
    hold the field with one shape, absolute, relative to the field's
    largest magnitude in either report and relative to the larger
    magnitude of its own element, and how many channels hold it in one
    report only or in two shapes. Nothing for bytes that are not both
    reports."""
    try:
        reports = json.loads(base), json.loads(head)
    except ValueError:
        return []
    if not all(isinstance(report, dict) for report in reports):
        return []
    a, b = reports
    lines = []
    for field in FLOAT_FIELDS:
        left, right, unmatched = [], [], 0
        for name in sorted(a.keys() & b.keys()):
            x, y = (np.ravel(np.asarray(entry.get(field), dtype=float)) for entry in (a[name], b[name]))
            if x.shape != y.shape or (np.isnan(x) != np.isnan(y)).any():
                unmatched += 1
            else:
                left.append(x)
                right.append(y)
        x, y = np.concatenate([np.zeros(0), *left]), np.concatenate([np.zeros(0), *right])
        both = ~(np.isnan(x) & np.isnan(y))  # a null in both reports is no difference
        difference, magnitude = np.abs(x - y)[both], np.maximum(np.abs(x), np.abs(y))[both]
        largest = float(difference.max(initial=0.0))
        scale = float(magnitude.max(initial=0.0))
        nonzero = magnitude > 0  # two zeros are no difference
        own = float((difference[nonzero] / magnitude[nonzero]).max(initial=0.0))
        if largest > 0 or unmatched:
            relative = f"{largest / scale:.3g}" if scale else "-"
            lines.append(f"{field}: largest difference {largest:.3g} absolute, {relative} of the field's largest "
                         f"magnitude {scale:.3g}, {own:.3g} of its own element; "
                         f"{unmatched} channels held in one report only or in two shapes")
    return lines


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def compare(base: dict, head: dict, base_work: Path, head_work: Path, argvs) -> list[str]:
    """One line per field that differs between two trees' results."""
    mismatches = []
    for (name, argv), a, b in zip(argvs, base["cases"], head["cases"]):
        for field in ("exit", "stdout", "stderr"):
            if a[field] != b[field]:
                mismatches.append(f"{name}: {field} {a[field]!r} vs {b[field]!r}")
        written = ("--out", "--report", "--truth-out")
        outputs = dict.fromkeys(argv[i + 1] for i, arg in enumerate(argv) if arg in written)
        for output in outputs:
            left, right = _read(base_work / output), _read(head_work / output)
            if left != right:
                if left is not None and right is not None:
                    detail = "\n    ".join([_first_difference(left, right), *float_differences(left, right)])
                else:
                    detail = f"written {left is not None} vs {right is not None}"
                mismatches.append(f"{name}: {output} differs, {detail}")
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("head", nargs="?", default=None, help="git revision; the working tree when left out")
    parser.add_argument("--match", default="", help="run only the cases whose name contains this text")
    args = parser.parse_args(argv)
    all_cases, files = cases()
    selected = [(name, case_argv) for name, case_argv in all_cases if args.match in name]
    if not selected:
        sys.exit(f"no case name contains {args.match!r}")
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        needed = {arg[len("inputs/"):] for _, case_argv in selected for arg in case_argv if arg.startswith("inputs/")}
        for file_name in sorted(needed & files.keys()):
            (inputs / file_name).write_bytes(files[file_name]())
        case_file = tmp / "cases.json"
        case_file.write_text(json.dumps(selected), encoding="utf-8")
        base_src = _extract(args.base, tmp / "base-tree")
        head_src = ROOT / "src" if args.head is None else _extract(args.head, tmp / "head-tree")
        base = _run_tree(base_src, tmp / "base", inputs, case_file)
        head = _run_tree(head_src, tmp / "head", inputs, case_file)
        mismatches = compare(base, head, tmp / "base", tmp / "head", selected)
    label = args.head or "the working tree"
    for line in mismatches:
        print(line)
    print(f"{len(selected)} cases, {len(mismatches)} mismatches between {args.base} and {label}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-cases"]:
        run_cases(sys.argv[2])
    else:
        sys.exit(main())
