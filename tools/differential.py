"""Compare the CLI output of two revisions of the package, case by case.

Usage, from anywhere inside the repository:

    python3 tools/differential.py BASE [HEAD] [--match TEXT]

BASE and HEAD are git revisions; HEAD defaults to the working tree. Each
revision's ``src/`` is extracted with ``git archive`` into a temporary
directory, so the checkout and its worktree list are left alone. One
fixed list of cases runs through ``cycletransfer.cli.cli_main`` in one
fresh process per tree, on input files written once and shared by both.
For every case the exit code, stdout, stderr, output CSV bytes and report
bytes are compared; each mismatch is printed, and the exit status is 1 if
there is any, 0 if there is none. ``--match`` keeps only the cases whose
name contains TEXT.

The cases are ``transfer`` and ``analyze`` on the seed-3 tables of the
three benchmark workloads (bench/workloads.py, imported read-only) under
six flag sets; both commands on small wave, noise, constant, ramp, curve,
triangle and mixed tables of 2 to 200 frames under four flag sets and a
``--channels`` subset; and a few edge cases: values near float64's limit
and near its smallest normal scale, BOM, CRLF and quoted-header files,
malformed cells, a missing output directory and a report path that is a
directory.
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

WORKLOAD_SEED = 3
WORKLOAD_FLAGS = {
    "default": [],
    "max-order-1": ["--max-order", "1"],
    "exponential": ["--smooth-kind", "exponential"],
    "radius-3": ["--smooth-radius", "3"],
    "radius-0": ["--smooth-radius", "0"],
    "alpha-0.6": ["--alpha", "0.6"],
}
SMALL_FLAGS = {name: WORKLOAD_FLAGS[name] for name in ("default", "max-order-1", "exponential", "radius-3")}
SMALL_KINDS = ("wave", "noise", "constant", "ramp", "curve", "triangle")
SMALL_SIZES = (2, 5, 8, 17, 65, 200)


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
def _workload_pair(workload: str) -> workloads.Inputs:
    return workloads.generate(workload, WORKLOAD_SEED)[0]


def _edge_tables() -> dict:
    """Input files of the edge cases, as {file name: bytes maker}, built
    from the 200-frame two-channel wave tables: channel b scaled near
    float64's limit on both sides (the transfer overflows) or beyond it
    (the range overflows), or scaled apart from channel a, and the
    target's text changed."""
    names, wave = _small_table(["wave"], 200, 2)
    ref = _small_table(["wave"], 200, 1)[1]
    with_nan = wave.copy()
    with_nan[3, 0] = np.nan
    plain = functools.partial(_table_bytes, names, wave)

    def scaled(values, scales):
        return functools.partial(_table_bytes, names, values / np.abs(values).max(axis=0) * scales)

    return {
        "huge-ref.csv": scaled(ref, [1.0, 0.7e308]),
        "huge.csv": scaled(wave, [1.0, 0.7e308]),
        "range.csv": scaled(wave, [1.0, 1.5e308]),
        "scaled.csv": scaled(wave, [1e-300, 1e150]),
        "bom-crlf.csv": lambda: b"\xef\xbb\xbf" + plain().replace(b"\n", b"\r\n"),
        "quoted.csv": lambda: plain().replace(b"frame,a,b", b'"frame","a","b"', 1),
        "nan-cell.csv": functools.partial(_table_bytes, names, with_nan),
        "bad-frame.csv": lambda: plain().replace(b"\n5,", b"\nfive,", 1),
    }


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

    for workload, shape in workloads.SHAPES.items():
        ref, target = f"{workload}-ref.csv", f"{workload}-target.csv"
        files[ref] = lambda w=workload: _table_bytes(_workload_pair(w).names, _workload_pair(w).ref)
        files[target] = lambda w=workload: _table_bytes(_workload_pair(w).names, _workload_pair(w).target)
        for flag_name, flags in WORKLOAD_FLAGS.items():
            both(f"{workload}/{flag_name}", ref, target, flags)
        if shape.selected is not None:
            both(f"{workload}/channels", ref, target, ["--channels", ",".join(_workload_pair(workload).selections[0])])

    for n in SMALL_SIZES:
        for kind in (*SMALL_KINDS, "mixed"):
            kinds = list(SMALL_KINDS) if kind == "mixed" else [kind]
            ref, target = f"{kind}-{n}-ref.csv", f"{kind}-{n}-target.csv"
            files[ref] = lambda kinds=kinds, n=n: _table_bytes(*_small_table(kinds, n, 1))
            files[target] = lambda kinds=kinds, n=n: _table_bytes(*_small_table(kinds, n, 2))
            for flag_name, flags in SMALL_FLAGS.items():
                both(f"{kind}-n{n}/{flag_name}", ref, target, flags)
            both(f"{kind}-n{n}/channels", ref, target, ["--channels", "wave,noise" if kind == "mixed" else "a"])

    files.update(_edge_tables())
    for name in ("huge", "range", "scaled", "bom-crlf", "quoted", "nan-cell", "bad-frame"):
        both(f"edge/{name}", "huge-ref.csv" if name == "huge" else "wave-200-ref.csv", f"{name}.csv", [])
    ref, target = "inputs/wave-200-ref.csv", "inputs/wave-200-target.csv"
    transfer = ["transfer", "--ref", ref, "--target", target]
    analyze = ["analyze", "--input", target, "--report", "out/{i}.json"]
    add("edge/missing-out-dir", [*transfer, "--out", "missing/{i}.csv"])
    add("edge/report-is-dir", [*transfer, "--out", "out/{i}.csv", "--report", "out"])
    add("edge/max-order-50", [*analyze, "--max-order", "50"])
    add("edge/radius-5000", [*analyze, "--smooth-radius", "5000"])
    add("edge/unknown-channel", [*analyze, "--channels", "zz"])
    add("edge/empty-channels", [*analyze, "--channels", ","])
    add("edge/missing-input", ["analyze", "--input", "inputs/none.csv", "--report", "out/{i}.json"])
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


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def compare(base: dict, head: dict, base_work: Path, head_work: Path, argvs) -> list[str]:
    """One line per field that differs between two trees' results."""
    mismatches = []
    for (name, argv), a, b in zip(argvs, base["cases"], head["cases"]):
        for field in ("exit", "stdout", "stderr"):
            if a[field] != b[field]:
                mismatches.append(f"{name}: {field} {a[field]!r} vs {b[field]!r}")
        outputs = [argv[i + 1] for i, arg in enumerate(argv) if arg in ("--out", "--report")]
        for output in outputs:
            left, right = _read(base_work / output), _read(head_work / output)
            if left != right:
                detail = _first_difference(left, right) if left is not None and right is not None else (
                    f"written {left is not None} vs {right is not None}")
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
