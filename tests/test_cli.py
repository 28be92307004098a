import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cycletransfer.cli import _config_from_args, build_parser, cli_main, main
from cycletransfer.config import MAX_TREND_ORDER, RunConfig
from cycletransfer.tableio import PoseTable, read_csv, write_csv

DATA = Path(__file__).resolve().parent / "data"


def run_synth(tmp_path, name, n, period, slope, sigma, seed, truth=None):
    out = tmp_path / name
    argv = [
        "synth",
        "--n", str(n),
        "--period", str(period),
        "--trend-slope", str(slope),
        "--amplitude", "1.0",
        "--noise-sigma", str(sigma),
        "--seed", str(seed),
        "--out", str(out),
    ]
    if truth is not None:
        argv += ["--truth-out", str(tmp_path / truth)]
    assert cli_main(argv) == 0
    return out


def test_synth_writes_deterministic_csv(tmp_path):
    a = run_synth(tmp_path, "a.csv", 96, 16, 0.01, 0.2, 7)
    b = run_synth(tmp_path, "b.csv", 96, 16, 0.01, 0.2, 7)
    assert a.read_text() == b.read_text()
    table = read_csv(a)
    assert table.channel_names == ["synth"]
    assert table.n_frames == 96


def test_synth_truth_companion(tmp_path):
    run_synth(tmp_path, "noisy.csv", 96, 16, 0.01, 0.2, 7, truth="truth.csv")
    truth = read_csv(tmp_path / "truth.csv")
    t = np.arange(96, dtype=float)
    expected = 0.01 * t + np.sin(2.0 * np.pi * t / 16.0)
    np.testing.assert_allclose(truth.channel("synth"), expected, atol=1e-8)


def test_transfer_smoke(tmp_path, capsys):
    ref = run_synth(tmp_path, "hr.csv", 80, 16, 0.0, 0.0, 0)
    tgt = run_synth(tmp_path, "lr.csv", 200, 16, 0.01, 0.2, 3)
    out = tmp_path / "refined.csv"
    report = tmp_path / "report.json"
    code = cli_main(
        ["transfer", "--ref", str(ref), "--target", str(tgt),
         "--out", str(out), "--report", str(report)]
    )
    assert code == 0
    refined = read_csv(out)
    assert refined.n_frames == 200
    data = json.loads(report.read_text())
    assert data["synth"]["status"] == "transferred"
    assert "synth" in capsys.readouterr().err


def test_transfer_missing_target_is_usage_error(tmp_path, capsys):
    ref = run_synth(tmp_path, "hr.csv", 80, 16, 0.0, 0.0, 0)
    code = cli_main(["transfer", "--ref", str(ref), "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_transfer_bad_cell_is_data_error(tmp_path, capsys):
    ref = run_synth(tmp_path, "hr.csv", 80, 16, 0.0, 0.0, 0)
    bad = tmp_path / "bad.csv"
    bad.write_text("frame,synth\n0,1.0\n1,abc\n")
    code = cli_main(
        ["transfer", "--ref", str(ref), "--target", str(bad), "--out", str(tmp_path / "o.csv")]
    )
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_transfer_missing_file_is_data_error(tmp_path, capsys):
    code = cli_main(
        ["transfer", "--ref", str(tmp_path / "none.csv"),
         "--target", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o.csv")]
    )
    assert code == 2
    capsys.readouterr()


def test_output_in_a_missing_directory_names_the_output(tmp_path, capsys):
    ref = run_synth(tmp_path, "hr.csv", 80, 16, 0.0, 0.0, 0)
    tgt = run_synth(tmp_path, "lr.csv", 200, 16, 0.01, 0.2, 3)
    out = tmp_path / "nodir" / "o.csv"
    code = cli_main(["transfer", "--ref", str(ref), "--target", str(tgt), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hr.csv", "lr.csv"]


def test_report_over_a_directory_names_the_report(tmp_path, capsys):
    tgt = run_synth(tmp_path, "lr.csv", 200, 16, 0.01, 0.2, 3)
    report = tmp_path / "reports"
    report.mkdir()
    code = cli_main(["analyze", "--input", str(tgt), "--report", str(report)])
    assert code == 2
    assert capsys.readouterr().err.endswith(f"error: [Errno 21] Is a directory: {str(report)!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lr.csv", "reports"]
    assert list(report.iterdir()) == []


@pytest.mark.parametrize("command", ["transfer", "analyze"])
@pytest.mark.parametrize("body", ["", "0,1.5\n"], ids=["header_only", "one_row"])
def test_too_short_csv_is_data_error(tmp_path, capsys, command, body):
    short = tmp_path / "short.csv"
    short.write_text("frame,synth\n" + body)
    if command == "transfer":
        ref = run_synth(tmp_path, "hr.csv", 80, 16, 0.0, 0.0, 0)
        argv = ["transfer", "--ref", str(ref), "--target", str(short), "--out", str(tmp_path / "o.csv")]
    else:
        argv = ["analyze", "--input", str(short), "--report", str(tmp_path / "r.json")]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "channel 'synth'" in err
    assert "usage error" not in err


def test_analyze_reports_period_exactly(tmp_path):
    src = run_synth(tmp_path, "clean.csv", 160, 16, 0.02, 0.0, 0)
    report = tmp_path / "report.json"
    assert cli_main(["analyze", "--input", str(src), "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["synth"]["reference_period"] == 16.0
    assert data["synth"]["dominant_frequency"] == 10


def test_analyze_respects_channel_filter(tmp_path, capsys):
    src = run_synth(tmp_path, "clean.csv", 160, 16, 0.0, 0.0, 0)
    report = tmp_path / "report.json"
    code = cli_main(
        ["analyze", "--input", str(src), "--report", str(report), "--channels", "synth"]
    )
    assert code == 0
    capsys.readouterr()
    code = cli_main(
        ["analyze", "--input", str(src), "--report", str(report), "--channels", "ghost"]
    )
    assert code == 2
    assert "ghost" in capsys.readouterr().err


def test_analyze_stderr_names_each_skip_reason(tmp_path, capsys):
    t = np.arange(120, dtype=float)
    rng = np.random.Generator(np.random.PCG64(6))
    values = np.column_stack([np.sin(2.0 * np.pi * t / 16.0), rng.standard_normal(120), np.full(120, 2.0)])
    src = tmp_path / "in.csv"
    write_csv(PoseTable(["wave", "noise", "still"], values), src)
    assert cli_main(["analyze", "--input", str(src), "--report", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "channel 'wave': passthrough",
        "channel 'noise': skipped_no_seasonality "
        "(no significant cycle: Fisher's g = 0.105, p = 0.0959 > 0.01)",
        "channel 'still': skipped_no_seasonality (series range is at most 4 float64 spacings, so the series is constant)",
    ]


@pytest.mark.parametrize("flags", [[], ["--smooth-radius", "120"]], ids=["default", "radius_at_n"])
def test_analyze_outputs_are_pinned(tmp_path, capsys, flags):
    # data/analyze_input.csv holds 120 frames of a periodic, a white-noise,
    # a constant and a plain-ramp channel. The stderr files and the report
    # are what analyze wrote for it (numpy 2.4.6, x86-64). A radius of n
    # fails the periodic channel, the first one that reaches the check.
    report = tmp_path / "report.json"
    code = cli_main(["analyze", "--input", str(DATA / "analyze_input.csv"), "--report", str(report)] + flags)
    tag = "_radius" if flags else ""
    assert capsys.readouterr().err == (DATA / f"analyze{tag}_stderr.txt").read_text()
    assert code == (2 if flags else 0)
    if not flags:
        assert report.read_bytes() == (DATA / "analyze_report.json").read_bytes()
    else:
        assert not report.exists()


def test_empty_channel_list_is_usage_error(tmp_path, capsys):
    code = cli_main(
        ["analyze", "--input", str(tmp_path / "none.csv"), "--report", str(tmp_path / "r.json"),
         "--channels", ","]
    )
    assert code == 1
    assert capsys.readouterr().err == "usage error: --channels got an empty list\n"


@pytest.mark.parametrize("entry", ["main", "python -m"])
def test_entry_points_exit_with_cli_main_code(tmp_path, monkeypatch, capsys, entry):
    # A missing input file is a data error: exit code 2.
    argv = ["analyze", "--input", str(tmp_path / "none.csv"), "--report", str(tmp_path / "r.json")]
    monkeypatch.setattr(sys, "argv", ["cycletransfer", *argv])
    with pytest.raises(SystemExit) as info:
        if entry == "main":
            main()
        else:
            runpy.run_module("cycletransfer", run_name="__main__")
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "transfer" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 1
    capsys.readouterr()


def test_invalid_alpha_is_usage_error(tmp_path, capsys):
    src = run_synth(tmp_path, "clean.csv", 80, 16, 0.0, 0.0, 0)
    code = cli_main(
        ["analyze", "--input", str(src), "--report", str(tmp_path / "r.json"), "--alpha", "2.0"]
    )
    assert code == 1
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["mean", "exponential"])
def test_smooth_kind_flag(tmp_path, kind):
    ref = run_synth(tmp_path, "hr.csv", 80, 16, 0.0, 0.0, 0)
    tgt = run_synth(tmp_path, "lr.csv", 200, 16, 0.01, 0.15, 12)
    out = tmp_path / f"refined_{kind}.csv"
    code = cli_main(
        ["transfer", "--ref", str(ref), "--target", str(tgt),
         "--out", str(out), "--smooth-kind", kind]
    )
    assert code == 0
    assert out.exists()


def test_exponential_zero_radius_rejected_before_reading(tmp_path, capsys):
    # --ref names no file: exit 1 shows the config is checked before any
    # file is opened (a missing file exits 2).
    missing = str(tmp_path / "none.csv")
    code = cli_main(
        ["transfer", "--ref", missing, "--target", missing, "--out", str(tmp_path / "o.csv"),
         "--smooth-kind", "exponential", "--smooth-radius", "0"]
    )
    assert code == 1
    assert "smooth_radius must be >= 1 for exponential smoothing" in capsys.readouterr().err


SYNTH_FLAGS = {
    "--n": "80", "--period": "16", "--trend-slope": "0", "--amplitude": "1",
    "--noise-sigma": "0", "--seed": "0",
}


@pytest.mark.parametrize(
    "case, code, fragment",
    [
        (b"frame,synth\n0,1.0\n1,\xff\n", 2, "line 3: not UTF-8 text"),
        (b"frame,synth\n0,1.0\n1," + b"1" * 200_000 + b"\n", 2, "line 3: field larger than field limit"),
        (("--period", "2"), 1, "period must be >= 4"),
        (("--noise-sigma", "-1"), 1, "noise_sigma must be >= 0"),
        (("--trend-slope", "nan"), 1, "trend_slope must be finite"),
        (("--seed", "-1"), 1, "seed must be >= 0"),
        (("--n", str(10**20)), 1, "n must be <="),
        (("--trend-slope", "1e308"), 1, "trend_slope, amplitude, noise_sigma and n give values that overflow"),
    ],
    ids=["non_utf8", "long_field", "period", "noise_sigma", "trend_slope", "seed", "huge_n", "overflow"],
)
def test_exit_code_follows_error_family(tmp_path, capsys, case, code, fragment):
    if isinstance(case, bytes):
        path = tmp_path / "in.csv"
        path.write_bytes(case)
        argv = ["analyze", "--input", str(path), "--report", str(tmp_path / "r.json")]
    else:
        flags = dict(SYNTH_FLAGS, **dict([case]))
        argv = ["synth", *(x for kv in flags.items() for x in kv), "--out", str(tmp_path / "o.csv")]
    assert cli_main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("usage error: " if code == 1 else "error: ")
    assert fragment in err


@pytest.mark.parametrize(
    "command, flag, other",
    [
        ("transfer", "--report", "--out"),
        ("transfer", "--out", "--target"),
        ("analyze", "--report", "--input"),
        ("synth", "--truth-out", "--out"),
    ],
    ids=["transfer_report_is_out", "transfer_out_is_target", "analyze_report_is_input", "synth_truth_is_out"],
)
def test_output_naming_another_file_flag_is_usage_error(tmp_path, capsys, command, flag, other):
    # Each flag's file, the aliased output spelled another way; nothing is
    # read or written, so every file in tmp_path keeps its bytes.
    ref = run_synth(tmp_path, "hr.csv", 80, 16, 0.0, 0.0, 0)
    tgt = run_synth(tmp_path, "lr.csv", 200, 16, 0.01, 0.2, 3)
    paths = {"--ref": ref, "--target": tgt, "--input": tgt, "--out": tmp_path / "o.csv",
             "--report": tmp_path / "r.json", "--truth-out": tmp_path / "t.csv"}
    paths = {key: str(path) for key, path in paths.items()}
    paths[flag] = os.path.join(str(tmp_path), ".", os.path.basename(paths[other]))
    flags = {"transfer": ["--ref", "--target", "--out", "--report"], "analyze": ["--input", "--report"],
             "synth": ["--out", "--truth-out", *SYNTH_FLAGS]}[command]
    argv = [command, *(x for key in flags for x in (key, SYNTH_FLAGS.get(key) or paths[key]))]
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {flag} names the same file as {other}: {paths[flag]}\n"
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_max_order_cap_rejected_before_reading(tmp_path, capsys):
    # --input names no file: exit 1 shows the config is checked before any
    # file is opened (a missing file exits 2).
    code = cli_main(
        ["analyze", "--input", str(tmp_path / "none.csv"), "--report", str(tmp_path / "r.json"),
         "--max-order", str(MAX_TREND_ORDER + 1)]
    )
    assert code == 1
    assert capsys.readouterr().err == f"usage error: max_order must be <= {MAX_TREND_ORDER}, got 51\n"


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--input", "in.csv", "--report", "r.json"],
     ["transfer", "--ref", "a.csv", "--target", "b.csv", "--out", "o.csv"]],
    ids=["analyze", "transfer"],
)
def test_tuning_flag_defaults_are_run_config_defaults(argv):
    assert _config_from_args(build_parser().parse_args(argv)) == RunConfig()


def periodic_tables(seed, n_ref, n_tgt, channels):
    """A reference and a target table of periodic channels: a cycle with a
    second harmonic, a slow drift and noise, as recordings of one motion."""
    rng = np.random.default_rng(seed)
    ref, tgt = [], []
    for _ in range(channels):
        period, amplitude, harmonic = rng.uniform(12.0, 40.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.3)
        for cols, n, noise in ((ref, n_ref, 0.05), (tgt, n_tgt, 0.3)):
            t = np.arange(n, dtype=float)
            w = 2.0 * np.pi * t / period + rng.uniform(0.0, 2.0 * np.pi)
            drift = rng.uniform(-0.5, 0.5) * t / (n - 1)
            cols.append(amplitude * (np.sin(w) + harmonic * np.sin(2.0 * w) + drift + noise * rng.standard_normal(n)))
    names = [f"c{i}" for i in range(channels)]
    return PoseTable(names, np.column_stack(ref)), PoseTable(names, np.column_stack(tgt))


def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # At 40k frames and --max-order 12 a LAPACK least-squares trend fit
    # would run on OpenBLAS's threads and change with their number.
    ref, tgt = periodic_tables(0, 4_000, 40_000, 2)
    write_csv(ref, tmp_path / "ref.csv")
    write_csv(tgt, tmp_path / "tgt.csv")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        out, report = tmp_path / f"out{threads}.csv", tmp_path / f"report{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["transfer", "--ref", str(tmp_path / "ref.csv"), "--target", str(tmp_path / "tgt.csv"),
                "--out", str(out), "--report", str(report), "--max-order", "12"]
        done = subprocess.run([sys.executable, "-m", "cycletransfer", *argv], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr
        outputs.append((out.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]
