import json

import numpy as np
import pytest

from cycletransfer.cli import _config_from_args, build_parser, cli_main
from cycletransfer.config import MAX_TREND_ORDER, RunConfig
from cycletransfer.tableio import read_csv


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
    ],
    ids=["non_utf8", "long_field", "period", "noise_sigma", "trend_slope", "seed", "huge_n"],
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
