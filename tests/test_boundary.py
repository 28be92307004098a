"""Outside input is checked where it enters the pipeline.

Each case below is an error that outside input can reach. The text and
the exit code (1 for a UsageError, 2 for a DataError) are pinned in full,
so moving a check between layers cannot change what the user sees.
"""

import numpy as np
import pytest

from cycletransfer.cli import cli_main
from cycletransfer.config import RunConfig
from cycletransfer.errors import CycleTransferError, UsageError
from cycletransfer.transfer import STATUS_SKIPPED, transfer_channel


def _wave(n, period=16):
    return np.sin(2.0 * np.pi * (np.arange(n) + 0.5) / period)


def _analyze(values, *flags):
    def run(tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("frame,c\n" + "".join(f"{i},{v:.9g}\n" for i, v in enumerate(values)))
        code = cli_main(["analyze", "--input", str(path), "--report", str(tmp_path / "r.json"), *flags])
        return code, capsys.readouterr().err

    return run


def _transfer(values):
    def run(tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("frame,c\n" + "".join(f"{i},{v:.9g}\n" for i, v in enumerate(values)))
        report = tmp_path / "r.json"
        code = cli_main(["transfer", "--ref", str(path), "--target", str(path),
                         "--out", str(tmp_path / "o.csv"), "--report", str(report)])
        assert not report.exists()
        return code, capsys.readouterr().err

    return run


def _transfer_channel(reference, target):
    def run(tmp_path, capsys):
        try:
            transfer_channel(reference, target)
        except CycleTransferError as exc:
            return (1 if isinstance(exc, UsageError) else 2), f"error: {exc}\n"
        return 0, ""

    return run


@pytest.mark.parametrize(
    "case, code, text",
    [
        (_analyze([]), 2, "error: channel 'c': series has 0 samples, need at least 2\n"),
        (_analyze([1.5]), 2, "error: channel 'c': series has 1 samples, need at least 2\n"),
        (_analyze([0.0, 1.0, 0.0]), 2, "error: channel 'c': series has 3 samples, need at least 4\n"),
        (
            _analyze(_wave(200), "--smooth-radius", "400"),
            2,
            "error: channel 'c': radius 400 must be below the series length 200\n",
        ),
        (
            _analyze(_wave(200), "--smooth-radius", "400", "--smooth-kind", "exponential"),
            2,
            "error: channel 'c': radius 400 must be below the series length 200\n",
        ),
        (
            # max - min overflows to inf: no NaN-filled report, no skip.
            _transfer(1.5e308 * _wave(200)),
            2,
            "error: channel 'c': series range from min -1.47118e+308 to max 1.47118e+308 overflows float64\n",
        ),
        (
            # A finite range, but trend plus pattern leaves float64.
            _transfer(0.8e308 * _wave(300)),
            2,
            "error: channel 'c': trend plus transferred pattern overflows float64\n",
        ),
        (
            _transfer_channel(np.where(np.arange(80) == 5, np.nan, _wave(80)), _wave(80)),
            2,
            "error: values include NaN or infinity\n",
        ),
        (
            _transfer_channel(np.zeros((80, 2)), _wave(80)),
            2,
            "error: expected a 1-D series, got shape (80, 2)\n",
        ),
        (
            _transfer_channel(_wave(7), _wave(80)),
            2,
            "error: transfer needs at least 8 frames per sequence, got 7 and 80\n",
        ),
        (
            _transfer_channel(0.8e308 * _wave(300), 0.8e308 * _wave(300)),
            2,
            "error: trend plus transferred pattern overflows float64\n",
        ),
    ],
    ids=[
        "analyze_0_frames",
        "analyze_1_frame",
        "analyze_3_frames",
        "mean_radius_400_of_200",
        "exponential_radius_400_of_200",
        "transfer_range_overflow",
        "transfer_output_overflow",
        "transfer_channel_nan",
        "transfer_channel_2d",
        "transfer_channel_7_frames",
        "transfer_channel_output_overflow",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_outside_input_error_is_pinned(tmp_path, capsys, case, code, text):
    assert case(tmp_path, capsys) == (code, text)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_skipped_channel_near_float64_limit_warns_nothing():
    # The trend leaves float64 once it is back in original units; the
    # skipped target passes through and numpy prints no overflow warning.
    x = np.array([0.0] * 7 + [-np.finfo(float).max])
    refined, diag = transfer_channel(x, x)
    assert diag.status == STATUS_SKIPPED
    np.testing.assert_array_equal(refined.values, x)


@pytest.mark.parametrize("kind", ["mean", "exponential"])
def test_float_settings_match_int_settings(kind):
    # Whole-number floats are read as the ints they name.
    rng = np.random.Generator(np.random.PCG64(8))
    noisy = 0.01 * np.arange(200) + _wave(200) + 0.2 * rng.standard_normal(200)
    as_int, _ = transfer_channel(_wave(80), noisy, RunConfig(smooth_radius=2, max_order=30, smooth_kind=kind))
    as_float, _ = transfer_channel(
        _wave(80), noisy, RunConfig(smooth_radius=2.0, max_order=30.0, smooth_kind=kind)
    )
    for field in ("values", "trend", "applied_factor", "transferred"):
        np.testing.assert_array_equal(getattr(as_float, field), getattr(as_int, field))
