import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycletransfer.config import RunConfig
from cycletransfer.errors import DataError, UsageError
from cycletransfer.tableio import (
    PoseTable,
    SynthSpec,
    read_csv,
    synth_generate,
    write_csv,
    write_report,
)
from cycletransfer.transfer import analyze_table, transfer_table


def test_pose_table_validation():
    with pytest.raises(ValueError):
        PoseTable(["a"], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PoseTable(["a"], np.zeros(3))
    with pytest.raises(DataError, match="duplicate channel name 'a'"):
        PoseTable(["a", "a"], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PoseTable([" "], np.zeros((3, 1)))
    with pytest.raises(ValueError):
        PoseTable(["a"], np.array([[np.nan]]))


def test_pose_table_channel_access():
    table = PoseTable(["x", "y"], np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(table.channel("y"), [2.0, 4.0])
    with pytest.raises(KeyError):
        table.channel("z")


def test_read_csv_basic(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("frame,theta_1_1\n0,0.5\n1,0.75\n")
    table = read_csv(path)
    assert table.channel_names == ["theta_1_1"]
    assert table.n_frames == 2
    np.testing.assert_array_equal(table.channel("theta_1_1"), [0.5, 0.75])


def test_read_csv_non_consecutive_frames(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("frame,a\n0,1.0\n2,2.0\n")
    with pytest.raises(DataError, match="line 3: frame 2, expected 1"):
        read_csv(path)


def test_read_csv_non_numeric_cell_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("frame,a\n0,1.0\n1,abc\n")
    with pytest.raises(DataError, match="line 3: .* is not a number"):
        read_csv(path)


def test_read_csv_header_errors(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(DataError, match="file is empty"):
        read_csv(path)
    path.write_text("a,b\n")
    with pytest.raises(DataError, match="line 1: header must start with 'frame'"):
        read_csv(path)
    path.write_text("frame,a,a\n")
    with pytest.raises(DataError, match="line 1: duplicate channel 'a'"):
        read_csv(path)


def test_read_csv_ragged_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("frame,a,b\n0,1.0\n")
    with pytest.raises(DataError, match="line 2: expected 3 cells, got 2"):
        read_csv(path)


def test_read_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("frame,a\n0,inf\n")
    with pytest.raises(DataError, match="value 'inf' is not finite"):
        read_csv(path)


def test_write_csv_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(17))
    table = PoseTable(["a", "b", "c"], rng.uniform(-10.0, 10.0, size=(25, 3)))
    path = tmp_path / "t.csv"
    write_csv(table, path)
    back = read_csv(path)
    assert back.channel_names == table.channel_names
    np.testing.assert_allclose(back.values, table.values, atol=1e-8)


def test_write_csv_no_channels(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(PoseTable([], np.empty((3, 0))), path)
    assert path.read_text() == "frame\n0\n1\n2\n"
    back = read_csv(path)
    assert back.channel_names == []
    assert back.n_frames == 3


def test_write_csv_single_frame(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(PoseTable(["a"], np.array([[1.25]])), path)
    assert path.read_text() == "frame,a\n0,1.25\n"


def test_write_report_schema(tmp_path):
    rng = np.random.Generator(np.random.PCG64(6))
    values = np.column_stack(
        [np.sin(2.0 * np.pi * 5.0 * np.arange(80) / 80.0), rng.standard_normal(80)]
    )
    table = PoseTable(["wave", "noise"], values)
    diags = analyze_table(table, RunConfig(channel_filter=["wave", "noise"]))
    path = tmp_path / "report.json"
    write_report(diags, path)
    data = json.loads(path.read_text())
    assert list(data) == ["wave", "noise"]
    wave = data["wave"]
    assert wave["dominant_frequency"] == 5
    assert wave["reference_period"] == 16.0
    assert isinstance(wave["acf"], list)
    assert isinstance(wave["spectrum"], list)
    assert data["noise"]["status"] == "skipped_no_seasonality"
    expected_keys = [
        "dominant_frequency",
        "reference_period",
        "acf",
        "spectrum",
        "trend_order",
        "period_starts",
        "l_min",
        "mean_factor",
        "status",
    ]
    for entry in data.values():
        assert list(entry) == expected_keys


def test_write_report_filtered_channel(tmp_path):
    table = PoseTable(
        ["a", "b"],
        np.column_stack([np.sin(2.0 * np.pi * np.arange(80) / 16.0)] * 2),
    )
    diags = analyze_table(table, RunConfig(channel_filter=["a"]))
    path = tmp_path / "report.json"
    write_report(diags, path)
    data = json.loads(path.read_text())
    assert data["b"]["status"] == "passthrough"
    assert data["b"]["dominant_frequency"] is None
    assert data["b"]["acf"] is None


def test_write_report_transfer_includes_factor(tmp_path):
    rng = np.random.Generator(np.random.PCG64(12))
    t = np.arange(200, dtype=float)
    ref = np.sin(2.0 * np.pi * (np.arange(80) + 0.5) / 16.0)
    tgt = 0.01 * t + np.sin(2.0 * np.pi * (t + 0.5) / 16.0) + 0.2 * rng.standard_normal(200)
    _, diags = transfer_table(
        PoseTable(["m"], ref.reshape(-1, 1)), PoseTable(["m"], tgt.reshape(-1, 1))
    )
    path = tmp_path / "report.json"
    write_report(diags, path)
    data = json.loads(path.read_text())
    entry = data["m"]
    assert entry["status"] == "transferred"
    assert entry["l_min"] >= 1
    assert len(entry["mean_factor"]) == entry["l_min"]
    assert entry["period_starts"] == sorted(entry["period_starts"])


def test_synth_deterministic():
    spec = SynthSpec(n=96, period=12, trend_slope=0.05, amplitude=2.0, noise_sigma=0.3, seed=5)
    a = synth_generate(spec)
    b = synth_generate(spec)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.channel_names == ["synth"]


def test_synth_noise_free_matches_formula():
    spec = SynthSpec(n=64, period=16, trend_slope=0.0, amplitude=1.0, noise_sigma=0.0, seed=9)
    t = np.arange(64, dtype=float)
    expected = np.sin(2.0 * np.pi * t / 16.0)
    np.testing.assert_allclose(synth_generate(spec).values[:, 0], expected, atol=1e-12)


def test_synth_seed_changes_noise():
    base = dict(n=64, period=16, trend_slope=0.0, amplitude=1.0, noise_sigma=0.5)
    a = synth_generate(SynthSpec(seed=1, **base))
    b = synth_generate(SynthSpec(seed=2, **base))
    assert not np.array_equal(a.values, b.values)


def test_synth_spec_validation():
    with pytest.raises(UsageError, match=r"n must be >= 2\*period"):
        SynthSpec(n=6, period=4, trend_slope=0.0, amplitude=1.0, noise_sigma=0.0, seed=0)
    with pytest.raises(UsageError, match="period must be >= 4"):
        SynthSpec(n=64, period=3, trend_slope=0.0, amplitude=1.0, noise_sigma=0.0, seed=0)
    with pytest.raises(UsageError, match="noise_sigma must be >= 0"):
        SynthSpec(n=64, period=16, trend_slope=0.0, amplitude=1.0, noise_sigma=-0.1, seed=0)
    with pytest.raises(UsageError, match="trend_slope must be finite"):
        SynthSpec(n=64, period=16, trend_slope=np.inf, amplitude=1.0, noise_sigma=0.0, seed=0)
    with pytest.raises(UsageError, match="seed must be >= 0"):
        SynthSpec(n=64, period=16, trend_slope=0.0, amplitude=1.0, noise_sigma=0.0, seed=-1)


VALID_ROWS = [["frame", "a", "b"], ["0", "1.5", "-2"], ["1", "0.25", "3e2"], ["2", "7", "8"]]
# Spliced into or put in place of one cell: a NUL, bytes that are not
# UTF-8, non-ASCII UTF-8, a cell over the csv module's field size limit,
# non-finite values and csv structure characters.
CELL_DAMAGE = [
    b"", b"\x00", b"\xff", b"\xe9", "é".encode(), b"1" * 140_000,
    b"nan", b"-inf", b"1e999", b'"', b",", b"\r", b"\n",
]


@st.composite
def damaged_tables(draw):
    rows = [[cell.encode() for cell in row] for row in VALID_ROWS]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    col = draw(st.integers(0, len(row) - 1))
    action = draw(st.sampled_from(["drop", "replace", "splice"]))
    if action == "drop":
        del row[col]
    else:
        damage = draw(st.sampled_from(CELL_DAMAGE))
        at = 0 if action == "replace" else draw(st.integers(0, len(row[col])))
        row[col] = row[col][:at] + damage + (row[col][at:] if action == "splice" else b"")
    return b"\n".join(b",".join(r) for r in rows) + b"\n"


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=300) | damaged_tables())
def test_read_csv_returns_table_or_data_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data)
    try:
        table = read_csv(path)
    except DataError:
        return
    assert isinstance(table, PoseTable)
    assert np.all(np.isfinite(table.values))
