import codecs
import csv
import decimal
import io
import json
import os
import re
import stat
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycletransfer import tableio
from cycletransfer.config import RunConfig
from cycletransfer.errors import CycleTransferError, DataError, UsageError
from cycletransfer.series import denormalize
from cycletransfer.tableio import (
    MAX_SYNTH_FRAMES,
    READ_BLOCK_BYTES,
    WRITE_BLOCK_CELLS,
    _ITEM_SEP,
    PoseTable,
    SynthSpec,
    _float_texts,
    _int_words,
    _read_csv_blocks,
    _read_csv_lines,
    _write_text_atomic,
    read_csv,
    synth_generate,
    write_csv,
    write_report,
)
from cycletransfer.transfer import analyze_table, transfer_table
from test_loop_oracles import phi_oracle, two_phase_transfer_oracle

DATA = Path(__file__).resolve().parent / "data"


def test_pose_table_validation():
    with pytest.raises(ValueError):
        PoseTable(["a"], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PoseTable(["a"], np.zeros(3))
    with pytest.raises(DataError, match="duplicate channel name 'a'"):
        PoseTable(["a", "a"], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PoseTable([" "], np.zeros((3, 1)))
    with pytest.raises(UsageError):
        PoseTable(["a\0b"], np.zeros((3, 1)))
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


def test_read_csv_rejects_a_nul_in_a_channel_name(tmp_path):
    # Python 3.10's csv module refuses a NUL with an error of its own, newer
    # ones read it; the name is refused on line 1 either way.
    path = tmp_path / "t.csv"
    path.write_bytes(b"frame,x,a\0b\n0,1,2\n")
    for parse in (read_csv, _read_csv_lines):
        with pytest.raises(DataError, match=r"line 1\b"):
            parse(path)
    assert _read_csv_blocks(path) is None


def test_read_csv_ragged_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("frame,a,b\n0,1.0\n")
    with pytest.raises(DataError, match="line 2: expected 3 cells, got 2"):
        read_csv(path)


@pytest.mark.parametrize("cell", ["inf", "nan", "-Infinity", "1e999"])
def test_read_csv_rejects_non_finite(tmp_path, cell):
    path = tmp_path / "t.csv"
    path.write_text(f"frame,a\n0,1.0\n1,{cell}\n")
    with pytest.raises(DataError, match=re.escape(f"line 3: channel 'a' value {cell!r} is not finite")):
        read_csv(path)


def test_write_csv_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(17))
    table = PoseTable(["a", "b", "c"], rng.uniform(-10.0, 10.0, size=(25, 3)))
    path = tmp_path / "t.csv"
    write_csv(table, path)
    back = read_csv(path)
    assert back.channel_names == table.channel_names
    np.testing.assert_allclose(back.values, table.values, atol=1e-8)


@pytest.mark.parametrize(
    "names, header", [(["a\rb"], b'frame,"a\rb"\n'), (["x", "c\r"], b'frame,x,"c\r"\n')]
)
def test_write_csv_quotes_a_name_with_a_carriage_return(tmp_path, names, header):
    table = PoseTable(names, np.arange(2.0 * len(names)).reshape(2, -1))
    path = tmp_path / "t.csv"
    write_csv(table, path)
    assert path.read_bytes().startswith(header)
    for back in (read_csv(path), _read_csv_blocks(path)):
        assert back.channel_names == names
        np.testing.assert_array_equal(back.values, table.values)


def test_write_csv_no_channels(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(PoseTable([], np.empty((3, 0))), path)
    assert path.read_text() == "frame\n0\n1\n2\n"
    back = read_csv(path)
    assert back.channel_names == []
    assert back.n_frames == 3


def test_write_text_atomic_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old\n")

    def chunks():
        yield b"new\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        _write_text_atomic(path, chunks())
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


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


def _report_pair():
    rng = np.random.Generator(np.random.PCG64(12))
    t = np.arange(200, dtype=float)
    ref = np.sin(2.0 * np.pi * (np.arange(80) + 0.5) / 16.0)
    tgt = 0.01 * t + np.sin(2.0 * np.pi * (t + 0.5) / 16.0) + 0.2 * rng.standard_normal(200)
    return PoseTable(["m"], ref.reshape(-1, 1)), PoseTable(["m"], tgt.reshape(-1, 1))


def _transfer_report(tmp_path):
    out, diags = transfer_table(*_report_pair())
    path = tmp_path / "report.json"
    write_report(diags, path)
    return out, diags, path


def test_write_report_transfer_includes_factor(tmp_path):
    _, _, path = _transfer_report(tmp_path)
    data = json.loads(path.read_text())
    entry = data["m"]
    assert entry["status"] == "transferred"
    assert entry["l_min"] >= 1
    assert len(entry["mean_factor"]) == entry["l_min"]
    assert entry["period_starts"] == sorted(entry["period_starts"])


def test_write_report_bytes_are_pinned(tmp_path):
    # data/report_transfer.json is this report as written when every list
    # was built with per-element float()/int() (numpy 2.4.6, x86-64), so
    # report.json stays byte-compatible.
    _, diags, path = _transfer_report(tmp_path)
    assert path.read_bytes() == (DATA / "report_transfer.json").read_bytes()
    # The same check without numbers that depend on the machine's
    # floating point: the old per-element lists give the same text.
    diag = diags["m"]
    old = json.loads(path.read_text())
    old["m"].update(
        acf=[float(v) for v in diag.target.report.acf],
        spectrum=[float(v) for v in diag.target.report.spectrum],
        period_starts=[int(p) for p in diag.target.segmentation.period_starts],
        mean_factor=[float(v) for v in diag.mean_factor],
    )
    assert path.read_text() == json.dumps(old, indent=2) + "\n"


def refined_by_loops(ref_values, ref, tgt):
    """The refined target of a channel from its two sequences' analyses by
    the loop oracles of test_loop_oracles.py: the per-period interval map,
    a per-interval mean loop and the two-phase fill."""
    l_min = min(b - a for seq in (ref, tgt) for a, b in seq.segmentation.periods)
    residual = ref_values - denormalize(ref.trend.values, ref.scale)
    sums, counts = [0.0] * l_min, [0] * l_min
    for frame, j in zip(*phi_oracle(ref.segmentation.periods, l_min)):
        sums[j - 1] += residual[frame]
        counts[j - 1] += 1
    trend = denormalize(tgt.trend.values, tgt.scale)
    mean_factor = np.array(sums) / np.array(counts)
    values, _, _ = two_phase_transfer_oracle(trend, mean_factor, tgt.segmentation.periods, tgt.segmentation.reference_period)
    return values


def test_refined_csv_bytes_are_pinned(tmp_path):
    # data/refined_transfer.csv is the refined table of the report's pair
    # under the even interval rule: interval j of an L-frame period holds
    # frames ceil(j L / l_min) to ceil((j + 1) L / l_min) - 1. It was
    # regenerated as write_csv of refined_by_loops on the pair's analysis
    # (numpy 2.4.6, x86-64), so the pinned bytes rest on the loop oracles
    # as well as on transfer_table. The target has 16 leading and 8
    # trailing frames outside its periods, so both ends of the extension
    # grid are pinned with the periods.
    ref_table, _ = _report_pair()
    out, diags, _ = _transfer_report(tmp_path)
    ref, tgt = diags["m"].reference, diags["m"].target
    bounds = tgt.segmentation.bounds
    assert bounds[0, 0] == 16 and out.n_frames - bounds[-1, 1] == 8
    pinned = (DATA / "refined_transfer.csv").read_bytes()
    loops = PoseTable(["m"], refined_by_loops(ref_table.channel("m"), ref, tgt)[:, np.newaxis])
    for name, table in (("loops.csv", loops), ("refined.csv", out)):
        write_csv(table, tmp_path / name)
        assert (tmp_path / name).read_bytes() == pinned, name


REPORT_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308]
report_floats = st.sampled_from(REPORT_FLOATS) | st.floats()
report_arrays = st.lists(report_floats, max_size=4).map(lambda v: np.array(v, dtype=float))
# Names json must escape: quote, backslash, control and non-ASCII characters.
report_names = st.sampled_from(['"', "\\", "\x00\x1f\n", "é", "名", "\u2028", "\U0001f600"])
report_names |= st.text(min_size=1)


@st.composite
def report_diagnostics(draw):
    """ChannelDiagnostics look-alikes with every field write_report reads."""
    diagnostics = {}
    for name in draw(st.lists(report_names, max_size=3, unique=True)):
        target = None
        if draw(st.booleans()):
            starts = draw(st.none() | st.lists(st.integers(0, 2**40), max_size=4).map(np.array))
            target = SimpleNamespace(
                report=SimpleNamespace(
                    dominant_frequency=np.int64(draw(st.integers(0, 2**40))),
                    reference_period=np.float64(draw(report_floats)),
                    acf=draw(report_arrays),
                    spectrum=draw(report_arrays),
                ),
                trend=SimpleNamespace(order=draw(st.integers(0, 50))),
                segmentation=None if starts is None else SimpleNamespace(period_starts=starts),
            )
        diagnostics[name] = SimpleNamespace(
            status=draw(st.sampled_from(["transferred", "passthrough"]) | st.text()),
            target=target,
            l_min=draw(st.none() | st.integers(1, 2**40)),
            mean_factor=draw(st.none() | report_arrays),
        )
    return diagnostics


def report_oracle(diagnostics) -> bytes:
    """json.dumps(indent=2) of the same entries, lists built per element."""
    out = {}
    for name, diag in diagnostics.items():
        seq = diag.target
        segmentation = None if seq is None else seq.segmentation
        out[name] = {
            "dominant_frequency": None if seq is None else int(seq.report.dominant_frequency),
            "reference_period": None if seq is None else float(seq.report.reference_period),
            "acf": None if seq is None else [float(v) for v in seq.report.acf],
            "spectrum": None if seq is None else [float(v) for v in seq.report.spectrum],
            "trend_order": None if seq is None else int(seq.trend.order),
            "period_starts": (
                None if segmentation is None else [int(p) for p in segmentation.period_starts]
            ),
            "l_min": diag.l_min,
            "mean_factor": None if diag.mean_factor is None else [float(v) for v in diag.mean_factor],
            "status": diag.status,
        }
    return (json.dumps(out, indent=2) + "\n").encode("utf-8")


def test_write_report_empty_mapping(tmp_path):
    write_report({}, tmp_path / "r.json")
    assert (tmp_path / "r.json").read_bytes() == b"{}\n" == report_oracle({})


@settings(max_examples=300, deadline=None)
@given(diagnostics=report_diagnostics())
def test_write_report_matches_indent_oracle(tmp_path_factory, diagnostics):
    path = tmp_path_factory.getbasetemp() / "report.json"
    write_report(diagnostics, path)
    assert path.read_bytes() == report_oracle(diagnostics)


def test_write_report_matches_oracle_on_a_filtered_table_report(tmp_path):
    # Shaped like the report of a 60-channel table with a few channels
    # selected: 58 passthrough entries, two transferred ones and one
    # skipped one whose target has no segmentation. Names need json's
    # escapes, and every status text repeats but the skipped one.
    rng = np.random.Generator(np.random.PCG64(58))
    names = [f"joint_{j}.x" for j in range(54)] + ['quote"d', "back\\slash", "tab\tline\n", "é", "名\u2028"]
    names += ["\U0001f600 walk", "hip\x00"]

    def target(n, segmented):
        report = SimpleNamespace(
            dominant_frequency=np.int64(n // 25), reference_period=np.float64(n / (n // 25)),
            acf=rng.standard_normal(n // 2 + 1), spectrum=rng.uniform(0.0, 9.0, n // 2 + 1),
        )
        starts = np.arange(7, n - 25, 25) if segmented else None
        return SimpleNamespace(
            report=report, trend=SimpleNamespace(order=np.int64(3)),
            segmentation=None if starts is None else SimpleNamespace(period_starts=starts),
        )

    diagnostics = {
        name: SimpleNamespace(status="passthrough", target=None, l_min=None, mean_factor=None)
        for name in names[:58]
    }
    for name in names[58:60]:
        diagnostics[name] = SimpleNamespace(
            status="transferred", target=target(1_500, True), l_min=24, mean_factor=rng.standard_normal(24)
        )
    diagnostics[names[60]] = SimpleNamespace(
        status="skipped_no_seasonality", target=target(1_500, False), l_min=None, mean_factor=None
    )
    assert len(diagnostics) == 61
    write_report(diagnostics, tmp_path / "report.json")
    assert (tmp_path / "report.json").read_bytes() == report_oracle(diagnostics)


def repr_texts(x: np.ndarray) -> list[str]:
    """The per-value texts _float_texts gives for x, with its offsets checked
    against them."""
    chunks, sizes = [], []
    for text, starts in _float_texts(x):
        assert starts[0] == 0 and starts[-1] == len(text)
        chunks.append(text)
        sizes.append(np.diff(starts))
    texts = b"".join(chunks).split(_ITEM_SEP)
    assert texts.pop() == b""
    assert np.array_equal(np.concatenate([[], *sizes]), [len(t) + len(_ITEM_SEP) for t in texts])
    return [t.decode() for t in texts]


def assert_json_texts(x: np.ndarray) -> None:
    # json.dumps of the list is json.dumps(v) for each value v, ", " apart.
    want = json.dumps(x.tolist())[1:-1].split(", ") if x.size else []
    got = repr_texts(x)
    assert len(got) == len(want)
    wrong = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not wrong, wrong[:10]


def _neighbours(v: np.ndarray) -> np.ndarray:
    """v and the floats one ulp below and above each value, both signs."""
    v = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    return np.concatenate([v, -v])


def test_float_texts_match_json_on_random_bit_patterns():
    # Every exponent and both signs, NaNs and infinities among them.
    rng = np.random.Generator(np.random.PCG64(20))
    assert_json_texts(rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64).view(np.float64))


def test_float_texts_match_json_on_edge_values():
    tiny = np.finfo(float).smallest_subnormal
    edges = [
        0.0, -0.0, tiny, -tiny, np.finfo(float).smallest_normal - tiny,
        np.finfo(float).smallest_normal, np.finfo(float).max, -np.finfo(float).max,
        np.nan, np.inf, -np.inf, 2.0**54, 2.0**53, 2.0**50,
    ]
    assert_json_texts(np.array(edges))
    assert_json_texts(_neighbours(np.array([float(f"1e{k}") for k in range(-320, 309)])))
    assert_json_texts(_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    rng = np.random.Generator(np.random.PCG64(21))
    # Where repr switches notation: 1e-5 to 1e-4, and around 1e16.
    for lo, hi in ((-5.5, -3.5), (15.5, 16.5)):
        switch = 10.0 ** rng.uniform(lo, hi, 20_000)
        assert_json_texts(_neighbours(np.concatenate([switch, [10.0**lo, 10.0**hi]])))
    assert_json_texts(_neighbours(np.arange(-5_000.0, 5_000.0)))
    for places in range(12):
        assert_json_texts(np.round(rng.uniform(-1e3, 1e3, 10_000), places))


def test_float_texts_of_nothing():
    assert list(_float_texts(np.array([]))) == []
    assert repr_texts(np.array([0.5])) == ["0.5"]


def _ryu_exact(biased: int, mv: int) -> tuple[int, int, int, int]:
    """(mv * w) >> j for m = mv, mv + 2 and mv - 2, and the 64 bits of
    mv * w below bit j, with Ryū's 125-bit multiplier w and shift j for the
    biased exponent, in Python integers."""
    e = 1077 - biased
    q = len(str(5**e)) - 2
    pow5 = 5 ** (e - q)
    shift = pow5.bit_length() - 125
    w = pow5 >> shift if shift >= 0 else pow5 << -shift
    j = q - shift
    vr, vp, vm = ((m * w) >> j for m in (mv, mv + 2, mv - 2))
    return vr, vp, vm, (mv * w >> (j - 64)) % 2**64


def test_ryu_bounds_match_exact_products():
    # Every exponent the tables decide, with the fractions 0 (a power of
    # two, where the kernel's vm is still the mv - 2 product), 1, all ones
    # and 16 random ones.
    low_bits = tableio._ryu_tables()[4]
    decided = np.flatnonzero(low_bits)
    assert decided.size == 1072 and decided[0] == 1 and decided[-1] == 1072
    rng = np.random.Generator(np.random.PCG64(29))
    fractions = np.concatenate([[0, 1, 2**52 - 1], rng.integers(0, 2**52, 16)])
    biased, fractions = (a.ravel() for a in np.meshgrid(decided, fractions.astype(np.uint64), indexing="ij"))
    mv = (fractions | np.uint64(2**52)) << np.uint64(2)
    vr, vp, vm, exact = tableio._ryu_bounds(mv, biased)
    got = list(zip(vr.tolist(), vp.tolist(), vm.tolist()))
    want = [_ryu_exact(b, m)[:3] for b, m in zip(biased.tolist(), mv.tolist())]
    assert got == want
    # Where low equals a threshold the carry is open; no value here ties.
    assert exact.all()


@pytest.mark.parametrize("row", [1, 2], ids=["carry", "borrow"])
def test_ryu_bounds_leave_a_threshold_tie_undecided(monkeypatch, row):
    # Set one exponent's carry (row 1) or borrow (row 2) threshold to a
    # value's low window: the windows no longer decide it, so json writes it.
    x = np.array([0.7071067811865476, 0.25 + 2**-40, 3.0e-200])
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.intp)
    mv = ((bits & np.uint64(2**52 - 1)) | np.uint64(2**52)) << np.uint64(2)
    assert tableio._shortest_digits(x)[0].all()
    limbs, shifts, bounds, e10, low_bits = tableio._ryu_tables()
    bounds = bounds.copy()
    bounds[row, biased[0]] = _ryu_exact(int(biased[0]), int(mv[0]))[3]
    monkeypatch.setattr(tableio, "_ryu_tables", lambda: (limbs, shifts, bounds, e10, low_bits))
    assert tableio._ryu_bounds(mv, biased)[3].tolist() == [False, True, True]
    assert tableio._shortest_digits(x)[0].tolist() == [False, True, True]
    assert_json_texts(x)


def test_shortest_digits_that_remove_many_digits_match_json():
    # Decimals with 1 to 17 significant digits: vr has about 17, so a
    # value removes up to 17 of them, and most remove more than the three
    # that every value is tested for.
    rng = np.random.Generator(np.random.PCG64(30))
    x = np.concatenate([rng.integers(1, 10**d, 50) / 10.0**p for d in range(1, 18) for p in range(1, 20)])
    decided, digits, power = tableio._shortest_digits(x)
    biased = (x.view(np.uint64) >> np.uint64(52)).astype(np.intp)
    removed = (power - tableio._ryu_tables()[3][biased])[decided]
    assert set(range(4, 18)) <= set(removed.tolist())
    want = []
    for v in x[decided].tolist():
        _, places, exponent = decimal.Decimal(json.dumps(v)).as_tuple()
        want.append((int("".join(map(str, places))), exponent))
    assert list(zip(digits[decided].tolist(), power[decided].tolist())) == want
    assert_json_texts(x)


def _long_single_report():
    """A report shaped like a 60k-frame channel's: 30,001 acf and spectrum
    values and a 13-interval mean factor, 60,015 floats."""
    rng = np.random.Generator(np.random.PCG64(60_015))
    acf = rng.uniform(-1.0, 1.0, 30_001)
    acf[0] = 1.0
    spectrum = rng.exponential(1.0, 30_001) * 10.0 ** rng.uniform(-6.0, 2.0, 30_001)
    report = SimpleNamespace(
        dominant_frequency=np.int64(2_000), reference_period=np.float64(30.0), acf=acf, spectrum=spectrum
    )
    target = SimpleNamespace(
        report=report, trend=SimpleNamespace(order=3),
        segmentation=SimpleNamespace(period_starts=np.arange(5, 60_000, 30)),
    )
    return {"c": SimpleNamespace(status="transferred", target=target, l_min=13, mean_factor=rng.standard_normal(13))}


def test_write_report_memory_peak_is_capped(tmp_path):
    # The formatter's per-block temporaries set what write_report holds
    # beyond its input, and they move the process's peak RSS. The traced
    # peak is 2,303,953 B when each block's text is written out before the
    # next block is formatted (numpy 2.4.6, Python 3.11); the cap leaves
    # 4.6% over it, and holding all four block texts of the acf at once
    # exceeds it.
    diagnostics = _long_single_report()
    path = tmp_path / "report.json"
    write_report(diagnostics, path)
    tracemalloc.start()
    try:
        write_report(diagnostics, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == report_oracle(diagnostics)
    assert peak <= 2_410_000


def _float_field_diagnostics(sizes, nan_fields, seed):
    """ChannelDiagnostics look-alikes whose acf, spectrum and mean_factor
    fields, entry by entry, hold arrays of the given sizes; the fields
    indexed in nan_fields hold NaN only."""
    rng = np.random.Generator(np.random.PCG64(seed))
    values = rng.standard_normal(sum(sizes)) * 10.0 ** rng.integers(-20, 20, sum(sizes))
    arrays = np.split(values, np.cumsum(sizes)[:-1])
    for index in nan_fields:
        arrays[index][:] = np.nan
    arrays += [np.array([])] * (-len(arrays) % 3)
    diagnostics = {}
    for k in range(0, len(arrays), 3):
        report = SimpleNamespace(
            dominant_frequency=np.int64(4), reference_period=np.float64(12.5),
            acf=arrays[k], spectrum=arrays[k + 1],
        )
        target = SimpleNamespace(
            report=report, trend=SimpleNamespace(order=2),
            segmentation=SimpleNamespace(period_starts=np.array([3, 15, 28])),
        )
        diagnostics[f"c{k // 3}"] = SimpleNamespace(
            status="transferred", target=target, l_min=12, mean_factor=arrays[k + 2]
        )
    return diagnostics


BLOCK = WRITE_BLOCK_CELLS


@pytest.mark.parametrize(
    "sizes, nan_fields",
    [
        ([BLOCK - 1], []),
        ([BLOCK], []),
        ([BLOCK + 1], []),
        ([BLOCK - 1, 1, 1], []),  # a block ends between two fields
        ([BLOCK - 2, 3], []),  # a block ends inside the last field
        ([1] * 4 + [BLOCK - 4, 0, 1, 2 * BLOCK + 1], []),
        ([0, BLOCK, 0, 0, 1], []),
        ([BLOCK - 100, 200, 5], [1]),  # a NaN-only field across the block end
        ([0, 1, 0], [1]),
    ],
)
def test_write_report_block_and_field_boundaries(tmp_path, sizes, nan_fields):
    assert BLOCK == 8192
    diagnostics = _float_field_diagnostics(sizes, nan_fields, seed=len(sizes))
    path = tmp_path / "report.json"
    write_report(diagnostics, path)
    assert path.read_bytes() == report_oracle(diagnostics)


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(8, 40), n_channels=st.integers(1, 2))
def test_report_of_a_finite_table_is_strict_json(tmp_path_factory, data, n, n_channels):
    # Every finite table either is rejected with a family error or gives a
    # report without the NaN/Infinity tokens strict JSON parsers refuse.
    cell = st.sampled_from(EXTREME_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(data.draw(st.lists(cell, min_size=n * n_channels, max_size=n * n_channels)))
    table = PoseTable([f"c{j}" for j in range(n_channels)], values.reshape(n, n_channels))
    path = tmp_path_factory.getbasetemp() / "strict.json"
    for run in (lambda: analyze_table(table), lambda: transfer_table(table, table)[1]):
        try:
            diagnostics = run()
        except CycleTransferError:
            continue
        write_report(diagnostics, path)
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


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
# non-finite values and csv structure characters. Then bytes on which
# numpy's reader and Python's int/float could disagree: \x1c and \x1f,
# which numpy strips as whitespace and int/float reject, whitespace both
# strip (\x0b, \x0c, \t, NEL, NBSP, U+2028), an underscore and a
# full-width digit, which int/float take, an exponent, which float()
# takes but int() does not, and a comment character.
CELL_DAMAGE = [
    b"", b"\x00", b"\xff", b"\xe9", "é".encode(), b"1" * 140_000,
    b"nan", b"-inf", b"1e999", b'"', b",", b"\r", b"\n",
    b"\x1c", b"\x1f", b"\x0b", b"\x0c", b"\t", "\x85".encode(), "\xa0".encode(),
    "\u2028".encode(), b"_", "\uff11".encode(), b"1e2", b"#",
]


def _damage(draw, rows):
    """Drop, replace or splice into one cell of ``rows`` (lists of bytes)."""
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


@st.composite
def damaged_tables(draw):
    return _damage(draw, [[cell.encode() for cell in row] for row in VALID_ROWS])


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


def write_csv_oracle(table: PoseTable) -> bytes:
    """The per-row csv.writer loop that write_csv's block formatting
    replaces, after write_csv's header: csv.writer's record with its
    ``\r\n`` end cut to ``\n``."""
    header = io.StringIO()
    csv.writer(header, lineterminator="\r\n").writerow(["frame"] + list(table.channel_names))
    buf = io.StringIO()
    buf.write(header.getvalue()[:-2] + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for i in range(table.n_frames):
        writer.writerow([str(i)] + [f"{v:.9g}" for v in table.values[i]])
    return buf.getvalue().encode("utf-8")


def parse_outcome(parse, path):
    """A parse result compared bit for bit: the table, or the DataError text."""
    try:
        table = parse(path)
    except DataError as exc:
        return str(exc)
    return table.channel_names, table.values.shape, table.values.tobytes()


EXTREME_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308]
channel_names = st.lists(
    # A name holding NUL is refused by PoseTable, so no table has one.
    st.text(st.characters(codec="utf-8", exclude_characters="\0"), min_size=1, max_size=6).filter(str.strip),
    max_size=4,
    unique=True,
)


@st.composite
def tables(draw):
    names = draw(channel_names | st.lists(st.sampled_from("xyz"), max_size=3, unique=True))
    n = draw(st.integers(0, 6))
    cell = st.sampled_from(EXTREME_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(cell, min_size=n * len(names), max_size=n * len(names)))
    return PoseTable(names, np.array(values, dtype=float).reshape(n, len(names)))


@settings(max_examples=300, deadline=None)
@given(table=tables())
def test_write_csv_matches_per_row_oracle(tmp_path_factory, table):
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    write_csv(table, path)
    assert path.read_bytes() == write_csv_oracle(table)


def test_write_csv_matches_oracle_across_blocks(tmp_path):
    rng = np.random.Generator(np.random.PCG64(4))
    # (8_193, 1) and (16_385, 0) end one row into a new block, whose
    # frame numbers must carry on from the block before.
    for shape in [(40_000, 1), (700, 61), (3, 20_000), (8_193, 1), (16_385, 0)]:
        table = PoseTable([f"c{j}" for j in range(shape[1])], rng.standard_normal(shape) * 1e3)
        write_csv(table, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == write_csv_oracle(table)


def _ulp_neighbours(x, steps=3):
    """x and the floats up to steps ulps either side of it."""
    x = np.asarray(x, dtype=float)
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.concatenate([v.ravel() for v in out])


def _boundary_values():
    """Values at the edges of write_csv's plain-decimal rule, with both
    signs: the powers of ten around its exponent range, the rounding ties
    of the 9th digit at every scale it lays out, and the band just below
    1e-4 where the 9-digit mantissa decides between 0.0001 and exponent
    form."""
    powers = 10.0 ** np.arange(-6, 11)
    d = np.array([1e-16, 1e-12, 5e-10, 1e-9, 4.99e-9, 5e-9, 5.01e-9, 1e-8, 5e-8, 1e-3])
    near_powers = np.concatenate([
        (powers[:, None] * (1 + d)).ravel(),
        (powers[:, None] * (1 - d)).ravel(),
        _ulp_neighbours(powers),
    ])
    mantissas = np.array([1e8, 100_000_001, 123_456_789, 499_999_999, 5e8, 999_999_998, 999_999_999])
    ties = np.concatenate([_ulp_neighbours((mantissas + 0.5) / 10.0**k, 1) for k in range(13)])
    band = np.concatenate([
        np.linspace(1e-4 - 5e-13, 1e-4, 101),
        _ulp_neighbours([1e-4 - 5e-13, 1e-4 - 5e-14, 1e-4]),
    ])
    extremes = np.array([0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308])
    values = np.concatenate([near_powers, ties, band, extremes])
    return np.concatenate([values, -values])


def test_write_csv_matches_oracle_at_format_boundaries(tmp_path):
    values = _boundary_values()
    tables = [
        PoseTable([f"c{j}" for j in range(width)],
                  np.concatenate([values, np.zeros(-len(values) % width)]).reshape(-1, width))
        for width in (1, 7)
    ]
    # Blocks in which every value takes the %.9g path.
    rng = np.random.Generator(np.random.PCG64(9))
    scale = np.where(rng.uniform(size=(3_000, 5)) < 0.5, 1e-7, 1e12)
    tables.append(PoseTable([f"c{j}" for j in range(5)], rng.uniform(1.0, 9.0, size=(3_000, 5)) * scale))
    for table in tables:
        write_csv(table, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == write_csv_oracle(table)


def test_write_csv_matches_oracle_as_block_widths_change(tmp_path):
    # One-column blocks hold WRITE_BLOCK_CELLS // 2 rows. Each block's frame
    # field and integer parts are as wide as its own largest ones need, so
    # blocks alternate between integer parts below 1e4, below 1e8 and up to
    # 999,999,999, and the frame field widens in the block holding 10_000.
    step = WRITE_BLOCK_CELLS // 2
    rng = np.random.Generator(np.random.PCG64(27))
    values = _boundary_values()
    # Cells of the narrowest slot: exponent forms (the longest, 16 bytes,
    # among them), near ties and plain decimals below 1e4.
    narrow = np.concatenate([
        values[(np.abs(values) < 9_999) | (np.abs(values) >= 1e9)],
        [-1.23456789e100, 1.23456789e-100, -9_999.49999, 9_999.4999999, 1e-5],
    ])
    tops = [9_999.4, 99_999_999.4, 999_999_999.0, 9_999.0, 99_999_999.0]
    blocks = []
    for top in tops + tops[::-1]:
        block = rng.uniform(-top, top, step)
        block[:3] = [top, -top, 0.5]
        if top < 1e4:
            block[3 : 3 + len(narrow)] = narrow
        blocks.append(block)
    column = np.concatenate(blocks)[: 10 * step - 5]
    assert len(column) > 10_000
    table = PoseTable(["x"], column[:, np.newaxis])
    write_csv(table, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == write_csv_oracle(table)


def test_int_words_match_str():
    values = np.array([
        0, 9, 10, 9_999, 10_000, 99_999_999, 10**8, 999_999_999, MAX_SYNTH_FRAMES - 1, 10**12 - 1,
    ])
    # One, two and three words hold the integers below 10**4, 10**8 and 10**12.
    for width in (1, 2, 3):
        n = values[values < 10 ** (4 * width)]
        words = np.zeros((len(n), width), np.uint32)
        _int_words(n, words)
        expected = [str(v).rjust(4 * width, "\0").encode() for v in n.tolist()]
        assert [row.tobytes() for row in words] == expected, width


# Files the block parser must decline, each a way in which splitting on
# commas would disagree with csv.reader or with the line checks.
FAST_PATH_TRAPS = {
    "balanced_cell_counts": b"frame,a,b\n0,1\n1,2,3,4\n",
    # The right comma total, and frame cells in their places once the
    # block is split on commas and newlines, but 2 and 0 commas per line.
    "balanced_shifted_cells": b"frame,a\n0,1,1\n2\n",
    "over_field_limit": b"frame,a\n0," + b"0" * 140_000 + b"1\n",
    "blank_line": b"frame,a\n0,1\n\n1,2\n",
    "blank_last_line": b"frame,a\n0,1\n\n",
    "crlf_one_lf_line": b"frame,a\r\n0,1\n1,2\r\n",
    "crlf_header_lf_body": b"frame,a\r\n0,1\n1,2\n",
    "lf_header_crlf_body": b"frame,a\n0,1\r\n1,2\r\n",
    "crlf_trailing_bare_cr": b"frame,a\r\n0,1\r\n1,2\r",
    "crlf_lone_cr": b"frame,a\r\n0,1\r1,2\r\n",
    "crlf_cr_in_cell": b"frame,a\r\n0,1\r\r\n1,2\r\n",
    "quoted_cell": b'frame,a\n0,"1"\n1,2\n',
    "frame_float": b"frame,a\n0.0,1\n1,2\n",
    "frame_exponent": b"frame,a\n0,1\n1e0,2\n",
    # numpy strips \x1c as whitespace; int() and float() do not.
    "value_fs": b"frame,a\n0,1\x1c\n",
    "frame_fs": b"frame,a\n0\x1c,1\n",
    "value_underscore": b"frame,a\n0,1_0\n",
    "no_final_newline": b"frame,a\n0,1\n1,2",
    "header_no_newline": b"frame,a",
    "nan": b"frame,a\n0,nan\n",
    "non_utf8": b"frame,a\n0,1\n1,\xff\n",
    "no_channels_blank": b"frame\n0\n\n",
    "empty": b"",
}


@pytest.mark.parametrize("data", FAST_PATH_TRAPS.values(), ids=FAST_PATH_TRAPS.keys())
def test_read_csv_traps_fall_back_to_line_parser(tmp_path, data):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    assert _read_csv_blocks(path) is None
    assert parse_outcome(read_csv, path) == parse_outcome(_read_csv_lines, path)


# Files off the plain write_csv layout that the fast path still takes, with
# the line parser's table: int() reads "+0", " 0" and "00" as 0, float()
# strips spaces, and the header is read with csv.reader, quoted names
# spanning lines included.
FAST_PATH_TAKES = {
    "frame_plus": b"frame,a\n+0,1\n1,2\n",
    "frame_space": b"frame,a\n 0,1\n1,2\n",
    "frame_leading_zero": b"frame,a\n00,1\n01,2\n",
    "value_spaces": b"frame,a\n0, 1.5 \n1,-0\n",
    "quoted_header": b'frame,"a,b"\n0,1\n',
    "quoted_header_cr": b'frame,"a\rb",c\n0,1,2\n',
    "quoted_header_lf_in_crlf": b'frame,"a\nb"\r\n0,1\r\n1,2\r\n',
    "quoted_header_crlf_in_lf": b'frame,"a\r\nb"\n0,1\n',
}


@pytest.mark.parametrize("data", FAST_PATH_TAKES.values(), ids=FAST_PATH_TAKES.keys())
def test_read_csv_fast_path_takes_what_int_and_csv_accept(tmp_path, data):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    table = _read_csv_blocks(path)
    assert table is not None
    assert parse_outcome(lambda _: table, path) == parse_outcome(_read_csv_lines, path)


def _long_table_bytes(n=6000):
    rng = np.random.Generator(np.random.PCG64(8))
    table = PoseTable(["a", "b", "c"], rng.standard_normal((n, 3)))
    data = write_csv_oracle(table)
    assert len(data) > 3 * READ_BLOCK_BYTES
    return data


def test_read_csv_block_parser_takes_plain_files(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(_long_table_bytes())
    table = _read_csv_blocks(path)
    assert table is not None
    assert parse_outcome(lambda _: table, path) == parse_outcome(_read_csv_lines, path)


@pytest.mark.parametrize("data", ["crlf", "crlf_long"], ids=str)
def test_read_csv_block_parser_takes_crlf_files(tmp_path, data):
    path = tmp_path / "t.csv"
    if data == "crlf":
        path.write_bytes(b"frame,a\r\n0,1\r\n1,2\r\n")
    else:
        path.write_bytes(_long_table_bytes().replace(b"\n", b"\r\n"))
    table = _read_csv_blocks(path)
    assert table is not None
    assert parse_outcome(lambda _: table, path) == parse_outcome(_read_csv_lines, path)


@pytest.mark.parametrize("end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_read_csv_skips_one_byte_order_mark(tmp_path, end):
    # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark.
    data = b'frame,a,"b,c"\n0,1.5,-2\n1,0.25,3\n'.replace(b"\n", end)
    plain, marked, doubled = (tmp_path / name for name in ("plain.csv", "marked.csv", "doubled.csv"))
    plain.write_bytes(data)
    marked.write_bytes(codecs.BOM_UTF8 + data)
    doubled.write_bytes(codecs.BOM_UTF8 * 2 + data)
    expected = parse_outcome(_read_csv_lines, plain)
    assert expected[0] == ["a", "b,c"]
    assert _read_csv_blocks(marked) is not None
    for parse in (_read_csv_blocks, _read_csv_lines, read_csv):
        assert parse_outcome(parse, marked) == expected
    # Only one mark is skipped: a second one is part of the first cell.
    assert _read_csv_blocks(doubled) is None
    with pytest.raises(DataError, match="line 1: header must start with 'frame'"):
        read_csv(doubled)


@pytest.mark.parametrize(
    "line",
    ["3000,1,2", "3001,1,2,3", "+3000,1,2,3", "3000,1,2,nan", '3000,1,"2",3', "3000,1,2,3\r", ""],
)
def test_read_csv_trap_deep_in_file(tmp_path, line):
    lines = _long_table_bytes().decode().split("\n")
    lines[3001] = line  # the row of frame 3000, past the first blocks
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines), encoding="utf-8", newline="")
    # int() reads "+3000" as 3000, and so does the fast path, which then
    # takes the file; it declines every other line here.
    assert (_read_csv_blocks(path) is not None) == (line == "+3000,1,2,3")
    assert parse_outcome(read_csv, path) == parse_outcome(_read_csv_lines, path)


@pytest.mark.parametrize(
    "row, end",
    [("3000,1,2", "\r\n"), ("3000,1,2,3", "\n"), ("3000,1,2,3", "\r"), ("3000,1\r,2,3", "\r\n"),
     ('3000,1,"2",3', "\r\n"), ("+3000,1,2,3", "\r\n")],
    ids=["short_row", "lf_end", "cr_end", "cr_in_cell", "quoted_cell", "frame_plus"],
)
def test_read_csv_crlf_trap_deep_in_file(tmp_path, row, end):
    lines = _long_table_bytes().decode().split("\n")[:-1]
    ends = ["\r\n"] * len(lines)
    lines[3001], ends[3001] = row, end  # the row of frame 3000, past the first blocks
    path = tmp_path / "t.csv"
    path.write_text("".join(map(str.__add__, lines, ends)), encoding="utf-8", newline="")
    # As in the LF file, "+3000" is taken and every other row declined.
    assert (_read_csv_blocks(path) is not None) == (row == "+3000,1,2,3")
    assert parse_outcome(read_csv, path) == parse_outcome(_read_csv_lines, path)


@st.composite
def written_tables(draw):
    """write_csv output, as is or with a cell damaged or a line end changed,
    with LF or CRLF line ends."""
    data = write_csv_oracle(draw(tables()))
    action = draw(st.sampled_from(["none", "damage", "strip_newline", "blank_line"]))
    if action == "damage":
        data = _damage(draw, [line.split(b",") for line in data.split(b"\n")[:-1]])
    elif action == "strip_newline":
        data = data[:-1]
    elif action == "blank_line":
        data += b"\n"
    kind = draw(st.sampled_from(["lf", "crlf", "crlf_one_lf_line", "crlf_trailing_bare_cr"]))
    if kind == "lf":
        return data
    lines = data.split(b"\n")
    ends = [b"\r\n"] * (len(lines) - 1) + [b""]
    if kind == "crlf_one_lf_line" and len(lines) > 1:
        ends[draw(st.integers(0, len(lines) - 2))] = b"\n"
    data = b"".join(map(bytes.__add__, lines, ends))
    if kind == "crlf_trailing_bare_cr" and data.endswith(b"\r\n"):
        data = data[:-1]
    return data


@settings(max_examples=400, deadline=None)
@given(data=written_tables() | damaged_tables() | st.binary(max_size=300))
def test_read_csv_matches_line_parser(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "diff.csv"
    path.write_bytes(data)
    assert parse_outcome(read_csv, path) == parse_outcome(_read_csv_lines, path)


written_back = tables().filter(lambda t: t.n_frames and t.channel_names)


@settings(max_examples=300, deadline=None)
@given(table=written_back, crlf=st.booleans())
def test_read_csv_fast_path_takes_every_written_table(tmp_path_factory, table, crlf):
    data = write_csv_oracle(table)
    path = tmp_path_factory.getbasetemp() / "taken.csv"
    path.write_bytes(data.replace(b"\n", b"\r\n") if crlf else data)
    taken = _read_csv_blocks(path)
    assert taken is not None
    assert parse_outcome(lambda _: taken, path) == parse_outcome(_read_csv_lines, path)


def test_read_csv_crlf_line_end_across_a_read_block(tmp_path):
    header = b"frame,a\r\n"
    rows = [b"%d,0.5\r\n" % i for i in range(READ_BLOCK_BYTES // 8)]
    # Lengthen the first value so that a row's \r is the last byte of the
    # body's first read block and its \n the first byte of the second.
    ends = np.cumsum([len(row) for row in rows])
    pad = READ_BLOCK_BYTES + 1 - ends[ends <= READ_BLOCK_BYTES + 1][-1]
    rows[0] = b"0,0.5" + b"0" * pad + b"\r\n"
    body = b"".join(rows)
    assert body[READ_BLOCK_BYTES - 1 : READ_BLOCK_BYTES + 1] == b"\r\n"
    path = tmp_path / "t.csv"
    path.write_bytes(header + body)
    table = _read_csv_blocks(path)
    assert table is not None and table.n_frames == len(rows)
    assert parse_outcome(lambda _: table, path) == parse_outcome(_read_csv_lines, path)


@pytest.mark.parametrize("data", [b"frame,a\n", b"frame,a\n0,1\n", b"frame,a\r\n0,1\r\n"])
def test_read_csv_of_a_short_file_warns_nothing(tmp_path, data):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = read_csv(path)
    assert caught == []
    assert parse_outcome(lambda _: table, path) == parse_outcome(_read_csv_lines, path)
    assert (_read_csv_blocks(path) is None) == (table.n_frames == 0)


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_outputs_get_the_umask_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_csv(PoseTable(["a"], np.ones((2, 1))), tmp_path / "t.csv")
        write_report({}, tmp_path / "r.json")
    finally:
        os.umask(old)
    for name in ("t.csv", "r.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask
