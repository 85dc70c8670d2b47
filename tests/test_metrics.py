import csv
import gc
from dataclasses import fields
from math import fsum

import pytest

from sipswitch.cli import build_call_spec
from sipswitch.core import CODEC_PRESETS, DL, LOSS_CLOSED, LOSS_RANDOM, UL
from sipswitch.metrics import (
    DEFAULT_EMODEL,
    METRICS_COLUMNS,
    EModelParams,
    WindowSeries,
    WindowSums,
    burst_ratio,
    call_summary,
    fold,
    window_series,
    write_metrics,
)
from sipswitch.scenario import run_call
from sipswitch.traffic import (
    TRACE_COLUMNS,
    PacketTrace,
    read_trace,
    write_trace,
)

from emodel_terms import id_delay_impairment, ie_effective, r_factor
from trace_rows import Window, series_of, trace_rows, window_rows

G711 = CODEC_PRESETS["G711"]
G729 = CODEC_PRESETS["G729"]
G7231 = CODEC_PRESETS["G723.1"]


# ---------------------------------------------------------------------------
# hand-computed oracle values


@pytest.mark.parametrize("delay_ms,expected", [
    (0.0, 0.0),
    (100.0, 2.4),                      # 0.024 * 100
    (177.3, 4.2552),                   # knee is strict: no second term yet
    (200.0, 7.297),                    # 4.8 + 0.11 * 22.7
    (300.0, 20.697),                   # 7.2 + 0.11 * 122.7
])
def test_delay_impairment_oracle(delay_ms, expected):
    assert id_delay_impairment(delay_ms) == pytest.approx(expected, abs=1e-9)


def test_delay_impairment_rejects_negative_delay():
    with pytest.raises(ValueError):
        id_delay_impairment(-1.0)


def test_ie_effective_oracle_values():
    # zero loss collapses to the codec's base impairment, exactly
    assert ie_effective(G711, 0.0, 1.0) == 0.0
    assert ie_effective(G729, 0.0, 1.0) == 11.0
    # G729 at 2% random loss: 11 + 84*2/(2+19) = 19 exactly
    assert ie_effective(G729, 0.02, 1.0) == pytest.approx(19.0, abs=1e-9)
    # G723.1 at 5% loss with burst ratio 2: 15 + 80*5/(2.5+16.1)
    assert ie_effective(G7231, 0.05, 2.0) == \
        pytest.approx(36.50537634408602, abs=1e-9)
    # G711 at 10% random loss: 95*10/(10+25.1)
    assert ie_effective(G711, 0.10, 1.0) == \
        pytest.approx(27.065527065527065, abs=1e-9)
    # total loss stays finite
    assert ie_effective(G711, 1.0, 1.0) == \
        pytest.approx(9500.0 / 125.1, abs=1e-9)


def test_ie_effective_input_validation():
    with pytest.raises(ValueError):
        ie_effective(G711, 0.1, 0.0)
    with pytest.raises(ValueError):
        ie_effective(G711, 0.1, -1.0)
    with pytest.raises(ValueError):
        ie_effective(G711, 1.5, 1.0)


def test_ie_effective_burst_one_matches_plain_loss_formula():
    for codec in (G711, G729, G7231):
        for k in range(1, 21):
            p = k / 40.0  # 2.5% .. 50%
            plain = codec.ie + (95.0 - codec.ie) * (100.0 * p) / (100.0 * p + codec.bpl)
            assert ie_effective(codec, p, 1.0) == pytest.approx(plain, abs=1e-12)


def test_r_factor_oracle_values():
    assert r_factor(0.0, 0.0, 1.0, G711) == 93.2  # exact: no impairments
    assert r_factor(60.0, 0.0, 1.0, G7231) == pytest.approx(76.76, abs=1e-9)
    assert r_factor(100.0, 0.02, 1.0, G729) == pytest.approx(71.8, abs=1e-9)
    assert r_factor(5.03, 0.0, 1.0, G711) == pytest.approx(93.07928, abs=1e-9)


def test_r_factor_not_clamped_below_zero():
    assert r_factor(400.0, 1.0, 3.0, G7231) < 0.0


def test_r_factor_monotone_in_delay_and_loss():
    for codec in (G711, G729, G7231):
        delays = [20.0 * i for i in range(20)]
        losses = [i / 40.0 for i in range(20)]
        for p in losses:
            rs = [r_factor(d, p, 1.0, codec) for d in delays]
            assert all(a >= b for a, b in zip(rs, rs[1:]))
        for d in delays:
            rs = [r_factor(d, p, 1.0, codec) for p in losses]
            assert all(a >= b for a, b in zip(rs, rs[1:]))


def test_burstier_loss_hurts_more():
    base = r_factor(50.0, 0.05, 1.0, G711)
    bursty = r_factor(50.0, 0.05, 3.0, G711)
    assert bursty < base


def test_emodel_params_validation():
    with pytest.raises(ValueError):
        EModelParams(r0=120.0)
    with pytest.raises(ValueError):
        EModelParams(loss_ceiling=-1.0)
    assert DEFAULT_EMODEL.r0 == 93.2


# ---------------------------------------------------------------------------
# burst ratio


def test_burst_ratio_oracle_cases():
    # no losses at all
    assert burst_ratio([False] * 10, 0.0) == 1.0
    # isolated losses at 10%: observed run length 1, expectation 1/0.9
    flags = [i % 10 == 0 for i in range(50)]
    assert burst_ratio(flags, 0.1) == pytest.approx(0.9, abs=1e-12)
    # one run of 5 in 50 packets at 10% loss: 5 * (1 - 0.1)
    flags = [10 <= i < 15 for i in range(50)]
    assert burst_ratio(flags, 0.1) == pytest.approx(4.5, abs=1e-12)
    # runs of 2 and 4: observed mean 3
    flags = [False, True, True, False, True, True, True, True, False, False]
    assert burst_ratio(flags, 0.6) == pytest.approx(3.0 * 0.4, abs=1e-12)
    # total loss: independence expectation diverges, observed mean returned
    assert burst_ratio([True] * 10, 1.0) == 10.0
    # trailing run is counted
    assert burst_ratio([False, True, True], 2 / 3) == \
        pytest.approx(2.0 * (1 / 3), abs=1e-12)


# ---------------------------------------------------------------------------
# windowed series over synthetic traces


def _delivered(tr, seq, gen, delay_us, direction=DL, stream="dl"):
    tr.record(stream, direction, seq, gen, "cn0", gen + delay_us, None)


def _lost(tr, seq, gen, cause=LOSS_CLOSED, direction=DL, stream="dl"):
    tr.record(stream, direction, seq, gen, "cn0", None, cause)


def test_window_series_partitions_and_computes_each_window():
    tr = PacketTrace()
    for seq, gen in enumerate(range(0, 60_000, 20_000)):
        _delivered(tr, seq, gen, 10_000)           # window 0: clean, 10 ms
    _lost(tr, 3, 60_000)
    _lost(tr, 4, 80_000)
    _delivered(tr, 5, 100_000, 30_000)             # window 1: 2 of 3 lost
    series = window_series(tr, DL, G711)
    assert series.window_start == [0, 60_000]
    w0, w1 = window_rows(series)
    assert (w0.ppl, w0.mean_delay_ms) == (0.0, 10.0)
    assert w0.burst_r == 1.0
    assert w0.r_factor == pytest.approx(r_factor(10.0, 0.0, 1.0, G711))
    assert w1.ppl == pytest.approx(2 / 3)
    assert w1.mean_delay_ms == pytest.approx(30.0)
    # one run of 2 among 3 packets: 2 * (1 - 2/3)
    assert w1.burst_r == pytest.approx(2 / 3)
    assert not w0.carried and not w1.carried
    assert not w1.carried_delay


def test_all_lost_window_carries_delay_but_reports_real_loss():
    tr = PacketTrace()
    for seq, gen in enumerate(range(0, 60_000, 20_000)):
        _delivered(tr, seq, gen, 10_000)
    for seq, gen in enumerate(range(60_000, 120_000, 20_000), start=3):
        _lost(tr, seq, gen)
    w1 = window_rows(window_series(tr, DL, G711))[1]
    assert w1.ppl == 1.0
    assert w1.mean_delay_ms == 10.0      # carried from the previous window
    assert w1.carried_delay and not w1.carried
    assert w1.burst_r == 3.0             # observed run length at total loss
    assert w1.r_factor < 0.0


def test_first_window_all_lost_falls_back_to_zero_delay():
    tr = PacketTrace()
    _lost(tr, 0, 0)
    _lost(tr, 1, 20_000)
    series = window_series(tr, DL, G711)
    assert len(series) == 1
    assert series.mean_delay_ms == [0.0]
    assert series.carried_delay == [True]


def test_empty_windows_carry_previous_values():
    tr = PacketTrace()
    _delivered(tr, 0, 0, 5_000)
    _delivered(tr, 1, 50_000, 5_000)
    series = window_rows(window_series(tr, DL, G711, window_len_ms=10.0))
    assert len(series) == 6               # starts at 0, 10, ..., 50 ms
    for m in series[1:5]:
        assert m.carried and m.carried_delay
        assert m.mean_delay_ms == 5.0     # copied forward
        assert m.r_factor == series[0].r_factor
    assert not series[5].carried


def test_windows_partition_the_trace_when_stride_equals_window():
    tr = PacketTrace()
    for seq in range(101):
        if seq % 7 == 3:
            _lost(tr, seq, seq * 20_000, cause=LOSS_RANDOM)
        else:
            _delivered(tr, seq, seq * 20_000, 8_000)
    series = window_series(tr, DL, G711)
    # window k holds exactly packets 3k, 3k + 1 and 3k + 2 (the last, 99
    # and 100), as its loss ratio shows
    assert series.ppl == [
        sum(seq % 7 == 3 for seq in window) / len(window)
        for window in (range(k, min(k + 3, 101)) for k in range(0, 101, 3))]


def test_stride_can_overlap_windows():
    tr = PacketTrace()
    for seq in range(10):
        _delivered(tr, seq, seq * 20_000, 8_000)
    series = window_series(tr, DL, G711, window_len_ms=60.0, stride_ms=20.0)
    assert series.window_start == \
        [k * 20_000 for k in range(10)]  # one start per generation instant


def test_window_series_on_empty_direction_is_empty():
    tr = PacketTrace()
    _delivered(tr, 0, 0, 1_000, direction=UL, stream="ul")
    series = window_series(tr, DL, G711)
    assert series == WindowSeries() and len(series) == 0 and not series


def test_window_series_without_burst_adjustment():
    tr = PacketTrace()
    _delivered(tr, 0, 0, 10_000)
    _lost(tr, 1, 20_000)
    _lost(tr, 2, 40_000)
    series = window_series(tr, DL, G711, use_burst_ratio=False)
    assert series.burst_r == [1.0]
    assert series.r_factor[0] == pytest.approx(
        r_factor(10.0, 2 / 3, 1.0, G711))


def test_window_series_rejects_nonpositive_window():
    tr = PacketTrace()
    _delivered(tr, 0, 0, 1_000)
    with pytest.raises(ValueError):
        window_series(tr, DL, G711, window_len_ms=0.0)
    with pytest.raises(ValueError):
        window_series(tr, DL, G711, stride_ms=-5.0)



def test_no_stage_of_the_window_pipeline_allocates_per_window(tmp_path):
    # A window is no object of its own from analysis through export to the
    # fold: with the collector off, the three stages leave a small constant
    # of GC-tracked objects behind (about 40), not one per window, so a
    # series starts no collection however long it is.
    tr = PacketTrace()
    for seq in range(3_001):
        if seq % 13 in (4, 5):
            _lost(tr, seq, seq * 20_000, cause=LOSS_RANDOM)
        else:
            _delivered(tr, seq, seq * 20_000, 40_000 + seq % 17)
    sums = WindowSums()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        before = gc.get_count()[0]
        series = window_series(tr, DL, G729, 60.0, 20.0)
        write_metrics(str(tmp_path / "metrics.csv"), "r", series)
        fold(sums, series)
        grown = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert len(series) == 3_001 and any(series.ppl)
    assert grown < 100, grown

# ---------------------------------------------------------------------------
# direct window queries: a second, row-by-row derivation of the windowed
# loss and delay, used as an oracle for window_series


def loss_ratio(trace, window_start, window_len_us, direction=None):
    """Lost/generated over [window_start, window_start+len), by gen time."""
    rows = [r for r in trace_rows(trace)
            if (direction is None or r[1] == direction)
            and window_start <= r[3] < window_start + window_len_us]
    if not rows:
        raise ValueError("window contains no generated packets")
    return sum(r[6] is not None for r in rows) / len(rows)


def mean_delay(trace, window_start, window_len_us, direction=None):
    """Mean one-way delay in ms over delivered packets in the window."""
    delays = [(r[5] - r[3]) / 1000 for r in trace_rows(trace)
              if (direction is None or r[1] == direction)
              and window_start <= r[3] < window_start + window_len_us
              and r[5] is not None]
    if not delays:
        raise ValueError("window contains no delivered packets")
    return fsum(delays) / len(delays)


def test_loss_ratio_and_mean_delay_window_queries():
    tr = PacketTrace()
    _delivered(tr, 0, 0, 10_000)
    _lost(tr, 1, 20_000)
    _delivered(tr, 2, 40_000, 20_000)
    _delivered(tr, 0, 0, 99_000, direction=UL, stream="ul")
    assert loss_ratio(tr, 0, 60_000, DL) == pytest.approx(1 / 3)
    assert mean_delay(tr, 0, 60_000, DL) == pytest.approx(15.0)
    # direction None pools both streams
    assert loss_ratio(tr, 0, 60_000) == pytest.approx(1 / 4)
    with pytest.raises(ValueError):
        loss_ratio(tr, 1_000_000, 60_000, DL)
    with pytest.raises(ValueError):
        mean_delay(tr, 20_000, 20_000, DL)  # only a lost packet inside


def test_window_series_matches_the_oracles_on_a_lossy_run(make_config):
    config = make_config(
        codecs=["G729"], call_duration_s=10, switch_time_s=5,
        interfaces={"wlan": {"loss_prob": 0.1},
                    "cellular": {"loss_prob": 0.1}})
    spec = build_call_spec(config, "G729", "hard", "wlan-to-cellular", 2)
    result = run_call(spec)
    assert not result.aborted
    lossy = delayed = 0
    for direction in (UL, DL):
        series = window_series(result.trace, direction, G729)
        assert series
        for wm in window_rows(series):
            assert not wm.carried
            ppl = loss_ratio(result.trace, wm.window_start, 60_000, direction)
            assert wm.ppl == pytest.approx(ppl, abs=1e-12)
            lossy += ppl > 0
            if not wm.carried_delay:
                assert wm.mean_delay_ms == pytest.approx(mean_delay(
                    result.trace, wm.window_start, 60_000, direction),
                    rel=1e-12)
                delayed += 1
    assert lossy and delayed  # the run really exercised both oracles


def test_call_summary_totals():
    tr = PacketTrace()
    _delivered(tr, 0, 0, 10_000)
    _delivered(tr, 1, 20_000, 20_000)
    _lost(tr, 2, 40_000)
    lost, ppl = call_summary(tr, DL)
    causes = tr.directions[DL].cause   # generated and delivered
    assert (len(causes), causes.count(None), lost) == (3, 2, 1)
    assert ppl == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        call_summary(tr, UL)


# ---------------------------------------------------------------------------
# persistence purity: metrics recomputed from an exported trace are identical


def test_metrics_survive_trace_round_trip_exactly(tmp_path):
    tr = PacketTrace()
    for seq in range(50):
        if seq in (11, 12, 30):
            _lost(tr, seq, seq * 20_000)
        else:
            _delivered(tr, seq, seq * 20_000, 41_000 + 137 * seq)
    original = window_series(tr, DL, G711)
    trace_path = tmp_path / "trace.csv"
    write_trace(str(trace_path), "r0", tr)
    _, back = read_trace(str(trace_path))
    assert window_series(back, DL, G711) == original

    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_metrics(str(m1), "r0", original)
    write_metrics(str(m2), "r0", window_series(back, DL, G711))
    assert m1.read_bytes() == m2.read_bytes()


def read_metrics(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == METRICS_COLUMNS
        rows = list(reader)
    series = series_of(Window(
        window_start=int(row[1]), mean_delay_ms=float(row[2]),
        ppl=float(row[3]), burst_r=float(row[4]), r_factor=float(row[5]),
        carried=bool(int(row[6])), carried_delay=bool(int(row[7])))
        for row in rows)
    return (rows[-1][0] if rows else ""), series


def test_write_metrics_writes_every_window_field_in_order(tmp_path):
    # the metrics file is the window series: after the run id, one column
    # per WindowSeries column, in field order
    assert METRICS_COLUMNS[1:] == ("window_start_us", *(
        f.name for f in fields(WindowSeries)[1:]))
    path = tmp_path / "metrics.csv"
    write_metrics(str(path), "r", series_of([
        Window(20_000, 1.5, 0.25, 2.0, 80.5, False, True)]))
    assert path.read_text().splitlines()[1].split(",") == [
        "r", "20000", "1.5", "0.25", "2.0", "80.5", "0", "1"]


def test_metrics_file_round_trip_preserves_floats(tmp_path):
    tr = PacketTrace()
    _delivered(tr, 0, 0, 12_345)
    _lost(tr, 1, 20_000)
    series = window_series(tr, DL, G711)
    path = tmp_path / "metrics.csv"
    write_metrics(str(path), "rX", series)
    run_id, back = read_metrics(str(path))
    assert run_id == "rX"
    assert len(back) == len(series)
    for a, b in zip(window_rows(series), window_rows(back)):
        # str(float) round-trips exactly through the CSV
        assert b.mean_delay_ms == a.mean_delay_ms
        assert b.ppl == a.ppl
        assert b.burst_r == a.burst_r
        assert b.r_factor == a.r_factor
        assert (b.carried, b.carried_delay) == (a.carried, a.carried_delay)


# ---------------------------------------------------------------------------
# export: the rendered rows are what csv.writer writes, quoting included


def csv_writer_trace(path, run_id, trace):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRACE_COLUMNS)
        for (stream_id, direction, seq, gen, iface, arrival,
             cause) in trace_rows(trace):
            w.writerow((run_id, stream_id, direction, seq, gen, iface,
                        "" if arrival is None else arrival,
                        "" if cause is None else cause))


def csv_writer_metrics(path, run_id, series):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(METRICS_COLUMNS)
        for m in window_rows(series):
            w.writerow((run_id, m.window_start, m.mean_delay_ms, m.ppl,
                        m.burst_r, m.r_factor, int(m.carried),
                        int(m.carried_delay)))


def test_export_matches_csv_writer_on_names_that_need_quoting(
        make_config, tmp_path):
    codec, iface = 'G"7,29 x', 'w,"lan\n2'
    config = make_config(
        codecs=[codec], directions=[f"{iface}-to-cellular"],
        call_duration_s=3, switch_time_s=1.5,
        custom_codecs={codec: {"bitrate_kbps": 8.0,
                               "packet_interval_ms": 20.0,
                               "payload_bytes": 20, "ie": 11.0,
                               "bpl": 19.0}},
        interfaces={iface: {"technology": "wlan-like", "q_weight": 0.5,
                            "bitrate_kbps": 54000, "prop_delay_ms": 5,
                            "loss_prob": 0.1},
                    "cellular": {"loss_prob": 0.1}})
    spec = build_call_spec(config, codec, "hard", f"{iface}-to-cellular", 1)
    result = run_call(spec)
    assert not result.aborted
    assert any(r[4] == iface for r in trace_rows(result.trace))
    assert any(r[6] is not None for r in trace_rows(result.trace))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trace(str(got), spec.run_id, result.trace)
    csv_writer_trace(str(want), spec.run_id, result.trace)
    assert got.read_bytes() == want.read_bytes()
    assert b'"' + spec.run_id.replace('"', '""').encode() + b'"' \
        in got.read_bytes()
    for direction in (UL, DL):
        series = window_series(result.trace, direction, spec.codec,
                               stride_ms=20.0)
        write_metrics(str(got), spec.run_id, series)
        csv_writer_metrics(str(want), spec.run_id, series)
        assert got.read_bytes() == want.read_bytes()
