import pytest

from sipswitch.core import (
    CODEC_PRESETS,
    DL,
    LOSS_CLOSED,
    LOSS_RANDOM,
    UL,
)
from sipswitch.simnet import UNLIMITED, Engine, Link
from sipswitch.traffic import (
    DEFAULT_HEADER_OVERHEAD_BYTES,
    MediaStream,
    PacketTrace,
    TraceConservationError,
    expected_packet_count,
    read_trace,
    start_stream,
    write_trace,
)


# ---------------------------------------------------------------------------
# packet counts and cadence


def test_expected_packet_count_inclusive_of_both_ends():
    # 60 s of 20 ms packets: one at every grid point including t_end
    assert expected_packet_count(0, 60_000_000, 20_000) == 3_001
    assert expected_packet_count(0, 60_000_000, 30_000) == 2_001
    assert expected_packet_count(0, 0, 20_000) == 1
    assert expected_packet_count(5, 24, 20) == 1  # next tick lands past t_end
    with pytest.raises(ValueError):
        expected_packet_count(10, 0, 20_000)


@pytest.mark.parametrize("codec_name,expected", [
    ("G711", 3_001), ("G729", 3_001), ("G723.1", 2_001),
])
def test_stream_emits_expected_count_over_a_minute(codec_name, expected):
    eng = Engine()
    codec = CODEC_PRESETS[codec_name]
    got = []
    start_stream(eng, "ul", UL, codec, 1_000_000, 61_000_000, got.append)
    eng.run_until(61_000_000)
    assert len(got) == expected
    assert len(got) == expected_packet_count(1_000_000, 61_000_000,
                                             codec.packet_interval_us)


def test_generation_grid_is_exact_and_drift_free():
    eng = Engine()
    codec = CODEC_PRESETS["G723.1"]
    got = []
    start_stream(eng, "dl", DL, codec, 500, 500 + 30_000 * 10, got.append)
    eng.run_until(10_000_000)
    assert [p.gen_time for p in got] == [500 + 30_000 * k for k in range(11)]
    assert [p.seq for p in got] == list(range(11))
    assert all(p.size_bytes == 24 + DEFAULT_HEADER_OVERHEAD_BYTES for p in got)


def test_stream_stop_halts_generation():
    eng = Engine()
    codec = CODEC_PRESETS["G711"]
    got = []
    stream = start_stream(eng, "ul", UL, codec, 0, 1_000_000, got.append)
    eng.schedule(100_000, stream.stop)
    eng.run_until(1_000_000)
    # the stop was scheduled before the 100 ms tick, so it dispatches first
    # at that instant: only the packets at 0..80 ms were emitted
    assert len(got) == 5


def test_stream_rejects_bad_arguments():
    eng = Engine()
    with pytest.raises(ValueError):
        MediaStream(eng, "x", "sideways", CODEC_PRESETS["G711"], 0, 1,
                    lambda p: None)
    with pytest.raises(ValueError):
        MediaStream(eng, "x", UL, CODEC_PRESETS["G711"], 10, 5, lambda p: None)


def test_offered_bitrate_matches_codec_plus_overhead():
    # G711 with 40 B headers: 200 B per 20 ms = 80 kbps at IP level
    eng = Engine()
    link = Link(eng, "l", UNLIMITED, 0, queue_capacity_pkts=10_000)
    sent_bits = 0

    def emit(pkt):
        nonlocal sent_bits
        if pkt.gen_time < 10_000_000:  # count a 10 s span [0, 10 s)
            sent_bits += pkt.size_bytes * 8
        link.transmit(pkt.size_bytes)

    start_stream(eng, "ul", UL, CODEC_PRESETS["G711"], 0, 10_000_000, emit)
    eng.run_until(10_000_000)
    offered_kbps = sent_bits / 10.0 / 1000.0
    assert offered_kbps == pytest.approx(80.0, rel=0.01)


# ---------------------------------------------------------------------------
# trace recording invariants


def test_trace_counts_and_cause_tallies():
    tr = PacketTrace()
    tr.record("ul", UL, 0, 0, "wlan", 5_000, None)
    tr.record("ul", UL, 1, 20_000, "wlan", None, LOSS_RANDOM)
    tr.record("dl", DL, 0, 0, "cn0", None, LOSS_CLOSED)
    assert (tr.generated, tr.delivered, tr.lost) == (3, 1, 2)
    causes = [r[6] for r in tr.rows]
    assert causes.count(LOSS_RANDOM) == 1
    assert causes.count(LOSS_CLOSED) == 1
    assert len(tr.rows_for(UL)) == 2
    assert len(tr.rows_for(DL)) == 1


def test_trace_rejects_duplicate_sequence_numbers():
    tr = PacketTrace()
    tr.record("ul", UL, 0, 0, "wlan", 5_000, None)
    with pytest.raises(TraceConservationError):
        tr.record("ul", UL, 0, 20_000, "wlan", 25_000, None)
    # same seq on a different stream is fine
    tr.record("dl", DL, 0, 0, "cn0", 6_000, None)


def test_trace_rejects_contradictory_fates():
    tr = PacketTrace()
    with pytest.raises(TraceConservationError):
        tr.record("ul", UL, 0, 0, "wlan", None, None)  # no fate at all
    with pytest.raises(TraceConservationError):
        tr.record("ul", UL, 1, 0, "wlan", 5_000, LOSS_RANDOM)  # both fates


def test_trace_rejects_time_travel_and_unknown_causes():
    tr = PacketTrace()
    with pytest.raises(TraceConservationError):
        tr.record("ul", UL, 0, 10_000, "wlan", 9_999, None)
    with pytest.raises(TraceConservationError):
        tr.record("ul", UL, 1, 0, "wlan", None, "gremlins")


def test_trace_round_trips_through_csv(tmp_path):
    tr = PacketTrace()
    tr.record("ul", UL, 0, 1_000_000, "wlan", 1_005_030, None)
    tr.record("ul", UL, 1, 1_020_000, "wlan", None, LOSS_RANDOM)
    tr.record("dl", DL, 0, 1_000_000, "cn0", None, LOSS_CLOSED)
    path = tmp_path / "trace.csv"
    write_trace(str(path), "G711_hard_r000", tr)
    run_id, back = read_trace(str(path))
    assert run_id == "G711_hard_r000"
    assert back.rows == tr.rows


def test_written_trace_bytes_are_stable(tmp_path):
    tr = PacketTrace()
    tr.record("ul", UL, 0, 0, "wlan", 25_000, None)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(str(p1), "r0", tr)
    write_trace(str(p2), "r0", tr)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()  # newline-only line endings
