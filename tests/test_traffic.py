from dataclasses import replace

import pytest

from sipswitch.core import (
    CODEC_PRESETS,
    CodecProfile,
    DL,
    LOSS_CLOSED,
    LOSS_RANDOM,
    UL,
    InterfaceDescriptor,
    LinkParams,
    Technology,
)
from sipswitch.handoff import HandoffProcedure
from sipswitch.scenario import CallSpec, run_call
from sipswitch.traffic import (
    DEFAULT_HEADER_OVERHEAD_BYTES,
    PacketTrace,
    TraceConservationError,
    expected_packet_count,
    read_trace,
    write_trace,
)


def call_spec(codec_name, wlan_kbps=54_000.0, **kw):
    """A soft wlan-to-cellular call: lossless, so every packet arrives."""
    interfaces = [
        InterfaceDescriptor("wlan", Technology.WLAN_LIKE, 0.5,
                            LinkParams(wlan_kbps, 5_000)),
        InterfaceDescriptor("cellular", Technology.CELLULAR_LIKE, 0.9,
                            LinkParams(384.0, (40_000, 80_000))),
    ]
    return CallSpec(codec=CODEC_PRESETS[codec_name],
                    procedure=HandoffProcedure.SOFT, switch_from="wlan",
                    switch_to="cellular", interfaces=interfaces, **kw)


# ---------------------------------------------------------------------------
# packet counts and cadence


def test_expected_packet_count_inclusive_of_both_ends():
    # 60 s of 20 ms packets: one at every grid point including t_end
    assert expected_packet_count(0, 60_000_000, 20_000) == 3_001
    assert expected_packet_count(0, 60_000_000, 30_000) == 2_001
    assert expected_packet_count(0, 0, 20_000) == 1
    assert expected_packet_count(5, 24, 20) == 1  # next tick lands past t_end


@pytest.mark.parametrize("codec_name,expected", [
    ("G711", 3_001), ("G729", 3_001), ("G723.1", 2_001),
])
def test_stream_emits_expected_count_over_a_minute(codec_name, expected):
    result = run_call(call_spec(codec_name))
    assert not result.aborted
    codec = CODEC_PRESETS[codec_name]
    assert expected == expected_packet_count(1_000_000, 61_000_000,
                                             codec.packet_interval_us)
    for direction in (UL, DL):
        assert len(result.trace.rows_for(direction)) == expected


def test_generation_grid_is_exact_and_drift_free():
    spec = call_spec("G723.1", call_start_us=1_000_500,
                     call_duration_us=30_000 * 100,
                     switch_offset_us=30_000 * 50)
    result = run_call(spec)
    assert not result.aborted
    for direction in (UL, DL):
        rows = result.trace.rows_for(direction)
        assert [r[3] for r in rows] == \
            [1_000_500 + 30_000 * k for k in range(101)]
        assert [r[2] for r in rows] == list(range(101))


def test_stream_rejects_bad_arguments():
    # A codec interval that rounds to 0 us would tick the same instant
    # forever; it is rejected before anything runs.
    fast = CodecProfile("fast", bitrate_kbps=8_000_000,
                        packet_interval_ms=0.0001, payload_bytes=100, ie=0.0,
                        bpl=25.1)
    spec = replace(call_spec("G711"), codec=fast)
    assert "fast: packet_interval_ms 0.0001 rounds to 0 us; the interval " \
        "must be at least 1 us" in spec.validate()
    spec = call_spec("G711", call_duration_us=0)
    assert "call_duration_us must be > 0, got 0" in spec.validate()


def test_offered_bitrate_matches_codec_plus_overhead():
    # G711 with 40 B headers: 200 B per 20 ms = 80 kbps at IP level. Over a
    # 100 kbps link with 5 ms propagation the first uplink packet arrives
    # after 200 B of serialization (16 ms), not 160 B (12.8 ms).
    result = run_call(call_spec("G711", wlan_kbps=100.0))
    first = result.trace.rows_for(UL)[0]
    size = CODEC_PRESETS["G711"].payload_bytes + DEFAULT_HEADER_OVERHEAD_BYTES
    assert first[4] == "wlan"
    assert first[5] - first[3] == 5_000 + round(size * 8_000 / 100.0)
    offered_kbps = size * 8 / CODEC_PRESETS["G711"].packet_interval_ms
    assert offered_kbps == pytest.approx(80.0)


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
    tr.record("ul", UL, 1, 20_000, "wlan", 25_000, None)
    for seq in (1, 3, 0):  # duplicate, gap, out of order
        with pytest.raises(TraceConservationError, match="expected seq 2"):
            tr.record("ul", UL, seq, 40_000, "wlan", 45_000, None)
    # same seq on a different stream is fine
    tr.record("dl", DL, 0, 0, "cn0", 6_000, None)
    # the rejected packets left the stream's next seq alone
    tr.record("ul", UL, 2, 40_000, "wlan", 45_000, None)
    assert tr.next_seq == {"ul": 3, "dl": 1}


def test_trace_rejects_contradictory_fates():
    tr = PacketTrace()
    with pytest.raises(TraceConservationError):
        tr.record("ul", UL, 0, 0, "wlan", None, None)  # no fate at all
    with pytest.raises(TraceConservationError):
        tr.record("ul", UL, 0, 0, "wlan", 5_000, LOSS_RANDOM)  # both fates


def test_trace_rejects_time_travel_and_unknown_causes():
    tr = PacketTrace()
    with pytest.raises(TraceConservationError, match="before generation"):
        tr.record("ul", UL, 0, 10_000, "wlan", 9_999, None)
    with pytest.raises(TraceConservationError, match="unknown loss cause"):
        tr.record("ul", UL, 0, 0, "wlan", None, "gremlins")
    # a direction's packets are recorded in generation order
    tr.record("ul", UL, 0, 20_000, "wlan", 25_000, None)
    with pytest.raises(TraceConservationError, match="before the previous"):
        tr.record("ul2", UL, 0, 0, "wlan", 5_000, None)
    tr.record("dl", DL, 0, 0, "cn0", 5_000, None)


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
