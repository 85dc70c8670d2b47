import csv
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from sipswitch.core import (
    CODEC_PRESETS,
    CodecProfile,
    DL,
    LOSS_CAUSES,
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
    DirectionTrace,
    PacketTrace,
    TraceConservationError,
    expected_packet_count,
    read_trace,
    write_trace,
)

from trace_rows import lost_count, trace_rows


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
        assert len(trace_rows(result.trace, direction)) == expected


def test_generation_grid_is_exact_and_drift_free():
    spec = call_spec("G723.1", call_start_us=1_000_500,
                     call_duration_us=30_000 * 100,
                     switch_offset_us=30_000 * 50)
    result = run_call(spec)
    assert not result.aborted
    for direction in (UL, DL):
        rows = trace_rows(result.trace, direction)
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
    first = trace_rows(result.trace, UL)[0]
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
    assert (tr.generated, lost_count(tr)) == (3, 2)
    causes = [r[6] for r in trace_rows(tr)]
    assert causes.count(LOSS_RANDOM) == 1
    assert causes.count(LOSS_CLOSED) == 1
    assert len(trace_rows(tr, UL)) == 2
    assert len(trace_rows(tr, DL)) == 1


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
    assert [r[2] for r in trace_rows(tr, UL)] == [0, 1, 2]
    assert [r[2] for r in trace_rows(tr, DL)] == [0]


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
    # a direction's packets are recorded in generation order, and are one
    # stream's
    tr.record("ul", UL, 0, 20_000, "wlan", 25_000, None)
    with pytest.raises(TraceConservationError, match="before the previous"):
        tr.record("ul", UL, 1, 0, "wlan", 5_000, None)
    with pytest.raises(TraceConservationError,
                       match="UL already carries stream ul"):
        tr.record("ul2", UL, 0, 40_000, "wlan", 45_000, None)
    tr.record("dl", DL, 0, 0, "cn0", 5_000, None)
    assert [r[:3] for r in trace_rows(tr)] == [("dl", DL, 0), ("ul", UL, 0)]


def test_trace_round_trips_through_csv(tmp_path):
    tr = PacketTrace()
    tr.record("ul", UL, 0, 1_000_000, "wlan", 1_005_030, None)
    tr.record("ul", UL, 1, 1_020_000, "wlan", None, LOSS_RANDOM)
    tr.record("dl", DL, 0, 1_000_000, "cn0", None, LOSS_CLOSED)
    path = tmp_path / "trace.csv"
    write_trace(str(path), "G711_hard_r000", tr)
    run_id, back = read_trace(str(path))
    assert run_id == "G711_hard_r000"
    assert trace_rows(back) == trace_rows(tr)


def test_equal_times_write_ul_first_whichever_direction_came_first(tmp_path):
    # DL is recorded first but starts later; at 20 us, UL's row still
    # comes first, in the first file as in its round trip
    tr = PacketTrace()
    tr.record("dl", DL, 0, 20, "cn0", 30, None)
    tr.record("ul", UL, 0, 0, "wlan", 10, None)
    tr.record("ul", UL, 1, 20, "wlan", 30, None)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_trace(str(first), "r0", tr)
    write_trace(str(second), *read_trace(str(first)))
    assert second.read_bytes() == first.read_bytes()
    assert [line.split(",")[2:4] for line in
            first.read_text().splitlines()[1:]] == [
        ["UL", "0"], ["UL", "1"], ["DL", "0"]]


def test_written_trace_bytes_are_stable(tmp_path):
    tr = PacketTrace()
    tr.record("ul", UL, 0, 0, "wlan", 25_000, None)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(str(p1), "r0", tr)
    write_trace(str(p2), "r0", tr)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()  # newline-only line endings


# One packet of a random trace: its gap in us since the previous one of its
# direction (0 is a tie), and its delay in us or its loss cause.
GAP = st.sampled_from([0, 1, 20_000, 20_000, 30_000])
DELAY = st.integers(min_value=0, max_value=300_000)
LOST = st.sampled_from(LOSS_CAUSES)
FATE = st.one_of(DELAY, LOST)


@st.composite
def packet_streams(draw, gaps=GAP, fates=FATE):
    """The packets of a two-direction trace as record's arguments, in
    recording order: either generation order, as a run and read_trace
    record them, or one whole direction before the other. The directions
    may start apart or together, and in generation order either one may be
    recorded first at each shared time. The UL stream moves from wlan to
    cellular at a drawn packet."""
    start = draw(st.integers(min_value=0, max_value=2_000_000))
    packets = []
    for stream_id, direction in (("ul", UL), ("dl", DL)):
        drawn = draw(st.lists(fates, max_size=40))
        switch = draw(st.integers(min_value=0, max_value=len(drawn)))
        gen = start + draw(st.sampled_from([0, 0, 1, 20_000]))
        for seq, fate in enumerate(drawn):
            gen += draw(gaps) if seq else 0
            iface = ("cn0" if direction == DL
                     else "wlan" if seq < switch else "cellular")
            fate = ((gen + fate, None) if isinstance(fate, int)
                    else (None, fate))
            packets.append((stream_id, direction, seq, gen, iface, *fate))
    whole_first = draw(st.sampled_from([None, UL, DL]))
    ul_first = draw(st.randoms(use_true_random=False))
    first_at: dict = {}
    # sorted is stable, so each direction keeps its seq order
    if whole_first is None:
        packets.sort(key=lambda p: (p[3], first_at.setdefault(
            p[3], ul_first.random() < 0.5) != (p[1] == UL)))
    else:
        packets.sort(key=lambda p: p[1] != whole_first)
    return packets


def record_all(packets):
    trace = PacketTrace()
    for packet in packets:
        trace.record(*packet)
    return trace


recorded_traces = packet_streams().map(record_all)


def direction_lists(trace):
    return {name: (packets.stream_id, packets.gen, packets.iface,
                   packets.arrival, packets.cause)
            for name, packets in trace.directions.items()}


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round-trip")


# derandomize keeps the suite's outcome fixed; drop it and raise
# max_examples to search further.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(trace=recorded_traces,
       run_id=st.sampled_from(["G711_hard_r000", 'odd, "quoted" id']))
def test_a_written_trace_reads_back_to_the_same_lists_and_bytes(
        trace_dir, trace, run_id):
    first, second = trace_dir / "first.csv", trace_dir / "second.csv"
    write_trace(str(first), run_id, trace)
    back_id, back = read_trace(str(first))
    write_trace(str(second), back_id, back)
    assert second.read_bytes() == first.read_bytes()
    assert back_id == (run_id if trace.generated else "")
    assert direction_lists(back) == direction_lists(trace)
    # rows in generation order; at a shared time, UL first
    with open(first, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    keys = [(int(row[4]), row[2] != UL) for row in rows]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# record against its per-check form


class ReferenceTrace:
    """PacketTrace.record in its per-check form: every check in turn on
    every packet. The property below holds record to it."""

    def __init__(self):
        self.directions: dict[str, DirectionTrace] = {}

    def record(self, stream_id, direction, seq, gen_time, send_iface,
               arrival_time, loss_cause):
        packets = self.directions.get(direction) or DirectionTrace(stream_id)
        gens = packets.gen
        if stream_id != packets.stream_id:
            raise TraceConservationError(
                f"{stream_id} seq {seq}: {direction} already carries stream "
                f"{packets.stream_id}")
        if seq != len(gens):
            raise TraceConservationError(
                f"{stream_id} seq {seq}: expected seq {len(gens)}")
        if gens and gen_time < gens[-1]:
            raise TraceConservationError(
                f"{stream_id} seq {seq}: generated at {gen_time}, before the "
                f"previous {direction} packet at {gens[-1]}")
        if (arrival_time is None) is (loss_cause is None):
            raise TraceConservationError(
                f"{stream_id} seq {seq}: exactly one of arrival and loss "
                f"cause must be set")
        if loss_cause is None:
            if arrival_time < gen_time:
                raise TraceConservationError(
                    f"{stream_id} seq {seq}: arrival {arrival_time} before "
                    f"generation {gen_time}")
        elif loss_cause not in LOSS_CAUSES:
            raise TraceConservationError(
                f"{stream_id} seq {seq}: unknown loss cause {loss_cause!r}")
        if not gens:
            self.directions[direction] = packets
        gens.append(gen_time)
        packets.iface.append(send_iface)
        packets.arrival.append(arrival_time)
        packets.cause.append(loss_cause)


FAULTS = ("seq", "stream", "earlier", "both-fates", "no-fate",
          "arrival-before-generation", "unknown-cause")


@st.composite
def faulted_packet_streams(draw, **kw):
    """packet_streams(**kw) with at most one packet changed by one fault
    from FAULTS, at a drawn position or on the first packet of that
    position's direction."""
    packets = draw(packet_streams(**kw))
    fault = draw(st.sampled_from((None, *FAULTS)))
    if fault is None or not packets:
        return packets
    at = draw(st.integers(min_value=0, max_value=len(packets) - 1))
    if draw(st.booleans()):
        at = next(i for i, p in enumerate(packets) if p[1] == packets[at][1])
    stream_id, direction, seq, gen, iface, arrival, cause = packets[at]
    if fault == "seq":
        seq += draw(st.sampled_from([-1, 1, 2]))
    elif fault == "stream":
        stream_id = draw(st.sampled_from(["ul", "dl", "ul2"]).filter(
            lambda other: other != stream_id))
    elif fault == "earlier":
        # before the direction's previous packet, or its first moved back
        previous = next((p[3] for p in packets
                         if p[1] == direction and p[2] == seq - 1), gen)
        gen = previous - draw(st.sampled_from([1, 20_000]))
    elif fault == "both-fates":
        arrival, cause = gen + 1_000, draw(st.sampled_from(LOSS_CAUSES))
    elif fault == "no-fate":
        arrival = cause = None
    elif fault == "arrival-before-generation":
        arrival, cause = gen - draw(st.sampled_from([1, 20_000])), None
    else:
        arrival, cause = None, draw(st.sampled_from(
            ["gremlins", "", LOSS_RANDOM.upper()]))
    packets[at] = (stream_id, direction, seq, gen, iface, arrival, cause)
    return packets


def trace_lists(trace):
    """Each direction's lists, in the order the trace registered them."""
    return list(direction_lists(trace).items())


@settings(max_examples=500, deadline=None, derandomize=True)
@given(packets=faulted_packet_streams())
def test_record_accepts_and_rejects_as_its_per_check_form(packets):
    trace, reference = PacketTrace(), ReferenceTrace()
    for packet in packets:
        before = trace_lists(trace)
        outcomes = []
        for sink in (trace, reference):
            try:
                sink.record(*packet)
                outcomes.append(None)
            except TraceConservationError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], packet
        assert trace_lists(trace) == trace_lists(reference), packet
        if outcomes[0] is not None:   # a rejected packet changes nothing
            assert trace_lists(trace) == before, packet


# ---------------------------------------------------------------------------
# extend against record, packet by packet

# Runs as a media clock makes them: mostly one spacing, mostly delivered.
SEGMENT_GAP = st.sampled_from([0, 1, 30_000, *[20_000] * 6])
SEGMENT_FATE = st.one_of(DELAY, DELAY, DELAY, LOST)


def _continues(segment, packet):
    """Whether packet can end segment, a list of record's arguments: the
    same stream, direction and interface, the next seq, and times on one
    range of nonzero step (a negative one holds an earlier fault)."""
    last = segment[-1]
    step = packet[3] - last[3]
    return (packet[:2] == last[:2] and packet[4] == last[4]
            and packet[2] == last[2] + 1 and step != 0
            and (len(segment) == 1 or step == segment[1][3] - segment[0][3]))


@st.composite
def faulted_segments(draw):
    """faulted_packet_streams cut into PacketTrace.extend's arguments.

    Each direction's packets are cut into segments of consecutive seqs, one
    stream and one interface, whose times form a range; a fault that cannot
    be written so (a seq or stream fault, an earlier time on a run of
    positive step) starts a segment. Segments may also be cut at drawn
    points. The directions' segments are interleaved in a drawn order, and
    an empty segment may be put in anywhere."""
    packets = draw(faulted_packet_streams(gaps=SEGMENT_GAP,
                                          fates=SEGMENT_FATE))
    cut: dict[str, list[list]] = {}
    for packet in packets:
        segments = cut.setdefault(packet[1], [])
        if (segments and _continues(segments[-1], packet)
                and draw(st.integers(0, 9))):
            segments[-1].append(packet)
        else:
            segments.append([packet])
    order = draw(st.permutations([direction for direction, segments
                                  in cut.items() for _ in segments]))
    out = []
    for direction in order:
        segment = cut[direction].pop(0)
        stream_id, _, seq, gen, iface = segment[0][:5]
        step = segment[1][3] - gen if len(segment) > 1 else 1
        out.append((stream_id, direction, seq,
                    range(gen, gen + step * len(segment), step), iface,
                    [p[5] for p in segment], [p[6] for p in segment]))
    if draw(st.booleans()):
        direction = draw(st.sampled_from([UL, DL]))
        gen = draw(st.integers(0, 100_000))
        out.insert(draw(st.integers(0, len(out))), (
            direction.lower(), direction, draw(st.integers(0, 3)),
            range(gen, gen, 20_000), "wlan", [], []))
    return out


def _outcome(call, *args):
    try:
        call(*args)
    except TraceConservationError as exc:
        return type(exc), str(exc)
    return None


def _record_each(trace, stream_id, direction, seq, times, send_iface,
                 arrivals, causes):
    for j, gen in enumerate(times):
        trace.record(stream_id, direction, seq + j, gen, send_iface,
                     arrivals[j], causes[j])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(segments=faulted_segments())
# an empty segment before a direction's first, and a run of negative step
@example(segments=[("dl", DL, 5, range(0, 0, 20_000), "cn0", [], []),
                   ("dl", DL, 0, range(0, 60_000, 20_000), "cn0",
                    [5_000, None, 45_000], [None, LOSS_CLOSED, None])])
@example(segments=[("ul", UL, 0, range(40_000, 0, -20_000), "wlan",
                    [45_000, 25_000], [None, None])])
def test_extend_accepts_and_rejects_as_record_does_packet_by_packet(
        segments):
    trace, reference = PacketTrace(), ReferenceTrace()
    for segment in segments:
        got = _outcome(trace.extend, *segment)
        assert got == _outcome(_record_each, reference, *segment), segment
        # the packets before a rejected one are appended, as record's are
        assert trace_lists(trace) == trace_lists(reference), segment


def test_extend_needs_one_fate_per_time():
    trace = PacketTrace()
    with pytest.raises(TraceConservationError,
                       match="ul seq 0: 2 times but 1 arrivals and 2 causes"):
        trace.extend("ul", UL, 0, range(0, 40_000, 20_000), "wlan",
                     [5_000], [None, None])
    assert trace.directions == {}
