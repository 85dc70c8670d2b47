"""The media clock against the heap-driven media path it replaced.

The oracle below is the former media path, kept here on purpose: one
``media-tick`` heap event per packet and direction, each routing its packet,
offering it to the link on its own and scheduling the next tick, over links
that draw their delay with ``randint``. Hypothesis runs random calls through
both and requires the same trace rows, logs, event counts and link state.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

import sipswitch.scenario as scenario
from sipswitch.cli import build_call_spec
from sipswitch.core import (
    CODEC_PRESETS,
    DL,
    LOSS_CLOSED,
    LOSS_QUEUE,
    LOSS_RANDOM,
    UL,
    InterfaceDescriptor,
    LinkParams,
    SimulationError,
    Technology,
)
from sipswitch.handoff import HandoffProcedure, media_route
from sipswitch.scenario import CN_IFACE, CallSpec, _CallRuntime
from sipswitch.simnet import UNLIMITED, Link

from faults import FaultyRuntime
from per_packet_link import PerPacketLink
from trace_rows import trace_rows


class _HeapLink(Link):
    """The former per-packet Link.transmit."""

    def transmit(self, size_bytes, on_arrive=None, note=""):
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        t = self.engine.now
        self.offered += 1
        busy = self._busy
        while busy and busy[0] <= t:
            busy.popleft()
        if len(busy) >= self.queue_capacity_pkts:
            self.dropped += 1
            return None, LOSS_QUEUE
        if self.loss_prob > 0.0 and self.rng.random() < self.loss_prob:
            self.dropped += 1
            return None, LOSS_RANDOM
        start = busy[-1] if busy else t
        serialization = (0 if self.bitrate_kbps is UNLIMITED
                         else round(size_bytes * 8000 / self.bitrate_kbps))
        finish = start + serialization
        busy.append(finish)
        if self.prop_lo_us == self.prop_hi_us:
            prop = self.prop_lo_us
        else:
            prop = self.rng.randint(self.prop_lo_us, self.prop_hi_us)
        arrival = finish + prop
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        self.delivered += 1
        if on_arrive is not None:
            self.engine.schedule(arrival, lambda: on_arrive(arrival),
                                 kind="arrival", subject=note or self.link_id)
        return arrival, None


class _HeapMediaRuntime(FaultyRuntime):
    """A call whose media runs as one heap event per packet and direction."""

    def _start_media(self):
        self._start_stream("ul", UL)
        self._start_stream("dl", DL)

    def _start_stream(self, stream_id, direction):
        spec = self.spec
        t_start = spec.call_start_us
        t_end = t_start + spec.call_duration_us
        interval = spec.codec.packet_interval_us
        size = spec.codec.payload_bytes + spec.header_overhead_bytes
        state = self.state
        uplink = direction == UL
        links = self.links_ul if uplink else self.links_dl

        def tick():
            gen = self.engine.now
            seq = (gen - t_start) // interval
            mn_iface = media_route(state, direction)
            if mn_iface is None:
                arrival, cause = None, LOSS_CLOSED
                self._closed[direction] += 1  # the runtime's closed tally
            else:
                arrival, cause = links[mn_iface].transmit(size)
            self.trace.record(stream_id, direction, seq, gen,
                              state.ul_media_iface if uplink else CN_IFACE,
                              arrival, cause)
            if gen + interval <= t_end:
                self.engine.schedule(gen + interval, tick, kind="media-tick",
                                     subject=stream_id)

        self.engine.schedule(t_start, tick, kind="media-tick",
                             subject=stream_id)


def outcome(runtime_class, spec, link_class=Link, **faults):
    """Everything a run leaves behind that two media paths must share."""
    with mock.patch.object(scenario, "Link", link_class):
        runtime = runtime_class(spec, **faults)
    try:
        result = runtime.run()
    except SimulationError as exc:
        return repr(exc)
    links = [*runtime.links_ul.values(), *runtime.links_dl.values()]
    return {
        "rows": trace_rows(result.trace),
        "signaling": result.signaling.lines,
        "handoff": result.handoff_log.lines,
        "events": result.event_log,
        "dispatched": runtime.engine.dispatched,
        "now": runtime.engine.now,
        "links": [(link.link_id, link.offered, link.delivered, link.dropped,
                   list(link._busy), link._last_arrival,
                   link.rng.getstate()) for link in links],
        "ends": (result.aborted, result.abort_reason, result.t_trigger,
                 result.state.t_cn_switch, result.t_completed,
                 result.state.closed_old_at),
    }


PROP_DELAY = st.one_of(
    st.integers(0, 100_000),
    st.tuples(st.integers(0, 60_000),
              st.sampled_from([1, 2, 7, 8, 9, 1_024, 40_000])).map(
        lambda p: (p[0], p[0] + p[1])))
LINK = st.builds(
    LinkParams,
    bitrate_kbps=st.sampled_from([UNLIMITED, 32.0, 64.0, 384.0, 54_000.0]),
    prop_delay_us=PROP_DELAY,
    queue_capacity_pkts=st.integers(1, 60),
    loss_prob=st.sampled_from([0.0, 0.0, 0.0, 0.02, 0.02, 0.3]))
LINK_IDS = ["wlan-ul", "wlan-dl", "cellular-ul", "cellular-dl"]
DROPS = [(method, k) for method in ("REINVITE", "OK") for k in range(3)]


@st.composite
def call_specs(draw):
    """(spec, faults): a call and the faults to run it with (faults.py)."""
    codec = CODEC_PRESETS[draw(st.sampled_from(sorted(CODEC_PRESETS)))]
    interval = codec.packet_interval_us
    duration = draw(st.integers(20, 150)) * interval + draw(
        st.sampled_from([0, 1, interval // 2]))
    offset = draw(st.integers(1, duration // interval - 1)) * interval
    if draw(st.booleans()):   # off the grid
        offset += draw(st.integers(1, interval - 1))
    jitter = draw(st.integers(0, min(offset, duration - offset) - 1))
    if draw(st.booleans()):
        jitter = 0
    switch_from, switch_to = draw(st.permutations(["wlan", "cellular"]))
    spec = CallSpec(
        codec=codec,
        procedure=draw(st.sampled_from(list(HandoffProcedure))),
        switch_from=switch_from, switch_to=switch_to,
        interfaces=[
            InterfaceDescriptor("wlan", Technology.WLAN_LIKE, 0.5,
                                draw(LINK)),
            InterfaceDescriptor("cellular", Technology.CELLULAR_LIKE, 0.9,
                                draw(LINK))],
        # the setup guard aborts a call whose setup is not done by its start
        call_start_us=draw(st.sampled_from([1_000_000, 3_000_000]))
        + draw(st.integers(0, interval)),
        call_duration_us=duration, switch_offset_us=offset,
        switch_jitter_us=jitter,
        watchdog_us=draw(st.sampled_from([300_000, 10_000_000])),
        seed=draw(st.integers(0, 2 ** 32)), log_events=True)
    return spec, {
        "down_links": frozenset(draw(st.lists(st.sampled_from(LINK_IDS),
                                              max_size=1))),
        "drops": frozenset(draw(st.lists(st.sampled_from(DROPS),
                                         max_size=3)))}


# derandomize keeps the suite's outcome fixed; drop it and raise
# max_examples to search further.
@settings(max_examples=250, deadline=None, derandomize=True)
@given(call_specs())
def test_the_media_clock_equals_one_heap_event_per_packet(spec_faults):
    spec, faults = spec_faults
    assert outcome(FaultyRuntime, spec, **faults) == outcome(
        _HeapMediaRuntime, spec, _HeapLink, **faults)


def test_the_oracle_sees_the_losses_and_aborts_it_is_meant_to_cover():
    # a narrow, lossy cellular link and a dropped re-INVITE: every loss
    # cause and a retransmission, compared like the random cases
    spec = CallSpec(
        codec=CODEC_PRESETS["G711"], procedure=HandoffProcedure.HARD,
        switch_from="wlan", switch_to="cellular",
        interfaces=[
            InterfaceDescriptor("wlan", Technology.WLAN_LIKE, 0.5,
                                LinkParams(54_000.0, 5_000, 50, 0.05)),
            InterfaceDescriptor("cellular", Technology.CELLULAR_LIKE, 0.9,
                                LinkParams(64.0, (40_000, 80_000), 5, 0.05))],
        call_duration_us=4_000_000, switch_offset_us=2_000_000,
        log_events=True, seed=3)
    drops = frozenset({("REINVITE", 0)})
    got = outcome(FaultyRuntime, spec, drops=drops)
    assert got == outcome(_HeapMediaRuntime, spec, _HeapLink, drops=drops)
    causes = {row[6] for row in got["rows"]}
    assert {LOSS_CLOSED, LOSS_QUEUE, LOSS_RANDOM} <= causes
    assert any("REINVITE" in line and "dropped:forced" in line
               for line in got["signaling"])


# ---------------------------------------------------------------------------
# the links' closed form against every packet through the queue


@settings(max_examples=150, deadline=None, derandomize=True)
@given(call_specs())
def test_the_closed_form_link_equals_the_per_packet_link(spec_faults):
    spec, faults = spec_faults
    assert outcome(FaultyRuntime, spec, **faults) == outcome(
        FaultyRuntime, spec, PerPacketLink, **faults)
    # and with no fault the fault runtime runs the call as run_call does
    assert outcome(FaultyRuntime, spec) == outcome(_CallRuntime, spec)


def test_the_closed_form_after_a_reinvite_queues_media(make_config):
    # over campaign-B's 64 kbps cellular link the re-INVITE is still
    # serializing when the next media segment starts, so that segment's
    # first packets queue behind it before the closed form takes over
    spec = build_call_spec(make_config(preset="campaign-B"), "G729", "hard",
                           "wlan-to-cellular", 0)
    queued = []

    class WatchedLink(Link):
        def offer(self, times, size_bytes):
            if len(times) > 1 and self._busy and self._busy[-1] > times[0]:
                queued.append(self.link_id)
            return super().offer(times, size_bytes)

    got = outcome(_CallRuntime, spec, WatchedLink)
    assert "cellular-ul" in queued
    assert got == outcome(_CallRuntime, spec, PerPacketLink)


def _spec(**kw):
    kw.setdefault("procedure", HandoffProcedure.HARD)
    return CallSpec(
        codec=CODEC_PRESETS["G729"], switch_from="wlan",
        switch_to="cellular",
        interfaces=[
            InterfaceDescriptor("wlan", Technology.WLAN_LIKE, 0.5,
                                LinkParams(54_000.0, 5_000)),
            InterfaceDescriptor("cellular", Technology.CELLULAR_LIKE, 0.9,
                                LinkParams(384.0, (40_000, 80_000)))],
        call_duration_us=4_000_000, switch_offset_us=2_000_000,
        log_events=True, **kw)


def _split_run(spec, cut):
    """The call run to the horizon in two run_until calls, cut at `cut`."""
    runtime = _CallRuntime(spec)
    run_until = runtime.engine.run_until

    def in_two(t_end):
        run_until(cut)
        return run_until(t_end)

    runtime.engine.run_until = in_two
    result = runtime.run()
    return (trace_rows(result.trace), result.event_log,
            runtime.engine.dispatched)


def test_a_split_run_until_changes_nothing():
    spec = _spec()
    whole = _split_run(spec, 0)
    for cut in (1_000_000,      # the first grid point
                2_000_000,      # the trigger's grid point
                2_500_000,      # on the grid, mid-handoff
                2_510_001,      # off the grid
                5_000_000):     # the last grid point
        assert _split_run(spec, cut) == whole


def test_a_trigger_on_the_grid_dispatches_before_that_points_ticks():
    runtime = _CallRuntime(_spec())
    result = runtime.run()
    t = result.t_trigger
    assert t == 3_000_000   # call start 1 s + 2 s, on the 20 ms grid
    at_t = [line for line in result.event_log
            if line.startswith(f"{t} ")]
    assert at_t[:3] == [f"{t} handoff trigger", f"{t} media-tick ul",
                        f"{t} media-tick dl"]
    # so the packets generated at the trigger already see the hard switch
    rows = {(row[1], row[3]): row for row in trace_rows(result.trace)}
    assert rows[(UL, t)][4] == "cellular"
    assert rows[(DL, t)][6] == LOSS_CLOSED
    assert rows[(DL, t - 20_000)][6] is None


def test_every_dispatched_event_is_logged():
    runtime = _CallRuntime(_spec(procedure=HandoffProcedure.SOFT))
    result = runtime.run()
    assert len(result.event_log) == runtime.engine.dispatched
    assert result.event_log.count("1000000 media-tick ul") == 1
    assert sum(" media-tick " in line
               for line in result.event_log) == result.trace.generated
