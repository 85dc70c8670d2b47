import gc
from dataclasses import replace

import pytest

from sipswitch.core import (
    CODEC_PRESETS,
    DL,
    LOSS_CLOSED,
    LOSS_LINK_DOWN,
    UL,
    IfaceState,
    InterfaceDescriptor,
    LinkParams,
    SimulationError,
    Technology,
)
from sipswitch.handoff import HandoffPhase, HandoffProcedure
from sipswitch.scenario import CallSpec, _CallRuntime, run_call
from sipswitch.sip import DELIVERED, SignalingConfig

from trace_rows import lost_count, trace_rows


def base_spec(codec="G711", procedure=HandoffProcedure.HYBRID,
              direction=("wlan", "cellular"), seed=1, cellular_prop=(40_000, 80_000),
              **kw):
    interfaces = [
        InterfaceDescriptor("wlan", Technology.WLAN_LIKE, 0.5,
                            LinkParams(54_000.0, 5_000)),
        InterfaceDescriptor("cellular", Technology.CELLULAR_LIKE, 0.9,
                            LinkParams(384.0, cellular_prop)),
    ]
    kw.setdefault("call_duration_us", 10_000_000)
    kw.setdefault("switch_offset_us", 5_000_000)
    return CallSpec(codec=CODEC_PRESETS[codec], procedure=procedure,
                    switch_from=direction[0], switch_to=direction[1],
                    interfaces=interfaces, seed=seed, **kw)


def with_wlan(spec, **changes):
    """spec with its wlan interface changed: q_weight, link or state."""
    spec.interfaces = [replace(i, **changes) if i.iface_id == "wlan" else i
                       for i in spec.interfaces]
    return spec


# ---------------------------------------------------------------------------
# loss behavior per procedure


@pytest.mark.parametrize("procedure", [HandoffProcedure.HYBRID,
                                       HandoffProcedure.SOFT])
@pytest.mark.parametrize("direction", [("wlan", "cellular"),
                                       ("cellular", "wlan")])
def test_hybrid_and_soft_lose_nothing(procedure, direction):
    result = run_call(base_spec(procedure=procedure, direction=direction))
    assert not result.aborted
    assert result.state.phase is HandoffPhase.COMPLETED
    assert lost_count(result.trace) == 0
    assert result.trace.generated == 2 * 501  # both directions, 10 s of 20 ms


def test_hard_loses_exactly_the_downlink_gap_packets():
    # fixed 60 ms cellular delay makes the gap deterministic:
    # re-INVITE serialization 700 B at 384 kbps = 14583 us, plus 60 ms prop
    result = run_call(base_spec(procedure=HandoffProcedure.HARD,
                                direction=("wlan", "cellular"),
                                cellular_prop=60_000))
    assert not result.aborted
    assert result.t_trigger == 6_000_000
    assert result.closed_old_at == 6_000_000
    assert result.t_cn_switch == 6_074_583
    lost_rows = [r for r in trace_rows(result.trace, DL) if r[6] is not None]
    assert [r[3] for r in lost_rows] == [6_000_000, 6_020_000,
                                         6_040_000, 6_060_000]
    assert all(r[6] == LOSS_CLOSED for r in lost_rows)
    # uplink is already on the new interface: nothing lost there
    assert all(r[6] is None for r in trace_rows(result.trace, UL))


@pytest.mark.parametrize("offset_us, prop_us, t_cn_switch, lost", [
    # trigger on the grid at 3 s; at 0 ms the copy arrives in the us it
    # was sent, after the media clock queued its entry for that point
    (2_000_000, 0, 3_000_000, [3_000_000]),
    (2_000_000, 20_000, 3_020_000, [3_000_000]),
    (2_000_000, 40_000, 3_040_000, [3_000_000, 3_020_000]),
    # trigger at 3.005 s; at 15 ms the copy arrives on 3.02 s, whose entry
    # was queued when 3.0 s ran, before the copy was sent
    (2_005_000, 15_000, 3_020_000, [3_020_000]),
    (2_005_000, 14_999, 3_019_999, []),
    (2_005_000, 35_000, 3_040_000, [3_020_000]),
], ids=["0ms", "20ms", "40ms", "off-grid-15ms", "off-grid-14.999ms",
        "off-grid-35ms"])
def test_the_dl_packet_at_the_cn_switch_is_lost_only_in_the_tie(
        offset_us, prop_us, t_cn_switch, lost):
    # G729 hard, wlan to an ideal cellular link with a fixed delay
    spec = base_spec(codec="G729", procedure=HandoffProcedure.HARD,
                     call_duration_us=4_000_000, switch_offset_us=offset_us)
    spec.interfaces = [replace(i, link=LinkParams(None, prop_us))
                       if i.iface_id == "cellular" else i
                       for i in spec.interfaces]
    result = run_call(spec)
    assert result.t_trigger == 1_000_000 + offset_us
    assert result.t_cn_switch == t_cn_switch
    dl = trace_rows(result.trace, DL)
    assert [r[3] for r in dl if r[6] is not None] == lost
    assert all(r[6] == LOSS_CLOSED for r in dl if r[6] is not None)


def test_hard_gap_is_smaller_toward_the_faster_interface():
    # switching cellular -> wlan: re-INVITE takes 104 us + 5 ms
    result = run_call(base_spec(procedure=HandoffProcedure.HARD,
                                direction=("cellular", "wlan")))
    assert result.t_cn_switch - result.t_trigger == 5_104
    lost_rows = [r for r in trace_rows(result.trace) if r[6] is not None]
    assert [(r[1], r[3], r[6]) for r in lost_rows] == \
        [(DL, 6_000_000, LOSS_CLOSED)]


def test_packets_in_flight_at_close_are_still_delivered():
    result = run_call(base_spec(procedure=HandoffProcedure.HARD,
                                direction=("wlan", "cellular"),
                                cellular_prop=60_000))
    for r in trace_rows(result.trace, DL):
        if r[3] < result.closed_old_at:
            assert r[5] is not None  # generated before the close: delivered


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_reproduces_the_run_exactly():
    spec = base_spec(seed=7, log_events=True)
    a, b = run_call(spec), run_call(spec)
    assert trace_rows(a.trace) == trace_rows(b.trace)
    assert a.signaling.lines == b.signaling.lines
    assert a.handoff_log.lines == b.handoff_log.lines
    assert a.event_log == b.event_log


def test_different_seeds_differ():
    a = run_call(base_spec(seed=1))
    b = run_call(base_spec(seed=2))
    # random cellular delays diverge
    assert trace_rows(a.trace) != trace_rows(b.trace)


@pytest.mark.parametrize("changes,abort_reason", [
    *(({"procedure": procedure}, None) for procedure in HandoffProcedure),
    # mid-call: both re-INVITE sends dropped, the watchdog ends the call
    ({"procedure": HandoffProcedure.HARD, "watchdog_us": 2_000_000,
      "signaling_drop_plan": frozenset({("REINVITE", 0), ("REINVITE", 1)})},
     "watchdog"),
    # at the call start: no signaling gets out
    ({"down_links": frozenset({"wlan-ul", "cellular-ul"})},
     "setup-incomplete"),
], ids=[*map(str, HandoffProcedure), "watchdog", "setup-abort"])
def test_a_finished_run_leaves_no_reference_cycle(changes, abort_reason):
    # a campaign drops each run's result after exporting it; the trace must
    # go then, not linger until the collector's next full pass, also when
    # the run aborted with events and the media clock still pending
    spec = base_spec(**changes)
    gc.collect()
    gc.disable()
    try:
        result = run_call(spec)
        assert result.abort_reason == abort_reason
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# signaling behavior around the call


def test_single_register_carries_both_interfaces_sorted_by_q():
    runtime = _CallRuntime(base_spec())
    result = runtime.run()
    assert sum(", REGISTER," in l for l in result.signaling.lines) == 1
    entries = runtime.bindings["mn"]
    assert [c.iface for c in entries] == ["cellular", "wlan"]
    assert [c.q_weight for c in entries] == [0.9, 0.5]


def test_invite_goes_to_the_top_priority_contact_first():
    result = run_call(base_spec())
    txn = result.setup_transaction
    assert txn.status == DELIVERED
    assert [a for a, _ in txn.attempts] == ["cellular"]


def test_media_interface_is_independent_of_signaling_priority():
    # signaling prefers cellular (q 0.9) but the call starts on wlan
    result = run_call(base_spec(direction=("wlan", "cellular")))
    pre_switch_ul = [r for r in trace_rows(result.trace, UL)
                     if r[3] < result.t_trigger]
    assert pre_switch_ul
    assert {r[4] for r in pre_switch_ul} == {"wlan"}


@pytest.mark.parametrize("procedure", HandoffProcedure, ids=lambda p: p.value)
def test_handoff_log_records_the_transition_sequence(procedure):
    result = run_call(base_spec(procedure=procedure,
                                direction=("cellular", "wlan")))
    t0, tc, td = result.t_trigger, result.t_cn_switch, result.t_completed
    trigger = f"({t0}, MN, trigger, Stable, Switching)"
    dst_switch = f"({tc}, CN, dst-switch, Switching, Switching)"
    ok = f"({td}, MN, ok, Switching, Completed)"
    assert result.handoff_log.lines == {
        HandoffProcedure.HARD: [
            trigger,
            f"({t0}, MN, close-cellular, Switching, Switching)",
            f"({t0}, MN, uplink-wlan, Switching, Switching)",
            dst_switch, ok],
        HandoffProcedure.HYBRID: [
            trigger,
            f"({t0}, MN, uplink-wlan, Switching, Switching)",
            dst_switch,
            f"({td}, MN, close-cellular, Completed, Completed)",
            ok],
        HandoffProcedure.SOFT: [
            trigger, dst_switch,
            f"({td}, MN, uplink-wlan, Completed, Completed)",
            f"({td}, MN, close-cellular, Completed, Completed)",
            ok],
    }[procedure]
    hard = procedure is HandoffProcedure.HARD
    assert result.closed_old_at == (t0 if hard else td)


def test_trigger_refused_when_new_interface_not_up():
    # the one handoff.log line no golden tree reaches: the switch is
    # refused, and the call goes on to its end on the old interface
    spec = base_spec()
    spec.interfaces = [replace(i, state=IfaceState.DOWN)
                       if i.iface_id == "cellular" else i
                       for i in spec.interfaces]
    result = run_call(spec)
    t = spec.call_start_us + spec.switch_offset_us
    assert result.handoff_log.lines == [
        f"({t}, MN, warn:trigger-refused:new-iface-not-up, Stable, Stable)"]
    assert not result.aborted
    assert result.state.phase is HandoffPhase.STABLE
    assert {r[4] for r in trace_rows(result.trace, UL)} == {"wlan"}


def test_hard_closes_at_trigger_soft_closes_at_ok():
    hard = run_call(base_spec(procedure=HandoffProcedure.HARD))
    assert hard.closed_old_at == hard.t_trigger
    soft = run_call(base_spec(procedure=HandoffProcedure.SOFT))
    assert soft.closed_old_at == soft.t_completed
    # soft keeps uplink on the old interface until the OK arrives
    in_between = [r for r in trace_rows(soft.trace, UL)
                  if soft.t_trigger <= r[3] < soft.t_completed]
    assert in_between and {r[4] for r in in_between} == {"wlan"}


def test_forced_drop_plan_is_recovered_by_retransmission():
    spec = base_spec(signaling_drop_plan=frozenset({("REINVITE", 0)}))
    result = run_call(spec)
    assert not result.aborted
    assert result.state.phase is HandoffPhase.COMPLETED
    dropped = [l for l in result.signaling.lines
               if "REINVITE" in l and "dropped:forced" in l]
    delivered = [l for l in result.signaling.lines
                 if "REINVITE" in l and "delivered@" in l]
    assert len(dropped) == 1 and len(delivered) == 1
    # recovery costs one retransmission interval
    assert result.t_completed - result.t_trigger > 500_000


def test_two_dropped_reinvites_complete_on_the_third_send():
    spec = base_spec(
        signaling=SignalingConfig(max_retransmissions=2),
        signaling_drop_plan=frozenset({("REINVITE", 0), ("REINVITE", 1)}))
    result = run_call(spec)
    assert not result.aborted
    assert result.state.phase is HandoffPhase.COMPLETED
    reinvites = [l for l in result.signaling.lines if ", REINVITE," in l]
    t0 = result.t_trigger
    assert [l.split(",")[0] for l in reinvites] == \
        [f"({t0}", f"({t0 + 500_000}", f"({t0 + 1_000_000}"]
    assert ["dropped:forced" in l for l in reinvites] == [True, True, False]
    assert result.t_completed - t0 > 1_000_000


def test_watchdog_aborts_a_dead_handshake():
    plan = frozenset({("REINVITE", 0), ("REINVITE", 1),
                      ("OK", 0), ("OK", 1)})
    spec = base_spec(signaling_drop_plan=plan, watchdog_us=2_000_000)
    result = run_call(spec)
    assert result.aborted and result.abort_reason == "watchdog"
    assert result.state.phase is HandoffPhase.SWITCHING
    deadline = result.t_trigger + 2_000_000
    assert any("watchdog-abort" in l for l in result.handoff_log.lines)
    # the run stops at the abort: no media generated afterwards
    assert all(r[3] <= deadline for r in trace_rows(result.trace))


def test_setup_failure_aborts_before_any_media():
    spec = base_spec(down_links=frozenset({"wlan-dl", "cellular-dl"}))
    result = run_call(spec)
    assert result.aborted and result.abort_reason == "setup-incomplete"
    assert result.trace.generated == 0


def test_down_uplink_records_link_down_losses_until_the_switch():
    # wlan uplink is dead; signaling survives via cellular, so the call
    # sets up, and every uplink packet is lost until the trigger moves it
    spec = base_spec(procedure=HandoffProcedure.HYBRID,
                     direction=("wlan", "cellular"),
                     down_links=frozenset({"wlan-ul"}))
    result = run_call(spec)
    assert not result.aborted
    ul_lost = [r for r in trace_rows(result.trace, UL) if r[6] is not None]
    assert all(r[6] == LOSS_LINK_DOWN for r in ul_lost)
    # packets on [1 s, 6 s) at 20 ms cadence
    assert len(ul_lost) == 250
    causes = [r[6] for r in trace_rows(result.trace)]
    assert causes.count(LOSS_LINK_DOWN) == 250
    assert all(r[6] is None for r in trace_rows(result.trace, DL))


# ---------------------------------------------------------------------------
# spec validation


def test_invalid_specs_are_rejected_with_reasons():
    spec = base_spec()
    spec.switch_to = spec.switch_from
    with pytest.raises(SimulationError, match="switch_from equals switch_to"):
        run_call(spec)

    spec = base_spec()
    spec.interfaces = spec.interfaces[:1]
    with pytest.raises(SimulationError,
                       match="switch interface 'cellular' not among"):
        run_call(spec)

    spec = base_spec()
    spec.switch_offset_us = spec.call_duration_us
    with pytest.raises(SimulationError, match="switch offset"):
        run_call(spec)

    # the jittered trigger must stay inside the call on both sides
    for offset, jitter in ((500_000, 5_000_000), (5_000_000, 5_000_000),
                           (8_000_000, 2_000_000), (5_000_000, -1)):
        spec = base_spec(switch_offset_us=offset, switch_jitter_us=jitter)
        with pytest.raises(SimulationError,
                           match="invalid call spec: switch offset"):
            run_call(spec)
    assert base_spec(switch_jitter_us=4_999_999).validate() == []

    # a run needs an Up interface to register, and Closed is the state only
    # the switch itself sets
    spec = base_spec()
    spec.interfaces = [replace(i, state=IfaceState.DOWN)
                       for i in spec.interfaces]
    with pytest.raises(SimulationError, match="no interface starts Up"):
        run_call(spec)
    spec = with_wlan(base_spec(), state=IfaceState.CLOSED)
    with pytest.raises(SimulationError,
                       match="interface 'wlan': state must start Up or Down"):
        run_call(spec)

    assert base_spec().validate() == []


@pytest.mark.parametrize("link,field", [
    (LinkParams(5e-324, 5_000), "bitrate_kbps"),     # serialization overflow
    (LinkParams(54_000.0, -1), "prop_delay_us"),
    (LinkParams(54_000.0, (80_000, 40_000)), "prop_delay_us"),
    (LinkParams(54_000.0, 2 ** 80), "prop_delay_us"),
    (LinkParams(54_000.0, 5_000, queue_capacity_pkts=0),
     "queue_capacity_pkts"),
    (LinkParams(54_000.0, 5_000, loss_prob=float("nan")), "loss_prob"),
    (LinkParams(0.0, 5_000), "bitrate_kbps"),
    (LinkParams(54_000.0, 5_000, loss_prob=1.5), "loss_prob"),
    # a fractional us delay used to put float times into the engine
    (LinkParams(54_000.0, 5_000.5), "prop_delay_us"),
    (LinkParams(54_000.0, (40_000, 80_000.5)), "prop_delay_us"),
    # so did an integral float delay: arrival times came out as floats
    (LinkParams(54_000.0, 5_000.0), "prop_delay_us"),
])
def test_spec_links_obey_the_config_link_rules(link, field):
    # the library path applies the link rules that the config loader
    # applies, with the delay in integral us
    spec = with_wlan(base_spec(), link=link)
    with pytest.raises(SimulationError,
                       match=f"invalid call spec: interface 'wlan': {field} "):
        run_call(spec)


@pytest.mark.parametrize("q", [-0.1, 1.01, 2.0, float("nan"), None])
def test_spec_interfaces_obey_the_q_weight_rule(q):
    # the rule the config loader applies to q_weight
    spec = with_wlan(base_spec(), q_weight=q)
    with pytest.raises(SimulationError,
                       match="invalid call spec: interface 'wlan': q_weight "):
        run_call(spec)


@pytest.mark.parametrize("changes,message", [
    # the first four used to pass on the library path though the config
    # rejects them
    ({"call_start_us": 1_000_000.5}, "call_start_us must be an integer"),
    ({"watchdog_us": 0}, "watchdog_us must be > 0"),
    ({"header_overhead_bytes": 10 ** 6},
     "header_overhead_bytes must be <= 65535"),
    ({"switch_offset_us": 5_000_000.5}, "switch_offset_us must be an integer"),
    ({"call_duration_us": 0}, "call_duration_us must be > 0"),
    ({"header_overhead_bytes": -1}, "header_overhead_bytes must be >= 0"),
    ({"call_start_us": 2 ** 60}, "call_start_us must be <= 9007199254740992"),
    # a time in us is not converted, so a float would reach the trace
    ({"call_start_us": 1_000_000.0}, "call_start_us must be an int"),
])
def test_spec_times_and_sizes_obey_their_rules(changes, message):
    with pytest.raises(SimulationError,
                       match=f"invalid call spec: {message}"):
        run_call(base_spec(**changes))


def test_a_delay_pair_may_be_a_list_or_a_tuple():
    # core.Range accepts both, as YAML gives lists; the link used to take
    # only a tuple and failed with a TypeError on the list
    as_list = run_call(base_spec(cellular_prop=[40_000, 80_000]))
    as_tuple = run_call(base_spec(cellular_prop=(40_000, 80_000)))
    assert not as_list.aborted
    assert trace_rows(as_list.trace) == trace_rows(as_tuple.trace)
