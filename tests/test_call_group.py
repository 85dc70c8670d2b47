"""A procedure group (scenario.grouped) against run_call alone: the group
simulates its calls once up to the trigger and forks the paused call per
procedure, so each of its runs must equal run_call of its ungrouped spec on
every RunResult field. A fork can only be exact if no pending event is a closure,
which a copy would leave bound to the original run; a guard reads the
simulation's sources for one."""

import ast
import gc
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sipswitch.core import (
    CODEC_PRESETS,
    DL,
    LOSS_CLOSED,
    InterfaceDescriptor,
    LinkParams,
    SimulationError,
    Technology,
)
from sipswitch.handoff import HandoffProcedure
from sipswitch.scenario import (
    CallSpec,
    RunResult,
    _CallRuntime,
    grouped,
    run_call,
)
from sipswitch.simnet import UNLIMITED
from sipswitch.sip import SignalingConfig


def outcome(result):
    """Every field of a RunResult, as plain values to compare."""
    out = {}
    for name in (f.name for f in fields(RunResult)):
        value = getattr(result, name)
        if name == "trace":
            value = [(direction, packets.stream_id, packets.gen,
                      packets.iface, packets.arrival, packets.cause)
                     for direction, packets in value.directions.items()]
        elif name in ("signaling", "handoff_log"):
            value = value.lines
        elif name in ("state", "setup_transaction") and value is not None:
            value = dict(vars(value))
        out[name] = value
    return out


def attempt(run, spec):
    """outcome of run(spec), or the SimulationError it raised."""
    try:
        return outcome(run(spec))
    except SimulationError as exc:
        return repr(exc)


def group_outcomes(specs):
    return [attempt(run_call, spec) for spec in grouped(specs)]


def alone_outcomes(specs):
    return [attempt(run_call, spec) for spec in specs]


def spec_group(base, procedures=tuple(HandoffProcedure)):
    """base under each procedure, each with its own run id."""
    return [replace(base, procedure=procedure, run_id=f"run-{procedure.value}")
            for procedure in procedures]


PROP_DELAY = st.one_of(
    st.integers(0, 100_000),
    st.tuples(st.integers(0, 60_000),
              st.sampled_from([1, 2, 7, 1_024, 40_000])).map(
        lambda p: (p[0], p[0] + p[1])))
LINK = st.builds(
    LinkParams,
    bitrate_kbps=st.sampled_from([UNLIMITED, 32.0, 64.0, 384.0, 54_000.0]),
    prop_delay_us=PROP_DELAY,
    queue_capacity_pkts=st.integers(1, 60),
    loss_prob=st.sampled_from([0.0, 0.0, 0.02, 0.02, 0.3, 1.0]))
SIGNALING = st.builds(
    SignalingConfig,
    rtx_interval_ms=st.sampled_from([50, 100, 500]),
    max_retransmissions=st.integers(0, 3),
    fallback_timeout_ms=st.sampled_from([80, 150, 700, 2000]))


@st.composite
def group_specs(draw):
    """One call under all three procedures, in a drawn order."""
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
    base = CallSpec(
        codec=codec, procedure=HandoffProcedure.HARD,
        switch_from=switch_from, switch_to=switch_to,
        interfaces=[
            InterfaceDescriptor("wlan", Technology.WLAN_LIKE, 0.5,
                                draw(LINK)),
            InterfaceDescriptor("cellular", Technology.CELLULAR_LIKE, 0.9,
                                draw(LINK))],
        call_start_us=draw(st.sampled_from([300_000, 1_000_000,
                                            3_000_000]))
        + draw(st.integers(0, interval)),
        call_duration_us=duration, switch_offset_us=offset,
        switch_jitter_us=jitter, signaling=draw(SIGNALING),
        watchdog_us=draw(st.sampled_from([300_000, 10_000_000])),
        seed=draw(st.integers(0, 2 ** 32)), log_events=draw(st.booleans()))
    return spec_group(base, draw(st.permutations(list(HandoffProcedure))))


# derandomize keeps the suite's outcome fixed; drop it and raise
# max_examples to search further.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(group_specs())
def test_each_run_of_a_group_is_run_call_of_its_spec(specs):
    assert group_outcomes(specs) == alone_outcomes(specs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(group_specs(), st.one_of(st.integers(150_000, 1_200_000),
                                st.integers(0, 8_000_000)))
def test_a_fork_at_any_pause_and_its_original_run_on_as_the_call(specs,
                                                                 pause_us):
    # the fork shares nothing that either run changes, wherever it is
    # paused: also mid-setup, with transactions still sending
    check_fork_at(specs[0], pause_us)


def check_fork_at(spec, pause_us):
    """Pause spec's call at pause_us, fork it, and run the fork and then
    the paused call on: each must be run_call(spec)."""
    want = attempt(run_call, spec)
    paused = _CallRuntime(spec)
    paused._start()
    paused.engine.run_until(pause_us)
    twin = paused._fork(spec)
    assert attempt(lambda _: twin._finish(), spec) == want
    assert attempt(lambda _: paused._finish(), spec) == want


def _spec(switch=("wlan", "cellular"), **kw):
    """G729, 4 s with the trigger at 2 s; REGISTER and INVITE go by the
    cellular interface, the higher in q."""
    wlan = kw.pop("wlan", LinkParams(54_000.0, 5_000))
    cellular = kw.pop("cellular", LinkParams(384.0, (40_000, 80_000)))
    return CallSpec(
        codec=CODEC_PRESETS["G729"], procedure=HandoffProcedure.HARD,
        switch_from=switch[0], switch_to=switch[1],
        interfaces=[
            InterfaceDescriptor("wlan", Technology.WLAN_LIKE, 0.5, wlan),
            InterfaceDescriptor("cellular", Technology.CELLULAR_LIKE, 0.9,
                                cellular)],
        call_duration_us=4_000_000, switch_offset_us=2_000_000,
        log_events=True, **kw)


def test_a_call_aborted_before_the_trigger_is_finished_once():
    # no REGISTER gets out: setup is incomplete at the call start
    lost = LinkParams(54_000.0, 5_000, loss_prob=1.0)
    specs = spec_group(_spec(wlan=lost, cellular=lost))
    results = [run_call(spec) for spec in grouped(specs)]
    assert {r.abort_reason for r in results} == {"setup-incomplete"}
    assert results[0] is results[1] is results[2]
    assert group_outcomes(specs) == alone_outcomes(specs)


def test_a_watchdog_abort_is_run_call_s_in_every_branch():
    # the re-INVITE never crosses the new interface's uplink
    specs = spec_group(_spec(
        ("cellular", "wlan"), wlan=LinkParams(54_000.0, 5_000, loss_prob=1.0),
        watchdog_us=500_000))
    got = group_outcomes(specs)
    assert {run["abort_reason"] for run in got} == {"watchdog"}
    assert got == alone_outcomes(specs)


def test_a_cn_switch_that_ties_with_a_grid_point_is_run_call_s():
    # a 0 ms new uplink: the re-INVITE sent at the on-grid trigger reaches
    # the CN at that grid point, and the DL packet generated then still
    # takes the Closed old route under hard (the scenario's docstring)
    specs = spec_group(_spec(cellular=LinkParams(UNLIMITED, 0)))
    got = group_outcomes(specs)
    hard = got[0]
    t = hard["t_trigger"]
    assert t == 3_000_000 and hard["state"]["t_cn_switch"] == t
    [(_, _, gens, _, _, causes)] = [d for d in hard["trace"] if d[0] == DL]
    assert causes[gens.index(t)] == LOSS_CLOSED
    assert got == alone_outcomes(specs)


def test_a_fork_with_a_message_in_flight_and_a_resend_due_is_run_call_s():
    # the INVITE falls back from the slow cellular path to wlan after 80 ms,
    # and the trigger comes 5 ms into the call, while an OK that took the
    # slow path is still in flight and the setup OK's resend timer is due
    specs = spec_group(replace(_spec(
        cellular=LinkParams(UNLIMITED, 60_000),
        wlan=LinkParams(UNLIMITED, 1_000),
        signaling=SignalingConfig(rtx_interval_ms=50, max_retransmissions=3,
                                  fallback_timeout_ms=80),
        call_start_us=400_000), switch_offset_us=5_000))
    paused = _CallRuntime(specs[0])
    paused._start()
    paused.engine.run_until(paused.t_trigger - 1)
    assert {"arrival", "sip-rtx", "media-tick"} <= {
        kind for _, _, kind, _, _ in paused.engine._heap}
    assert group_outcomes(specs) == alone_outcomes(specs)


def test_a_fork_mid_setup_resends_and_falls_back_on_its_own():
    # paused at 230 ms, the INVITE of 200 ms is unanswered: its resend at
    # 250 ms and its fallback to wlan at 280 ms are still to come
    spec = replace(_spec(
        cellular=LinkParams(UNLIMITED, 60_000),
        wlan=LinkParams(UNLIMITED, 1_000),
        signaling=SignalingConfig(rtx_interval_ms=50, max_retransmissions=3,
                                  fallback_timeout_ms=80),
        call_start_us=400_000), switch_offset_us=5_000)
    assert [iface for iface, _ in run_call(spec).setup_transaction.attempts
            ] == ["cellular", "cellular", "wlan"]
    check_fork_at(spec, 230_000)


def test_a_group_runs_each_spec_once_in_any_order_and_one_call_only():
    specs = spec_group(_spec())
    runs = grouped(specs)
    got = [outcome(run_call(runs[i])) for i in (2, 0, 1)]
    assert got == [outcome(run_call(specs[i])) for i in (2, 0, 1)]
    with pytest.raises(ValueError, match="not a run the group has left"):
        run_call(runs[0])
    with pytest.raises(ValueError, match="not a run the group has left"):
        runs[0].group.run(specs[0])   # not the group's
    with pytest.raises(ValueError, match="more than its procedure"):
        grouped([specs[0], replace(specs[1], seed=2)])


@pytest.mark.parametrize("changes,abort_reason", [
    ({}, None),
    ({"switch": ("cellular", "wlan"), "watchdog_us": 500_000,
      "wlan": LinkParams(54_000.0, 5_000, loss_prob=1.0)}, "watchdog"),
    ({"wlan": LinkParams(54_000.0, 5_000, loss_prob=1.0),
      "cellular": LinkParams(384.0, 40_000, loss_prob=1.0)},
     "setup-incomplete"),
], ids=["completed", "watchdog", "setup-abort"])
def test_a_taken_group_leaves_no_reference_cycle(changes, abort_reason):
    # the paused call and every fork go with the group's last run
    specs = spec_group(_spec(**changes))
    gc.collect()
    gc.disable()
    try:
        runs = grouped(specs)
        for spec in runs:
            result = run_call(spec)
            assert result.abort_reason == abort_reason
            del result
        del runs, spec
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# no closure among the pending events


SOURCES = [Path(__file__).parents[1] / "src" / "sipswitch" / name
           for name in ("scenario.py", "simnet.py", "sip.py")]


def _closures_passed_as_events(tree):
    """(line, text) of each lambda, or name of a function defined inside
    another, passed to schedule, schedule_in or start_clock, or as
    on_arrive=."""
    nested = {inner.name for outer in ast.walk(tree)
              if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
              for inner in ast.walk(outer)
              if inner is not outer
              and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))}

    def closure(node):
        return isinstance(node, ast.Lambda) or (
            isinstance(node, ast.Name) and node.id in nested)

    found = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        passed = [kw.value for kw in call.keywords if kw.arg == "on_arrive"]
        if name in ("schedule", "schedule_in", "start_clock"):
            passed += [*call.args, *(kw.value for kw in call.keywords)]
        found += [(node.lineno, ast.unparse(node))
                  for node in passed if closure(node)]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_pending_event_is_a_closure(path):
    assert _closures_passed_as_events(ast.parse(path.read_text())) == []


def test_the_closure_guard_finds_a_lambda_and_a_nested_def():
    tree = ast.parse(
        "def start(self):\n"
        "    def tick():\n"
        "        pass\n"
        "    self.engine.schedule(0, lambda: self.go())\n"
        "    self.engine.start_clock(0, 1, 2, tick, kind='k', subjects=())\n"
        "    link.transmit(40, on_arrive=lambda t: self.got(t))\n"
        "    self.engine.schedule(0, self.go)\n")
    assert [line for line, _ in _closures_passed_as_events(tree)] == [4, 5, 6]
