import pytest

from sipswitch.config import build_call_spec
from sipswitch.core import DL, UL, LineLog
from sipswitch.handoff import (
    PROCEDURE_STEPS,
    HandoffPhase,
    HandoffProcedure,
    HandoffState,
    Step,
    check_state,
    media_route,
)
from sipswitch.scenario import run_call

from faults import run_faulty

HARD, HYBRID, SOFT = HandoffProcedure


def fresh_state():
    return HandoffState(old_iface="wlan", new_iface="cellular")


# The runtime's three moves, as it makes them: the MN's trigger at 10 and OK
# at 50 each enter a phase and apply their row of the table, in order; the
# CN's first re-INVITE at 25 retargets the downlink.

def trigger(s, proc):
    s.phase, s.t_trigger = HandoffPhase.SWITCHING, 10
    return [step.apply(s, 10) for step in PROCEDURE_STEPS[proc][0]]


def cn_switch(s):
    s.dl_media_iface, s.t_cn_switch = s.new_iface, 25


def ok(s, proc):
    s.phase, s.t_completed = HandoffPhase.COMPLETED, 50
    return [step.apply(s, 50) for step in PROCEDURE_STEPS[proc][1]]


def test_initial_state_defaults():
    s = fresh_state()
    assert s.phase is HandoffPhase.STABLE
    assert s.ul_media_iface == "wlan"
    assert s.dl_media_iface == "wlan"
    assert s.closed_old_at is None
    assert not s.closed("wlan") and not s.closed("cellular")
    assert not any(step.applied(s) for step in Step)
    assert check_state(s, HARD) == []


# ---------------------------------------------------------------------------
# trigger


def test_hard_trigger_closes_old_and_moves_uplink():
    s = fresh_state()
    assert trigger(s, HARD) == ["close-wlan", "uplink-cellular"]
    assert s.closed_old_at == 10
    assert s.closed("wlan") and not s.closed("cellular")
    assert s.ul_media_iface == "cellular"
    assert check_state(s, HARD) == []


def test_hybrid_trigger_moves_uplink_but_keeps_old_open():
    s = fresh_state()
    assert trigger(s, HYBRID) == ["uplink-cellular"]
    assert s.closed_old_at is None
    assert not s.closed("wlan")
    assert s.ul_media_iface == "cellular"
    assert check_state(s, HYBRID) == []


def test_soft_trigger_changes_no_media_path():
    s = fresh_state()
    assert trigger(s, SOFT) == []
    assert s.closed_old_at is None
    assert s.ul_media_iface == "wlan"
    assert check_state(s, SOFT) == []


# ---------------------------------------------------------------------------
# re-INVITE at the CN, run end to end


def reinvites(result):
    """Arrival times of the re-INVITE copies that reached the CN."""
    return [int(line.rsplit("delivered@", 1)[1].rstrip(")"))
            for line in result.signaling.lines
            if ", REINVITE," in line and "delivered@" in line]


def test_first_reinvite_retargets_downlink(make_config):
    result = run_call(build_call_spec(make_config(), "G729", "soft",
                                      "wlan-to-cellular", 0))
    t_cn_switch = result.state.t_cn_switch
    assert reinvites(result) == [t_cn_switch]
    assert result.state.dl_media_iface == "cellular"
    assert [l for l in result.handoff_log.lines if ", CN," in l] == [
        f"({t_cn_switch}, CN, dst-switch, Switching, Switching)"]


def test_duplicate_reinvite_gets_ok_but_changes_nothing(make_config):
    # the CN's first OK is lost, so the MN resends its re-INVITE
    spec = build_call_spec(make_config(), "G729", "soft",
                           "wlan-to-cellular", 0)
    result = run_faulty(spec, drops=frozenset({("OK", 0)}))
    first, duplicate = reinvites(result)
    assert result.state.t_cn_switch == first  # the first arrival stands
    assert any(l.startswith(f"({duplicate}, OK, cn, mn,")
               for l in result.signaling.lines)
    assert sum(", CN," in l for l in result.handoff_log.lines) == 1
    assert result.state.phase is HandoffPhase.COMPLETED


# ---------------------------------------------------------------------------
# OK at the MN


def test_ok_completes_hard_with_no_further_media_changes():
    s = fresh_state()
    trigger(s, HARD)
    cn_switch(s)
    assert ok(s, HARD) == []
    assert s.phase is HandoffPhase.COMPLETED
    assert s.closed_old_at == 10
    assert check_state(s, HARD) == []


def test_ok_closes_old_interface_for_hybrid():
    s = fresh_state()
    trigger(s, HYBRID)
    cn_switch(s)
    assert ok(s, HYBRID) == ["close-wlan"]
    assert s.closed_old_at == 50
    assert s.closed("wlan") and not s.closed("cellular")
    assert check_state(s, HYBRID) == []


def test_ok_moves_uplink_and_closes_old_for_soft():
    s = fresh_state()
    trigger(s, SOFT)
    cn_switch(s)
    assert ok(s, SOFT) == ["uplink-cellular", "close-wlan"]
    assert s.ul_media_iface == "cellular"
    assert s.closed_old_at == 50 and s.closed("wlan")
    assert check_state(s, SOFT) == []


# ---------------------------------------------------------------------------
# media routing


def test_stable_routes_both_directions_through_old():
    # media_route names the MN interface that carries the packet
    s = fresh_state()
    assert media_route(s, UL) == "wlan"
    assert media_route(s, DL) == "wlan"


def test_hard_switching_drops_downlink_until_cn_retargets():
    s = fresh_state()
    trigger(s, HARD)
    # uplink already re-routed; downlink still aimed at the Closed interface
    assert media_route(s, UL) == "cellular"
    assert media_route(s, DL) is None
    cn_switch(s)
    assert media_route(s, DL) == "cellular"


def test_hybrid_switching_loses_nothing():
    s = fresh_state()
    trigger(s, HYBRID)
    # old interface still open: downlink keeps arriving there
    assert media_route(s, UL) == "cellular"
    assert media_route(s, DL) == "wlan"
    cn_switch(s)
    assert media_route(s, DL) == "cellular"
    ok(s, HYBRID)
    assert media_route(s, DL) == "cellular"
    assert media_route(s, UL) == "cellular"


def test_soft_switching_keeps_uplink_on_old_until_ok():
    s = fresh_state()
    trigger(s, SOFT)
    assert media_route(s, UL) == "wlan"
    cn_switch(s)
    assert media_route(s, UL) == "wlan"
    ok(s, SOFT)
    assert media_route(s, UL) == "cellular"
    assert media_route(s, DL) == "cellular"


def test_media_route_rejects_unknown_direction():
    with pytest.raises(ValueError):
        media_route(fresh_state(), "sideways")


# ---------------------------------------------------------------------------
# invariant checking and logging


def corrupt(proc, phase, **fields):
    """check_state of a session taken to phase, then given the fields."""
    s = fresh_state()
    if phase is not HandoffPhase.STABLE:
        trigger(s, proc)
    if phase is HandoffPhase.COMPLETED:
        cn_switch(s)
        ok(s, proc)
    for name, value in fields.items():
        setattr(s, name, value)
    return check_state(s, proc)


STABLE, SWITCHING, COMPLETED = HandoffPhase
# the old interface closed at 10, or not closed
CLOSED, UP = {"closed_old_at": 10}, {"closed_old_at": None}


def test_check_state_flags_corrupted_states():
    for proc, phase, changes, violation in [
        (SOFT, STABLE, {"ul_media_iface": "cellular"},
         "soft Stable but uplink new applied"),
        (SOFT, STABLE, {"dl_media_iface": "cellular"},  # no re-INVITE yet
         "soft Stable but CN not targeting wlan"),
        (HARD, STABLE, CLOSED, "hard Stable but close old applied"),
        (HARD, SWITCHING, UP,
         "hard Switching but close old not applied"),
        (HARD, SWITCHING, {"ul_media_iface": "wlan"},
         "hard Switching but uplink new not applied"),
        (HYBRID, SWITCHING, CLOSED,
         "hybrid Switching but close old applied"),
        (HYBRID, SWITCHING, {"ul_media_iface": "wlan"},
         "hybrid Switching but uplink new not applied"),
        (SOFT, SWITCHING, {"ul_media_iface": "cellular"},  # moved early
         "soft Switching but uplink new applied"),
        (SOFT, SWITCHING, CLOSED,
         "soft Switching but close old applied"),
        (HYBRID, COMPLETED, UP,
         "hybrid Completed but close old not applied"),
        (SOFT, COMPLETED, {"dl_media_iface": "wlan"},  # the CN's switch undone
         "soft Completed but CN not targeting cellular"),
        (SOFT, COMPLETED, {"ul_media_iface": "wlan"},
         "soft Completed but uplink new not applied"),
    ]:
        assert corrupt(proc, phase) == []
        assert corrupt(proc, phase, **changes) == [violation]


def test_every_procedure_applies_each_step_once():
    # what Completed checks: the trigger and OK rows split the steps
    for at_trigger, at_ok in PROCEDURE_STEPS.values():
        assert sorted(at_trigger + at_ok, key=list(Step).index) == list(Step)
    assert list(PROCEDURE_STEPS) == list(HandoffProcedure)


def test_full_lifecycle_is_invariant_clean_for_every_procedure():
    for proc in HandoffProcedure:
        s = fresh_state()
        assert check_state(s, proc) == []
        trigger(s, proc)
        assert check_state(s, proc) == []
        cn_switch(s)
        assert check_state(s, proc) == []
        ok(s, proc)
        assert check_state(s, proc) == []
        assert all(step.applied(s) for step in Step)


def test_handoff_log_format():
    log = LineLog()
    log.record(31_000_000, "MN", "trigger", "Stable", "Switching")
    assert log.lines == ["(31000000, MN, trigger, Stable, Switching)"]
