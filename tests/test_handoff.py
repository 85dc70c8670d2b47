import pytest

from sipswitch.core import DL, UL, Address, IfaceState
from sipswitch.handoff import (
    HandoffLog,
    HandoffPhase,
    HandoffProcedure,
    HandoffState,
    check_state,
    cn_on_reinvite,
    media_route,
    mn_on_ok,
    mn_trigger,
)
from sipswitch.sip import SipMessage, SipMethod


def fresh_state():
    return HandoffState(old_iface="wlan", new_iface="cellular")


def reinvite(msg_id=7, via="cellular"):
    return SipMessage(SipMethod.REINVITE, "mn", "cn", via, 700,
                      media_src=Address("mn", "cellular", 5004),
                      msg_id=msg_id)


def test_initial_state_defaults():
    s = fresh_state()
    assert s.phase is HandoffPhase.STABLE
    assert s.ul_media_iface == "wlan"
    assert s.dl_media_iface == "wlan"
    assert s.iface_states == {"wlan": IfaceState.UP, "cellular": IfaceState.UP}
    assert check_state(s, HandoffProcedure.HARD) == []


# ---------------------------------------------------------------------------
# trigger


def test_hard_trigger_closes_old_and_moves_uplink():
    s = fresh_state()
    actions = mn_trigger(s, HandoffProcedure.HARD, 31_000_000)
    assert actions == [("send-reinvite", "cellular"),
                       ("close-iface", "wlan"),
                       ("set-uplink", "cellular")]
    assert s.phase is HandoffPhase.SWITCHING
    assert s.t_trigger == 31_000_000
    assert s.iface_states["wlan"] is IfaceState.CLOSED
    assert s.ul_media_iface == "cellular"
    assert check_state(s, HandoffProcedure.HARD) == []


def test_hybrid_trigger_moves_uplink_but_keeps_old_open():
    s = fresh_state()
    actions = mn_trigger(s, HandoffProcedure.HYBRID, 31_000_000)
    assert actions == [("send-reinvite", "cellular"),
                       ("set-uplink", "cellular")]
    assert s.iface_states["wlan"] is IfaceState.UP
    assert s.ul_media_iface == "cellular"
    assert check_state(s, HandoffProcedure.HYBRID) == []


def test_soft_trigger_changes_no_media_path():
    s = fresh_state()
    actions = mn_trigger(s, HandoffProcedure.SOFT, 31_000_000)
    assert actions == [("send-reinvite", "cellular")]
    assert s.iface_states["wlan"] is IfaceState.UP
    assert s.ul_media_iface == "wlan"
    assert check_state(s, HandoffProcedure.SOFT) == []


def test_trigger_refused_when_new_interface_not_up():
    for bad in (IfaceState.DOWN, IfaceState.CLOSED):
        s = fresh_state()
        s.iface_states["cellular"] = bad
        actions = mn_trigger(s, HandoffProcedure.HARD, 1)
        assert actions == [("warn", "trigger-refused:new-iface-not-up")]
        assert s.phase is HandoffPhase.STABLE
        assert s.t_trigger is None


def test_trigger_refused_when_not_stable():
    s = fresh_state()
    mn_trigger(s, HandoffProcedure.SOFT, 1)
    actions = mn_trigger(s, HandoffProcedure.SOFT, 2)
    assert actions == [("warn", "trigger-refused:phase-Switching")]
    assert s.t_trigger == 1  # unchanged


# ---------------------------------------------------------------------------
# re-INVITE at the CN


def test_first_reinvite_retargets_downlink():
    s = fresh_state()
    mn_trigger(s, HandoffProcedure.SOFT, 10)
    actions = cn_on_reinvite(s, reinvite(), 25)
    assert actions == [("send-ok", "cellular"), ("set-cn-dst", "cellular")]
    assert s.dl_media_iface == "cellular"
    assert s.t_cn_switch == 25


def test_duplicate_reinvite_gets_ok_but_changes_nothing():
    s = fresh_state()
    mn_trigger(s, HandoffProcedure.SOFT, 10)
    cn_on_reinvite(s, reinvite(msg_id=7), 25)
    actions = cn_on_reinvite(s, reinvite(msg_id=7), 40)
    assert actions == [("send-ok", "cellular")]
    assert s.t_cn_switch == 25  # first arrival stands


def test_cn_on_reinvite_rejects_other_methods():
    with pytest.raises(ValueError):
        cn_on_reinvite(fresh_state(),
                       SipMessage(SipMethod.OK, "mn", "cn", "cellular", 450), 5)


# ---------------------------------------------------------------------------
# OK at the MN


def test_ok_completes_hard_with_no_further_media_changes():
    s = fresh_state()
    mn_trigger(s, HandoffProcedure.HARD, 10)
    cn_on_reinvite(s, reinvite(), 25)
    actions = mn_on_ok(s, HandoffProcedure.HARD, 50)
    assert actions == []
    assert s.phase is HandoffPhase.COMPLETED
    assert s.t_completed == 50
    assert check_state(s, HandoffProcedure.HARD) == []


def test_ok_closes_old_interface_for_hybrid():
    s = fresh_state()
    mn_trigger(s, HandoffProcedure.HYBRID, 10)
    cn_on_reinvite(s, reinvite(), 25)
    actions = mn_on_ok(s, HandoffProcedure.HYBRID, 50)
    assert actions == [("close-iface", "wlan")]
    assert s.iface_states["wlan"] is IfaceState.CLOSED
    assert check_state(s, HandoffProcedure.HYBRID) == []


def test_ok_moves_uplink_and_closes_old_for_soft():
    s = fresh_state()
    mn_trigger(s, HandoffProcedure.SOFT, 10)
    cn_on_reinvite(s, reinvite(), 25)
    actions = mn_on_ok(s, HandoffProcedure.SOFT, 50)
    assert actions == [("set-uplink", "cellular"), ("close-iface", "wlan")]
    assert s.ul_media_iface == "cellular"
    assert s.iface_states["wlan"] is IfaceState.CLOSED
    assert check_state(s, HandoffProcedure.SOFT) == []


def test_ok_without_pending_handoff_warns():
    s = fresh_state()
    assert mn_on_ok(s, HandoffProcedure.SOFT, 5) == \
        [("warn", "ok-with-no-pending-handoff")]
    assert s.phase is HandoffPhase.STABLE


# ---------------------------------------------------------------------------
# media routing


def test_stable_routes_both_directions_through_old():
    # media_route names the MN interface that carries the packet
    s = fresh_state()
    assert media_route(s, UL) == "wlan"
    assert media_route(s, DL) == "wlan"


def test_hard_switching_drops_downlink_until_cn_retargets():
    s = fresh_state()
    mn_trigger(s, HandoffProcedure.HARD, 10)
    # uplink already re-routed; downlink still aimed at the Closed interface
    assert media_route(s, UL) == "cellular"
    assert media_route(s, DL) is None
    cn_on_reinvite(s, reinvite(), 25)
    assert media_route(s, DL) == "cellular"


def test_hybrid_switching_loses_nothing():
    s = fresh_state()
    mn_trigger(s, HandoffProcedure.HYBRID, 10)
    # old interface still open: downlink keeps arriving there
    assert media_route(s, UL) == "cellular"
    assert media_route(s, DL) == "wlan"
    cn_on_reinvite(s, reinvite(), 25)
    assert media_route(s, DL) == "cellular"
    mn_on_ok(s, HandoffProcedure.HYBRID, 50)
    assert media_route(s, DL) == "cellular"
    assert media_route(s, UL) == "cellular"


def test_soft_switching_keeps_uplink_on_old_until_ok():
    s = fresh_state()
    mn_trigger(s, HandoffProcedure.SOFT, 10)
    assert media_route(s, UL) == "wlan"
    cn_on_reinvite(s, reinvite(), 25)
    assert media_route(s, UL) == "wlan"
    mn_on_ok(s, HandoffProcedure.SOFT, 50)
    assert media_route(s, UL) == "cellular"
    assert media_route(s, DL) == "cellular"


def test_media_route_rejects_unknown_direction():
    with pytest.raises(ValueError):
        media_route(fresh_state(), "sideways")


# ---------------------------------------------------------------------------
# invariant checking and logging


def test_check_state_flags_corrupted_states():
    s = fresh_state()
    s.ul_media_iface = "cellular"  # Stable but uplink moved
    assert check_state(s, HandoffProcedure.SOFT) == \
        ["Stable but uplink not on old interface"]

    s = fresh_state()
    mn_trigger(s, HandoffProcedure.HARD, 10)
    s.iface_states["wlan"] = IfaceState.UP  # hard must have closed it
    assert check_state(s, HandoffProcedure.HARD) == \
        ["hard Switching but old interface not Closed"]

    s = fresh_state()
    mn_trigger(s, HandoffProcedure.SOFT, 10)
    s.ul_media_iface = "cellular"  # soft must not move uplink early
    assert check_state(s, HandoffProcedure.SOFT) == \
        ["soft Switching but uplink left old interface early"]

    s = fresh_state()
    mn_trigger(s, HandoffProcedure.HYBRID, 10)
    cn_on_reinvite(s, reinvite(), 25)
    mn_on_ok(s, HandoffProcedure.HYBRID, 50)
    s.iface_states["wlan"] = IfaceState.UP
    assert check_state(s, HandoffProcedure.HYBRID) == \
        ["Completed but old interface not Closed"]

    s = fresh_state()
    s.dl_media_iface = "cellular"  # CN retargeted with no re-INVITE
    assert check_state(s, HandoffProcedure.SOFT) == \
        ["Stable but CN targets a non-old address"]

    s = fresh_state()
    mn_trigger(s, HandoffProcedure.SOFT, 10)
    cn_on_reinvite(s, reinvite(), 25)
    mn_on_ok(s, HandoffProcedure.SOFT, 50)
    s.dl_media_iface = "wlan"  # the CN's switch undone
    assert check_state(s, HandoffProcedure.SOFT) == \
        ["Completed but CN not targeting new address"]

    s = fresh_state()
    mn_trigger(s, HandoffProcedure.SOFT, 10)
    cn_on_reinvite(s, reinvite(), 25)
    mn_on_ok(s, HandoffProcedure.SOFT, 50)
    s.ul_media_iface = "wlan"  # the uplink move undone
    assert check_state(s, HandoffProcedure.SOFT) == \
        ["Completed but uplink not on new interface"]


def test_full_lifecycle_is_invariant_clean_for_every_procedure():
    for proc in HandoffProcedure:
        s = fresh_state()
        assert check_state(s, proc) == []
        mn_trigger(s, proc, 10)
        assert check_state(s, proc) == []
        cn_on_reinvite(s, reinvite(), 25)
        assert check_state(s, proc) == []
        mn_on_ok(s, proc, 50)
        assert check_state(s, proc) == []
        assert (s.t_trigger, s.t_cn_switch, s.t_completed) == (10, 25, 50)


def test_handoff_log_format():
    log = HandoffLog()
    log.record(31_000_000, "MN", "trigger", "Stable", "Switching")
    assert log.lines == ["(31000000, MN, trigger, Stable, Switching)"]
