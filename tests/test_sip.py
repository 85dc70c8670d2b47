import pytest

from sipswitch.core import (
    IfaceState,
    InterfaceDescriptor,
    LineLog,
    LinkParams,
    Technology,
)
from sipswitch.simnet import Engine
from sipswitch.sip import (
    DELIVERED,
    PENDING,
    UNREACHABLE,
    ClientTransaction,
    Contact,
    SignalingConfig,
    SipError,
    SipMessage,
    SipMethod,
    apply_register,
    build_register,
    retransmit,
)

# the interface ids that contacts and targets name
WLAN = "wlan"
CELL = "cellular"


def _iface(iface_id, q, state=IfaceState.UP):
    tech = Technology.WLAN_LIKE if iface_id == "wlan" else Technology.CELLULAR_LIKE
    return InterfaceDescriptor(iface_id, tech, q, LinkParams(None, 0), state)


# ---------------------------------------------------------------------------
# messages and bindings


def test_register_requires_contacts():
    # build_register makes every REGISTER: it needs an interface to contact
    with pytest.raises(SipError):
        build_register("mn", [])


def test_build_register_one_contact_per_up_interface():
    msg = build_register("mn", [
        _iface("wlan", 0.5),
        _iface("cellular", 0.9),
    ])
    assert msg.method is SipMethod.REGISTER
    assert msg.via_iface == "cellular"  # highest q among Up interfaces
    assert msg.contacts == (Contact(WLAN, 0.5), Contact(CELL, 0.9))
    assert msg.size_bytes == 450


def test_build_register_excludes_down_and_closed():
    msg = build_register("mn", [
        _iface("wlan", 0.5),
        _iface("cellular", 0.9, IfaceState.DOWN),
    ])
    assert msg.via_iface == "wlan"
    assert msg.contacts == (Contact(WLAN, 0.5),)
    msg = build_register("mn", [
        _iface("wlan", 0.5, IfaceState.CLOSED),
        _iface("cellular", 0.9),
    ])
    assert msg.contacts == (Contact(CELL, 0.9),)


def test_build_register_with_no_up_interface_raises():
    with pytest.raises(SipError):
        build_register("mn", [_iface("wlan", 0.5, IfaceState.DOWN)])


def test_apply_register_sorts_by_descending_q():
    msg = build_register("mn", [
        _iface("wlan", 0.5),
        _iface("cellular", 0.9),
    ])
    binding = apply_register(msg)
    assert [c.iface for c in binding] == [CELL, WLAN]


def test_apply_register_ties_keep_message_order():
    a, b = "a", "b"
    msg = SipMessage(SipMethod.REGISTER, "mn", "registrar", "a", 450,
                     contacts=(Contact(a, 0.7), Contact(b, 0.7)))
    binding = apply_register(msg)
    assert [c.iface for c in binding] == [a, b]


def test_apply_register_rejects_other_methods():
    with pytest.raises(SipError):
        apply_register(SipMessage(SipMethod.INVITE, "cn", "mn", "cn0", 700))


def test_signaling_log_format_and_count():
    log = LineLog()
    log.record(200_000, SipMethod.INVITE.value, "cn", "mn", "cn0",
               "delivered@214583")
    assert log.lines == ["(200000, INVITE, cn, mn, cn0, delivered@214583)"]
    assert sum(", INVITE," in line for line in log.lines) == 1
    assert sum(", REGISTER," in line for line in log.lines) == 0


# ---------------------------------------------------------------------------
# the retransmission timer


def test_retransmit_resends_on_the_interval_up_to_times():
    eng = Engine()
    sends = []
    retransmit(eng, lambda: sends.append(eng.now), lambda: True,
               500_000, 3, "x")
    eng.run_until(10_000_000)
    assert sends == [500_000, 1_000_000, 1_500_000]


def test_retransmit_stops_once_no_longer_pending():
    eng = Engine(log_events=True)
    sends = []
    retransmit(eng, lambda: sends.append(eng.now), lambda: len(sends) < 2,
               500_000, 5, "x")
    eng.run_until(10_000_000)
    assert sends == [500_000, 1_000_000]
    # the timer armed by the last resend finds nothing pending and stops
    assert eng.event_log == ["500000 sip-rtx x", "1000000 sip-rtx x",
                             "1500000 sip-rtx x"]


def test_retransmit_zero_times_schedules_nothing():
    eng = Engine()
    retransmit(eng, lambda: None, lambda: True, 500_000, 0, "x")
    assert eng.run_until(10_000_000) == 0


# ---------------------------------------------------------------------------
# the client transaction: serial forwarding with fallback


def _bound_targets():
    # the registrar's binding of both interfaces, highest q first
    binding = apply_register(build_register("mn", [
        _iface("wlan", 0.5),
        _iface("cellular", 0.9),
    ]))
    return tuple(c.iface for c in binding)


def _invite():
    return SipMessage(SipMethod.INVITE, "cn", "mn", "cn0", 700)


def _forward(eng, answering=(), config=SignalingConfig(), targets=None,
             fallback=True, answer_from=None):
    """Start an INVITE transaction over the bound targets. A target in
    answering answers each copy after a 10 ms round trip, via its own
    interface or via answer_from."""
    txn = ClientTransaction(_invite(), _bound_targets() if targets is None
                            else targets, "INVITE", config, fallback)

    def send(msg):
        if msg.via_iface in answering:
            eng.schedule_in(10_000, lambda: txn.answer(
                eng.now, answer_from or msg.via_iface))

    txn.start(eng, send)
    return txn


def test_forward_answers_on_first_priority_entry():
    eng = Engine()
    # the top-priority target answers
    txn = _forward(eng, answering=(CELL,))
    eng.run_until(5_000_000)
    assert txn.status == DELIVERED
    assert txn.completed_at == 10_000
    assert [a for a, _ in txn.attempts] == [CELL]
    assert txn.via_iface == CELL


def test_forward_falls_back_after_retransmission_and_timeout():
    eng = Engine()
    # cellular is unreachable; wlan answers
    txn = _forward(eng, answering=(WLAN,))
    eng.run_until(5_000_000)
    assert txn.status == DELIVERED
    # attempt schedule: top entry at 0, its retransmission at 500 ms,
    # fallback to the next entry when the 2 s per-entry timeout expires
    assert txn.attempts == [(CELL, 0), (CELL, 500_000), (WLAN, 2_000_000)]
    assert txn.completed_at == 2_010_000
    assert txn.via_iface == WLAN


def test_forward_exhausts_every_entry_then_unreachable():
    eng = Engine()
    txn = _forward(eng)
    eng.run_until(10_000_000)
    assert txn.status == UNREACHABLE
    assert [a for a, _ in txn.attempts] == [CELL, CELL, WLAN, WLAN]
    assert txn.completed_at == 4_000_000  # two entries, 2 s each


def test_forward_to_unknown_uri_is_immediately_unreachable():
    # no binding: the transaction has no target
    eng = Engine()
    txn = _forward(eng, targets=())
    assert txn.status == UNREACHABLE
    assert txn.attempts == []


def test_no_retransmission_when_timeout_shorter_than_rtx_interval():
    eng = Engine()
    txn = _forward(eng, config=SignalingConfig(fallback_timeout_ms=400))
    eng.run_until(10_000_000)
    assert txn.attempts == [(CELL, 0), (WLAN, 400_000)]
    assert txn.status == UNREACHABLE
    assert txn.completed_at == 800_000


def test_without_fallback_the_timeout_neither_caps_resends_nor_falls_back():
    # the re-INVITE's case: one target, no fallback, whatever the timeout
    eng = Engine(log_events=True)
    txn = _forward(eng, config=SignalingConfig(fallback_timeout_ms=400),
                   targets=(WLAN,), fallback=False)
    eng.run_until(10_000_000)
    assert txn.attempts == [(WLAN, 0), (WLAN, 500_000)]
    assert txn.status == PENDING
    assert not any("sip-fallback-timeout" in l for l in eng.event_log)


def test_late_duplicate_answer_is_ignored():
    eng = Engine()
    txn = _forward(eng, answering=(CELL,))
    eng.run_until(5_000_000)
    assert txn.status == DELIVERED
    txn.answer(6_000_000, WLAN)  # duplicate after completion
    assert (txn.status, txn.completed_at, txn.via_iface) == \
        (DELIVERED, 10_000, CELL)


def test_answer_records_explicit_source_address():
    eng = Engine()
    txn = _forward(eng, answering=(CELL,), answer_from=WLAN)
    eng.run_until(5_000_000)
    assert txn.status == DELIVERED
    assert txn.via_iface == WLAN  # answer arrived via a different interface


def test_answer_after_fallback_does_not_resurrect_earlier_entry():
    eng = Engine()
    txn = _forward(eng)
    # answer arrives while the second entry is being attempted
    eng.schedule(2_100_000, lambda: txn.answer(eng.now, WLAN))
    eng.run_until(10_000_000)
    assert txn.status == DELIVERED
    assert txn.completed_at == 2_100_000
    # no retransmissions fire after delivery
    assert all(t <= 2_100_000 for _, t in txn.attempts)


def test_registrar_resends_every_interval_then_falls_back():
    eng = Engine()
    txn = _forward(eng, answering=(WLAN,),
                   config=SignalingConfig(max_retransmissions=3))
    eng.run_until(5_000_000)
    assert txn.attempts == [(CELL, 0), (CELL, 500_000), (CELL, 1_000_000),
                            (CELL, 1_500_000), (WLAN, 2_000_000)]
    assert txn.attempt_idx == 1
    assert txn.status == DELIVERED


def test_answered_transaction_dispatches_no_further_retransmission():
    eng = Engine(log_events=True)
    txn = _forward(eng, answering=(CELL, WLAN),
                   config=SignalingConfig(max_retransmissions=3))
    eng.run_until(5_000_000)
    assert txn.attempts == [(CELL, 0)]
    # only the timer armed with the first send fires, as a no-op
    assert [l for l in eng.event_log if "sip-rtx" in l] == \
        ["500000 sip-rtx INVITE"]


def test_signaling_config_rejects_non_positive_timers():
    for bad in ({"rtx_interval_ms": 0}, {"fallback_timeout_ms": -1},
                {"max_retransmissions": -1}, {"ok_bytes": 0}):
        with pytest.raises(ValueError):
            SignalingConfig(**bad)
