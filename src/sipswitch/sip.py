"""SIP signaling model: messages, the registrar's q-weight priority list,
serial forwarding with fallback, the exchange rows a call applies, and the
one retransmission timer every resent message uses."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    MAX_PACKET_BYTES,
    US_PER_MS,
    Address,
    IfaceState,
    InterfaceDescriptor,
    Numeric,
    SimulationError,
    check_fields,
    ms_to_us,
)
from .simnet import Engine


class SipError(SimulationError):
    """Misuse of the signaling model (wrong method, nothing to register)."""


class SipMethod(enum.Enum):
    REGISTER = "REGISTER"
    INVITE = "INVITE"
    REINVITE = "REINVITE"
    OK = "OK"
    ACK = "ACK"


@dataclass(frozen=True)
class Contact:
    """One registered address with its priority weight."""

    address: Address
    q_weight: float


@dataclass(frozen=True)
class SipMessage:
    """One SIP message. An INVITE, REINVITE or its OK names in media_src
    where its sender wants to receive media."""

    method: SipMethod
    from_uri: str
    to_uri: str
    via_iface: str
    size_bytes: int
    contacts: tuple[Contact, ...] = ()
    media_src: Optional[Address] = None
    msg_id: int = 0
    in_reply_to: int = 0


@dataclass(frozen=True)
class SignalingConfig:
    """Message sizes and the reliability/fallback timers.

    One retransmission 500 ms after each unanswered send, and 2 s per
    priority entry before falling back to the next one.
    """

    invite_bytes: int = 700
    register_bytes: int = 450
    ok_bytes: int = 450
    ack_bytes: int = 450
    rtx_interval_ms: int = 500
    max_retransmissions: int = 1
    fallback_timeout_ms: int = 2000

    def __post_init__(self):
        check_fields(self, SIGNALING_RULES)


_SIZE = Numeric(1, MAX_PACKET_BYTES, integer=True)
_TIMER = Numeric(0, above=True, integer=True, unit_us=US_PER_MS)
SIGNALING_RULES = {
    "invite_bytes": _SIZE, "register_bytes": _SIZE, "ok_bytes": _SIZE,
    "ack_bytes": _SIZE, "rtx_interval_ms": _TIMER,
    "max_retransmissions": Numeric(0, integer=True),
    "fallback_timeout_ms": _TIMER,
}


@dataclass(frozen=True)
class Exchange:
    """A request and its 2xx in RFC 3261's reliability roles. The callee
    answers every request copy with one OK, resent as ok_subject until ACKed
    (13.3.1.4); the caller ACKs the first OK, or each if ack_every_ok. The
    drop plan reaches the request and the OK if forced_drops."""

    method: SipMethod
    caller: str
    ok_subject: str
    ack_every_ok: bool
    forced_drops: bool


@dataclass
class ExchangeState:
    """How far one exchange has got."""

    ok: Optional[SipMessage] = None  # the callee's answer to every copy
    answered: bool = False  # an OK reached the caller
    acked: bool = False  # an ACK reached the callee


@dataclass(frozen=True)
class RegistrarBinding:
    """Priority-ordered contact list for one URI, highest q first."""

    uri: str
    entries: tuple[Contact, ...]


def retransmit(engine: Engine, resend: Callable[[], None],
               pending: Callable[[], bool], interval_us: int, times: int,
               subject: str) -> None:
    """Resend every interval_us, at most `times` times, while pending().

    Call right after the first send. Each timer is armed only when the one
    before it has resent, so an answered message leaves at most one no-op
    timer behind.
    """
    def fire() -> None:
        if pending():
            resend()
            retransmit(engine, resend, pending, interval_us, times - 1,
                       subject)

    if times > 0:
        engine.schedule_in(interval_us, fire, kind="sip-rtx", subject=subject)


def build_register(uri: str, interfaces: list[InterfaceDescriptor],
                   registrar_uri: str = "registrar",
                   config: SignalingConfig = SignalingConfig(),
                   msg_id: int = 0) -> SipMessage:
    """REGISTER carrying one contact per Up interface, sent via the
    highest-weight Up interface. Down and Closed interfaces are excluded."""
    up = [i for i in interfaces if i.state is IfaceState.UP]
    if not up:
        raise SipError(f"{uri}: no Up interface, nothing to register")
    via = max(up, key=lambda i: i.q_weight).iface_id
    contacts = tuple(Contact(i.address, i.q_weight) for i in up)
    return SipMessage(method=SipMethod.REGISTER, from_uri=uri,
                      to_uri=registrar_uri, via_iface=via,
                      size_bytes=config.register_bytes, contacts=contacts,
                      msg_id=msg_id)


def apply_register(msg: SipMessage) -> RegistrarBinding:
    """Replace the URI's binding wholesale: contacts sorted by descending
    q weight, ties keeping the message's contact order."""
    if msg.method is not SipMethod.REGISTER:
        raise SipError(f"apply_register needs REGISTER, got {msg.method.value}")
    ordered = tuple(sorted(msg.contacts, key=lambda c: -c.q_weight))
    return RegistrarBinding(uri=msg.from_uri, entries=ordered)


# Forward transaction outcomes.
PENDING = "pending"
DELIVERED = "delivered"
UNREACHABLE = "unreachable"


class ForwardTransaction:
    """Progress of one forwarded message through the priority list."""

    def __init__(self, msg: SipMessage):
        self.msg = msg
        self.status = PENDING
        self.via_address: Optional[Address] = None
        self.attempts: list[tuple[Address, int]] = []
        self.attempt_idx = 0  # priority entry currently being tried
        self.completed_at: Optional[int] = None

    def _finish(self, status: str, now: int) -> None:
        self.status = status
        self.completed_at = now


class SignalingLog:
    """One line per SIP message offered to a link."""

    def __init__(self):
        self.lines: list[str] = []

    def record(self, time_us: int, msg: SipMessage, outcome: str) -> None:
        self.lines.append(
            f"({time_us}, {msg.method.value}, {msg.from_uri}, {msg.to_uri},"
            f" {msg.via_iface}, {outcome})"
        )


class Registrar:
    """Holds bindings and forwards messages serially down the priority list.

    Each entry is attempted with up to max_retransmissions resends at
    rtx_interval; fallback to the next entry happens only when no answer
    arrives within fallback_timeout_ms.
    """

    def __init__(self, engine: Engine,
                 send: Callable[[SipMessage, Address], None],
                 config: SignalingConfig = SignalingConfig()):
        self.engine = engine
        self.send = send
        self.config = config
        self.bindings: dict[str, RegistrarBinding] = {}
        self._pending: dict[int, ForwardTransaction] = {}

    def handle_register(self, msg: SipMessage) -> RegistrarBinding:
        binding = apply_register(msg)
        self.bindings[msg.from_uri] = binding
        return binding

    def forward_with_fallback(self, msg: SipMessage) -> ForwardTransaction:
        """Start forwarding msg toward the binding of msg.to_uri."""
        txn = ForwardTransaction(msg)
        binding = self.bindings.get(msg.to_uri)
        if binding is None or not binding.entries:
            txn._finish(UNREACHABLE, self.engine.now)
            return txn
        self._pending[msg.msg_id] = txn
        self._attempt(txn, binding, 0)
        return txn

    def _attempt(self, txn: ForwardTransaction, binding: RegistrarBinding,
                 idx: int) -> None:
        if txn.status != PENDING:
            return
        if idx >= len(binding.entries):
            self._pending.pop(txn.msg.msg_id, None)
            txn._finish(UNREACHABLE, self.engine.now)
            return
        txn.attempt_idx = idx
        address = binding.entries[idx].address

        def send_once() -> None:
            txn.attempts.append((address, self.engine.now))
            self.send(txn.msg, address)

        send_once()
        # No resend at or after the fallback timeout.
        rtx_us = ms_to_us(self.config.rtx_interval_ms)
        timeout_us = ms_to_us(self.config.fallback_timeout_ms)
        retransmit(self.engine, send_once,
                   lambda: txn.status == PENDING and txn.attempt_idx == idx,
                   rtx_us, min(self.config.max_retransmissions,
                               (timeout_us - 1) // rtx_us),
                   txn.msg.method.value)
        self.engine.schedule_in(
            timeout_us,
            lambda: self._attempt(txn, binding, idx + 1),
            kind="sip-fallback-timeout", subject=txn.msg.method.value)

    def deliver_answer(self, answer: SipMessage,
                       from_address: Optional[Address] = None) -> bool:
        """Answer to a forwarded message arrived; completes the transaction.

        Returns False for answers that match no pending transaction
        (late duplicates after completion).
        """
        txn = self._pending.pop(answer.in_reply_to, None)
        if txn is None or txn.status != PENDING:
            return False
        if from_address is not None:
            txn.via_address = from_address
        elif txn.attempts:
            txn.via_address = txn.attempts[-1][0]
        txn._finish(DELIVERED, self.engine.now)
        return True
