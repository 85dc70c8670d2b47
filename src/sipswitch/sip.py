"""SIP signaling model: messages, the registrar's q-weight priority list,
the exchange rows a call applies, the one client transaction every request
is sent by (serial forwarding with fallback for the INVITE, plain resends
for the re-INVITE), and the one retransmission timer every resent message
uses."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
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

    request: Optional[ClientTransaction] = None  # the caller's request
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


# Client transaction outcomes.
PENDING = "pending"
DELIVERED = "delivered"
UNREACHABLE = "unreachable"


class ClientTransaction:
    """One request sent until answered (RFC 3261 17.1), to its targets in
    order (16.6's sequential search). Each target gets the request via its
    interface, resent every rtx_interval_ms up to max_retransmissions times.
    With fallback, the next target takes over after fallback_timeout_ms,
    with no resend at or after it, and the transaction is unreachable once
    the last target times out. Without, its resends are all it does.

    It holds no callback, so that a finished run is freed without the
    collector: start hands the engine and the send function to its timers.
    """

    def __init__(self, msg: SipMessage, targets: tuple[Address, ...],
                 subject: str, config: SignalingConfig, fallback: bool):
        self.msg = msg
        self.targets = targets
        self.subject = subject  # of its sip-rtx and sip-fallback-timeout
        self.rtx_us = ms_to_us(config.rtx_interval_ms)
        self.resends = config.max_retransmissions
        self.fallback_us: Optional[int] = None
        if fallback:
            self.fallback_us = ms_to_us(config.fallback_timeout_ms)
            self.resends = min(self.resends,
                               (self.fallback_us - 1) // self.rtx_us)
        self.status = PENDING
        self.via_address: Optional[Address] = None
        self.attempts: list[tuple[Address, int]] = []
        self.attempt_idx = 0  # the target being tried
        self.completed_at: Optional[int] = None

    def start(self, engine: Engine, send: Callable[[SipMessage], None],
              idx: int = 0) -> None:
        """Try targets[idx], the first unless falling back."""
        if self.status != PENDING:
            return
        if idx >= len(self.targets):
            self.status, self.completed_at = UNREACHABLE, engine.now
            return
        self.attempt_idx = idx
        address = self.targets[idx]
        msg = replace(self.msg, via_iface=address.iface)

        def send_once() -> None:
            self.attempts.append((address, engine.now))
            send(msg)

        send_once()
        retransmit(engine, send_once,
                   lambda: self.status == PENDING and self.attempt_idx == idx,
                   self.rtx_us, self.resends, self.subject)
        if self.fallback_us is not None:
            engine.schedule_in(
                self.fallback_us, lambda: self.start(engine, send, idx + 1),
                kind="sip-fallback-timeout", subject=self.subject)

    def answer(self, now: int, from_address: Address) -> None:
        """An answer came from from_address. The first one completes the
        transaction; later ones, and any after it went unreachable, do
        nothing."""
        if self.status == PENDING:
            self.via_address = from_address
            self.status, self.completed_at = DELIVERED, now


class SignalingLog:
    """One line per SIP message offered to a link."""

    def __init__(self):
        self.lines: list[str] = []

    def record(self, time_us: int, msg: SipMessage, outcome: str) -> None:
        self.lines.append(
            f"({time_us}, {msg.method.value}, {msg.from_uri}, {msg.to_uri},"
            f" {msg.via_iface}, {outcome})"
        )
