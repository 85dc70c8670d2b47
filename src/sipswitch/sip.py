"""SIP signaling model: messages, the registrar's q-weight priority list,
the exchange rows a call applies, and the one transaction that sends every
resent message until it is answered: serial forwarding with fallback for
the INVITE, plain resends for the re-INVITE and for each request's OK."""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

from .core import (
    MAX_PACKET_BYTES,
    US_PER_MS,
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
    """One registered MN interface, by id, with its priority weight."""

    iface: str
    q_weight: float


@dataclass(frozen=True)
class SipMessage:
    """One SIP message. A REINVITE names in media_iface the MN interface
    that is to receive the call's downlink media from now on."""

    method: SipMethod
    from_uri: str
    to_uri: str
    via_iface: str
    size_bytes: int
    contacts: tuple[Contact, ...] = ()
    media_iface: Optional[str] = None


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
    answers every request copy with one OK, a Transaction with subject
    ok_subject that the ACK answers (13.3.1.4); the caller ACKs the first
    OK, or each if ack_every_ok."""

    method: SipMethod
    caller: str
    ok_subject: str
    ack_every_ok: bool


@dataclass
class ExchangeState:
    """How far one exchange has got. The OK's status is DELIVERED once an
    ACK reached the callee."""

    request: Optional[Transaction] = None  # the caller's request
    ok: Optional[Transaction] = None  # the callee's answer to every copy
    answered: bool = False  # an OK reached the caller

    def fork(self, swap: dict[int, object]) -> ExchangeState:
        """A copy with a copy of each transaction (Transaction.fork)."""
        return ExchangeState(*(txn and txn.fork(swap)
                               for txn in (self.request, self.ok)),
                             self.answered)


def build_register(uri: str, interfaces: list[InterfaceDescriptor],
                   config: SignalingConfig = SignalingConfig()) -> SipMessage:
    """REGISTER carrying one contact per interface, sent via the
    highest-weight one."""
    if not interfaces:
        raise SipError(f"{uri}: no interface, nothing to register")
    via = max(interfaces, key=lambda i: i.q_weight).iface_id
    return SipMessage(method=SipMethod.REGISTER, from_uri=uri,
                      to_uri="registrar", via_iface=via,
                      size_bytes=config.register_bytes,
                      contacts=tuple(Contact(i.iface_id, i.q_weight)
                                     for i in interfaces))


def apply_register(msg: SipMessage) -> tuple[Contact, ...]:
    """The URI's binding, replacing the old one wholesale: the contacts by
    descending q weight, ties keeping the message's contact order."""
    if msg.method is not SipMethod.REGISTER:
        raise SipError(f"apply_register needs REGISTER, got {msg.method.value}")
    return tuple(sorted(msg.contacts, key=lambda c: -c.q_weight))


# Transaction outcomes.
PENDING = "pending"
DELIVERED = "delivered"
UNREACHABLE = "unreachable"


class Transaction:
    """One message sent to its targets until answered: a request until its
    OK arrives (RFC 3261 17.1), a 2xx until its ACK does (13.3.1.4). The
    targets are tried in order (16.6's sequential search). Each target, an
    MN interface id, gets the message via that interface, resent every
    rtx_interval_ms up to max_retransmissions times. With fallback, the next
    target takes over after fallback_timeout_ms, with no resend at or after
    it, and the transaction is unreachable once the last target times out.
    Without, its resends are all it does.

    It holds no callback, so that a finished run is freed without the
    collector: start hands the engine and the send function to its timers.
    """

    def __init__(self, msg: SipMessage, targets: tuple[str, ...],
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
        self.via_iface: Optional[str] = None  # where the answer came from
        self.attempts: list[tuple[str, int]] = []  # (target, send time)
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
        msg = replace(self.msg, via_iface=self.targets[idx])
        self._send(engine, send, msg, idx, self.resends)
        if self.fallback_us is not None:
            engine.schedule_in(
                self.fallback_us, partial(self.start, engine, send, idx + 1),
                kind="sip-fallback-timeout", subject=self.subject)

    def _send(self, engine: Engine, send: Callable[[SipMessage], None],
              msg: SipMessage, idx: int, resends: int) -> None:
        """Send msg to targets[idx] unless it was answered or fell back
        since, and arm the next resend while `resends` are left. Each timer
        is armed by the send before it, so an answered message leaves at
        most one no-op timer behind."""
        if self.status != PENDING or self.attempt_idx != idx:
            return
        self.attempts.append((msg.via_iface, engine.now))
        send(msg)
        if resends > 0:
            engine.schedule_in(
                self.rtx_us, partial(self._send, engine, send, msg, idx,
                                     resends - 1),
                kind="sip-rtx", subject=self.subject)

    def answer(self, now: int, from_iface: str) -> None:
        """An answer came via from_iface. The first one completes the
        transaction; later ones, and any after it went unreachable, do
        nothing."""
        if self.status == PENDING:
            self.via_iface = from_iface
            self.status, self.completed_at = DELIVERED, now

    def fork(self, swap: dict[int, object]) -> Transaction:
        """A copy with its own attempts, entered in swap under this one's
        id so that its pending timers can be rebound to it (Engine.fork);
        the message, targets and timers are immutable and shared."""
        twin = swap[id(self)] = copy.copy(self)
        twin.attempts = self.attempts[:]
        return twin
