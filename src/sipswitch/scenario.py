"""One simulated VoIP call with a mid-call interface switch.

Topology: a two-interface mobile node (MN) talks to a wired correspondent
node (CN). Each MN interface has its own uplink and downlink access link;
the CN and the registrar sit together on an ideal core, so the access links
are the only modeled hops.

Timeline: REGISTER at t=0 (every interface, q-weighted), CN's INVITE at
200 ms forwarded through the registrar's priority list, media on
[call_start, call_start+duration], switching trigger at
call_start + switch_offset, watchdog 10 s later.

Media runs on one periodic media clock in the engine, not as heap events:
the run is cut into segments at the control events (SIP sends and arrivals,
timers, the trigger), and each segment's packets are generated at once:
each direction's packets go to the link in one offer, and their fates into
the trace in one PacketTrace.extend. Only control events change the
handoff state or put SIP messages on a link, so within a segment every
packet sees the same route and the link sees only that segment's media.

A media packet's fate is sealed at generation time: the route (including
whether the required MN interface is Closed) is the one in force when the
packet is generated, and the delivery outcome is computed as of the moment
it is offered to the link. Packets already in flight when an interface
closes are therefore still delivered, while packets generated between the
close and the CN's destination switch are the hard procedure's losses.

The CN switches at the first re-INVITE copy to arrive. In one tie the DL
packet generated at t_cn_switch still takes the old route: the engine breaks
equal times by insertion order, and the copy arrived on a grid point whose
media clock entry was queued before the copy was sent (as it is for any send
after the point before). Under hard with the trigger on the grid, a 0 ms new
uplink loses that packet as closed-interface and a 20 or 40 ms one does not.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    DL,
    LINK_PARAMS_RULES,
    LOSS_CLOSED,
    MAX_PACKET_BYTES,
    MN_URI,
    Q_WEIGHT,
    UL,
    CodecProfile,
    InterfaceDescriptor,
    InternalInvariantError,
    LineLog,
    Numeric,
    SimTime,
    SimulationError,
    validate_codec,
    violations,
)
from .handoff import (
    HandoffPhase,
    HandoffProcedure,
    HandoffState,
    PROCEDURE_STEPS,
    Step,
    check_state,
    media_route,
)
from .simnet import Engine, Link, substream
from .sip import (
    DELIVERED,
    Contact,
    Exchange,
    ExchangeState,
    SignalingConfig,
    SipMessage,
    SipMethod,
    Transaction,
    apply_register,
    build_register,
)
from .traffic import (
    DEFAULT_HEADER_OVERHEAD_BYTES,
    PacketTrace,
    expected_packet_count,
)

CN_URI = "cn"
CN_IFACE = "cn0"

# The call's SIP exchanges by caller (each endpoint calls once). Each request
# and each OK is one Transaction: the INVITE's targets are the MN's binding in
# q order, with fallback, the re-INVITE's the new interface and an OK's the
# interface its request came by, without. Nothing answers the one REGISTER.
EXCHANGES = {x.caller: x for x in (
    Exchange(SipMethod.INVITE, CN_URI, "setup-ok", ack_every_ok=False),
    Exchange(SipMethod.REINVITE, MN_URI, "handoff-ok", ack_every_ok=True))}


def exchange_of(msg: SipMessage) -> Exchange:
    """The row of msg: its caller sends the request and the ACK."""
    return EXCHANGES[msg.to_uri if msg.method is SipMethod.OK
                     else msg.from_uri]


# The rule of each time and size of a call. The trigger check in validate
# bounds the switch offset and jitter.
_US = Numeric(integer=True, unit_us=1)
_POSITIVE_US = Numeric(0, above=True, integer=True, unit_us=1)
SPEC_RULES = {
    "call_start_us": Numeric(0, integer=True, unit_us=1),
    "call_duration_us": _POSITIVE_US, "watchdog_us": _POSITIVE_US,
    "switch_offset_us": _US, "switch_jitter_us": _US,
    "header_overhead_bytes": Numeric(0, MAX_PACKET_BYTES, integer=True),
}


@dataclass
class CallSpec:
    """Everything one repetition needs; immutable during the run."""

    codec: CodecProfile
    procedure: HandoffProcedure
    switch_from: str
    switch_to: str
    interfaces: list[InterfaceDescriptor]
    call_start_us: SimTime = 1_000_000
    call_duration_us: SimTime = 60_000_000
    switch_offset_us: SimTime = 30_000_000
    switch_jitter_us: SimTime = 0
    header_overhead_bytes: int = DEFAULT_HEADER_OVERHEAD_BYTES
    signaling: SignalingConfig = field(default_factory=SignalingConfig)
    watchdog_us: SimTime = 10_000_000
    seed: int = 1
    run_id: str = "run"
    log_events: bool = False

    def validate(self) -> list[str]:
        failed = violations(vars(self), SPEC_RULES)
        bad = [f"{name} {problem}" for name, problem in failed]
        iface_ids = [i.iface_id for i in self.interfaces]
        if len(set(iface_ids)) != len(iface_ids):
            bad.append("duplicate interface ids")
        for name in (self.switch_from, self.switch_to):
            if name not in iface_ids:
                bad.append(f"switch interface {name!r} not among interfaces")
        for iface in self.interfaces:
            found = [*violations(vars(iface), {"q_weight": Q_WEIGHT}),
                     *violations(vars(iface.link), LINK_PARAMS_RULES)]
            bad.extend(f"interface {iface.iface_id!r}: {name} {problem}"
                       for name, problem in found)
        if self.switch_from == self.switch_to:
            bad.append("switch_from equals switch_to")
        bad.extend(validate_codec(self.codec))
        lo = self.switch_offset_us - self.switch_jitter_us
        hi = self.switch_offset_us + self.switch_jitter_us
        if not failed and not 0 < lo <= hi < self.call_duration_us:
            bad.append("switch offset +- jitter must fall inside the call")
        return bad


@dataclass
class RunResult:
    """Everything a run produced: trace, logs, and the final session state."""

    trace: PacketTrace
    signaling: LineLog
    handoff_log: LineLog
    event_log: list[str]
    state: HandoffState
    aborted: bool
    abort_reason: Optional[str]
    t_trigger: Optional[SimTime]
    t_completed: Optional[SimTime]
    setup_transaction: Optional[Transaction]


class _CallRuntime:
    """Wires endpoints, links, and logs for one run."""

    def __init__(self, spec: CallSpec):
        bad = spec.validate()
        if bad:
            raise SimulationError("invalid call spec: " + "; ".join(bad))
        self.spec = spec
        self.engine = Engine(log_events=spec.log_events)
        self.trace = PacketTrace()
        self.signaling = LineLog()
        self.handoff_log = LineLog()

        self.links_ul: dict[str, Link] = {}
        self.links_dl: dict[str, Link] = {}
        for iface in spec.interfaces:
            for links, end in ((self.links_ul, "ul"), (self.links_dl, "dl")):
                link_id = f"{iface.iface_id}-{end}"
                links[iface.iface_id] = Link(
                    self.engine, link_id, iface.link,
                    substream(spec.seed, f"link/{link_id}"))

        self.state = HandoffState(old_iface=spec.switch_from,
                                  new_iface=spec.switch_to)

        self.bindings: dict[str, tuple[Contact, ...]] = {}  # q-ordered
        self.aborted = False
        self.abort_reason: Optional[str] = None
        self.exchanges = {caller: ExchangeState() for caller in EXCHANGES}
        self._dl_at_cn_switch: Optional[int] = None  # DL packets recorded then
        self._closed = {UL: 0, DL: 0}  # media packets lost to a Closed iface

    # -- signaling ---------------------------------------------------------

    def _message(self, method: SipMethod, sender: str, via: str,
                 media_iface: Optional[str] = None) -> SipMessage:
        """A message from sender (MN_URI or CN_URI) to its peer, sized by
        method."""
        sizes = self.spec.signaling
        size = {SipMethod.OK: sizes.ok_bytes,
                SipMethod.ACK: sizes.ack_bytes}.get(method, sizes.invite_bytes)
        return SipMessage(method=method, from_uri=sender,
                          to_uri=CN_URI if sender == MN_URI else MN_URI,
                          via_iface=via, size_bytes=size,
                          media_iface=media_iface)

    def _send(self, msg: SipMessage) -> None:
        """Offer a signaling message to its link, the MN's uplink or the
        CN's downlink of via_iface, and log its fate."""
        iface, key = msg.via_iface, msg.method.value
        links = self.links_dl
        if msg.from_uri == MN_URI:
            if self.state.closed(iface):
                raise InternalInvariantError(
                    f"MN tried to send {key} from Closed interface {iface}")
            links = self.links_ul
        arrival, cause = links[iface].transmit(
            msg.size_bytes, on_arrive=lambda t: self._receive(msg),
            note=f"sip-{key}")
        outcome = (f"delivered@{arrival}" if cause is None
                   else f"dropped:{cause}")
        self.signaling.record(self.engine.now, key, msg.from_uri, msg.to_uri,
                              iface, outcome)

    def _receive(self, msg: SipMessage) -> None:
        """Arrival at the core (registrar and CN) or at the MN. The
        registrar keeps a REGISTER's binding; any other message goes to its
        row. Every OK answers the caller's transaction and every ACK the
        callee's OK; the caller ACKs the first OK, and every copy if its row
        says so. The MN's first handoff OK completes the switch."""
        if msg.method is SipMethod.REGISTER:
            self.bindings[msg.from_uri] = apply_register(msg)
            return
        ex = exchange_of(msg)
        progress = self.exchanges[ex.caller]
        if msg.method is SipMethod.ACK:
            progress.ok.answer(self.engine.now, msg.via_iface)
            return
        if msg.method is not SipMethod.OK:
            self._on_request(ex, progress, msg)
            return
        first, progress.answered = not progress.answered, True
        progress.request.answer(self.engine.now, msg.via_iface)
        if first and ex.method is SipMethod.REINVITE:
            t, state = self.engine.now, self.state
            state.phase, state.t_completed = HandoffPhase.COMPLETED, t
            self._apply_steps(PROCEDURE_STEPS[self.spec.procedure][1])
            self.handoff_log.record(t, "MN", "ok", "Switching", "Completed")
        if first or ex.ack_every_ok:
            self._send(self._message(SipMethod.ACK, ex.caller, msg.via_iface))

    def _on_request(self, ex: Exchange, progress: ExchangeState,
                    msg: SipMessage) -> None:
        """The callee answers every copy with one OK, sent by a Transaction
        until ACKed; a later copy gets it once more, outside the Transaction.
        The first re-INVITE copy retargets the CN's downlink media to its
        media_iface, from the packet generated now on, but in the tie the
        module docstring states: the DL packets recorded by now, which the
        closed-loss check reads, say which way the tie went."""
        if progress.ok is not None:  # a resent or fallback copy
            self._send(progress.ok.msg)
            return
        t, state = self.engine.now, self.state
        if ex.method is SipMethod.REINVITE:
            self._dl_at_cn_switch = len(self.trace.directions[DL].gen)
            state.dl_media_iface, state.t_cn_switch = msg.media_iface, t
            self._check_state()
            self.handoff_log.record(t, "CN", "dst-switch", state.phase.value,
                                    state.phase.value)
        progress.ok = Transaction(
            self._message(SipMethod.OK, msg.to_uri, msg.via_iface),
            (msg.via_iface,), ex.ok_subject, self.spec.signaling,
            fallback=False)
        progress.ok.start(self.engine, self._send)

    def _send_register(self) -> None:
        self._send(build_register(MN_URI, self.spec.interfaces,
                                  config=self.spec.signaling))

    def _send_invite(self) -> None:
        invite = self._message(SipMethod.INVITE, CN_URI, CN_IFACE)
        # CN and registrar share the core: hand over without a link hop.
        targets = tuple(c.iface for c in self.bindings.get(invite.to_uri, ()))
        txn = self.exchanges[CN_URI].request = Transaction(
            invite, targets, "INVITE", self.spec.signaling, fallback=True)
        txn.start(self.engine, self._send)

    def _setup_guard(self) -> None:
        ok = self.exchanges[CN_URI].ok  # the CN ACKs only if answered
        if ok is None or ok.status != DELIVERED:
            self._abort("setup-incomplete")

    # -- handoff phase -----------------------------------------------------

    def _on_trigger(self) -> None:
        """The MN switches now."""
        t, state = self.engine.now, self.state
        state.phase, state.t_trigger = HandoffPhase.SWITCHING, t
        self.handoff_log.record(t, "MN", "trigger", "Stable", "Switching")
        new = state.new_iface
        msg = self._message(SipMethod.REINVITE, MN_URI, new, media_iface=new)
        txn = self.exchanges[MN_URI].request = Transaction(
            msg, (new,), "reinvite", self.spec.signaling, fallback=False)
        txn.start(self.engine, self._send)
        self._apply_steps(PROCEDURE_STEPS[self.spec.procedure][0])

    def _apply_steps(self, steps: tuple[Step, ...]) -> None:
        """Apply and log a row of the procedure table, in order."""
        t, phase = self.engine.now, self.state.phase.value
        for step in steps:
            self.handoff_log.record(t, "MN", step.apply(self.state, t),
                                    phase, phase)
        self._check_state()

    def _watchdog(self) -> None:
        if self.state.phase is HandoffPhase.SWITCHING:
            self.handoff_log.record(self.engine.now, "MN", "watchdog-abort",
                                    self.state.phase.value, "Aborted")
            self._abort("watchdog")

    def _abort(self, reason: str) -> None:
        self.aborted = True
        self.abort_reason = reason
        self.engine.stop()

    # -- media -------------------------------------------------------------

    def _start_media(self) -> None:
        """Generate both directions' media on the exact grid
        call_start + seq * interval, one segment at a time: the engine's
        media clock hands over each stretch of grid points that lies between
        two control events. Within a segment each direction's route is
        constant (only control events change the handoff state), so each
        direction is routed once, its packets go to the link in one offer,
        and their fates go into the trace in one PacketTrace.extend, UL's
        segment before DL's.

        One clock carries both directions exactly. The UL and DL streams
        share one grid and start back to back, and a media tick schedules
        nothing, so as heap events UL(t) and DL(t) would hold consecutive
        sequence numbers: no event could ever come between them.
        """
        spec = self.spec
        t_start = spec.call_start_us
        interval = spec.codec.packet_interval_us
        size = spec.codec.payload_bytes + spec.header_overhead_bytes
        state, closed = self.state, self._closed

        def fates(direction: str, links: dict[str, Link], times: range
                  ) -> tuple[list[Optional[SimTime]], list[Optional[str]]]:
            mn_iface = media_route(state, direction)
            if mn_iface is None:
                closed[direction] += len(times)
                return [None] * len(times), [LOSS_CLOSED] * len(times)
            return links[mn_iface].offer(times, size)

        def segment(t: SimTime, n: int) -> None:
            times = range(t, t + n * interval, interval)
            ul = fates(UL, self.links_ul, times)
            dl = fates(DL, self.links_dl, times)
            seq = (t - t_start) // interval
            extend = self.trace.extend
            extend("ul", UL, seq, times, state.ul_media_iface, *ul)
            extend("dl", DL, seq, times, CN_IFACE, *dl)

        self.engine.start_clock(t_start, interval,
                                t_start + spec.call_duration_us, segment,
                                kind="media-tick", subjects=("ul", "dl"))

    def _check_state(self) -> None:
        bad = check_state(self.state, self.spec.procedure)
        if bad:
            raise InternalInvariantError(
                f"handoff state at {self.engine.now} us: " + "; ".join(bad))

    def _check_conservation(self, call_end: SimTime) -> None:
        """Every link's offers are delivered or dropped, and unless the run
        aborted each stream generated its full packet count."""
        for link in (*self.links_ul.values(), *self.links_dl.values()):
            if link.offered != link.delivered + link.dropped:
                raise InternalInvariantError(
                    f"link {link.link_id}: offered {link.offered} != "
                    f"delivered {link.delivered} + dropped {link.dropped}")
        if self.aborted:
            return
        want = expected_packet_count(self.spec.call_start_us, call_end,
                                     self.spec.codec.packet_interval_us)
        counts = {d: len(p.gen) for d, p in self.trace.directions.items()}
        for direction in (UL, DL):
            got = counts.get(direction, 0)
            if got != want:
                raise InternalInvariantError(
                    f"{direction} stream generated {got} packets, "
                    f"expected {want}")

    def _check_closed_losses(self) -> None:
        """Only the hard procedure loses packets to a Closed interface, and
        only on DL: exactly those generated from the trigger on that were
        recorded before the CN switched, or all to the end if it never did.
        The trigger comes after the call start, so DL has packets then."""
        lo = hi = 0
        t_trigger, closed = self.state.t_trigger, self._closed
        if self.spec.procedure is HandoffProcedure.HARD \
                and t_trigger is not None:
            dl = self.trace.directions[DL]
            lo = bisect_left(dl.gen, t_trigger)
            hi = (len(dl.gen) if self._dl_at_cn_switch is None
                  else self._dl_at_cn_switch)
        if closed[UL] or closed[DL] != hi - lo or hi > lo and \
                dl.cause[lo:hi].count(LOSS_CLOSED) != hi - lo:
            raise InternalInvariantError(
                f"closed-interface losses under {self.spec.procedure.value}:"
                f" UL {closed[UL]}, DL {closed[DL]}; expected DL packets "
                f"[{lo}, {hi}) only")

    # -- run ---------------------------------------------------------------

    def run(self) -> RunResult:
        spec = self.spec
        call_end = spec.call_start_us + spec.call_duration_us
        t_trigger = spec.call_start_us + spec.switch_offset_us
        if spec.switch_jitter_us:
            t_trigger += substream(spec.seed, "trigger").randint(
                -spec.switch_jitter_us, spec.switch_jitter_us)

        self.engine.schedule(0, self._send_register, kind="sip-send",
                             subject="register")
        self.engine.schedule(200_000, self._send_invite, kind="sip-send",
                             subject="invite")
        self.engine.schedule(spec.call_start_us, self._setup_guard,
                             kind="setup-guard", subject="")
        self._start_media()
        self.engine.schedule(t_trigger, self._on_trigger, kind="handoff",
                             subject="trigger")
        self.engine.schedule(t_trigger + spec.watchdog_us, self._watchdog,
                             kind="handoff", subject="watchdog")

        horizon = max(call_end, t_trigger + spec.watchdog_us) + 1_000_000
        self.engine.run_until(horizon)
        self._check_conservation(call_end)
        self._check_closed_losses()

        return RunResult(
            trace=self.trace, signaling=self.signaling,
            handoff_log=self.handoff_log, event_log=self.engine.event_log,
            state=self.state, aborted=self.aborted,
            abort_reason=self.abort_reason,
            t_trigger=self.state.t_trigger,
            t_completed=self.state.t_completed,
            setup_transaction=self.exchanges[CN_URI].request)


def run_call(spec: CallSpec) -> RunResult:
    """Simulate one call end to end; deterministic in spec.seed."""
    return _CallRuntime(spec).run()
