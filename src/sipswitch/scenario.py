"""One simulated VoIP call with a mid-call interface switch.

Topology: a two-interface mobile node (MN) talks to a wired correspondent
node (CN). Each MN interface has its own uplink and downlink access link;
the CN and the registrar sit together on an ideal core, so the access links
are the only modeled hops.

Timeline: REGISTER at t=0 (all Up interfaces, q-weighted), CN's INVITE at
200 ms forwarded through the registrar's priority list, media on
[call_start, call_start+duration], switching trigger at
call_start + switch_offset, watchdog 10 s later.

Media runs on one periodic media clock in the engine, not as heap events:
the run is cut into segments at the control events (SIP sends and arrivals,
timers, the trigger), and each segment's packets are generated at once.
Only control events change the handoff state or put SIP messages on a link,
so within a segment every packet sees the same route and the link sees
only that segment's media.

A media packet's fate is sealed at generation time: the route (including
whether the required MN interface is Closed) is the one in force when the
packet is generated, and the delivery outcome is computed as of the moment
it is offered to the link. Packets already in flight when an interface
closes are therefore still delivered, while packets generated between the
close and the CN's destination switch are the hard procedure's losses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .core import (
    DL,
    LINK_PARAMS_RULES,
    LOSS_CLOSED,
    MAX_PACKET_BYTES,
    MEDIA_PORT,
    MN_URI,
    Q_WEIGHT,
    UL,
    Address,
    CodecProfile,
    IfaceState,
    InterfaceDescriptor,
    InternalInvariantError,
    Numeric,
    SimTime,
    SimulationError,
    mn_address,
    ms_to_us,
    validate_codec,
    violations,
)
from .handoff import (
    HandoffLog,
    HandoffPhase,
    HandoffProcedure,
    HandoffState,
    PROCEDURE_STEPS,
    Step,
    check_state,
    media_route,
)
from .simnet import Engine, Fate, Link, RngStream
from .sip import (
    ForwardTransaction,
    Registrar,
    SignalingConfig,
    SignalingLog,
    SipMessage,
    SipMethod,
    build_register,
    retransmit,
)
from .traffic import (
    DEFAULT_HEADER_OVERHEAD_BYTES,
    PacketTrace,
    expected_packet_count,
)

CN_URI = "cn"
CN_IFACE = "cn0"


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
    down_links: frozenset[str] = frozenset()
    # Force-drop plan for the handoff handshake: {(method, occurrence)} with
    # method in {"REINVITE", "OK"}, occurrence counting that method's sends
    # during the handoff (0 = first send, 1 = first retransmission, ...).
    signaling_drop_plan: frozenset[tuple[str, int]] = frozenset()

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
            # Closed is the state only the switch sets.
            if iface.state not in (IfaceState.UP, IfaceState.DOWN):
                found.append(("state", "must start Up or Down"))
            bad.extend(f"interface {iface.iface_id!r}: {name} {problem}"
                       for name, problem in found)
        if all(i.state is not IfaceState.UP for i in self.interfaces):
            bad.append("no interface starts Up")
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

    run_id: str
    trace: PacketTrace
    signaling: SignalingLog
    handoff_log: HandoffLog
    event_log: list[str]
    state: HandoffState
    aborted: bool
    abort_reason: Optional[str]
    t_trigger: Optional[SimTime]
    t_cn_switch: Optional[SimTime]
    t_completed: Optional[SimTime]
    closed_old_at: Optional[SimTime]
    setup_transaction: Optional[ForwardTransaction]


class _CallRuntime:
    """Wires endpoints, links, and logs for one run."""

    def __init__(self, spec: CallSpec):
        bad = spec.validate()
        if bad:
            raise SimulationError("invalid call spec: " + "; ".join(bad))
        self.spec = spec
        self.engine = Engine(log_events=spec.log_events)
        self.rng = RngStream(spec.seed)
        self.trace = PacketTrace()
        self.signaling = SignalingLog()
        self.handoff_log = HandoffLog()
        self._msg_ids = itertools.count(1)

        self.links_ul: dict[str, Link] = {}
        self.links_dl: dict[str, Link] = {}
        for iface in spec.interfaces:
            for links, end in ((self.links_ul, "ul"), (self.links_dl, "dl")):
                link_id = f"{iface.iface_id}-{end}"
                link = links[iface.iface_id] = Link(
                    self.engine, link_id, iface.link,
                    self.rng.substream(f"link/{link_id}"))
                if link_id in spec.down_links:
                    link.set_state(IfaceState.DOWN)

        self.state = HandoffState(
            old_iface=spec.switch_from, new_iface=spec.switch_to,
            iface_states={i.iface_id: i.state for i in spec.interfaces})

        self.registrar = Registrar(self.engine, self._registrar_send,
                                   spec.signaling)
        self.setup_transaction: Optional[ForwardTransaction] = None
        self.aborted = False
        self.abort_reason: Optional[str] = None

        # Setup-phase handshake bookkeeping.
        self._cn_established = False
        self._setup_ok: Optional[SipMessage] = None
        self._setup_ok_acked = False

        # Handoff handshake bookkeeping.
        self._handoff_ok: Optional[SipMessage] = None
        self._handoff_ok_acked = False
        self._drop_counts = {"REINVITE": 0, "OK": 0}

    # -- signaling plumbing ------------------------------------------------

    def _message(self, method: SipMethod, sender: str, via: str,
                 reply_to: int = 0,
                 media_src: Optional[Address] = None) -> SipMessage:
        """A message from sender (MN_URI or CN_URI) to its peer, sized by
        method, with the next msg id."""
        sizes = self.spec.signaling
        size = {SipMethod.INVITE: sizes.invite_bytes,
                SipMethod.REINVITE: sizes.invite_bytes,
                SipMethod.OK: sizes.ok_bytes,
                SipMethod.ACK: sizes.ack_bytes}[method]
        return SipMessage(method=method, from_uri=sender,
                          to_uri=CN_URI if sender == MN_URI else MN_URI,
                          via_iface=via, size_bytes=size, media_src=media_src,
                          msg_id=next(self._msg_ids), in_reply_to=reply_to)

    def _forced_drop(self, msg: SipMessage) -> bool:
        """Consult the drop plan for handoff-handshake sends: the REINVITE
        and the CN's OK to it."""
        if not (msg.method is SipMethod.REINVITE
                or msg.method is SipMethod.OK and msg.from_uri == CN_URI):
            return False
        key = msg.method.value
        occurrence = self._drop_counts[key]
        self._drop_counts[key] = occurrence + 1
        return (key, occurrence) in self.spec.signaling_drop_plan

    def _send(self, msg: SipMessage, link: Link,
              receive: Callable[[SipMessage], None]) -> None:
        """Offer a signaling message to a link and log its fate."""
        if self._forced_drop(msg):
            self.signaling.record(self.engine.now, msg, "dropped:forced")
            return
        arrival, cause = link.transmit(
            msg.size_bytes, on_arrive=lambda t: receive(msg),
            note=f"sip-{msg.method.value}")
        outcome = (f"delivered@{arrival}" if cause is None
                   else f"dropped:{cause}")
        self.signaling.record(self.engine.now, msg, outcome)

    def _mn_send(self, msg: SipMessage) -> None:
        """MN emits a signaling message over its via_iface uplink."""
        iface = msg.via_iface
        if self.state.iface_states[iface] is IfaceState.CLOSED:
            raise InternalInvariantError(
                f"MN tried to send {msg.method.value} from Closed "
                f"interface {iface}")
        self._send(msg, self.links_ul[iface], self._core_receive)

    def _cn_send(self, msg: SipMessage) -> None:
        """CN emits a signaling message over the via_iface downlink."""
        self._send(msg, self.links_dl[msg.via_iface], self._mn_receive)

    def _keep_resending(self, resend: Callable[[], None],
                        pending: Callable[[], bool], subject: str) -> None:
        retransmit(self.engine, resend, pending,
                   ms_to_us(self.spec.signaling.rtx_interval_ms),
                   self.spec.signaling.max_retransmissions, subject)

    def _registrar_send(self, msg: SipMessage, contact: Address) -> None:
        self._cn_send(replace(msg, via_iface=contact.iface))

    # -- setup phase -------------------------------------------------------

    def _send_register(self) -> None:
        msg = build_register(MN_URI, self.spec.interfaces,
                             config=self.spec.signaling,
                             msg_id=next(self._msg_ids))
        self._mn_send(msg)

    def _send_invite(self) -> None:
        invite = self._message(SipMethod.INVITE, CN_URI, CN_IFACE,
                               media_src=Address(CN_URI, CN_IFACE, MEDIA_PORT))
        # CN and registrar share the core: hand over without a link hop.
        self.setup_transaction = self.registrar.forward_with_fallback(invite)

    def _core_receive(self, msg: SipMessage) -> None:
        """Arrival at the wired core (registrar + CN)."""
        if msg.method is SipMethod.REGISTER:
            self.registrar.handle_register(msg)
            return
        # Each run has one INVITE, one setup OK and one REINVITE, so an OK
        # here answers the INVITE and an ACK here the CN's OK.
        if msg.method is SipMethod.OK:
            self.registrar.deliver_answer(msg, mn_address(msg.via_iface))
            if not self._cn_established:
                self._cn_established = True
                self._cn_send(self._message(SipMethod.ACK, CN_URI,
                                            msg.via_iface, msg.msg_id))
        elif msg.method is SipMethod.REINVITE:
            self._cn_on_reinvite(msg)
        elif msg.method is SipMethod.ACK:
            self._handoff_ok_acked = True

    def _mn_receive(self, msg: SipMessage) -> None:
        if msg.method is SipMethod.INVITE:
            self._mn_on_invite(msg)
        elif msg.method is SipMethod.OK:
            self._mn_on_handoff_ok(msg)
        elif msg.method is SipMethod.ACK:
            self._setup_ok_acked = True

    def _mn_on_invite(self, msg: SipMessage) -> None:
        if self._setup_ok is not None:  # a resent or fallback copy
            self._mn_send(self._setup_ok)
            return
        ok = self._setup_ok = self._message(
            SipMethod.OK, MN_URI, msg.via_iface, msg.msg_id,
            mn_address(self.spec.switch_from))
        self._mn_send(ok)
        self._keep_resending(lambda: self._mn_send(ok),
                             lambda: not self._setup_ok_acked, "setup-ok")

    def _setup_guard(self) -> None:
        if not (self._setup_ok_acked and self._cn_established):
            self._abort("setup-incomplete")

    # -- handoff phase -----------------------------------------------------

    def _on_trigger(self) -> None:
        """The MN switches now, unless its new interface is not Up."""
        t, state = self.engine.now, self.state
        if state.iface_states[state.new_iface] is not IfaceState.UP:
            self.handoff_log.record(t, "MN",
                                    "warn:trigger-refused:new-iface-not-up",
                                    "Stable", "Stable")
            return
        state.phase, state.t_trigger = HandoffPhase.SWITCHING, t
        self.handoff_log.record(t, "MN", "trigger", "Stable", "Switching")
        msg = self._message(SipMethod.REINVITE, MN_URI, state.new_iface,
                            media_src=mn_address(state.new_iface))
        self._mn_send(msg)
        self._keep_resending(
            lambda: self._mn_send(msg),
            lambda: state.phase is HandoffPhase.SWITCHING, "reinvite")
        self._apply_steps(PROCEDURE_STEPS[self.spec.procedure][0])

    def _apply_steps(self, steps: tuple[Step, ...]) -> None:
        """Apply and log a row of the procedure table, in order."""
        t, phase = self.engine.now, self.state.phase.value
        for step in steps:
            self.handoff_log.record(t, "MN", step.apply(self.state, t),
                                    phase, phase)
        self._check_state()

    def _cn_on_reinvite(self, msg: SipMessage) -> None:
        """The CN answers every copy of the re-INVITE. The first copy also
        retargets downlink media, effective for packets generated from now
        on; a run has one re-INVITE, whose resends reuse its msg_id."""
        t, state = self.engine.now, self.state
        first = state.t_cn_switch is None
        if first:
            # The peer's media_src is where it now wants downlink media.
            state.dl_media_iface, state.t_cn_switch = msg.media_src.iface, t
            self._check_state()
        ok = self._handoff_ok = self._message(SipMethod.OK, CN_URI,
                                              msg.via_iface, msg.msg_id)
        self._cn_send(ok)
        if first:  # one timer; it resends the latest OK
            self._keep_resending(
                lambda: self._cn_send(self._handoff_ok),
                lambda: not self._handoff_ok_acked, "handoff-ok")
            self.handoff_log.record(t, "CN", "dst-switch", state.phase.value,
                                    state.phase.value)

    def _mn_on_handoff_ok(self, msg: SipMessage) -> None:
        t, state = self.engine.now, self.state
        if state.phase is HandoffPhase.SWITCHING:
            state.phase, state.t_completed = HandoffPhase.COMPLETED, t
            self._apply_steps(PROCEDURE_STEPS[self.spec.procedure][1])
            self.handoff_log.record(t, "MN", "ok", "Switching", "Completed")
        # ACK in all cases, including re-answering a retransmitted OK.
        self._mn_send(self._message(SipMethod.ACK, MN_URI,
                                    state.new_iface, msg.msg_id))

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
        direction is routed once and its packets go to the link in one
        offer; then every packet's fate is recorded, UL before DL at each
        grid point.

        One clock carries both directions exactly. The UL and DL streams
        share one grid and start back to back, and a media tick schedules
        nothing, so as heap events UL(t) and DL(t) would hold consecutive
        sequence numbers: no event could ever come between them.
        """
        spec = self.spec
        t_start = spec.call_start_us
        interval = spec.codec.packet_interval_us
        size = spec.codec.payload_bytes + spec.header_overhead_bytes
        state = self.state

        def fates(direction: str, links: dict[str, Link],
                  times: range) -> list[Fate]:
            mn_iface = media_route(state, direction)
            if mn_iface is None:
                return [(None, LOSS_CLOSED)] * len(times)
            return links[mn_iface].offer(times, size)

        def segment(t: SimTime, n: int) -> None:
            times = range(t, t + n * interval, interval)
            ul = fates(UL, self.links_ul, times)
            dl = fates(DL, self.links_dl, times)
            record = self.trace.record
            ul_iface = state.ul_media_iface
            seq = (t - t_start) // interval
            for gen, (ul_arrival, ul_cause), (dl_arrival, dl_cause) in zip(
                    times, ul, dl):
                record("ul", UL, seq, gen, ul_iface, ul_arrival, ul_cause)
                record("dl", DL, seq, gen, CN_IFACE, dl_arrival, dl_cause)
                seq += 1

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

    # -- run ---------------------------------------------------------------

    def run(self) -> RunResult:
        spec = self.spec
        call_end = spec.call_start_us + spec.call_duration_us
        t_trigger = spec.call_start_us + spec.switch_offset_us
        if spec.switch_jitter_us:
            t_trigger += self.rng.substream("trigger").randint(
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
        # The registrar sends through this runtime. Break that reference
        # cycle, so that the run's trace is freed as soon as its result is
        # dropped and not at the garbage collector's next full pass.
        self.registrar.send = None
        self._check_conservation(call_end)

        return RunResult(
            run_id=spec.run_id, trace=self.trace, signaling=self.signaling,
            handoff_log=self.handoff_log, event_log=self.engine.event_log,
            state=self.state, aborted=self.aborted,
            abort_reason=self.abort_reason,
            t_trigger=self.state.t_trigger,
            t_cn_switch=self.state.t_cn_switch,
            t_completed=self.state.t_completed,
            closed_old_at=self.state.closed_old_at,
            setup_transaction=self.setup_transaction)


def run_call(spec: CallSpec) -> RunResult:
    """Simulate one call end to end; deterministic in spec.seed."""
    return _CallRuntime(spec).run()
