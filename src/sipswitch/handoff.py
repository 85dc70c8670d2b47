"""Mid-call interface switching: hard, hybrid, and soft procedures as one
parameterized state machine per session endpoint.

The three procedures differ only in when the mobile node moves its uplink
and closes the old interface:

  hard    break-before-make: close old + move uplink at the trigger
  hybrid  move uplink at the trigger, close old at OK reception
  soft    make-before-break: move uplink and close old at OK reception

The correspondent node behaves identically in all three: it retargets
downlink media when the re-INVITE arrives and the OK is dispatched, as one
atomic step.

Operations mutate the HandoffState and return a list of action tuples for
the caller to execute and log: ("send-reinvite", iface), ("send-ok", iface),
("close-iface", iface), ("set-uplink", iface), ("set-cn-dst", iface),
("warn", reason). State effects are already applied when the list is
returned; callers perform only the sends and the logging.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .core import DL, UL, IfaceState, SimTime
from .sip import SipMessage, SipMethod


class HandoffProcedure(enum.Enum):
    HARD = "hard"
    HYBRID = "hybrid"
    SOFT = "soft"


class HandoffPhase(enum.Enum):
    STABLE = "Stable"
    SWITCHING = "Switching"
    COMPLETED = "Completed"


@dataclass
class HandoffState:
    """Session-level switching state shared by the MN and CN views.

    iface_states tracks Up/Down/Closed per MN interface. Uplink media
    leaves by ul_media_iface; the CN sends downlink media to dl_media_iface.
    Both start on the old interface.
    """

    old_iface: str
    new_iface: str
    iface_states: dict[str, IfaceState] = field(default_factory=dict)
    phase: HandoffPhase = HandoffPhase.STABLE
    ul_media_iface: str = ""
    dl_media_iface: str = ""
    t_trigger: Optional[SimTime] = None
    t_cn_switch: Optional[SimTime] = None
    t_completed: Optional[SimTime] = None
    seen_reinvites: set[int] = field(default_factory=set)

    def __post_init__(self):
        self.ul_media_iface = self.ul_media_iface or self.old_iface
        self.dl_media_iface = self.dl_media_iface or self.old_iface
        for iface in (self.old_iface, self.new_iface):
            self.iface_states.setdefault(iface, IfaceState.UP)

    @property
    def old_iface_state(self) -> IfaceState:
        return self.iface_states[self.old_iface]


def mn_trigger(state: HandoffState, proc: HandoffProcedure,
               t: SimTime) -> list[tuple]:
    """MN-side switching trigger. Refused (no state change) unless the
    session is Stable and the new interface is Up."""
    if state.phase is not HandoffPhase.STABLE:
        return [("warn", f"trigger-refused:phase-{state.phase.value}")]
    if state.iface_states[state.new_iface] is not IfaceState.UP:
        return [("warn", "trigger-refused:new-iface-not-up")]
    state.phase = HandoffPhase.SWITCHING
    state.t_trigger = t
    actions: list[tuple] = [("send-reinvite", state.new_iface)]
    if proc is HandoffProcedure.HARD:
        state.iface_states[state.old_iface] = IfaceState.CLOSED
        state.ul_media_iface = state.new_iface
        actions.append(("close-iface", state.old_iface))
        actions.append(("set-uplink", state.new_iface))
    elif proc is HandoffProcedure.HYBRID:
        state.ul_media_iface = state.new_iface
        actions.append(("set-uplink", state.new_iface))
    # Soft: media keeps flowing through the old interface until OK.
    return actions


def cn_on_reinvite(state: HandoffState, msg: SipMessage,
                   t: SimTime) -> list[tuple]:
    """CN-side re-INVITE handling: answer OK on the arrival path and retarget
    downlink media, effective for packets generated at or after t.

    Retransmitted duplicates get a fresh OK but change nothing.
    """
    if msg.method is not SipMethod.REINVITE:
        raise ValueError(f"cn_on_reinvite needs REINVITE, got {msg.method.value}")
    if msg.msg_id in state.seen_reinvites:
        return [("send-ok", msg.via_iface)]
    state.seen_reinvites.add(msg.msg_id)
    # The peer's media_src is where it now wants to receive downlink media.
    state.dl_media_iface = msg.media_src.iface
    state.t_cn_switch = t
    return [("send-ok", msg.via_iface), ("set-cn-dst", state.dl_media_iface)]


def mn_on_ok(state: HandoffState, proc: HandoffProcedure,
             t: SimTime) -> list[tuple]:
    """MN-side OK handling: finishes the procedure."""
    if state.phase is not HandoffPhase.SWITCHING:
        return [("warn", "ok-with-no-pending-handoff")]
    actions: list[tuple] = []
    if proc is HandoffProcedure.HYBRID:
        state.iface_states[state.old_iface] = IfaceState.CLOSED
        actions.append(("close-iface", state.old_iface))
    elif proc is HandoffProcedure.SOFT:
        state.ul_media_iface = state.new_iface
        state.iface_states[state.old_iface] = IfaceState.CLOSED
        actions.append(("set-uplink", state.new_iface))
        actions.append(("close-iface", state.old_iface))
    # Hard: the old interface was already closed at the trigger.
    state.phase = HandoffPhase.COMPLETED
    state.t_completed = t
    return actions


def media_route(state: HandoffState, direction: str) -> Optional[str]:
    """The MN interface that carries a media packet generated now, or None
    when the packet has no route because that interface is Closed.

    Hard-procedure downlink losses arise exactly here: the CN still targets
    the Closed old interface until its re-INVITE arrives.
    """
    if direction == UL:
        iface = state.ul_media_iface
    elif direction == DL:
        iface = state.dl_media_iface
    else:
        raise ValueError(f"unknown media direction {direction!r}")
    if state.iface_states.get(iface) is IfaceState.CLOSED:
        return None
    return iface


def check_state(state: HandoffState, proc: HandoffProcedure) -> list[str]:
    """Structural invariant check; returns violations (empty when sound)."""
    bad: list[str] = []
    if state.phase is HandoffPhase.STABLE:
        if state.ul_media_iface != state.old_iface:
            bad.append("Stable but uplink not on old interface")
        if state.dl_media_iface != state.old_iface:
            bad.append("Stable but CN targets a non-old address")
    elif state.phase is HandoffPhase.COMPLETED:
        if state.ul_media_iface != state.new_iface:
            bad.append("Completed but uplink not on new interface")
        if state.dl_media_iface != state.new_iface:
            bad.append("Completed but CN not targeting new address")
        if state.old_iface_state is not IfaceState.CLOSED:
            bad.append("Completed but old interface not Closed")
    elif state.phase is HandoffPhase.SWITCHING:
        if proc is HandoffProcedure.HARD and \
                state.old_iface_state is not IfaceState.CLOSED:
            bad.append("hard Switching but old interface not Closed")
        if proc is HandoffProcedure.SOFT and \
                state.ul_media_iface != state.old_iface:
            bad.append("soft Switching but uplink left old interface early")
    return bad


class HandoffLog:
    """One line per endpoint state transition."""

    def __init__(self):
        self.lines: list[str] = []

    def record(self, time_us: SimTime, endpoint: str, transition: str,
               before: str, after: str) -> None:
        self.lines.append(f"({time_us}, {endpoint}, {transition}, {before}, {after})")
