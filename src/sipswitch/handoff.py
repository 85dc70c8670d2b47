"""Mid-call interface switching: the hard, hybrid and soft procedures.

The three procedures differ only in when the mobile node (MN) moves its
uplink to the new interface and closes the old one. PROCEDURE_STEPS is that
table, and the only place where they differ: the steps the MN applies, in
order, at the switching trigger and at the OK that answers its re-INVITE.

  procedure  at the trigger          at the OK
  hard       close old, uplink new   -
  hybrid     uplink new              close old
  soft       -                       uplink new, close old

Hard is break-before-make, soft make-before-break. The correspondent node
(CN) behaves the same in all three: the first copy of the re-INVITE to
arrive retargets its downlink media to the new interface, in the step that
answers it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .core import DL, UL, IfaceState, SimTime


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
    closed_old_at: Optional[SimTime] = None

    def __post_init__(self):
        self.ul_media_iface = self.ul_media_iface or self.old_iface
        self.dl_media_iface = self.dl_media_iface or self.old_iface
        for iface in (self.old_iface, self.new_iface):
            self.iface_states.setdefault(iface, IfaceState.UP)


class Step(enum.Enum):
    """One change the MN makes to its media path during a switch."""

    CLOSE_OLD = "close old"
    UPLINK_NEW = "uplink new"

    def apply(self, state: HandoffState, t: SimTime) -> str:
        """Make the change at time t; returns its handoff.log transition."""
        if self is Step.CLOSE_OLD:
            state.iface_states[state.old_iface] = IfaceState.CLOSED
            state.closed_old_at = t
            return f"close-{state.old_iface}"
        state.ul_media_iface = state.new_iface
        return f"uplink-{state.new_iface}"

    def applied(self, state: HandoffState) -> bool:
        if self is Step.CLOSE_OLD:
            return state.iface_states[state.old_iface] is IfaceState.CLOSED
        return state.ul_media_iface == state.new_iface


# Each procedure's (steps at the trigger, steps at the OK).
PROCEDURE_STEPS: dict[HandoffProcedure, tuple[tuple[Step, ...], ...]] = {
    HandoffProcedure.HARD: ((Step.CLOSE_OLD, Step.UPLINK_NEW), ()),
    HandoffProcedure.HYBRID: ((Step.UPLINK_NEW,), (Step.CLOSE_OLD,)),
    HandoffProcedure.SOFT: ((), (Step.UPLINK_NEW, Step.CLOSE_OLD)),
}


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
    """Structural invariant check; returns violations (empty when sound).

    Stable has applied no step, Switching exactly its procedure's trigger
    steps, and Completed every step. The CN targets the old interface while
    Stable and the new one once Completed.
    """
    at_trigger, at_ok = PROCEDURE_STEPS[proc]
    due = {HandoffPhase.STABLE: (), HandoffPhase.SWITCHING: at_trigger,
           HandoffPhase.COMPLETED: at_trigger + at_ok}[state.phase]
    phase = f"{proc.value} {state.phase.value}"
    bad = []
    for step in Step:
        if step.applied(state) is not (step in due):
            done = "not applied" if step in due else "applied"
            bad.append(f"{phase} but {step.value} {done}")
    cn_dst = {HandoffPhase.STABLE: state.old_iface,
              HandoffPhase.COMPLETED: state.new_iface}.get(state.phase)
    if cn_dst is not None and state.dl_media_iface != cn_dst:
        bad.append(f"{phase} but CN not targeting {cn_dst}")
    return bad
