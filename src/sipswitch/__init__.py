"""Discrete-event simulator of SIP-managed interface switching for
multihomed VoIP nodes, with E-model call quality metrics."""

__version__ = "0.1.0"

from .core import (
    CodecProfile,
    CODEC_PRESETS,
    IfaceState,
    InterfaceDescriptor,
    SimulationError,
    Technology,
)
from .handoff import HandoffProcedure
from .scenario import CallSpec, RunResult, run_call

__all__ = [
    "CodecProfile",
    "CODEC_PRESETS",
    "IfaceState",
    "InterfaceDescriptor",
    "SimulationError",
    "Technology",
    "HandoffProcedure",
    "CallSpec",
    "RunResult",
    "run_call",
]
