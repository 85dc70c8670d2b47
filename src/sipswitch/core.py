"""Shared domain types: simulation time, codecs, addresses, interfaces."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# Simulation time is an integer count of microseconds since simulation start.
# Integer time keeps event ordering exact; there are no sub-microsecond events.
SimTime = int

US_PER_MS = 1_000
US_PER_S = 1_000_000


def ms_to_us(ms: float) -> int:
    return round(ms * US_PER_MS)


def s_to_us(s: float) -> int:
    return round(s * US_PER_S)


# Media directions: UL is MN -> CN, DL is CN -> MN.
UL = "UL"
DL = "DL"

# Loss causes recorded in packet traces. Every dropped packet carries exactly
# one of these.
LOSS_RANDOM = "random-loss"
LOSS_QUEUE = "queue-overflow"
LOSS_CLOSED = "closed-interface"
LOSS_LINK_DOWN = "link-down"

LOSS_CAUSES = (LOSS_RANDOM, LOSS_QUEUE, LOSS_CLOSED, LOSS_LINK_DOWN)


class SimulationError(Exception):
    """Base class for simulator errors."""


class InternalInvariantError(SimulationError):
    """A simulator self-check failed; indicates a bug, not bad input."""


class Technology(Enum):
    WLAN_LIKE = "wlan-like"
    CELLULAR_LIKE = "cellular-like"
    WIRED = "wired"


class IfaceState(Enum):
    UP = "Up"
    DOWN = "Down"
    CLOSED = "Closed"


@dataclass(frozen=True)
class Address:
    """Opaque network endpoint identity: (node, interface, port).

    Addresses are identifiers, not parsed IP strings; the simulator never
    routes by prefix.
    """

    node: str
    iface: str
    port: int = 0

    def __str__(self) -> str:
        return f"{self.node}.{self.iface}:{self.port}"


# Relative tolerance for the codec rate identity
# payload_bytes * 8 / packet_interval_ms == bitrate_kbps.
RATE_IDENTITY_TOL = 0.02


@dataclass(frozen=True)
class CodecProfile:
    """A voice codec's packet-level and impairment parameters.

    ie is the codec's equipment impairment factor and bpl its packet-loss
    robustness factor, both used by the R-factor computation.
    """

    name: str
    bitrate_kbps: float
    packet_interval_ms: float
    payload_bytes: int
    ie: float
    bpl: float

    @property
    def packet_interval_us(self) -> int:
        return ms_to_us(self.packet_interval_ms)


def validate_codec(codec: CodecProfile) -> list[str]:
    """Return every violated codec invariant; an empty list means valid."""
    violations = []
    for name in ("bitrate_kbps", "packet_interval_ms", "payload_bytes", "ie",
                 "bpl"):
        value = getattr(codec, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            violations.append(
                f"{codec.name}: {name} must be a finite number, got {value!r}")
    if violations:
        return violations
    if codec.packet_interval_ms <= 0:
        violations.append(f"{codec.name}: packet_interval_ms must be positive")
    elif codec.packet_interval_us < 1:
        violations.append(f"{codec.name}: packet_interval_ms "
                          f"{codec.packet_interval_ms:g} rounds to 0 us; "
                          f"the interval must be at least 1 us")
    if codec.bitrate_kbps <= 0:
        violations.append(f"{codec.name}: bitrate_kbps must be positive")
    if codec.payload_bytes <= 0:
        violations.append(f"{codec.name}: payload_bytes must be positive")
    if codec.ie < 0:
        violations.append(f"{codec.name}: ie must be non-negative")
    if codec.bpl <= 0:
        violations.append(f"{codec.name}: bpl must be positive")
    if codec.packet_interval_ms > 0 and codec.bitrate_kbps > 0 and codec.payload_bytes > 0:
        implied_kbps = codec.payload_bytes * 8 / codec.packet_interval_ms
        rel_err = abs(implied_kbps - codec.bitrate_kbps) / codec.bitrate_kbps
        if rel_err > RATE_IDENTITY_TOL:
            violations.append(
                f"{codec.name}: payload/interval implies {implied_kbps:g} kbps, "
                f"which differs from bitrate {codec.bitrate_kbps:g} kbps by more "
                f"than {RATE_IDENTITY_TOL:.0%}"
            )
    return violations


@dataclass(frozen=True)
class InterfaceDescriptor:
    """A node interface: identity, technology, address, and its q-weight.

    q_weight in [0, 1] orders the registrar's signaling priority list;
    magnitudes carry no proportional meaning beyond ordering.
    """

    iface_id: str
    technology: Technology
    address: Address
    q_weight: float
    state: IfaceState = IfaceState.UP

    def __post_init__(self) -> None:
        if not 0.0 <= self.q_weight <= 1.0:
            raise ValueError(f"q_weight must be in [0, 1], got {self.q_weight}")


# Built-in codec presets. Impairment defaults assume packet loss concealment
# for G711; all values are overridable through the experiment config.
CODEC_PRESETS: dict[str, CodecProfile] = {
    "G711": CodecProfile("G711", bitrate_kbps=64.0, packet_interval_ms=20.0,
                         payload_bytes=160, ie=0.0, bpl=25.1),
    "G729": CodecProfile("G729", bitrate_kbps=8.0, packet_interval_ms=20.0,
                         payload_bytes=20, ie=11.0, bpl=19.0),
    "G723.1": CodecProfile("G723.1", bitrate_kbps=6.3, packet_interval_ms=30.0,
                           payload_bytes=24, ie=15.0, bpl=16.1),
}
