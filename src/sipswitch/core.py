"""Shared domain types: simulation time, codecs, interfaces, run logs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping, Optional, Union

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
LOSS_LINK_DOWN = "link-down"  # only the down links of tests/faults.py

LOSS_CAUSES = (LOSS_RANDOM, LOSS_QUEUE, LOSS_CLOSED, LOSS_LINK_DOWN)


class SimulationError(Exception):
    """Base class for simulator errors."""


class InternalInvariantError(SimulationError):
    """A simulator self-check failed; indicates a bug, not bad input."""


class LineLog:
    """signaling.log or handoff.log: one "(f1, f2, ...)" line per record."""

    def __init__(self):
        self.lines: list[str] = []

    def record(self, *fields: object) -> None:
        self.lines.append("(" + ", ".join(map(str, fields)) + ")")


class Technology(Enum):
    WLAN_LIKE = "wlan-like"
    CELLULAR_LIKE = "cellular-like"
    WIRED = "wired"


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


# Largest time a setting may take. Simulation time is integer us, and up to
# 2**53 us (about 285 years) every time is exact as a float in the metrics.
MAX_TIME_US = 2 ** 53

# Largest packet or message size in bytes: the largest IP packet.
MAX_PACKET_BYTES = 65_535


@dataclass(frozen=True)
class Numeric:
    """The rule every numeric setting obeys.

    A value must be a real number, not a bool, and finite; integral when
    integer is set; at least lo (above lo when above is set) and at most hi.
    None is allowed only when optional is set. A time that the program
    converts to us names the us in one of its units as unit_us: it must be
    at most MAX_TIME_US us and, when above is set, round to at least 1 us.
    A time already in us (unit_us=1) goes to the engine as is: it must be an
    int, where a setting in another unit may be an integral float.
    """

    lo: Optional[float] = None
    hi: Optional[float] = None
    above: bool = False
    integer: bool = False
    unit_us: Optional[int] = None
    optional: bool = False

    def violation(self, value: Any) -> Optional[str]:
        """What is wrong with value, or None when it obeys the rule."""
        if value is None and self.optional:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or isinstance(value, float) and not math.isfinite(value):
            return f"must be a finite number, got {value!r}"
        if self.integer and value != int(value):
            return f"must be an integer, got {value!r}"
        if self.unit_us == 1 and not isinstance(value, int):
            return f"must be an int (a time in us), got {value!r}"
        hi = self.hi if self.unit_us is None else MAX_TIME_US / self.unit_us
        if self.lo is not None and (value <= self.lo if self.above
                                    else value < self.lo):
            op = ">" if self.above else ">="
            return f"must be {op} {self.lo}, got {value!r}"
        if hi is not None and value > hi:
            return f"must be <= {hi}, got {value!r}"
        if self.unit_us is not None and self.above \
                and round(value * self.unit_us) < 1:
            return (f"{value:g} rounds to 0 us; the interval must be at "
                    f"least 1 us")
        return None


@dataclass(frozen=True)
class Range:
    """A value or a [low, high] pair, low <= high, whose ends obey rule."""

    rule: Numeric

    def violation(self, value: Any) -> Optional[str]:
        pair = isinstance(value, (list, tuple)) and len(value) == 2
        ends = value if pair else [value]
        problem = next(filter(None, map(self.rule.violation, ends)), None)
        if problem is None and ends[0] > ends[-1]:
            problem = f"need low <= high, got {value}"
        return problem


def violations(values: Mapping[str, Any], rules: Mapping[str, Any]
               ) -> list[tuple[str, str]]:
    """(name, violation) for each value breaking its rule; missing is None."""
    return [(name, problem) for name, rule in rules.items()
            if (problem := rule.violation(values.get(name))) is not None]


def check_fields(obj: Any, rules: Mapping[str, Numeric]) -> None:
    """Raise ValueError naming every field of obj that breaks its rule."""
    bad = violations(vars(obj), rules)
    if bad:
        raise ValueError("; ".join(f"{name} {problem}"
                                   for name, problem in bad))


CODEC_RULES = {
    "bitrate_kbps": Numeric(0, above=True),
    "packet_interval_ms": Numeric(0, above=True, unit_us=US_PER_MS),
    "payload_bytes": Numeric(1, MAX_PACKET_BYTES, integer=True),
    "ie": Numeric(0, 100),
    "bpl": Numeric(0, above=True),
}


def validate_codec(codec: CodecProfile) -> list[str]:
    """Return every violated codec invariant; an empty list means valid."""
    bad = [f"{codec.name}: {name} {problem}"
           for name, problem in violations(vars(codec), CODEC_RULES)]
    if not bad:
        implied_kbps = codec.payload_bytes * 8 / codec.packet_interval_ms
        rel_err = abs(implied_kbps - codec.bitrate_kbps) / codec.bitrate_kbps
        if rel_err > RATE_IDENTITY_TOL:
            bad.append(
                f"{codec.name}: payload/interval implies {implied_kbps:g} kbps, "
                f"which differs from bitrate {codec.bitrate_kbps:g} kbps by more "
                f"than {RATE_IDENTITY_TOL:.0%}"
            )
    return bad


# The rules of a link's settings that do not depend on a unit. The
# propagation delay's rule is its unit's: us in LinkParams, ms in config.
LINK_RULES = {
    "bitrate_kbps": Numeric(0.001, optional=True),  # at least 1 bit/s
    "queue_capacity_pkts": Numeric(1, integer=True),
    "loss_prob": Numeric(0, 1),
}
LINK_PARAMS_RULES = {
    "prop_delay_us": Range(Numeric(0, integer=True, unit_us=1)), **LINK_RULES}


@dataclass(frozen=True)
class LinkParams:
    """An MN interface's link parameters, both ways; see LINK_PARAMS_RULES.
    A uniform delay range is a [low, high] list or tuple."""

    bitrate_kbps: Optional[float]
    prop_delay_us: Union[int, tuple[int, int], list[int]]
    queue_capacity_pkts: int = 50
    loss_prob: float = 0.0


MN_URI = "mn"

# q_weight in [0, 1] orders the registrar's signaling priority list;
# magnitudes carry no proportional meaning beyond ordering.
Q_WEIGHT = Numeric(0, 1)


@dataclass(frozen=True)
class InterfaceDescriptor:
    """An MN interface: identity, technology, q-weight (Q_WEIGHT) and the
    parameters of its access links. SIP and media name it by its id."""

    iface_id: str
    technology: Technology
    q_weight: float
    link: LinkParams


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
