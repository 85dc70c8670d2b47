"""Loss ratio, one-way delay, burst ratio, E-model R-factor, and the
sliding-window quality series.

All computations are pure functions of a packet trace; recomputing from an
exported trace file reproduces in-run values bit for bit.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass, replace
from math import fsum
from typing import Optional

from .core import CodecProfile, Numeric, SimTime, US_PER_MS, check_fields
from .traffic import PacketTrace


@dataclass(frozen=True)
class EModelParams:
    """Computational-model constants; all overridable in config."""

    r0: float = 93.2
    delay_coeff_a: float = 0.024   # per ms, below the knee
    delay_coeff_b: float = 0.11    # per ms, above the knee
    delay_threshold_ms: float = 177.3
    loss_ceiling: float = 95.0

    def __post_init__(self):
        check_fields(self, EMODEL_RULES)


# R is on a 0-100 scale; a coefficient above 100 per ms would spend all of it
# on one ms of delay.
_R_SCALE = Numeric(0, 100, above=True)
EMODEL_RULES = {
    "r0": _R_SCALE, "delay_coeff_a": _R_SCALE, "delay_coeff_b": _R_SCALE,
    "delay_threshold_ms": Numeric(0, above=True), "loss_ceiling": _R_SCALE,
}


DEFAULT_EMODEL = EModelParams()


@dataclass(frozen=True)
class WindowMetrics:
    """One sliding window's averaged metrics and resulting R-factor.

    carried: no packet was generated in the window; all values copied from
    the previous window. carried_delay: no packet was delivered, so only the
    delay is copied (ppl is real, typically 1).
    """

    window_start: SimTime
    window_len_ms: float
    mean_delay_ms: float
    ppl: float
    burst_r: float
    r_factor: float
    carried: bool = False
    carried_delay: bool = False
    generated: int = 0


def id_delay_impairment(d_ms: float, params: EModelParams = DEFAULT_EMODEL) -> float:
    """Delay impairment: linear in delay with a steeper slope past the knee."""
    if d_ms < 0:
        raise ValueError("delay must be non-negative")
    impairment = params.delay_coeff_a * d_ms
    if d_ms > params.delay_threshold_ms:
        impairment += params.delay_coeff_b * (d_ms - params.delay_threshold_ms)
    return impairment


def ie_effective(codec: CodecProfile, ppl: float, burst_r: float,
                 params: EModelParams = DEFAULT_EMODEL) -> float:
    """Loss-adjusted equipment impairment.

    Ie_eff = Ie + (ceiling - Ie) * 100*ppl / (100*ppl/burst_r + Bpl);
    equals Ie exactly at zero loss. Bursty loss (burst_r > 1) weakens the
    denominator, raising the impairment.
    """
    if burst_r <= 0:
        raise ValueError("burst ratio must be positive")
    if not 0.0 <= ppl <= 1.0:
        raise ValueError("ppl must be in [0, 1]")
    if ppl == 0.0:
        return float(codec.ie)
    p = 100.0 * ppl
    return codec.ie + (params.loss_ceiling - codec.ie) * p / (p / burst_r + codec.bpl)


def r_factor(mean_delay_ms: float, ppl: float, burst_r: float,
             codec: CodecProfile,
             params: EModelParams = DEFAULT_EMODEL) -> float:
    """R = r0 - Id - Ie_eff, not clamped (total loss can push it below 0)."""
    return (params.r0
            - id_delay_impairment(mean_delay_ms, params)
            - ie_effective(codec, ppl, burst_r, params))


def burst_ratio(loss_flags, ppl: float) -> float:
    """Observed mean loss-run length over the mean expected under
    independent losses (1/(1-ppl)).

    1.0 when nothing was lost; at total loss (ppl = 1) the independence
    expectation diverges, so the observed mean run length is returned.
    """
    runs: list[int] = []
    current = 0
    for lost in loss_flags:
        if lost:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    if not runs or ppl <= 0.0:
        return 1.0
    observed = fsum(runs) / len(runs)
    if ppl >= 1.0:
        return observed
    return observed * (1.0 - ppl)


def _quality(rows: list[tuple], no_delivery_delay_ms: float,
             codec: CodecProfile, params: EModelParams,
             use_burst_ratio: bool) -> tuple[int, float, float, float, float]:
    """(lost, ppl, mean delay ms, burst ratio, R) over rows in generation
    order. The delay is no_delivery_delay_ms when nothing was delivered."""
    flags = [r[6] is not None for r in rows]
    lost = sum(flags)
    delivered = len(rows) - lost
    ppl = lost / len(rows)
    if delivered:
        delay = fsum((r[5] - r[3]) for r in rows
                     if r[5] is not None) / (delivered * US_PER_MS)
    else:
        delay = no_delivery_delay_ms
    br = burst_ratio(flags, ppl) if use_burst_ratio else 1.0
    return lost, ppl, delay, br, r_factor(delay, ppl, br, codec, params)


def window_series(trace: PacketTrace, direction: str, codec: CodecProfile,
                  window_len_ms: float = 60.0,
                  stride_ms: Optional[float] = None,
                  params: EModelParams = DEFAULT_EMODEL,
                  use_burst_ratio: bool = True) -> list[WindowMetrics]:
    """Window the trace by generation time and compute each window's metrics.

    Windows tile from the first generation instant while their start does
    not pass the last one; stride defaults to the window length. With
    use_burst_ratio False every window uses burst_r = 1 (plain loss model).
    """
    rows = trace.rows_for(direction)
    if not rows:
        return []
    window_us = round(window_len_ms * US_PER_MS)
    stride_us = round((stride_ms if stride_ms is not None else window_len_ms)
                      * US_PER_MS)
    if window_us <= 0 or stride_us <= 0:
        raise ValueError("window and stride must be positive")
    gens = [r[3] for r in rows]
    first, last = gens[0], gens[-1]
    out: list[WindowMetrics] = []
    prev: Optional[WindowMetrics] = None
    start = first
    while start <= last:
        lo = bisect_left(gens, start)
        hi = bisect_left(gens, start + window_us)
        generated = hi - lo
        if generated == 0:
            # Nothing generated here: carry the previous window forward. The
            # first window holds the first packet, so a previous one exists.
            wm = replace(prev, window_start=start, carried=True,
                         carried_delay=True, generated=0)
        else:
            lost, ppl, delay, br, r = _quality(
                rows[lo:hi], prev.mean_delay_ms if prev else 0.0, codec,
                params, use_burst_ratio)
            wm = WindowMetrics(
                window_start=start, window_len_ms=window_len_ms,
                mean_delay_ms=delay, ppl=ppl, burst_r=br, r_factor=r,
                carried=False, carried_delay=lost == generated,
                generated=generated)
        out.append(wm)
        prev = wm
        start += stride_us
    return out


@dataclass(frozen=True)
class CallSummary:
    """Whole-call totals and the call-level R-factor."""

    generated: int
    delivered: int
    lost: int
    ppl: float
    mean_delay_ms: float
    burst_r: float
    r_factor: float


def call_summary(trace: PacketTrace, direction: str, codec: CodecProfile,
                 params: EModelParams = DEFAULT_EMODEL,
                 use_burst_ratio: bool = True) -> CallSummary:
    rows = trace.rows_for(direction)
    if not rows:
        raise ValueError(f"trace has no {direction} packets")
    lost, ppl, delay, br, r = _quality(rows, 0.0, codec, params,
                                       use_burst_ratio)
    return CallSummary(generated=len(rows), delivered=len(rows) - lost,
                       lost=lost, ppl=ppl, mean_delay_ms=delay, burst_r=br,
                       r_factor=r)


METRICS_COLUMNS = ("run_id", "window_start_us", "mean_delay_ms", "ppl",
                   "burst_r", "r_factor", "carried", "carried_delay")


def write_metrics(path: str, run_id: str, series: list[WindowMetrics]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(METRICS_COLUMNS)
        for m in series:
            w.writerow((run_id, m.window_start, m.mean_delay_ms, m.ppl,
                        m.burst_r, m.r_factor, int(m.carried),
                        int(m.carried_delay)))

