"""The window pipeline: per-window loss ratio, one-way delay, burst ratio
and E-model R-factor of a packet trace, the metrics file, the exact
per-window sums across a cell's runs and its aggregate file; and a run's
whole-call loss totals.

All computations are pure functions of a packet trace; recomputing from an
exported trace file reproduces in-run values bit for bit.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from math import frexp, isfinite, isqrt
from operator import add, lshift, mul, sub, truediv
from typing import Callable, Optional, Sequence

from .core import (
    US_PER_MS,
    CodecProfile,
    InternalInvariantError,
    Numeric,
    SimTime,
    SimulationError,
    check_fields,
)
from .traffic import CsvFields, PacketTrace, window_bounds, write_csv


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


@dataclass
class WindowSeries:
    """One direction's sliding windows as seven parallel columns, one entry
    per window: its start, averaged metrics and resulting R-factor. No
    window is an object of its own. Its length is the number of windows, so
    a direction with no packets gives an empty, falsy series.

    carried: no packet was generated in the window; all values copied from
    the previous window. carried_delay: no packet was delivered, so only the
    delay is copied (ppl is real, typically 1).
    """

    window_start: list[SimTime] = field(default_factory=list)
    mean_delay_ms: list[float] = field(default_factory=list)
    ppl: list[float] = field(default_factory=list)
    burst_r: list[float] = field(default_factory=list)
    r_factor: list[float] = field(default_factory=list)
    carried: list[bool] = field(default_factory=list)
    carried_delay: list[bool] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.window_start)

    def head(self, m: int) -> WindowSeries:
        """The first m windows."""
        return WindowSeries(*(column[:m] for column in vars(self).values()))


def _bind_id(params: EModelParams) -> Callable[[float], float]:
    """Delay impairment Id(d): linear, with a steeper slope past the knee."""
    a, b, knee = (params.delay_coeff_a, params.delay_coeff_b,
                  params.delay_threshold_ms)

    def id_(d_ms: float) -> float:
        if d_ms < 0:
            raise ValueError("delay must be non-negative")
        return a * d_ms + b * (d_ms - knee) if d_ms > knee else a * d_ms
    return id_


def _bind_ie(codec: CodecProfile,
             params: EModelParams) -> Callable[[float, float], float]:
    """Loss-adjusted equipment impairment Ie_eff(ppl, burst_r) = Ie +
    (ceiling - Ie) * 100*ppl / (100*ppl/burst_r + Bpl), Ie at zero loss."""
    ie, ie_float, bpl = codec.ie, float(codec.ie), codec.bpl
    span = params.loss_ceiling - ie

    def ie_eff(ppl: float, burst_r: float) -> float:
        if burst_r <= 0:
            raise ValueError("burst ratio must be positive")
        if not 0.0 <= ppl <= 1.0:
            raise ValueError("ppl must be in [0, 1]")
        if ppl == 0.0:
            return ie_float
        p = 100.0 * ppl
        return ie + span * p / (p / burst_r + bpl)
    return ie_eff


def emodel(codec: CodecProfile, params: EModelParams,
           delays: Sequence[float], ppls: Sequence[float],
           brs: Sequence[float]) -> list[float]:
    """R = r0 - Id(d_ms) - Ie_eff(ppl, burst_r) of each window, over its
    delay, loss and burst ratio columns (any iterables), with codec and
    params bound once; not clamped (total loss can push it below 0)."""
    id_, ie_eff = _bind_id(params), _bind_ie(codec, params)
    return list(map(sub, map(sub, repeat(params.r0), map(id_, delays)),
                    map(ie_eff, ppls, brs)))


def burst_ratio(loss_flags, ppl: float) -> float:
    """Observed mean loss-run length over the mean expected under
    independent losses (1/(1-ppl)); a flag is any truthy loss mark.

    1.0 when nothing was lost; at total loss (ppl = 1) the independence
    expectation diverges, so the observed mean run length is returned.
    """
    lost = runs = 0
    prev = None
    for flag in loss_flags:
        if flag:
            lost += 1
            if not prev:
                runs += 1   # a loss not after a loss starts a run
        prev = flag
    if not runs or ppl <= 0.0:
        return 1.0
    observed = lost / runs
    if ppl >= 1.0:
        return observed
    return observed * (1.0 - ppl)


def window_series(trace: PacketTrace, direction: str, codec: CodecProfile,
                  window_len_ms: float = 60.0,
                  stride_ms: Optional[float] = None,
                  params: EModelParams = DEFAULT_EMODEL,
                  use_burst_ratio: bool = True,
                  given: Optional[WindowSeries] = None) -> WindowSeries:
    """Window the trace by generation time and compute each window's metrics.

    Windows tile from the first generation instant while their start does
    not pass the last one; stride defaults to the window length. With
    use_burst_ratio False every window uses burst_r = 1 (plain loss model).

    given holds leading windows already computed with these settings on a
    trace whose packets agree with this one's up to the last given window's
    end: an earlier run's, cut by shared_head at the time before which the
    two traces agree (agree_before). Up to this trace's own number of
    windows they are taken as they are, and the pass goes on after them.

    One pass over the windows' packet bounds, which window_bounds takes
    from its grid memo on a run's packet grid and finds with two pointers
    on any other times (ties, gaps, times that only look like a grid). A
    window's slice of loss causes gives its losses and prefix sums its
    delay sum, an exact integer, so the mean delay equals fsum over the
    window. A window with nothing generated keeps the previous window's
    delay, loss and burst ratio, so its R, evaluated with the rest, is the
    previous one's.
    """
    packets = trace.directions.get(direction)
    if packets is None:
        return WindowSeries()
    gens, causes = packets.gen, packets.cause
    window_us = round(window_len_ms * US_PER_MS)
    stride_us = round((stride_ms if stride_ms is not None else window_len_ms)
                      * US_PER_MS)
    if window_us <= 0 or stride_us <= 0:
        raise ValueError("window and stride must be positive")
    starts = range(gens[0], gens[-1] + 1, stride_us)
    los, his = window_bounds(gens, starts, window_us)
    head = given.head(len(starts)) if given else WindowSeries()
    m = len(head)
    # Delay sums from the first packet of window m on; before it, zeros.
    first = los[m] if m < len(starts) else len(gens)
    cum_delay = [0] * first
    cum_delay += accumulate((
        0 if arrival is None else arrival - gen
        for gen, arrival in zip(gens[first:], packets.arrival[first:])),
        initial=0)
    delays, ppls, brs = head.mean_delay_ms, head.ppl, head.burst_r
    carried, carried_delay = head.carried, head.carried_delay
    # The first window holds the first packet, so it sets all three; an
    # all-lost first window keeps the delay 0.0.
    delay, ppl, br = (delays[-1], ppls[-1], brs[-1]) if m else (0.0,) * 3
    for lo, hi in zip(los[m:], his[m:]):
        generated = hi - lo
        if generated:
            window = causes[lo:hi]
            delivered = window.count(None)
            n_lost = generated - delivered
            ppl = n_lost / generated
            if delivered:
                delay = (float(cum_delay[hi] - cum_delay[lo])
                         / (delivered * US_PER_MS))
            br = (burst_ratio(window, ppl)
                  if n_lost and use_burst_ratio else 1.0)
        delays.append(delay)
        ppls.append(ppl)
        brs.append(br)
        carried.append(not generated)
        carried_delay.append(not (generated and delivered))
    r_factor = head.r_factor
    r_factor += emodel(codec, params, *(islice(column, m, None)
                                        for column in (delays, ppls, brs)))
    return WindowSeries(list(starts), delays, ppls, brs, r_factor, carried,
                        carried_delay)


def shared_head(series: WindowSeries, rows: list[str], t_us: SimTime,
                window_len_ms: float) -> tuple[WindowSeries, list[str]]:
    """The windows of series that end by t_us, and their metrics rows: what
    a run whose packets agree with those of series' run before t_us
    (agree_before) takes as window_series' given and write_metrics' head.
    Each of those windows holds only packets generated before t_us."""
    m = bisect_right(series.window_start,
                     t_us - round(window_len_ms * US_PER_MS))
    return series.head(m), rows[:m]


def call_summary(trace: PacketTrace, direction: str) -> tuple[int, float]:
    """One direction's lost packets and their share of those generated."""
    packets = trace.directions.get(direction)
    if packets is None:
        raise ValueError(f"trace has no {direction} packets")
    causes = packets.cause
    lost = len(causes) - causes.count(None)
    return lost, lost / len(causes)


METRICS_COLUMNS = ("run_id", "window_start_us", "mean_delay_ms", "ppl",
                   "burst_r", "r_factor", "carried", "carried_delay")


def write_metrics(path: str, run_id: str, series: WindowSeries,
                  head: Sequence[str] = ()) -> list[str]:
    """One row per window (each float as its repr, each flag, a bool, as 0
    or 1), each behind the run id. Returns the rows' text after the run id.
    head holds that text for the leading windows, as shared_head gives it
    from an earlier run; only the windows after it are formatted."""
    rows = list(head[:len(series)])
    columns = (series.window_start, series.mean_delay_ms, series.ppl,
               series.burst_r, series.r_factor, series.carried,
               series.carried_delay)
    rows += [f"{start},{delay!r},{ppl!r},{br!r},{r!r},{'01'[c]},{'01'[cd]}"
             for start, delay, ppl, br, r, c, cd in zip(
                 *(islice(column, len(rows), None) for column in columns))]
    run = CsvFields()[run_id] + ","
    write_csv(path, METRICS_COLUMNS,
              [run + f"\n{run}".join(rows)] if rows else [])
    return rows


# Bits of the integer square root taken before its one rounding to a float:
# rounded to odd at 2p + 3 bits, it then rounds correctly to p bits.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_ratio(n: int, m: int) -> float:
    """sqrt(n / m) correctly rounded, for integers n >= 0 and m > 0."""
    q = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = isqrt(n // m)
    root |= root * root * m != n  # round to odd
    return float(root << q) if q >= 0 else root / (1 << -q)


class WindowSums:
    """Exact sums of runs' values per column (a window's field): S1 of the
    values and S2 of their squares, each scaled to one shared denominator
    D = 2**exp. When a value needs D * 2**k, S1 <<= k and S2 <<= 2k.
    Integer sums ignore the order of addition, so any split of the runs,
    merged in any order, finishes to the same floats: the mean (S1/D)/n,
    which is fsum(values)/n, and the sample std, which is statistics.stdev
    from 3.11 on: sqrt((n*S2 - S1**2) / (n*(n-1)*D**2)), rounded once.
    """

    def __init__(self) -> None:
        self.n, self.grid, self.exp = 0, (), 0
        self.s1, self.s2 = [], []   # one int per column each

    def __len__(self) -> int:
        return self.n   # runs folded in

    def add(self, grid: Sequence, values: Sequence[float]) -> None:
        """Fold in one run: its window starts and its value per column."""
        try:
            # v * 2**k is an exact integer once k >= 53 - frexp(v)[1]
            mags = list(map(abs, values))
            low = min(filter(None, mags), default=1.0)
            k = max(self.exp, 53 - frexp(low)[1])
            if frexp(max(mags, default=0.0))[1] > 53:
                raise OverflowError   # an int this large may not convert
            # exact below overflow; 2.0 ** k itself overflows from k = 1024
            scaled = list(map(int, map(mul, values, repeat(2.0 ** k))))
        except (OverflowError, ValueError):   # too wide, or not finite
            try:
                ratios = [v.as_integer_ratio() for v in values]
            except (OverflowError, ValueError):
                bad = next(v for v in values if not isfinite(v))
                raise InternalInvariantError(
                    f"a non-finite value to sum: {bad!r}") from None
            k = max([self.exp, *(d.bit_length() - 1 for _, d in ratios)])
            scaled = [n << k + 1 - d.bit_length() for n, d in ratios]
        run = WindowSums()
        run.n, run.grid, run.exp = 1, tuple(grid), k
        run.s1, run.s2 = scaled, list(map(mul, scaled, scaled))
        self.merge(run)

    def merge(self, other: WindowSums) -> None:
        """Add another fold's runs to this one's."""
        if not self.n or not other.n:
            if other.n:
                self.__dict__.update(vars(other))
            return
        if other.grid != self.grid or len(other.s1) != len(self.s1):
            raise SimulationError("mismatched window grids across runs")
        k = max(self.exp, other.exp)
        (a1, a2), (b1, b2) = self._at(k), other._at(k)
        self.s1, self.s2 = list(map(add, a1, b1)), list(map(add, a2, b2))
        self.n, self.exp = self.n + other.n, k

    def _at(self, k: int) -> tuple[list[int], list[int]]:
        """S1 and S2 at the denominator 2**k, k >= exp."""
        if k == self.exp:
            return self.s1, self.s2
        return (list(map(lshift, self.s1, repeat(k - self.exp))),
                list(map(lshift, self.s2, repeat(2 * (k - self.exp)))))

    def finish(self) -> tuple[list[float], list[float]]:
        """Per column, the mean and the sample std (0.0 for one run)."""
        n, d = self.n, 1 << self.exp
        if not n:
            raise SimulationError("nothing to aggregate")
        means = list(map(truediv, map(truediv, self.s1, repeat(d)),
                         repeat(n)))
        m = n * (n - 1) * d * d
        if not m:
            return means, [0.0] * len(means)
        # n*S2 - S1**2 is 0 for a column of equal values, whose std is 0.0
        spreads = map(sub, map(mul, repeat(n), self.s2),
                      map(mul, self.s1, self.s1))
        return means, [_sqrt_of_ratio(v, m) if v else 0.0 for v in spreads]


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation, 0.0 for a single value: bit for bit what
    statistics.stdev returns from Python 3.11 on, as a one-window fold."""
    sums = WindowSums()
    for value in values:
        sums.add((), (value,))
    return sums.finish()[1][0]


@dataclass
class AggregateSeries:
    """Elementwise mean and sample standard deviation across repetitions."""

    window_starts: list[int]
    means: dict[str, list[float]]
    stds: dict[str, list[float]]


AGGREGATE_FIELDS = ("mean_delay_ms", "ppl", "burst_r", "r_factor")


def fold(sums: WindowSums, series: WindowSeries) -> None:
    """Fold one run's window series into sums, field after field."""
    sums.add(series.window_start, list(chain.from_iterable(
        getattr(series, f) for f in AGGREGATE_FIELDS)))


def aggregate(sums: WindowSums) -> AggregateSeries:
    """Per window and field, the mean and the sample std across the runs
    folded into sums."""
    means, stds = sums.finish()
    w = len(sums.grid)
    return AggregateSeries(
        window_starts=list(sums.grid),
        means={f: means[i * w:(i + 1) * w]
               for i, f in enumerate(AGGREGATE_FIELDS)},
        stds={f: stds[i * w:(i + 1) * w]
              for i, f in enumerate(AGGREGATE_FIELDS)})


def write_aggregate(path: str, agg: AggregateSeries) -> None:
    header, columns = ["window_start_us"], [map(str, agg.window_starts)]
    for fname in AGGREGATE_FIELDS:
        header += [f"{fname}_mean", f"{fname}_std"]
        columns += [map(repr, agg.means[fname]), map(repr, agg.stds[fname])]
    write_csv(path, tuple(header), list(map(",".join, zip(*columns))))
