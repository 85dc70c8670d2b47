"""Exactness properties of the fast analysis and export paths.

stdev must return bit for bit what statistics.stdev returns, WindowSums
fsum(values) / n and statistics.stdev however its runs are split and
merged, the
one-pass window_series must equal the former bisect-and-slice version,
kept below as the oracle, and call_summary its totals taken row by row, on
random traces. The one-loop burst_ratio must equal the former mean of a
list of run lengths, the E-model over a series' columns the former per-call
r_factor window by window, and the column-wise write_metrics and
write_aggregate the former per-row rendering, byte for byte; the former
versions are kept below as oracles.
"""

import csv
import io
import math
import os
import statistics
import sys
import tempfile
from bisect import bisect_left
from math import fsum

import pytest
from hypothesis import example, given, settings, strategies as st

from sipswitch.core import (
    CODEC_PRESETS,
    DL,
    LOSS_CAUSES,
    LOSS_CLOSED,
    LOSS_RANDOM,
    UL,
    US_PER_MS,
    InternalInvariantError,
    SimulationError,
)
from sipswitch.metrics import (
    AGGREGATE_FIELDS,
    DEFAULT_EMODEL,
    METRICS_COLUMNS,
    AggregateSeries,
    EModelParams,
    WindowSums,
    _sqrt_of_ratio,
    aggregate,
    burst_ratio,
    call_summary,
    emodel,
    fold,
    shared_head,
    stdev,
    window_series,
    write_aggregate,
    write_metrics,
)
from sipswitch.traffic import (
    TRACE_COLUMNS,
    CsvFields,
    DirectionTrace,
    PacketTrace,
    agree_before,
    grid_of,
    write_csv,
    write_trace,
)

from emodel_terms import r_factor
from trace_rows import Window, series_of, trace_rows, window_rows

G729 = CODEC_PRESETS["G729"]

# derandomize keeps the suite's outcome fixed; drop it and raise
# max_examples to search further.
EXACT = settings(max_examples=300, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# stdev


def same_as_statistics(values):
    assert stdev(values).hex() == statistics.stdev(values).hex(), values


# Before 3.11, statistics.stdev rounded twice (math.sqrt of a float).
needs_correct_rounding = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="statistics.stdev is correctly rounded from Python 3.11")

WIDE_FLOATS = st.floats(min_value=-1e150, max_value=1e150,
                        allow_nan=False, allow_infinity=False)


@needs_correct_rounding
@EXACT
@given(st.lists(WIDE_FLOATS, min_size=2, max_size=60))
def test_stdev_is_statistics_stdev_over_a_wide_exponent_range(values):
    same_as_statistics(values)


@needs_correct_rounding
@EXACT
@given(st.integers(min_value=-60, max_value=60),
       st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=2,
                max_size=60),
       st.lists(st.sampled_from([1.0, -1.0]), min_size=60, max_size=60))
def test_stdev_is_statistics_stdev_on_close_values(exponent, mantissas,
                                                   signs):
    # values of one magnitude, as a window field across repetitions is
    same_as_statistics([s * m * 2.0 ** exponent
                        for s, m in zip(signs, mantissas)])


@needs_correct_rounding
@EXACT
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                min_size=2, max_size=60))
def test_stdev_is_statistics_stdev_on_ints(values):
    same_as_statistics(values)


@EXACT
@given(st.one_of(WIDE_FLOATS, st.integers(-10 ** 6, 10 ** 6)),
       st.integers(min_value=2, max_value=60))
def test_stdev_of_a_constant_list_is_zero(value, n):
    assert stdev([value] * n) == 0.0
    assert stdev([value]) == 0.0


@needs_correct_rounding
def test_stdev_at_the_edges():
    same_as_statistics([0.0, 5e-324])           # a subnormal result
    same_as_statistics([1e-300, -1e-300, 0.0])
    same_as_statistics([1e308, 1e308, -1e308])  # a result near the top
    same_as_statistics([0.1, 0.2, 0.3])
    same_as_statistics([2 ** 60 + 1, 2 ** 60 + 4, 2 ** 60])  # ints no float holds


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_stdev_of_a_non_finite_value_is_an_invariant_error(bad):
    # statistics.stdev ends in an AttributeError here; a window value is
    # never non-finite, so one is a bug
    for values in ([1.0, bad], [bad, bad]):
        with pytest.raises(InternalInvariantError, match="non-finite"):
            stdev(values)


# ---------------------------------------------------------------------------
# WindowSums: any split of the runs, merged in any order


def scaled_floats(exponents):
    # a mantissa times 10**e: magnitudes from 1e-12 to 1e6, either sign
    return st.builds(lambda m, e: m * 10.0 ** e,
                     st.floats(-9.99, 9.99, allow_nan=False), exponents)


COLUMN = st.one_of(
    st.integers(-12, 6).flatmap(lambda e: st.lists(
        scaled_floats(st.just(e)), min_size=1, max_size=7)),
    st.lists(scaled_floats(st.integers(-12, 6)), min_size=1, max_size=7),
    st.tuples(st.sampled_from([0.0, 1.0]), st.integers(1, 7)).map(
        lambda vn: [vn[0]] * vn[1]))


def splits(n):
    """Every split of range(n) into contiguous chunks."""
    for mask in range(1 << (n - 1)):
        cuts = [0] + [i for i in range(1, n) if mask >> (i - 1) & 1] + [n]
        yield [range(a, b) for a, b in zip(cuts, cuts[1:])]


@needs_correct_rounding
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(COLUMN, min_size=1, max_size=3), st.randoms())
def test_window_sums_of_any_split_and_order_are_fsum_and_stdev(columns,
                                                               rng):
    n = min(map(len, columns))
    rows = [[column[i] for column in columns] for i in range(n)]
    grid = list(range(len(columns)))
    want = ([(fsum(c[:n]) / n).hex() for c in columns],
            [(statistics.stdev(c[:n]) if n > 1 else 0.0).hex()
             for c in columns])
    for chunks in splits(n):
        parts = []
        for chunk in chunks:
            part = WindowSums()
            for i in chunk:
                part.add(grid, rows[i])
            parts.append(part)
        rng.shuffle(parts)
        total = WindowSums()
        for part in parts:
            total.merge(part)
        assert len(total) == n
        means, stds = total.finish()
        got = [m.hex() for m in means], [s.hex() for s in stds]
        assert got == want, (rows, chunks)


def per_column_finish(sums):
    """WindowSums.finish as one formula per column."""
    n, d = sums.n, 1 << sums.exp
    m = n * (n - 1) * d * d
    return ([s1 / d / n for s1 in sums.s1],
            [_sqrt_of_ratio(n * s2 - s1 * s1, m) if m else 0.0
             for s1, s2 in zip(sums.s1, sums.s2)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(COLUMN, min_size=1, max_size=6))
@example([[0.0]])                               # n = 1
@example([[2.5, 2.5, 2.5], [0.0, -0.0, 0.0]])   # equal values, both zeros
@example([[-0.0, -0.0], [1e-12, -1e-12], [3.0, -0.0]])
def test_window_sums_finish_is_the_per_column_formula(columns):
    n = min(map(len, columns))
    sums = WindowSums()
    for i in range(n):
        sums.add(range(len(columns)), [column[i] for column in columns])
    means, stds = sums.finish()
    want_means, want_stds = per_column_finish(sums)
    assert [m.hex() for m in means] == [m.hex() for m in want_means]
    assert [s.hex() for s in stds] == [s.hex() for s in want_stds]


def test_window_sums_reject_mismatched_grids_and_an_empty_fold():
    sums = WindowSums()
    sums.add([0, 60_000], [1.0, 2.0])
    other = WindowSums()
    other.add([0, 50_000], [1.0, 2.0])
    with pytest.raises(SimulationError, match="mismatched window grids"):
        sums.merge(other)
    with pytest.raises(SimulationError, match="mismatched window grids"):
        sums.add([0], [1.0])
    with pytest.raises(SimulationError, match="mismatched window grids"):
        sums.add([0, 60_000], [1.0])
    sums.merge(WindowSums())   # an empty fold merges as nothing
    assert len(sums) == 1
    with pytest.raises(SimulationError, match="nothing to aggregate"):
        WindowSums().finish()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_window_sums_of_a_non_finite_value_is_an_invariant_error(bad):
    with pytest.raises(InternalInvariantError, match="non-finite"):
        WindowSums().add([0, 60_000], [1.0, bad])


# ---------------------------------------------------------------------------
# window_series against the former implementation


def reference_window_series(trace, direction, codec, window_len_ms=60.0,
                            stride_ms=None, params=DEFAULT_EMODEL,
                            use_burst_ratio=True):
    """window_series as it was: bisect each window, then sum its slice."""
    rows = trace_rows(trace, direction)
    if not rows:
        return []
    window_us = round(window_len_ms * US_PER_MS)
    stride_us = round((stride_ms if stride_ms is not None else window_len_ms)
                      * US_PER_MS)
    gens = [r[3] for r in rows]
    out, prev, start = [], None, gens[0]
    while start <= gens[-1]:
        lo = bisect_left(gens, start)
        hi = bisect_left(gens, start + window_us)
        window = rows[lo:hi]
        if not window:
            wm = prev._replace(window_start=start, carried=True,
                               carried_delay=True)
        else:
            flags = [r[6] is not None for r in window]
            lost = sum(flags)
            delivered = len(window) - lost
            ppl = lost / len(window)
            if delivered:
                delay = fsum(r[5] - r[3] for r in window
                             if r[5] is not None) / (delivered * US_PER_MS)
            else:
                delay = prev.mean_delay_ms if prev else 0.0
            br = reference_burst_ratio(flags, ppl) if use_burst_ratio else 1.0
            wm = Window(
                window_start=start, mean_delay_ms=delay, ppl=ppl, burst_r=br,
                r_factor=r_factor(delay, ppl, br, codec, params),
                carried=False, carried_delay=lost == len(window))
        out.append(wm)
        prev = wm
        start += stride_us
    return out


# One packet: the gap in us since the previous one of its direction (0 is
# a tie; 200 ms leaves windows empty), and its delay in us or None if lost.
PACKET = st.tuples(
    st.sampled_from([0, 1, 7_000, 20_000, 20_000, 20_000, 30_000, 200_000]),
    st.one_of(st.none(),
              st.integers(min_value=0, max_value=200_000),
              st.integers(min_value=2 ** 50, max_value=2 ** 51)))


def build_trace(packets, other_direction):
    trace = PacketTrace()
    gen = {DL: 0, UL: 0}
    seq = {DL: 0, UL: 0}
    mixed = [(DL, p) for p in packets] + [(UL, p) for p in other_direction]
    mixed.sort(key=lambda item: item[0] == UL)  # all DL first, then UL
    for direction, (gap, delay) in mixed:
        gen[direction] += gap
        trace.record(direction.lower(), direction, seq[direction],
                     gen[direction], "wlan",
                     None if delay is None else gen[direction] + delay,
                     LOSS_RANDOM if delay is None else None)
        seq[direction] += 1
    return trace


@EXACT
@given(packets=st.lists(PACKET, min_size=1, max_size=80),
       other=st.lists(PACKET, max_size=5),
       window_ms=st.sampled_from([10.0, 20.0, 60.0, 60.0, 100.5]),
       stride=st.one_of(st.none(), st.sampled_from([5.0, 20.0, 60.0, 90.0,
                                                    250.0])),
       use_burst_ratio=st.booleans())
def test_one_pass_window_series_equals_the_former_one(
        packets, other, window_ms, stride, use_burst_ratio):
    trace = build_trace(packets, other)
    series = window_series(trace, DL, G729, window_ms, stride,
                           use_burst_ratio=use_burst_ratio)
    want = reference_window_series(trace, DL, G729, window_ms, stride,
                                   use_burst_ratio=use_burst_ratio)
    assert len(series) == len(want)
    assert repr(window_rows(series)) == repr(want)  # every float bit for bit


@EXACT
# the second run ends before the first's last window that ends by t
@example(common=[(20_000, 0)] * 10, tails=([(20_000, 0)] * 10, []),
         back_us=0, window_ms=10.0, stride=5.0, use_burst_ratio=True)
@given(common=st.lists(PACKET, max_size=60),
       tails=st.tuples(st.lists(PACKET, max_size=30),
                       st.lists(PACKET, max_size=30)),
       back_us=st.sampled_from([0, 0, 1, 20_000, 70_000]),
       window_ms=st.sampled_from([10.0, 20.0, 60.0, 100.5]),
       stride=st.one_of(st.none(), st.sampled_from([5.0, 20.0, 60.0,
                                                    250.0])),
       use_burst_ratio=st.booleans())
def test_a_shared_head_changes_no_window_and_no_row(
        common, tails, back_us, window_ms, stride, use_burst_ratio):
    # two runs whose packets agree before t (agree_before, or earlier): the
    # second's series and rows, built on the first's windows that end by t,
    # are those built from nothing
    traces = [build_trace(common + tail, []) for tail in tails]
    t = agree_before(*(trace.directions.get(DL, DirectionTrace("dl"))
                       for trace in traces)) - back_us
    args = (G729, window_ms, stride, DEFAULT_EMODEL, use_burst_ratio)
    with tempfile.TemporaryDirectory() as tmp:
        series = window_series(traces[0], DL, *args)
        rows = write_metrics(os.path.join(tmp, "first.csv"), "r", series)
        head, head_rows = shared_head(series, rows, t, window_ms)
        assert len(head) == len(head_rows) == sum(
            start + round(window_ms * US_PER_MS) <= t
            for start in series.window_start)
        trace = traces[1]
        got = window_series(trace, DL, *args, given=head)
        want = window_series(trace, DL, *args)
        assert repr(vars(got)) == repr(vars(want))  # column by column
        paths = [os.path.join(tmp, name) for name in ("got.csv", "want.csv")]
        assert write_metrics(paths[0], "r,1", got, head_rows) \
            == write_metrics(paths[1], "r,1", want)
        with open(paths[0], "rb") as fh_got, open(paths[1], "rb") as fh_want:
            assert fh_got.read() == fh_want.read()


@EXACT
@given(packets=st.lists(PACKET, min_size=1, max_size=80),
       other=st.lists(PACKET, max_size=5))
def test_call_summary_equals_its_totals_row_by_row(packets, other):
    trace = build_trace(packets, other)
    rows = trace_rows(trace, DL)
    delivered = sum(r[5] is not None for r in rows)
    lost = sum(r[6] is not None for r in rows)
    got_lost, got_ppl = call_summary(trace, DL)
    causes = trace.directions[DL].cause   # generated and delivered
    assert (len(causes), causes.count(None), got_lost) == (
        len(rows), delivered, lost)
    assert got_ppl == lost / len(rows)


# ---------------------------------------------------------------------------
# burst_ratio against the former implementation


def reference_burst_ratio(loss_flags, ppl):
    """burst_ratio as it was: the list of loss-run lengths, then their
    mean."""
    runs = []
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


# Loss marks as the runtime passes them (a cause or None) and as tests do.
FLAG = st.sampled_from([None, LOSS_RANDOM, False, True, 0, 1])


@EXACT
@example([], 0.0)
@example([None] * 5, 0.0)                  # none lost
@example([LOSS_RANDOM] * 5, 1.0)           # all lost
@example([None, LOSS_RANDOM, LOSS_RANDOM, None, LOSS_RANDOM], 0.0)
@example([None, LOSS_RANDOM, LOSS_RANDOM, None, LOSS_RANDOM], 1.0)
@given(st.one_of(st.lists(FLAG, max_size=60),
                 st.lists(st.sampled_from([None, LOSS_RANDOM]), max_size=5),
                 st.tuples(FLAG, st.integers(0, 40)).map(
                     lambda fn: [fn[0]] * fn[1])),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
def test_burst_ratio_is_the_former_run_length_mean_bit_for_bit(flags, ppl):
    # at the drawn ppl, including 0 and 1, and at the flags' own
    own = sum(map(bool, flags)) / len(flags) if flags else 0.0
    for p in (ppl, own):
        assert (burst_ratio(flags, p).hex()
                == reference_burst_ratio(flags, p).hex()), (flags, p)


# ---------------------------------------------------------------------------
# The E-model over a series' columns, against the former per-call version


def reference_r_factor(d_ms, ppl, burst_r, codec, params=DEFAULT_EMODEL):
    """r_factor as it was: its checks and constants looked up per call."""
    if d_ms < 0:
        raise ValueError("delay must be non-negative")
    impairment = params.delay_coeff_a * d_ms
    if d_ms > params.delay_threshold_ms:
        impairment += params.delay_coeff_b * (d_ms - params.delay_threshold_ms)
    if burst_r <= 0:
        raise ValueError("burst ratio must be positive")
    if not 0.0 <= ppl <= 1.0:
        raise ValueError("ppl must be in [0, 1]")
    if ppl == 0.0:
        ie = float(codec.ie)
    else:
        p = 100.0 * ppl
        ie = codec.ie + (params.loss_ceiling - codec.ie) * p / (
            p / burst_r + codec.bpl)
    return params.r0 - impairment - ie


KNEE = DEFAULT_EMODEL.delay_threshold_ms
DELAYS_MS = st.one_of(st.floats(0.0, KNEE), st.just(KNEE),
                      st.floats(KNEE, 5_000.0), st.integers(0, 400))
PPLS = st.one_of(st.just(0.0), st.integers(0, 3).map(lambda k: k / 3),
                 st.floats(0.0, 1.0))
BURSTS = st.floats(0.0, 5.0, exclude_min=True)
EMODELS = st.one_of(st.just(DEFAULT_EMODEL), st.builds(
    EModelParams, r0=st.floats(50.0, 100.0),
    delay_coeff_a=st.floats(0.001, 1.0), delay_coeff_b=st.floats(0.001, 1.0),
    delay_threshold_ms=st.floats(1.0, 400.0),
    loss_ceiling=st.floats(50.0, 100.0)))
CODECS = st.sampled_from(sorted(CODEC_PRESETS.values(), key=repr))


@EXACT
@given(DELAYS_MS, PPLS, BURSTS, CODECS, EMODELS)
def test_the_bound_e_model_is_r_factor_bit_for_bit(d_ms, ppl, burst_r,
                                                   codec, params):
    want = reference_r_factor(d_ms, ppl, burst_r, codec, params).hex()
    assert emodel(codec, params, [d_ms], [ppl], [burst_r])[0].hex() == want
    assert r_factor(d_ms, ppl, burst_r, codec, params).hex() == want


def raised(f, *args):
    try:
        f(*args)
    except ValueError as exc:
        return str(exc)
    return None


@EXACT
@given(st.one_of(DELAYS_MS, st.floats(-1e6, -1e-300), st.just(-0.5)),
       st.one_of(PPLS, st.floats(1.0, 10.0, exclude_min=True),
                 st.floats(-10.0, 0.0, exclude_max=True), st.just(math.nan)),
       st.one_of(BURSTS, st.floats(-5.0, 0.0), st.just(-0.0)), CODECS)
def test_the_bound_e_model_rejects_what_r_factor_rejected(d_ms, ppl, burst_r,
                                                          codec):
    want = raised(reference_r_factor, d_ms, ppl, burst_r, codec)
    assert raised(emodel, codec, DEFAULT_EMODEL, [d_ms], [ppl],
                  [burst_r]) == want
    assert raised(r_factor, d_ms, ppl, burst_r, codec) == want


@EXACT
@given(st.lists(st.tuples(
    st.one_of(DELAYS_MS, st.just(-0.5)), st.one_of(PPLS, st.just(1.5)),
    st.one_of(BURSTS, st.just(0.0))), max_size=12), CODECS, EMODELS)
def test_the_e_model_over_columns_is_r_factor_window_by_window(windows,
                                                               codec, params):
    # every R bit for bit, or the first bad window's error
    delays, ppls, brs = map(list, zip(*windows)) if windows else ([],) * 3
    want = [raised(reference_r_factor, *w, codec, params) for w in windows]
    first_bad = next(filter(None, want), None)
    assert raised(emodel, codec, params, delays, ppls, brs) == first_bad
    if first_bad is None:
        assert [r.hex() for r in emodel(codec, params, delays, ppls, brs)] == [
            reference_r_factor(*w, codec, params).hex() for w in windows]


# ---------------------------------------------------------------------------
# Rendering: column by column, every byte as the per-row version


# Every awkward float, and ints, next to each other in one column: a cache
# keyed by value would render 0.0 and -0.0 (or 1 and 1.0) alike.
SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                           5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                           1e16, 2.0 ** 53 + 2, 1e300, 1.0, -1.0, 0.5])
VALUE = st.one_of(SPECIAL, st.floats(), st.sampled_from([1 / 3, 2 / 3]),
                  st.integers(-2, 2), st.integers(10 ** 16, 10 ** 20))
ZEROS = [Window(0, 0.0, 0.0, 1.0, 0.0, False, False),
         Window(20_000, -0.0, -0.0, 1, -0.0, True, True),
         Window(40_000, 0.0, 0, 1.0, 0.0, False, True)]


def reference_write_metrics(path, run_id, series):
    """write_metrics as it was: one f-string per row."""
    run = CsvFields()[run_id]
    write_csv(path, METRICS_COLUMNS, [
        f"{run},{start},{delay!r},{ppl!r},{br!r},{r!r},{carried:d},"
        f"{carried_delay:d}"
        for start, delay, ppl, br, r, carried, carried_delay
        in window_rows(series)])


def reference_write_aggregate(path, agg):
    """write_aggregate as it was: str of each value, row by row."""
    header = ["window_start_us"]
    for fname in AGGREGATE_FIELDS:
        header += [f"{fname}_mean", f"{fname}_std"]
    columns = [agg.window_starts]
    for fname in AGGREGATE_FIELDS:
        columns += [agg.means[fname], agg.stds[fname]]
    write_csv(str(path), tuple(header),
              [",".join(map(str, row)) for row in zip(*columns)])


def same_bytes(write, reference, *args):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        write(got, *args)
        reference(want, *args)
        with open(got, "rb") as fh_got, open(want, "rb") as fh_want:
            assert fh_got.read() == fh_want.read()


WINDOW = st.builds(
    lambda start, values, carried, carried_delay: Window(
        start, *values, carried, carried_delay),
    st.integers(0, 2 ** 53), st.tuples(VALUE, VALUE, VALUE, VALUE),
    st.booleans(), st.booleans())
RUN_IDS = st.sampled_from(["G729_hard_wlan-to-cellular_r000", "a,b", 'q"'])


@EXACT
@example(ZEROS, "r")
@given(st.lists(WINDOW, max_size=30), RUN_IDS)
def test_write_metrics_is_the_per_row_rendering_on_any_series(windows,
                                                              run_id):
    same_bytes(write_metrics, reference_write_metrics, run_id,
               series_of(windows))


@EXACT
@given(packets=st.lists(PACKET, min_size=1, max_size=80),
       other=st.lists(PACKET, max_size=5),
       window_ms=st.sampled_from([10.0, 60.0]),
       stride=st.one_of(st.none(), st.sampled_from([5.0, 20.0])))
def test_write_metrics_is_the_per_row_rendering_on_random_traces(
        packets, other, window_ms, stride):
    series = window_series(build_trace(packets, other), DL, G729, window_ms,
                           stride)
    same_bytes(write_metrics, reference_write_metrics, "r", series)


@EXACT
@example(([0, 20_000, 40_000], [[0.0, -0.0, 0]] * 8))
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 2 ** 53), min_size=n, max_size=n),
    st.lists(st.lists(VALUE, min_size=n, max_size=n),
             min_size=2 * len(AGGREGATE_FIELDS),
             max_size=2 * len(AGGREGATE_FIELDS)))))
def test_write_aggregate_is_the_per_row_rendering_on_any_columns(drawn):
    starts, columns = drawn
    k = len(AGGREGATE_FIELDS)
    agg = AggregateSeries(starts, dict(zip(AGGREGATE_FIELDS, columns[:k])),
                          dict(zip(AGGREGATE_FIELDS, columns[k:])))
    same_bytes(write_aggregate, reference_write_aggregate, agg)


@EXACT
@given(st.lists(PACKET, min_size=1, max_size=40),
       st.lists(st.lists(PACKET, min_size=40, max_size=40), max_size=3))
def test_write_aggregate_is_the_per_row_rendering_on_random_runs(first,
                                                                  others):
    # every run takes the first one's gaps, so all share one window grid
    gaps = [gap for gap, _ in first]
    sums = WindowSums()
    for run in [first, *([*zip(gaps, (d for _, d in o))] for o in others)]:
        fold(sums, window_series(build_trace(run, []), DL, G729, 60.0))
    same_bytes(write_aggregate, reference_write_aggregate, aggregate(sums))


# ---------------------------------------------------------------------------
# The grid memo's paths: a run's trace, UL and DL on one grid, is written
# pair by pair and windowed with memoised bounds; a trace that only looks
# like the grid must take the direct path and come out the same.

GRID_RUN_IDS = st.sampled_from(["G729_hard_r000", 'odd, "quoted" id'])
GRID_IFACES = st.sampled_from(["wlan", "cellular", 'odd, "quoted" if'])
GRID_FATE = st.one_of(st.integers(0, 300_000), st.sampled_from(LOSS_CAUSES))
GRID_WINDOWS = [(60.0, None), (60.0, 20.0), (20.0, None), (100.5, 30.0),
                (10.0, 5.0)]


@st.composite
def run_shaped_traces(draw):
    """The packets of a run as record's arguments: UL and DL on one grid,
    start + seq * interval, of which an aborted run keeps a prefix (DL at
    most one packet shorter, as a path the pairing must refuse). Each
    packet is delayed or lost; DL loses a block to a closed interface and
    UL switches interface at a drawn packet."""
    start = draw(st.integers(0, 2_000_000))
    interval = draw(st.sampled_from([1, 7_000, 20_000, 30_000]))
    n = draw(st.integers(1, 60))
    n_dl = n - draw(st.sampled_from([0, 0, 0, 1]))
    switch = draw(st.integers(0, n))
    ul_from, ul_to = draw(GRID_IFACES), draw(GRID_IFACES)
    closed_from = draw(st.integers(0, n))
    closed_to = draw(st.integers(closed_from, n))
    packets = []
    for seq in range(n):
        gen = start + seq * interval
        for direction, length in ((UL, n), (DL, n_dl)):
            if seq >= length:
                continue
            fate = draw(GRID_FATE)
            if direction == DL and closed_from <= seq < closed_to:
                fate = LOSS_CLOSED
            iface = ("cn0" if direction == DL
                     else ul_from if seq < switch else ul_to)
            fate = ((gen + fate, None) if isinstance(fate, int)
                    else (None, fate))
            packets.append((direction.lower(), direction, seq, gen, iface,
                            *fate))
    return packets


def look_alike(packets, draw):
    """The same packets with one later generation time moved, keeping each
    packet's delay: the first two times and the count are the grid's, the
    times are not. The moved time ties its predecessor or lands before its
    successor."""
    gens = sorted({p[3] for p in packets})
    j = draw(st.integers(2, len(gens) - 1))
    room = gens[1] - gens[0] - 1 if j < len(gens) - 1 else 10 ** 6
    moved = (gens[j - 1] if room < 1 or draw(st.booleans())
             else gens[j] + draw(st.integers(1, room)))
    out = []
    for stream_id, direction, seq, gen, iface, arrival, cause in packets:
        if gen == gens[j]:
            gen, arrival = moved, (None if arrival is None
                                   else arrival - gens[j] + moved)
        out.append((stream_id, direction, seq, gen, iface, arrival, cause))
    return out


def record_packets(packets):
    trace = PacketTrace()
    for packet in packets:
        trace.record(*packet)
    return trace


def csv_rendering(run_id, trace):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    writer.writerows((run_id, *row) for row in trace_rows(trace))
    return buf.getvalue().encode()


def check_grid_paths(trace, run_id):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace(path, run_id, trace)
        with open(path, "rb") as fh:
            assert fh.read() == csv_rendering(run_id, trace)
    for window_ms, stride in GRID_WINDOWS:
        for direction in (UL, DL):
            series = window_series(trace, direction, G729, window_ms, stride)
            want = reference_window_series(trace, direction, G729, window_ms,
                                           stride)
            assert repr(window_rows(series)) == repr(want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(packets=run_shaped_traces(), run_id=GRID_RUN_IDS)
def test_a_run_shaped_trace_takes_the_grid_paths_to_the_same_bytes(
        packets, run_id):
    trace = record_packets(packets)
    ul = trace.directions[UL].gen
    assert len(ul) < 2 or grid_of(ul) is not None   # the memo's path
    check_grid_paths(trace, run_id)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(packets=run_shaped_traces().filter(
           lambda ps: len({p[3] for p in ps}) >= 3),
       run_id=GRID_RUN_IDS, data=st.data())
def test_a_trace_that_only_looks_like_the_grid_comes_out_right(
        packets, run_id, data):
    check_grid_paths(record_packets(packets), run_id)  # memoise the grid
    moved = record_packets(look_alike(packets, data.draw))
    assert grid_of(moved.directions[UL].gen) is None
    check_grid_paths(moved, run_id)

