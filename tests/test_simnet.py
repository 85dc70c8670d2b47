import gc
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sipswitch.core import (
    LOSS_LINK_DOWN,
    LOSS_QUEUE,
    LOSS_RANDOM,
    LinkParams,
    SimulationError,
)
from sipswitch.simnet import (
    UNLIMITED,
    Engine,
    Link,
    SchedulingInPastError,
    substream,
)

from per_packet_link import PerPacketLink


# ---------------------------------------------------------------------------
# engine


def test_events_dispatch_in_time_order():
    eng = Engine()
    seen = []
    eng.schedule(300, lambda: seen.append("c"))
    eng.schedule(100, lambda: seen.append("a"))
    eng.schedule(200, lambda: seen.append("b"))
    n = eng.run_until(1_000)
    assert n == 3
    assert seen == ["a", "b", "c"]
    assert eng.now == 1_000  # clock advances to the horizon


def test_equal_time_ties_break_by_insertion_order():
    eng = Engine()
    seen = []
    eng.schedule(500, lambda: seen.append("first"))
    eng.schedule(500, lambda: seen.append("second"))
    eng.schedule(500, lambda: seen.append("third"))
    eng.run_until(500)
    assert seen == ["first", "second", "third"]


def test_scheduling_in_past_raises():
    eng = Engine()
    eng.schedule(100, lambda: eng.schedule(50, lambda: None))
    with pytest.raises(SchedulingInPastError):
        eng.run_until(1_000)


def test_schedule_at_current_time_from_handler_is_allowed():
    eng = Engine()
    seen = []
    def handler():
        eng.schedule(eng.now, lambda: seen.append("nested"))
    eng.schedule(100, handler)
    eng.run_until(100)
    assert seen == ["nested"]


def test_stop_aborts_the_run():
    eng = Engine()
    seen = []
    eng.schedule(100, lambda: seen.append(1))
    eng.schedule(200, eng.stop)
    eng.schedule(300, lambda: seen.append(3))
    eng.run_until(1_000)
    assert seen == [1]
    assert eng.now == 200  # clock frozen at the stop point


def test_event_log_records_time_kind_subject():
    eng = Engine(log_events=True)
    eng.schedule(42, lambda: None, kind="tick", subject="stream-1")
    eng.run_until(100)
    assert eng.event_log == ["42 tick stream-1"]


def test_run_until_picks_up_events_scheduled_during_run():
    eng = Engine()
    seen = []
    def first():
        eng.schedule(eng.now + 10, lambda: seen.append("chained"))
    eng.schedule(100, first)
    eng.run_until(1_000)
    assert seen == ["chained"]


# ---------------------------------------------------------------------------
# rng streams


def test_substreams_are_reproducible_across_instances():
    a = substream(7, "link/wlan-dl")
    b = substream(7, "link/wlan-dl")
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_substreams_with_different_names_are_independent():
    alpha, beta = substream(7, "alpha"), substream(7, "beta")
    xs = [alpha.random() for _ in range(10)]
    ys = [beta.random() for _ in range(10)]
    assert xs != ys


def test_different_seeds_differ():
    one, two = substream(1, "s"), substream(2, "s")
    xs = [one.random() for _ in range(5)]
    ys = [two.random() for _ in range(5)]
    assert xs != ys


# ---------------------------------------------------------------------------
# links: hand-computed serialization and arrival times


def _link(eng, bitrate, prop, cap=50, loss=0.0, rng=None):
    return Link(eng, "test-link", LinkParams(bitrate, prop, cap, loss), rng)


@pytest.mark.parametrize("bitrate,prop,size,expected_arrival", [
    # 200 B at 64 kbps: 1600 bits / 64 kbps = 25 ms serialization
    (64.0, 0, 200, 25_000),
    # 700 B at 384 kbps: 5600 bits / 384 kbps = 14.583 ms, plus 60 ms prop
    (384.0, 60_000, 700, 74_583),
    # 200 B at 54 Mbps: 1600/54000 ms = 29.6 us, rounds to 30, plus 5 ms
    (54_000.0, 5_000, 200, 5_030),
    # unlimited bitrate: propagation only
    (UNLIMITED, 10_000, 450, 10_000),
    # 64 B at 64 kbps: 512 bits / 64 kbps = 8 ms
    (64.0, 0, 64, 8_000),
    # 450 B at 384 kbps: 3600/384 = 9.375 ms
    (384.0, 0, 450, 9_375),
])
def test_idle_link_arrival_times(bitrate, prop, size, expected_arrival):
    eng = Engine()
    link = _link(eng, bitrate, prop)
    arrival, cause = link.transmit(size)
    assert cause is None
    assert arrival == expected_arrival


def test_serialization_us_rounds_to_nearest_microsecond():
    eng = Engine()
    assert _link(eng, 54_000.0, 0).serialization_us(700) == 104   # 103.7us
    assert _link(eng, 384.0, 0).serialization_us(700) == 14_583   # 14583.3us
    assert _link(eng, 64.0, 0).serialization_us(200) == 25_000


def test_back_to_back_packets_queue_behind_each_other():
    eng = Engine()
    link = _link(eng, 64.0, 1_000)
    # all offered at t=0; serialization is 25 ms each, FIFO through one server
    a1, _ = link.transmit(200)
    a2, _ = link.transmit(200)
    a3, _ = link.transmit(200)
    assert (a1, a2, a3) == (26_000, 51_000, 76_000)


def test_queue_capacity_counts_packets_in_system():
    eng = Engine()
    link = _link(eng, 64.0, 0, cap=2)
    a1, c1 = link.transmit(200)
    a2, c2 = link.transmit(200)
    a3, c3 = link.transmit(200)
    assert (a1, a2) == (25_000, 50_000)
    assert (c1, c2) == (None, None)
    assert a3 is None and c3 == LOSS_QUEUE
    assert (link.offered, link.delivered, link.dropped) == (3, 2, 1)


def test_queue_drains_as_time_advances():
    eng = Engine()
    link = _link(eng, 64.0, 0, cap=1)
    assert link.transmit(200) == (25_000, None)
    assert link.transmit(200) == (None, LOSS_QUEUE)
    eng.schedule(25_000, lambda: None)
    eng.run_until(25_000)
    # first packet has left the system, capacity is free again
    assert link.transmit(200) == (50_000, None)


def test_down_link_drops_everything():
    eng = Engine()
    link = Link(eng, "test-link", LinkParams(UNLIMITED, 0), down=True)
    assert link.transmit(100) == (None, LOSS_LINK_DOWN)
    assert link.offer(range(0, 60, 20), 100) == ([None] * 3,
                                                 [LOSS_LINK_DOWN] * 3)
    assert (link.offered, link.delivered, link.dropped) == (4, 0, 4)
    assert _link(eng, UNLIMITED, 0).transmit(100) == (0, None)  # built up


def test_bernoulli_loss_extremes():
    eng = Engine()
    lossy = _link(eng, UNLIMITED, 0, loss=1.0, rng=random.Random(1))
    assert lossy.transmit(100) == (None, LOSS_RANDOM)
    clean = _link(eng, UNLIMITED, 0, loss=0.0)
    for _ in range(50):
        assert clean.transmit(100) == (0, None)


def test_bernoulli_loss_fraction_is_plausible():
    eng = Engine()
    link = _link(eng, UNLIMITED, 0, cap=10_000, loss=0.3, rng=random.Random(42))
    outcomes = [link.transmit(100)[1] for _ in range(2_000)]
    frac = sum(1 for c in outcomes if c == LOSS_RANDOM) / len(outcomes)
    assert 0.25 < frac < 0.35


def test_random_propagation_preserves_fifo_order():
    eng = Engine()
    link = _link(eng, 54_000.0, (0, 100_000), cap=10_000,
                 rng=random.Random(9))
    arrivals = []
    for _ in range(300):
        arrival, cause = link.transmit(200)
        assert cause is None
        arrivals.append(arrival)
    assert arrivals == sorted(arrivals)


def test_random_propagation_within_bounds_and_deterministic():
    eng1, eng2 = Engine(), Engine()
    l1 = _link(eng1, UNLIMITED, (40_000, 80_000), rng=random.Random(5))
    l2 = _link(eng2, UNLIMITED, (40_000, 80_000), rng=random.Random(5))
    a1 = [l1.transmit(100)[0] for _ in range(50)]
    a2 = [l2.transmit(100)[0] for _ in range(50)]
    assert a1 == a2
    # FIFO clamping keeps arrivals monotone; each raw draw is within bounds,
    # so every arrival sits in [40ms, 80ms] here as well
    assert all(40_000 <= a <= 80_000 for a in a1)


def test_on_arrive_runs_as_engine_event_at_arrival_time():
    eng = Engine()
    link = _link(eng, 64.0, 1_000)
    seen = []
    arrival, _ = link.transmit(200, on_arrive=lambda t: seen.append((t, eng.now)))
    assert seen == []
    eng.run_until(arrival)
    assert seen == [(26_000, 26_000)]


def test_transmit_rejects_an_empty_packet():
    # the link parameters obey LinkParams' rules, which CallSpec.validate
    # applies (tests/test_scenario.py)
    with pytest.raises(ValueError):
        Link(Engine(), "x", LinkParams(64.0, 0)).transmit(0)


def test_offer_is_transmit_at_each_time():
    params = LinkParams(64.0, (1_000, 9_000), 3, 0.2)
    batch = Link(Engine(), "x", params, random.Random(4))
    eng = Engine()
    single = Link(eng, "x", params, random.Random(4))
    times = range(0, 2_000_000, 20_000)
    fates = []
    for t in times:
        eng.schedule(t, lambda: fates.append(single.transmit(200)))
    eng.run_until(times[-1])
    arrivals, causes = batch.offer(times, 200)
    assert list(zip(arrivals, causes)) == fates
    assert {cause for _, cause in fates} == {None, LOSS_QUEUE, LOSS_RANDOM}
    assert ((batch.offered, batch.delivered, batch.dropped)
            == (single.offered, single.delivered, single.dropped))


# ---------------------------------------------------------------------------
# the uniform delay draw


def _spans(k):
    return st.sampled_from([2 ** k - 1, 2 ** k, 2 ** k + 1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 64),
       lo=st.integers(0, 1_000_000),
       span=st.one_of(st.just(1), st.just(40_001),
                      st.integers(1, 24).flatmap(_spans)),
       loss=st.sampled_from([0.0, 0.3]),
       n=st.integers(1, 40))
def test_link_delays_are_randint_draw_for_draw(seed, lo, span, loss, n):
    # span counts the values in [lo, hi]; 40_001 is the default cellular
    # delay range [40, 80] ms
    hi = lo + span - 1
    step = hi + 1   # packets far enough apart that no arrival is clamped
    link = _link(Engine(), UNLIMITED, (lo, hi), cap=1, loss=loss,
                 rng=random.Random(seed))
    times = range(0, n * step, step)
    got = [None if arrival is None else arrival - t
           for t, arrival in zip(times, link.offer(times, 100)[0])]
    rng = random.Random(seed)
    want = []
    for _ in times:
        if loss and rng.random() < loss:
            want.append(None)
        else:   # a fixed delay draws nothing
            want.append(lo if span == 1 else rng.randint(lo, hi))
    assert got == want
    assert link.rng.getstate() == rng.getstate()


# ---------------------------------------------------------------------------
# the closed form for a drained, lossless link

SIZE = 200


def _case(**kw):
    """One example of the test below: a lossless link, 40 packets 20 ms
    apart, a random 40-80 ms delay, serialization as long as the spacing."""
    case = dict(seed=1, lo=40_000, span=40_001, step=20_000,
                serialization="equal", capacity=50, loss=0.0, n=40,
                queued=0, clamp=None)
    case.update(kw)
    return case


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 64),
       lo=st.integers(0, 100_000),
       span=st.one_of(st.just(1), st.just(40_001),
                      st.integers(1, 17).flatmap(_spans)),
       step=st.integers(1, 40_000),
       serialization=st.sampled_from(["none", "below", "equal", "above"]),
       capacity=st.integers(1, 4),
       loss=st.sampled_from([0.0, 0.0, 0.3]),
       n=st.integers(1, 50),
       queued=st.integers(0, 4),
       clamp=st.one_of(st.none(), st.integers(0, 200_000)))
@example(**_case())
@example(**_case(serialization="above"))
@example(**_case(capacity=1))
@example(**_case(span=1, lo=5_000))
@example(**_case(span=2 ** 12 - 1))
@example(**_case(span=2 ** 12 + 1))
@example(**_case(queued=3))
@example(**_case(clamp=30_000))
@example(**_case(span=1, lo=5_000, clamp=50_000))
def test_offer_over_a_range_is_per_packet_transmit_at_each_time(
        seed, lo, span, step, serialization, capacity, loss, n, queued,
        clamp):
    # queued: a packet that many times SIZE offered 1 us before the range;
    # clamp: a last arrival that far past the first packet's earliest one
    ser = {"none": 0, "below": step // 2, "equal": step,
           "above": step + 1}[serialization]
    params = LinkParams(SIZE * 8000 / ser if ser else UNLIMITED,
                        (lo, lo + span - 1), capacity, loss)
    eng = Engine()
    got_link = Link(Engine(), "x", params, random.Random(seed))
    want_link = PerPacketLink(eng, "x", params, random.Random(seed))
    assert got_link.serialization_us(SIZE) == ser
    start = 1 + step
    for link in (got_link, want_link):
        if queued:
            link.offer(range(start - 1, start), queued * SIZE)
        if clamp is not None:
            link._last_arrival = max(link._last_arrival,
                                     start + ser + lo + clamp)
    times = range(start, start + n * step, step)
    arrivals, causes = got_link.offer(times, SIZE)
    got = list(zip(arrivals, causes))
    want = []
    for t in times:
        eng.schedule(t, lambda: want.append(want_link.transmit(SIZE)))
    eng.run_until(times[-1])
    assert got == want
    assert ((got_link.offered, got_link.delivered, got_link.dropped)
            == (want_link.offered, want_link.delivered, want_link.dropped))
    assert list(got_link._busy) == list(want_link._busy)
    assert got_link._last_arrival == want_link._last_arrival
    assert got_link.rng.getstate() == want_link.rng.getstate()


# ---------------------------------------------------------------------------
# the periodic clock


def _ticks(eng, start, interval, end, subjects=("ul", "dl")):
    """Register a clock on eng; returns the grid points it has run."""
    points = []
    eng.start_clock(start, interval, end,
                    lambda t, n: points.extend(range(t, t + n * interval,
                                                     interval)),
                    kind="tick", subjects=subjects)
    return points


def test_clock_runs_its_grid_and_counts_each_subject():
    eng = Engine(log_events=True)
    points = _ticks(eng, 100, 50, 260)
    assert eng.run_until(1_000) == 8
    assert points == [100, 150, 200, 250]
    assert eng.event_log == [f"{t} tick {s}" for t in points
                             for s in ("ul", "dl")]
    assert eng.dispatched == len(eng.event_log)
    assert eng.now == 1_000


def test_clock_before_now_is_rejected():
    eng = Engine()
    eng.run_until(500)
    with pytest.raises(SchedulingInPastError):
        _ticks(eng, 499, 20, 1_000)


@pytest.mark.parametrize("interval", [0, -20])
def test_clock_needs_a_positive_interval(interval):
    with pytest.raises(ValueError):
        _ticks(Engine(), 0, interval, 1_000)


def test_clock_callback_must_not_schedule():
    eng = Engine()
    eng.start_clock(0, 10, 100, lambda t, n: eng.schedule(t, lambda: None),
                    "tick", ("s",))
    with pytest.raises(SimulationError):
        eng.run_until(100)


def test_event_ties_with_the_clock_keep_insertion_order():
    # a grid point's tick counts as scheduled when the previous point ran:
    # an event pending by then runs before it at equal times, one scheduled
    # after it runs after it
    eng = Engine(log_events=True)
    eng.schedule(0, lambda: None, kind="early")
    points = _ticks(eng, 0, 20, 100, subjects=("s",))
    eng.schedule(40, lambda: eng.schedule(60, lambda: None, kind="late"),
                 kind="mid")
    eng.schedule(0, lambda: None, kind="after-start")
    eng.run_until(100)
    assert points == [0, 20, 40, 60, 80, 100]
    assert eng.event_log == [
        "0 early ", "0 tick s", "0 after-start ", "20 tick s", "40 mid ",
        "40 tick s", "60 late ", "60 tick s", "80 tick s", "100 tick s"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(start=st.integers(0, 50), interval=st.integers(1, 30),
       length=st.integers(0, 300),
       events=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 40)),
                       max_size=12),
       cuts=st.lists(st.integers(0, 450), max_size=3),
       stop_at=st.none() | st.integers(0, 450))
def test_clock_equals_one_heap_event_per_point(start, interval, length,
                                               events, cuts, stop_at):
    # each event may chain a follow-up `delay` us later; the run may be cut
    # into several run_until calls, and an event may stop it
    def run(clocked):
        eng = Engine(log_events=True)
        seen = []
        if clocked:
            eng.start_clock(start, interval, start + length,
                            lambda t, n: seen.extend(
                                range(t, t + n * interval, interval)),
                            kind="tick", subjects=("a", "b"))
        else:
            def ticker(subject):
                def tick():
                    if subject == "a":
                        seen.append(eng.now)
                    if eng.now + interval <= start + length:
                        eng.schedule(eng.now + interval, tick, kind="tick",
                                     subject=subject)
                return tick
            for subject in ("a", "b"):
                eng.schedule(start, ticker(subject), kind="tick",
                             subject=subject)
        for i, (at, delay) in enumerate(events):
            def fire(i=i, delay=delay):
                seen.append(f"e{i}")
                if delay:
                    eng.schedule(eng.now + delay,
                                 lambda: seen.append(f"f{i}"), subject="f")
            eng.schedule(at, fire, subject=f"e{i}")
        if stop_at is not None:
            eng.schedule(stop_at, eng.stop, kind="stop")
        for cut in sorted(cuts):
            eng.run_until(cut)
        eng.run_until(500)
        return seen, eng.event_log, eng.dispatched, eng.now

    assert run(True) == run(False)


@pytest.mark.parametrize("stop_at", [None, 250], ids=["finished", "stopped"])
def test_a_dropped_engine_leaves_no_reference_cycle(stop_at):
    # the clock re-arms itself through the heap; once it has finished, or a
    # heap event stopped the run between two of its points, nothing pending
    # points back at the engine
    gc.collect()
    eng = Engine(log_events=True)
    points = _ticks(eng, 0, 20, 1_000)
    if stop_at is not None:
        eng.schedule(stop_at, eng.stop, kind="stop")
    eng.run_until(2_000)
    assert points[-1] == (1_000 if stop_at is None else 240)
    del eng
    assert gc.collect() == 0
