"""Deterministic discrete-event engine, named RNG substreams, and link models."""

from __future__ import annotations

import heapq
import random
from collections import deque
from functools import partial
from itertools import repeat
from typing import Callable, Optional

from .core import (
    LOSS_LINK_DOWN,
    LOSS_QUEUE,
    LOSS_RANDOM,
    LinkParams,
    SimulationError,
)


class SchedulingInPastError(SimulationError):
    """An event was scheduled before the current simulation time."""


class Engine:
    """Single-threaded event loop over integer-microsecond time.

    Ties at equal times are broken by insertion order, so dispatch is a total
    order and runs with equal seeds produce identical event logs. An event is
    the heap entry (time, insertion sequence, kind, subject, action). A
    periodic clock (start_clock) is one such entry that runs a stretch of
    grid points and then schedules itself for the next point.
    """

    def __init__(self, log_events: bool = False):
        self.now: int = 0
        self.dispatched: int = 0
        self.log_events = log_events
        self.event_log: list[str] = []
        self._heap: list[tuple[int, int, str, str, Callable[[], None]]] = []
        self._seq = 0
        self._stopped = False
        self._t_end = 0

    def schedule(self, time_us: int, fn: Callable[[], None], kind: str = "event",
                 subject: str = "") -> None:
        if time_us < self.now:
            raise SchedulingInPastError(
                f"cannot schedule {kind!r} at {time_us} us: clock is {self.now} us"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time_us, self._seq, kind, subject, fn))

    def schedule_in(self, delay_us: int, fn: Callable[[], None],
                    kind: str = "event", subject: str = "") -> None:
        self.schedule(self.now + delay_us, fn, kind, subject)

    def start_clock(self, start_us: int, interval_us: int, end_us: int,
                    fn: Callable[[int, int], None], kind: str,
                    subjects: tuple[str, ...]) -> None:
        """Run fn on the grid start_us + k * interval_us up to end_us.

        Each grid point stands for one event per subject, dispatched back to
        back: it adds len(subjects) to dispatched and, with log_events, one
        "<time> <kind> <subject>" line per subject. fn(t, n) runs the n
        points t, t + interval_us, ... at once and must schedule nothing.
        The clock is one heap entry at its next point. Dispatched, it runs
        that point and every later one before the next entry, then schedules
        itself again; as fn schedules nothing, no entry can come between two
        points of a stretch, so this equals one heap entry per point.
        """
        if start_us < self.now:
            raise SchedulingInPastError(
                f"cannot start clock {kind!r} at {start_us} us: clock is "
                f"{self.now} us")
        if interval_us <= 0:
            raise ValueError(f"clock interval must be positive, got "
                             f"{interval_us} us")
        if start_us <= end_us:
            self.schedule(start_us, partial(self._tick, interval_us, end_us,
                                            fn, kind, subjects), kind)

    def _tick(self, interval_us: int, end_us: int,
              fn: Callable[[int, int], None], kind: str,
              subjects: tuple[str, ...]) -> None:
        """Run the clock's points from now up to run_until's end, the
        clock's end, or the last point before the next heap entry; then
        start the clock again at the next point."""
        t = self.now
        last = min(self._t_end, end_us)
        if self._heap:
            last = min(last, self._heap[0][0] - 1)
        n = 1 + max(0, (last - t) // interval_us)
        last = t + (n - 1) * interval_us
        seq = self._seq
        self.now = last
        fn(t, n)
        if self._seq != seq:
            raise SimulationError(f"clock {kind!r} scheduled an event")
        # run_until counted and logged this entry as one event
        self.dispatched += n * len(subjects) - 1
        if self.log_events:
            self.event_log[-1:] = [f"{g} {kind} {subject}"
                                   for g in range(t, last + 1, interval_us)
                                   for subject in subjects]
        self.start_clock(last + interval_us, interval_us, end_us, fn, kind,
                         subjects)

    def run_until(self, t_end_us: int) -> int:
        """Dispatch every pending event with time <= t_end_us.

        Returns the number of events dispatched. Afterwards the clock equals
        t_end_us (unless stop() was called mid-run).
        """
        heap = self._heap
        dispatched = self.dispatched
        self._t_end = t_end_us
        while not self._stopped and heap and heap[0][0] <= t_end_us:
            time_us, _, kind, subject, fn = heapq.heappop(heap)
            self.now = time_us
            if self.log_events:
                self.event_log.append(f"{time_us} {kind} {subject}")
            self.dispatched += 1
            fn()
        if not self._stopped and self.now < t_end_us:
            self.now = t_end_us
        return self.dispatched - dispatched

    def stop(self) -> None:
        """Abort the run: run_until returns and drops what is pending."""
        self._stopped = True
        self._heap.clear()


def substream(seed: int, name: str) -> random.Random:
    """A named deterministic random stream derived from one seed.

    Each (seed, name) pair yields an independent, reproducible stream, so
    adding a consumer never perturbs the draws of existing ones. A run asks
    for each name once.
    """
    # String seeding hashes via sha512: stable across processes.
    return random.Random(f"{seed}/{name}")


# Bitrate value meaning "no serialization delay".
UNLIMITED = None


# A packet's fate: (arrival_time_us, None) or (None, loss cause). Link.offer
# gives a run of fates as two columns, (arrivals, causes), with the same
# pair at each index.
Fate = tuple[Optional[int], Optional[str]]


class Link:
    """Unidirectional link: serialization at a bitrate, fixed or uniformly
    random propagation delay, drop-tail FIFO queue, and Bernoulli loss.

    The queue capacity counts packets in the system (serializing plus
    waiting). Arrival times are clamped to be non-decreasing so delivery
    order always equals offer order. The parameters obey LinkParams' rules,
    which CallSpec.validate applies. A down link drops every packet.

    A lossless link whose queue has drained, offered packets no closer
    together than one serialization, delivers them without queueing; offer
    computes such packets in closed form (see there), with the same fates,
    counters and random draws as one packet at a time.
    """

    def __init__(self, engine: Engine, link_id: str, params: LinkParams,
                 rng: Optional[random.Random] = None, down: bool = False):
        if isinstance(params.prop_delay_us, (list, tuple)):
            lo, hi = params.prop_delay_us
        else:
            lo = hi = params.prop_delay_us
        self.engine = engine
        self.link_id = link_id
        self.bitrate_kbps = params.bitrate_kbps
        self.prop_lo_us = lo
        self.prop_hi_us = hi
        self.queue_capacity_pkts = params.queue_capacity_pkts
        self.loss_prob = params.loss_prob
        self.rng = rng if rng is not None else random.Random(0)
        self.down = down
        self.offered = 0
        self.delivered = 0
        self.dropped = 0
        self._busy: deque[int] = deque()  # serialization finish times in system
        self._last_arrival = 0

    def serialization_us(self, size_bytes: int) -> int:
        if self.bitrate_kbps is UNLIMITED:
            return 0
        # bits / kbps gives ms; times 1000 gives us.
        return round(size_bytes * 8000 / self.bitrate_kbps)

    def offer(self, times: range, size_bytes: int
              ) -> tuple[list[Optional[int]], list[Optional[str]]]:
        """Offer one packet of size_bytes at each of the times, in order.

        Returns the packets' fates as two columns, (arrivals, causes): packet
        j arrived at arrivals[j] with causes[j] None when delivered, or was
        dropped with arrivals[j] None for causes[j]. No other packet may be
        offered between the times.

        Packets go through the queue one at a time until one finds it empty
        on a lossless link whose serialization takes no longer than the
        spacing of the times. From that packet on none can wait or be
        dropped, so the rest take a closed form: packet j arrives at
        times[j] + serialization + its delay, clamped to be non-decreasing,
        and only the last finish time stays in the queue. A random delay is
        drawn packet by packet exactly as in the queue loop, so both forms
        take the same draws in the same order and leave the stream in the
        same state.
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        n = len(times)
        self.offered += n
        if self.down:
            self.dropped += n
            return [None] * n, [LOSS_LINK_DOWN] * n
        serialization = self.serialization_us(size_bytes)
        busy = self._busy
        popleft, push = busy.popleft, busy.append
        capacity = self.queue_capacity_pkts
        loss_prob = self.loss_prob
        random_ = self.rng.random
        lo = self.prop_lo_us
        # randint(lo, hi) is lo + _randbelow_with_getrandbits(span): draw
        # getrandbits(span.bit_length()) until the value falls below span.
        span = self.prop_hi_us - lo + 1
        getrandbits = self.rng.getrandbits
        bits = span.bit_length()
        uncongested = loss_prob == 0.0 and serialization <= times.step
        last_arrival = self._last_arrival
        dropped = 0
        arrivals: list[Optional[int]] = []
        causes: list[Optional[str]] = []
        add_arrival, add_cause = arrivals.append, causes.append
        for t in times:
            while busy and busy[0] <= t:
                popleft()
            if uncongested and not busy:
                break
            if len(busy) >= capacity:
                add_arrival(None)
                add_cause(LOSS_QUEUE)
                dropped += 1
                continue
            if loss_prob > 0.0 and random_() < loss_prob:
                add_arrival(None)
                add_cause(LOSS_RANDOM)
                dropped += 1
                continue
            finish = (busy[-1] if busy else t) + serialization
            push(finish)
            arrival = finish + lo
            if span > 1:
                r = getrandbits(bits)
                while r >= span:
                    r = getrandbits(bits)
                arrival += r
            if arrival < last_arrival:
                arrival = last_arrival
            last_arrival = arrival
            add_arrival(arrival)
            add_cause(None)
        rest = times[len(arrivals):]
        if rest:
            shift = serialization + lo
            earliest = range(rest.start + shift, rest.stop + shift, rest.step)
            if span == 1:
                # increasing: only those before the last arrival are clamped
                head = min(len(earliest), len(range(
                    earliest.start, last_arrival, earliest.step)))
                arrivals += repeat(last_arrival, head)
                arrivals += earliest[head:]
            else:
                for arrival in earliest:
                    r = getrandbits(bits)
                    while r >= span:
                        r = getrandbits(bits)
                    arrival += r
                    if arrival > last_arrival:
                        last_arrival = arrival
                    add_arrival(last_arrival)
            causes += repeat(None, len(rest))
            last_arrival = arrivals[-1]
            push(rest[-1] + serialization)
        self._last_arrival = last_arrival
        self.delivered += n - dropped
        self.dropped += dropped
        return arrivals, causes

    def transmit(self, size_bytes: int,
                 on_arrive: Optional[Callable[[int], None]] = None,
                 note: str = "") -> Fate:
        """Offer one packet at the current engine time.

        Returns (arrival_time_us, None) when delivered, (None, cause) when
        dropped. The arrival outcome is fully determined at offer time; when
        on_arrive is given it runs as an engine event at the arrival time.
        """
        now = self.engine.now
        arrivals, causes = self.offer(range(now, now + 1), size_bytes)
        arrival = arrivals[0]
        if on_arrive is not None and arrival is not None:
            self.engine.schedule(arrival, lambda: on_arrive(arrival),
                                 kind="arrival", subject=note or self.link_id)
        return arrival, causes[0]
