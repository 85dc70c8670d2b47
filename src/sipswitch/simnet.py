"""Deterministic discrete-event engine, named RNG substreams, and link models."""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Callable, Optional

from .core import (
    LOSS_LINK_DOWN,
    LOSS_QUEUE,
    LOSS_RANDOM,
    IfaceState,
    LinkParams,
    SimulationError,
)


class SchedulingInPastError(SimulationError):
    """An event was scheduled before the current simulation time."""


class Engine:
    """Single-threaded event loop over integer-microsecond time.

    Ties at equal times are broken by insertion order, so dispatch is a total
    order and runs with equal seeds produce identical event logs. An event is
    the heap entry (time, insertion sequence, kind, subject, action).
    """

    def __init__(self, log_events: bool = False):
        self.now: int = 0
        self.dispatched: int = 0
        self.log_events = log_events
        self.event_log: list[str] = []
        self._heap: list[tuple[int, int, str, str, Callable[[], None]]] = []
        self._seq = 0
        self._stopped = False

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

    def run_until(self, t_end_us: int) -> int:
        """Dispatch every pending event with time <= t_end_us.

        Returns the number of events dispatched. Afterwards the clock equals
        t_end_us (unless stop() was called mid-run).
        """
        heap = self._heap
        count = 0
        while heap and not self._stopped:
            if heap[0][0] > t_end_us:
                break
            time_us, _, kind, subject, fn = heapq.heappop(heap)
            self.now = time_us
            if self.log_events:
                self.event_log.append(f"{time_us} {kind} {subject}")
            count += 1
            fn()
        self.dispatched += count
        if not self._stopped and self.now < t_end_us:
            self.now = t_end_us
        return count

    def stop(self) -> None:
        """Abort the run: run_until returns without dispatching further events."""
        self._stopped = True


class RngStream:
    """Named deterministic random substreams derived from one seed.

    Each (seed, name) pair yields an independent, reproducible stream, so
    adding a consumer never perturbs the draws of existing ones.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def substream(self, name: str) -> random.Random:
        rng = self._streams.get(name)
        if rng is None:
            # String seeding hashes via sha512: stable across processes.
            rng = random.Random(f"{self.seed}/{name}")
            self._streams[name] = rng
        return rng


# Bitrate value meaning "no serialization delay".
UNLIMITED = None


_DOWN = IfaceState.DOWN  # transmit checks it per packet: a global is cheaper


class Link:
    """Unidirectional link: serialization at a bitrate, fixed or uniformly
    random propagation delay, drop-tail FIFO queue, and Bernoulli loss.

    The queue capacity counts packets in the system (serializing plus
    waiting). Arrival times are clamped to be non-decreasing so delivery
    order always equals offer order. The parameters obey LinkParams' rules,
    which CallSpec.validate applies.
    """

    def __init__(self, engine: Engine, link_id: str, params: LinkParams,
                 rng: Optional[random.Random] = None):
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
        self.state = IfaceState.UP
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

    def set_state(self, state: IfaceState) -> None:
        """Up/Down the link. Packets already in flight are still delivered."""
        if state not in (IfaceState.UP, IfaceState.DOWN):
            raise ValueError(f"link state must be Up or Down, got {state!r}")
        self.state = state

    def transmit(self, size_bytes: int,
                 on_arrive: Optional[Callable[[int], None]] = None,
                 note: str = "") -> tuple[Optional[int], Optional[str]]:
        """Offer one packet at the current engine time.

        Returns (arrival_time_us, None) when delivered, (None, cause) when
        dropped. The arrival outcome is fully determined at offer time; when
        on_arrive is given it runs as an engine event at the arrival time.
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        t = self.engine.now
        self.offered += 1
        if self.state is _DOWN:
            self.dropped += 1
            return None, LOSS_LINK_DOWN
        busy = self._busy
        while busy and busy[0] <= t:
            busy.popleft()
        if len(busy) >= self.queue_capacity_pkts:
            self.dropped += 1
            return None, LOSS_QUEUE
        if self.loss_prob > 0.0 and self.rng.random() < self.loss_prob:
            self.dropped += 1
            return None, LOSS_RANDOM
        start = busy[-1] if busy else t
        finish = start + self.serialization_us(size_bytes)
        busy.append(finish)
        if self.prop_lo_us == self.prop_hi_us:
            prop = self.prop_lo_us
        else:
            prop = self.rng.randint(self.prop_lo_us, self.prop_hi_us)
        arrival = finish + prop
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        self.delivered += 1
        if on_arrive is not None:
            self.engine.schedule(arrival, lambda: on_arrive(arrival),
                                 kind="arrival", subject=note or self.link_id)
        return arrival, None
