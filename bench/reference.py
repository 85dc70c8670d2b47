"""A fixed reference workload that measures the host's speed of the moment.

A shared host can run the simulator at two speeds up to 1.8x apart, in
phases of seconds to minutes (README.md, end-to-end metrics). A plain
total of host seconds follows the share of a run spent in each phase. The
benchmark therefore runs ``kernel`` between timed calls and scales each
call's host time by ``NOMINAL_S`` over the kernel's times next to it: the
metrics read as if the host had run at the speed at which the kernel takes
``NOMINAL_S``.

The kernel does the kinds of work the program does: a heap-driven event
loop that allocates slotted objects, float statistics over windows, and
CSV-style string formatting. It imports nothing from the
program, so a change to the program never changes it; it must not be
changed between two commits that are compared.
"""

from __future__ import annotations

import heapq
import math
import time

# The host speed the metrics are scaled to: the kernel takes this long.
NOMINAL_S = 0.006
EVENTS = 2500


class _Packet:
    __slots__ = ("seq", "sent", "size", "stream")

    def __init__(self, seq: int, sent: float, size: int, stream: str):
        self.seq = seq
        self.sent = sent
        self.size = size
        self.stream = stream


def _work(events: int) -> int:
    queue: list[tuple[float, int, int]] = []
    delivered: list[tuple[float, _Packet]] = []
    state = 12345
    for seq in range(64):
        heapq.heappush(queue, (seq * 0.02, seq, seq & 1))
    seq = 64
    for _ in range(events):
        now, ident, stream = heapq.heappop(queue)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        packet = _Packet(ident, now, 20 + (state & 31),
                         "ul" if stream else "dl")
        delivered.append((now + (state % 97) / 1000.0, packet))
        heapq.heappush(queue, (now + 0.02, seq, stream))
        seq += 1
    # Windows of 50 packets: mean and stdev of the delay, as the analysis does.
    rows = []
    for start in range(0, len(delivered), 50):
        delays = [t - p.sent for t, p in delivered[start:start + 50]]
        mean = math.fsum(delays) / len(delays)
        var = math.fsum((d - mean) ** 2 for d in delays) / len(delays)
        rows.append(f"{start},{mean:.6f},{math.sqrt(var):.6f},"
                    f"{sum(p.size for _, p in delivered[start:start + 50])}")
    return len("\n".join(rows))


def kernel() -> float:
    """Host seconds of one fixed run of the reference work."""
    t0 = time.perf_counter()
    _work(EVENTS)
    return time.perf_counter() - t0
