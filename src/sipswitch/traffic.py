"""Per-packet trace recording and its CSV form: a trace keeps each media
direction's packets as plain lists, which the analysis reads directly and
write_trace merges into one row per packet."""

from __future__ import annotations

import csv
import io
from functools import lru_cache
from itertools import compress, count, repeat
from math import inf
from operator import ge, ne
from typing import Optional, Sequence

from .core import DL, LOSS_CAUSES, UL, InternalInvariantError, SimTime

# RTP 12 + UDP 8 + IP 20: metrics are taken at IP level.
DEFAULT_HEADER_OVERHEAD_BYTES = 40


class TraceConservationError(InternalInvariantError):
    """A packet recorded out of order or with a contradictory fate."""


def expected_packet_count(t_start: SimTime, t_end: SimTime,
                          interval_us: int) -> int:
    """Packets a stream generates on [t_start, t_end] (t_end >= t_start, as
    CallSpec.validate ensures), cadence inclusive of both ends:
    floor((t_end - t_start)/interval) + 1."""
    return (t_end - t_start) // interval_us + 1


class DirectionTrace:
    """One direction's packets in generation order, as columns: the packet
    of seq i was generated at gen[i], sent on iface[i], and arrived at
    arrival[i] or was lost for cause[i] (the other one is None)."""

    __slots__ = ("stream_id", "gen", "iface", "arrival", "cause")

    def __init__(self, stream_id: str):
        self.stream_id = stream_id
        self.gen: list[SimTime] = []
        self.iface: list[str] = []
        self.arrival: list[Optional[SimTime]] = []
        self.cause: list[Optional[str]] = []


def agree_before(a: DirectionTrace, b: DirectionTrace) -> float:
    """The time before which a and b hold the same packets: the generation
    time of the first packet whose gen, arrival or cause differs between
    them, the earlier of the two, or that one of them lacks; inf when
    neither has one. Every packet generated before it is the same in both,
    since both lists are in generation order."""
    n = min(len(a.gen), len(b.gen))
    for x, y in ((a.arrival, b.arrival), (a.gen, b.gen), (a.cause, b.cause)):
        if x[:n] != y[:n]:   # compared in C; scanned only to find where
            n = next(compress(count(), map(ne, x, y)))
    return min((d.gen[n] for d in (a, b) if n < len(d.gen)), default=inf)


class PacketTrace:
    """Append-only per-run record of every generated packet's fate.

    directions maps each direction, in the order of its first packet, to
    its DirectionTrace. A direction carries one stream, whose packets are
    recorded with seq 0, 1, 2, ... in non-decreasing generation time, so a
    packet's seq is its index in the direction's lists. record admits one
    packet, check by check, and is the only per-packet admission. A run
    records each media segment with extend, which appends a run of
    delivered packets at once and passes every other packet to record.
    """

    def __init__(self):
        self.directions: dict[str, DirectionTrace] = {}

    def extend(self, stream_id: str, direction: str, seq: int, times: range,
               send_iface: str, arrivals: Sequence[Optional[SimTime]],
               causes: Sequence[Optional[str]]) -> None:
        """Append the fates of packets seq, seq + 1, ... generated at times
        and sent on send_iface, as Link.offer gives them: packet j arrived
        at arrivals[j] or was lost for causes[j]. Accepts and rejects
        exactly as record does packet by packet, and raises record's
        TraceConservationError for the first bad packet, with the packets
        before it appended.

        The segment is cut at its lost packets (arrival None). Each run of
        delivered packets between them is admitted with one test: it
        continues the direction's stream (the next seq, the same stream id,
        a first time no earlier than the direction's last one, inside a
        range of positive step), no cause is set, and no arrival is earlier
        than its generation. A run that passes is appended at once, and a
        direction's first run registers the direction. One loop then passes
        to record, in order, the packets of a run that fails and the lost
        packet that ends the run.
        """
        n = len(times)
        if len(arrivals) != n or len(causes) != n:
            raise TraceConservationError(
                f"{stream_id} seq {seq}: {n} times but {len(arrivals)} "
                f"arrivals and {len(causes)} causes")
        ascending = times.step > 0
        record, find = self.record, arrivals.index
        start = 0
        while start < n:
            try:
                stop = find(None, start)
            except ValueError:
                stop = n
            if start < stop:
                gens = times[start:stop]
                run = arrivals[start:stop]
                packets = self.directions.get(direction)
                if packets is None:
                    follows = seq + start == 0
                else:
                    follows = (seq + start == len(packets.gen)
                               and stream_id == packets.stream_id
                               and gens[0] >= packets.gen[-1])
                if (ascending and follows
                        and causes[start:stop].count(None) == stop - start
                        and all(map(ge, run, gens))):
                    if packets is None:
                        packets = self.directions[direction] = DirectionTrace(
                            stream_id)
                    packets.gen += gens
                    packets.iface += repeat(send_iface, stop - start)
                    packets.arrival += run
                    packets.cause += repeat(None, stop - start)
                    start = stop
            for j in range(start, min(stop + 1, n)):
                record(stream_id, direction, seq + j, times[j], send_iface,
                       arrivals[j], causes[j])
            start = stop + 1

    def record(self, stream_id: str, direction: str, seq: int,
               gen_time: SimTime, send_iface: str,
               arrival_time: Optional[SimTime],
               loss_cause: Optional[str]) -> None:
        """Append one packet's fate, or raise TraceConservationError naming
        the first check it fails: the direction's stream id, the next seq, a
        generation time no earlier than the previous packet's, exactly one
        of arrival and loss cause, an arrival no earlier than its
        generation, a known loss cause. A direction is registered only once
        its first packet passes.

        extend sends here each lost packet of a segment and each packet of
        a delivered run that fails its test; read_trace records each row.
        """
        packets = self.directions.get(direction) or DirectionTrace(stream_id)
        gens = packets.gen
        if stream_id != packets.stream_id:
            raise TraceConservationError(
                f"{stream_id} seq {seq}: {direction} already carries stream "
                f"{packets.stream_id}")
        if seq != len(gens):
            raise TraceConservationError(
                f"{stream_id} seq {seq}: expected seq {len(gens)}")
        if gens and gen_time < gens[-1]:
            raise TraceConservationError(
                f"{stream_id} seq {seq}: generated at {gen_time}, before the "
                f"previous {direction} packet at {gens[-1]}")
        if (arrival_time is None) is (loss_cause is None):
            raise TraceConservationError(
                f"{stream_id} seq {seq}: exactly one of arrival and loss "
                f"cause must be set")
        if loss_cause is None:
            if arrival_time < gen_time:
                raise TraceConservationError(
                    f"{stream_id} seq {seq}: arrival {arrival_time} before "
                    f"generation {gen_time}")
        elif loss_cause not in LOSS_CAUSES:
            raise TraceConservationError(
                f"{stream_id} seq {seq}: unknown loss cause {loss_cause!r}")
        if not gens:
            self.directions[direction] = packets
        gens.append(gen_time)
        packets.iface.append(send_iface)
        packets.arrival.append(arrival_time)
        packets.cause.append(loss_cause)

    def copy(self) -> PacketTrace:
        """A copy that shares no list with this trace."""
        twin = PacketTrace()
        for direction, packets in self.directions.items():
            copied = twin.directions[direction] = DirectionTrace(
                packets.stream_id)
            copied.gen, copied.iface = packets.gen[:], packets.iface[:]
            copied.arrival, copied.cause = packets.arrival[:], packets.cause[:]
        return twin

    @property
    def generated(self) -> int:
        return sum(len(packets.gen) for packets in self.directions.values())


TRACE_COLUMNS = ("run_id", "stream_id", "direction", "seq", "gen_time_us",
                 "send_iface", "arrival_time_us", "loss_cause")


class CsvFields(dict):
    """Each string as csv.writer renders it inside a row, quoted when it
    holds a comma, a quote or a line break, and None as ''; rendered once
    per value."""

    def __missing__(self, value: str) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((value, ""))
        rendered = self[value] = buf.getvalue()[:-2]  # drop ",\n"
        return rendered


def write_csv(path: str, header: tuple[str, ...], lines: list[str]) -> None:
    """A header and rendered rows, each ended by a newline."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *lines, ""]))


# The grid memo. Every run of a campaign with one codec and call length
# generates its media on one grid, call_start + seq * interval in both
# directions, so what depends only on the grid is computed once per grid:
# the "seq,gen" text of write_trace and each window's packet bounds. Each
# entry is a pure function of its key, and is used only for times equal
# to its grid, so it never changes a byte. A campaign never returns to an
# earlier grid, so each cache keeps one; run_campaign clears them.


@lru_cache(maxsize=1)
def media_grid(first: SimTime, step: int,
               n: int) -> tuple[list[SimTime], tuple[str, ...]]:
    """The grid first + seq * step for seq < n, as a list to compare a
    trace's times with (never to change), and each point's "seq,gen"
    text."""
    gens = list(range(first, first + n * step, step))
    return gens, tuple(f"{seq},{gen}" for seq, gen in enumerate(gens))


def grid_of(gens: list[SimTime]) -> Optional[tuple[int, int, int]]:
    """The key (first time, step, count) of gens if they are exactly a grid
    of positive step with two points or more, else None."""
    if len(gens) < 2 or gens[1] <= gens[0]:
        return None
    key = (gens[0], gens[1] - gens[0], len(gens))
    return key if media_grid(*key)[0] == gens else None


def _walk_bounds(gens: list[SimTime], starts: range,
                 width: int) -> tuple[list[int], list[int]]:
    los, his = [], []
    n, lo, hi = len(gens), 0, 0
    for start in starts:
        while gens[lo] < start:
            lo += 1
        end = start + width
        while hi < n and gens[hi] < end:
            hi += 1
        los.append(lo)
        his.append(hi)
    return los, his


@lru_cache(maxsize=1)
def _grid_bounds(grid: tuple[int, int, int], starts: range,
                 width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    los, his = _walk_bounds(media_grid(*grid)[0], starts, width)
    return tuple(los), tuple(his)


def window_bounds(gens: list[SimTime], starts: range,
                  width: int) -> tuple[Sequence[int], Sequence[int]]:
    """For each start s, the lo and hi such that gens[lo:hi] are the times
    in [s, s + width), found with two pointers over the ascending gens;
    every start lies in [gens[0], gens[-1]]. Memoised when gens are a grid
    (grid_of)."""
    grid = grid_of(gens)
    return (_grid_bounds(grid, starts, width) if grid
            else _walk_bounds(gens, starts, width))


def clear_grid_memo() -> None:
    media_grid.cache_clear()
    _grid_bounds.cache_clear()


def write_trace(path: str, run_id: str, trace: PacketTrace) -> None:
    """One row per packet, in generation order; at equal generation times
    UL comes before DL (and any other direction, by name), whichever was
    recorded first.

    A run's trace, UL and DL alone on one grid (grid_of), is written pair
    by pair: each grid point's UL row, then its DL row, with the grid's
    memoised "seq,gen" text and no sort. Every other trace (ties, gaps, one
    direction, other direction names, directions of different times, or a
    hand-made file read back) is merged by a stable sort of its generation
    times. Both give the same bytes."""
    f = CsvFields()
    run = f[run_id]
    ul, dl = trace.directions.get(UL), trace.directions.get(DL)
    key = (len(trace.directions) == 2 and ul and dl and ul.gen == dl.gen
           and grid_of(ul.gen))
    if key:
        u = f"{run},{f[ul.stream_id]},{f[UL]},"
        d = f"{run},{f[dl.stream_id]},{f[DL]},"
        write_csv(path, TRACE_COLUMNS, [
            f"{u}{sg},{f[ui]},{'' if ua is None else ua},{f[uc]}\n"
            f"{d}{sg},{f[di]},{'' if da is None else da},{f[dc]}"
            for sg, ui, ua, uc, di, da, dc in zip(
                media_grid(*key)[1], ul.iface, ul.arrival, ul.cause,
                dl.iface, dl.arrival, dl.cause)])
        return
    gens, lines = [], []
    directions = sorted(trace.directions.items(),
                        key=lambda item: (item[0] != UL, item[0]))
    for direction, packets in directions:
        head = f"{run},{f[packets.stream_id]},{f[direction]},"
        gens += packets.gen
        lines += [
            f"{head}{seq},{gen},{f[iface]},"
            f"{'' if arrival is None else arrival},{f[cause]}"
            for seq, (gen, iface, arrival, cause) in enumerate(zip(
                packets.gen, packets.iface, packets.arrival, packets.cause))]
    # sorted is stable, and each direction's packets are in generation order
    write_csv(path, TRACE_COLUMNS, [
        lines[i] for i in sorted(range(len(gens)), key=gens.__getitem__)])


def read_trace(path: str) -> tuple[str, PacketTrace]:
    """Load an exported trace; returns (run_id, trace).

    Raises ValueError, naming the file and line, for a wrong header, a row
    of the wrong width, a run id other than the first row's, a non-integer
    number, or a row the trace rejects. A header-only trace reads as run "".
    """
    trace = PacketTrace()
    run_id = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader, ()))
            if header != TRACE_COLUMNS:
                raise ValueError(f"unexpected trace columns {header}")
            for row in reader:
                if len(row) != len(TRACE_COLUMNS):
                    raise ValueError(f"expected {len(TRACE_COLUMNS)} fields, "
                                     f"got {len(row)}")
                if row[0] != run_id:
                    if run_id is not None:
                        raise ValueError(f"run id {row[0]!r} differs from "
                                         f"the first row's {run_id!r}")
                    run_id = row[0]
                trace.record(row[1], row[2], int(row[3]), int(row[4]), row[5],
                             int(row[6]) if row[6] else None,
                             row[7] if row[7] else None)
        except (ValueError, csv.Error, TraceConservationError) as exc:
            raise ValueError(
                f"{path}: line {reader.line_num}: {exc}") from None
    return run_id or "", trace
