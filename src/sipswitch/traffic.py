"""Per-packet trace recording and its CSV form."""

from __future__ import annotations

import csv
import io
from itertools import accumulate
from typing import NamedTuple, Optional

from .core import LOSS_CAUSES, InternalInvariantError, SimTime

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


class DirectionColumns(NamedTuple):
    """One direction's packets as columns, in generation order, with prefix
    sums: the packets [i, j) lost cum_lost[j] - cum_lost[i] of their number
    and their delivered ones took cum_delay[j] - cum_delay[i] us in all."""

    gen: list[SimTime]
    lost: list[bool]
    cum_lost: list[int]
    cum_delay: list[int]


class PacketTrace:
    """Append-only per-run record of every generated packet's fate.

    Row layout (tuples): (stream_id, direction, seq, gen_time_us,
    send_iface, arrival_time_us or None, loss_cause or None).

    Each stream's packets are recorded with seq 0, 1, 2, ... and each
    direction's in non-decreasing generation time, so the rows of one
    direction are in generation order by construction. next_seq maps each
    stream to the number of packets recorded for it.
    """

    def __init__(self):
        self.rows: list[tuple] = []
        self.next_seq: dict[str, int] = {}
        self._last_gen: dict[str, SimTime] = {}
        self._columns: dict[str, tuple[int, DirectionColumns]] = {}

    def record(self, stream_id: str, direction: str, seq: int,
               gen_time: SimTime, send_iface: str,
               arrival_time: Optional[SimTime],
               loss_cause: Optional[str]) -> None:
        expected = self.next_seq.get(stream_id, 0)
        if seq != expected:
            raise TraceConservationError(
                f"{stream_id} seq {seq}: expected seq {expected}")
        last_gen = self._last_gen.get(direction, gen_time)
        if gen_time < last_gen:
            raise TraceConservationError(
                f"{stream_id} seq {seq}: generated at {gen_time}, before the "
                f"previous {direction} packet at {last_gen}")
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
        self.next_seq[stream_id] = seq + 1
        self._last_gen[direction] = gen_time
        self.rows.append((stream_id, direction, seq, gen_time, send_iface,
                          arrival_time, loss_cause))

    def rows_for(self, direction: str) -> list[tuple]:
        """The direction's rows, in generation order."""
        return [r for r in self.rows if r[1] == direction]

    def columns(self, direction: str) -> DirectionColumns:
        """The direction's columns, built once per number of rows."""
        built, cols = self._columns.get(direction, (-1, None))
        if built != len(self.rows):
            rows = self.rows_for(direction)
            lost = [r[6] is not None for r in rows]
            cols = DirectionColumns(
                [r[3] for r in rows], lost,
                list(accumulate(lost, initial=0)),
                list(accumulate((0 if r[5] is None else r[5] - r[3]
                                 for r in rows), initial=0)))
            self._columns[direction] = (len(self.rows), cols)
        return cols

    @property
    def generated(self) -> int:
        return len(self.rows)

    @property
    def delivered(self) -> int:
        return sum(1 for r in self.rows if r[5] is not None)

    @property
    def lost(self) -> int:
        return sum(1 for r in self.rows if r[6] is not None)


TRACE_COLUMNS = ("run_id", "stream_id", "direction", "seq", "gen_time_us",
                 "send_iface", "arrival_time_us", "loss_cause")


class CsvFields(dict):
    """Each string as csv.writer renders it inside a row, quoted when it
    holds a comma, a quote or a line break; rendered once per value."""

    def __missing__(self, value: str) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((value, ""))
        rendered = self[value] = buf.getvalue()[:-2]  # drop ",\n"
        return rendered


def write_csv(path: str, header: tuple[str, ...], lines: list[str]) -> None:
    """A header and rendered rows, each ended by a newline."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *lines, ""]))


def write_trace(path: str, run_id: str, trace: PacketTrace) -> None:
    f = CsvFields()
    run = f[run_id]
    write_csv(path, TRACE_COLUMNS, [
        f"{run},{f[stream_id]},{f[direction]},{seq},{gen},{f[iface]},"
        f"{'' if arrival is None else arrival},"
        f"{'' if cause is None else f[cause]}"
        for stream_id, direction, seq, gen, iface, arrival, cause
        in trace.rows])


def read_trace(path: str) -> tuple[str, PacketTrace]:
    """Load an exported trace; returns (run_id, trace).

    Raises ValueError, naming the file and line, for a wrong header, a row
    of the wrong width, a non-integer number, or a row the trace rejects.
    """
    trace = PacketTrace()
    run_id = ""
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
                trace.record(row[1], row[2], int(row[3]), int(row[4]), row[5],
                             int(row[6]) if row[6] else None,
                             row[7] if row[7] else None)
                run_id = row[0]
        except (ValueError, csv.Error, TraceConservationError) as exc:
            raise ValueError(
                f"{path}: line {reader.line_num}: {exc}") from None
    return run_id, trace
