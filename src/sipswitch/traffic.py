"""Constant-cadence VoIP stream generation and per-packet trace recording."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    DL,
    LOSS_CAUSES,
    UL,
    CodecProfile,
    InternalInvariantError,
    SimTime,
)
from .simnet import Engine

# RTP 12 + UDP 8 + IP 20: metrics are taken at IP level.
DEFAULT_HEADER_OVERHEAD_BYTES = 40


class TraceConservationError(InternalInvariantError):
    """A packet was recorded twice, or an arrival predates generation."""


@dataclass(frozen=True, slots=True)
class MediaPacket:
    stream_id: str
    direction: str
    seq: int
    gen_time: SimTime
    size_bytes: int


def expected_packet_count(t_start: SimTime, t_end: SimTime,
                          interval_us: int) -> int:
    """Packets a stream generates on [t_start, t_end], cadence inclusive of
    both ends: floor((t_end - t_start)/interval) + 1."""
    if t_end < t_start:
        raise ValueError("t_end before t_start")
    return (t_end - t_start) // interval_us + 1


class PacketTrace:
    """Append-only per-run record of every generated packet's fate.

    Row layout (tuples): (stream_id, direction, seq, gen_time_us,
    send_iface, arrival_time_us or None, loss_cause or None).
    """

    def __init__(self):
        self.rows: list[tuple] = []
        self._seen: set[tuple[str, int]] = set()

    def record(self, stream_id: str, direction: str, seq: int,
               gen_time: SimTime, send_iface: str,
               arrival_time: Optional[SimTime],
               loss_cause: Optional[str]) -> None:
        key = (stream_id, seq)
        if key in self._seen:
            raise TraceConservationError(
                f"duplicate packet record {stream_id} seq {seq}")
        if (arrival_time is None) == (loss_cause is None):
            raise TraceConservationError(
                f"{stream_id} seq {seq}: exactly one of arrival and loss "
                f"cause must be set")
        if arrival_time is not None and arrival_time < gen_time:
            raise TraceConservationError(
                f"{stream_id} seq {seq}: arrival {arrival_time} before "
                f"generation {gen_time}")
        if loss_cause is not None and loss_cause not in LOSS_CAUSES:
            raise TraceConservationError(
                f"{stream_id} seq {seq}: unknown loss cause {loss_cause!r}")
        self._seen.add(key)
        self.rows.append((stream_id, direction, seq, gen_time, send_iface,
                          arrival_time, loss_cause))

    def rows_for(self, direction: str) -> list[tuple]:
        return [r for r in self.rows if r[1] == direction]

    @property
    def generated(self) -> int:
        return len(self.rows)

    @property
    def delivered(self) -> int:
        return sum(1 for r in self.rows if r[5] is not None)

    @property
    def lost(self) -> int:
        return sum(1 for r in self.rows if r[6] is not None)


class MediaStream:
    """Self-scheduling constant-cadence packet source.

    Calls emit(packet) at every generation instant; the caller routes the
    packet, offers it to a link, and records the outcome. Generation times
    sit on the exact grid t_start + seq * interval (no cumulative drift).
    """

    def __init__(self, engine: Engine, stream_id: str, direction: str,
                 codec: CodecProfile, t_start: SimTime, t_end: SimTime,
                 emit: Callable[[MediaPacket], None],
                 header_overhead: int = DEFAULT_HEADER_OVERHEAD_BYTES):
        if direction not in (UL, DL):
            raise ValueError(f"unknown direction {direction!r}")
        if t_end < t_start:
            raise ValueError("t_end before t_start")
        self.engine = engine
        self.stream_id = stream_id
        self.direction = direction
        self.t_start = t_start
        self.t_end = t_end
        self.emit = emit
        self.interval_us = codec.packet_interval_us
        self.size_bytes = codec.payload_bytes + header_overhead
        self.next_seq = 0
        self.stopped = False

    def start(self) -> None:
        self.engine.schedule(self.t_start, self._tick, kind="media-tick",
                             subject=self.stream_id)

    def stop(self) -> None:
        self.stopped = True

    def _tick(self) -> None:
        if self.stopped:
            return
        seq = self.next_seq
        gen = self.t_start + seq * self.interval_us
        self.emit(MediaPacket(self.stream_id, self.direction, seq, gen,
                              self.size_bytes))
        self.next_seq = seq + 1
        nxt = self.t_start + self.next_seq * self.interval_us
        if nxt <= self.t_end:
            self.engine.schedule(nxt, self._tick, kind="media-tick",
                                 subject=self.stream_id)


def start_stream(engine: Engine, stream_id: str, direction: str,
                 codec: CodecProfile, t_start: SimTime, t_end: SimTime,
                 emit: Callable[[MediaPacket], None],
                 header_overhead: int = DEFAULT_HEADER_OVERHEAD_BYTES) -> MediaStream:
    stream = MediaStream(engine, stream_id, direction, codec, t_start, t_end,
                         emit, header_overhead)
    stream.start()
    return stream


TRACE_COLUMNS = ("run_id", "stream_id", "direction", "seq", "gen_time_us",
                 "send_iface", "arrival_time_us", "loss_cause")


def write_trace(path: str, run_id: str, trace: PacketTrace) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRACE_COLUMNS)
        for (stream_id, direction, seq, gen, iface, arrival, cause) in trace.rows:
            w.writerow((run_id, stream_id, direction, seq, gen, iface,
                        "" if arrival is None else arrival,
                        "" if cause is None else cause))


def read_trace(path: str) -> tuple[str, PacketTrace]:
    """Load an exported trace; returns (run_id, trace)."""
    trace = PacketTrace()
    run_id = ""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != TRACE_COLUMNS:
            raise ValueError(f"{path}: unexpected trace columns {header}")
        for row in reader:
            run_id = row[0]
            trace.record(row[1], row[2], int(row[3]), int(row[4]), row[5],
                         int(row[6]) if row[6] else None,
                         row[7] if row[7] else None)
    return run_id, trace
