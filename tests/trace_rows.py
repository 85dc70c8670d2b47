"""A trace's packets as rows, and a window series as rows, for tests that
compare or filter packets or windows one at a time."""

from collections import namedtuple
from dataclasses import fields

from sipswitch.core import UL
from sipswitch.metrics import WindowSeries

# One window of a series: its start, metrics, R-factor and carry flags.
Window = namedtuple("Window", [f.name for f in fields(WindowSeries)])


def trace_rows(trace, direction=None):
    """(stream_id, direction, seq, gen_time, send_iface, arrival, loss_cause)
    per packet, in the order write_trace writes them, or only the given
    direction's packets in generation order."""
    rows = [(packets.stream_id, name, seq, *fate)
            for name, packets in trace.directions.items()
            if direction in (None, name)
            for seq, fate in enumerate(zip(packets.gen, packets.iface,
                                           packets.arrival, packets.cause))]
    rows.sort(key=lambda row: (row[3], row[1] != UL, row[1]))
    return rows


def lost_count(trace, direction=None):
    """The number of lost packets, in the given direction or in all."""
    return sum(len(packets.cause) - packets.cause.count(None)
               for name, packets in trace.directions.items()
               if direction in (None, name))


def window_rows(series):
    """A column window series as one Window per window."""
    return [Window(*row) for row in zip(*(getattr(series, name)
                                          for name in Window._fields))]


def series_of(windows):
    """The column window series that holds the given windows in order."""
    return WindowSeries(*map(list, zip(*windows)))
