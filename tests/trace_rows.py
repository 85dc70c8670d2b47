"""A trace's packets as rows, for tests that compare or filter packets."""

from sipswitch.core import UL


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
