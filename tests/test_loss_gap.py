"""The hard procedure's loss gap on drawn calls.

A packet is lost to a Closed interface only under hard, only on DL, and
exactly when the CN still targets the old interface after the trigger
closed it: from the trigger's event until the first re-INVITE copy's
arrival event, or to the end if none arrives. The oracle reads that span
from the event log, whose media-tick lines are the packets in dispatch
order, so it also settles the tie at the CN's switch. The run checks the
same rule itself and raises InternalInvariantError when it breaks.
"""

from dataclasses import replace

from hypothesis import given, settings

from sipswitch.core import DL, LOSS_CLOSED, UL
from sipswitch.handoff import HandoffProcedure
from sipswitch.scenario import run_call

from test_media_clock import call_specs

REINVITE_ARRIVAL = " arrival sip-REINVITE"


def closed_by_the_log(result, procedure):
    """Per DL packet, whether the event log has it generated while the CN
    still targeted the Closed old interface; and the CN's switch time."""
    closing = (f"{result.t_trigger} handoff trigger"
               if procedure is HandoffProcedure.HARD
               and result.t_trigger is not None else None)
    closed, t_cn_switch, flags = False, None, []
    for line in result.event_log:
        if line == closing:
            closed = True
        elif line.endswith(REINVITE_ARRIVAL) and t_cn_switch is None:
            closed, t_cn_switch = False, int(line.split()[0])
        elif line.endswith(" media-tick dl"):
            flags.append(closed)
    return flags, t_cn_switch


def assert_the_gap_rule(spec):
    result = run_call(spec)
    flags, t_cn_switch = closed_by_the_log(result, spec.procedure)
    assert result.t_cn_switch == t_cn_switch
    causes = {d: p.cause for d, p in result.trace.directions.items()}
    assert LOSS_CLOSED not in causes.get(UL, [])
    assert [cause == LOSS_CLOSED for cause in causes.get(DL, [])] == flags
    return result, causes


# derandomize keeps the suite's outcome fixed; drop it and raise
# max_examples to search further.
@settings(max_examples=600, deadline=None, derandomize=True)
@given(call_specs())
def test_closed_interface_losses_are_the_hard_dl_gap(spec):
    assert_the_gap_rule(spec)


def clean(spec):
    """spec over clean links: no random loss, no link down, no forced drop,
    and every queue and bitrate ample for media and signaling."""
    def ample(link):
        fast = link.bitrate_kbps is None or link.bitrate_kbps >= 384.0
        return replace(link, loss_prob=0.0, queue_capacity_pkts=50,
                       bitrate_kbps=link.bitrate_kbps if fast else 384.0)

    spec.interfaces = [replace(i, link=ample(i.link))
                       for i in spec.interfaces]
    spec.down_links = spec.signaling_drop_plan = frozenset()
    return spec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(call_specs().map(clean))
def test_over_clean_links_only_the_hard_dl_gap_loses(spec):
    result, causes = assert_the_gap_rule(spec)
    assert not result.aborted and result.t_completed is not None
    assert causes[UL].count(None) == len(causes[UL])
    lost = [cause for cause in causes[DL] if cause is not None]
    if spec.procedure is HandoffProcedure.HARD:
        assert set(lost) <= {LOSS_CLOSED}
    else:
        assert lost == []
