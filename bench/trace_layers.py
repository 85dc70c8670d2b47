"""Layer tracer for the benchmark's traced runs.

Wraps the program's public calls from the outside, by replacing names
where they are looked up (``sipswitch.cli.run_call``,
``sipswitch.scenario.media_route``, ``Engine.run_until``, ...). Coarse
calls become spans (name, start, end, parent, run_id, codec, procedure),
kept in memory and written out at the end. Calls made once or more per
packet (``Engine.schedule``, ``Link.transmit``, ``PacketTrace.record``,
``media_route``) only add to a count and a time, because a span each
would cost more memory than the run itself. A span's self time is its
duration minus the time of the calls made directly inside it.
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle
from collections import Counter, defaultdict
from pathlib import Path
from statistics import fmean
from time import perf_counter

CODECS = ("G711", "G729", "G723.1")
LOSS_CAUSES = ("queue-overflow", "random-loss", "closed-interface")

# Span names and where each wrapped function is looked up in sipswitch.cli.
CLI_SPANS = {
    "run_call": "scenario.run_call",
    "write_trace": "traffic.write_trace",
    "read_trace": "traffic.read_trace",
    "window_series": "metrics.window_series",
    "call_summary": "metrics.call_summary",
    "write_metrics": "metrics.write_metrics",
    "aggregate": "cli.aggregate",
    "write_aggregate": "cli.write_aggregate",
    "_run_one": "cli.run_one",
    "run_campaign": "cli.campaign",
    "load_config": "cli.load_config",
    "recompute_metrics": "cli.recompute",
}


class Tracer:
    def __init__(self, cli):
        import sipswitch.scenario as scenario
        import sipswitch.simnet as simnet
        import sipswitch.traffic as traffic

        self.spans: list[tuple] = []
        self.stack: list[list] = []   # [span id or None, start, child time]
        self.hot: dict[str, list] = {}
        self.calls: list[dict] = []
        self.call: dict | None = None
        self.labels: tuple = (None, None, None)   # run_id, codec, procedure
        self.link_violations: list[str] = []
        self._ids = itertools.count()
        self._undo: list[tuple] = []
        self.result_bytes: list[int] = []
        self.trace_bytes: list[int] = []
        self.windows: list[int] = []
        self.aggregate_values: list[int] = []
        self.aggregate_codecs: list[str] = []

        after = {"run_call": self._end_call, "_run_one": self._after_run_one,
                 "write_trace": self._after_write_trace,
                 "window_series": self._after_window_series,
                 "aggregate": self._after_aggregate,
                 "write_aggregate": self._after_write_aggregate}
        for attr, name in CLI_SPANS.items():
            wrapper = self._span(name, getattr(cli, attr), after.get(attr))
            if attr == "run_call":
                wrapper = self._per_call(wrapper)
            self._patch(cli, attr, wrapper)
        self._patch(simnet.Engine, "run_until", self._span(
            "simnet.run_until", simnet.Engine.run_until,
            after=self._after_run_until))
        self._patch(simnet.Engine, "schedule",
                    self._hot("simnet.schedule", simnet.Engine.schedule))
        self._patch(simnet.Link, "transmit",
                    self._hot("simnet.transmit", simnet.Link.transmit))
        self._patch(traffic.PacketTrace, "record",
                    self._hot("traffic.record", traffic.PacketTrace.record,
                              before=self._before_record))
        self._patch(scenario, "media_route",
                    self._hot("handoff.media_route", scenario.media_route))
        link_init = simnet.Link.__init__

        @functools.wraps(link_init)
        def register_link(link, *args, **kwargs):
            link_init(link, *args, **kwargs)
            if self.call is not None:
                self.call["links"].append(link)

        self._patch(simnet.Link, "__init__", register_link)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        stack = self.stack
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                spans.append((name, frame[1], end, span_id,
                              parent[0] if parent else None, *self.labels,
                              duration - frame[2]))
            if after is not None:
                t0 = perf_counter()
                after(args, result)
                if stack:   # bookkeeping is not the parent's own work
                    stack[-1][2] += perf_counter() - t0
            return result

        return wrapper

    def _hot(self, name: str, fn, before=None):
        acc = self.hot.setdefault(name, [0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.call is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [None, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                stack[-1][2] += duration
                acc[0] += 1
                acc[1] += duration

        return wrapper

    # -- per-call bookkeeping ----------------------------------------------

    def _per_call(self, span_wrapper):
        """Open the call's record around the run_call span; its ``after``
        hook (``_end_call``) closes it, and a call that raises drops it."""

        @functools.wraps(span_wrapper)
        def wrapper(spec):
            self.labels = (spec.run_id, spec.codec.name, spec.procedure.value)
            self.call = {"run_id": spec.run_id, "codec": spec.codec.name,
                         "procedure": spec.procedure.value, "links": [],
                         "lost_gen": [], "causes": Counter(), "events": 0}
            try:
                return span_wrapper(spec)
            finally:
                self.call = None

        return wrapper

    def _before_record(self, args) -> None:
        # PacketTrace.record(self, stream_id, direction, seq, gen_time,
        #                    send_iface, arrival_time, loss_cause)
        cause = args[7] if len(args) > 7 else None
        if cause is not None:
            self.call["causes"][cause] += 1
            self.call["lost_gen"].append(args[4])

    def _after_run_until(self, args, result) -> None:
        if self.call is not None:
            self.call["events"] = args[0].dispatched

    def _end_call(self, args, result) -> None:
        call, self.call = self.call, None
        links = call.pop("links")
        for link in links:
            if link.offered != link.delivered + link.dropped:
                self.link_violations.append(
                    f"{call['run_id']} {link.link_id}: offered "
                    f"{link.offered} != delivered {link.delivered} + "
                    f"dropped {link.dropped}")
        call["offered"] = sum(link.offered for link in links)
        call["delivered"] = sum(link.delivered for link in links)
        call["dropped"] = sum(link.dropped for link in links)
        call["packets"] = result.trace.generated
        call["aborted"] = bool(result.aborted)
        lo, hi = result.t_trigger, result.t_completed
        if lo is not None and hi is not None:
            call["latency_ms"] = (hi - lo) / 1000.0
            call["switch_window_lost"] = sum(
                1 for t in call["lost_gen"] if lo <= t <= hi)
        del call["lost_gen"]
        call.update(signaling_counts(result.signaling.lines))
        txn = result.setup_transaction
        attempted = {address for address, _ in txn.attempts} if txn else ()
        call["fallbacks"] = max(0, len(attempted) - 1)
        self.calls.append(call)

    def _after_run_one(self, args, result) -> None:
        self.labels = (None, None, None)
        self.result_bytes.append(
            len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)))

    def _after_write_trace(self, args, result) -> None:
        self.trace_bytes.append(Path(args[0]).stat().st_size)

    def _after_window_series(self, args, result) -> None:
        self.windows.append(len(result))

    def _after_aggregate(self, args, result) -> None:
        series_list = args[0]
        self.aggregate_values.append(
            len(series_list) * len(result.window_starts)
            * len(result.means))

    def _after_write_aggregate(self, args, result) -> None:
        # The path is <out>/<codec>_<procedure>_<direction>/aggregate_*.csv.
        self.aggregate_codecs.append(Path(args[0]).parent.name.split("_")[0])

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        keys = ("name", "start", "end", "id", "parent", "run_id", "codec",
                "procedure", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def summary(self) -> dict:
        """Per-layer metrics of this unit, plus the per-codec stage split."""
        durations = defaultdict(list)
        selfs = defaultdict(list)
        for name, start, end, _, _, _, _, _, self_s in self.spans:
            durations[name].append(end - start)
            selfs[name].append(self_s)

        def mean_ms(name, table=durations):
            return fmean(table[name]) * 1000.0 if table[name] else 0.0

        calls = self.calls
        n = len(calls)

        def per_call(key):
            return sum(c.get(key, 0) for c in calls) / n if n else 0.0

        def hot_calls(name):
            return self.hot[name][0] / n if n else 0.0

        def hot_us(name):
            count, total = self.hot[name]
            return total / count * 1e6 if count else 0.0

        def mean(values):
            return fmean(values) if values else 0.0

        events = sum(c["events"] for c in calls)
        run_until_s = sum(durations["simnet.run_until"])
        windows = sum(self.windows)
        window_s = sum(durations["metrics.window_series"])
        latencies = [c["latency_ms"] for c in calls if "latency_ms" in c]
        out = {
            "scenario.run_call_ms": mean_ms("scenario.run_call"),
            "scenario.self_ms": mean_ms("scenario.run_call", selfs),
            "scenario.calls": n,
            "scenario.aborted": sum(c["aborted"] for c in calls),
            "simnet.events_dispatched": per_call("events"),
            "simnet.events_per_s": (events / run_until_s
                                    if run_until_s else 0.0),
            "simnet.run_until_self_ms": mean_ms("simnet.run_until", selfs),
            "simnet.schedule_calls": hot_calls("simnet.schedule"),
            "simnet.schedule_us": hot_us("simnet.schedule"),
            "simnet.transmit_calls": hot_calls("simnet.transmit"),
            "simnet.transmit_us": hot_us("simnet.transmit"),
            "simnet.offered": per_call("offered"),
            "simnet.delivered": per_call("delivered"),
            "simnet.dropped": per_call("dropped"),
            "traffic.record_calls": hot_calls("traffic.record"),
            "traffic.record_us": hot_us("traffic.record"),
            "traffic.packets": per_call("packets"),
            "traffic.write_trace_ms": mean_ms("traffic.write_trace"),
            "traffic.trace_bytes": mean(self.trace_bytes),
            "traffic.read_trace_ms": mean_ms("traffic.read_trace"),
            "handoff.media_route_calls": hot_calls("handoff.media_route"),
            "handoff.media_route_us": hot_us("handoff.media_route"),
            "handoff.latency_ms": mean(latencies),
            "handoff.switch_window_lost": per_call("switch_window_lost"),
            "sip.sends": per_call("sends"),
            "sip.retransmissions": per_call("retransmissions"),
            "sip.dropped": per_call("sip_dropped"),
            "sip.fallbacks": per_call("fallbacks"),
            "metrics.window_series_ms": mean_ms("metrics.window_series"),
            "metrics.windows": mean(self.windows),
            "metrics.us_per_window": (window_s / windows * 1e6
                                      if windows else 0.0),
            "metrics.call_summary_ms": mean_ms("metrics.call_summary"),
            "metrics.write_metrics_ms": mean_ms("metrics.write_metrics"),
            "cli.aggregate_ms": mean_ms("cli.aggregate"),
            "cli.aggregate_values": mean(self.aggregate_values),
            "cli.write_aggregate_ms": mean_ms("cli.write_aggregate"),
            "cli.run_one_ms": mean_ms("cli.run_one"),
            "cli.run_one_self_ms": mean_ms("cli.run_one", selfs),
            "cli.campaign_self_ms": mean_ms("cli.campaign", selfs),
            "cli.result_bytes": mean(self.result_bytes),
            "cli.load_config_ms": mean_ms("cli.load_config"),
            "cli.recompute_ms": mean_ms("cli.recompute"),
        }
        for cause in LOSS_CAUSES:
            out[f"traffic.lost_{cause}"] = (
                sum(c["causes"][cause] for c in calls) / n if n else 0.0)
        for codec in CODECS:
            mine = [c for c in calls if c["codec"] == codec]
            out[f"traffic.packets.{codec}"] = (
                fmean(c["packets"] for c in mine) if mine else 0.0)
            out[f"simnet.events_dispatched.{codec}"] = (
                fmean(c["events"] for c in mine) if mine else 0.0)
        return {"metrics": out, "split_ms": self._stage_split(),
                "link_violations": self.link_violations}

    def _stage_split(self) -> dict:
        """Host ms per call by codec: simulate / analyse / export /
        aggregate, the stages of the baseline table in ROADMAP.md."""
        stages = {"scenario.run_call": "simulate",
                  "metrics.window_series": "analyse",
                  "metrics.call_summary": "analyse",
                  "traffic.write_trace": "export",
                  "metrics.write_metrics": "export"}
        totals = defaultdict(lambda: defaultdict(float))
        codecs = iter(self.aggregate_codecs)
        pending = 0.0
        for name, start, end, _, _, _, codec, _, self_s in self.spans:
            if name in stages and codec is not None:   # not the recompute path
                totals[codec][stages[name]] += end - start
            elif name == "cli.run_one":
                # Log writes and row scans: the rest of the per-run export.
                totals[codec]["export"] += self_s
            elif name == "cli.aggregate":
                pending += end - start
            elif name == "cli.write_aggregate":
                totals[next(codecs)]["aggregate"] += pending + end - start
                pending = 0.0
        per_codec = Counter(c["codec"] for c in self.calls)
        return {codec: {stage: 1000.0 * value / per_codec[codec]
                        for stage, value in sorted(stages_.items())}
                for codec, stages_ in sorted(totals.items())
                if per_codec.get(codec)}


def signaling_counts(lines: list[str]) -> dict:
    """Sends, retransmissions and drops from SignalingLog lines.

    A line reads ``(time, METHOD, from, to, via, outcome)``. A repeat of
    the same method, endpoints and interface is a retransmission, except
    for ACK, which is a fresh message for every OK received.
    """
    seen = Counter()
    dropped = 0
    for line in lines:
        fields = [f.strip() for f in line.strip("()").split(",")]
        method, outcome = fields[1], fields[5]
        if outcome.startswith("dropped"):
            dropped += 1
        if method != "ACK":
            seen[tuple(fields[1:5])] += 1
    return {"sends": len(lines),
            "retransmissions": sum(v - 1 for v in seen.values()),
            "sip_dropped": dropped}
