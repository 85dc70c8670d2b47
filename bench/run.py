"""sipswitch benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload campaign-a --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else. Each unit of work runs in a fresh
interpreter (``unit.py``), which is timed from outside the program. With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (``trace_layers.py``).
Every run also checks the program's outputs (``checks.py``); a call that
raises, exits with an unexpected code, times out or fails a check counts as
failed. Workloads, metrics and bounds are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import CampaignChecker, cell_view, compare_trees, tree_digest
from reference import NOMINAL_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_run"
GOLDEN_FILE = BENCH_DIR / "golden.json"

# The golden digests were captured at this seed; it is also the default.
GOLDEN_SEED = 1
# Every process started for a run is killed by this many seconds after the
# start, so that a hung call is counted instead of stalling the run.
HARD_LIMIT_S = 160
SETUP_SAMPLES = 11

# Both campaigns name every list the cells come from, so that the harness
# knows the cells without reading the presets.
CAMPAIGN_A = {
    "preset": "campaign-A",
    "codecs": ["G711", "G729", "G723.1"],
    "procedures": ["hard"],
    "directions": ["wlan-to-cellular"],
    "repetitions": 50,
}
LOSSY_STRIDE = {
    "preset": "campaign-B",
    "codecs": ["G729"],
    "procedures": ["hard", "hybrid", "soft"],
    "directions": ["cellular-to-wlan"],
    "interfaces": {"wlan": {"loss_prob": 0.02},
                   "cellular": {"loss_prob": 0.02}},
    "switch_jitter_s": 5.0,
    "window_len_ms": 60.0,
    "stride_ms": 20.0,
    "repetitions": 8,
}

# name -> (kind, config, config overrides for --size tiny)
WORKLOADS = {
    "call-sweep": ("sweep", {"preset": "campaign-A"},
                   {"codecs": ["G711", "G723.1"], "procedures": ["hard"]}),
    "campaign-a": ("campaign", CAMPAIGN_A,
                   {"codecs": ["G729"], "repetitions": 3}),
    "lossy-stride": ("campaign", LOSSY_STRIDE,
                     {"codecs": ["G729"], "procedures": ["hybrid"],
                      "repetitions": 2}),
}

END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# Printed on the record line only: fail_ratio reads 0 on a correct program,
# and the median call time jumps between the modes of the host's speed (see
# README.md), so neither can carry a regression bound.
RECORDED = {"call_ms_p50": "ms", "fail_ratio": "ratio"}

PER_LAYER = {
    "scenario.run_call_ms": "ms",
    "scenario.self_ms": "ms",
    "scenario.calls": "count",
    "scenario.aborted": "count",
    "simnet.events_dispatched": "count/call",
    "simnet.events_dispatched.G711": "count/call",
    "simnet.events_dispatched.G729": "count/call",
    "simnet.events_dispatched.G723.1": "count/call",
    "simnet.events_per_s": "1/s",
    "simnet.run_until_self_ms": "ms",
    "simnet.schedule_calls": "count/call",
    "simnet.schedule_us": "us",
    "simnet.transmit_calls": "count/call",
    "simnet.transmit_us": "us",
    "simnet.offered": "count/call",
    "simnet.delivered": "count/call",
    "simnet.dropped": "count/call",
    "traffic.record_calls": "count/call",
    "traffic.record_us": "us",
    "traffic.packets": "count/call",
    "traffic.packets.G711": "count/call",
    "traffic.packets.G729": "count/call",
    "traffic.packets.G723.1": "count/call",
    "traffic.lost_queue-overflow": "count/call",
    "traffic.lost_random-loss": "count/call",
    "traffic.lost_closed-interface": "count/call",
    "traffic.write_trace_ms": "ms",
    "traffic.trace_bytes": "bytes",
    "traffic.read_trace_ms": "ms",
    "handoff.media_route_calls": "count/call",
    "handoff.media_route_us": "us",
    "handoff.latency_ms": "ms",
    "handoff.switch_window_lost": "count/call",
    "sip.sends": "count/call",
    "sip.retransmissions": "count/call",
    "sip.dropped": "count/call",
    "sip.fallbacks": "count/call",
    "metrics.window_series_ms": "ms",
    "metrics.windows": "count",
    "metrics.us_per_window": "us",
    "metrics.call_summary_ms": "ms",
    "metrics.write_metrics_ms": "ms",
    "cli.aggregate_ms": "ms",
    "cli.aggregate_values": "count",
    "cli.write_aggregate_ms": "ms",
    "cli.run_one_ms": "ms",
    "cli.run_one_self_ms": "ms",
    "cli.campaign_self_ms": "ms",
    "cli.result_bytes": "bytes",
    "cli.load_config_ms": "ms",
    "cli.recompute_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def flip_byte(path: Path) -> None:
    """Self-test fault: change the first digit of the second data row's
    r_factor, so the file still parses but one value is wrong."""
    lines = path.read_bytes().split(b"\n")
    fields = lines[2].split(b",")
    digit = fields[5][0:1]
    fields[5] = (b"1" if digit != b"1" else b"2") + fields[5][1:]
    lines[2] = b",".join(fields)
    path.write_bytes(b"\n".join(lines))


def kill_group(pid: int, killed: threading.Event | None = None) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    if killed is not None:
        killed.set()


class BenchError(Exception):
    """The benchmark cannot produce a result (not a failed call)."""


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def scaled(seconds: float, before: float, after: float) -> float:
    """Host seconds scaled to the nominal host speed (``reference.py``) by
    the mean of the reference kernel's times just before and just after
    them: the host's speed swings up to 1.8x in phases (README.md)."""
    return seconds * NOMINAL_S * 2 / (before + after)


def scaled_unit(work_s: float, runs: list[tuple[float, float, float]]
                ) -> float:
    """A unit's host seconds at the nominal host speed.

    ``runs`` holds each timed call or stage's host seconds and its kernel
    times before and after it. The part of ``work_s`` outside them (the
    campaign's own work between stages) is scaled by the median kernel
    time of the unit.
    """
    kernels = [k for _, before, after in runs for k in (before, after)]
    rest = work_s - sum(secs for secs, _, _ in runs)
    median = statistics.median(kernels)
    return (sum(scaled(*run) for run in runs)
            + scaled(rest, median, median))


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu": cpu,
            "commit": commit, "seed": seed}


class Bench:
    def __init__(self, args):
        self.args = args
        self.kind, base, tiny = WORKLOADS[args.workload]
        config = dict(base, base_seed=args.seed, out_dir="out")
        if args.size == "tiny":
            config.update(tiny)
        self.config = config
        self.start = time.monotonic()
        self.deadline = self.start + HARD_LIMIT_S
        self.work = RUNS_DIR / (f"{args.workload}-s{args.seed}-"
                                f"t{args.trace}-{os.getpid()}")
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.yaml"
        # JSON is YAML; the program reads it with yaml.safe_load.
        self.config_path.write_text(json.dumps(config, indent=1) + "\n")
        self.golden = None
        if args.seed == GOLDEN_SEED and GOLDEN_FILE.is_file():
            self.golden = json.loads(GOLDEN_FILE.read_text())
        self.samples: dict = {}
        self.aborted = 0          # runs the watchdog aborted (not failures)
        self.split = None         # traced per-codec stage split
        self.recorded = None      # RECORDED metrics of an untraced run

    # -- processes ---------------------------------------------------------

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def unit(self, mode: str, req: dict, name: str, cwd: Path | None = None):
        """Run unit.py in a fresh interpreter; returns (reply, wall_s, error).

        The unit gets its own session, so that on a timeout the whole
        process group (pool workers included) is killed and reaped.
        """
        req_path = self.work / f"{name}.json"
        req_path.write_text(json.dumps(req))
        reply_path = req_path.with_suffix(".reply.json")
        log_path = self.work / f"{name}.log"
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   TMPDIR=str(self.work))
        timeout = self.remaining()
        if timeout <= 0:
            return None, 0.0, "no time left before the hard limit"
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "unit.py"), mode,
                 str(req_path)],
                cwd=cwd or self.work, env=env, stdout=log, stderr=log,
                start_new_session=True)
            # A blocking wait sees the exit at once; wait(timeout=...) polls
            # in steps of up to 50 ms, which would quantise setup_s.
            killed = threading.Event()
            killer = threading.Timer(timeout, kill_group, (proc.pid, killed))
            killer.start()
            try:
                proc.wait()
                wall = time.perf_counter() - t0
            finally:
                killer.cancel()
                killer.join()
                # Pool workers share the session; none may outlive the unit,
                # also when this process is being terminated.
                kill_group(proc.pid)
                proc.wait()
            if killed.is_set():
                return None, wall, \
                    f"{name}: killed at the {HARD_LIMIT_S} s hard limit"
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace")[-2000:]
            return None, wall, f"{name}: exit code {proc.returncode}\n{tail}"
        reply = (json.loads(reply_path.read_text())
                 if reply_path.is_file() else None)
        return reply, wall, None

    def validate(self) -> None:
        reply, _, error = self.unit("validate",
                                    {"config": str(self.config_path)},
                                    "validate")
        if error or reply["rc"] != 0:
            raise BenchError(f"generated config does not validate: "
                             f"{error or reply}")

    def setup_s(self) -> float:
        walls = []
        for idx in range(SETUP_SAMPLES):
            _, wall, error = self.unit(
                "setup", {"config": str(self.config_path)}, f"setup{idx}")
            if error:
                raise BenchError(error)
            walls.append(wall)
        self.samples["setup"] = len(walls)
        return statistics.median(walls)

    # -- workloads ---------------------------------------------------------

    def cells(self) -> list[str]:
        cfg = self.config
        return [f"{c}_{p}_{d}" for c in cfg["codecs"]
                for p in cfg["procedures"] for d in cfg["directions"]]

    def run_campaign_unit(self, name: str, parallel: int, trace: bool,
                          recompute: bool = False,
                          config_path: Path | None = None):
        unit_dir = self.work / name
        unit_dir.mkdir()
        req = {"config": str(config_path or self.config_path),
               "unit_dir": str(unit_dir),
               "parallel": parallel, "trace": trace,
               "recompute_seed": self.args.seed if recompute else None,
               "inject": self.args.inject}
        reply, _, error = self.unit("campaign", req, name, cwd=unit_dir)
        if reply is not None:
            # The reference kernel runs after each timed stage, inside
            # the unit's timing.
            reply["work_s"] = reply["wall_s"] - sum(
                stage[3] for stage in reply["stages"])
        if reply is not None and reply["error"]:
            error = reply["error"]
        elif reply is not None and reply["rc"] not in (0, 2):
            error = f"sipswitch run exited with code {reply['rc']}"
        return unit_dir / "out", reply, error

    def campaign(self) -> dict:
        cells = self.cells()
        reps = self.config["repetitions"]
        run_keys = CampaignChecker(Path(), cells, reps).run_keys
        trace = bool(self.args.trace)
        units: list[dict] = []   # reply and failed run keys of each unit
        reference = None
        unit_seeds = random.Random(self.args.seed)
        while True:
            idx = len(units)
            # Traced runs: one untraced unit, then one traced, both serial
            # and at the workload seed. Untraced runs: the first unit at
            # the workload seed, each later one at a base seed drawn from
            # it, so that a run covers more seeds' simulated outcomes (on
            # lossy-stride about one run seed in 14 aborts at setup, in
            # every cell, which makes those calls cheap).
            traced_unit = trace and idx == 1
            config_path = None
            if idx > 0 and not trace:
                config_path = self.work / f"unit{idx}.yaml"
                config_path.write_text(json.dumps(dict(
                    self.config, base_seed=unit_seeds.randrange(10**6))))
            out, reply, error = self.run_campaign_unit(
                f"unit{idx}", 1, traced_unit,
                recompute=idx == 0 or traced_unit, config_path=config_path)
            if error:
                print(f"bench: unit{idx}: {error}", file=sys.stderr)
                units.append({"reply": None, "failures": set(run_keys)})
                break
            if traced_unit:
                failures = compare_trees(reference, tree_digest(out),
                                         run_keys, "traced rerun differs")
                shutil.rmtree(out)
            else:
                if idx == 0 and self.args.inject == "flip-metrics":
                    flip_byte(out / run_keys[0] / "metrics_ul.csv")
                checker = CampaignChecker(out, cells, reps)
                if idx == 0:
                    checker.check((self.golden or {}).get(self.args.workload))
                    checker.check_recomputed(list(reply["recompute"]))
                    reference = tree_digest(out)
                else:
                    checker.check()
                    shutil.rmtree(out)
                self.aborted += len(checker.aborted)
                failures = checker.failures
            for key in run_keys:
                if key.replace("/", "_") not in reply["run_ms"]:
                    failures.setdefault(key, "no per-run timing")
            if traced_unit:
                for line in reply["layers"]["link_violations"]:
                    failures.setdefault(line.split()[0], line)
            for key, reason in sorted(failures.items()):
                print(f"bench: unit{idx}: {key}: {reason}", file=sys.stderr)
            units.append({"reply": reply, "failures": set(failures)})
            timed = sum(u["reply"]["work_s"] for u in units)
            enough = (len(units) == 2 if trace
                      else timed >= self.args.seconds)
            if enough:
                break
            if self.remaining() < 2 * reply["wall_s"] + 10:
                break

        if not trace and units[0]["reply"]:
            self.check_parallel(cells, run_keys, units[0]["failures"])

        done = [u["reply"] for u in units if u["reply"]]
        attempted = len(units) * len(run_keys)
        failed = sum(len(u["failures"]) for u in units)
        result = {"attempted": attempted, "failed": failed}
        self.samples.update(units=len(units), calls=attempted)
        if trace:
            if len(done) == 2:
                result["metrics"] = dict(
                    done[1]["layers"]["metrics"],
                    **{"trace.overhead_ratio":
                       done[1]["work_s"] / done[0]["work_s"]})
                self.split = done[1]["layers"]["split_ms"]
            return result
        if not done:
            return result
        good = sum(len(run_keys) - len(u["failures"])
                   for u in units if u["reply"])
        seconds = sum(scaled_unit(u["work_s"],
                                  [stage[1:] for stage in u["stages"]])
                      for u in done)
        run_ms = [scaled(*stage[1:]) * 1000 for u in done
                  for stage in u["stages"] if stage[0] == "_run_one"]
        self.samples["call_ms"] = len(run_ms)
        self.samples["kernel_ms"] = 1000 * statistics.median(
            stage[3] for u in done for stage in u["stages"])
        result["metrics"] = {
            "calls_per_s": good / seconds,
            "call_ms_p50": percentile(run_ms, 50),
            "call_ms_p90": percentile(run_ms, 90),
            "peak_rss_mb": statistics.median(u["maxrss_mb"] for u in done),
        }
        return result

    def check_parallel(self, cells: list[str], run_keys: list[str],
                       failures: set[str]) -> None:
        """Serial and ``--parallel 2`` output must be byte-identical.

        Untimed: the cells of one codec, chosen by the seed, run again
        through the multiprocessing pool and are compared with the first
        serial unit.
        """
        codec = random.Random(self.args.seed).choice(self.config["codecs"])
        mine = [c for c in cells if c.startswith(codec + "_")]
        config_path = self.work / "parallel.yaml"
        config_path.write_text(json.dumps(dict(self.config, codecs=[codec])))
        out, reply, error = self.run_campaign_unit(
            "parallel", 2, False, config_path=config_path)
        if error:
            diffs = {k: error for k in run_keys
                     if k.split("/")[0] in mine}
        else:
            diffs = compare_trees(cell_view(self.work / "unit0" / "out", mine),
                                  cell_view(out, mine), run_keys,
                                  "serial vs --parallel 2")
            self.samples["pool_worker_rss_mb"] = reply["children_maxrss_mb"]
        for key, reason in sorted(diffs.items()):
            print(f"bench: unit0: {key}: {reason}", file=sys.stderr)
        failures.update(diffs)

    def sweep(self) -> dict:
        trace = bool(self.args.trace)
        unit_dir = self.work / "sweep"
        unit_dir.mkdir()
        seconds = self.args.seconds / 2 if trace else self.args.seconds
        req = {"config": str(self.config_path), "unit_dir": str(unit_dir),
               "seconds": seconds,
               "digest_rounds": 2, "min_rounds": 2, "trace": False,
               "inject": self.args.inject}
        reply, _, error = self.unit("sweep", req, "sweep")
        if error:
            raise BenchError(error)
        replies = [reply]
        if trace:
            # The same rounds again, traced; their outputs must not change.
            traced_dir = self.work / "sweep-traced"
            traced_dir.mkdir()
            req.update(unit_dir=str(traced_dir), trace=True, seconds=0,
                       digest_rounds=1, min_rounds=reply["rounds"],
                       max_rounds=reply["rounds"])
            traced, _, error = self.unit("sweep", req, "sweep-traced")
            if error:
                raise BenchError(error)
            replies.append(traced)

        failures: dict[str, str] = {}
        first = reply["digests"][0]
        for tag, r in zip(("", "traced/"), replies):
            failures.update({tag + k: v for k, v in r["failures"].items()})
            for rnd, digests in enumerate(r["digests"]):
                # A call missing from a round raised; that is counted above.
                for run_id in sorted(set(first) & set(digests)):
                    if digests[run_id] != first[run_id]:
                        failures.setdefault(
                            f"{tag}round{rnd}/{run_id[:-5]}",
                            "rerun at the same seed differs")
            for line in r.get("layers", {}).get("link_violations", []):
                failures.setdefault(f"{tag}{line}", "link counters")
        golden = (self.golden or {}).get("call-sweep", {})
        for run_id, digest in first.items():
            if run_id in golden and golden[run_id] != digest:
                failures.setdefault(f"round0/{run_id[:-5]}",
                                    "differs from the golden digest")
        for key, reason in sorted(failures.items()):
            print(f"bench: {key}: {reason}", file=sys.stderr)

        self.aborted = sum(r["aborted"] for r in replies)
        per_round = reply["calls_per_round"]
        attempted = sum(r["rounds"] * per_round for r in replies)
        result = {"attempted": attempted, "failed": len(failures)}
        self.samples.update(rounds=sum(r["rounds"] for r in replies),
                            calls=attempted, call_ms=len(reply["call_ms"]))
        if trace:
            result["metrics"] = dict(
                replies[1]["layers"]["metrics"],
                **{"trace.overhead_ratio":
                   replies[1]["timed_s"] / reply["timed_s"]})
            self.split = replies[1]["layers"]["split_ms"]
            return result
        good = reply["rounds"] * per_round - len(failures)
        call_ms = [scaled(ms, before, after) for ms, (_, before, after)
                   in zip(reply["call_ms"], reply["call_s"])]
        self.samples["kernel_ms"] = 1000 * statistics.median(
            after for _, _, after in reply["call_s"])
        result["metrics"] = {
            "calls_per_s": good / sum(scaled(*call)
                                      for call in reply["call_s"]),
            "call_ms_p50": percentile(call_ms, 50),
            "call_ms_p90": percentile(call_ms, 90),
            "peak_rss_mb": reply["maxrss_mb"],
        }
        return result

    def run(self) -> dict:
        self.validate()
        setup = None if self.args.trace else self.setup_s()
        result = self.campaign() if self.kind == "campaign" else self.sweep()
        names = PER_LAYER if self.args.trace else END_TO_END
        # No completed unit of work leaves nothing to measure: report zeros
        # next to the failures rather than no result.
        values = result.pop("metrics", None) or dict.fromkeys(
            [*names, *RECORDED], 0.0)
        if setup is not None:
            values["setup_s"] = setup
        values["fail_ratio"] = result["failed"] / max(1, result["attempted"])
        result["correct"] = result["failed"] == 0
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in names.items()}
        if not self.args.trace:
            self.recorded = {name: {"value": values[name], "unit": unit}
                             for name, unit in RECORDED.items()}
        return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few calls, for the self-tests")
    parser.add_argument("--inject", choices=("raise", "flip-metrics"),
                        help="self-test fault injection")
    parser.add_argument("--keep", action="store_true",
                        help="keep the work directory under .bench_run/")
    args = parser.parse_args(argv)

    if not (SRC / "sipswitch" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args)
    # Terminated from outside: stop the running unit and clean up (finally).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        result = bench.run()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        if not args.keep:
            shutil.rmtree(bench.work, ignore_errors=True)
    record = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed), "samples": bench.samples,
              "metrics": bench.recorded, "scenario.aborted": bench.aborted,
              "split_ms_per_call": bench.split,
              "wall_s": time.monotonic() - bench.start}
    print(json.dumps(record))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
