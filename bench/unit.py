"""One unit of benchmark work, run in a fresh interpreter by ``run.py``.

Modes (first argument), each reading a JSON request and writing a JSON
reply next to it:

- ``setup``: import ``sipswitch.cli``, ``load_config`` the workload config
  and build every ``CallSpec``; the caller times the whole process.
- ``validate``: ``sipswitch validate`` on the workload config.
- ``campaign``: ``sipswitch run`` through ``cli.main``, timed around the
  call; per-run host times come from a timer around the campaign's
  per-run function, and the aggregation is timed likewise. Optionally
  recomputes the metrics of two runs.
- ``sweep``: ``build_call_spec`` + ``run_call`` over every cell, round
  after round, until the requested seconds have passed.

Untraced units run the reference kernel (``reference.py``) after every
call, campaign run or aggregation step, outside its timing, and report the
kernel's times before and after each, so that ``run.py`` can scale host
time to the nominal host speed.

Only ``--trace`` units install the layer tracer (``trace_layers.py``).
"""

from __future__ import annotations

import functools
import json
import os
import random
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# A single call that runs longer than this is counted as hung.
CALL_TIMEOUT_S = 30
RECOMPUTE_SAMPLES = 2


class CallTimeout(Exception):
    pass


class InjectedFault(Exception):
    """Raised by the self-tests' fault injection; never in a real run."""


def _import_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    import sipswitch
    found = Path(sipswitch.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise SystemExit(f"sipswitch imported from {found}, not from {SRC}")
    import sipswitch.cli as cli
    return cli


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cells(config) -> list[tuple[str, str, str]]:
    return [(c, p, d) for c in config.codecs for p in config.procedures
            for d in config.directions]


def _inject_raise(cli) -> None:
    """Make the first simulated call raise (self-test fault injection)."""
    original = cli.run_call
    state = {"raised": False}

    @functools.wraps(original)
    def faulty(spec):
        if not state["raised"]:
            state["raised"] = True
            raise InjectedFault(f"injected fault in {spec.run_id}")
        return original(spec)

    cli.run_call = faulty


def mode_setup(req: dict) -> dict:
    cli = _import_program()
    config = cli.load_config(req["config"])
    specs = [cli.build_call_spec(config, c, p, d, rep)
             for c, p, d in _cells(config)
             for rep in range(config.repetitions)]
    return {"specs": len(specs)}


def mode_validate(req: dict) -> dict:
    cli = _import_program()
    return {"rc": cli.main(["validate", req["config"]])}


def _kernel_or_zero(use_kernel: bool) -> float:
    return reference.kernel() if use_kernel else 0.0


def _time_stages(cli, timing_dir: Path, use_kernel: bool) -> None:
    """Time each campaign run and each aggregation from outside the
    program: one clock pair around the per-run function, ``aggregate`` and
    ``write_aggregate``, then the reference kernel (unless ``use_kernel`` is
    false: traced units, whose spans must not hold it). Each line goes to a
    per-process file, so that pool workers report too."""
    module_globals = cli.run_campaign.__globals__
    last_kernel = [_kernel_or_zero(use_kernel)]

    def wrap(name: str):
        original = module_globals[name]

        @functools.wraps(original)
        def timed(*args):
            t0 = time.perf_counter()
            out = original(*args)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            before, after = last_kernel[0], _kernel_or_zero(use_kernel)
            last_kernel[0] = after
            run_id = out["run_id"] if name == "_run_one" else "-"
            with open(timing_dir / f"runs_{os.getpid()}.txt", "a") as fh:
                fh.write(f"{name} {run_id} {elapsed_ms!r} "
                         f"{before!r} {after!r}\n")
            return out

        module_globals[name] = timed

    for name in ("_run_one", "aggregate", "write_aggregate"):
        wrap(name)


def _recompute_sample(seed: int) -> list[str]:
    """Runs to recompute, drawn by the seed from those that did not abort:
    an aborted run has no metrics to reproduce."""
    manifest = json.loads(Path("out/manifest.json").read_text())
    keys = [f"{cell['cell_id']}/r{idx:03d}" for cell in manifest["cells"]
            for idx, run in enumerate(cell["runs"]) if not run["aborted"]]
    return sorted(random.Random(seed).sample(
        keys, min(RECOMPUTE_SAMPLES, len(keys))))


def mode_campaign(req: dict) -> dict:
    cli = _import_program()
    unit_dir = Path(req["unit_dir"])
    timing_dir = unit_dir / "timing"
    timing_dir.mkdir(parents=True, exist_ok=True)
    _time_stages(cli, timing_dir, not req.get("trace"))
    tracer = None
    if req.get("trace"):
        from trace_layers import Tracer
        tracer = Tracer(cli)
    if req.get("inject") == "raise":
        _inject_raise(cli)

    argv = ["run", req["config"], "--out", "out",
            "--parallel", str(req.get("parallel", 1))]
    reply: dict = {"rc": None, "error": None}
    t0 = time.perf_counter()
    try:
        reply["rc"] = cli.main(argv)
    except Exception:
        reply["error"] = traceback.format_exc()
    reply["wall_s"] = time.perf_counter() - t0
    reply["maxrss_mb"] = _maxrss_mb(resource.RUSAGE_SELF)
    reply["children_maxrss_mb"] = _maxrss_mb(resource.RUSAGE_CHILDREN)

    # Per run: host ms; per timed stage (runs and aggregation): its name,
    # host seconds and the kernel's seconds before and after it.
    run_ms, stages = {}, []
    for path in sorted(timing_dir.glob("runs_*.txt")):
        for line in path.read_text().splitlines():
            name, run_id, ms, before, after = line.split()
            if name == "_run_one":
                run_ms[run_id] = float(ms)
            stages.append([name, float(ms) / 1000, float(before),
                           float(after)])
    reply["run_ms"] = run_ms
    reply["stages"] = stages

    recompute = {}
    if reply["error"] is None and req.get("recompute_seed") is not None:
        for key in _recompute_sample(req["recompute_seed"]):
            try:
                recompute[key] = cli.main(
                    ["recompute-metrics", f"out/{key}/trace.csv"])
            except Exception:
                recompute[key] = traceback.format_exc()
    reply["recompute"] = recompute
    if tracer is not None:
        tracer.uninstall()
        reply["layers"] = tracer.summary()
        tracer.write_spans(unit_dir / "spans.jsonl")
    return reply


def _on_alarm(signum, frame):
    raise CallTimeout(f"call exceeded {CALL_TIMEOUT_S} s")


def _log_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n" if lines else "").encode()


def mode_sweep(req: dict) -> dict:
    """The library path: no analysis and no file I/O inside the timing.

    Outside the timing, each call's packet total is checked; the first
    ``digest_rounds`` rounds also export trace and logs, so that their
    digests can be compared across rounds and against the golden file.
    """
    from checks import artifact_digest
    cli = _import_program()
    # Exported outside the timing, and not through the name the tracer wraps.
    from sipswitch.traffic import write_trace
    tracer = None
    if req.get("trace"):
        from trace_layers import Tracer
        tracer = Tracer(cli)
    config = cli.load_config(req["config"])
    if req.get("inject") == "raise":
        _inject_raise(cli)
    export_dir = Path(req["unit_dir"]) / "export"
    cells = _cells(config)
    call_us = round(config.call_duration_s * 1_000_000)
    signal.signal(signal.SIGALRM, _on_alarm)

    call_ms: list[float] = []
    # Per call: build + run host seconds, kernel seconds before and after.
    call_s: list[list[float]] = []
    failures: dict[str, str] = {}
    digests: list[dict[str, str]] = []
    aborted = 0
    timed_s = 0.0
    rounds = 0
    deadline = time.perf_counter() + req["seconds"]
    use_kernel = not req.get("trace")
    last_kernel = _kernel_or_zero(use_kernel)
    min_rounds = req.get("min_rounds", 1)
    max_rounds = req.get("max_rounds")
    while rounds < min_rounds or time.perf_counter() < deadline:
        if max_rounds is not None and rounds >= max_rounds:
            break
        round_digests = {}
        for codec, proc, direction in cells:
            label = f"round{rounds}/{codec}_{proc}_{direction}"
            signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
            try:
                t0 = time.perf_counter()
                spec = cli.build_call_spec(config, codec, proc, direction, 0)
                t1 = time.perf_counter()
                result = cli.run_call(spec)
                t2 = time.perf_counter()
            except Exception as exc:
                failures[label] = f"{type(exc).__name__}: {exc}"
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            kernel = _kernel_or_zero(use_kernel)
            timed_s += t2 - t0
            call_ms.append((t2 - t1) * 1000.0)
            call_s.append([t2 - t0, last_kernel, kernel])
            last_kernel = kernel
            interval_us = round(spec.codec.packet_interval_ms * 1000)
            expected = 2 * (call_us // interval_us + 1)
            if result.aborted:
                aborted += 1
            else:
                if result.trace.generated != expected:
                    failures[label] = (f"{result.trace.generated} packets, "
                                       f"expected {expected}")
            if rounds < req.get("digest_rounds", 0):
                run_dir = export_dir / spec.run_id
                run_dir.mkdir(parents=True, exist_ok=True)
                trace_path = run_dir / "trace.csv"
                write_trace(str(trace_path), spec.run_id, result.trace)
                data = trace_path.read_bytes()
                trace_path.unlink()
                per_stream = expected // 2
                for stream in ("ul", "dl"):
                    count = data.count(f"\n{spec.run_id},{stream},".encode())
                    if not result.aborted and count != per_stream:
                        failures[label] = (f"stream {stream}: {count} "
                                           f"packets, expected {per_stream}")
                round_digests[spec.run_id] = artifact_digest({
                    "trace.csv": data,
                    "signaling.log": _log_bytes(result.signaling.lines),
                    "handoff.log": _log_bytes(result.handoff_log.lines),
                })
            del result
        if round_digests:
            digests.append(round_digests)
        rounds += 1

    reply = {"call_ms": call_ms, "call_s": call_s, "timed_s": timed_s,
             "rounds": rounds,
             "calls_per_round": len(cells), "failures": failures,
             "aborted": aborted, "digests": digests,
             "maxrss_mb": _maxrss_mb(resource.RUSAGE_SELF)}
    if tracer is not None:
        tracer.uninstall()
        reply["layers"] = tracer.summary()
        tracer.write_spans(Path(req["unit_dir"]) / "spans.jsonl")
    return reply


MODES = {"setup": mode_setup, "validate": mode_validate,
         "campaign": mode_campaign, "sweep": mode_sweep}


def main() -> int:
    mode, request_path = sys.argv[1], Path(sys.argv[2])
    req = json.loads(request_path.read_text())
    reply = MODES[mode](req)
    if mode != "setup":
        request_path.with_suffix(".reply.json").write_text(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
