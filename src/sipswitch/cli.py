"""Experiment runner and command line: seeded repetition sweeps that write
each run's artifacts, each cell's aggregates (through the metrics window
pipeline), the loss summary and the manifest; the recompute path; and
`validate`."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from bisect import bisect_left, bisect_right
from itertools import islice
from math import fsum
from pathlib import Path
from typing import Any, Optional

from . import __version__
from .config import (
    PRESETS,
    SETTING_RULES,
    ConfigError,
    ExperimentConfig,
    build_call_spec,
    capacity_warnings,
    config_as_dict,
    load_config,
)
from .core import (
    DL,
    UL,
    CodecProfile,
    InternalInvariantError,
    SimulationError,
    ms_to_us,
    s_to_us,
    validate_codec,
    violations,
)
from .metrics import (
    EModelParams,
    WindowSums,
    aggregate,
    call_summary,
    fold,
    stdev,
    window_series,
    write_aggregate,
    write_metrics,
)
from .scenario import CallSpec, run_call
from .traffic import expected_packet_count, read_trace, write_trace


def _run_one(config: ExperimentConfig, spec: CallSpec, run_dir: Path) -> dict:
    """Execute one repetition and write its artifacts; returns what its
    cell reads: the manifest fields, the window series and, per direction,
    (lost packets, loss % of the call, loss % of the switch window or None
    when there is none). A SimulationError inside the run aborts it alone,
    with the error as its reason and no files; a broken invariant or a
    config error still ends the campaign."""
    run_dir.mkdir(parents=True, exist_ok=True)
    out: dict[str, Any] = {"run_id": spec.run_id, "seed": spec.seed,
                           "series": {}, "loss": {}}
    try:
        result = run_call(spec)
    except (ConfigError, InternalInvariantError):
        raise
    except SimulationError as exc:
        out.update(aborted=True, abort_reason=f"{type(exc).__name__}: {exc}")
        return out
    write_trace(str(run_dir / "trace.csv"), spec.run_id, result.trace)
    logs = {"signaling.log": result.signaling.lines,
            "handoff.log": result.handoff_log.lines}
    if spec.log_events:
        logs["events.log"] = result.event_log
    for name, lines in logs.items():
        (run_dir / name).write_text("\n".join(lines) + "\n" if lines else "")

    out.update(aborted=result.aborted, abort_reason=result.abort_reason)
    for direction, name in ((UL, "ul"), (DL, "dl")):
        series = out["series"][name] = window_series(
            result.trace, direction, spec.codec, config.window_len_ms,
            config.stride_ms, config.emodel, config.use_burst_ratio)
        write_metrics(str(run_dir / f"metrics_{name}.csv"), spec.run_id,
                      series)
        if not series:
            continue
        lost, ppl = call_summary(result.trace, direction)
        pct_switch = None
        if result.t_trigger is not None and result.t_completed is not None:
            # The trigger comes after the call start, so media has started.
            packets = result.trace.directions[direction]
            lo = bisect_left(packets.gen, result.t_trigger)
            hi = bisect_right(packets.gen, result.t_completed)
            switch_lost = hi - lo - packets.cause[lo:hi].count(None)
            pct_switch = 100.0 * switch_lost / (hi - lo) if hi > lo else None
        out["loss"][name] = (lost, 100.0 * ppl, pct_switch)
    return out


LOSS_SUMMARY_COLUMNS = (
    "cell_id", "codec", "procedure", "switch_direction", "media_direction",
    "repetitions", "aborted_runs", "mean_lost_packets", "std_lost_packets",
    "mean_loss_pct_whole_call", "mean_loss_pct_switch_window")


def _run_chunk(task: tuple) -> tuple[dict[str, WindowSums], list[dict]]:
    """Run a contiguous chunk of one cell's repetitions, folding each good
    run's window series into the chunk's sums per media direction and
    keeping the rest of its result. Module-level for multiprocessing."""
    config, cell, reps = task
    cell_dir = Path(config.out_dir) / "_".join(cell)
    sums = {"ul": WindowSums(), "dl": WindowSums()}
    runs = []
    for rep in reps:
        spec = build_call_spec(config, *cell, rep)
        run = _run_one(config, spec, cell_dir / f"r{rep:03d}")
        series = run.pop("series")
        if not run["aborted"]:
            for name, cell_sums in sums.items():
                fold(cell_sums, series[name])
        runs.append(run)
    return sums, runs


def _finish_cell(out_dir: Path, cell: tuple[str, str, str],
                 chunks: list[tuple]) -> tuple[dict, list[tuple]]:
    """Merge a cell's chunks in order, write each media direction's
    aggregate file; returns the cell's manifest entry and its
    loss_summary.csv rows."""
    cell_id = "_".join(cell)
    runs = [run for _, chunk_runs in chunks for run in chunk_runs]
    good = [r for r in runs if not r["aborted"]]
    rows = []
    for name in ("ul", "dl") if good else ():
        sums = WindowSums()
        for chunk_sums, _ in chunks:
            sums.merge(chunk_sums[name])
        write_aggregate(str(out_dir / cell_id / f"aggregate_{name}.csv"),
                        aggregate(sums))
        lost, pct_call, pct_switch = zip(*(r["loss"][name] for r in good))
        pct_switch = [pct for pct in pct_switch if pct is not None]
        rows.append((cell_id, *cell, name.upper(), len(good),
                     len(runs) - len(good), fsum(lost) / len(lost),
                     stdev(lost), fsum(pct_call) / len(pct_call),
                     fsum(pct_switch) / len(pct_switch) if pct_switch
                     else 0.0))
    entry = {"cell_id": cell_id, "codec": cell[0], "procedure": cell[1],
             "direction": cell[2],
             "runs": [{key: r[key] for key in
                       ("run_id", "seed", "aborted", "abort_reason")}
                      for r in runs]}
    return entry, rows


def run_campaign(config: ExperimentConfig,
                 parallel: int = 1) -> tuple[Path, int]:
    """Run every (codec x procedure x direction) cell; returns the output
    directory and the number of aborted runs.

    A cell's repetitions are split into contiguous chunks, at most one per
    worker (serially, one). A chunk folds each run's window series into
    exact sums once the run's files are written and drops them. Chunks
    arrive in task order, so a cell's chunks arrive together: the parent
    merges them, writes the cell's aggregates and drops the cell. Memory
    does not grow with the repetitions, and the bytes do not depend on the
    split.
    """
    out_dir = Path(config.out_dir)
    cells = [(codec, proc, direction)
             for codec in config.codecs
             for proc in config.procedures
             for direction in config.directions]
    # Every directory is made before the first run: a file in the way, no
    # permission or a name the file system refuses is then a config error.
    try:
        for path in (out_dir, *(out_dir / "_".join(cell) for cell in cells)):
            path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        shown = "".join(c if c.isprintable() else repr(c)[1:-1]
                        for c in str(path))  # a NUL byte as \x00
        raise ConfigError([f"out_dir: {shown}: "
                           f"{getattr(exc, 'strerror', None) or exc}"]) from None
    warnings = capacity_warnings(config)
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)

    reps = config.repetitions
    workers = min(parallel, len(cells) * reps)
    starts = range(0, reps, -(-reps // workers))
    tasks = ((config, cell, range(start, min(start + starts.step, reps)))
             for cell in cells for start in starts)

    aborted_total = 0
    loss_rows = []
    manifest_cells = []
    pool = None
    if workers > 1:
        # a serial run does without it
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers)
    try:
        results = (pool.map if pool else map)(_run_chunk, tasks)
        for cell in cells:
            entry, rows = _finish_cell(out_dir, cell,
                                       list(islice(results, len(starts))))
            aborted = [r for r in entry["runs"] if r["aborted"]]
            aborted_total += len(aborted)
            if aborted:
                warnings.append(
                    f"{entry['cell_id']}: {len(aborted)} aborted run(s): "
                    + ", ".join(f"{r['run_id']} ({r['abort_reason']})"
                                for r in aborted))
            manifest_cells.append(entry)
            loss_rows += rows
    finally:
        if pool:
            # After an error in a run, the chunks not yet started are
            # dropped and the running ones end on their own: a worker
            # killed while it sends its result leaves the result pipe
            # locked, and the parent then waits on it forever.
            pool.shutdown(cancel_futures=True)

    with open(out_dir / "loss_summary.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(LOSS_SUMMARY_COLUMNS)
        w.writerows(loss_rows)

    manifest = {
        "artifact_version": __version__,
        "scenario": config.scenario,
        "settings": config_as_dict(config),
        "cells": manifest_cells,
        "warnings": warnings,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir, aborted_total


def _find_manifest(trace_path: Path) -> Optional[Path]:
    found = (p / "manifest.json" for p in trace_path.resolve().parents)
    return next((path for path in found if path.is_file()), None)


def recompute_metrics(trace_file: str,
                      manifest_path: Optional[str] = None) -> list[Path]:
    """Re-derive both metric files from an exported trace.

    The codec, window, and model parameters come from the campaign manifest
    (found in a parent directory unless given explicitly).
    """
    trace_path = Path(trace_file)
    if not trace_path.is_file():
        raise ConfigError([f"{trace_file}: file not found"])
    manifest_file = (Path(manifest_path) if manifest_path
                     else _find_manifest(trace_path))
    if manifest_file is None or not manifest_file.is_file():
        raise ConfigError(
            [f"{trace_file}: no manifest.json found in parent directories; "
             f"pass --manifest"])
    try:
        run_id, trace = read_trace(str(trace_path))
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    if not run_id:
        # A header-only trace (run aborted before media) names no run; the
        # campaign layout <cell_id>/rNNN/trace.csv does.
        run_dir = trace_path.resolve().parent
        run_id = f"{run_dir.parent.name}_{run_dir.name}"

    # The manifest comes from outside: any fault in it is a config error.
    try:
        manifest = json.loads(manifest_file.read_text())
        codec_name = None
        for cell in manifest.get("cells", []):
            if any(r["run_id"] == run_id for r in cell.get("runs", [])):
                codec_name = cell["codec"]
                break
        if codec_name is None:
            raise ConfigError(
                [f"{trace_file}: run id {run_id!r} not found in "
                 f"{manifest_file}"])
        settings = manifest["settings"]
        codec = CodecProfile(**settings["codec_profiles"][codec_name])
        emodel = EModelParams(**settings["emodel"])
        bad = validate_codec(codec) + [
            f"{name}: {problem}"
            for name, problem in violations(settings, SETTING_RULES)]
    except (ValueError, TypeError, AttributeError, KeyError,
            RecursionError) as exc:
        bad = [f"{type(exc).__name__}: {exc}"]
    if bad:
        raise ConfigError([f"{manifest_file}: {v}" for v in bad])

    written = []
    for direction, name in ((UL, "ul"), (DL, "dl")):
        series = window_series(trace, direction, codec,
                               settings["window_len_ms"],
                               settings["stride_ms"], emodel,
                               settings["use_burst_ratio"])
        out_path = trace_path.parent / f"recomputed_metrics_{name}.csv"
        write_metrics(str(out_path), run_id, series)
        written.append(out_path)
    return written


def _worker_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a whole number of at least 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sipswitch",
        description="Simulate SIP-managed interface switching for a "
                    "multihomed VoIP node and export quality metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a measurement campaign")
    run_p.add_argument("config", help="YAML config path")
    run_p.add_argument("--preset", choices=sorted(PRESETS),
                       help="start from a built-in scenario preset")
    run_p.add_argument("--seed", type=int, help="override base_seed")
    run_p.add_argument("--reps", type=int, help="override repetitions")
    run_p.add_argument("--out", help="override output directory")
    run_p.add_argument("--parallel", type=_worker_count, default=1,
                       help="worker processes (runs are independent)")

    val_p = sub.add_parser("validate", help="check a config and exit")
    val_p.add_argument("config")
    val_p.add_argument("--preset", choices=sorted(PRESETS))

    rec_p = sub.add_parser("recompute-metrics",
                           help="re-derive metrics from an exported trace")
    rec_p.add_argument("trace")
    rec_p.add_argument("--manifest", help="manifest.json path (default: "
                                          "search parent directories)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error
        return 1 if exc.code == 2 else exc.code
    try:
        if args.command == "run":
            overrides = {"base_seed": args.seed, "repetitions": args.reps,
                         "out_dir": args.out}
            config = load_config(args.config, preset=args.preset,
                                 overrides=overrides)
            out_dir, aborted = run_campaign(config, parallel=args.parallel)
            print(f"campaign {config.scenario!r} complete: "
                  f"outputs in {out_dir}")
            if aborted:
                print(f"{aborted} run(s) aborted; see manifest.json",
                      file=sys.stderr)
                return 2
            return 0
        if args.command == "validate":
            config = load_config(args.config, preset=args.preset)
            cells = (len(config.codecs) * len(config.procedures)
                     * len(config.directions))
            print(f"ok: scenario {config.scenario!r}, {cells} cell(s) x "
                  f"{config.repetitions} repetition(s)")
            # Per codec, a full run's direction has the packets the run
            # checks for, and a window at each whole stride from its first
            # packet to its last.
            duration = s_to_us(config.call_duration_s)
            stride = ms_to_us(config.window_len_ms if config.stride_ms is None
                              else config.stride_ms)
            counts = []
            for codec in config.codecs:
                interval = config.codec_profiles[codec].packet_interval_us
                n = expected_packet_count(0, duration, interval)
                counts.append((n, (n - 1) * interval // stride + 1))
            packets, windows = map(max, zip(*counts))
            print(f"work: {cells * config.repetitions} run(s), each at most "
                  f"{packets} packets and {windows} windows per direction")
            for line in capacity_warnings(config):
                print(f"warning: {line}", file=sys.stderr)
            return 0
        if args.command == "recompute-metrics":
            for path in recompute_metrics(args.trace, args.manifest):
                print(path)
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
