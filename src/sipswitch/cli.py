"""Experiment runner: config loading, seeded repetition sweeps, aggregation,
and delimited-text export of every series and table."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import multiprocessing
import sys
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from copy import deepcopy
from dataclasses import dataclass
from itertools import islice
from math import fsum
from pathlib import Path
from statistics import fmean
from typing import Any, Optional

import yaml

from . import __version__
from .core import (
    CODEC_PRESETS,
    CODEC_RULES,
    DL,
    MAX_PACKET_BYTES,
    UL,
    US_PER_MS,
    US_PER_S,
    Address,
    CodecProfile,
    IfaceState,
    InterfaceDescriptor,
    InternalInvariantError,
    Numeric,
    SimulationError,
    Technology,
    ms_to_us,
    s_to_us,
    validate_codec,
    violations,
)
from .handoff import HandoffProcedure
from .metrics import (
    EMODEL_RULES,
    EModelParams,
    WindowMetrics,
    call_summary,
    stdev,
    window_series,
    write_metrics,
)
from .scenario import (
    MEDIA_PORT,
    CallSpec,
    LinkParams,
    link_violations,
    run_call,
)
from .sip import SIGNALING_RULES, SignalingConfig
from .traffic import read_trace, write_csv, write_trace


class ConfigError(SimulationError):
    """Invalid experiment configuration; carries every violation found."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class InterfaceSettings:
    technology: str
    q_weight: float
    link: LinkParams


@dataclass
class ExperimentConfig:
    scenario: str
    codecs: list[str]
    procedures: list[str]
    directions: list[str]
    interfaces: dict[str, InterfaceSettings]
    codec_profiles: dict[str, CodecProfile]
    call_duration_s: float
    switch_time_s: float
    switch_jitter_s: float
    window_len_ms: float
    stride_ms: Optional[float]
    repetitions: int
    base_seed: int
    out_dir: str
    header_overhead_bytes: int
    use_burst_ratio: bool
    watchdog_s: float
    log_events: bool
    signaling: SignalingConfig
    emodel: EModelParams


# Baseline settings; the campaign-A preset equals them apart from its name.
_BASE: dict[str, Any] = {
    "scenario": "custom",
    "codecs": ["G711", "G729", "G723.1"],
    "procedures": ["hard", "hybrid", "soft"],
    "directions": ["wlan-to-cellular", "cellular-to-wlan"],
    "interfaces": {
        "wlan": {
            "technology": "wlan-like",
            "q_weight": 0.5,
            "bitrate_kbps": 54000,
            "prop_delay_ms": 5,
            "queue_capacity_pkts": 50,
            "loss_prob": 0.0,
        },
        "cellular": {
            "technology": "cellular-like",
            "q_weight": 0.9,
            "bitrate_kbps": 384,
            "prop_delay_ms": [40, 80],
            "queue_capacity_pkts": 50,
            "loss_prob": 0.0,
        },
    },
    "custom_codecs": {},
    "call_duration_s": 60.0,
    "switch_time_s": 30.0,
    "switch_jitter_s": 0.0,
    "window_len_ms": 60.0,
    "stride_ms": None,
    "repetitions": 50,
    "base_seed": 1,
    "out_dir": "out",
    "header_overhead_bytes": 40,
    "use_burst_ratio": True,
    "watchdog_s": 10.0,
    "log_events": False,
    "signaling": {},
    "emodel": {},
}

PRESETS: dict[str, dict[str, Any]] = {
    # Clean heterogeneous links, all codecs, both switch directions.
    "campaign-A": {
        "scenario": "campaign-A",
    },
    # Cellular link capped at 64 kbps; G711 excluded (over capacity);
    # switching toward the wide WLAN link only.
    "campaign-B": {
        "scenario": "campaign-B",
        "codecs": ["G729", "G723.1"],
        "directions": ["cellular-to-wlan"],
        "interfaces": {"cellular": {"bitrate_kbps": 64}},
    },
}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = deepcopy(value)
    return out


_TIME_S = Numeric(0, above=True, unit_us=US_PER_S)
_TIME_MS = Numeric(0, above=True, unit_us=US_PER_MS)
_RULES = {
    "call_duration_s": _TIME_S, "switch_time_s": _TIME_S,
    "switch_jitter_s": Numeric(0, unit_us=US_PER_S),
    "window_len_ms": _TIME_MS,
    "stride_ms": Numeric(0, above=True, unit_us=US_PER_MS, optional=True),
    "watchdog_s": _TIME_S,
    "header_overhead_bytes": Numeric(0, MAX_PACKET_BYTES, integer=True),
    "repetitions": Numeric(1, integer=True),
    "base_seed": Numeric(integer=True),
}
# An interface's own settings; its link settings obey LINK_RULES.
_IFACE_RULES = {"q_weight": Numeric(0, 1)}


def _check(values: dict, rules: dict, prefix: str, bad: list[str]) -> set[str]:
    """Report each value that breaks its rule; returns their names."""
    found = violations(values, rules)
    bad.extend(f"{prefix}{name}: {problem}" for name, problem in found)
    return {name for name, _ in found}


def _section(value, prefix: str, allowed, bad: list[str]) -> Optional[dict]:
    """value if it is a mapping, after reporting each key outside allowed
    (None allows any) as <prefix><key>; None, reported, if not a mapping."""
    if not isinstance(value, dict):
        bad.append(f"{prefix[:-1]}: expected a mapping")
        return None
    if allowed is not None:
        for key in sorted(map(str, set(value) - set(allowed))):
            bad.append(f"{prefix}{key}: unknown setting")
    return value


def _entries(value: dict, prefix: str, allowed, bad: list[str]):
    """(name, section) for each well-formed entry of a mapping of named
    sections, reporting the others."""
    for name, fields in value.items():
        if not isinstance(name, str):
            bad.append(f"{prefix}{name}: a name must be a string")
        elif _section(fields, f"{prefix}{name}.", allowed, bad) is not None:
            yield name, fields


def _names(raw: dict, key: str, what: str, known, bad: list[str]) -> list:
    """The non-empty list of names at key (one name is a list of one),
    reporting each name outside known (None knows every name)."""
    names = raw.get(key)
    if isinstance(names, str):
        names = [names]
    if not isinstance(names, list) or not names:
        bad.append(f"{key}: expected a non-empty list of {what} names")
        return []
    if known is not None:
        known = sorted(known)  # a list: an unhashable name is just unknown
        for name in names:
            if name not in known:
                bad.append(f"{key}: unknown {what} {name!r}; known: "
                           f"{', '.join(known)}")
    return names


def load_config(path: str, preset: Optional[str] = None,
                overrides: Optional[dict[str, Any]] = None) -> ExperimentConfig:
    """Read, merge (defaults <- preset <- file <- overrides), and validate.

    Raises ConfigError listing every violation found.
    """
    file_path = Path(path)
    if not file_path.is_file():
        raise ConfigError([f"{path}: file not found"])
    try:
        raw = yaml.safe_load(file_path.read_text())
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a huge int
        raise ConfigError([f"{path}: parse error: {exc}"])
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])

    preset_name = preset or raw.pop("preset", None)
    if preset_name is not None and preset_name not in sorted(PRESETS):
        raise ConfigError([
            f"preset: unknown preset {preset_name!r}; "
            f"known: {', '.join(sorted(PRESETS))}"])

    merged = _BASE
    if preset_name:
        merged = _deep_merge(merged, PRESETS[preset_name])
    merged = _deep_merge(merged, raw)
    if overrides:
        merged = _deep_merge(merged, {k: v for k, v in overrides.items()
                                      if v is not None})
    return _validate_settings(merged)


def _validate_settings(raw: dict[str, Any]) -> ExperimentConfig:
    bad: list[str] = []
    _section(raw, "", _BASE, bad)
    failed = _check(raw, _RULES, "", bad)

    codec_profiles = dict(CODEC_PRESETS)
    custom = _section(raw.get("custom_codecs") or {}, "custom_codecs.", None,
                      bad) or {}
    for name, fields in _entries(custom, "custom_codecs.", CODEC_RULES, bad):
        profile = CodecProfile(name, **{f: fields.get(f) for f in CODEC_RULES})
        for violation in validate_codec(profile):
            bad.append(f"custom_codecs.{name}: {violation}")
        codec_profiles[name] = profile

    codecs = _names(raw, "codecs", "codec", codec_profiles, bad)
    procedures = _names(raw, "procedures", "procedure",
                        (p.value for p in HandoffProcedure), bad)

    interfaces: dict[str, InterfaceSettings] = {}
    raw_ifaces = raw.get("interfaces")
    if not isinstance(raw_ifaces, dict) or len(raw_ifaces) < 2:
        bad.append("interfaces: need a mapping with at least two interfaces")
        raw_ifaces = {}
    known_tech = sorted(t.value for t in Technology)
    for iface_id, fields in _entries(raw_ifaces, "interfaces.",
                                     _BASE["interfaces"]["wlan"], bad):
        prefix = f"interfaces.{iface_id}."
        fields = {"bitrate_kbps": None, "prop_delay_ms": 0,
                  "queue_capacity_pkts": 50, "loss_prob": 0.0} | fields
        tech = fields.get("technology")
        if tech not in known_tech:
            bad.append(f"{prefix}technology: unknown {tech!r}; known: "
                       f"{', '.join(known_tech)}")
        link_bad = link_violations(fields)
        bad.extend(f"{prefix}{name}: {problem}" for name, problem in link_bad)
        if not _check(fields, _IFACE_RULES, prefix, bad) and not link_bad:
            delay = fields["prop_delay_ms"]
            interfaces[iface_id] = InterfaceSettings(
                technology=tech, q_weight=float(fields["q_weight"]),
                link=LinkParams(
                    bitrate_kbps=fields["bitrate_kbps"],
                    prop_delay_us=(tuple(map(ms_to_us, delay))
                                   if isinstance(delay, list)
                                   else ms_to_us(delay)),
                    queue_capacity_pkts=int(fields["queue_capacity_pkts"]),
                    loss_prob=float(fields["loss_prob"])))

    directions = _names(raw, "directions", "direction", None, bad)
    for direction in directions:
        parts = str(direction).split("-to-")
        if len(parts) != 2 or not all(parts):
            bad.append(f"directions: {direction!r} is not of the form "
                       f"'<from>-to-<to>'")
        else:
            for iface_id in parts:
                if raw_ifaces and iface_id not in raw_ifaces:
                    bad.append(f"directions: {direction!r} references "
                               f"unknown interface {iface_id!r}")
            if parts[0] == parts[1]:
                bad.append(f"directions: {direction!r} switches an "
                           f"interface to itself")

    if not failed & {"call_duration_s", "switch_time_s", "switch_jitter_s"}:
        # In us, as the run checks them (CallSpec.validate).
        t, d, j = (s_to_us(raw[key]) for key in (
            "switch_time_s", "call_duration_s", "switch_jitter_s"))
        if not t < d:
            bad.append(
                f"switch_time_s: must be before call_duration_s "
                f"({raw['switch_time_s']} >= {raw['call_duration_s']})")
        elif not (0 < t - j and t + j < d):
            bad.append(
                f"switch_jitter_s: switch_time_s +- switch_jitter_s must fall "
                f"inside the call ({raw['switch_time_s']} +- "
                f"{raw['switch_jitter_s']} in {raw['call_duration_s']})")
    for key, cls, rules in (("signaling", SignalingConfig, SIGNALING_RULES),
                            ("emodel", EModelParams, EMODEL_RULES)):
        section = _section(raw.get(key) or {}, f"{key}.", rules, bad)
        if section is not None:
            _check(vars(cls()) | section, rules, f"{key}.", bad)
    for key in ("use_burst_ratio", "log_events"):
        if type(raw.get(key)) is not bool:
            bad.append(f"{key}: expected true/false, got {raw.get(key)!r}")
    if bad:
        raise ConfigError(bad)

    return ExperimentConfig(
        scenario=str(raw["scenario"]), codecs=list(codecs),
        procedures=list(procedures), directions=list(directions),
        interfaces=interfaces, codec_profiles=codec_profiles,
        call_duration_s=float(raw["call_duration_s"]),
        switch_time_s=float(raw["switch_time_s"]),
        switch_jitter_s=float(raw["switch_jitter_s"]),
        window_len_ms=float(raw["window_len_ms"]),
        stride_ms=(None if raw["stride_ms"] is None
                   else float(raw["stride_ms"])),
        repetitions=int(raw["repetitions"]), base_seed=int(raw["base_seed"]),
        out_dir=str(raw["out_dir"]),
        header_overhead_bytes=int(raw["header_overhead_bytes"]),
        use_burst_ratio=raw["use_burst_ratio"],
        watchdog_s=float(raw["watchdog_s"]), log_events=raw["log_events"],
        signaling=SignalingConfig(**(raw["signaling"] or {})),
        emodel=EModelParams(**(raw["emodel"] or {})))


def capacity_warnings(config: ExperimentConfig) -> list[str]:
    """Codec-over-link capacity checks for every interface media can use."""
    used = set()
    for direction in config.directions:
        used.update(direction.split("-to-"))
    warnings = []
    for codec_name in config.codecs:
        codec = config.codec_profiles[codec_name]
        ip_kbps = ((codec.payload_bytes + config.header_overhead_bytes) * 8
                   / codec.packet_interval_ms)
        for iface_id in sorted(used):
            link = config.interfaces[iface_id].link
            if link.bitrate_kbps is not None and ip_kbps > link.bitrate_kbps:
                warnings.append(
                    f"over-capacity: {codec_name} needs {ip_kbps:.1f} kbps "
                    f"at IP level but interface {iface_id!r} carries "
                    f"{link.bitrate_kbps:g} kbps; expect sustained "
                    f"queue-overflow loss")
    return warnings


def build_call_spec(config: ExperimentConfig, codec_name: str,
                    procedure: str, direction: str, rep_idx: int) -> CallSpec:
    """The exact CallSpec the campaign runner uses for one repetition."""
    switch_from, switch_to = direction.split("-to-")
    interfaces = [
        InterfaceDescriptor(
            iface_id=iface_id, technology=Technology(settings.technology),
            address=Address("mn", iface_id, MEDIA_PORT),
            q_weight=settings.q_weight, state=IfaceState.UP)
        for iface_id, settings in config.interfaces.items()
    ]
    links = {iface_id: settings.link
             for iface_id, settings in config.interfaces.items()}
    run_id = f"{codec_name}_{procedure}_{direction}_r{rep_idx:03d}"
    return CallSpec(
        codec=config.codec_profiles[codec_name],
        procedure=HandoffProcedure(procedure),
        switch_from=switch_from, switch_to=switch_to,
        interfaces=interfaces, links=links,
        call_duration_us=s_to_us(config.call_duration_s),
        switch_offset_us=s_to_us(config.switch_time_s),
        switch_jitter_us=s_to_us(config.switch_jitter_s),
        header_overhead_bytes=config.header_overhead_bytes,
        signaling=config.signaling,
        watchdog_us=s_to_us(config.watchdog_s),
        seed=config.base_seed + rep_idx, run_id=run_id,
        log_events=config.log_events)


@dataclass
class AggregateSeries:
    """Elementwise mean and sample standard deviation across repetitions."""

    window_starts: list[int]
    means: dict[str, list[float]]
    stds: dict[str, list[float]]


AGGREGATE_FIELDS = ("mean_delay_ms", "ppl", "burst_r", "r_factor")


def aggregate(series_list: list[list[WindowMetrics]]) -> AggregateSeries:
    """Per window and field, the mean and the sample std across runs."""
    if not series_list:
        raise SimulationError("nothing to aggregate")
    grids = {tuple(m.window_start for m in series) for series in series_list}
    if len(grids) != 1:
        raise SimulationError(
            f"mismatched window grids across runs ({len(grids)} distinct)")
    n = len(series_list)
    means: dict[str, list[float]] = {}
    stds: dict[str, list[float]] = {}
    for fname in AGGREGATE_FIELDS:
        i = WindowMetrics._fields.index(fname)
        # one tuple per window, holding the field of every run
        by_window = list(zip(*[[m[i] for m in series]
                               for series in series_list]))
        means[fname] = [fsum(values) / n for values in by_window]
        stds[fname] = list(map(stdev, by_window))
    return AggregateSeries(window_starts=list(grids.pop()), means=means,
                           stds=stds)


def write_aggregate(path: Path, agg: AggregateSeries) -> None:
    header = ["window_start_us"]
    for fname in AGGREGATE_FIELDS:
        header += [f"{fname}_mean", f"{fname}_std"]
    columns = [agg.window_starts]
    for fname in AGGREGATE_FIELDS:
        columns += [agg.means[fname], agg.stds[fname]]
    write_csv(str(path), tuple(header),
              [",".join(map(str, row)) for row in zip(*columns)])


def _run_one(task: tuple) -> dict:
    """Execute one repetition and write its artifacts; returns the pieces
    the aggregation step needs. Module-level for multiprocessing."""
    spec, run_dir_str, window_len_ms, stride_ms, emodel, use_burst = task
    run_dir = Path(run_dir_str)
    run_dir.mkdir(parents=True, exist_ok=True)
    result = run_call(spec)
    write_trace(str(run_dir / "trace.csv"), spec.run_id, result.trace)
    (run_dir / "signaling.log").write_text(
        "\n".join(result.signaling.lines) + "\n" if result.signaling.lines
        else "")
    (run_dir / "handoff.log").write_text(
        "\n".join(result.handoff_log.lines) + "\n"
        if result.handoff_log.lines else "")
    if spec.log_events:
        (run_dir / "events.log").write_text(
            "\n".join(result.event_log) + "\n" if result.event_log else "")

    out: dict[str, Any] = {
        "run_id": spec.run_id, "seed": spec.seed, "aborted": result.aborted,
        "abort_reason": result.abort_reason, "series": {}, "summary": {},
        "switch_window": {},
    }
    for direction, name in ((UL, "ul"), (DL, "dl")):
        series = window_series(result.trace, direction, spec.codec,
                               window_len_ms, stride_ms, emodel, use_burst)
        write_metrics(str(run_dir / f"metrics_{name}.csv"), spec.run_id,
                      series)
        out["series"][name] = series
        out["summary"][name] = (
            call_summary(result.trace, direction, spec.codec, emodel,
                         use_burst) if series else None)
        if result.t_trigger is not None and result.t_completed is not None:
            gens, _, cum_lost, _ = result.trace.columns(direction)
            lo = bisect_left(gens, result.t_trigger)
            hi = bisect_right(gens, result.t_completed)
            out["switch_window"][name] = {
                "generated": hi - lo, "lost": cum_lost[hi] - cum_lost[lo]}
        else:
            out["switch_window"][name] = None
    return out


LOSS_SUMMARY_COLUMNS = (
    "cell_id", "codec", "procedure", "switch_direction", "media_direction",
    "repetitions", "aborted_runs", "mean_lost_packets", "std_lost_packets",
    "mean_loss_pct_whole_call", "mean_loss_pct_switch_window")


def _finish_cell(out_dir: Path, cell: tuple[str, str, str],
                 runs: list[dict]) -> tuple[dict, list[tuple]]:
    """Aggregate a cell's good runs per media direction and write each
    direction's aggregate file; returns the cell's manifest entry and its
    loss_summary.csv rows."""
    cell_id = "_".join(cell)
    good = [r for r in runs if not r["aborted"]]
    rows = []
    for name in ("ul", "dl") if good else ():
        agg = aggregate([r["series"][name] for r in good])
        write_aggregate(out_dir / cell_id / f"aggregate_{name}.csv", agg)
        lost = [r["summary"][name].lost for r in good]
        pct_call = [100.0 * r["summary"][name].ppl for r in good]
        pct_switch = [100.0 * sw["lost"] / sw["generated"] for sw in
                      (r["switch_window"][name] for r in good)
                      if sw and sw["generated"]]
        rows.append((cell_id, *cell, name.upper(), len(good),
                     len(runs) - len(good), fmean(lost), stdev(lost),
                     fmean(pct_call),
                     fmean(pct_switch) if pct_switch else 0.0))
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

    Results arrive in task order, so a cell's runs arrive together: the
    cell is aggregated then and its series dropped, and the parent holds
    one cell's runs at a time.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    warnings = capacity_warnings(config)
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)

    cells = [(codec, proc, direction)
             for codec in config.codecs
             for proc in config.procedures
             for direction in config.directions]
    tasks = ((build_call_spec(config, *cell, rep),
              str(out_dir / "_".join(cell) / f"r{rep:03d}"),
              config.window_len_ms, config.stride_ms, config.emodel,
              config.use_burst_ratio)
             for cell in cells for rep in range(config.repetitions))

    aborted_total = 0
    loss_rows = []
    manifest_cells = []
    with (multiprocessing.Pool(parallel) if parallel > 1
          else nullcontext()) as pool:
        results = pool.imap(_run_one, tasks) if pool else map(_run_one, tasks)
        for cell in cells:
            entry, rows = _finish_cell(
                out_dir, cell, list(islice(results, config.repetitions)))
            aborted = [r for r in entry["runs"] if r["aborted"]]
            aborted_total += len(aborted)
            if aborted:
                warnings.append(
                    f"{entry['cell_id']}: {len(aborted)} aborted run(s): "
                    + ", ".join(f"{r['run_id']} ({r['abort_reason']})"
                                for r in aborted))
            manifest_cells.append(entry)
            loss_rows += rows

    with open(out_dir / "loss_summary.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(LOSS_SUMMARY_COLUMNS)
        w.writerows(loss_rows)

    manifest = {
        "artifact_version": __version__,
        "scenario": config.scenario,
        "settings": _config_as_dict(config),
        "cells": manifest_cells,
        "warnings": warnings,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir, aborted_total


def _config_as_dict(config: ExperimentConfig) -> dict:
    settings = dataclasses.asdict(config)
    for iface in settings["interfaces"].values():
        iface.update(iface.pop("link"))
    return settings


def _find_manifest(trace_path: Path) -> Optional[Path]:
    for parent in trace_path.resolve().parents:
        candidate = parent / "manifest.json"
        if candidate.is_file():
            return candidate
    return None


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
    manifest = json.loads(manifest_file.read_text())
    try:
        run_id, trace = read_trace(str(trace_path))
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    if not run_id:
        # A header-only trace (run aborted before media) names no run; the
        # campaign layout <cell_id>/rNNN/trace.csv does.
        run_dir = trace_path.resolve().parent
        run_id = f"{run_dir.parent.name}_{run_dir.name}"

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
    run_p.add_argument("--parallel", type=int, default=1,
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
