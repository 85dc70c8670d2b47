"""Experiment settings: the YAML format with its defaults and presets; the
rule of every setting in YAML units, which a config file and a manifest's
settings (config_from_settings) both pass; the CallSpec of each repetition."""

from __future__ import annotations

import dataclasses
from copy import deepcopy
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Optional

import yaml

from .core import (
    CODEC_PRESETS,
    CODEC_RULES,
    LINK_PARAMS_RULES,
    LINK_RULES,
    MAX_PACKET_BYTES,
    Q_WEIGHT,
    US_PER_MS,
    US_PER_S,
    CodecProfile,
    InterfaceDescriptor,
    LinkParams,
    Numeric,
    Range,
    SimulationError,
    Technology,
    ms_to_us,
    s_to_us,
    validate_codec,
    violations,
)
from .handoff import HandoffProcedure
from .metrics import EMODEL_RULES, EModelParams
from .scenario import CallSpec
from .sip import SIGNALING_RULES, SignalingConfig


class ConfigError(SimulationError):
    """Invalid experiment configuration; carries every violation found."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass
class ExperimentConfig:
    scenario: str
    codecs: list[str]
    procedures: list[str]
    directions: list[str]
    interfaces: dict[str, InterfaceDescriptor]
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
# The top-level numbers: an integral one is read as an int, the rest as floats.
SETTING_RULES = {
    "call_duration_s": _TIME_S, "switch_time_s": _TIME_S,
    "switch_jitter_s": Numeric(0, unit_us=US_PER_S),
    "window_len_ms": _TIME_MS,
    "stride_ms": Numeric(0, above=True, unit_us=US_PER_MS, optional=True),
    "watchdog_s": _TIME_S,
    "header_overhead_bytes": Numeric(0, MAX_PACKET_BYTES, integer=True),
    "repetitions": Numeric(1, integer=True),
    "base_seed": Numeric(integer=True),
}
# An interface's settings: its link's, the delay in ms (one value or each
# end of a [low, high] range), and its q-weight.
_INTERFACE_RULES = {"prop_delay_ms": Range(Numeric(0, unit_us=US_PER_MS)),
                    **LINK_RULES, "q_weight": Q_WEIGHT}
# A manifest's delay is in us, as in LinkParams, and obeys its rule.
_DELAY_US = {"prop_delay_us": LINK_PARAMS_RULES["prop_delay_us"]}


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
    reporting each name outside known (None knows every name), each that
    cannot be one component of a cell directory's name, and each repeat."""
    names = raw.get(key)
    if isinstance(names, str):
        names = [names]
    if not isinstance(names, list) or not names:
        bad.append(f"{key}: expected a non-empty list of {what} names")
        return []
    if known is not None:
        known = sorted(known)  # a list: an unhashable name is just unknown
    for i, name in enumerate(names):
        if known is not None and name not in known:
            bad.append(f"{key}: unknown {what} {name!r}; known: "
                       f"{', '.join(known)}")
        if isinstance(name, str) and ("/" in name or "\0" in name):
            bad.append(f"{key}: {what} {name!r} holds '/' or a NUL byte")
        if names[:i].count(name) == 1:  # a list: names can be unhashable
            bad.append(f"{key}: {what} {name!r} is listed more than once")
    return names


# The most values a config file may hold, an alias's counted again at every
# use: six levels of 9-way aliases stand for 531,441 values, and each one
# would be printed in its setting's violation.
MAX_CONFIG_VALUES = 10_000


def _holds_too_many_values(doc: Any) -> bool:
    todo, count = [doc], 0
    while todo and count <= MAX_CONFIG_VALUES:
        node = todo.pop()
        count += 1
        if isinstance(node, (dict, list)):
            todo.extend(node.values() if isinstance(node, dict) else node)
    return count > MAX_CONFIG_VALUES


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
    # ValueError: a huge int; RecursionError: a deeply nested value
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigError([f"{path}: parse error: {exc}"])
    if _holds_too_many_values(raw):
        raise ConfigError([f"{path}: more than {MAX_CONFIG_VALUES} values "
                           f"once its aliases are expanded"])
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])

    file_preset = raw.pop("preset", None)  # a --preset flag wins over it
    preset_name = preset or file_preset
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
    failed = _check(raw, SETTING_RULES, "", bad)

    codec_profiles = dict(CODEC_PRESETS)
    custom = _section(raw.get("custom_codecs") or {}, "custom_codecs.", None,
                      bad) or {}
    for name, fields in _entries(custom, "custom_codecs.", CODEC_RULES, bad):
        profile = CodecProfile(name, **{f: fields.get(f) for f in CODEC_RULES})
        for violation in validate_codec(profile):
            bad.append(f"custom_codecs.{name}: {violation}")
        codec_profiles[name] = profile

    codecs = _names(raw, "codecs", "codec", codec_profiles, bad)
    fastest = min((codec_profiles[c] for c in codecs if isinstance(c, str)
                   and c in codec_profiles
                   and not validate_codec(codec_profiles[c])),
                  key=lambda codec: codec.packet_interval_us, default=None)
    # A window grid no denser than the packet grid.
    grid = "window_len_ms" if raw.get("stride_ms") is None else "stride_ms"
    if fastest is not None and grid not in failed \
            and ms_to_us(raw[grid]) < fastest.packet_interval_us:
        bad.append(f"{grid}: {raw[grid]} is shorter than the packet interval "
                   f"of {fastest.name}, {fastest.packet_interval_ms} ms"
                   + (" (with no stride_ms, the window length is the stride)"
                      if grid == "window_len_ms" else ""))
    procedures = _names(raw, "procedures", "procedure",
                        (p.value for p in HandoffProcedure), bad)

    interfaces: dict[str, InterfaceDescriptor] = {}
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
        if not _check(fields, _INTERFACE_RULES, prefix, bad) \
                and tech in known_tech:
            delay = fields["prop_delay_ms"]
            interfaces[iface_id] = InterfaceDescriptor(
                iface_id, Technology(tech), q_weight=float(fields["q_weight"]),
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

    # One directory per cell: names may hold '_', so two cells can join alike.
    codec_ids, procedure_ids, direction_ids = (
        list(dict.fromkeys(n for n in names if isinstance(n, str)))
        for names in (codecs, procedures, directions))
    writers: dict[str, list[tuple]] = {}
    for cell in product(codec_ids, procedure_ids, direction_ids):
        name = cell_id(*cell)
        bad.extend(f"cells {other} and {cell} both write {name}/"
                   for other in writers.setdefault(name, []))
        writers[name].append(cell)

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
    bad += [f"{key}: expected true/false, got {raw.get(key)!r}"
            for key in ("use_burst_ratio", "log_events")
            if type(raw.get(key)) is not bool]
    if bad:
        raise ConfigError(bad)

    numbers = {key: None if raw[key] is None
               else (int if rule.integer else float)(raw[key])
               for key, rule in SETTING_RULES.items()}
    return ExperimentConfig(
        **numbers, scenario=str(raw["scenario"]), codecs=list(codecs),
        procedures=list(procedures), directions=list(directions),
        interfaces=interfaces, codec_profiles=codec_profiles,
        out_dir=str(raw["out_dir"]), use_burst_ratio=raw["use_burst_ratio"],
        log_events=raw["log_events"],
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


def cell_id(codec_name: str, procedure: str, direction: str) -> str:
    """The name of a cell's directory, which validate keeps unique within a
    campaign; each run's id is it plus _rNNN."""
    return "_".join((codec_name, procedure, direction))


def build_call_spec(config: ExperimentConfig, codec_name: str,
                    procedure: str, direction: str, rep_idx: int) -> CallSpec:
    """The exact CallSpec the campaign runner uses for one repetition."""
    switch_from, switch_to = direction.split("-to-")
    run_id = f"{cell_id(codec_name, procedure, direction)}_r{rep_idx:03d}"
    return CallSpec(
        codec=config.codec_profiles[codec_name],
        procedure=HandoffProcedure(procedure),
        switch_from=switch_from, switch_to=switch_to,
        interfaces=list(config.interfaces.values()),
        call_duration_us=s_to_us(config.call_duration_s),
        switch_offset_us=s_to_us(config.switch_time_s),
        switch_jitter_us=s_to_us(config.switch_jitter_s),
        header_overhead_bytes=config.header_overhead_bytes,
        signaling=config.signaling,
        watchdog_us=s_to_us(config.watchdog_s),
        seed=config.base_seed + rep_idx, run_id=run_id,
        log_events=config.log_events)


def config_as_dict(config: ExperimentConfig) -> dict:
    """The manifest's settings: each interface as its technology, q-weight
    and link fields."""
    settings = dataclasses.asdict(dataclasses.replace(config, interfaces={}))
    settings["interfaces"] = {
        iface_id: {"technology": iface.technology.value,
                   "q_weight": iface.q_weight,
                   **dataclasses.asdict(iface.link)}
        for iface_id, iface in config.interfaces.items()}
    return settings


def config_from_settings(settings: dict) -> ExperimentConfig:
    """config_as_dict's inverse, checked by a config file's rules, which
    report codec_profiles as custom_codecs. Each interface's prop_delay_us
    is checked by its rule in LinkParams, then read as prop_delay_ms, in ms.
    A manifest is complete: a missing setting is a violation."""
    if not isinstance(settings, dict):
        raise ConfigError(["settings: expected a mapping"])
    missing = [f"{field.name}: missing" for field in dataclasses.fields(
        ExperimentConfig) if field.name not in settings]
    if missing:
        raise ConfigError(missing)
    raw = deepcopy(settings)
    raw["custom_codecs"] = raw.pop("codec_profiles")
    for _, codec in _mapping_entries(raw["custom_codecs"]):
        codec.pop("name", None)
    bad: list[str] = []
    for iface_id, iface in _mapping_entries(raw["interfaces"]):
        if not _check(iface, _DELAY_US, f"interfaces.{iface_id}.", bad):
            us = iface["prop_delay_us"]
            iface["prop_delay_ms"] = ([end / US_PER_MS for end in us]
                                      if isinstance(us, (list, tuple))
                                      else us / US_PER_MS)
        iface.pop("prop_delay_us", None)
    try:
        config = _validate_settings(raw)
    except ConfigError as exc:
        raise ConfigError(bad + exc.violations) from None
    if bad:
        raise ConfigError(bad)
    return config


def _mapping_entries(value: Any) -> list[tuple[Any, dict]]:
    """The (key, entry) pairs of value whose entry is a mapping, none if
    value is no mapping; _validate_settings reports the rest."""
    return ([(key, entry) for key, entry in value.items()
             if isinstance(entry, dict)] if isinstance(value, dict) else [])
