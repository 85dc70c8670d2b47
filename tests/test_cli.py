import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent import futures
from pathlib import Path

import pytest

from sipswitch import cli, config
from sipswitch.core import (
    DL,
    LOSS_CLOSED,
    LOSS_RANDOM,
    UL,
    InternalInvariantError,
    SimulationError,
)
from sipswitch.metrics import WindowSums, aggregate, fold
from sipswitch.sip import SipError
from sipswitch.cli import (
    ConfigError,
    build_call_spec,
    capacity_warnings,
    load_config,
    main,
)

from trace_rows import Window, series_of


def write_config(tmp_path, text="", name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# configuration loading and validation


def test_empty_config_gets_full_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.scenario == "custom"
    assert cfg.codecs == ["G711", "G729", "G723.1"]
    assert cfg.procedures == ["hard", "hybrid", "soft"]
    assert cfg.directions == ["wlan-to-cellular", "cellular-to-wlan"]
    assert cfg.repetitions == 50
    assert cfg.base_seed == 1
    assert cfg.call_duration_s == 60.0
    assert cfg.switch_time_s == 30.0
    assert cfg.window_len_ms == 60.0
    assert cfg.stride_ms is None
    wlan = cfg.interfaces["wlan"]
    assert (wlan.q_weight, wlan.link.bitrate_kbps) == (0.5, 54000)
    assert wlan.link.prop_delay_us == 5_000
    cell = cfg.interfaces["cellular"]
    assert (cell.q_weight, cell.link.bitrate_kbps) == (0.9, 384)
    assert cell.link.prop_delay_us == (40_000, 80_000)
    assert cfg.signaling.invite_bytes == 700
    assert cfg.emodel.r0 == 93.2


def test_campaign_b_preset_narrows_the_grid(tmp_path):
    cfg = load_config(write_config(tmp_path), preset="campaign-B")
    assert cfg.scenario == "campaign-B"
    assert cfg.codecs == ["G729", "G723.1"]
    assert cfg.directions == ["cellular-to-wlan"]
    assert cfg.interfaces["cellular"].link.bitrate_kbps == 64
    # untouched settings inherit the defaults
    assert cfg.interfaces["wlan"].link.bitrate_kbps == 54000
    assert cfg.procedures == ["hard", "hybrid", "soft"]


def test_preset_can_come_from_the_config_file(tmp_path):
    cfg = load_config(write_config(tmp_path, "preset: campaign-B\n"))
    assert cfg.scenario == "campaign-B"


def test_preset_flag_wins_over_the_file_preset(tmp_path, capsys):
    # the flag used to leave the file's key behind: "preset: unknown setting"
    path = write_config(tmp_path, "preset: campaign-B\n")
    assert main(["validate", path, "--preset", "campaign-B"]) == 0
    assert load_config(path, preset="campaign-A").scenario == "campaign-A"


def test_file_overrides_preset_and_overrides_beat_file(tmp_path):
    path = write_config(tmp_path, "repetitions: 10\ncodecs: [G729]\n")
    cfg = load_config(path, preset="campaign-A")
    assert cfg.repetitions == 10
    assert cfg.codecs == ["G729"]
    cfg = load_config(path, preset="campaign-A",
                      overrides={"repetitions": 3, "base_seed": None})
    assert cfg.repetitions == 3     # explicit override wins
    assert cfg.base_seed == 1       # None-valued overrides are ignored


def test_unknown_preset_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown preset"):
        load_config(write_config(tmp_path), preset="campaign-Z")


def test_missing_file_and_parse_errors(tmp_path):
    with pytest.raises(ConfigError, match="file not found"):
        load_config(str(tmp_path / "nope.yaml"))
    with pytest.raises(ConfigError, match="parse error"):
        load_config(write_config(tmp_path, "codecs: [unclosed\n"))
    with pytest.raises(ConfigError, match="top level must be a mapping"):
        load_config(write_config(tmp_path, "- just\n- a\n- list\n"))
    # an integer too long to convert used to end in a traceback
    with pytest.raises(ConfigError, match="parse error"):
        load_config(write_config(tmp_path, "base_seed: " + "1" * 5000))


def test_a_deeply_nested_config_is_a_config_error(tmp_path, capsys):
    # PyYAML composes one level per call, so 2,000 levels used to end in a
    # RecursionError traceback
    cfg = write_config(tmp_path, "a: " + "[" * 2000 + "]" * 2000 + "\n")
    assert main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert f"config error: {cfg}: parse error: " in err
    assert "Traceback" not in err


def test_an_alias_bomb_fails_validate_in_a_few_lines(tmp_path, capsys):
    # window_len_ms as six levels, each holding 9 aliases of the one before
    # it, used to write 1.9 MB to stderr: one repr of every one of the
    # 9 ** 6 expanded values
    lines = ["window_len_ms:", "  - &l0 [" + ", ".join(["1"] * 9) + "]"]
    for i in range(1, 6):
        lines.append(f"  - &l{i} [" + ", ".join([f"*l{i - 1}"] * 9) + "]")
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    assert main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error: {cfg}: more than "
                   f"{config.MAX_CONFIG_VALUES} values once its aliases are "
                   f"expanded\n")


def test_every_violation_is_reported_at_once(tmp_path):
    path = write_config(tmp_path, """
codecs: [G999]
procedures: [teleport]
directions: [wlan-to-wlan, lte-to-wlan]
switch_time_s: 120
bogus_key: 1
interfaces:
  wlan:
    technology: wlan-like
    q_weight: 2.0
    bitrate_kbps: 54000
    prop_delay_ms: -3
  cellular:
    technology: cellular-like
    q_weight: 0.9
    bitrate_kbps: 384
    prop_delay_ms: [80, 40]
""")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    text = "\n".join(err.value.violations)
    assert "unknown codec 'G999'" in text
    assert "unknown procedure 'teleport'" in text
    assert "switches an interface to itself" in text
    assert "unknown interface 'lte'" in text
    assert "bogus_key: unknown setting" in text
    assert "q_weight" in text
    assert "prop_delay_ms" in text and "low <= high" in text
    assert "switch_time_s: must be before call_duration_s" in text
    assert len(err.value.violations) >= 8


def test_custom_codec_is_usable_and_validated(tmp_path):
    path = write_config(tmp_path, """
codecs: [G726]
custom_codecs:
  G726:
    bitrate_kbps: 32
    packet_interval_ms: 20
    payload_bytes: 80
    ie: 7
    bpl: 20
""")
    cfg = load_config(path)
    assert cfg.codec_profiles["G726"].payload_bytes == 80
    assert cfg.codecs == ["G726"]

    bad = write_config(tmp_path, """
codecs: [broken]
custom_codecs:
  broken:
    bitrate_kbps: 64
    packet_interval_ms: 20
    payload_bytes: 10
    ie: 0
    bpl: 25.1
""", name="bad.yaml")
    with pytest.raises(ConfigError, match="differs from bitrate"):
        load_config(bad)


def test_signaling_and_emodel_sections(tmp_path):
    path = write_config(tmp_path, """
signaling:
  rtx_interval_ms: 250
  fallback_timeout_ms: 1000
emodel:
  r0: 94.2
""")
    cfg = load_config(path)
    assert cfg.signaling.rtx_interval_ms == 250
    assert cfg.signaling.fallback_timeout_ms == 1000
    assert cfg.signaling.invite_bytes == 700  # untouched default
    assert cfg.emodel.r0 == 94.2
    with pytest.raises(ConfigError, match="signaling.bananas: unknown"):
        load_config(write_config(tmp_path, "signaling:\n  bananas: 1\n",
                                 name="s.yaml"))


def test_capacity_warnings_flag_over_capacity_codecs(tmp_path):
    clean = load_config(write_config(tmp_path), preset="campaign-A")
    assert capacity_warnings(clean) == []
    loaded = load_config(write_config(tmp_path, "codecs: [G711]\n",
                                      name="b.yaml"), preset="campaign-B")
    warnings = capacity_warnings(loaded)
    assert len(warnings) == 1
    assert "over-capacity" in warnings[0]
    assert "G711" in warnings[0] and "'cellular'" in warnings[0]
    # 200 B every 20 ms = 80 kbps > 64 kbps
    assert "80.0 kbps" in warnings[0]


def test_build_call_spec_wires_the_grid_cell(tmp_path):
    cfg = load_config(write_config(tmp_path), preset="campaign-A")
    spec = build_call_spec(cfg, "G711", "hard", "wlan-to-cellular", 7)
    assert spec.run_id == "G711_hard_wlan-to-cellular_r007"
    assert spec.seed == cfg.base_seed + 7
    assert (spec.switch_from, spec.switch_to) == ("wlan", "cellular")
    assert spec.codec.name == "G711"
    assert spec.call_duration_us == 60_000_000
    assert spec.switch_offset_us == 30_000_000
    assert spec.watchdog_us == 10_000_000
    assert spec.interfaces == list(cfg.interfaces.values())
    assert [i.iface_id for i in spec.interfaces] == ["wlan", "cellular"]
    assert spec.interfaces[1].link.prop_delay_us == (40_000, 80_000)
    assert spec.validate() == []
    # every repetition gets the descriptors the loader built, not copies
    other = build_call_spec(cfg, "G729", "soft", "cellular-to-wlan", 0)
    assert all(a is b for a, b in zip(spec.interfaces, other.interfaces))


# ---------------------------------------------------------------------------
# aggregation


def _series(values, start_step=60_000):
    return series_of(Window(i * start_step, v, v, 1.0, v, False, False)
                     for i, v in enumerate(values))


def _folded(*series_list):
    sums = WindowSums()
    for series in series_list:
        fold(sums, series)
    return sums


def test_aggregate_of_identical_runs_has_zero_std():
    agg = aggregate(_folded(_series([1.0, 2.0]), _series([1.0, 2.0])))
    assert agg.window_starts == [0, 60_000]
    assert agg.means["r_factor"] == [1.0, 2.0]
    assert agg.stds["r_factor"] == [0.0, 0.0]
    assert agg.stds["ppl"] == [0.0, 0.0]


def test_aggregate_mean_and_std_oracle():
    agg = aggregate(_folded(_series([0.0]), _series([0.2])))
    assert agg.means["ppl"] == [pytest.approx(0.1)]
    assert agg.stds["ppl"] == [pytest.approx(0.1414213562373095)]


def test_aggregate_single_run_uses_zero_std():
    agg = aggregate(_folded(_series([5.0, 7.0])))
    assert agg.stds["mean_delay_ms"] == [0.0, 0.0]


def test_aggregate_rejects_mismatched_grids():
    with pytest.raises(SimulationError, match="mismatched window grids"):
        _folded(_series([1.0, 2.0]), _series([1.0, 2.0], start_step=50_000))
    with pytest.raises(SimulationError, match="nothing to aggregate"):
        aggregate(_folded())


# ---------------------------------------------------------------------------
# command-line entry points (tiny campaigns)

TINY = """
codecs: [G729]
procedures: [hard, hybrid]
directions: [cellular-to-wlan]
repetitions: 2
call_duration_s: 6
switch_time_s: 3
"""


def test_run_command_produces_the_full_artifact_tree(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY + f"out_dir: {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "manifest.json").is_file()
    assert (out / "loss_summary.csv").is_file()
    for cell in ("G729_hard_cellular-to-wlan", "G729_hybrid_cellular-to-wlan"):
        for rep in ("r000", "r001"):
            run_dir = out / cell / rep
            for name in ("trace.csv", "signaling.log", "handoff.log",
                         "metrics_ul.csv", "metrics_dl.csv"):
                assert (run_dir / name).is_file(), f"{cell}/{rep}/{name}"
        assert (out / cell / "aggregate_ul.csv").is_file()
        assert (out / cell / "aggregate_dl.csv").is_file()

    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["cells"]) == 2
    assert all(len(c["runs"]) == 2 for c in manifest["cells"])
    assert all(not r["aborted"] for c in manifest["cells"]
               for r in c["runs"])
    assert manifest["settings"]["codec_profiles"]["G729"]["bpl"] == 19.0

    lines = (out / "loss_summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + two cells x UL/DL
    hard_dl = next(l for l in lines if l.startswith("G729_hard") and ",DL," in l)
    hybrid_dl = next(l for l in lines
                     if l.startswith("G729_hybrid") and ",DL," in l)
    assert float(hard_dl.split(",")[7]) >= 1.0    # mean lost packets
    assert float(hybrid_dl.split(",")[7]) == 0.0


def test_campaign_outputs_are_byte_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    cell = "G729_hard_cellular-to-wlan"
    for rel in (f"{cell}/r000/trace.csv", f"{cell}/r000/metrics_dl.csv",
                f"{cell}/r001/trace.csv", f"{cell}/aggregate_dl.csv",
                "loss_summary.csv"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_integral_float_timers_run_as_their_integers(tmp_path, capsys):
    # 500.0 ms used to reach the engine as 500000.0 us, so float times
    # leaked into signaling.log, handoff.log and trace.csv
    trees = {}
    for rtx, fallback in (("500", "700"), ("500.0", "700.0")):
        out = tmp_path / f"out_{rtx}"
        cfg = write_config(tmp_path, f"""
codecs: [G729]
procedures: [hard]
directions: [wlan-to-cellular]
repetitions: 4
call_duration_s: 3
switch_time_s: 1.5
signaling:
  rtx_interval_ms: {rtx}
  fallback_timeout_ms: {fallback}
interfaces:
  cellular:
    loss_prob: 0.3
out_dir: {out}
""", name=f"config_{rtx}.yaml")
        assert main(["run", cfg]) == 2  # some runs abort at 30% loss
        trees[rtx] = {p.relative_to(out).as_posix(): p.read_bytes()
                      for p in sorted(out.rglob("*"))
                      if p.is_file() and p.name != "manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        trees[rtx]["cells"] = manifest["cells"]
    assert trees["500"] == trees["500.0"]
    logs = b"".join(v for k, v in trees["500"].items()
                    if k.endswith("signaling.log"))
    assert b"(700000, INVITE" in logs  # the retransmission timer fired


def test_rep_and_seed_overrides_change_the_campaign(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), "--reps", "1",
                 "--seed", "42"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    runs = [r for c in manifest["cells"] for r in c["runs"]]
    assert len(runs) == 2  # two cells, one rep each
    assert all(r["seed"] == 42 for r in runs)


def test_recompute_metrics_reproduces_files_byte_for_byte(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY + f"out_dir: {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 0
    run_dir = tmp_path / "out" / "G729_hard_cellular-to-wlan" / "r000"
    assert main(["recompute-metrics", str(run_dir / "trace.csv")]) == 0
    for name in ("ul", "dl"):
        original = (run_dir / f"metrics_{name}.csv").read_bytes()
        recomputed = (run_dir / f"recomputed_metrics_{name}.csv").read_bytes()
        assert original == recomputed


def test_recompute_metrics_needs_a_manifest(tmp_path, capsys):
    orphan = tmp_path / "orphan"
    orphan.mkdir()
    trace = orphan / "trace.csv"
    trace.write_text("run_id,stream_id,direction,seq,gen_time_us,send_iface,"
                     "arrival_time_us,loss_cause\n")
    assert main(["recompute-metrics", str(trace)]) == 1
    assert "no manifest.json" in capsys.readouterr().err


def test_recompute_metrics_on_a_run_aborted_before_media(tmp_path, capsys):
    # every link drops everything: setup never completes, the trace is empty
    cfg = write_config(tmp_path, f"""
codecs: [G729]
procedures: [hard]
directions: [wlan-to-cellular]
repetitions: 1
call_duration_s: 6
switch_time_s: 3
out_dir: {tmp_path / 'out'}
interfaces:
  wlan:
    loss_prob: 1.0
  cellular:
    loss_prob: 1.0
""")
    assert main(["run", cfg]) == 2
    run_dir = tmp_path / "out" / "G729_hard_wlan-to-cellular" / "r000"
    assert len((run_dir / "trace.csv").read_text().splitlines()) == 1
    assert main(["recompute-metrics", str(run_dir / "trace.csv")]) == 0
    for name in ("ul", "dl"):
        original = (run_dir / f"metrics_{name}.csv").read_bytes()
        recomputed = (run_dir / f"recomputed_metrics_{name}.csv").read_bytes()
        assert original == recomputed


def test_recompute_metrics_rejects_a_malformed_trace(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY + f"out_dir: {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 0
    trace = tmp_path / "out" / "G729_hard_cellular-to-wlan" / "r000" / \
        "trace.csv"
    header, *rows = trace.read_text().splitlines()
    first, second = [row for row in rows if ",UL," in row][:2]
    broken = {
        "wrong header": [header.replace("seq", "sequence"), first],
        "non-integer field": [header, first.replace(",0,", ",zero,", 1)],
        "short row": [header, first.rsplit(",", 1)[0]],
        "duplicate seq": [header, first, first],
        "out of order": [header, second, first],
    }
    for name, lines in broken.items():
        trace.write_text("\n".join(lines) + "\n")
        assert main(["recompute-metrics", str(trace)]) == 1, name
        assert f"config error: {trace}: " in capsys.readouterr().err, name
    # a direction carries one stream: a second stream id there is a bad row
    assert ",ul,UL,1," in second
    trace.write_text("\n".join(
        [header, first, second.replace(",ul,UL,1,", ",ul2,UL,0,")]) + "\n")
    assert main(["recompute-metrics", str(trace)]) == 1
    assert (f"config error: {trace}: line 3: ul2 seq 0: UL already carries "
            f"stream ul") in capsys.readouterr().err
    # a trace is one run's: a row of another run is a bad row, not a
    # relabelling of the whole file
    assert first.startswith("G729_hard_cellular-to-wlan_r000,")
    other = second.replace("G729_hard_cellular-to-wlan_r000,",
                           "G729_hard_cellular-to-wlan_r001,", 1)
    trace.write_text("\n".join([header, first, other]) + "\n")
    assert main(["recompute-metrics", str(trace)]) == 1
    assert (f"config error: {trace}: line 3: run id "
            f"'G729_hard_cellular-to-wlan_r001' differs from the first "
            f"row's 'G729_hard_cellular-to-wlan_r000'"
            ) in capsys.readouterr().err


ONE_RUN = """
codecs: [G729]
procedures: [hard]
directions: [cellular-to-wlan]
repetitions: 1
call_duration_s: 2
switch_time_s: 1
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """(trace, manifest) of a one-run campaign."""
    out = tmp_path_factory.mktemp("tiny") / "out"
    cfg = write_config(out.parent, ONE_RUN + f"out_dir: {out}\n")
    assert main(["run", cfg]) == 0
    return (out / "G729_hard_cellular-to-wlan" / "r000" / "trace.csv",
            json.loads((out / "manifest.json").read_text()))


def _break(manifest, *path, value=None):
    """A copy of manifest with the setting at path set to value, or deleted
    when value is None."""
    manifest = json.loads(json.dumps(manifest))
    node = manifest["settings"]
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(manifest)


@pytest.mark.parametrize("broken", [
    lambda m: "{not json",  # JSONDecodeError
    lambda m: "[]",  # AttributeError
    lambda m: _break(m, "codec_profiles", "G729", "ie"),  # TypeError
    lambda m: _break(m, "emodel", "r0", value=-1),  # ValueError
    lambda m: _break(m, "window_len_ms", value=0),  # ValueError
    lambda m: _break(m, "codec_profiles", "G729", "payload_bytes", value=0),
], ids=["not-json", "list", "codec-without-ie", "negative-r0",
        "zero-window", "zero-payload"])
def test_recompute_metrics_rejects_a_malformed_manifest(
        tmp_path, capsys, tiny_run, broken):
    # each used to end in a traceback
    trace, manifest = tiny_run
    path = tmp_path / "manifest.json"
    path.write_text(broken(manifest))
    assert main(["recompute-metrics", str(trace), "--manifest",
                 str(path)]) == 1
    assert f"config error: {path}: " in capsys.readouterr().err


def test_recompute_metrics_rejects_a_deeply_nested_manifest(
        tmp_path, capsys, tiny_run):
    # json.loads recurses once per array and used to end in a
    # RecursionError traceback
    trace, _ = tiny_run
    path = tmp_path / "manifest.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["recompute-metrics", str(trace), "--manifest",
                 str(path)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {path}: RecursionError: " in err


def _bench_cli_spans() -> dict:
    """CLI_SPANS of bench/trace_layers.py, read without importing it."""
    source = Path(__file__).parents[1] / "bench" / "trace_layers.py"
    for node in ast.parse(source.read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["CLI_SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CLI_SPANS in {source}")


def test_the_bench_finds_what_it_wraps_in_cli(tmp_path, capsys,
                                              monkeypatch):
    # the bench wraps these names in sipswitch.cli, and times _run_one,
    # aggregate and write_aggregate in run_campaign's globals
    for name in [*_bench_cli_spans(), "build_call_spec", "main"]:
        assert hasattr(cli, name), name
    assert cli.run_campaign.__globals__ is vars(cli)
    hits = []
    for name in ("load_config", "run_call"):
        def spy(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            hits.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    cfg = write_config(tmp_path, ONE_RUN + f"out_dir: {tmp_path / 'out'}\n")
    assert cli.main(["run", cfg]) == 0
    assert hits == ["load_config", "run_call"]


def test_the_bench_patches_what_its_owners_define():
    # bench/trace_layers.py's Tracer._patch reads owner.__dict__[attr], so
    # each method it patches must be defined on its class itself; read the
    # _patch calls that name their attribute, without importing the bench
    source = Path(__file__).parents[1] / "bench" / "trace_layers.py"
    patched = {(ast.unparse(node.args[0]), node.args[1].value)
               for node in ast.walk(ast.parse(source.read_text()))
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "_patch"
               and isinstance(node.args[1], ast.Constant)}
    assert {("simnet.Engine", "run_until"), ("simnet.Engine", "schedule"),
            ("simnet.Link", "transmit"), ("simnet.Link", "__init__"),
            ("traffic.PacketTrace", "record")} <= patched
    for owner, attr in patched:
        module, _, cls = owner.partition(".")
        obj = importlib.import_module(f"sipswitch.{module}")
        if cls:
            obj = getattr(obj, cls)
        assert attr in vars(obj), f"{owner}.{attr}"


def test_the_bench_counts_what_the_media_tick_calls(tmp_path, monkeypatch):
    # bench/trace_layers.py counts media_route calls through the scenario
    # global, and counts losses from PacketTrace.record's positional
    # args[4] (gen_time) and args[7] (loss_cause). Media is routed once per
    # direction and segment between control events, and each segment is
    # recorded by PacketTrace.extend: every lost packet goes through record,
    # and a run of delivered packets that passes its test does not.
    import sipswitch.scenario as scenario
    from sipswitch.traffic import PacketTrace
    assert list(inspect.signature(PacketTrace.record).parameters) == [
        "self", "stream_id", "direction", "seq", "gen_time", "send_iface",
        "arrival_time", "loss_cause"]
    routes, recorded = [], []
    route, record = scenario.media_route, PacketTrace.record
    monkeypatch.setattr(scenario, "media_route",
                        lambda *args: routes.append(args) or route(*args))
    monkeypatch.setattr(PacketTrace, "record", lambda *args: recorded.append(
        (args[4], args[7])) or record(*args))
    # the hard switch loses downlink packets to the Closed old interface;
    # a lossy cellular link loses packets at random as well
    lossy = "interfaces:\n  cellular:\n    loss_prob: 0.05\n"
    for text, cause in ((ONE_RUN, LOSS_CLOSED), (ONE_RUN + lossy, LOSS_RANDOM)):
        routes.clear()
        recorded.clear()
        cfg = load_config(write_config(tmp_path, text))
        result = scenario.run_call(
            build_call_spec(cfg, "G729", "hard", "wlan-to-cellular", 0))
        lost = [(gen, why) for packets in result.trace.directions.values()
                for gen, why in zip(packets.gen, packets.cause)
                if why is not None]
        assert sorted(recorded) == sorted(lost)
        assert any(why == cause for _, why in lost)
        assert len(recorded) < result.trace.generated
        directions = [direction for _, direction in routes]
        assert directions.count(UL) >= 1 and directions.count(DL) >= 1
        assert len(routes) < result.trace.generated


def test_a_broken_invariant_exits_three(tmp_path, capsys, monkeypatch):
    import sipswitch.scenario as scenario
    monkeypatch.setattr(scenario, "check_state",
                        lambda state, proc: ["injected violation"])
    cfg = write_config(tmp_path, TINY + f"out_dir: {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 3
    assert "injected violation" in capsys.readouterr().err


def test_a_series_length_is_its_metrics_file_rows(tmp_path, capsys,
                                                  monkeypatch):
    # the bench records len() of window_series' result as metrics.windows,
    # and _run_one skips the loss totals of a direction whose series is
    # falsy; a run aborted before media writes header-only metrics files
    seen = []

    def spy(*args, _fn=cli.window_series):
        series = _fn(*args)
        seen.append((len(series), bool(series)))
        return series

    monkeypatch.setattr(cli, "window_series", spy)
    silent = ONE_RUN + "interfaces:\n" + "".join(
        f"  {iface}:\n    loss_prob: 1.0\n" for iface in ("wlan", "cellular"))
    rows = []
    for name, text, code in (("good", ONE_RUN, 0), ("silent", silent, 2)):
        out = tmp_path / name
        cfg = write_config(tmp_path, text + f"out_dir: {out}\n")
        assert main(["run", cfg]) == code
        run_dir = out / "G729_hard_cellular-to-wlan" / "r000"
        for direction in ("ul", "dl"):
            lines = (run_dir / f"metrics_{direction}.csv").read_text()
            rows.append(len(lines.splitlines()) - 1)
    assert seen == [(n, n > 0) for n in rows]
    assert rows == [34, 34, 0, 0]   # 2 s of 20 ms packets in 60 ms windows


# ---------------------------------------------------------------------------
# an error inside one run


def _failing_run_call(exc, run_call=cli.run_call):
    """run_call, raising exc in each cell's second repetition."""
    def failing(spec):
        if spec.run_id.endswith("_r001"):
            raise exc
        return run_call(spec)
    return failing


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_a_simulation_error_inside_a_run_aborts_that_run_alone(
        tmp_path, capfd, monkeypatch, parallel):
    monkeypatch.setattr(cli, "run_call", _failing_run_call(
        SipError("no transaction for the message")))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, TINY + f"out_dir: {out}\n")
    assert main(["run", cfg, "--parallel", parallel]) == 2
    err = capfd.readouterr().err
    assert "Traceback" not in err
    assert "2 run(s) aborted; see manifest.json" in err
    manifest = json.loads((out / "manifest.json").read_text())
    for cell in manifest["cells"]:
        good, bad = cell["runs"]
        assert (good["aborted"], good["abort_reason"]) == (False, None)
        assert bad == {"run_id": f"{cell['cell_id']}_r001",
                       "seed": bad["seed"], "aborted": True,
                       "abort_reason":
                           "SipError: no transaction for the message"}
        assert not any((out / cell["cell_id"] / "r001").iterdir())
        # the cell's files come from its one good run
        assert (out / cell["cell_id"] / "aggregate_dl.csv").is_file()
    assert any("SipError: no transaction" in w
               for w in manifest["warnings"])


@pytest.mark.parametrize("parallel", ["1", "2"])
@pytest.mark.parametrize("exc,code,message", [
    (InternalInvariantError("a broken invariant"), 3,
     "internal invariant violation: a broken invariant"),
    (ConfigError(["a bad setting"]), 1, "config error: a bad setting"),
], ids=["invariant", "config"])
def test_a_broken_invariant_or_config_error_inside_a_run_still_ends_it(
        tmp_path, capfd, monkeypatch, parallel, exc, code, message):
    monkeypatch.setattr(cli, "run_call", _failing_run_call(exc))
    cfg = write_config(tmp_path, TINY + f"out_dir: {tmp_path / 'out'}\n")
    assert main(["run", cfg, "--parallel", parallel]) == code
    err = capfd.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_any_other_error_inside_a_run_is_not_an_aborted_run(
        tmp_path, capfd, monkeypatch, parallel):
    # the bench's injected fault must still count as a failed call
    monkeypatch.setattr(cli, "run_call",
                        _failing_run_call(RuntimeError("not the model's")))
    cfg = write_config(tmp_path, TINY + f"out_dir: {tmp_path / 'out'}\n")
    with pytest.raises(RuntimeError, match="not the model's"):
        main(["run", cfg, "--parallel", parallel])
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("switch_time,jitter", [
    (0.5, 5),   # earliest trigger before the call starts
    (5, 5),     # earliest trigger at the call start
    (55, 5),    # latest trigger at the call end
])
def test_validate_rejects_a_jitter_window_outside_the_call(
        tmp_path, capsys, switch_time, jitter):
    cfg = write_config(tmp_path, f"switch_time_s: {switch_time}\n"
                                 f"switch_jitter_s: {jitter}\n")
    assert main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error: switch_jitter_s:" in err
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1


def test_validate_accepts_the_benchmark_jitter_window(tmp_path, capsys):
    cfg = write_config(tmp_path, "switch_jitter_s: 5\n")  # 30 +- 5 s in 60 s
    assert main(["validate", cfg]) == 0
    for preset in ("campaign-A", "campaign-B"):
        assert main(["validate", cfg, "--preset", preset]) == 0


@pytest.mark.parametrize("text,message", [
    # a string where a number belongs used to raise TypeError
    ("""codecs: [X]
custom_codecs:
  X: {bitrate_kbps: "8", packet_interval_ms: 20, payload_bytes: 20,
      ie: 11, bpl: 19}
""", "custom_codecs.X: X: bitrate_kbps must be a finite number, got '8'"),
    # an interval that rounds to 0 us used to hang the run
    ("""codecs: [X]
custom_codecs:
  X: {bitrate_kbps: 8000000, packet_interval_ms: 0.0001, payload_bytes: 100,
      ie: 0, bpl: 25.1}
""", "custom_codecs.X: X: packet_interval_ms 0.0001 rounds to 0 us"),
    # unknown keys under an interface used to be ignored
    ("interfaces:\n  wlan:\n    loss_probability: 0.1\n",
     "interfaces.wlan.loss_probability: unknown setting"),
    # non-finite numbers used to end in a traceback at validate
    ("call_duration_s: .inf\n",
     "call_duration_s: must be a finite number, got inf"),
    ("header_overhead_bytes: .inf\n",
     "header_overhead_bytes: must be a finite number, got inf"),
    ("interfaces:\n  wlan:\n    prop_delay_ms: .inf\n",
     "interfaces.wlan.prop_delay_ms: must be a finite number, got inf"),
    ("switch_jitter_s: .nan\n",
     "switch_jitter_s: must be a finite number, got nan"),
    # ... or passed validate and ended in a traceback at run
    ("watchdog_s: .inf\n", "watchdog_s: must be a finite number, got inf"),
    ("window_len_ms: .nan\n",
     "window_len_ms: must be a finite number, got nan"),
    ("window_len_ms: 0.0001\n", "window_len_ms: 0.0001 rounds to 0 us"),
    ("stride_ms: 0.0004\n", "stride_ms: 0.0004 rounds to 0 us"),
    ("interfaces:\n  wlan:\n    bitrate_kbps: 5.0e-324\n",
     "interfaces.wlan.bitrate_kbps: must be >= 0.001, got 5e-324"),
    ("""codecs: [X]
custom_codecs:
  X: {bitrate_kbps: 8, packet_interval_ms: 20, payload_bytes: 20,
      ie: 1.0e+308, bpl: 19}
""", "custom_codecs.X: X: ie must be <= 100, got 1e+308"),
    # ... or ran with exit 0 and wrong output
    ("emodel:\n  r0: .nan\n", "emodel.r0: must be a finite number, got nan"),
    ("signaling:\n  rtx_interval_ms: 0.0001\n",
     "signaling.rtx_interval_ms: must be an integer, got 0.0001"),
    ("signaling:\n  rtx_interval_ms: .nan\n",
     "signaling.rtx_interval_ms: must be a finite number, got nan"),
    ("header_overhead_bytes: 1.5\n",
     "header_overhead_bytes: must be an integer, got 1.5"),
    ("signaling:\n  max_retransmissions: 1.5\n",
     "signaling.max_retransmissions: must be an integer, got 1.5"),
    ("signaling:\n  ok_bytes: 0.5\n",
     "signaling.ok_bytes: must be an integer, got 0.5"),
    # malformed structure used to end in a traceback
    ("custom_codecs:\n  X: [1, 2]\n", "custom_codecs.X: expected a mapping"),
    ("interfaces:\n  1: {technology: wired, q_weight: 0.1}\n",
     "interfaces.1: a name must be a string"),
    ("interfaces:\n  wlan:\n    technology: [wired]\n",
     "interfaces.wlan.technology: unknown ['wired']"),
    ("codecs: [[G729]]\n", "codecs: unknown codec ['G729']"),
    ("preset: [campaign-A]\n", "preset: unknown preset ['campaign-A']"),
    # a name listed twice used to run its cells twice into one directory
    ("codecs: [G729, G711, G729]\n",
     "codecs: codec 'G729' is listed more than once"),
    ("procedures: [hard, hard]\n",
     "procedures: procedure 'hard' is listed more than once"),
    ("directions: [cellular-to-wlan, cellular-to-wlan]\n",
     "directions: direction 'cellular-to-wlan' is listed more than once"),
])
def test_validate_names_the_bad_field(tmp_path, capsys, text, message):
    assert main(["validate", write_config(tmp_path, text)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err


def test_validate_rejects_a_window_grid_denser_than_the_packet_grid(
        tmp_path, capsys):
    # this 2 s G729 call used to validate and then need 2.27 GB to run:
    # 2,000,001 windows in each direction for its 101 packets
    cfg = write_config(tmp_path, ONE_RUN + "window_len_ms: 0.001\n")
    assert main(["validate", cfg]) == 1
    err = capsys.readouterr().err
    assert ("config error: window_len_ms: 0.001 is shorter than the packet "
            "interval of G729, 20.0 ms") in err
    # a stride sets the grid when given: a short window may ride on it
    for text, rc in (("stride_ms: 20\n", 0), ("stride_ms: 19.999\n", 1)):
        cfg = write_config(tmp_path, ONE_RUN + "window_len_ms: 0.001\n" + text)
        assert main(["validate", cfg]) == rc
    assert "config error: stride_ms: 19.999 is shorter" in \
        capsys.readouterr().err
    # the campaign's fastest codec sets the grid: G711's 20 ms, not the
    # 30 ms of G723.1
    for codecs, rc in (("[G723.1]", 1), ("[G723.1, G711]", 0)):
        cfg = write_config(tmp_path, f"codecs: {codecs}\nstride_ms: 25\n")
        assert main(["validate", cfg]) == rc
    assert "stride_ms: 25 is shorter than the packet interval of G723.1, " \
        "30.0 ms" in capsys.readouterr().err


def test_validate_command_reports_ok_or_violations(tmp_path, capsys):
    good = write_config(tmp_path, TINY)
    assert main(["validate", good]) == 0
    assert "ok:" in capsys.readouterr().out
    bad = write_config(tmp_path, "codecs: [G999]\n", name="bad.yaml")
    assert main(["validate", bad]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "G999" in err


def test_validate_states_the_work(tmp_path, capsys):
    # campaign-A: 18 cells x 50 repetitions; G711 and G729 send every 20 ms
    # over 60 s, both ends included, in 60 ms windows
    cfg = write_config(tmp_path, "{}\n")
    assert main(["validate", cfg, "--preset", "campaign-A"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok: scenario 'campaign-A', 18 cell(s) x 50 repetition(s)",
        "work: 900 run(s), each at most 3001 packets and 1001 windows per "
        "direction"]


def test_the_work_validate_states_is_what_a_run_writes(tmp_path, capsys):
    # off-grid duration and a stride that divides neither codec interval
    out = tmp_path / "out"
    cfg = write_config(tmp_path, (
        "codecs: [G723.1, G729]\nprocedures: [soft]\n"
        "directions: [wlan-to-cellular]\nrepetitions: 1\n"
        "call_duration_s: 2.01\nswitch_time_s: 1\nwindow_len_ms: 100\n"
        f"stride_ms: 45\nout_dir: {out}\n"))
    assert main(["validate", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[1] == \
        "work: 2 run(s), each at most 101 packets and 45 windows per direction"
    assert main(["run", cfg]) == 0
    runs = sorted(out.glob("*/r000"))
    packets = [len((r / "trace.csv").read_text().splitlines()) - 1
               for r in runs]
    windows = [len((r / "metrics_ul.csv").read_text().splitlines()) - 1
               for r in runs]
    assert (max(packets) // 2, max(windows)) == (101, 45)


def test_run_with_invalid_config_exits_one(tmp_path, capsys):
    bad = write_config(tmp_path, "procedures: [teleport]\n")
    assert main(["run", bad]) == 1
    assert "config error:" in capsys.readouterr().err


def test_usage_errors_exit_one(tmp_path, capsys):
    # exit 2 means "campaign finished but some runs aborted"
    assert main(["run", write_config(tmp_path), "--reps", "x"]) == 1
    assert main(["validate"]) == 1
    assert "usage:" in capsys.readouterr().err
    assert main(["--help"]) == 0


@pytest.mark.parametrize("args", [(), ("--parallel", "2")],
                         ids=["serial", "parallel"])
def test_an_out_dir_below_a_file_is_a_config_error(tmp_path, capsys,
                                                   monkeypatch, args):
    blocker = tmp_path / "F"
    blocker.write_text("a file\n")
    started = []
    monkeypatch.setattr(cli, "run_call", started.append)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", started.append)
    out = blocker / "sub"
    assert main(["run", write_config(tmp_path, TINY), "--out", str(out),
                 *args]) == 1
    err = capsys.readouterr().err
    assert f"config error: out_dir: {out}: " in err
    assert "Traceback" not in err
    assert started == []  # no run and no pool
    assert blocker.read_text() == "a file\n"


def _custom_codec(name: str) -> str:
    """ONE_RUN with its codec replaced by a copy of G729 named name."""
    g729 = {"bitrate_kbps": 8.0, "packet_interval_ms": 20.0,
            "payload_bytes": 20, "ie": 11.0, "bpl": 19.0}
    return ONE_RUN.replace(  # JSON is YAML, and it escapes a NUL byte
        "codecs: [G729]", f"codecs: {json.dumps([name])}\n"
                          f"custom_codecs: {json.dumps({name: g729})}")


def _files_below(root: Path) -> set[Path]:
    return {path for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("text,key", [
    (_custom_codec("../../zz/esc"), "codecs"),
    (_custom_codec("a\0b"), "codecs"),
    (ONE_RUN.replace("directions: [cellular-to-wlan]",
                     "directions: [a/b-to-wlan]\n"
                     "interfaces: {a/b: {technology: wired, q_weight: 0.1}}"),
     "directions"),
], ids=["dot-dot", "nul", "slash-in-interface"])
def test_a_name_that_is_not_one_path_component_fails_validate(
        tmp_path, capsys, text, key):
    out = tmp_path / "oz" / "sub"
    cfg = write_config(tmp_path, text)
    before = _files_below(tmp_path)
    assert main(["validate", cfg]) == 1
    assert main(["run", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {key}: " in err
    assert "Traceback" not in err
    assert _files_below(tmp_path) == before
    assert [p for p in tmp_path.rglob("*") if p.is_dir()] == []


@pytest.mark.parametrize("text,bad_path", [
    (_custom_codec("C" * 250), "C" * 250 + "_hard_cellular-to-wlan"),
    (ONE_RUN + 'out_dir: "x\\0y"\n', "x\\x00y"),  # printed escaped
], ids=["name-too-long", "nul-in-out-dir"])
def test_a_directory_the_file_system_refuses_is_a_config_error(
        tmp_path, capsys, monkeypatch, text, bad_path):
    started = []
    monkeypatch.setattr(cli, "run_call", started.append)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, text)
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error: out_dir: " in err and bad_path in err
    assert "\0" not in err
    assert "Traceback" not in err
    assert started == []  # every directory is made before the first run
    assert _files_below(tmp_path) == {tmp_path / "config.yaml"}


def test_importing_the_cli_leaves_out_the_pool_and_statistics():
    """A serial run's setup imports neither; the bench times that import."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, sipswitch.cli; print(sorted({'multiprocessing', "
             "'statistics'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_a_parallel_value_below_one_is_a_usage_error(tmp_path, capsys,
                                                     value):
    cfg = write_config(tmp_path, ONE_RUN + f"out_dir: {tmp_path / 'out'}\n")
    assert main(["run", cfg, "--parallel", value]) == 1
    assert "--parallel: expected a whole number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_the_pool_starts_no_more_workers_than_runs(tmp_path, capsys,
                                                   monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def map(self, fn, tasks):
            return map(fn, tasks)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    four = write_config(tmp_path, TINY + f"out_dir: {tmp_path / 'four'}\n")
    assert main(["run", four, "--parallel", "64"]) == 0
    assert sizes == [4]   # 2 procedures x 2 repetitions
    one = write_config(tmp_path, ONE_RUN + f"out_dir: {tmp_path / 'one'}\n",
                       name="one.yaml")
    assert main(["run", one, "--parallel", "8"]) == 0
    assert sizes == [4]   # one run needs no pool


# base_seed 3 aborts the middle repetition only: --parallel 2 puts it in a
# chunk beside a good run, --parallel 3 in a chunk of its own
ABORTING = """
codecs: [G729]
procedures: [hard]
directions: [wlan-to-cellular]
repetitions: 3
base_seed: 3
call_duration_s: 3
switch_time_s: 1.5
signaling:
  fallback_timeout_ms: 700
interfaces:
  wlan:
    loss_prob: 0.05
  cellular:
    loss_prob: 0.3
"""


def test_the_chunk_split_never_changes_bytes(tmp_path, capsys):
    trees = {}
    for parallel in ("1", "2", "3"):   # chunks of 3, 2+1 and 1+1+1 runs
        out = tmp_path / f"out{parallel}"
        cfg = write_config(tmp_path, ABORTING + f"out_dir: {out}\n")
        assert main(["run", cfg, "--parallel", parallel]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert [r["aborted"] for r in manifest["cells"][0]["runs"]] == [
            False, True, False]
        trees[parallel] = {
            path.relative_to(out).as_posix():
                path.read_bytes().replace(str(out).encode(), b"OUT")
            for path in sorted(out.rglob("*")) if path.is_file()}
    assert "G729_hard_wlan-to-cellular/aggregate_dl.csv" in trees["1"]
    assert trees["2"] == trees["1"]
    assert trees["3"] == trees["1"]


def _campaign_peak_bytes(tmp_path, reps: int) -> int:
    config = load_config(write_config(tmp_path, """
codecs: [G729]
procedures: [hard]
directions: [wlan-to-cellular]
call_duration_s: 12
switch_time_s: 6
"""), overrides={"repetitions": reps, "out_dir": str(tmp_path / f"r{reps}")})
    tracemalloc.start()
    try:
        cli.run_campaign(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_campaign_memory_does_not_grow_with_repetitions(tmp_path, capsys):
    # each run's window series is folded into fixed-size sums and dropped
    assert (_campaign_peak_bytes(tmp_path, 8)
            <= 1.1 * _campaign_peak_bytes(tmp_path, 2))


def test_aborted_runs_exit_two_and_are_recorded(tmp_path, capsys):
    cfg = write_config(tmp_path, f"""
codecs: [G729]
procedures: [soft]
directions: [wlan-to-cellular]
repetitions: 1
call_duration_s: 6
switch_time_s: 3
out_dir: {tmp_path / 'out'}
interfaces:
  cellular:
    loss_prob: 1.0
""")
    assert main(["run", cfg]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    runs = [r for c in manifest["cells"] for r in c["runs"]]
    assert any(r["aborted"] for r in runs)
    assert any("aborted run" in w for w in manifest["warnings"])


def test_over_capacity_warning_reaches_stderr(tmp_path, capsys):
    cfg = write_config(tmp_path, """
codecs: [G711]
procedures: [hybrid]
repetitions: 1
call_duration_s: 6
switch_time_s: 3
""")
    assert main(["validate", cfg, "--preset", "campaign-B"]) == 0
    assert "over-capacity" in capsys.readouterr().err


def test_manifest_carries_no_timestamps(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY + f"out_dir: {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 0
    manifest = (tmp_path / "out" / "manifest.json").read_text()
    for word in ("time_stamp", "timestamp", "date", "hostname"):
        assert word not in manifest
