"""Golden-tree oracles: small lossy campaigns must reproduce, file for
file, the sha256 digests recorded next to this file.

The campaign of golden_tree.json is chosen to cross the signaling paths:
the registrar's retransmission and its fallback to the second contact, the
setup OK, re-INVITE and handoff OK retransmissions, watchdog aborts and
setup aborts (header-only traces). It does not deliver a repeated setup OK
to the CN, so it cannot tell whether the CN ACKs every copy or only the
first; test_the_cn_acks_only_the_first_setup_ok pins that. The campaign of golden_stride_tree.json
crosses the analysis paths: overlapping windows (60 ms at a 20 ms stride),
random loss on both links, a jittered trigger, and aggregation over two
repetitions per cell. A change meant to keep behaviour must leave the
digests alone; a deliberate artifact change re-records them and says so in
CHANGES.md.

Once the digests match, every run of the serial trees must also come back
byte for byte from its own files: read_trace and write_trace rewrite its
trace.csv, and recompute-metrics its metrics_{ul,dl}.csv, also for the
header-only trace of a run aborted before media. The real runs thus guard
the trace's row order, and not only through the digests.

golden_settings.json holds the manifest settings of configs the trees miss:
a third, wired interface with a delay range in fractional ms, a custom
codec written in integers, integral floats, and both presets. They are
compared as JSON text, so an int that turns into a float shows. Each is
also read back into a config (config_from_settings), which must write the
same text again.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sipswitch import traffic
from sipswitch.cli import build_call_spec, load_config, main
from sipswitch.config import config_as_dict, config_from_settings
from sipswitch.scenario import run_call
from sipswitch.traffic import read_trace, write_trace

GOLDEN = Path(__file__).with_name("golden_tree.json")
GOLDEN_STRIDE = Path(__file__).with_name("golden_stride_tree.json")
GOLDEN_SETTINGS = Path(__file__).with_name("golden_settings.json")

CONFIG = """
codecs: [G729]
procedures: [hard, hybrid, soft]
directions: [wlan-to-cellular]
repetitions: 6
base_seed: 8
call_duration_s: 3
switch_time_s: 1.5
log_events: true
signaling:
  fallback_timeout_ms: 700
interfaces:
  wlan:
    loss_prob: 0.05
  cellular:
    loss_prob: 0.3
"""


STRIDE_CONFIG = """
preset: campaign-B
codecs: [G729]
procedures: [hard, hybrid, soft]
directions: [cellular-to-wlan]
repetitions: 2
base_seed: 3
call_duration_s: 12
switch_time_s: 6
switch_jitter_s: 5
window_len_ms: 60
stride_ms: 20
interfaces:
  wlan:
    loss_prob: 0.02
  cellular:
    loss_prob: 0.02
"""


def tree_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under out_dir; the manifest's out_dir value,
    the one path-dependent byte string, is blanked first."""
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = data.replace(json.dumps(str(out_dir)).encode(), b'""')
        rel = path.relative_to(out_dir).as_posix()
        digests[rel] = hashlib.sha256(data).hexdigest()
    return digests


def check_runs_reproduce(out: Path) -> list[str]:
    """Rewrite every run's trace and recompute its metrics, each into a new
    file next to the original, and compare the bytes; returns each run's
    trace text."""
    texts = []
    for trace in sorted(out.rglob("trace.csv")):
        run_id, back = read_trace(str(trace))
        rewritten = trace.with_name("rewritten_trace.csv")
        write_trace(str(rewritten), run_id, back)
        assert rewritten.read_bytes() == trace.read_bytes(), trace
        assert main(["recompute-metrics", str(trace)]) == 0, trace
        for name in ("ul", "dl"):
            recomputed = trace.with_name(f"recomputed_metrics_{name}.csv")
            original = trace.with_name(f"metrics_{name}.csv")
            assert recomputed.read_bytes() == original.read_bytes(), trace
        texts.append(trace.read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(texts) == sum(len(cell["runs"]) for cell in manifest["cells"])
    return texts


def run_golden_campaign(tmp_path: Path, *args: str, config: str = CONFIG,
                        rc: int = 2) -> Path:
    out = tmp_path / "out"
    cfg = tmp_path / "golden.yaml"
    cfg.write_text(config + f"out_dir: {out}\n")
    assert main(["run", str(cfg), *args]) == rc  # 2: some runs abort
    return out


def test_golden_campaign_tree_is_unchanged(tmp_path, capsys):
    out = run_golden_campaign(tmp_path)
    logs = {p.parent.relative_to(out).as_posix(): p.read_text()
            for p in out.rglob("signaling.log")}
    # the campaign still crosses the paths it is meant to guard
    assert any(", INVITE, cn, mn, wlan," in log for log in logs.values())
    assert any(log.count(", INVITE, cn, mn, cellular,") == 2
               for log in logs.values())
    assert any(log.count(", REINVITE,") >= 2 for log in logs.values())

    got = tree_digests(out)
    want = json.loads(GOLDEN.read_text())
    if got != want:
        print(json.dumps(got, indent=2, sort_keys=True))
    assert got == want
    traces = check_runs_reproduce(out)
    assert any(text.count("\n") == 1 for text in traces)  # header only


def test_the_cn_acks_only_the_first_setup_ok(tmp_path):
    # CONFIG's G729 hybrid wlan-to-cellular cell at repetition 21: the CN's
    # ACK is lost, the MN resends its OK, and the CN does not ACK that
    # copy, so setup is incomplete at the call start. RFC 3261 13.3.1.4 has
    # a caller ACK every 2xx copy; a change to that end changes this test.
    cfg = tmp_path / "golden.yaml"
    cfg.write_text(CONFIG + f"out_dir: {tmp_path / 'out'}\n")
    spec = build_call_spec(load_config(str(cfg)), "G729", "hybrid",
                           "wlan-to-cellular", 21)
    assert spec.seed == 29
    result = run_call(spec)
    assert result.signaling.lines == [
        "(0, REGISTER, mn, registrar, cellular, delivered@51009)",
        "(200000, INVITE, cn, mn, cellular, delivered@262765)",
        "(262765, OK, mn, cn, cellular, delivered@315265)",
        "(315265, ACK, cn, mn, cellular, dropped:random-loss)",
        "(762765, OK, mn, cn, cellular, delivered@847207)"]
    assert (result.aborted, result.abort_reason) == (True, "setup-incomplete")


def test_golden_campaign_tree_is_unchanged_in_parallel(tmp_path, capsys):
    # serial and parallel runs must write byte-identical trees
    out = run_golden_campaign(tmp_path, "--parallel", "2")
    assert tree_digests(out) == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("args", [(), ("--parallel", "2")],
                         ids=["serial", "parallel"])
def test_golden_stride_tree_is_unchanged(tmp_path, capsys, args):
    out = run_golden_campaign(tmp_path, *args, config=STRIDE_CONFIG, rc=0)
    summary = (out / "loss_summary.csv").read_text()
    # the campaign still has loss, a lossy switch window and a nonzero std
    assert ",DL,2,0,13.0,1.4142135623730951," in summary
    assert summary.count(",100.0\n") == 1
    got = tree_digests(out)
    want = json.loads(GOLDEN_STRIDE.read_text())
    if got != want:
        print(json.dumps(got, indent=2, sort_keys=True))
    assert got == want
    if not args:
        check_runs_reproduce(out)


MEMO_BASE = """
procedures: [hard]
directions: [wlan-to-cellular]
repetitions: 2
call_duration_s: 12
switch_time_s: 6
"""
MEMO_CONFIGS = {
    "g729": "codecs: [G729]\n" + MEMO_BASE,
    "g723": "codecs: [G723.1]\n" + MEMO_BASE,
    "g729-stride": "codecs: [G729]\nstride_ms: 20\n" + MEMO_BASE,
}


def test_campaigns_in_one_process_write_what_each_writes_alone(tmp_path,
                                                                capsys):
    # The grid memo outlives a run: campaigns back to back in one process,
    # on the same grid, another grid, then the first grid at another
    # stride, must each write the tree of a fresh process.
    src = Path(__file__).resolve().parents[1] / "src"
    for name, config in MEMO_CONFIGS.items():
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(config)
        here, alone = tmp_path / name / "here", tmp_path / name / "alone"
        assert main(["run", str(cfg), "--out", str(here)]) == 0
        subprocess.run([sys.executable, "-m", "sipswitch.cli", "run",
                        str(cfg), "--out", str(alone)], check=True,
                       capture_output=True,
                       env={**os.environ, "PYTHONPATH": str(src)})
        assert tree_digests(here) == tree_digests(alone), name
    assert traffic.media_grid.cache_info().hits > 0
    assert traffic.media_grid.cache_info().maxsize is not None
    assert traffic._grid_bounds.cache_info().maxsize is not None


SHORT = "repetitions: 1\ncall_duration_s: 2\nswitch_time_s: 1\n"
SETTINGS_CONFIGS = {
    "wired-third-interface": """
codecs: [G729]
procedures: [soft]
directions: [wlan-to-wired]
interfaces:
  wired:
    technology: wired
    q_weight: 0.25
    prop_delay_ms: [0.5, 2]
""" + SHORT,
    "custom-codec": """
codecs: [X]
custom_codecs:
  X: {bitrate_kbps: 8, packet_interval_ms: 20, payload_bytes: 20, ie: 11,
      bpl: 19}
procedures: [hybrid]
directions: [cellular-to-wlan]
""" + SHORT,
    "integral-floats": """
codecs: [G723.1]
procedures: [hard]
directions: [wlan-to-cellular]
repetitions: 3.0
base_seed: 2.0
header_overhead_bytes: 40.0
call_duration_s: 2
switch_time_s: 1
window_len_ms: 120
stride_ms: 60.0
signaling: {rtx_interval_ms: 500.0, max_retransmissions: 2.0}
emodel: {r0: 93}
interfaces:
  wlan: {queue_capacity_pkts: 7.0, bitrate_kbps: 54000.0, prop_delay_ms: 5.0}
  cellular: {q_weight: 1, loss_prob: 0}
""",
    "preset-campaign-A": "preset: campaign-A\n" + SHORT,
    "preset-campaign-B": "preset: campaign-B\n" + SHORT,
}


@pytest.mark.parametrize("name", sorted(SETTINGS_CONFIGS))
def test_manifest_settings_are_unchanged(tmp_path, capsys, name):
    out = run_golden_campaign(tmp_path, config=SETTINGS_CONFIGS[name], rc=0)
    settings = json.loads((out / "manifest.json").read_text())["settings"]
    settings["out_dir"] = ""
    want = json.loads(GOLDEN_SETTINGS.read_text())[name]
    assert (json.dumps(settings, indent=2, sort_keys=True)
            == json.dumps(want, indent=2, sort_keys=True))
    # and the settings read back as the config that wrote them
    assert (json.dumps(config_as_dict(config_from_settings(want)), indent=2,
                       sort_keys=True)
            == json.dumps(want, indent=2, sort_keys=True))
