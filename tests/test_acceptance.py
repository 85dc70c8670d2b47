"""Acceptance gate: one test per criterion, each printing its own verdict.

The two expensive fixtures run the full preset campaigns once per session
and keep only reduced statistics, so every criterion reads from the same
runs instead of re-simulating.
"""

import json
import statistics
import time

import pytest

from sipswitch.cli import build_call_spec, load_config, main
from sipswitch.core import (
    CODEC_PRESETS,
    DL,
    LOSS_CLOSED,
    LOSS_QUEUE,
    UL,
)
from sipswitch.handoff import HandoffPhase, HandoffProcedure
from sipswitch.metrics import window_series
from sipswitch.scenario import run_call
from sipswitch.sip import DELIVERED, SipMethod
from sipswitch.traffic import read_trace

from emodel_terms import id_delay_impairment, ie_effective, r_factor
from trace_rows import lost_count, trace_rows

PROCS = ("hard", "hybrid", "soft")
CODECS = ("G711", "G729", "G723.1")
DIRECTIONS = ("wlan-to-cellular", "cellular-to-wlan")
REPS = 50

WINDOW_US = 60_000
RECOVERY_US = 2_000_000  # transition exclusion after the trigger


def _line_time(line: str) -> int:
    return int(line[1:line.index(",")])


def _register_times(signaling_lines):
    return [_line_time(l) for l in signaling_lines if " REGISTER," in l]


def _min_nontransition_r(series, t_trigger):
    lo = t_trigger - WINDOW_US
    hi = t_trigger + RECOVERY_US
    values = [m.r_factor for m in series
              if m.window_start < lo or m.window_start > hi]
    return min(values)


@pytest.fixture(scope="session")
def campaign_a(make_config):
    """All 3 procedures x 3 codecs x 2 directions x 50 seeds, reduced stats."""
    cfg = make_config(preset="campaign-A")
    cells = {}
    hybrid_soft_elapsed = 0.0
    for proc in PROCS:
        for codec in CODECS:
            profile = cfg.codec_profiles[codec]
            for direction in DIRECTIONS:
                stats = {
                    "lost": [], "lost_dl": [], "min_r": float("inf"),
                    "register_total": [], "register_mid_call": [],
                    "r_series_dl": [], "grid_dl": None,
                }
                t0 = time.perf_counter()
                for rep in range(REPS):
                    spec = build_call_spec(cfg, codec, proc, direction, rep)
                    result = run_call(spec)
                    assert not result.aborted, f"{spec.run_id} aborted"
                    assert result.state.phase is HandoffPhase.COMPLETED
                    stats["lost"].append(lost_count(result.trace))
                    stats["lost_dl"].append(
                        lost_count(result.trace, DL))

                    reg_times = _register_times(result.signaling.lines)
                    stats["register_total"].append(len(reg_times))
                    stats["register_mid_call"].append(
                        sum(1 for t in reg_times
                            if result.t_trigger <= t <= result.t_completed))

                    series_ul = window_series(result.trace, UL, profile)
                    series_dl = window_series(result.trace, DL, profile)
                    stats["min_r"] = min(
                        stats["min_r"],
                        _min_nontransition_r(series_ul, result.t_trigger),
                        _min_nontransition_r(series_dl, result.t_trigger))

                    if codec == "G711" and direction == "cellular-to-wlan":
                        grid = [m.window_start for m in series_dl]
                        if stats["grid_dl"] is None:
                            stats["grid_dl"] = grid
                        else:
                            assert stats["grid_dl"] == grid
                        stats["r_series_dl"].append(
                            [m.r_factor for m in series_dl])
                elapsed = time.perf_counter() - t0
                if proc in ("hybrid", "soft"):
                    hybrid_soft_elapsed += elapsed
                cells[(codec, proc, direction)] = stats
    return {"cells": cells, "hybrid_soft_elapsed": hybrid_soft_elapsed,
            "config": cfg, "t_trigger": 31_000_000}


@pytest.fixture(scope="session")
def campaign_b(make_config):
    """Campaign-B cells: losses per repetition for each codec x procedure."""
    cfg = make_config(preset="campaign-B")
    cells = {}
    for proc in PROCS:
        for codec in cfg.codecs:
            losses = []
            for rep in range(REPS):
                spec = build_call_spec(cfg, codec, proc, "cellular-to-wlan",
                                       rep)
                result = run_call(spec)
                assert not result.aborted, f"{spec.run_id} aborted"
                losses.append(lost_count(result.trace))
            cells[(codec, proc)] = losses
    return cells


# ---------------------------------------------------------------------------


def test_criterion_01_hybrid_and_soft_lose_nothing_fast(campaign_a):
    """Hybrid and soft over campaign-A: zero loss, full sweep under a minute."""
    for proc in ("hybrid", "soft"):
        for codec in CODECS:
            for direction in DIRECTIONS:
                losses = campaign_a["cells"][(codec, proc, direction)]["lost"]
                assert len(losses) == REPS
                assert losses == [0] * REPS, (proc, codec, direction)
    elapsed = campaign_a["hybrid_soft_elapsed"]
    assert elapsed < 60.0, f"600-run sweep took {elapsed:.1f} s"
    print(f"criterion 1 PASS: 600 hybrid/soft runs, zero loss, "
          f"{elapsed:.1f} s")


def test_criterion_02_hard_gap_matches_hand_computation(make_config):
    """Fixed delays: T_gap equals serialization+propagation exactly and the
    lost-packet count equals round(T_gap/interval) within +-1."""
    cfg = make_config(preset="campaign-A",
                      interfaces={"cellular": {"prop_delay_ms": 60}})
    expected_gap = {
        # re-INVITE rides the new interface's uplink
        "wlan-to-cellular": round(700 * 8000 / 384) + 60_000,   # 74583
        "cellular-to-wlan": round(700 * 8000 / 54000) + 5_000,  # 5104
    }
    checked = []
    for codec in CODECS:
        interval = cfg.codec_profiles[codec].packet_interval_us
        for direction in DIRECTIONS:
            spec = build_call_spec(cfg, codec, "hard", direction, 0)
            result = run_call(spec)
            assert not result.aborted

            close_line = next(l for l in result.handoff_log.lines
                              if f"close-{spec.switch_from}" in l)
            dst_line = next(l for l in result.handoff_log.lines
                            if "CN, dst-switch" in l)
            t_close, t_dst = _line_time(close_line), _line_time(dst_line)
            assert t_close == result.t_trigger == result.closed_old_at
            gap = t_dst - t_close
            assert gap == expected_gap[direction], (codec, direction)

            dl_lost = [r for r in trace_rows(result.trace, DL)
                       if r[6] is not None]
            assert all(r[6] == LOSS_CLOSED for r in dl_lost)
            assert all(t_close <= r[3] < t_dst for r in dl_lost)
            predicted = round(gap / interval)
            assert abs(len(dl_lost) - predicted) <= 1, (codec, direction)
            assert trace_rows(result.trace, UL) and all(
                r[6] is None for r in trace_rows(result.trace, UL))
            checked.append((codec, direction, gap, len(dl_lost), predicted))
    print(f"criterion 2 PASS: {checked}")


def test_criterion_03_hard_losses_ordered_by_target_link(campaign_a):
    """Hard toward the slow cellular link loses strictly more than hard
    toward the fast WLAN link, per codec, over 50 seeds."""
    for codec in CODECS:
        to_cell = campaign_a["cells"][(codec, "hard", "wlan-to-cellular")]
        to_wlan = campaign_a["cells"][(codec, "hard", "cellular-to-wlan")]
        mean_c = statistics.fmean(to_cell["lost"])
        mean_w = statistics.fmean(to_wlan["lost"])
        assert mean_c > mean_w, (codec, mean_c, mean_w)
    print("criterion 3 PASS: hard losses wlan->cellular exceed "
          "cellular->wlan for every codec")


def test_criterion_04_procedure_ordering_on_narrow_link(campaign_b):
    """Campaign-B (64 kbps cellular): hybrid <= soft < hard mean losses."""
    for codec in ("G729", "G723.1"):
        hybrid = statistics.fmean(campaign_b[(codec, "hybrid")])
        soft = statistics.fmean(campaign_b[(codec, "soft")])
        hard = statistics.fmean(campaign_b[(codec, "hard")])
        assert hybrid <= soft < hard, (codec, hybrid, soft, hard)
    print("criterion 4 PASS: hybrid <= soft < hard on campaign-B")


def test_criterion_05_steady_state_quality_above_threshold(campaign_a):
    """Every non-transition window keeps R above 70 for all codecs on both
    link types (checked across all 900 campaign-A runs, UL and DL)."""
    worst = {}
    for (codec, proc, direction), stats in campaign_a["cells"].items():
        worst[codec] = min(worst.get(codec, float("inf")), stats["min_r"])
        assert stats["min_r"] > 70.0, (codec, proc, direction,
                                       stats["min_r"])
    print(f"criterion 5 PASS: worst non-transition R per codec = "
          f"{ {k: round(v, 2) for k, v in worst.items()} }")


def test_criterion_06_aggregate_dip_shape(campaign_a):
    """Aggregated over 50 seeds (G711, cellular->wlan): hard dips sharply at
    the switch and recovers within 2 s; hybrid and soft never dip below the
    plateau minimum by more than one per-window standard deviation."""
    t_switch = campaign_a["t_trigger"]

    def aggregate_cell(proc):
        stats = campaign_a["cells"][("G711", proc, "cellular-to-wlan")]
        grid = stats["grid_dl"]
        series = stats["r_series_dl"]
        means, stds = [], []
        for idx in range(len(grid)):
            vals = [s[idx] for s in series]
            means.append(statistics.fmean(vals))
            stds.append(statistics.stdev(vals))
        return grid, means, stds

    def plateau(grid, means, lo_s, hi_s):
        vals = [m for start, m in zip(grid, means)
                if lo_s * 1_000_000 <= start < hi_s * 1_000_000]
        return statistics.fmean(vals)

    for proc in PROCS:
        grid, means, stds = aggregate_cell(proc)
        before = plateau(grid, means, 6, 26)
        after = plateau(grid, means, 36, 56)
        floor = min(before, after)
        transition = [m for start, m in zip(grid, means)
                      if t_switch <= start <= t_switch + RECOVERY_US]
        if proc == "hard":
            dip = min(transition)
            assert dip < floor - 20.0, f"hard dip {dip:.1f} vs floor {floor:.1f}"
            recovered = [m for start, m in zip(grid, means)
                         if start > t_switch + RECOVERY_US]
            assert all(m >= floor - 1.0 for m in recovered), "no recovery"
        else:
            for start, m, sd in zip(grid, means, stds):
                assert m >= floor - max(sd, 1e-9) - 1e-9, (
                    proc, start, m, sd, floor)
    print("criterion 6 PASS: hard dips >20 R below plateau and recovers; "
          "hybrid/soft stay within one std of the plateau floor")


def test_criterion_07_emodel_oracle_and_monotonicity():
    """Frozen hand-computed E-model values and R monotonicity in both
    delay and loss over a 20x20 grid."""
    g711, g729, g7231 = (CODEC_PRESETS[c] for c in CODECS)
    assert id_delay_impairment(100.0) == pytest.approx(2.4, abs=1e-9)
    assert id_delay_impairment(200.0) == pytest.approx(7.297, abs=1e-9)
    assert ie_effective(g729, 0.02, 1.0) == pytest.approx(19.0, abs=1e-9)
    assert ie_effective(g7231, 0.05, 2.0) == \
        pytest.approx(36.50537634408602, abs=1e-9)
    assert ie_effective(g711, 0.0, 1.0) == 0.0
    assert r_factor(0.0, 0.0, 1.0, g711) == 93.2
    assert r_factor(60.0, 0.0, 1.0, g7231) == pytest.approx(76.76, abs=1e-9)

    for codec in (g711, g729, g7231):
        delays = [25.0 * i for i in range(20)]
        losses = [i / 40.0 for i in range(20)]
        for p in losses:
            rs = [r_factor(d, p, 1.0, codec) for d in delays]
            assert all(a >= b for a, b in zip(rs, rs[1:]))
        for d in delays:
            rs = [r_factor(d, p, 1.0, codec) for p in losses]
            assert all(a >= b for a, b in zip(rs, rs[1:]))
    print("criterion 7 PASS: E-model oracles exact to 1e-9, R monotone "
          "in delay and loss")


def test_criterion_08_over_capacity_codec_is_detected(tmp_path, capsys):
    """G711 over the 64 kbps campaign-B cellular link: sustained steady-state
    DL queue-overflow loss above 15% and an explicit warning."""
    out = tmp_path / "out"
    cfg = tmp_path / "config.yaml"
    cfg.write_text(f"""
preset: campaign-B
codecs: [G711]
procedures: [hybrid]
repetitions: 2
out_dir: {out}
""")
    assert main(["run", str(cfg)]) == 0
    err = capsys.readouterr().err
    assert "over-capacity" in err and "G711" in err

    _, trace = read_trace(str(out / "G711_hybrid_cellular-to-wlan" / "r000"
                               / "trace.csv"))
    steady = [r for r in trace_rows(trace, DL)
              if 7_000_000 <= r[3] <= 27_000_000]
    lost = [r for r in steady if r[6] is not None]
    frac = len(lost) / len(steady)
    assert frac > 0.15, f"steady-state loss {frac:.3f}"
    assert all(r[6] == LOSS_QUEUE for r in lost)

    manifest = json.loads((out / "manifest.json").read_text())
    assert any("over-capacity" in w for w in manifest["warnings"])
    print(f"criterion 8 PASS: steady-state DL loss {frac:.1%} "
          f"(queue-overflow) with explicit warning")


def test_criterion_09_byte_identical_reruns_and_recomputation(tmp_path,
                                                              capsys):
    """Same seed, same config: byte-identical traces; metrics recomputed
    from the exported trace are byte-identical to the shipped ones."""
    cfg = tmp_path / "config.yaml"
    cfg.write_text("""
codecs: [G729]
procedures: [hard]
directions: [cellular-to-wlan]
repetitions: 1
call_duration_s: 6
switch_time_s: 3
""")
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    rel = "G729_hard_cellular-to-wlan/r000"
    for name in ("trace.csv", "metrics_ul.csv", "metrics_dl.csv"):
        assert (out1 / rel / name).read_bytes() == \
            (out2 / rel / name).read_bytes(), name

    run_dir = out1 / rel
    assert main(["recompute-metrics", str(run_dir / "trace.csv")]) == 0
    for name in ("ul", "dl"):
        assert (run_dir / f"metrics_{name}.csv").read_bytes() == \
            (run_dir / f"recomputed_metrics_{name}.csv").read_bytes()
    print("criterion 9 PASS: reruns and trace-based recomputation are "
          "byte-identical")


def test_criterion_10_registration_fallback_and_no_midcall_register(
        make_config, campaign_a):
    """INVITE forwarding walks the q-ordered contact list: dead top entry is
    retransmitted once, then the next entry answers within the fallback
    budget. Mid-call switches never re-REGISTER."""
    cfg = make_config(preset="campaign-A",
                      interfaces={"wlan": {"q_weight": 0.95}})
    spec = build_call_spec(cfg, "G711", "hybrid", "wlan-to-cellular", 0)
    spec.down_links = frozenset({"wlan-dl"})
    spec.call_start_us = 4_000_000   # setup needs room for the 2 s fallback
    spec.call_duration_us = 6_000_000
    spec.switch_offset_us = 3_000_000
    result = run_call(spec)
    assert not result.aborted
    assert result.state.phase is HandoffPhase.COMPLETED

    txn = result.setup_transaction
    assert txn.status == DELIVERED
    # attempts walk descending q: wlan (0.95) twice, then cellular (0.9)
    assert txn.attempts == [("wlan", 200_000), ("wlan", 700_000),
                            ("cellular", 2_200_000)]
    assert txn.via_iface == "cellular"
    elapsed = txn.completed_at - 200_000
    assert elapsed <= 2_500_000, f"fallback took {elapsed} us"

    register_times = _register_times(result.signaling.lines)
    assert register_times == [0]
    assert result.t_trigger == 7_000_000

    # across all 900 campaign-A runs: exactly one REGISTER, never mid-call
    for stats in campaign_a["cells"].values():
        assert stats["register_total"] == [1] * REPS
        assert stats["register_mid_call"] == [0] * REPS
    print(f"criterion 10 PASS: fallback delivered via second contact in "
          f"{elapsed / 1e6:.2f} s; no mid-call REGISTER in 900 runs")


def test_criterion_11_handshake_loss_interleavings_all_terminate(make_config):
    """Every subset of {first+retransmitted re-INVITE, first+retransmitted
    OK} lost, for all three procedures: each run ends Completed or
    watchdog-aborted, and no media is ever emitted from a Closed interface."""
    cfg = make_config(preset="campaign-A")
    events = [("REINVITE", 0), ("REINVITE", 1), ("OK", 0), ("OK", 1)]
    outcomes = {"completed": 0, "watchdog": 0}
    for proc in PROCS:
        for mask in range(16):
            plan = frozenset(ev for bit, ev in enumerate(events)
                             if mask & (1 << bit))
            spec = build_call_spec(cfg, "G729", proc, "wlan-to-cellular", 0)
            spec.call_duration_us = 15_000_000
            spec.switch_offset_us = 2_000_000
            spec.signaling_drop_plan = plan
            result = run_call(spec)
            if ("REINVITE", 0) in plan:
                # the plan reaches the wire: the first re-INVITE is dropped
                assert any(" REINVITE," in line and "dropped:forced" in line
                           for line in result.signaling.lines), (proc, plan)
            if result.aborted:
                assert result.abort_reason == "watchdog", (proc, plan)
                assert result.state.phase is HandoffPhase.SWITCHING
                outcomes["watchdog"] += 1
            else:
                assert result.state.phase is HandoffPhase.COMPLETED, (proc,
                                                                      plan)
                outcomes["completed"] += 1
            if result.closed_old_at is not None:
                for r in trace_rows(result.trace, UL):
                    if r[4] == spec.switch_from and r[5] is not None:
                        assert r[3] < result.closed_old_at, (proc, plan, r)
    assert outcomes["completed"] + outcomes["watchdog"] == 48
    # some interleavings lose the handshake for good
    assert outcomes["watchdog"] > 0, outcomes
    print(f"criterion 11 PASS: 48 interleavings -> {outcomes}")
