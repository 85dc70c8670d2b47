"""Self-tests of the benchmark harness: tiny runs of every workload, fault
injection, and the refusal to run without the program's source.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
from trace_layers import signaling_counts  # noqa: E402

WORKLOADS = list(run.WORKLOADS)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def tiny(workload: str, *extra: str) -> dict:
    code, lines = bench("--workload", workload, "--size", "tiny",
                        "--seconds", "1", *extra)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    result["record"] = json.loads(lines[-2])
    return result


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section):
    result = tiny(workload, "--trace", trace)
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared(section)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        recorded = result["record"]["metrics"]
        assert {n: m["unit"] for n, m in recorded.items()} == run.RECORDED
        assert recorded["fail_ratio"]["value"] == 0


@pytest.mark.parametrize("seed", ["1", "2"])
def test_flipped_metrics_byte_is_a_failure(seed):
    # The aggregate check catches both; at seed 1 the golden digests too.
    result = tiny("campaign-a", "--seed", seed, "--inject", "flip-metrics")
    assert not result["correct"] and result["failed"] >= 1


@pytest.mark.parametrize("workload", ["call-sweep", "campaign-a"])
def test_exception_in_a_call_is_a_failure(workload):
    result = tiny(workload, "--inject", "raise")
    assert not result["correct"] and result["failed"] >= 1
    if workload == "call-sweep":   # one call raised, the others ran
        assert result["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "campaign-a", "--seconds", "1",
                        cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_fsum_reference_matches_statistics():
    import statistics
    values = [93.07928, 92.5, 91.25, 93.07928, 80.0]
    assert checks.fsum_stdev(values) == pytest.approx(
        statistics.stdev(values), rel=1e-12)
    assert checks.fsum_stdev([5.0]) == 0.0


def test_signaling_counts_separate_retransmissions_from_acks():
    lines = [
        "(0, REGISTER, mn, registrar, cellular, delivered@1)",
        "(200000, INVITE, cn, mn, cellular, dropped:random-loss)",
        "(700000, INVITE, cn, mn, cellular, delivered@2)",
        "(2200000, INVITE, cn, mn, wlan, delivered@3)",
        "(3, OK, mn, cn, wlan, delivered@4)",
        "(4, ACK, cn, mn, wlan, delivered@5)",
        "(5, ACK, cn, mn, wlan, delivered@6)",
    ]
    assert signaling_counts(lines) == {"sends": 7, "retransmissions": 1,
                                       "sip_dropped": 1}


def test_scaled_times_follow_the_reference_kernel():
    nominal = run.NOMINAL_S
    # A call next to kernels twice the nominal time ran on a host at half
    # the nominal speed: it counts half its host seconds.
    assert run.scaled(0.1, 2 * nominal, 2 * nominal) == pytest.approx(0.05)
    assert run.scaled(0.1, nominal, 3 * nominal) == pytest.approx(0.05)
    # Work outside the calls is scaled by the unit's median kernel time.
    runs = [(0.2, nominal, nominal), (0.4, 2 * nominal, 2 * nominal)]
    assert run.scaled_unit(1.0, runs) == pytest.approx(0.2 + 0.2 + 0.4 / 1.5)
