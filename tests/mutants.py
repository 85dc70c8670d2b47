"""Seeded mutants: small faults in the program that named tests must catch.

    python tests/mutants.py [NAME ...]

Each row of MUTANTS names a file of the repository, a text that occurs in
it exactly once, the text to put in its place, and the tests that must
then fail. For each row (all of them, or those named), the harness copies
src/, tests/, bench/ and pyproject.toml to a temporary directory (the
bench guards in tests/ read bench/), applies the row there, runs its tests
with pytest and prints `killed` or `SURVIVED`. It exits 1 if a mutant
survived or its tests could not run. test_mutants.py checks in tier 1 that
every row still applies and names tests that exist.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


AGREE = ("tests/test_traffic.py::"
         "test_agree_before_is_the_latest_time_before_which_packets_agree",)
SHARED_HEAD = ("tests/test_metrics_property.py::"
               "test_a_shared_head_changes_no_window_and_no_row",)
REUSE = ("tests/test_cli.py::"
         "test_a_run_takes_the_windows_before_the_trigger_from_the_last",)

MUTANTS = [
    Mutant("agree-one-packet-too-far", "src/sipswitch/traffic.py",
           "return min((d.gen[n] for d in (a, b) if n < len(d.gen)),",
           "return min((d.gen[n + 1] for d in (a, b) if n + 1 < len(d.gen)),",
           AGREE + SHARED_HEAD),
    Mutant("agree-on-gen-alone", "src/sipswitch/traffic.py",
           "for x, y in ((a.arrival, b.arrival), (a.gen, b.gen), "
           "(a.cause, b.cause)):",
           "for x, y in ((a.gen, b.gen),):",
           AGREE + SHARED_HEAD),
    Mutant("agree-at-the-later-time", "src/sipswitch/traffic.py",
           "return min((d.gen[n] for d",
           "return max((d.gen[n] for d",
           AGREE + SHARED_HEAD),
    Mutant("reuse-dropped", "src/sipswitch/cli.py",
           "earlier = previous and previous[0].directions.get(direction)",
           "earlier = None",
           REUSE),
    Mutant("shared-head-a-window-too-long", "src/sipswitch/metrics.py",
           "t_us - round(window_len_ms * US_PER_MS))",
           "t_us - round(window_len_ms * US_PER_MS)) + 1",
           SHARED_HEAD),
    Mutant("shared-head-one-window", "src/sipswitch/metrics.py",
           "return series.head(m), rows[:m]",
           "return series.head(min(m, 1)), rows[:min(m, 1)]",
           REUSE),
    Mutant("carried-values-reset-after-head", "src/sipswitch/metrics.py",
           "delay, ppl, br = (delays[-1], ppls[-1], brs[-1]) if m "
           "else (0.0,) * 3",
           "delay, ppl, br = (0.0,) * 3",
           SHARED_HEAD),
    Mutant("head-windows-not-cut", "src/sipswitch/metrics.py",
           "head = given.head(len(starts)) if given else WindowSeries()",
           "head = given if given else WindowSeries()",
           SHARED_HEAD),
    Mutant("head-rows-not-cut", "src/sipswitch/metrics.py",
           "rows = list(head[:len(series)])",
           "rows = list(head)",
           SHARED_HEAD),
    Mutant("delay-sums-from-his", "src/sipswitch/metrics.py",
           "first = los[m] if m < len(starts) else len(gens)",
           "first = his[m] if m < len(starts) else len(gens)",
           SHARED_HEAD),
]


def run(mutant: Mutant) -> str:
    """killed, SURVIVED or error: pytest's exit <code>."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns(
                                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy(ROOT / name, copy / name)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "error: the text does not occur exactly once"
        target.write_text(text.replace(mutant.old, mutant.new))
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "SURVIVED", 1: "killed"}.get(code, f"error: pytest's exit "
                                                  f"{code}")


def main(names: list[str]) -> int:
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in names] if names else MUTANTS
    start, failed = time.monotonic(), 0
    for mutant in chosen:
        outcome = run(mutant)
        failed += outcome != "killed"
        print(f"{mutant.name}: {outcome}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} killed in "
          f"{time.monotonic() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
