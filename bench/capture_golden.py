"""Write ``golden.json``: per-run artifact digests at the golden seed.

    python3 bench/capture_golden.py

Runs the campaign-a and lossy-stride campaigns and one call-sweep round at
full size, untraced, and stores the digest of every run's trace, metrics
and logs. ``run.py`` compares against them whenever it runs at that seed.
Capture again only when an artifact changes on purpose, and record why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from checks import run_digests
from run import GOLDEN_FILE, GOLDEN_SEED, Bench, BenchError


def capture(workload: str) -> dict[str, str]:
    args = argparse.Namespace(workload=workload, seed=GOLDEN_SEED,
                              seconds=0, trace=0, size="full", inject=None)
    bench = Bench(args)
    bench.golden = None
    try:
        bench.validate()
        if bench.kind == "sweep":
            req = {"config": str(bench.config_path),
                   "unit_dir": str(bench.work), "seconds": 0,
                   "digest_rounds": 1, "min_rounds": 1, "max_rounds": 1}
            reply, _, error = bench.unit("sweep", req, "sweep")
            if error or reply["failures"]:
                raise BenchError(error or reply["failures"])
            return reply["digests"][0]
        out, reply, error = bench.run_campaign_unit("unit0", 1, False)
        if error:
            raise BenchError(error)
        return run_digests(out)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def main() -> int:
    golden = {"seed": GOLDEN_SEED}
    for workload in ("call-sweep", "campaign-a", "lossy-stride"):
        golden[workload] = capture(workload)
        print(f"{workload}: {len(golden[workload])} runs", file=sys.stderr)
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
