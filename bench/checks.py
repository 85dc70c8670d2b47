"""Output checks on a campaign's artifact tree, made outside any timing.

The checks read only the files ``sipswitch run`` writes, so they hold the
program to its file contract rather than to its internals:

- every expected run directory exists, and each stream of a run that did
  not abort carries exactly the packets its codec's cadence implies;
- ``aggregate_*.csv`` agrees within ``REL_TOL`` with the mean and sample
  standard deviation recomputed here with ``math.fsum``;
- ``loss_summary.csv`` agrees the same way with the per-run traces and
  handoff logs;
- digests: per-run digests against the golden file (at the seed it was
  captured with), and whole trees against each other (determinism).

Every failed check names the runs it affects; a cell-level file that is
wrong fails every run of its cell.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Relative agreement demanded of aggregates against the fsum reference.
# Loose enough for an ulp-level change in how the standard deviation is
# computed; tight enough that any changed input value shows.
REL_TOL = 1e-9
ABS_TOL = 1e-12

AGGREGATED = ("mean_delay_ms", "ppl", "burst_r", "r_factor")
DIRECTIONS = ("ul", "dl")


def artifact_digest(files: dict[str, bytes]) -> str:
    """One digest over named file contents, independent of their order."""
    outer = hashlib.sha256()
    for name in sorted(files):
        inner = hashlib.sha256(files[name]).hexdigest()
        outer.update(f"{name}\0{inner}\n".encode())
    return outer.hexdigest()


def _is_recomputed(path: Path) -> bool:
    return path.name.startswith("recomputed_")


def run_digests(out_dir: Path) -> dict[str, str]:
    """``<cell>/rNNN`` -> digest of every artifact file in that run."""
    digests = {}
    for run_dir in sorted(out_dir.glob("*/r[0-9][0-9][0-9]")):
        files = {p.name: p.read_bytes() for p in run_dir.iterdir()
                 if p.is_file() and not _is_recomputed(p)}
        digests[f"{run_dir.parent.name}/{run_dir.name}"] = \
            artifact_digest(files)
    return digests


def tree_digest(out_dir: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file, with the manifest's
    ``out_dir`` setting left out (it names where the tree was written)."""
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file() or _is_recomputed(path):
            continue
        data = path.read_bytes()
        if path.name == "manifest.json" and path.parent == out_dir:
            try:
                manifest = json.loads(data)
                manifest.get("settings", {}).pop("out_dir", None)
                data = json.dumps(manifest, sort_keys=True).encode()
            except ValueError:
                pass
        digests[str(path.relative_to(out_dir))] = \
            hashlib.sha256(data).hexdigest()
    return digests


def cell_view(out_dir: Path, cells: list[str]) -> dict[str, str]:
    """Digests of everything a campaign wrote for ``cells``: their files,
    their rows of ``loss_summary.csv`` and their manifest entries."""
    view = {k: v for k, v in tree_digest(out_dir).items()
            if k.split("/")[0] in cells}
    lines = (out_dir / "loss_summary.csv").read_bytes().splitlines()
    for cell in cells:
        prefix = cell.encode() + b","
        rows = b"\n".join(row for row in lines if row.startswith(prefix))
        view[f"{cell}/loss_summary.csv rows"] = \
            hashlib.sha256(rows).hexdigest()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for entry in manifest["cells"]:
        if entry["cell_id"] in cells:
            view[f"{entry['cell_id']}/manifest.json entry"] = hashlib.sha256(
                json.dumps(entry, sort_keys=True).encode()).hexdigest()
    return view


def affected_runs(relpath: str, run_keys: list[str]) -> list[str]:
    """The runs a wrong file stands for: its own run, its cell, or all."""
    parts = Path(relpath).parts
    if len(parts) >= 3 and f"{parts[0]}/{parts[1]}" in run_keys:
        return [f"{parts[0]}/{parts[1]}"]
    if len(parts) >= 2:
        mine = [k for k in run_keys if k.startswith(parts[0] + "/")]
        if mine:
            return mine
    return list(run_keys)


def compare_trees(reference: dict[str, str], other: dict[str, str],
                  run_keys: list[str], what: str) -> dict[str, str]:
    failures = {}
    for relpath in sorted(set(reference) | set(other)):
        if reference.get(relpath) != other.get(relpath):
            for key in affected_runs(relpath, run_keys):
                failures.setdefault(key, f"{what}: {relpath} differs")
    return failures


def fsum_mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def fsum_stdev(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = fsum_mean(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values)
                     / (len(values) - 1))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class CampaignChecker:
    """Checks one campaign tree written for ``cells`` x ``reps`` runs."""

    def __init__(self, out_dir: Path, cells: list[str], reps: int):
        self.out_dir = out_dir
        self.cells = cells
        self.run_keys = [f"{cell}/r{rep:03d}" for cell in cells
                         for rep in range(reps)]
        self.failures: dict[str, str] = {}
        self.aborted: set[str] = set()
        self.settings: dict = {}
        self.codec_of: dict[str, str] = {}

    def fail(self, keys, reason: str) -> None:
        for key in keys:
            self.failures.setdefault(key, reason)

    def check(self, golden: dict[str, str] | None = None) -> dict[str, str]:
        if not self._read_manifest():
            return self.failures
        per_run = {}
        for key in self.run_keys:
            if key in self.aborted:
                # A simulated outcome: its files must exist, nothing more.
                if not (self.out_dir / key / "trace.csv").is_file():
                    self.fail([key], "aborted run wrote no trace.csv")
                continue
            try:
                per_run[key] = self._check_run(key)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                self.fail([key], f"unreadable run: "
                                 f"{type(exc).__name__}: {exc}")
        for cell in self.cells:
            try:
                self._check_cell(cell, per_run)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                self.fail([k for k in self.run_keys
                           if k.startswith(cell + "/")],
                          f"{cell}: unreadable aggregate: {exc}")
        try:
            self._check_loss_summary(per_run)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            self.fail(self.run_keys, f"unreadable loss_summary.csv: {exc}")
        if golden is not None:
            digests = run_digests(self.out_dir)
            for key in self.run_keys:
                if key in golden and digests.get(key) != golden[key]:
                    self.fail([key], "differs from the golden digest")
        return self.failures

    def _read_manifest(self) -> bool:
        try:
            manifest = json.loads((self.out_dir / "manifest.json").read_text())
            self.settings = manifest["settings"]
            seen = set()
            for cell in manifest["cells"]:
                self.codec_of[cell["cell_id"]] = cell["codec"]
                for idx, run in enumerate(cell["runs"]):
                    key = f"{cell['cell_id']}/r{idx:03d}"
                    seen.add(key)
                    if run["aborted"]:
                        self.aborted.add(key)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.fail(self.run_keys, f"no usable manifest.json: {exc}")
            return False
        missing = [k for k in self.run_keys if k not in seen]
        self.fail(missing, "run missing from manifest.json")
        return True

    def _check_run(self, key: str) -> dict:
        """Per-stream packet counts, and the loss facts the summary needs,
        of a run that did not abort."""
        cell = key.split("/")[0]
        run_dir = self.out_dir / key
        run_id = f"{cell}_{run_dir.name}"
        data = (run_dir / "trace.csv").read_bytes()
        codec = self.settings["codec_profiles"][self.codec_of[cell]]
        interval_us = round(codec["packet_interval_ms"] * 1000)
        call_us = round(self.settings["call_duration_s"] * 1_000_000)
        per_stream = call_us // interval_us + 1
        counts = {name: data.count(f"\n{run_id},{name},".encode())
                  for name in DIRECTIONS}
        for name, count in counts.items():
            if count != per_stream:
                self.fail([key], f"stream {name}: {count} packets, "
                                 f"expected {per_stream}")
        first = data.split(b"\n", 2)[1].split(b",")
        start_us = int(first[4])
        lost_gen = {"UL": [], "DL": []}
        pos = data.find(b",,")
        while pos != -1:
            line_start = data.rfind(b"\n", 0, pos) + 1
            line_end = data.find(b"\n", pos)
            fields = data[line_start:line_end].split(b",")
            lost_gen[fields[2].decode()].append(int(fields[4]))
            pos = data.find(b",,", line_end)
        t_trigger = t_completed = None
        for line in (run_dir / "handoff.log").read_text().splitlines():
            fields = [f.strip() for f in line.strip("()").split(",")]
            if fields[2] == "trigger" and t_trigger is None:
                t_trigger = int(fields[0])
            if fields[4] == "Completed" and t_completed is None:
                t_completed = int(fields[0])
        return {"counts": counts, "lost_gen": lost_gen, "start_us": start_us,
                "interval_us": interval_us, "t_trigger": t_trigger,
                "t_completed": t_completed}

    def _good(self, cell: str, per_run: dict) -> list[str]:
        return [k for k in self.run_keys
                if k.startswith(cell + "/") and k in per_run]

    def _check_cell(self, cell: str, per_run: dict) -> None:
        good = self._good(cell, per_run)
        if not good:
            return
        for name in DIRECTIONS:
            columns = {f: [] for f in AGGREGATED}
            starts = None
            for key in good:
                with open(self.out_dir / key / f"metrics_{name}.csv",
                          newline="") as fh:
                    rows = list(csv.DictReader(fh))
                run_starts = [int(r["window_start_us"]) for r in rows]
                if starts is None:
                    starts = run_starts
                elif run_starts != starts:
                    self.fail([key], f"metrics_{name}.csv window grid "
                                     f"differs within {cell}")
                    continue
                for f in AGGREGATED:
                    columns[f].append([float(r[f]) for r in rows])
            with open(self.out_dir / cell / f"aggregate_{name}.csv",
                      newline="") as fh:
                agg = list(csv.DictReader(fh))
            if [int(r["window_start_us"]) for r in agg] != starts:
                self.fail([k for k in self.run_keys
                           if k.startswith(cell + "/")],
                          f"{cell}/aggregate_{name}.csv: window grid differs")
                continue
            for idx, row in enumerate(agg):
                for f in AGGREGATED:
                    values = [series[idx] for series in columns[f]]
                    if not (_close(float(row[f"{f}_mean"]), fsum_mean(values))
                            and _close(float(row[f"{f}_std"]),
                                       fsum_stdev(values))):
                        self.fail(
                            [k for k in self.run_keys
                             if k.startswith(cell + "/")],
                            f"{cell}/aggregate_{name}.csv: {f} at window "
                            f"{row['window_start_us']} disagrees")
                        break

    def _check_loss_summary(self, per_run: dict) -> None:
        with open(self.out_dir / "loss_summary.csv", newline="") as fh:
            rows = {(r["cell_id"], r["media_direction"]): r
                    for r in csv.DictReader(fh)}
        for cell in self.cells:
            good = self._good(cell, per_run)
            cell_keys = [k for k in self.run_keys if k.startswith(cell + "/")]
            aborted = [k for k in cell_keys if k in self.aborted]
            for name in DIRECTIONS:
                direction = name.upper()
                row = rows.get((cell, direction))
                if not good:
                    continue
                if row is None:
                    self.fail(cell_keys, f"loss_summary.csv: no row for "
                                         f"{cell} {direction}")
                    continue
                lost, pct_call, pct_switch = [], [], []
                for key in good:
                    run = per_run[key]
                    gens = run["lost_gen"][direction]
                    generated = run["counts"][name]
                    lost.append(len(gens))
                    pct_call.append(100.0 * len(gens) / generated)
                    lo, hi = run["t_trigger"], run["t_completed"]
                    if lo is None or hi is None:
                        continue
                    start, step = run["start_us"], run["interval_us"]
                    first = max(0, -((start - lo) // step))
                    last = min(generated - 1, (hi - start) // step)
                    in_window = max(0, last - first + 1)
                    if in_window:
                        pct_switch.append(100.0 * sum(
                            1 for t in gens if lo <= t <= hi) / in_window)
                expected = {
                    "repetitions": len(good), "aborted_runs": len(aborted),
                    "mean_lost_packets": fsum_mean(lost),
                    "std_lost_packets": fsum_stdev(lost),
                    "mean_loss_pct_whole_call": fsum_mean(pct_call),
                    "mean_loss_pct_switch_window": (
                        fsum_mean(pct_switch) if pct_switch else 0.0),
                }
                for column, value in expected.items():
                    if not _close(float(row[column]), value):
                        self.fail(cell_keys, f"loss_summary.csv: {cell} "
                                             f"{direction} {column} disagrees")
                        break

    def check_recomputed(self, keys: list[str]) -> None:
        """``recompute-metrics`` must reproduce each run's metric files."""
        for key in keys:
            for name in DIRECTIONS:
                original = self.out_dir / key / f"metrics_{name}.csv"
                again = self.out_dir / key / f"recomputed_metrics_{name}.csv"
                if not again.is_file() or \
                        again.read_bytes() != original.read_bytes():
                    self.fail([key], f"recomputed metrics_{name}.csv "
                                     f"differs or is missing")
