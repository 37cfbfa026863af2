#!/usr/bin/env python3
"""Paired benchmark runs of two commits, summarised as one JSON file.

Exports each commit with ``git archive`` into a temporary directory, then
runs ``bench/run.py`` of each export on every workload of ``BENCHMARK.json``
for its ``run_seconds``, in ``PAIRS`` pairs that alternate which commit runs
first.  Both sides of a pair use the same seed.  For each workload and
end-to-end metric it writes every run's value, each side's median and
quartiles, and how many pairs the head commit won (a tie counts for neither
side), with the commits both revisions resolved to and the host it ran on.
Each successful run also records ``min_batch_samples``, the fewest host-speed
samples in any of its batches (the shortest list of ``kernel_wall_s`` in its
``bench/runs/<workload>.times.json``); a batch with none makes ``bench/run.py``
exit with ``StatisticsError``, so each side's minimum shows the margin left.
A run that exits non-zero is recorded under ``failed_runs`` with its exit
code and the tail of its stderr; a pair with a failed side counts in no
``head_wins`` and no ``pairs``, and its other side's values stay in ``runs``.
Run from the repository root:

    python3 tools/bench_pairs.py --base <commit> --head <commit> --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

PAIRS = 10
SEEDS = range(101, 101 + PAIRS)
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


def git(*argv: str) -> bytes:
    return subprocess.run(["git", *argv], capture_output=True, check=True).stdout


def export(commit: str, tree: Path) -> Path:
    tree.mkdir()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(tree, filter="data")
    return tree


def run(tree: Path, workload: str, seed: int) -> dict:
    """One run's checks, metrics and ``min_batch_samples``, or its exit code and stderr tail if it failed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        return {"exit_code": done.returncode, "stderr_tail": done.stderr[-2000:]}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    times = json.loads((tree / "bench" / "runs" / f"{workload}.times.json").read_text(encoding="utf-8"))
    return {"correct": result["correct"], "failed": result["failed"], "attempted": result["attempted"],
            "min_batch_samples": min(map(len, times["kernel_wall_s"])),
            **{m["name"]: result["metrics"][m["name"]]["value"] for m in BENCHMARK["end_to_end"]}}


def summary(values: list[float]) -> dict:
    if len(values) < 2:  # too few runs for quartiles
        return {"median": values[0] if values else None, "q1": None, "q3": None, "runs": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(runs: dict[str, list[dict]]) -> dict:
    """One workload's entry from the ``run`` results of each side, in pair order."""
    ok = {side: [r for r in rs if "exit_code" not in r] for side, rs in runs.items()}
    entry = {side: {"correct": all(r["correct"] for r in rs), "failed": sum(r["failed"] for r in rs),
                    "attempted": sum(r["attempted"] for r in rs)} for side, rs in ok.items()}
    entry["min_batch_samples"] = {side: {"min": min((r["min_batch_samples"] for r in rs), default=None),
                                         "runs": [r["min_batch_samples"] for r in rs]} for side, rs in ok.items()}
    pairs = [(b, h) for b, h in zip(runs["base"], runs["head"]) if "exit_code" not in b and "exit_code" not in h]
    for metric in BENCHMARK["end_to_end"]:
        m, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        entry[m] = {side: summary([r[m] for r in rs]) for side, rs in ok.items()}
        entry[m]["head_wins"] = sum(sign * h[m] < sign * b[m] for b, h in pairs)
        entry[m]["pairs"] = len(pairs)
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--head", required=True, help="commit of the change")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in (("base", args.base), ("head", args.head))}
    report = {"command": " ".join(["python3", *sys.argv]), **commits,
              "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version(), "numpy": np.__version__},
              "seconds": BENCHMARK["run_seconds"], "seeds": list(SEEDS), "workloads": {}, "failed_runs": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: export(commit, Path(tmp) / side) for side, commit in commits.items()}
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            runs = {"base": [], "head": []}
            for i, seed in enumerate(SEEDS):
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    result = run(trees[side], workload, seed)
                    runs[side].append(result)
                    if "exit_code" in result:
                        report["failed_runs"].append({"side": side, "workload": workload, "seed": seed, **result})
                print(workload, seed, {s: runs[s][-1].get("wall_s", "failed") for s in runs}, file=sys.stderr)
            report["workloads"][workload] = compare(runs)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
