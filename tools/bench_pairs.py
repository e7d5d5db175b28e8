"""A/B pairs of the benchmark: the working tree against a parent commit.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_<n>.json \\
        --pairs phi_3d=10 --pairs embed_float=3 --pairs embed_exact=3 --pairs phi_2d=3

Each pair runs ``perfbench/run.py --trace 0`` for the ``run_seconds`` of
``BENCHMARK.json`` once on the working tree and once on an export of
``--parent`` (``git archive`` into a temporary directory), both on the same
seed; pair k of a workload uses seed 301 + k, so that BENCH files compare
across changes, and the side that goes first alternates from pair to pair,
so that an order bias cancels.  The output JSON holds, per workload and
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles,
how many pairs the working tree won (better in the metric's declared
direction) and every pair's values.  It names the code of both sides: the
parent's commit, the working tree's HEAD and whether it had local changes,
and for each side the git tree SHA of ``src`` and ``perfbench``, which
``git rev-parse <commit>:src`` matches once the working tree is committed.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 301  # the seed of each workload's pair 0
MEASURED = ("src", "perfbench")  # the directories whose code a run executes


def summary(values) -> dict:
    """Median and quartiles (inclusive method) of the values, n = 1 included."""
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def wins(parent, change, better: str) -> int:
    """The pairs in which ``change`` is strictly better than ``parent``."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def compare(pairs: list, metrics: dict) -> dict:
    """Per metric: each side's summary, the change's wins, and the relative change
    of the medians; ``metrics`` maps a metric to its better direction."""
    out = {}
    for name, better in metrics.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        before, after = summary(parent), summary(change)
        out[name] = {"parent": before, "change": after, "wins": wins(parent, change, better),
                     "pairs": len(pairs), "better": better,
                     "median_delta": (after["median"] - before["median"]) / before["median"]
                     if before["median"] else None}
    return out


def parse_pairs(specs) -> dict:
    """``["phi_3d=10", ...]`` -> {"phi_3d": 10, ...}, in the order given."""
    out = {}
    for spec in specs:
        name, sep, count = spec.partition("=")
        if not sep or not count.isdigit() or int(count) < 1:
            raise ValueError(f"bad --pairs {spec!r}: need WORKLOAD=COUNT, COUNT >= 1")
        out[name] = int(count)
    return out


def _git(*args, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def working_trees() -> dict:
    """The git tree SHA of each ``MEASURED`` directory as the working tree has it, built
    in a scratch index so that the repository's own index stays as it is."""
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git("add", "--all", "--", *MEASURED, env=env)
        root = _git("write-tree", env=env)
    return {path: _git("rev-parse", f"{root}:{path}") for path in MEASURED}


def export(rev: str, into: Path) -> None:
    """The files of commit ``rev`` written below ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metric values of one ``perfbench/run.py --trace 0`` run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed its own checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=COUNT")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)
    try:
        counts = parse_pairs(args.pairs)
    except ValueError as exc:
        ap.error(str(exc))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent_sha = _git("rev-parse", args.parent)
    record = {"parent": {"commit": parent_sha,
                         "trees": {path: _git("rev-parse", f"{parent_sha}:{path}")
                                   for path in MEASURED}},
              "change": {"head": _git("rev-parse", "HEAD"),
                         "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
                         "trees": working_trees()},
              "seconds": spec["run_seconds"], "python": platform.python_version(),
              "machine": platform.machine(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        export(parent_sha, parent)
        for workload, count in counts.items():
            pairs = []
            for k in range(count):
                seed, sides = SEED + k, {"parent": parent, "change": ROOT}
                order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    start = time.perf_counter()
                    pair[side] = run_once(sides[side], workload, seed, spec["run_seconds"])
                    print(f"{workload} seed {seed} {side}: wall_ref "
                          f"{pair[side]['wall_ref']:.4g} ({time.perf_counter() - start:.0f} s)",
                          file=sys.stderr)
                pairs.append(pair)
            record["workloads"][workload] = {"metrics": compare(pairs, metrics), "pairs": pairs}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
