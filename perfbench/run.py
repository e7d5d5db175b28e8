"""Benchmark launcher for slagcy: one workload, one seed, one run.

    python3 perfbench/run.py --workload embed_float --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout (the program is imported from
the checkout's ``src/``).  With ``--trace 0`` the last line of standard
output is one JSON object with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a separate traced run.  The full
record of a run (environment, every sample, the spans) is written to
``.bench_out/`` in the checkout.  Workloads, metrics and their meaning are
described in ``perfbench/README.md``.

The launcher imports only the standard library.  It pins BLAS and OpenMP
to one thread, measures set-up time in fresh interpreters, then starts a
single worker process for the workload and waits for it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

SETUP_PROBES = 8        # timed fresh-interpreter imports before and again after the worker
WORKER_MARGIN_S = 140   # worker time allowed beyond --seconds: warm-up, one pass, traced probes
_READY = "import slagcy.cli, sys; sys.stdout.write(slagcy.cli.__file__ + '\\n'); sys.stdout.flush()"


def _env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure_setup(env: dict, warm_up: bool) -> list:
    """Seconds from starting a fresh interpreter until ``slagcy.cli`` is
    imported: SETUP_PROBES timed samples, after one untimed when ``warm_up``."""
    samples = []
    for k in range(SETUP_PROBES + warm_up):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _READY], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"cannot import slagcy.cli from {ROOT / 'src'}: {err.strip()}")
        if not Path(line.strip()).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"slagcy.cli was imported from {line.strip()}, "
                               "not from the checkout")
        if k or not warm_up:
            samples.append(dt)
    return samples


def run_worker(args, env: dict, workdir: Path, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--out", str(out)]
    timeout = args.seconds + WORKER_MARGIN_S
    with subprocess.Popen(cmd, cwd=ROOT, env=env) as proc:
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker exceeded {timeout:g} s")
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def declared(kind: str) -> dict:
    """{metric name: unit} of one metric list in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(rec: dict, setup: list) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_ref": statistics.median(rec["pass_walls_ref"]),
        "op_p50_ref": statistics.median(rec["op_latencies_ref"]),
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="slagcy benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "slagcy" / "cli.py").is_file():
        print(f"error: no slagcy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _env()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-",
                                    dir=ROOT / ".bench_work"))
    try:
        # Set-up is sampled on both sides of the worker, so that one slow
        # moment of a shared machine does not set the run's median.
        setup = [] if args.trace else measure_setup(env, warm_up=True)
        rec = run_worker(args, env, workdir, workdir / "record.json")
        setup += [] if args.trace else measure_setup(env, warm_up=False)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()     # only when no other run is using it

    correct = rec["failed"] == 0
    if args.trace:
        values = rec["layer"]
        if rec["replay_mismatches"] or values["families.reject_share_err"] != 0:
            correct = False
    else:
        values = end_to_end(rec, setup)
    units = declared("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: the run did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    rec["environment"] = {
        "git_sha": _git_sha(), "python": platform.python_version(), "numpy": rec.get("numpy"),
        "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace, "ops": rec["attempted"],
        "setup_samples_s": setup, "pass_ops": W.PASS_OPS[args.workload],
    }
    record = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(rec, indent=1), encoding="utf-8")
    env_line = ", ".join(f"{k}={v}" for k, v in rec["environment"].items()
                         if k != "setup_samples_s")
    print(f"# {env_line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": rec["attempted"], "failed": rec["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
