"""Benchmark for lgmirror.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) as a closed loop of ops in a fresh
interpreter per repetition, repeating while the next repetition is expected
to end within S seconds.  With --trace 0 it reports the end-to-end metrics;
with --trace 1 it alternates plain and traced repetitions and reports the
per-layer metrics and the tracing overhead.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

``--workload all`` runs every workload both ways and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("identities", "atlas", "critical", "combinatorics")
END_TO_END = [
    ("setup_s", "s"),
    ("run_cal", "cal"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]
SETUP_PAIRS = 5
# Nominal wall time of a fresh worker interpreter that imports numpy and no
# lgmirror: about its median on the 2-core host the bounds were set on.
# setup_s is measured in units of that start and reported at this value
# (see README.md, "Why setup_s is paired").
NUMPY_PROCESS_S = 0.15
WORKER_TIMEOUT_S = 150
# fixed so that set and dict iteration order, and with it every exact
# count, repeats from run to run
HASH_SEED = "0"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn(workload: str, seed: int, tmp: str, *flags: str) -> dict:
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--tmp", tmp, "--spawned-at", repr(time.time()), *flags,
    ]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran over {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """(plain repetitions, traced repetitions, set-up samples).

    A set-up sample is a pair of wall times: a fresh worker that imports
    numpy only, then one that imports lgmirror.cli.  The clock that
    ``seconds`` bounds starts before the first spawn.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "lgmirror", "cli.py")):
        raise BenchError(f"no lgmirror source under {os.path.join(ROOT, 'src')}")
    start = time.perf_counter()
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    extra = ["--smoke"] if smoke else []
    try:
        # untimed: the first import in a checkout writes the bytecode caches
        _spawn(workload, seed, tmp, "--import-only")
        setup = []
        for _ in range(0 if trace else 1 if smoke else SETUP_PAIRS):
            ref = _spawn(workload, seed, tmp, "--numpy-only")["import_s"]
            own = _spawn(workload, seed, tmp, "--import-only")["import_s"]
            setup.append((own, ref))
        plain, traced, rep_s = [], [], []
        while True:
            t0 = time.perf_counter()
            plain.append(_spawn(workload, seed, tmp, *extra))
            if trace:
                traced.append(_spawn(workload, seed, tmp, "--trace", *extra))
            rep_s.append(time.perf_counter() - t0)
            # stop unless a repetition as slow as the slowest so far still fits
            if time.perf_counter() - start + max(rep_s) > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return plain, traced, setup


def summarize(plain: list, traced: list, setup: list, trace: bool) -> dict:
    reps = plain + traced
    ops = [op for rep in reps for op in rep["ops"]]
    wrong = sum(1 for op in ops if op["problem"])
    unexpected = sum(1 for op in ops if op["problem"] and not op["known_defect"])
    if trace:
        metrics = {
            name: statistics.median(rep["layers"][name] for rep in traced)
            for name, _ in tracing.PER_LAYER
            if name not in tracing.RUN_LEVEL
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(r["run_cal"] for r in traced)
            / statistics.median(r["run_cal"] for r in plain)
            - 1.0
        )
        metrics["wall.run_s"] = statistics.median(r["run_s"] for r in plain)
        metrics["wall.kernel_s"] = statistics.median(r["kernel_s"] for r in plain)
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {
            "setup_s": NUMPY_PROCESS_S * statistics.median(own / ref for own, ref in setup),
            "run_cal": statistics.median(r["run_cal"] for r in plain),
            "ok_frac": (len(ops) - wrong) / len(ops),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = dict(END_TO_END)
    return {
        "correct": unexpected == 0,
        "attempted": len(ops),
        "failed": unexpected,
        "wrong": wrong,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def report(workload: str, seed: int, plain: list, traced: list, setup: list, summary: dict):
    """Human-readable lines; the JSON result follows them."""
    first = plain[0]
    meta = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **first["meta"],
        "hash_seed": HASH_SEED,
        "git_commit": _git_commit(),
        "plain_run_s": [r["run_s"] for r in plain],
        "plain_run_cal": [r["run_cal"] for r in plain],
        "plain_kernel_s": [r["kernel_s"] for r in plain],
        "traced_run_cal": [r["run_cal"] for r in traced],
        "setup_pairs": len(setup),
        "setup_import_s": [own for own, _ in setup],
        "setup_numpy_only_s": [ref for _, ref in setup],
    }
    print("meta " + json.dumps(meta))
    for op in first["ops"]:
        if not op["problem"]:
            status = "ok"
        elif op["known_defect"]:
            status = f"KNOWN DEFECT ({op['problem']}: {op['known_defect']})"
        else:
            status = f"FAILED ({op['problem']})"
        print(f"  {op['s']:9.4f} s {op['cal']:9.2f} cal  {op['label']}  {status}")
    if first["points"]:
        parts = ", ".join(
            f"{tag} {first['points'].get(tag, 0)}/{base}" for tag, base in first["bases"].items()
        )
        print(
            f"critical points matched to the closed form: "
            f"{sum(first['points'].values())} of {sum(first['bases'].values())} ({parts})"
        )
    print(
        f"ops attempted {summary['attempted']}, disagreeing with the reference "
        f"{summary['wrong']}, of which unexpected {summary['failed']}"
    )
    for name, m in summary["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    plain, traced, setup = measure(workload, seed, seconds, trace, smoke)
    summary = summarize(plain, traced, setup, trace)
    report(workload, seed, plain, traced, setup, summary)
    summary.pop("wrong")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lgmirror benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = {}
            for w in WORKLOADS:
                for trace in (False, True):
                    print(f"== {w} trace={int(trace)}")
                    result.setdefault(w, {})[f"trace{int(trace)}"] = run(
                        w, args.seed, args.seconds, trace
                    )
        else:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    if args.workload == "all":
        dead = unexercised(result)
        if dead:
            print(f"perfbench: per-layer metrics read 0 on every workload: {dead}",
                  file=sys.stderr)
            return 1
    return 0


def unexercised(result: dict) -> list[str]:
    """Per-layer metrics that read 0 on every workload.  Each layer is run
    by at least one workload, so such a metric is a span whose wrapper or
    key no longer matches the program."""
    return [
        name
        for name, _ in tracing.PER_LAYER
        if name not in tracing.MAY_BE_ZERO
        and not any(r["trace1"]["metrics"][name]["value"] for r in result.values())
    ]


if __name__ == "__main__":
    sys.exit(main())
