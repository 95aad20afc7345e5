"""Fast self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs the smallest op of each workload once plain and once traced, and
confirms that every metric BENCHMARK.json names is emitted, with its unit,
and nothing else.  Takes seconds; exits non-zero on any mismatch.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    named = tuple(w["name"] for w in bench["workloads"])
    if named != run.WORKLOADS:
        problems.append(f"BENCHMARK.json workloads {named} != {run.WORKLOADS}")
    for workload in run.WORKLOADS:
        for trace in (False, True):
            where = f"{workload} trace={int(trace)}"
            try:
                result = run.run(workload, 42, 0, trace, smoke=True)
            except run.BenchError as exc:
                problems.append(f"{where}: {exc}")
                continue
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(declared[trace]))
                problems.append(f"{where}: missing {missing}, undeclared {extra}, or units differ")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: smallest op disagrees with the reference")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    if not problems:
        print("self-check ok: every workload runs and every declared metric is emitted")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
