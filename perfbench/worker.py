"""One repetition of one workload, in a fresh interpreter.

Started by run.py; prints one JSON object on its last stdout line.  A fresh
interpreter per repetition is the point: CLI users pay lgmirror's module
caches cold on every invocation.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one whose
    query function we know."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def reference_kernel():
    """A fixed piece of work in the styles lgmirror spends its time in:
    Fraction sums in a dict keyed by exponent tuples, frozenset unions, and
    small batched numpy power products.  It allocates little and imports
    nothing lgmirror does not, so it leaves peak RSS alone.  It uses no
    lgmirror code, so a change to the program cannot move it; timed next to
    every op, it tracks how fast the shared machine is running at that
    moment."""
    import numpy

    angles = numpy.linspace(0.1, 6.0, 1600).reshape(400, 1, 4)
    pts = (1.0 + angles / 7) * numpy.exp(1j * angles)
    exps = (numpy.arange(48).reshape(1, 12, 4) % 5) - 2
    sets = [frozenset(range(j, j + 12)) for j in range(60)]

    def run() -> float:
        t0 = time.perf_counter()
        acc = {}
        for i in range(5000):
            k = (i % 13, i % 17)
            acc[k] = acc.get(k, Fraction(0)) + Fraction(i, 7) * Fraction(3, i % 11 + 1)
        for a in sets:
            for b in sets[::3]:
                hash(a | b)
                hash(b | a)
        for _ in range(12):
            (pts**exps).prod(axis=2).sum()
            numpy.abs(pts**exps).prod(axis=2).max(axis=1)
        return time.perf_counter() - t0

    return run


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before the spawn")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--numpy-only", action="store_true",
                        help="import numpy instead of lgmirror: run.py's set-up reference")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if args.numpy_only:
        import numpy  # noqa: F401

        print(json.dumps({"import_s": time.time() - args.spawned_at}))
        return 0

    sys.path.insert(0, SRC)
    import lgmirror.cli  # the import is what setup_s times

    import_s = time.time() - args.spawned_at
    if not os.path.abspath(lgmirror.__file__).startswith(SRC + os.sep):
        print(f"lgmirror imported from {lgmirror.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads

    w = workloads.build(args.workload, args.seed, args.tmp, smoke=args.smoke)
    kernel = reference_kernel()
    kernel_s = [kernel()]
    ops = []
    solve_calls = {}
    for op in w.ops:
        solves_before = tracer.calls["critical.solve"] if tracer else 0
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # a crash is a failed op, not a failed run
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        kernel_s.append(kernel())
        try:
            problem = error or op.check(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        ops.append({
            "label": op.label,
            "s": elapsed,
            # the op's time in units of the kernel runs just before and after it
            "cal": elapsed / ((kernel_s[-2] + kernel_s[-1]) / 2),
            "problem": problem,
            "known_defect": op.known_defect,
        })
        if tracer and op.tag:
            solve_calls[op.tag] = tracer.calls["critical.solve"] - solves_before

    import numpy

    out = {
        "run_s": sum(op["s"] for op in ops),
        "run_cal": sum(op["cal"] for op in ops),
        "kernel_s": statistics.median(kernel_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "points": w.points,
        "bases": w.bases,
        "meta": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": blas_threads(numpy),
        },
    }
    if tracer:
        extras = {f"critical.solve.calls.{tag}": n for tag, n in solve_calls.items()}
        extras.update({f"critical.points_matched.{tag}": n for tag, n in w.points.items()})
        extras["critical.points_matched"] = sum(w.points.values())
        extras["critical.points_base"] = sum(w.bases.values())
        out["layers"] = tracer.values(extras)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
