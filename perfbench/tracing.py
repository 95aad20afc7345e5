"""Per-layer spans and counters, installed from outside the program.

``install`` replaces each public lgmirror function or method it names by a
wrapper that records calls, inclusive time and
self time (inclusive time minus the time spent in wrapped callees).  A
function is replaced in every module namespace that holds it, so calls made
through an imported name (``lgmirror.cli.atlas_critical_points``) are seen
too.  Spans are aggregated in memory and read once when the run ends.

Nothing here imports lgmirror at module level: ``run.py`` reads
``PER_LAYER`` without loading the program.
"""

from __future__ import annotations

import re
import sys
import time
from collections import defaultdict

# (name, unit).  A layer the workload does not exercise reads 0; every
# layer is exercised by at least one workload.
PER_LAYER = (
    [
        ("laurent.exact_div.calls", "count"),
        ("laurent.exact_div.fail_calls", "count"),
        ("laurent.exact_div.useful_ratio", "ratio"),
        ("laurent.exact_div.s", "s"),
        ("laurent.exact_div.fail_s", "s"),
        ("laurent.mul.calls", "count"),
        ("laurent.mul.s", "s"),
        ("laurent.make.calls", "count"),
        ("laurent.make.s", "s"),
        ("rational.make.calls", "count"),
        ("rational.make.self_s", "s"),
        ("rational.gcd.calls", "count"),
        ("rational.gcd.nontrivial", "count"),
        ("rational.gcd.s", "s"),
        ("rational.substitute.calls", "count"),
        ("rational.substitute.s", "s"),
        ("rational.equal.calls", "count"),
        ("rational.equal.s", "s"),
        ("plucker.parametrize.calls", "count"),
        ("plucker.parametrize.s", "s"),
        ("plucker.sum_equal.s", "s"),
        ("plucker.geometric_to_plucker.s", "s"),
    ]
    + [(f"plucker.covering_check.s.n{n}", "s") for n in (5, 6, 7)]
    + [(f"potentials.rietsch_identity.s.n{n}", "s") for n in range(4, 10)]
    + [
        (f"atlas.{stage}.s.n{n}", "s")
        for stage in ("build", "cocycle", "transport")
        for n in range(5, 9)
    ]
    + [
        ("koszul.decompose.s", "s"),
        ("koszul.square.s", "s"),
        ("novikov.expand.s", "s"),
        ("critical.system.s", "s"),
        ("critical.solve.calls", "count"),
        ("critical.solve.s", "s"),
        ("critical.filter.s", "s"),
        ("critical.funnel.starts", "count"),
        ("critical.funnel.converged", "count"),
        ("critical.funnel.off_den", "count"),
        ("critical.funnel.certified", "count"),
        ("critical.funnel.unique", "count"),
        ("critical.yield", "ratio"),
        ("critical.solve.calls.gr24_cli", "count"),
        ("critical.solve.calls.og15_cli", "count"),
        ("critical.points_matched", "count"),
        ("critical.points_base", "count"),
        ("critical.points_matched.gr26_lib", "count"),
    ]
    + [(f"ladder.admissible_diagrams.s.n{n}", "s") for n in range(4, 9)]
    + [
        ("ladder.index_sets.calls", "count"),
        ("ladder.index_sets.s", "s"),
        ("ladder.classify.calls", "count"),
    ]
    + [
        (f"polytope.{stage}.s.n{n}", "s")
        for stage in ("vertices", "faces")
        for n in (4, 5, 6)
    ]
    + [
        (f"cli.{sub}.s", "s")
        for sub in ("faces", "charts", "potential", "verify", "critical", "expand")
    ]
    + [("trace.overhead_frac", "ratio"), ("wall.run_s", "s"), ("wall.kernel_s", "s")]
)
# computed by run.py from whole repetitions rather than from spans
RUN_LEVEL = ("trace.overhead_frac", "wall.run_s", "wall.kernel_s")
# outcomes that may honestly be 0 on every workload; any other metric that
# is 0 everywhere fails ``run.py --workload all``
MAY_BE_ZERO = ("critical.points_matched.gr26_lib", "trace.overhead_frac")


class Tracer:
    """Aggregated span statistics for one process."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.keyed: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.extra_s: dict[str, float] = defaultdict(float)
        # time spent in wrapped callees of each open span; the bottom entry
        # collects top-level spans
        self._child = [0.0]
        self.newton_tol = 0.0

    def wrap(self, fn, span, key=None, before=None, after=None):
        """``span`` is a name or a function of the call's arguments giving
        one; ``key`` adds a per-size total under ``<span>.s.<key>``."""
        calls, incl, self_s, keyed = self.calls, self.incl, self.self_s, self.keyed
        child = self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                calls[name] += 1
                incl[name] += dt
                self_s[name] += dt - inner
                if key is not None:
                    keyed[f"{name}.s.{key(*args, **kwargs)}"] += dt
            if after is not None:
                after(args, result, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def values(self, extras: dict) -> dict[str, float]:
        """Every ``PER_LAYER`` metric; ``extras`` holds those the workload
        computes itself (matched points, solves per op)."""
        out: dict[str, float] = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.s"] = self.incl[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.keyed)
        div_calls = self.calls["laurent.exact_div"]
        fails = self.counts["exact_div.fail"]
        out["laurent.exact_div.fail_calls"] = fails
        out["laurent.exact_div.fail_s"] = self.extra_s["exact_div.fail"]
        out["laurent.exact_div.useful_ratio"] = (
            (div_calls - fails) / div_calls if div_calls else 0.0
        )
        out["rational.gcd.nontrivial"] = self.counts["gcd.nontrivial"]
        out["critical.filter.s"] = self.incl["critical.off_den"] + self.incl["critical.certify"]
        for stage in ("starts", "converged", "off_den", "certified", "unique"):
            out[f"critical.funnel.{stage}"] = self.counts[f"funnel.{stage}"]
        starts = self.counts["funnel.starts"]
        out["critical.yield"] = self.counts["funnel.unique"] / starts if starts else 0.0
        out.update(extras)
        return {name: out.get(name, 0) for name, _ in PER_LAYER if name not in RUN_LEVEL}


def _size_arg(n, *args, **kwargs) -> str:
    return f"n{n}"


def _model_key(model, *args, **kwargs) -> str:
    m = re.fullmatch(r"gr\(2,(\d+)\)", model.replace(" ", "").lower())
    return f"n{m.group(1)}" if m else model


def _atlas_key(atlas, *args, **kwargs) -> str:
    m = re.match(r"gr\(2,(\d+)\)", atlas.name)
    return f"n{m.group(1)}" if m else atlas.name


def _ineq_key(ineqs, *args, **kwargs) -> str:
    # the ladder polytope of gr(2,n) lives in dimension 2(n-2)
    return f"n{len(ineqs[0][0]) // 2 + 2}" if ineqs else "n0"


def _cli_span(argv=None, *args, **kwargs) -> str:
    return f"cli.{argv[0]}" if argv else "cli.none"


def install(tracer: Tracer) -> None:
    """Wrap the traced lgmirror functions; lgmirror.cli must be imported."""
    from lgmirror import (
        atlas,
        cli,
        critical,
        koszul,
        ladder,
        laurent,
        novikov,
        plucker,
        polytope,
        potentials,
        rational,
    )

    modules = [
        m for name, m in sys.modules.items() if name.split(".")[0] == "lgmirror"
    ]

    def function(module, name, span, **opts):
        orig = getattr(module, name)
        traced = tracer.wrap(orig, span, **opts)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, traced)

    def method(cls, name, span, **opts):
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            setattr(cls, name, staticmethod(tracer.wrap(raw.__func__, span, **opts)))
            return
        traced = tracer.wrap(raw, span, **opts)
        for attr, val in list(vars(cls).items()):  # aliases such as __rmul__
            if val is raw:
                setattr(cls, attr, traced)

    counts, extra_s = tracer.counts, tracer.extra_s

    def after_exact_div(args, result, dt):
        if result is None:
            counts["exact_div.fail"] += 1
            extra_s["exact_div.fail"] += dt

    def after_gcd(args, result, dt):
        if not result.is_constant():
            counts["gcd.nontrivial"] += 1

    def before_solve(args, kwargs):
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg", critical.SolveConfig())
        counts["funnel.starts"] += cfg.starts
        tracer.newton_tol = cfg.newton_tol

    def after_solve(args, result, dt):
        counts["funnel.unique"] += len(result)

    def after_off_den(args, result, dt):
        counts["funnel.converged"] += args[1].shape[0]
        counts["funnel.off_den"] += int(result.sum())

    def after_certify(args, result, dt):
        counts["funnel.certified"] += int((result <= tracer.newton_tol).sum())

    L, R = laurent.LaurentPoly, rational.RationalFunction
    method(L, "exact_div", "laurent.exact_div", after=after_exact_div)
    method(L, "__mul__", "laurent.mul")
    method(L, "make", "laurent.make")
    method(R, "make", "rational.make")
    method(R, "substitute", "rational.substitute")
    method(R, "equal", "rational.equal")
    function(rational, "poly_gcd", "rational.gcd", after=after_gcd)
    function(plucker, "parametrize", "plucker.parametrize")
    function(plucker, "sum_equal_mod_plucker", "plucker.sum_equal")
    function(plucker, "geometric_to_plucker", "plucker.geometric_to_plucker")
    function(plucker, "covering_check", "plucker.covering_check", key=_size_arg)
    function(
        potentials, "verify_rietsch_identity", "potentials.rietsch_identity", key=_model_key
    )
    function(atlas, "gr_product_atlas", "atlas.build", key=_size_arg)
    function(atlas, "verify_cocycle", "atlas.cocycle", key=_atlas_key)
    function(atlas, "verify_potential_transport", "atlas.transport", key=_atlas_key)
    function(koszul, "center_decompose", "koszul.decompose")
    function(koszul, "koszul_square_check", "koszul.square")
    function(novikov, "novikov_expand", "novikov.expand")
    function(critical, "critical_system", "critical.system")
    function(critical, "solve", "critical.solve", before=before_solve, after=after_solve)
    method(critical.CriticalSystem, "off_denominators", "critical.off_den", after=after_off_den)
    method(critical.CriticalSystem, "rational_residuals", "critical.certify", after=after_certify)
    function(ladder, "admissible_diagrams", "ladder.admissible_diagrams", key=_size_arg)
    function(ladder, "index_sets", "ladder.index_sets")
    function(ladder, "classify_face", "ladder.classify")
    function(polytope, "enumerate_vertices", "polytope.vertices", key=_ineq_key)
    function(polytope, "enumerate_faces", "polytope.faces", key=_ineq_key)
    function(cli, "main", _cli_span)
