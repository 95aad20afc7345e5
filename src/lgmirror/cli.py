"""Command line front end.

Every subcommand produces a run report: a nonempty list of named checks,
rendered as text on stdout or written as versioned JSON with --json.  The
exit status is 0 exactly when every check passed, so the commands can sit
directly in shell pipelines and CI jobs.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from functools import lru_cache

from .atlas import (
    gr_product_atlas,
    local_model_atlas,
    og15_atlas,
    verify_cocycle,
    verify_potential_transport,
)
from .koszul import gr24_koszul, koszul_square_check, og15_koszul
from .ladder import (
    admissible_diagrams,
    classify_face,
    diagram_from_pairs,
    holonomies,
    holonomy,
    index_sets,
    moment_inequalities,
    monotone_point,
    pairs_label,
    tight_edge_indices,
)
from .novikov import novikov_expand
from .plucker import covering_certificate, covering_check, geometric_to_plucker
from .potentials import (
    immersed_potential,
    og_potentials,
    rietsch_gr,
    verify_rietsch_identity,
)
from .rational import parse
from .report import Report, RunReport, Verdict


class CliError(Exception):
    """A user-facing invocation problem; rendered as a short message."""


def parse_pairs(text: str | None) -> tuple:
    """The pairs as given; ``ladder.check_pair_set`` validates them."""
    if not text:
        return ()
    pairs = []
    for chunk in text.split(";"):
        fields = chunk.split(",")
        if len(fields) != 2:
            raise argparse.ArgumentTypeError(f"bad pair {chunk!r}, expected i,j")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad pair {chunk!r}, expected integers")
    return tuple(pairs)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational number {text!r}")


# -- subcommand handlers ---------------------------------------------------


def run_faces(args) -> tuple[RunReport, list[str]]:
    n = args.n
    t0 = time.perf_counter()
    count = len(admissible_diagrams(n))
    # the Lagrangian faces are the pair-set diagrams (proof: diagram_from_pairs)
    lagrangian = [(s, diagram_from_pairs(n, s)) for s in index_sets(n)[0]]
    t1 = time.perf_counter()
    labels, ineqs, _ = moment_inequalities(n)
    verdicts = []
    lines = [f"faces of the ladder polytope, n = {n}: {count} faces, {len(lagrangian)} Lagrangian"]
    faces = []
    lagrangian.sort(key=lambda sd: sorted(tight_edge_indices(sd[1])))
    for k, (s, d) in enumerate(lagrangian):
        cls = classify_face(d)
        point = monotone_point(d)
        tight = tight_edge_indices(d)
        kept = set(holonomies(n, s))
        traded = [holonomy(*lab) not in kept for lab in labels]
        slack = [sum(c * point[lab] for c, lab in zip(a, labels)) + b for a, b in ineqs]
        # at the monotone point a facet sits at distance 0 if the face lies
        # on it, 2 if its normal involves a holonomy that a pair trades away,
        # and 1 otherwise
        distance = [
            0 if idx in tight else 2 if any(c and t for c, t in zip(a, traded)) else 1
            for idx, (a, _) in enumerate(ineqs)
        ]
        verdicts.append(
            Verdict(
                f"monotone[{k}:{cls.diffeo_type}]",
                slack == distance,
                f"n1={cls.n1} n2={cls.n2}, point in polytope with matching tight walls",
            )
        )
        lines.append(
            f"  {cls.diffeo_type}: dim {d.dimension}, "
            f"point {', '.join(f'{lab}={point[lab]}' for lab in labels)}"
        )
        faces.append(
            {
                "diffeo_type": cls.diffeo_type,
                "dimension": d.dimension,
                "monotone_point": {f"{r},{c}": str(v) for (r, c), v in point.items()},
            }
        )
    report = Report(f"lagrangian face census [n={n}]", tuple(verdicts))
    run = RunReport(
        command="faces",
        inputs={"n": n},
        reports=[report],
        timings={"enumerate": t1 - t0, "check": time.perf_counter() - t1},
        artifacts={"census": count, "faces": faces},
    )
    return run, lines


def run_charts(args) -> tuple[RunReport, list[str]]:
    n = args.n
    dic = geometric_to_plucker(n, args.pairs)
    label = pairs_label(args.pairs) or "(empty)"
    lines = [f"chart dictionary, n = {n}, pairs {label}"]
    for name in sorted(dic.bindings):
        lines.append(f"  {name} = {dic.bindings[name]}   (t-power {dic.tpowers[name]})")
    verdicts = [
        Verdict(
            "dictionary",
            len(dic.bindings) == 2 * (n - 2),
            f"{len(dic.bindings)} coordinates, quantum power {dic.q_power}",
        ),
    ]
    run = RunReport(
        command="charts",
        inputs={"n": n, "pairs": label},
        reports=[Report(f"chart dictionary [n={n}]", tuple(verdicts))],
        artifacts={"bindings": {k: str(v) for k, v in sorted(dic.bindings.items())}},
    )
    return run, lines


def run_potential(args) -> tuple[RunReport, list[str]]:
    if args.model == "gr":
        n = args.n
        pot = immersed_potential(n, args.pairs)
        expected = (3 * n - 6) - 2 * len(args.pairs)
        why = "surgery removes six and inserts four per pair"
    else:
        og = og_potentials()
        pot, expected = og.immersed, len(og.rietsch.terms)
        why = f"one per summand of the {pot.model} homogeneous potential"
    count = len(pot.terms)
    verdicts = [Verdict("term-count", count == expected, f"{count} terms, {why}")]
    expr = pot.expr
    if args.q is not None:
        if "q" in expr.variables():
            expr = expr.substitute({"q": args.q})
        elif "T" in expr.variables():
            if args.q != 1:
                raise CliError(
                    "the quantum parameter enters through its n-th root; "
                    "only --q 1 substitutes exactly"
                )
            expr = expr.substitute({"T": 1})
        else:
            raise CliError(f"the {pot.model} potential has no quantum parameter to set")
    lines = [f"potential [{pot.model} / {pot.chart}]", f"  {expr}"]
    label = pairs_label(args.pairs) or "(empty)"
    run = RunReport(
        command="potential",
        inputs={"model": args.model, "n": args.n, "pairs": label},
        reports=[Report(f"potential [{pot.model}/{pot.chart}]", tuple(verdicts))],
        artifacts={"potential": str(expr), "variables": list(pot.variables)},
    )
    return run, lines


def run_rietsch(args) -> tuple[RunReport, list[str]]:
    if args.model == "gr":
        pot = rietsch_gr(args.n)
        terms = len(pot.expr.num.terms)
        verdicts = [Verdict("term-count", terms == args.n, f"{terms} summands")]
    else:
        pot = og_potentials().rietsch
        factors = [str(f) for f, _ in pot.expr.factors]
        verdicts = [
            Verdict(
                "denominator",
                factors == ["p0*p3 - p1*p2"],
                "denominator is the defining quadric",
            )
        ]
    expr = pot.expr
    if args.q is not None:
        expr = expr.substitute({"q": args.q})
    lines = [f"homogeneous potential [{pot.model}]", f"  {expr}"]
    run = RunReport(
        command="rietsch",
        inputs={"model": args.model, "n": args.n},
        reports=[Report(f"homogeneous potential [{pot.model}]", tuple(verdicts))],
        artifacts={"potential": str(expr)},
    )
    return run, lines


def run_verify(args) -> tuple[RunReport, list[str]]:
    t0 = time.perf_counter()
    label = pairs_label(args.pairs) or "(empty)"
    artifacts: dict = {}
    if args.check == "rietsch":
        if args.model == "gr":
            ok = verify_rietsch_identity(f"gr(2,{args.n})", args.pairs)
            title = f"potential identity [gr(2,{args.n}), pairs {label}]"
        else:
            ok = verify_rietsch_identity("og15", frozenset())
            title = "potential identity [og(1,5)]"
        reports = [
            Report(
                title,
                (
                    Verdict(
                        "floer-equals-homogeneous",
                        ok,
                        "disk potential matches the homogeneous one "
                        "modulo coordinate relations",
                    ),
                ),
            )
        ]
    elif args.check in ("cocycle", "transport"):
        if args.model == "gr":
            atlas = gr_product_atlas(args.n)
        else:
            atlas = local_model_atlas() if args.model == "local" else og15_atlas()
        check = verify_cocycle if args.check == "cocycle" else verify_potential_transport
        reports = [check(atlas)]
    elif args.check == "koszul":
        data = gr24_koszul() if args.model == "gr" else og15_koszul()
        reports = [koszul_square_check(data)]
        artifacts["koszul"] = data.as_dict()
    else:
        n = args.n
        sampled = covering_check(n, args.samples, args.seed)
        rows = covering_certificate(n)
        reports = [
            Report(
                f"chart covering [n={n}]",
                (
                    Verdict(
                        "random-samples",
                        sampled.ok,
                        f"{sampled.samples} random + {sampled.degenerate_checked} "
                        f"degenerate points, "
                        f"{len(sampled.failures) + len(sampled.degenerate_failures)}"
                        f" failures; {sampled.vanishing} random points have a vanishing p_k,n",
                    ),
                    Verdict(
                        "case-analysis",
                        all(row["covered"] for row in rows),
                        f"{len(rows)} vanishing patterns, each in some maximal chart",
                    ),
                ),
            )
        ]
        artifacts["patterns"] = rows
    inputs = {"model": args.model, "n": args.n, "pairs": label}
    if args.check == "covering":
        inputs["seed"] = args.seed
    run = RunReport(
        command=f"verify {args.check}",
        inputs=inputs,
        reports=reports,
        timings={"verify": time.perf_counter() - t0},
        artifacts=artifacts,
    )
    return run, []


def run_critical(args) -> tuple[RunReport, list[str]]:
    # imported here so that numpy loads only for the numeric solver
    from . import critical

    model = "gr24" if args.model == "gr" else "og15"
    cfg = critical.SolveConfig(seed=args.seed)
    t0 = time.perf_counter()
    form = critical.closed_form(model)
    atlas = form.atlas()
    t1 = time.perf_counter()
    closed = critical.verify_known(form, atlas)
    t2 = time.perf_counter()
    points = critical.atlas_critical_points(form, atlas, cfg)
    solved = critical.verify_counts(form, points)
    t3 = time.perf_counter()
    lines = [f"critical points [{model}]"]
    for p in points:
        lines.append(f"  value {p.value:.6f}  residual {p.residual:.2e}")
    run = RunReport(
        command="critical",
        inputs={"model": args.model, "n": args.n, "seed": args.seed},
        reports=[closed, solved],
        timings={"atlas": t1 - t0, "closed_form": t2 - t1, "solve": t3 - t2},
        artifacts={"points": [p.as_dict() for p in points]},
    )
    return run, lines


# model -> (wall term, valuation weights, lead); term k is -lead * (u*v)^k
_EXPANSIONS = {
    "gr": ("v/((u*v - 1)*z0)", {"u": 1, "v": 1, "z0": 0}, "v/z0"),
    "og15": ("u^2/(z0*(u*v - 1))", {"u": 1, "v": 1, "z0": 0}, "u^2/z0"),
}


def run_expand(args) -> tuple[RunReport, list[str]]:
    model = args.model
    if args.order < 1:
        raise CliError(f"need --order >= 1, got {args.order}")
    text, weights, lead = _EXPANSIONS[model]
    series = novikov_expand(parse(text), weights, args.order)
    if not series.exponents():
        raise CliError(f"the series has no terms below the cut-off --order {args.order}")
    lines = [f"valuation expansion of {text} to order {args.order}"]
    verdicts = []
    for k, e in enumerate(series.exponents()):
        coeff = series.coefficient(e)
        lines.append(f"  T^{e}: {coeff}")
        expected = (-parse(lead) * parse("u*v") ** k).num
        verdicts.append(
            Verdict(
                f"coefficient[T^{e}]",
                coeff.key() == expected.key(),
                f"matches the closed form {expected}",
            )
        )
    run = RunReport(
        command="expand",
        inputs={"model": model, "order": args.order},
        reports=[Report(f"wall-crossing series [{model}]", tuple(verdicts))],
        artifacts={"series": {str(e): str(series.coefficient(e)) for e in series.exponents()}},
    )
    return run, lines


# -- argument wiring -------------------------------------------------------


_FLAGS = {
    "n": dict(type=int, default=None, help="size parameter"),
    "pairs": dict(
        type=parse_pairs, default=(), help="surgery pairs like 1,2 or 1,2;3,4"
    ),
    "model": dict(default="gr", help="gr, og15 or local"),
    "q": dict(type=_fraction, default=None, help="quantum parameter"),
    "order": dict(type=int, default=10, help="series cut-off"),
    "seed": dict(type=int, default=42, help="random seed"),
    "samples": dict(type=int, default=1000, help="sample count for covering"),
}

# subcommand -> (handler, help, flags the handler reads or echoes, models it
# serves, per check for verify).  gr(2,n) needs --n and, if marked +pairs, takes
# a pair set; gr(2,4) takes --n 4 or no --n; other models take no --n or --pairs.
# A verify check may also name flags of _FLAGS that only it takes.
_COMMANDS = {
    "faces": (run_faces, "classify Lagrangian faces", "n", "gr(2,n)"),
    "charts": (run_charts, "print a chart dictionary", "n pairs", "gr(2,n)+pairs"),
    "potential": (
        run_potential,
        "print a disk potential",
        "n pairs model q",
        "gr(2,n)+pairs og15",
    ),
    "rietsch": (run_rietsch, "print a homogeneous potential", "n model q", "gr(2,n) og15"),
    "verify": (
        run_verify,
        "run an exact verification",
        "n pairs model",
        {
            "rietsch": "gr(2,n)+pairs og15",
            "cocycle": "gr(2,n) og15 local",
            "transport": "gr(2,n) og15 local",
            "koszul": "gr(2,4) og15",
            "covering": "gr(2,n) seed samples",
        },
    ),
    "critical": (run_critical, "solve for critical points", "n model seed", "gr(2,4) og15"),
    "expand": (run_expand, "expand a wall-crossing term", "model order", "gr og15"),
}


def _check_flags(served: dict) -> list[str]:
    """The flags that some verify check takes and the others do not."""
    return list(dict.fromkeys(f for spec in served.values() for f in spec.split() if f in _FLAGS))


def check_model(args) -> None:
    """Reject an unserved model or size, a missing --n, a stray --n or --pairs,
    or a flag given to a verify check that does not take it."""
    name, served = args.command, _COMMANDS[args.command][3]
    if isinstance(served, dict):
        checks, name, served = served, f"{name} {args.check}", served[args.check]
        for flag in _check_flags(checks):
            if flag in served.split():
                setattr(args, flag, getattr(args, flag, _FLAGS[flag]["default"]))
            elif hasattr(args, flag):
                raise CliError(f"{name} takes no --{flag}")
    models = [s for s in served.split() if s not in _FLAGS]
    model = getattr(args, "model", "gr")
    n, pairs = getattr(args, "n", None), getattr(args, "pairs", ())
    spec = next((s for s in models if s.partition("(")[0] == model), None)
    if spec is None:
        problem = f"unknown model {model!r}"
    elif spec == "gr(2,4)" and n not in (None, 4):
        problem = f"gr(2,{n}) is not served"
    elif spec.startswith("gr(2,n)") and n is None:
        problem = "model gr needs --n"
    elif not spec.startswith("gr(2,") and n is not None:
        problem = f"model {model} takes no --n"
    elif pairs and not spec.endswith("+pairs"):
        problem = f"model {model} takes no --pairs"
    else:
        return
    raise CliError(f"{problem}; {name} serves {', '.join(models)}")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="lgmirror",
        description="Exact toolkit for the mirror charts, potentials and "
        "critical data of the small Grassmannian and quadric models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, flags, served) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        if isinstance(served, dict):
            p.add_argument("check", choices=list(served))
            # present only when given; check_model supplies the default
            for flag in _check_flags(served):
                p.add_argument(f"--{flag}", **dict(_FLAGS[flag], default=argparse.SUPPRESS))
        p.add_argument("--json", default=None, metavar="PATH", help="write JSON here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        check_model(args)
        run, lines = _COMMANDS[args.command][0](args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run.timings.setdefault("total", time.perf_counter() - t0)
    for line in lines:
        print(line)
    print(run.render())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(run.to_json())
    return run.exit_status


if __name__ == "__main__":
    sys.exit(main())
