"""The four workloads: fixed op lists, each op checked against oracle.py.

An op is one call into lgmirror.  Most go through ``lgmirror.cli.main`` with
stdout captured and the ``--json`` report read back; the rest are library
calls the CLI cannot make (expected-FAIL controls, the larger torus-chart
solves, the polytope oracle).  Library functions are reached through their
module (``koszul.koszul_square_check``), so wrappers installed by tracing.py
see these calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from lgmirror import (
    atlas,
    cli,
    critical,
    koszul,
    ladder,
    plucker,
    polytope,
    potentials,
    rational,
)

import oracle

@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # returns None when the result agrees with the reference, else why not
    check: Callable[[object], str | None]
    # non-empty when the parent commit is known to disagree here, and why
    known_defect: str = ""
    # the one op of its workload that the self-check runs
    smoke: bool = False
    # short name for per-op metrics
    tag: str = ""


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    # critical points matched to a distinct closed-form value, and the
    # number of closed-form values, by op tag
    points: dict[str, int] = field(default_factory=dict)
    bases: dict[str, int] = field(default_factory=dict)


class Cli:
    """Runs ``lgmirror.cli.main`` in-process with its output captured."""

    def __init__(self, tmp: str):
        self.path = os.path.join(tmp, "report.json")

    def runner(self, argv: list[str]) -> Callable[[], int]:
        def run() -> int:
            if os.path.exists(self.path):  # left over by an op that raised
                os.remove(self.path)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                try:
                    return cli.main(argv + ["--json", self.path])
                except SystemExit as exc:  # argparse rejects the invocation
                    return exc.code if isinstance(exc.code, int) else 2

        return run

    def take_report(self) -> dict | None:
        if not os.path.exists(self.path):
            return None
        with open(self.path) as fh:
            report = json.load(fh)
        os.remove(self.path)
        return report

    def op(self, argv, verify=None, smoke=False, tag="") -> Op:
        """An invocation that must exit 0 with ``passed`` true in its JSON,
        and then satisfy ``verify(report)``."""

        def check(code):
            report = self.take_report()
            if code != 0:
                return f"exit status {code}"
            if report is None:
                return "no JSON report"
            if report.get("passed") is not True:
                return "JSON report not passed"
            return verify(report) if verify else None

        return Op(" ".join(argv), self.runner(argv), check, smoke=smoke, tag=tag)

    def rejects(self, argv, known_defect) -> Op:
        """An invalid invocation: the right outcome is a non-zero exit."""

        def check(code):
            self.take_report()
            return None if code != 0 else "exit status 0 on invalid input"

        return Op(" ".join(argv), self.runner(argv), check, known_defect)


def _verdicts(report) -> list[dict]:
    return [v for r in report["reports"] for v in r["verdicts"]]


def _expect(ok: bool, why: str) -> str | None:
    return None if ok else why


def _control(label: str, run: Callable[[], object]) -> Op:
    """An expected-FAIL control: a deliberately broken input the check must
    reject.  ``run`` returns a Report or a bool."""

    def check(result):
        passed = result if isinstance(result, bool) else result.passed
        return _expect(not passed, "control passed")

    return Op(f"control: {label}", run, check)


def _pairs_arg(pairs) -> str:
    return ";".join(f"{i},{j}" for i, j in pairs)


# -- identities -------------------------------------------------------------


def _identity(report):
    names = [v["name"] for v in _verdicts(report)]
    return _expect(names == ["floer-equals-homogeneous"], f"verdicts {names}")


def _koszul(size):
    def verify(report):
        squares = sum(v["name"].startswith("square[") for v in _verdicts(report))
        return _expect(squares == 2**size, f"{squares} square checks, expected {2**size}")

    return verify


def _series(order):
    def verify(report):
        want = {
            str(2 * i + 1): oracle.wall_series_coefficient(i)
            for i in range((order + 1) // 2)
        }
        return _expect(report["artifacts"]["series"] == want, "series differs from the closed form")

    return verify


def _dropped_target_term(n: int, pairs) -> Callable[[], bool]:
    """The gr(2,n) identity of one chart with the first target term left
    out; it must not hold."""

    def run() -> bool:
        pair_set = frozenset(pairs)
        dic = plucker.geometric_to_plucker(n, pair_set)
        floer = [t.substitute(dic.bindings) for t in potentials.immersed_terms(n, pair_set)]
        q = rational.parse("T") ** n
        target = [t.substitute({"q": q}) for t in potentials.restricted_terms(n, pair_set)]
        return plucker.sum_equal_mod_plucker(floer, target[1:], n)

    return run


def identities(c: Cli, seed: int) -> Workload:
    w = Workload()
    for n in range(4, 10):
        for pairs in oracle.maximal_pair_sets(n):
            argv = ["verify", "rietsch", "--model", "gr", "--n", str(n), "--pairs", _pairs_arg(pairs)]
            w.ops.append(c.op(argv, _identity, smoke=n == 4))
    w.ops += [
        c.op(["verify", "rietsch", "--model", "og15"], _identity),
        c.op(["verify", "koszul", "--model", "gr"], _koszul(4)),
        c.op(["verify", "koszul", "--model", "og15"], _koszul(3)),
        c.op(["expand", "--model", "gr", "--order", "40"], _series(40)),
        _control(
            "koszul square with a corrupted cofactor [gr(2,4)]",
            lambda: koszul.koszul_square_check(koszul.corrupt_cofactor(koszul.gr24_koszul(), 0)),
        ),
        _control(
            "gr(2,9) identity with a target term dropped",
            _dropped_target_term(9, oracle.maximal_pair_sets(9)[0]),
        ),
    ]
    return w


# -- atlas ------------------------------------------------------------------


def _tree_counts(n):
    """Product atlas of gr(2,n): four two-way edges per maximal pair set,
    eight transitions carrying potentials."""
    sets = len(oracle.maximal_pair_sets(n))

    def verify(report):
        names = [v["name"] for v in _verdicts(report)]
        if report["command"] == "verify transport":
            return _expect(len(names) == 8 * sets, f"{len(names)} transports, expected {8 * sets}")
        trips = sum(name.startswith("roundtrip") for name in names)
        return _expect(trips == 4 * sets, f"{trips} roundtrips, expected {4 * sets}")

    return verify


def _nonempty(report):
    return _expect(bool(_verdicts(report)), "no verdicts")


def atlas_workload(c: Cli, seed: int) -> Workload:
    w = Workload()
    for check in ("cocycle", "transport"):
        w.ops.append(c.op(["verify", check, "--model", "local"], _nonempty, smoke=check == "cocycle"))
        w.ops.append(c.op(["verify", check, "--model", "og15"], _nonempty))
        w.ops.append(c.op(["verify", check, "--model", "gr", "--n", "4"], _nonempty))
        for n in range(5, 9):
            w.ops.append(c.op(["verify", check, "--model", "gr", "--n", str(n)], _tree_counts(n)))
    w.ops += [
        _control(
            "transport over gr(2,4) with a flipped sign",
            lambda: atlas.verify_potential_transport(atlas.gr24_atlas(flip_sign=True)),
        ),
        _control(
            "cocycle of the local model with a perturbed transition",
            lambda: atlas.verify_cocycle(atlas.local_model_atlas(perturb_cocycle=True)),
        ),
    ]
    return w


# -- critical ---------------------------------------------------------------


def _points_from_cli(w: Workload, tag: str, expected):
    """The CLI must report every closed-form point, each certified."""
    w.bases[tag] = len(expected)

    def verify(report):
        points = report["artifacts"]["points"]
        values = [complex(*p["value"]) for p in points]
        matched = oracle.match_values(values, expected)
        w.points[tag] = matched
        if any(p["residual"] > oracle.RESIDUAL_TOL for p in points):
            return "residual above tolerance"
        return _expect(
            len(points) == len(expected) == matched,
            f"{len(points)} points, {matched} of {len(expected)} closed-form values matched",
        )

    return verify


def _torus_solve(w: Workload, n: int, seed: int, complete: bool) -> Op:
    """Library solve on the torus chart of gr(2,n).  Every returned point
    must be certified and match a distinct closed-form value.  With
    ``complete`` all C(n,2) values must be found; otherwise how many are
    found is only recorded."""
    expected = oracle.gr_critical_values(n)
    tag = f"gr2{n}_lib"
    w.bases[tag] = len(expected)

    def run():
        return critical.solve_potential(
            potentials.gc_torus_potential(n), {"T": 1}, critical.SolveConfig(seed=seed)
        )

    def check(points):
        matched = oracle.match_values([p.value for p in points], expected)
        w.points[tag] = matched
        if any(p.residual > oracle.RESIDUAL_TOL for p in points):
            return "residual above tolerance"
        if matched != len(points):
            return f"{len(points) - matched} points off the closed form"
        return _expect(
            not complete or matched == len(expected),
            f"{matched} of {len(expected)} closed-form values found",
        )

    return Op(f"solve_potential gc_torus_potential({n}) seed={seed}", run, check, tag=tag)


def critical_workload(c: Cli, seed: int) -> Workload:
    w = Workload()
    w.ops += [
        c.op(
            ["critical", "--model", "gr", "--n", "4", "--seed", str(seed)],
            _points_from_cli(w, "gr24_cli", oracle.gr_critical_values(4)),
            tag="gr24_cli",
        ),
        c.op(
            ["critical", "--model", "og15", "--seed", str(seed)],
            _points_from_cli(w, "og15_cli", oracle.og15_critical_values()),
            smoke=True,
            tag="og15_cli",
        ),
        # with the default configuration seeds 0-119 all find the 10 gr(2,5)
        # points, while gr(2,6) finds between 0 and 5 of 15
        _torus_solve(w, 5, seed, complete=True),
        _torus_solve(w, 6, seed, complete=False),
    ]
    return w


# -- combinatorics ----------------------------------------------------------


def _lagrangian_faces(n):
    def verify(report):
        got = len(report["artifacts"]["faces"])
        want = oracle.fibonacci(n - 1)
        return _expect(got == want, f"{got} Lagrangian faces, expected F({n - 1}) = {want}")

    return verify


def _patterns(n):
    def verify(report):
        got = len(report["artifacts"]["patterns"])
        want = oracle.independent_subsets(n - 3)
        return _expect(got == want, f"{got} vanishing patterns, expected {want}")

    return verify


def _bindings(n):
    def verify(report):
        got = len(report["artifacts"]["bindings"])
        return _expect(got == 2 * (n - 2), f"{got} chart coordinates, expected {2 * (n - 2)}")

    return verify


def _polytope_oracle(n: int) -> Op:
    """Faces by dimension from the ladder diagrams against the vertex
    enumeration of the same polytope."""

    def run():
        diagrams = ladder.admissible_diagrams(n)
        _, ineqs, _ = ladder.moment_inequalities(n)
        faces = polytope.enumerate_faces(ineqs, polytope.enumerate_vertices(ineqs))
        lagrangian = sum(ladder.classify_face(d).lagrangian for d in diagrams)
        return Counter(d.dimension for d in diagrams), Counter(f.dim for f in faces), lagrangian

    def check(result):
        by_diagram, by_polytope, lagrangian = result
        if by_diagram != by_polytope:
            return "face counts by dimension disagree"
        want = oracle.fibonacci(n - 1)
        return _expect(lagrangian == want, f"{lagrangian} Lagrangian faces, expected {want}")

    return Op(f"polytope oracle n={n}", run, check)


def combinatorics(c: Cli, seed: int) -> Workload:
    w = Workload()
    for n in range(4, 9):
        w.ops.append(c.op(["faces", "--n", str(n)], _lagrangian_faces(n), smoke=n == 4))
    for n in (5, 6, 7):
        w.ops.append(c.op(["verify", "covering", "--n", str(n), "--seed", str(seed)], _patterns(n)))
    w.ops.append(c.op(["charts", "--n", "20", "--pairs", "1,2"], _bindings(20)))
    w.ops += [_polytope_oracle(n) for n in (4, 5, 6)]
    w.ops += [
        c.rejects(
            ["verify", "covering", "--n", "2", "--seed", str(seed)],
            "gr(2,2) is not a model; the covering check examines nothing and exits 0",
        ),
        c.rejects(
            ["potential", "--model", "gr", "--n", "3"],
            "gr(2,3) is not a model; the potential is printed and the exit status is 0",
        ),
    ]
    return w


_BUILDERS = {
    "identities": identities,
    "atlas": atlas_workload,
    "critical": critical_workload,
    "combinatorics": combinatorics,
}


def build(name: str, seed: int, tmp: str, smoke: bool = False) -> Workload:
    w = _BUILDERS[name](Cli(tmp), seed)
    if smoke:
        w.ops = [op for op in w.ops if op.smoke]
        w.bases = {op.tag: w.bases[op.tag] for op in w.ops if op.tag}
    return w
