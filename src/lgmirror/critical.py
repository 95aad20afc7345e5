"""Numeric critical points of the potentials.

Each partial derivative is cleared of denominators exactly, the cleared
polynomial system is solved by vectorized multi-start Newton iteration, and
roots landing on a recorded denominator are discarded.  Known closed-form
points act as the ground truth for the two smallest models.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .atlas import gr_product_atlas, og15_atlas
from .ladder import chart_coordinates
from .laurent import LaurentPoly
from .potentials import Potential, parse_model
from .plucker import pvar
from .rational import RationalFunction, as_rational, parse
from .report import Report, Verdict

# cleared roots closer to a denominator zero than this (relative to the
# denominator's own term sizes) belong to another chart
_DEN_FLOOR = 1e-8


@dataclass(frozen=True)
class SolveConfig:
    starts: int = 2000
    newton_tol: float = 1e-12
    max_iter: int = 100
    dedup_radius: float = 1e-6
    annulus: tuple[float, float] = (0.05, 20.0)
    seed: int = 42

    def __post_init__(self):
        if self.annulus[0] <= 0 or self.annulus[1] <= self.annulus[0]:
            raise ValueError("annulus radii must satisfy 0 < r_min < r_max")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")


@dataclass(frozen=True)
class CriticalPoint:
    coords: dict
    value: complex
    residual: float

    def as_dict(self) -> dict:
        return {
            "coords": {k: [v.real, v.imag] for k, v in self.coords.items()},
            "value": [self.value.real, self.value.imag],
            "residual": self.residual,
        }


class _PolyArrays:
    """A Laurent polynomial flattened to exponent rows over a fixed
    variable order, for batched numeric evaluation."""

    def __init__(self, poly: LaurentPoly, variables: Sequence[str]):
        index = {v: k for k, v in enumerate(variables)}
        rows = []
        coeffs = []
        for exps, c in poly.terms.items():
            row = [0] * len(variables)
            for v, e in zip(poly.vars, exps):
                row[index[v]] = e
            rows.append(row)
            coeffs.append(complex(c))
        self.exps = np.array(rows or [[0] * len(variables)], dtype=np.int64)
        self.coeffs = np.array(coeffs or [0.0], dtype=np.complex128)

    def eval(self, pts: np.ndarray) -> np.ndarray:
        # pts: (N, m) complex; returns (N,)
        powers = pts[:, None, :] ** self.exps[None, :, :]
        return powers.prod(axis=2) @ self.coeffs.astype(pts.dtype)

    def term_scale(self, pts: np.ndarray) -> np.ndarray:
        powers = np.abs(pts[:, None, :]) ** self.exps[None, :, :]
        return (powers.prod(axis=2) * np.abs(self.coeffs)).max(axis=1)


class CriticalSystem:
    """Cleared gradient equations of one potential in one chart."""

    def __init__(self, potential: Potential, numeric_bindings: Mapping[str, object]):
        bindings = {k: as_rational(Fraction(v)) for k, v in numeric_bindings.items()}
        expr = potential.expr.substitute(bindings)
        stray = set(expr.variables()) - set(potential.variables)
        if stray:
            raise ValueError(f"unbound parameters: {sorted(stray)}")
        self.potential = potential
        self.expr = expr
        self.variables = tuple(potential.variables)
        denominators: dict[str, LaurentPoly] = {}

        def note_denominators(f: RationalFunction):
            for factor, _ in f.factors:
                denominators.setdefault(factor.key(), factor)
            for v, low in zip(f.num.vars, f.num.monomial_gcd()):
                if low < 0:
                    p = LaurentPoly.var(v)
                    denominators.setdefault(p.key(), p)

        note_denominators(expr)
        self.equations: list[LaurentPoly] = []
        self._partials = [expr.partial(v) for v in self.variables]
        self._grad_arrays = []
        for d in self._partials:
            note_denominators(d)
            # the numerator times the least monomial clearing its negative powers
            low = d.num.monomial_gcd()
            self.equations.append(d.num.shift(tuple(max(0, -x) for x in low)))
            self._grad_arrays.append(
                (
                    _PolyArrays(d.num, self.variables),
                    [(_PolyArrays(f, self.variables), mult) for f, mult in d.factors],
                )
            )
        self.denominators = list(denominators.values())
        self._eq_arrays = [_PolyArrays(e, self.variables) for e in self.equations]
        self._jac_arrays = [
            [_PolyArrays(e.partial(v), self.variables) for v in self.variables]
            for e in self.equations
        ]
        self._den_arrays = [_PolyArrays(d, self.variables) for d in self.denominators]

    def rational_residuals(self, pts: np.ndarray) -> np.ndarray:
        """Residual of the honest gradient, poles and all.  Roots of the
        cleared system sitting on a denominator blow up here."""
        worst = np.zeros(pts.shape[0], dtype=np.float64)
        for num, factors in self._grad_arrays:
            vals = num.eval(pts)
            for arr, mult in factors:
                vals = vals / arr.eval(pts) ** mult
            mags = np.abs(vals)
            mags = np.where(np.isfinite(mags), mags, np.inf)
            worst = np.maximum(worst, np.asarray(mags, dtype=np.float64))
        return worst

    def _newton_step(self, pts: np.ndarray):
        m = len(self.variables)
        F = np.stack([a.eval(pts) for a in self._eq_arrays], axis=1)
        J = np.empty((pts.shape[0], m, m), dtype=np.complex128)
        for i, row in enumerate(self._jac_arrays):
            for j, a in enumerate(row):
                J[:, i, j] = a.eval(pts)
        dets = np.linalg.det(J)
        good = np.isfinite(dets) & (np.abs(dets) > 1e-300)
        step = np.zeros_like(pts)
        if good.any():
            step[good] = np.linalg.solve(J[good], F[good][..., None])[..., 0]
        return step, good, np.abs(F).max(axis=1)

    def off_denominators(self, pts: np.ndarray) -> np.ndarray:
        keep = np.ones(pts.shape[0], dtype=bool)
        for a in self._den_arrays:
            val = np.abs(a.eval(pts))
            scale = np.maximum(1.0, a.term_scale(pts))
            keep &= val >= _DEN_FLOOR * scale
        return keep

    def value_at(self, coords: Mapping[str, complex]) -> complex:
        return complex(self.expr.evaluate(dict(coords)))

    def gradient_residual(self, coords: Mapping[str, complex]) -> float:
        point = dict(coords)
        worst = 0.0
        for d in self._partials:
            worst = max(worst, abs(complex(d.evaluate(point))))
        return worst


def critical_system(
    potential: Potential, numeric_bindings: Mapping[str, object] | None = None
) -> CriticalSystem:
    return CriticalSystem(potential, numeric_bindings or {})


def solve(system: CriticalSystem, cfg: SolveConfig = SolveConfig()) -> list[CriticalPoint]:
    """Multi-start Newton on the cleared system; deterministic per seed."""
    m = len(system.variables)
    rng = np.random.default_rng(cfg.seed)
    radii = rng.uniform(cfg.annulus[0], cfg.annulus[1], size=(cfg.starts, m))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(cfg.starts, m))
    pts = radii * np.exp(1j * angles)
    alive = np.ones(cfg.starts, dtype=bool)
    converged = np.zeros(cfg.starts, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(cfg.max_iter):
            if not alive.any():
                break
            idx = np.nonzero(alive)[0]
            step, good, res = system._newton_step(pts[idx])
            done = res <= cfg.newton_tol
            converged[idx[done]] = True
            alive[idx[done]] = False
            dead = ~good | ~np.isfinite(step).all(axis=1)
            alive[idx[dead]] = False
            move = ~done & ~dead
            pts[idx[move]] -= step[move]
            big = np.abs(pts[idx]).max(axis=1) > 1e8
            alive[idx[big]] = False
        pts = pts[converged]
        if pts.size:
            keep = system.off_denominators(pts)
            pts = pts[keep]
        if pts.size:
            wide = system.rational_residuals(pts.astype(np.clongdouble))
            pts = pts[wide <= cfg.newton_tol]
    unique: list[np.ndarray] = []
    for row in pts:
        if all(np.abs(row - kept).max() >= cfg.dedup_radius for kept in unique):
            unique.append(row)
    points = []
    for row in unique:
        coords = {v: complex(c) for v, c in zip(system.variables, row)}
        points.append(
            CriticalPoint(
                coords=coords,
                value=system.value_at(coords),
                residual=float(system.gradient_residual(coords)),
            )
        )
    points.sort(key=lambda p: (round(p.value.real, 9), round(p.value.imag, 9),
                               [(round(c.real, 9), round(c.imag, 9))
                                for c in p.coords.values()]))
    return points


def solve_potential(
    potential: Potential,
    numeric_bindings: Mapping[str, object] | None = None,
    cfg: SolveConfig = SolveConfig(),
) -> list[CriticalPoint]:
    return solve(critical_system(potential, numeric_bindings), cfg)


# -- closed forms ----------------------------------------------------------


def gr24_closed_points() -> list[dict]:
    """The six critical points on the immersed[1,2] chart of gr(2,4), at unit
    quantum parameter: four with value 4*sqrt(2)*i^j and two with value 0."""
    root2 = math.sqrt(2.0)
    xi = 1j
    pts = []
    for j in range(4):
        pts.append(
            {
                "u1": root2 * xi**j,
                "v1": root2 * xi**-j,
                "z1_1": xi ** (-2 * j),
                "z2_2": xi ** (-2 * j),
            }
        )
    for j in range(2):
        sign = (-1) ** j
        pts.append({"u1": 0.0, "v1": 0.0, "z1_1": -1j * sign, "z2_2": 1j * sign})
    return pts


def gr24_expected_values() -> list[complex]:
    return [4 * math.sqrt(2.0) * 1j**j for j in range(4)] + [0.0, 0.0]


def og15_closed_points() -> list[dict]:
    """The four critical points in the node-chart coordinates at unit
    quantum parameter."""
    xi = cmath.exp(2j * cmath.pi / 3)
    cbrt2 = 2.0 ** (1.0 / 3.0)
    cbrt4 = 4.0 ** (1.0 / 3.0)
    pts = [
        {"u": cbrt2 * xi ** (2 * j), "v": cbrt4 * xi**j, "z0": 1.0} for j in range(3)
    ]
    pts.append({"u": 0.0, "v": 0.0, "z0": -1.0})
    return pts


def og15_expected_values() -> list[complex]:
    xi = cmath.exp(2j * cmath.pi / 3)
    return [3 * 4.0 ** (1.0 / 3.0) * xi**j for j in range(3)] + [0.0]


# model -> (atlas, numeric bindings of its potentials, root chart, the root
# chart's homogeneous-coordinate projection, closed points, their values).  The
# root chart holds every closed point; the values number the quantum-cohomology
# rank.
_CLOSED_FORMS = {
    "gr24": (
        lambda: gr_product_atlas(4),
        {"T": 1},
        chart_coordinates(4, {(1, 2)}, "immersed")[0],
        {
            pvar(1, 2): "z1_1*z2_2*(u1*v1 - 1)",
            pvar(1, 3): "u1*z1_1",
            pvar(1, 4): "z2_2",
            pvar(2, 3): "z1_1",
            pvar(2, 4): "v1*z2_2",
            pvar(3, 4): "1",
        },
        gr24_closed_points,
        gr24_expected_values,
    ),
    "og15": (
        og15_atlas,
        {},
        "immersed",
        {"p0": "z0", "p1": "v*z0", "p2": "u", "p3": "1"},
        og15_closed_points,
        og15_expected_values,
    ),
}


def _closed_form(model: str) -> tuple:
    """The model's key followed by its entry of _CLOSED_FORMS."""
    kind, n = parse_model(model)
    key = f"gr2{n}" if kind == "gr" else kind
    if key not in _CLOSED_FORMS:
        raise ValueError(f"no closed-form critical data for model {model!r}")
    return (key,) + _CLOSED_FORMS[key]


def _value_multiset_match(actual, expected, tol: float) -> bool:
    if len(actual) != len(expected):
        return False
    remaining = list(expected)
    for a in actual:
        hit = None
        for k, e in enumerate(remaining):
            if abs(a - e) <= tol:
                hit = k
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def verify_known(model: str) -> Report:
    """Check the stored closed-form points on the root chart's potential:
    tiny gradients, the expected critical-value multiset, and the
    quantum-cohomology count."""
    key, atlas, bindings, root, _, points, values = _closed_form(model)
    system = critical_system(atlas().potentials[root], bindings)
    closed = points()
    expected = values()
    verdicts = []
    values = []
    for k, coords in enumerate(closed):
        res = system.gradient_residual(coords)
        values.append(system.value_at(coords))
        verdicts.append(
            Verdict(
                f"residual[{k}]",
                res <= 1e-10,
                f"max |grad| = {res:.3e}",
            )
        )
    ok_values = _value_multiset_match(values, expected, 1e-8)
    verdicts.append(
        Verdict(
            "critical-values",
            ok_values,
            "multiset matches the closed form" if ok_values else f"got {values}",
        )
    )
    verdicts.append(
        Verdict(
            "count",
            len(closed) == len(expected),
            f"{len(closed)} points = quantum cohomology rank",
        )
    )
    return Report(f"closed-form critical data [{key}]", tuple(verdicts))


# -- per-chart solving and the atlas union ---------------------------------


def _model_charts(model: str):
    """The charts of the model's atlas, starting at the root chart, each with
    its potential, numeric bindings and homogeneous-coordinate projection.

    Only the root chart's projection is written out; every other chart's is
    pulled back to it along the atlas transitions.
    """
    _, make_atlas, bindings, root, projection, _, _ = _closed_form(model)
    atlas = make_atlas()
    maps = {root: {k: parse(e) for k, e in projection.items()}}
    frontier = [root]
    while frontier:
        known = frontier.pop(0)
        for t in atlas.transitions:
            if t.target == known and t.source not in maps:
                maps[t.source] = {k: e.substitute(t.bindings) for k, e in maps[known].items()}
                frontier.append(t.source)
    charts = [(name, atlas.potentials[name], bindings, maps[name]) for name in maps]
    return charts, list(projection)


def _project_normalized(coords, projection, order):
    vec = np.array(
        [complex(projection[name].evaluate(dict(coords))) for name in order],
        dtype=np.complex128,
    )
    mods = np.abs(vec)
    top = mods.max()
    pivot = int(np.nonzero(mods >= top * (1 - 1e-9))[0][0])
    return vec / vec[pivot]


def chart_critical_points(model: str, cfg: SolveConfig = SolveConfig()) -> dict:
    """Solve every chart of the model's atlas separately, at unit quantum
    parameter; returns chart name -> point list."""
    charts, _ = _model_charts(model)
    return {
        name: solve_potential(potential, bindings, cfg)
        for name, potential, bindings, _ in charts
    }


def atlas_critical_points(
    model: str, cfg: SolveConfig = SolveConfig()
) -> list[CriticalPoint]:
    """Union of the per-chart critical points, deduplicated through the
    homogeneous-coordinate projection (top coordinate scaled to one)."""
    charts, order = _model_charts(model)
    merged: list[CriticalPoint] = []
    vectors: list[np.ndarray] = []
    for _, potential, bindings, projection in charts:
        for pt in solve_potential(potential, bindings, cfg):
            vec = _project_normalized(pt.coords, projection, order)
            if any(np.abs(vec - seen).max() < 1e-6 for seen in vectors):
                continue
            vectors.append(vec)
            merged.append(
                CriticalPoint(
                    coords={n: complex(c) for n, c in zip(order, vec)},
                    value=pt.value,
                    residual=pt.residual,
                )
            )
    merged.sort(key=lambda p: (round(p.value.real, 9), round(p.value.imag, 9)))
    return merged


def verify_counts(model: str, points: Sequence[CriticalPoint]) -> Report:
    """Solver-side check that an atlas union of critical points recovers
    exactly the quantum-cohomology rank, with the expected value multiset."""
    key, *_, values = _closed_form(model)
    expected = values()
    verdicts = [
        Verdict(
            "count",
            len(points) == len(expected),
            f"{len(points)} deduplicated points, expected {len(expected)}",
        ),
        Verdict(
            "values",
            _value_multiset_match([p.value for p in points], expected, 1e-8),
            "value multiset matches the closed form",
        ),
        Verdict(
            "residuals",
            all(p.residual <= 1e-10 for p in points),
            f"max residual {max((p.residual for p in points), default=0.0):.3e}",
        ),
    ]
    return Report(f"solver critical data [{key}]", tuple(verdicts))
