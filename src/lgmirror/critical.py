"""Numeric critical points of the potentials.

Each partial derivative is cleared of denominators exactly, the cleared
polynomial system is solved by vectorized multi-start Newton iteration, and
roots landing on a recorded denominator are discarded.  Known closed-form
points act as the ground truth for the two smallest models.

All numeric polynomial evaluation goes through one monomial table: the
distinct exponent rows of a list of polynomials, with a (monomials x
polynomials) coefficient matrix.  A Newton step evaluates the cleared
equations, their Jacobian and every denominator together from one such
table, written into buffers that the solve allocates once for all its
starts.  A row leaves at a step when it has converged or landed on a
denominator zero, by the same floor test that filters the converged roots;
W has a pole there, so the iterate has left the chart.  Leaving rows are
dropped before the linear solve, the rest of the batch is solved at once,
and only a batch still holding an exactly singular Jacobian is filtered by
determinant before solving again.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Mapping, NamedTuple, Sequence

import numpy as np

from .atlas import Atlas, gr_product_atlas, og15_atlas
from .ladder import chart_coordinates
from .laurent import LaurentPoly
from .potentials import Potential, parse_model
from .plucker import pvar
from .rational import RationalFunction, as_rational, parse
from .report import Report, Verdict

# cleared roots closer to a denominator zero than this (relative to the
# denominator's own term sizes) belong to another chart
_DEN_FLOOR = 1e-8
# Newton starts are drawn with moduli uniform in this annulus
_ANNULUS = (0.05, 20.0)
# certified roots closer than this in every coordinate are one point
_DEDUP_RADIUS = 1e-6


@dataclass(frozen=True)
class SolveConfig:
    starts: int = 2000
    seed: int = 42
    # a Newton iterate has converged once every cleared equation is this
    # small, and a converged root is certified once the honest gradient is
    newton_tol: ClassVar[float] = 1e-12
    max_iter: ClassVar[int] = 100

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"starts must be positive, got {self.starts}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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


class _Monomials:
    """Laurent polynomials over a fixed variable order, stored as their
    distinct exponent rows and a (monomials x polynomials) coefficient
    matrix, for batched numeric evaluation of all of them at once."""

    def __init__(self, polys: Sequence[LaurentPoly], variables: Sequence[str]):
        index = {v: k for k, v in enumerate(variables)}
        rows: dict[tuple[int, ...], int] = {}
        entries = []
        for k, poly in enumerate(polys):
            for exps, c in poly.terms.items():
                row = [0] * len(variables)
                for v, e in zip(poly.vars, exps):
                    row[index[v]] = e
                entries.append((rows.setdefault(tuple(row), len(rows)), k, complex(c)))
        self.exps = np.array(list(rows), dtype=np.int64).reshape(len(rows), len(variables))
        self.coeffs = np.zeros((len(rows), len(polys)), dtype=np.complex128)
        for r, k, c in entries:
            self.coeffs[r, k] = c
        # per variable: the monomials holding it, their exponents and the
        # exponent range of its power table
        self._columns = []
        for j, col in enumerate(self.exps.T):
            held = np.nonzero(col)[0]
            if held.size:
                low, high = min(0, int(col.min())), max(0, int(col.max()))
                self._columns.append((j, held, col[held], low, high))

    def table(self, pts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(monomials, N) values of every monomial at the rows of pts (N, m),
        from one table of powers per variable built by repeated
        multiplication and multiplied into the monomials holding it.  With
        ``out`` (monomials, >= N) the table is its first N columns."""
        n = pts.shape[0]
        if out is None:
            mono = np.ones((self.exps.shape[0], n), dtype=pts.dtype)
        else:
            mono = out[:, :n]
            mono[...] = 1
        for j, held, exps, low, high in self._columns:
            x = pts[:, j]
            powers = np.empty((high - low + 1, n), dtype=pts.dtype)
            powers[-low] = 1
            for e in range(1, high + 1):
                np.multiply(powers[e - 1 - low], x, out=powers[e - low])
            if low:
                inv = 1 / x
                for e in range(-1, low - 1, -1):
                    np.multiply(powers[e + 1 - low], inv, out=powers[e - low])
            mono[held] *= powers[exps - low]
        return mono

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """(N, polynomials) values at pts (N, m)."""
        return self.table(pts).T @ self.coeffs.astype(pts.dtype, copy=False)


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
        # the honest gradient: numerator k over the product of the factors
        # whose columns and multiplicities _grad_factors[k] lists
        grad_polys = [d.num for d in self._partials]
        factor_col: dict = {}
        self._grad_factors = []
        for d in self._partials:
            note_denominators(d)
            # the numerator times the least monomial clearing its negative powers
            low = d.num.monomial_gcd()
            self.equations.append(d.num.shift(tuple(max(0, -x) for x in low)))
            cols = []
            for f, mult in d.factors:
                if f.key() not in factor_col:
                    factor_col[f.key()] = len(grad_polys)
                    grad_polys.append(f)
                cols.append((factor_col[f.key()], mult))
            self._grad_factors.append(cols)
        self.denominators = list(denominators.values())
        self._gradient = _Monomials(grad_polys, self.variables)
        # F in columns 0..m-1, the Jacobian row by row after it, then the
        # denominators
        m = len(self.variables)
        self._den_col = m * (m + 1)
        self._newton = _Monomials(
            self.equations
            + [e.partial(v) for e in self.equations for v in self.variables]
            + self.denominators,
            self.variables,
        )
        # each denominator's terms, as rows of the Newton table, and their
        # coefficients' sizes, one row per denominator; shorter rows repeat
        # their first term, which leaves the largest term as it is
        den_sizes = np.abs(self._newton.coeffs[:, self._den_col :]).T
        width = max((np.count_nonzero(row) for row in den_sizes), default=0)
        self._den_terms = np.zeros((len(den_sizes), width), dtype=np.intp)
        for terms, sizes in zip(self._den_terms, den_sizes):
            held = np.nonzero(sizes)[0]
            terms[:] = held[0]
            terms[: held.size] = held
        self._den_sizes = np.take_along_axis(den_sizes, self._den_terms, axis=1)[..., None]

    def rational_residuals(self, pts: np.ndarray) -> np.ndarray:
        """Residual of the honest gradient, poles and all.  Roots of the
        cleared system sitting on a denominator blow up here."""
        vals = self._gradient.eval(pts)
        worst = np.zeros(pts.shape[0], dtype=np.float64)
        for k, factors in enumerate(self._grad_factors):
            grad = vals[:, k]
            for col, mult in factors:
                grad = grad / vals[:, col] ** mult
            mags = np.abs(grad)
            mags = np.where(np.isfinite(mags), mags, np.inf)
            worst = np.maximum(worst, np.asarray(mags, dtype=np.float64))
        return worst

    def _workspace(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Buffers for _evaluate at up to ``rows`` points: the Newton
        monomial table (monomials, rows) and its values (rows, columns)."""
        monomials, columns = self._newton.coeffs.shape
        return (
            np.empty((monomials, rows), dtype=np.complex128),
            np.empty((rows, columns), dtype=np.complex128),
        )

    def _evaluate(
        self, pts: np.ndarray, work: tuple[np.ndarray, np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cleared equations (N, m), their Jacobian (N, m, m) and which
        rows lie off every denominator, from one monomial table at pts.
        With a ``_workspace`` the table and F and J are views into it."""
        m = len(self.variables)
        table, vals = (None, None) if work is None else (work[0], work[1][: pts.shape[0]])
        mono = self._newton.table(pts, table)
        vals = np.matmul(mono.T, self._newton.coeffs, out=vals)
        F, J = vals[:, :m], vals[:, m : self._den_col].reshape(-1, m, m)
        return F, J, self._clear_of_denominators(mono, vals[:, self._den_col :])

    def _clear_of_denominators(self, mono: np.ndarray, dens: np.ndarray) -> np.ndarray:
        """The floor test: a row lies off every denominator when each one's
        value is at least _DEN_FLOOR times the larger of 1 and its largest
        term.  mono is the Newton monomial table at the rows (monomials, N),
        dens the denominators' values there (N, denominators)."""
        largest = (np.abs(mono[self._den_terms]) * self._den_sizes).max(axis=1, initial=0.0)
        scale = np.maximum(1.0, largest)
        return (np.abs(dens).T >= _DEN_FLOOR * scale).all(axis=0)

    def _newton_step(
        self,
        pts: np.ndarray,
        tol: float,
        work: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One Newton step at the rows of pts (N, m): the steps of the rows
        that stay, one per staying row, which rows stay, and each row's
        largest cleared residual.  A row leaves, and is not solved for,
        once its residual is at most tol, once it lies on a denominator or
        when its Jacobian is exactly singular."""
        F, J, stay = self._evaluate(pts, work)
        res = np.abs(F).max(axis=1)
        stay &= ~(res <= tol)
        if not stay.all():
            F, J = F[stay], J[stay]
        try:
            return np.linalg.solve(J, F[..., None])[..., 0], stay, res
        except np.linalg.LinAlgError:
            # some staying Jacobian is exactly singular: solve the rest
            dets = np.linalg.det(J)
            solvable = np.isfinite(dets) & (np.abs(dets) > 1e-300)
            stay[stay] = solvable
            step = np.linalg.solve(J[solvable], F[solvable][..., None])[..., 0]
            return step, stay, res

    def off_denominators(self, pts: np.ndarray) -> np.ndarray:
        """The final filter on converged roots: which rows of pts lie off
        every denominator."""
        mono = self._newton.table(pts)
        return self._clear_of_denominators(mono, mono.T @ self._newton.coeffs[:, self._den_col :])

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


def _starts(m: int, cfg: SolveConfig) -> np.ndarray:
    """cfg.starts random points of C^m, moduli uniform in _ANNULUS."""
    rng = np.random.default_rng(cfg.seed)
    radii = rng.uniform(*_ANNULUS, size=(cfg.starts, m))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(cfg.starts, m))
    return radii * np.exp(1j * angles)


def solve(system: CriticalSystem, cfg: SolveConfig = SolveConfig()) -> list[CriticalPoint]:
    """Multi-start Newton on the cleared system; deterministic per seed.

    An iterate stops once it converges, and is dropped once it lands on a
    denominator, meets an exactly singular Jacobian or passes 1e8; a
    non-finite step passes 1e8 too.  The live iterates are kept compacted,
    and every step is evaluated into one workspace sized for all starts."""
    pts = _starts(len(system.variables), cfg)
    converged = np.zeros(cfg.starts, dtype=bool)
    work = system._workspace(cfg.starts)
    # the live iterates and their rows in pts; a converged iterate is
    # written back to pts as it leaves
    idx, live = np.arange(cfg.starts), pts.copy()
    with np.errstate(all="ignore"):
        for _ in range(cfg.max_iter):
            if not idx.size:
                break
            step, stay, res = system._newton_step(live, cfg.newton_tol, work)
            done = res <= cfg.newton_tol
            converged[idx[done]] = True
            pts[idx[done]] = live[done]
            if not stay.all():
                idx, live = idx[stay], live[stay]
            live -= step
            keep = np.abs(live).max(axis=1) <= 1e8
            if not keep.all():
                idx, live = idx[keep], live[keep]
    return _certified_points(system, pts[converged], cfg)


def _certified_points(
    system: CriticalSystem, pts: np.ndarray, cfg: SolveConfig
) -> list[CriticalPoint]:
    """The converged roots pts that lie off every denominator and whose
    honest gradient is below the tolerance, deduplicated and sorted."""
    with np.errstate(all="ignore"):
        if pts.size:
            keep = system.off_denominators(pts)
            pts = pts[keep]
        if pts.size:
            wide = system.rational_residuals(pts.astype(np.clongdouble))
            pts = pts[wide <= cfg.newton_tol]
    unique: list[np.ndarray] = []
    for row in pts:
        if all(np.abs(row - kept).max() >= _DEDUP_RADIUS for kept in unique):
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


class ClosedForm(NamedTuple):
    """One model's closed-form critical data.  The root chart holds every
    closed point; the values number the quantum-cohomology rank."""

    key: str
    # builds the atlas whose charts hold the model's critical points
    atlas: Callable[[], Atlas]
    # numeric values of the potentials' parameters
    bindings: Mapping[str, object]
    root: str
    # the root chart's homogeneous coordinates, as root-chart expressions
    projection: Mapping[str, str]
    points: Callable[[], list[dict]]
    values: Callable[[], list[complex]]


_CLOSED_FORMS = {
    form.key: form
    for form in (
        ClosedForm(
            key="gr24",
            atlas=lambda: gr_product_atlas(4),
            bindings={"T": 1},
            root=chart_coordinates(4, {(1, 2)}, "immersed")[0],
            projection={
                pvar(1, 2): "z1_1*z2_2*(u1*v1 - 1)",
                pvar(1, 3): "u1*z1_1",
                pvar(1, 4): "z2_2",
                pvar(2, 3): "z1_1",
                pvar(2, 4): "v1*z2_2",
                pvar(3, 4): "1",
            },
            points=gr24_closed_points,
            values=gr24_expected_values,
        ),
        ClosedForm(
            key="og15",
            atlas=og15_atlas,
            bindings={},
            root="immersed",
            projection={"p0": "z0", "p1": "v*z0", "p2": "u", "p3": "1"},
            points=og15_closed_points,
            values=og15_expected_values,
        ),
    )
}


def closed_form(model: str) -> ClosedForm:
    """The closed-form data of a model name; ValueError if there are none."""
    kind, n = parse_model(model)
    key = f"gr2{n}" if kind == "gr" else kind
    if key not in _CLOSED_FORMS:
        raise ValueError(f"no closed-form critical data for model {model!r}")
    return _CLOSED_FORMS[key]


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


def verify_known(form: ClosedForm, atlas: Atlas) -> Report:
    """Check the stored closed-form points on the root chart's potential:
    tiny gradients and the expected critical-value multiset, which also
    fixes their number.  ``atlas`` is ``form.atlas()``."""
    system = critical_system(atlas.potentials[form.root], form.bindings)
    closed = form.points()
    expected = form.values()
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
    return Report(f"closed-form critical data [{form.key}]", tuple(verdicts))


# -- per-chart solving and the atlas union ---------------------------------


def _model_charts(form: ClosedForm, atlas: Atlas):
    """The charts of the model's atlas, starting at the root chart, each with
    its potential, numeric bindings and homogeneous-coordinate projection.

    Only the root chart's projection is written out; every other chart's is
    pulled back to it along the atlas transitions.
    """
    maps = {form.root: {k: parse(e) for k, e in form.projection.items()}}
    frontier = [form.root]
    while frontier:
        known = frontier.pop(0)
        for t in atlas.transitions:
            if t.target == known and t.source not in maps:
                maps[t.source] = {k: e.substitute(t.bindings) for k, e in maps[known].items()}
                frontier.append(t.source)
    charts = [(name, atlas.potentials[name], form.bindings, maps[name]) for name in maps]
    return charts, list(form.projection)


def _project_normalized(coords, projection, order):
    vec = np.array(
        [complex(projection[name].evaluate(dict(coords))) for name in order],
        dtype=np.complex128,
    )
    mods = np.abs(vec)
    top = mods.max()
    pivot = int(np.nonzero(mods >= top * (1 - 1e-9))[0][0])
    return vec / vec[pivot]


def atlas_critical_points(
    form: ClosedForm, atlas: Atlas, cfg: SolveConfig = SolveConfig()
) -> list[CriticalPoint]:
    """Union of the per-chart critical points, deduplicated through the
    homogeneous-coordinate projection (top coordinate scaled to one).
    ``atlas`` is ``form.atlas()``."""
    charts, order = _model_charts(form, atlas)
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


def verify_counts(form: ClosedForm, points: Sequence[CriticalPoint]) -> Report:
    """Solver-side check that an atlas union of critical points recovers
    exactly the quantum-cohomology rank, with the expected value multiset."""
    expected = form.values()
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
    return Report(f"solver critical data [{form.key}]", tuple(verdicts))
