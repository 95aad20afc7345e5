"""Multi-start Newton that runs every iterate on until it converges, the
reference for lgmirror.critical.solve, which stops an iterate as soon as it
lands on a denominator.

Each step here solves the whole batch and falls back to a determinant filter
when some Jacobian is exactly singular; the denominators are tested only
once, on the converged roots.  Both routes share the start points and the
final filters, so they can be compared point for point.
"""
import numpy as np

from lgmirror.critical import CriticalSystem, SolveConfig, _certified_points, _starts


def newton_step(system: CriticalSystem, pts: np.ndarray):
    """The Newton step at each row, whether it is finite, and the row's
    largest cleared residual; rows on a denominator step too."""
    F, J, _ = system._evaluate(pts)
    try:
        step = np.linalg.solve(J, F[..., None])[..., 0]
        good = np.isfinite(step).all(axis=1)
    except np.linalg.LinAlgError:
        dets = np.linalg.det(J)
        good = np.isfinite(dets) & (np.abs(dets) > 1e-300)
        step = np.zeros_like(pts)
        if good.any():
            step[good] = np.linalg.solve(J[good], F[good][..., None])[..., 0]
    return step, good, np.abs(F).max(axis=1)


def solve(system: CriticalSystem, cfg: SolveConfig = SolveConfig()):
    """The certified critical points, from the same starts as
    lgmirror.critical.solve."""
    pts = _starts(len(system.variables), cfg)
    alive = np.ones(cfg.starts, dtype=bool)
    converged = np.zeros(cfg.starts, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(cfg.max_iter):
            if not alive.any():
                break
            idx = np.nonzero(alive)[0]
            step, good, res = newton_step(system, pts[idx])
            done = res <= cfg.newton_tol
            converged[idx[done]] = True
            alive[idx[done]] = False
            dead = ~good | ~np.isfinite(step).all(axis=1)
            alive[idx[dead]] = False
            move = ~done & ~dead
            pts[idx[move]] -= step[move]
            big = np.abs(pts[idx]).max(axis=1) > 1e8
            alive[idx[big]] = False
    return _certified_points(system, pts[converged], cfg)
