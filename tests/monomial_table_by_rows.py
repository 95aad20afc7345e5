"""The row-layout monomial table that lgmirror.critical._Monomials.table
replaced: every monomial multiplied by every variable's power, x^0 = 1
included, with one row per point.  The reference for the batch-last table,
which must agree with it bit for bit."""
import numpy as np


def table(monomials, pts: np.ndarray) -> np.ndarray:
    """(N, monomials) values of every monomial of ``monomials`` (a
    lgmirror.critical._Monomials) at pts (N, m)."""
    mono = np.ones((pts.shape[0], monomials.exps.shape[0]), dtype=pts.dtype)
    for j, col in enumerate(monomials.exps.T):
        low, high = min(0, int(col.min(initial=0))), int(col.max(initial=0))
        if low == high:
            continue
        x = pts[:, j]
        powers = np.empty((pts.shape[0], high - low + 1), dtype=pts.dtype)
        powers[:, -low] = 1
        for e in range(1, high + 1):
            powers[:, e - low] = powers[:, e - 1 - low] * x
        if low:
            inv = 1 / x
            for e in range(-1, low - 1, -1):
                powers[:, e - low] = powers[:, e + 1 - low] * inv
        mono *= powers[:, col - low]
    return mono
