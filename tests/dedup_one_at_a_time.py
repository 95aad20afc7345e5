"""Deduplication of certified roots one row at a time, testing each row
against every row kept so far.  It is the reference for
``lgmirror.critical._distinct_rows``, which filters greedily instead."""
import numpy as np

from lgmirror.critical import _DEDUP_RADIUS


def distinct_rows(pts: np.ndarray) -> list[np.ndarray]:
    """The rows of pts at max-norm distance _DEDUP_RADIUS or more from
    every row kept before them, in order."""
    unique: list[np.ndarray] = []
    for row in pts:
        if all(np.abs(row - kept).max() >= _DEDUP_RADIUS for kept in unique):
            unique.append(row)
    return unique
