"""Memory cost estimation and the memory-tunable index (Section V-A).

Implements Eq. 10 (index memory as a function of n and leaf capacity f),
Eq. 11 (total extra memory of Dask-means over Lloyd), and Eq. 12 (invert
the budget into a leaf capacity f). Units are float slots (8 bytes each
on the paper's assumed 64-bit system); ``floats_to_mb`` converts.

The *measured* side (Table VI's "actual") comes from
:func:`measured_floats`, which accounts the real arrays of a built
:class:`repro.core.balltree.BallTree` — true node counts and true fills,
not the half-full balanced-tree assumption behind Eq. 10. Divergence
between the two is exactly what Table VI quantifies.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.balltree import BallTree

#: Eq. 10 models a 3-dim pivot regardless of the data (the paper fixes
#: "a center of each partitioned sub-space, 3 dimensions").
_EQ10_PIVOT_DIMS = 3

#: The leaf capacities :func:`tune_f` chooses from.
F_MIN, F_MAX = 2, 4096


def estimate_index_floats(n: int, f: int, *, exact: bool = True) -> float:
    """Eq. 10: memory (float slots) of a Ball-tree over n vectors.

    ``exact=True`` keeps the ceilings of the first line of Eq. 10;
    ``exact=False`` returns the paper's linearized approximation
    2n + 28n/f - 16.
    """
    if f < 1:
        raise ValueError("f must be >= 1")
    if exact:
        leaves = math.ceil(2 * n / f)
        internal = leaves - 1
        return leaves * (2 * _EQ10_PIVOT_DIMS + f) + internal * 8
    return 2 * n + 28 * n / f - 16


def estimate_total_floats(n: int, k: int, f: int, *, exact: bool = True) -> float:
    """Eq. 11: both indexes plus the n-entry assignment array."""
    return (
        estimate_index_floats(n, f, exact=exact)
        + estimate_index_floats(k, f, exact=exact)
        + n
    )


def tune_f(n: int, k: int, budget_floats: float) -> int:
    """Eq. 12: the leaf capacity that fits ``budget_floats`` of memory.

    f ~= 28(n + k) / (budget - 3n + 32 - 2k), clamped to [F_MIN, F_MAX].
    A budget at or below the irreducible 3n + 2k cost maps to F_MAX (the
    coarsest, cheapest index we can build).
    """
    denom = budget_floats - 3 * n + 32 - 2 * k
    if denom <= 0:
        return F_MAX
    # Round *up*: a larger f means a coarser, cheaper index, so ceiling
    # keeps the tuned index inside the budget.
    f = math.ceil(28 * (n + k) / denom)
    return int(min(max(f, F_MIN), F_MAX))


def measured_floats(tree: BallTree) -> int:
    """Actual float-slot footprint of a built tree (our implementation).

    Every array the tree holds besides ``X``: per node pivot (d) +
    node_sum (d) + 5 scalar fields (radius, start, end, subtree_end,
    cluster), and the n-entry permutation array. No half-full assumption —
    true node counts.
    """
    m, d = tree.pivot.shape
    return m * (2 * d + 5) + len(tree.idx)


def measured_total_floats(tree: BallTree, ctree: BallTree | None, n: int) -> int:
    """Measured analog of Eq. 11: both real indexes + the label array."""
    total = measured_floats(tree) + n
    if ctree is not None:
        total += measured_floats(ctree)
    return total


def floats_to_mb(x: float) -> float:
    return x * 8.0 / (1024 * 1024)


def mb_to_floats(mb: float) -> float:
    return mb * 1024 * 1024 / 8.0


def accuracy(estimated: float, actual: float) -> float:
    """Table VI's metric: ratio of estimated to actual memory."""
    return float(estimated) / float(actual)
