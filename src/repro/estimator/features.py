"""Meta-features for the runtime predictor (Section V-B1).

Besides the plain task descriptors n, k, d, f, the paper extracts index
features from the already-built spatial-vector index (tree depth, number
of leaf/internal nodes, average points per leaf) — the index build is a
"more in-depth scan" of the data distribution that costs nothing extra.

``expand`` implements the polynomial design matrix of Eq. 14: all
monomials of total degree <= beta over the (standardized) features.
``interaction=False`` keeps only single-feature powers (the "Basic
Feature" columns of Table VIII); ``interaction=True`` adds the cross
terms like n*f the paper argues for.
"""
from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from repro.core.balltree import BallTree

#: Order of the task-level meta-feature vector.
TASK_FEATURES = [
    "n", "k", "d", "f", "tree_height", "n_leaves", "n_internal", "avg_leaf_fill",
]


def task_features(n: int, k: int, d: int, f: int, tree: BallTree | None = None) -> np.ndarray:
    """Meta-feature vector for one k-means task.

    If the index is not supplied, its shape statistics are filled from the
    balanced-tree model (height log2(2n/f), 2n/f leaves) so prediction is
    possible before any index exists.
    """
    if tree is not None:
        height = tree.height
        leaves = tree.n_leaves
        internal = tree.n_internal
        fill = n / max(1, leaves)
    else:
        leaves = max(1, int(np.ceil(2 * n / f)))
        internal = leaves - 1
        height = int(np.ceil(np.log2(max(2, 2 * n / f)))) + 1
        fill = f / 2
    return np.array([n, k, d, f, height, leaves, internal, fill], dtype=float)


def iteration_rows(feat: np.ndarray, q: int) -> np.ndarray:
    """Per-iteration design rows: task features + the iteration index j.

    Row j (1-based) is [feat..., j]; the iteration index is what lets one
    regressor model the expensive first iteration vs. the stabilized tail
    (Fig. 6).
    """
    rows = np.tile(feat, (q, 1))
    return np.column_stack([rows, np.arange(1, q + 1, dtype=float)])


def per_iteration(samples, n_feat: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(Z, y): one row per recorded iteration of every sample.

    Each sample contributes ``iteration_rows`` over its first ``n_feat``
    task features (all when None) and its iteration runtimes as targets.
    """
    Z = np.vstack([iteration_rows(s.features()[:n_feat], s.n_iter) for s in samples])
    y = np.array([t for s in samples for t in s.iter_times])
    return Z, y


class Standardizer:
    """Feature standardization fitted on training data.

    Raw features span ~6 orders of magnitude (n vs d); degree-4 monomials
    on raw values overflow float64 conditioning, so the polynomial acts on
    z-scores. Part of the model, applied identically at predict time.
    """

    def fit(self, Z: np.ndarray) -> "Standardizer":
        self.mean_ = Z.mean(axis=0)
        self.std_ = Z.std(axis=0)
        self.std_[self.std_ == 0] = 1.0
        return self

    def transform(self, Z: np.ndarray) -> np.ndarray:
        return (Z - self.mean_) / self.std_


def monomial_exponents(n_feat: int, beta: int, interaction: bool) -> list[tuple[int, ...]]:
    """Exponent tuples of all monomials with total degree <= beta.

    Includes the constant term. Without interactions, only pure powers
    x_i^p are kept.
    """
    expos: list[tuple[int, ...]] = [tuple([0] * n_feat)]
    if interaction:
        for deg in range(1, beta + 1):
            for combo in combinations_with_replacement(range(n_feat), deg):
                e = [0] * n_feat
                for i in combo:
                    e[i] += 1
                expos.append(tuple(e))
    else:
        for i in range(n_feat):
            for p in range(1, beta + 1):
                e = [0] * n_feat
                e[i] = p
                expos.append(tuple(e))
    return expos


def expand(Z: np.ndarray, expos: list[tuple[int, ...]]) -> np.ndarray:
    """Evaluate the monomial basis on (standardized) feature rows."""
    cols = []
    for e in expos:
        col = np.ones(len(Z))
        for i, p in enumerate(e):
            if p:
                col = col * Z[:, i] ** p
        cols.append(col)
    return np.column_stack(cols)
