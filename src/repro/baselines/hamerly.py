"""Hamerly's algorithm [26] — one upper + one lower bound per point.

The most memory-efficient sequential accelerator in the comparison
(3n floats of state). A point is skipped when its upper bound is below
max(s[label], l[i]) where s is half the distance to the assigned
centroid's nearest other centroid and l lower-bounds the second-closest
centroid. Exact drop-in for Lloyd from the same init.
"""
from __future__ import annotations

import numpy as np

from repro.core.result import (
    AssignStats, KMeansResult, check_centroids, check_points, dist, iterate, pair_dist,
)


def _full_assign(X, C):
    """Lowest-id nearest centroid, its distance, and the distance to the
    nearest other centroid (inf for k = 1)."""
    d = dist(X, C)
    rows = np.arange(len(X))
    lab = np.argmin(d, axis=1)
    u = d[rows, lab]
    d[rows, lab] = np.inf
    return lab, u, d.min(axis=1)


def fit(X: np.ndarray, init_centroids: np.ndarray, max_iter: int = 20) -> KMeansResult:
    X = check_points(X)
    n, d = X.shape
    C0 = check_centroids(init_centroids, d)
    k = len(C0)
    labels = np.full(n, -1, dtype=np.int64)
    u = np.zeros(n)
    low = np.zeros(n)

    def assign(C, drift):
        nonlocal u, low
        old_labels = labels.copy()
        if drift is None:
            labels[:], u, low = _full_assign(X, C)
            return AssignStats.of(X, labels, old_labels, k, n * k)
        # u grows by own centroid's drift; l shrinks by the largest drift of
        # any *other* centroid (two-max refinement keeps it tighter).
        order = np.argsort(drift)
        dmax, d2nd = drift[order[-1]], drift[order[-2]] if k > 1 else 0.0
        u += drift[labels]
        low -= np.where(labels == order[-1], d2nd, dmax)

        cc = dist(C, C)
        n_dist = k * k
        np.fill_diagonal(cc, np.inf)
        s = 0.5 * cc.min(axis=1)

        m = np.maximum(s[labels], low)
        suspect = np.flatnonzero(u >= m)
        if len(suspect):
            # Tighten u with one exact distance to the assigned centroid.
            du = pair_dist(X[suspect], C[labels[suspect]])
            n_dist += len(suspect)
            u[suspect] = du
            still = suspect[du >= m[suspect]]
            if len(still):
                lab2, u2, low2 = _full_assign(X[still], C)
                n_dist += len(still) * k
                labels[still] = lab2
                u[still] = u2
                low[still] = low2
        return AssignStats.of(X, labels, old_labels, k, n_dist)

    return iterate(C0, assign, max_iter).result(labels, memory_floats=3 * n + k * k)
