"""NoBound [64] (Xia et al., ball-k-means style) — no per-point bounds.

Each cluster is a ball with radius R[j] = max member distance; a k x k
centroid distance matrix is rebuilt every iteration, neighbor clusters
are those within 2 R[j], and points in the "stable area" (closer than
half the nearest-neighbor-centroid distance) stay put with no further
comparisons. Annulus points compare against neighbor centroids only.
State per iteration: k x k matrix + one exact distance per point.
Exact drop-in for Lloyd from the same init.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.lloyd import assign_labels
from repro.core.result import (
    AssignStats, KMeansResult, beats, check_centroids, check_points, dist, iterate, pair_dist,
)


def fit(X: np.ndarray, init_centroids: np.ndarray, max_iter: int = 20) -> KMeansResult:
    X = check_points(X)
    n, d = X.shape
    C0 = check_centroids(init_centroids, d)
    k = len(C0)
    labels = np.full(n, -1, dtype=np.int64)

    def assign(C, drift):
        old_labels = labels.copy()
        if drift is None:
            labels[:] = assign_labels(X, C)
            return AssignStats.of(X, labels, old_labels, k, n * k)
        cc = dist(C, C)
        # Every point's distance to its (moved) centroid — the per-point
        # work NoBound always pays.
        u = pair_dist(X, C[labels])
        n_dist = k * k + n
        # Ball radii and neighbor sets from the k x k matrix.
        R = np.zeros(k)
        np.maximum.at(R, labels, u)
        # Each point is examined exactly once under its cluster at the start
        # of the pass; mutating `labels` inside the loop must not re-route it.
        for j in range(k):
            nbr = np.flatnonzero((cc[j] <= 2.0 * R[j]) & (np.arange(k) != j))
            rows = np.flatnonzero(old_labels == j)
            if len(rows) == 0 or len(nbr) == 0:
                continue
            # Stable area: closer than half the nearest neighbor-centroid
            # distance -> provably still nearest to c_j.
            stable_r = 0.5 * cc[j, nbr].min()
            ann = rows[u[rows] >= stable_r]
            if len(ann) == 0:
                continue
            dm = dist(X[ann], C[nbr])
            n_dist += len(ann) * len(nbr)
            jloc = np.argmin(dm, axis=1)
            dbest = dm[np.arange(len(ann)), jloc]
            jbest = nbr[jloc]
            win = beats(dbest, jbest, u[ann], j)
            labels[ann[win]] = jbest[win]
        return AssignStats.of(X, labels, old_labels, k, n_dist)

    return iterate(C0, assign, max_iter).result(labels, memory_floats=k * k + 2 * n)
