"""Elkan's algorithm [21] — triangle-inequality k-means with n x k bounds.

Keeps a lower bound low[i, j] for every (point, centroid) pair plus one
upper bound u[i] per point; this is the scikit-learn default the paper
compares against. Memory is O(nk) floats, which is why the paper reports
it N/A at k = 1e4 — we reproduce that via ``memory_floats``.

Iteration semantics match Lloyd exactly (assignment then refinement;
iteration 1 performs the full exact assignment that seeds the bounds), so
this is an exact drop-in from the same init.
"""
from __future__ import annotations

import numpy as np

from repro.core.result import (
    AssignStats, KMeansResult, beats, check_centroids, check_points, dist, iterate, pair_dist,
)


def fit(X: np.ndarray, init_centroids: np.ndarray, max_iter: int = 20) -> KMeansResult:
    X = check_points(X)
    n, d = X.shape
    C0 = check_centroids(init_centroids, d)
    k = len(C0)
    labels = np.full(n, -1, dtype=np.int64)
    u = np.zeros(n)
    low = np.zeros((n, k))

    def assign(C, drift):
        nonlocal u, low
        old_labels = labels.copy()
        n_dist = 0
        if drift is None:
            dists = dist(X, C)
            n_dist += n * k
            labels[:] = np.argmin(dists, axis=1)
            u = dists[np.arange(n), labels]
            low = dists
        else:
            low = np.maximum(low - drift[None, :], 0.0)
            u += drift[labels]
            cc = dist(C, C)
            n_dist += k * k
            np.fill_diagonal(cc, np.inf)
            s = 0.5 * cc.min(axis=1)

            tight = np.zeros(n, dtype=bool)
            active = u >= s[labels]

            def candidates(j):
                # Rows whose bounds allow centroid j to be nearer than, or
                # exactly as near as, their own (a tie goes to the lower id).
                return (
                    active
                    & (labels != j)
                    & (u >= low[:, j])
                    & (u >= 0.5 * cc[labels, j])
                )

            for j in range(k):
                cond = candidates(j)
                if not cond.any():
                    continue
                stale = cond & ~tight
                if stale.any():
                    rows = np.flatnonzero(stale)
                    du = pair_dist(X[rows], C[labels[rows]])
                    n_dist += len(rows)
                    u[rows] = du
                    low[rows, labels[rows]] = du
                    tight[rows] = True
                    cond = candidates(j)
                rows = np.flatnonzero(cond)
                if len(rows) == 0:
                    continue
                dj = pair_dist(X[rows], C[j])
                n_dist += len(rows)
                low[rows, j] = dj
                better = beats(dj, j, u[rows], labels[rows])
                if better.any():
                    rb = rows[better]
                    labels[rb] = j
                    u[rb] = dj[better]
        return AssignStats.of(X, labels, old_labels, k, n_dist)

    return iterate(C0, assign, max_iter).result(labels, memory_floats=n * k + 2 * n + k * k)
