"""Hamerly's algorithm [26] — one upper + one lower bound per point.

The most memory-efficient sequential accelerator in the comparison
(3n floats of state). A point is skipped when its upper bound is below
max(s[label], l[i]) where s is half the distance to the assigned
centroid's nearest other centroid and l lower-bounds the second-closest
centroid. Exact drop-in for Lloyd from the same init.
"""
from __future__ import annotations

import time

import numpy as np

from repro.baselines.elkan import pairwise
from repro.core.daskmeans import check_centroids, check_points
from repro.core.result import KMeansResult, refine_centroids


def _full_assign(X, C):
    d = np.sqrt(
        np.maximum((X * X).sum(1)[:, None] + (C * C).sum(1)[None, :] - 2 * X @ C.T, 0)
    )
    if len(C) == 1:
        return np.zeros(len(X), dtype=np.int64), d[:, 0], np.full(len(X), np.inf)
    part = np.argpartition(d, 1, axis=1)[:, :2]
    rows = np.arange(len(X))
    d0 = d[rows, part[:, 0]]
    d1 = d[rows, part[:, 1]]
    swap = d1 < d0
    lab = np.where(swap, part[:, 1], part[:, 0])
    u = np.where(swap, d1, d0)
    low = np.where(swap, d0, d1)
    return lab, u, low


def fit(X: np.ndarray, init_centroids: np.ndarray, max_iter: int = 20) -> KMeansResult:
    X = check_points(X)
    n, d = X.shape
    C = check_centroids(init_centroids, d)
    k = len(C)
    n_dist = 0
    iter_times: list[float] = []
    labels = np.full(n, -1, dtype=np.int64)
    u = np.zeros(n)
    low = np.zeros(n)

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        t_iter = time.perf_counter()
        old_labels = labels.copy()

        if it == 1:
            labels, u, low = _full_assign(X, C)
            n_dist += n * k
        else:
            cc = pairwise(C)
            n_dist += k * k
            np.fill_diagonal(cc, np.inf)
            s = 0.5 * cc.min(axis=1)

            m = np.maximum(s[labels], low)
            suspect = np.flatnonzero(u > m)
            if len(suspect):
                # Tighten u with one exact distance to the assigned centroid.
                du = np.sqrt(((X[suspect] - C[labels[suspect]]) ** 2).sum(1))
                n_dist += len(suspect)
                u[suspect] = du
                still = suspect[du > m[suspect]]
                if len(still):
                    lab2, u2, low2 = _full_assign(X[still], C)
                    n_dist += len(still) * k
                    labels[still] = lab2
                    u[still] = u2
                    low[still] = low2

        new_C = refine_centroids(X, labels, C)
        drift = np.sqrt(((new_C - C) ** 2).sum(1))
        n_dist += k
        C = new_C
        # u grows by own centroid's drift; l shrinks by the largest drift of
        # any *other* centroid (two-max refinement keeps it tighter).
        order = np.argsort(drift)
        dmax, d2nd = drift[order[-1]], drift[order[-2]] if k > 1 else 0.0
        u += drift[labels]
        low -= np.where(labels == order[-1], d2nd, dmax)
        iter_times.append(time.perf_counter() - t_iter)
        if (labels == old_labels).all():
            converged = True
            break

    return KMeansResult(
        centroids=C, labels=labels, n_iter=it, converged=converged,
        iter_times=iter_times, n_dist=n_dist,
        memory_floats=3 * n + k * k,
    )
