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

import time

import numpy as np

from repro.baselines.elkan import pairwise
from repro.core.daskmeans import check_centroids, check_points
from repro.core.result import KMeansResult, refine_centroids


def fit(X: np.ndarray, init_centroids: np.ndarray, max_iter: int = 20) -> KMeansResult:
    X = check_points(X)
    n, d = X.shape
    C = check_centroids(init_centroids, d)
    k = len(C)
    n_dist = 0
    iter_times: list[float] = []
    labels = np.full(n, -1, dtype=np.int64)

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        t_iter = time.perf_counter()
        old_labels = labels.copy()

        if it == 1:
            d2 = (
                (X * X).sum(1)[:, None] + (C * C).sum(1)[None, :] - 2 * X @ C.T
            )
            n_dist += n * k
            labels = np.argmin(d2, axis=1)
        else:
            cc = pairwise(C)
            n_dist += k * k
            # Every point's distance to its (moved) centroid — the per-point
            # work NoBound always pays.
            u = np.sqrt(((X - C[labels]) ** 2).sum(1))
            n_dist += n
            # Ball radii and neighbor sets from the k x k matrix.
            R = np.zeros(k)
            np.maximum.at(R, labels, u)
            # Each point is examined exactly once under its snapshot cluster;
            # mutating `labels` inside the loop must not re-route points.
            snapshot = labels.copy()
            for j in range(k):
                nbr = np.flatnonzero((cc[j] < 2.0 * R[j]) & (np.arange(k) != j))
                rows = np.flatnonzero(snapshot == j)
                if len(rows) == 0 or len(nbr) == 0:
                    continue
                # Stable area: closer than half the nearest neighbor-centroid
                # distance -> provably still nearest to c_j.
                stable_r = 0.5 * cc[j, nbr].min()
                ann = rows[u[rows] > stable_r]
                if len(ann) == 0:
                    continue
                Cn = C[nbr]
                dm = np.sqrt(
                    np.maximum(
                        (X[ann] * X[ann]).sum(1)[:, None]
                        + (Cn * Cn).sum(1)[None, :]
                        - 2 * X[ann] @ Cn.T,
                        0,
                    )
                )
                n_dist += len(ann) * len(nbr)
                jloc = np.argmin(dm, axis=1)
                dbest = dm[np.arange(len(ann)), jloc]
                win = dbest < u[ann]
                labels[ann[win]] = nbr[jloc[win]]

        new_C = refine_centroids(X, labels, C)
        n_dist += k
        C = new_C
        iter_times.append(time.perf_counter() - t_iter)
        if (labels == old_labels).all():
            converged = True
            break

    return KMeansResult(
        centroids=C, labels=labels, n_iter=it, converged=converged,
        iter_times=iter_times, n_dist=n_dist,
        memory_floats=k * k + 2 * n,
    )
