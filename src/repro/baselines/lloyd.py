"""Lloyd's algorithm [39] — the exactness and cost reference.

Full n x k distance evaluation per iteration, no extra memory beyond the
label array. Distances are ``result.dist`` (the BLAS expansion
||x||^2 + ||c||^2 - 2 x.c), computed blockwise so the n x k matrix never
exceeds the block budget.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.result import KMeansResult, check_centroids, check_points, dist, refine_centroids

_BLOCK_FLOATS = 1 << 18  # 2 MB of n x k distances per block: the passes stay in cache


def assign_labels(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """argmin_j ||x - c_j|| for every row of X, blockwise."""
    n = len(X)
    k = len(C)
    block = max(1, _BLOCK_FLOATS // max(1, k))
    out = np.empty(n, dtype=np.int64)
    for s in range(0, n, block):
        out[s : s + block] = np.argmin(dist(X[s : s + block], C), axis=1)
    return out


def fit(X: np.ndarray, init_centroids: np.ndarray, max_iter: int = 20) -> KMeansResult:
    """Plain Lloyd iterations from the given initial centroids."""
    X = check_points(X)
    C = check_centroids(init_centroids, X.shape[1])
    n, k = len(X), len(C)
    labels = np.full(n, -1, dtype=np.int64)
    n_dist = 0
    iter_times: list[float] = []
    labels_C = C
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        t0 = time.perf_counter()
        new_labels = assign_labels(X, C)
        n_dist += n * k
        changed = (new_labels != labels).any()
        labels, labels_C = new_labels, C
        C = refine_centroids(X, labels, C)
        iter_times.append(time.perf_counter() - t0)
        if not changed:
            converged = True
            break
    return KMeansResult(
        centroids=C, labels_centroids=labels_C, n_iter=it, converged=converged,
        iter_times=iter_times, n_dist=n_dist, pruned_vectors=0, labels=labels,
        memory_floats=n,  # the label array
    )
