"""Lloyd's algorithm [39] — the exactness and cost reference.

Full n x k distance evaluation per iteration, no extra memory beyond the
label array. Distances are computed blockwise with the BLAS expansion
||x - c||^2 = ||x||^2 + ||c||^2 - 2 x.c so the n x k matrix never exceeds
the block budget.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.result import KMeansResult, check_centroids, check_points, refine_centroids

_BLOCK_FLOATS = 8_000_000  # ~64 MB of n x k distance matrix per block


def assign_labels(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """argmin_j ||x - c_j|| for every row of X, blockwise."""
    n = len(X)
    k = len(C)
    block = max(1, _BLOCK_FLOATS // max(1, k))
    out = np.empty(n, dtype=np.int64)
    c_sq = (C * C).sum(axis=1)
    for s in range(0, n, block):
        xb = X[s : s + block]
        d2 = (xb * xb).sum(axis=1)[:, None] + c_sq[None, :] - 2.0 * (xb @ C.T)
        out[s : s + block] = np.argmin(d2, axis=1)
    return out


def fit(X: np.ndarray, init_centroids: np.ndarray, max_iter: int = 20) -> KMeansResult:
    """Plain Lloyd iterations from the given initial centroids."""
    X = check_points(X)
    C = check_centroids(init_centroids, X.shape[1])
    n, k = len(X), len(C)
    labels = np.full(n, -1, dtype=np.int64)
    n_dist = 0
    iter_times: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        t0 = time.perf_counter()
        new_labels = assign_labels(X, C)
        n_dist += n * k
        changed = (new_labels != labels).any()
        labels = new_labels
        C = refine_centroids(X, labels, C)
        iter_times.append(time.perf_counter() - t0)
        if not changed:
            converged = True
            break
    return KMeansResult(
        centroids=C, labels=labels, n_iter=it, converged=converged,
        iter_times=iter_times, n_dist=n_dist,
        memory_floats=n,  # the label array
    )
