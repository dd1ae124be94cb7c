"""Centroid initialization shared by every algorithm in the comparison.

The paper compares *exact* accelerations of Lloyd's algorithm, so all
implementations must start from identical centroids for their trajectories
to be comparable (and for our equivalence tests to be exact). Both schemes
are deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np


def random_init(X: np.ndarray, k: int, *, seed: int = 0) -> np.ndarray:
    """k distinct input points chosen uniformly at random."""
    n = len(X)
    if k > n:
        raise ValueError(f"k={k} > n={n}")
    g = np.random.default_rng(seed)
    return X[g.choice(n, size=k, replace=False)].copy()


def kmeanspp_init(X: np.ndarray, k: int, *, seed: int = 0) -> np.ndarray:
    """k-means++ seeding (D^2 sampling), deterministic in ``seed``."""
    n = len(X)
    if k > n:
        raise ValueError(f"k={k} > n={n}")
    g = np.random.default_rng(seed)
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[g.integers(n)]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)  # sampling weights, no label decision
    for j in range(1, k):
        p = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centroids[j] = X[g.choice(n, p=p)]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))
    return centroids
