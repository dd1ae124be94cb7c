"""Common result type + conventions shared by every k-means implementation.

All algorithms in the comparison are exact accelerations of Lloyd's
algorithm, so they share one contract:

* ``fit(X, init_centroids, max_iter)`` — k is implied by the init array,
  which every algorithm receives *identically* (see ``repro.core.init``).
* an iteration = assignment + refinement; convergence = no label changed
  during the iteration (then centroids cannot move either);
* empty clusters keep their previous centroid;
* ``n_dist`` counts every d-dimensional Euclidean distance evaluation the
  algorithm performs (point-centroid, pivot-centroid, centroid-centroid,
  …). This is the machine-independent "pruning power" metric used in
  EXPERIMENTS.md next to wall-clock, because the paper's C++ scalar
  baseline and our NumPy/BLAS baselines have very different constant
  factors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class KMeansResult:
    """Outcome of one k-means run."""

    centroids: np.ndarray        # (k, d) final centroids
    labels: np.ndarray           # (n,) final assignment
    n_iter: int                  # iterations executed
    converged: bool
    iter_times: list[float] = field(default_factory=list)  # seconds/iteration
    init_time: float = 0.0       # one-off setup (index build, bound init)
    n_dist: int = 0              # distance computations, total
    pruned_vectors: int = 0      # vectors assigned in batch / kept via Eq.4-5
    memory_floats: int = 0       # extra memory beyond the dataset, float slots
    extra: dict = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return self.init_time + sum(self.iter_times)

    def sse(self, X: np.ndarray) -> float:
        """Sum of squared errors of the final clustering (Eq. 1)."""
        return float(((X - self.centroids[self.labels]) ** 2).sum())


def refine_from_sums(old: np.ndarray, sv: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Mean of each cluster from its sum vector ``sv`` and count ``cnt``;
    empty clusters keep their previous centroid."""
    out = old.copy()
    nz = cnt > 0
    out[nz] = sv[nz] / cnt[nz, None]
    return out


def refine_centroids(
    X: np.ndarray, labels: np.ndarray, old: np.ndarray
) -> np.ndarray:
    """Mean of each cluster; empty clusters keep their previous centroid."""
    k, d = old.shape
    cnt = np.bincount(labels, minlength=k).astype(np.float64)
    sums = np.zeros((k, d))
    np.add.at(sums, labels, X)
    return refine_from_sums(old, sums, cnt)
