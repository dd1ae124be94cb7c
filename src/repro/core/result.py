"""Common result type, input contract, label rules and iteration loop of
every k-means implementation.

All algorithms in the comparison are exact accelerations of Lloyd's
algorithm, so they share one contract:

* ``fit(X, init_centroids, max_iter)`` — k is implied by the init array,
  which every algorithm receives *identically* (see ``repro.core.init``);
  :func:`check_points` and :func:`check_centroids` reject bad inputs;
* an iteration = assignment + refinement; convergence = no label changed
  during the iteration (then centroids cannot move either);
* empty clusters keep their previous centroid;
* one distance, one tie rule, one guard: every label decision compares
  :func:`dist` (matrix) or :func:`pair_dist` (row pairs) values, which
  round alike (bit for bit in low d), so equal distances compare equal;
  the lowest id wins a tie (first-minimum argmins, :func:`beats`); a bound
  built from other numbers (pivot distances, radii, drift) prunes only
  after :func:`inflate`, so rounding cannot make a tie at the bound prune;
* ``n_dist`` counts every d-dimensional Euclidean distance evaluation the
  algorithm performs (point-centroid, pivot-centroid, centroid-centroid,
  …), the machine-independent "pruning power" metric of EXPERIMENTS.md;
* one outcome type: every fit reports a :class:`LoopResult` — final
  centroids, ``labels_centroids`` (the centroids its labels are the argmin
  of), iterations, convergence, per-iteration times and both counters. A
  local fit returns a :class:`KMeansResult`, which adds ``labels``,
  ``init_time`` and ``memory_floats``; a Spark fit returns a
  ``SparkKMeansResult``, which adds ``labels_df``.

They differ only in how they assign points, so the nine accelerated
algorithms (Dask-means and its two ablations, locally and on Spark,
Elkan, Hamerly, Drake, Yinyang, NoBound, Dual-tree) and Spark Lloyd run
one loop, :func:`iterate`, and each is an ``assign(C, drift) ->
AssignStats`` hook over its own state. Local Lloyd keeps its own plain
loop (``repro.baselines.lloyd``): it is the reference the exactness tests
compare every other algorithm, Spark Lloyd included, against.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


def check_points(X: np.ndarray) -> np.ndarray:
    """The input contract of every local fit: a finite 2-D array of points.
    Returns it as a contiguous float64 array (a copy only if needed)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or not np.isfinite(X).all():
        raise ValueError(f"X must be a finite 2-D array, got shape {X.shape}")
    return X


def check_centroids(init_centroids: np.ndarray, d: int, k: int | None = None) -> np.ndarray:
    """The input contract of every fit: a finite (k >= 1, d) array of
    initial centroids (of exactly ``k`` rows when given). Returns a
    float64 copy, which the fit then owns."""
    C = np.array(init_centroids, dtype=np.float64)
    if C.ndim != 2 or len(C) < 1 or C.shape[1] != d or (k is not None and len(C) != k):
        raise ValueError(
            f"init_centroids must be a ({k or 'k >= 1'}, {d}) array, got shape {C.shape}"
        )
    if not np.isfinite(C).all():
        raise ValueError("init_centroids must be finite")
    return C


def dist(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(len(X), len(C)) Euclidean distances by the BLAS expansion
    ||x||^2 + ||c||^2 - 2 x.c, clipped at 0 against rounding."""
    d2 = (X * X).sum(1)[:, None] + (C * C).sum(1)[None, :] - 2 * X @ C.T
    return np.sqrt(np.maximum(d2, 0, out=d2), out=d2)


def pair_dist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``||A[i] - B[i]||`` over the last (broadcast) axis, rounded as :func:`dist`."""
    d2 = (A * A).sum(-1) + (B * B).sum(-1) - 2 * (A * B).sum(-1)
    return np.sqrt(np.maximum(d2, 0))


def beats(d, j, u, label):
    """The tie rule: centroid ``j`` at ``d`` beats ``label`` at ``u`` when
    nearer, or as near with a lower id."""
    return (d < u) | ((d == u) & (j < label))


def inflate(ub):
    """Guard a bound prune against exact ties at the bound."""
    return ub * (1.0 + 1e-12) + 1e-9


def cluster_sums(X: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster sum vectors and counts of a labelling."""
    cnt = np.bincount(labels, minlength=k).astype(np.float64)
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, labels, X)
    return sums, cnt


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
    return refine_from_sums(old, *cluster_sums(X, labels, len(old)))


@dataclass
class AssignStats:
    """Outcome of one assignment pass (over all points, or one share)."""

    sv: np.ndarray          # (k, d) per-cluster sum vectors
    cnt: np.ndarray         # (k,) per-cluster counts
    changed: bool           # any label changed in this pass
    n_dist: int
    pruned_vectors: int     # vectors assigned in batch / kept via Eq. 4-5

    @classmethod
    def zero(cls, k: int, d: int) -> "AssignStats":
        """Stats of a pass over no point."""
        return cls(np.zeros((k, d)), np.zeros(k, dtype=np.int64), False, 0, 0)

    @classmethod
    def of(cls, X, labels, prev, k: int, n_dist: int) -> "AssignStats":
        """Stats of a pass that moved ``prev`` to ``labels`` over ``X``."""
        return cls(*cluster_sums(X, labels, k), bool((labels != prev).any()), n_dist, 0)

    @classmethod
    def total(cls, parts: list["AssignStats"]) -> "AssignStats":
        """Stats of a pass made of ``parts``, each over its own share."""
        return cls(
            sum(p.sv for p in parts), sum(p.cnt for p in parts), any(p.changed for p in parts),
            sum(p.n_dist for p in parts), sum(p.pruned_vectors for p in parts),
        )


@dataclass
class LoopResult:
    """Outcome of the iteration loop, as every fit reports it."""

    centroids: np.ndarray          # (k, d) final (refined) centroids
    labels_centroids: np.ndarray   # centroids the final assignment used —
    # labels are the argmin w.r.t. *these* (assignment precedes the last
    # refinement), which is what oracle validation must check against
    n_iter: int                    # iterations executed
    converged: bool
    iter_times: list[float]        # seconds per iteration
    n_dist: int                    # distance computations, total
    pruned_vectors: int            # vectors assigned in batch / kept via Eq. 4-5

    def result(self, labels: np.ndarray, **kw) -> KMeansResult:
        """The local fit's result: this outcome plus ``labels`` and ``kw``."""
        return KMeansResult(**vars(self), labels=labels, **kw)


@dataclass
class KMeansResult(LoopResult):
    """Outcome of one local k-means run: the loop's outcome plus labels."""

    labels: np.ndarray             # (n,) final assignment
    init_time: float = 0.0         # one-off setup (index build, bound init)
    memory_floats: int = 0         # extra memory beyond the dataset, float slots

    def sse(self, X: np.ndarray) -> float:
        """Sum of squared errors of the final clustering (Eq. 1)."""
        return float(((X - self.centroids[self.labels]) ** 2).sum())


def iterate(C: np.ndarray, assign, max_iter: int) -> LoopResult:
    """The driver loop of every accelerated algorithm.

    Each iteration runs ``assign(C, drift) -> AssignStats`` over every
    point, refines the centroids from the summed per-cluster vectors and
    records how far each centroid moved (one distance per centroid);
    ``drift`` is ``None`` in the first iteration and the previous
    refinement's moves after that. It stops after an iteration in which
    no label changed.
    """
    k = len(C)
    n_dist = pruned_vectors = it = 0
    iter_times: list[float] = []
    drift = None
    labels_C = C
    converged = False
    for it in range(1, max_iter + 1):
        t_iter = time.perf_counter()
        stats = assign(C, drift)
        n_dist += stats.n_dist
        pruned_vectors += stats.pruned_vectors

        labels_C = C
        C = refine_from_sums(labels_C, stats.sv, stats.cnt)
        # Subtractive: drift only loosens bounds and decides no label.
        drift = np.sqrt(((C - labels_C) ** 2).sum(axis=1))
        n_dist += k
        iter_times.append(time.perf_counter() - t_iter)
        if not stats.changed:
            converged = True
            break

    return LoopResult(
        centroids=C, labels_centroids=labels_C, n_iter=it, converged=converged,
        iter_times=iter_times, n_dist=n_dist, pruned_vectors=pruned_vectors,
    )
