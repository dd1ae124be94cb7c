"""Drake's algorithm [19] — b = k/4 sorted lower bounds per point.

Each point caches its b closest centroids (after the assigned one) with
per-candidate lower bounds; the b-th bound also lower-bounds every
centroid outside the cache, so most reassignments are resolved inside the
cache. Memory is O(n * k/4) floats, which is why the paper reports Drake
N/A at k = 1e4. Exact drop-in for Lloyd from the same init.
"""
from __future__ import annotations

import numpy as np

from repro.core.result import (
    AssignStats, KMeansResult, check_centroids, check_points, dist, iterate,
)


def n_bounds(k: int) -> int:
    """Paper's b: k/4 cached bounds (at least 1)."""
    return max(1, int(np.ceil(k / 4)))


def _full_sort(X, C, b):
    """Exact assignment + candidate cache from a full distance matrix."""
    d = dist(X, C)
    if len(C) == 1:  # no other centroids to cache
        n = len(X)
        return (
            np.zeros(n, dtype=np.int64), d[:, 0],
            np.zeros((n, b), dtype=np.int64), np.full((n, b), np.inf),
            np.full(n, np.inf),
        )
    order = np.argsort(d, axis=1, kind="stable")
    labels = order[:, 0]
    rows = np.arange(len(X))
    u = d[rows, labels]
    cand = order[:, 1 : b + 1]                      # ids of next-b closest
    cand_lb = np.take_along_axis(d, cand, axis=1)   # exact -> lower bounds
    # bound on every centroid outside the cache: distance to the (b+2)-th
    # closest if it exists, else +inf (the cache already covers all others).
    k = C.shape[0]
    rest_lb = d[rows, order[:, b + 1]] if b + 1 < k else np.full(len(X), np.inf)
    return labels, u, cand, cand_lb, rest_lb


def fit(X: np.ndarray, init_centroids: np.ndarray, max_iter: int = 20) -> KMeansResult:
    X = check_points(X)
    n, d = X.shape
    C0 = check_centroids(init_centroids, d)
    k = len(C0)
    b = n_bounds(k)
    labels = np.full(n, -1, dtype=np.int64)
    u = np.zeros(n)
    cand = np.zeros((n, b), dtype=np.int64)
    cand_lb = np.zeros((n, b))
    rest_lb = np.zeros(n)

    def assign(C, drift):
        nonlocal u, cand, cand_lb, rest_lb
        old_labels = labels.copy()
        if drift is None:
            labels[:], u, cand, cand_lb, rest_lb = _full_sort(X, C, b)
            return AssignStats.of(X, labels, old_labels, k, n * k)
        u += drift[labels]
        cand_lb = np.maximum(cand_lb - drift[cand], 0.0)
        rest_lb = np.maximum(rest_lb - drift.max(), 0.0)

        n_dist = 0
        # Points whose upper bound undercuts every cached lower bound
        # (and the out-of-cache bound) provably keep their label. The
        # cache is not kept sorted across drift updates, so take the min.
        guard = np.minimum(cand_lb.min(axis=1), rest_lb)
        suspect = np.flatnonzero(u >= guard)
        if len(suspect):
            du = np.sqrt(((X[suspect] - C[labels[suspect]]) ** 2).sum(1))
            n_dist += len(suspect)
            u[suspect] = du
            still = suspect[du >= guard[suspect]]
            # Inside-cache resolution: exact distances to the b cached
            # candidates; valid while u < rest_lb (at equality an
            # out-of-cache centroid may tie with a lower id).
            incache = still[u[still] < rest_lb[still]]
            if len(incache):
                pc = C[cand[incache]]                    # (m, b, d)
                dc = np.sqrt(
                    ((X[incache, None, :] - pc) ** 2).sum(2)
                )
                n_dist += len(incache) * b
                cand_lb[incache] = dc
                # Nearest cached candidate, the lowest id among ties.
                dbest = dc.min(axis=1)
                ids = cand[incache]
                jbest = np.where(dc == dbest[:, None], ids, k).argmin(axis=1)
                idbest = ids[np.arange(len(incache)), jbest]
                win = (dbest < u[incache]) | (
                    (dbest == u[incache]) & (idbest < labels[incache])
                )
                rowsw = incache[win]
                # Swap: the winning cached centroid becomes the label and
                # the dethroned label takes its cache slot (with its
                # exact distance as the bound). This keeps the invariant
                # that every centroid is bounded by u, the cache, or
                # rest_lb — dropping the old label silently loses it.
                old_lab = labels[rowsw]
                old_u = u[rowsw]
                labels[rowsw] = idbest[win]
                u[rowsw] = dbest[win]
                cand[rowsw, jbest[win]] = old_lab
                cand_lb[rowsw, jbest[win]] = old_u
            # Out-of-cache: full recompute + resort for the rest.
            full = still[u[still] >= rest_lb[still]]
            if len(full):
                la, uu, cc_, cl, rl = _full_sort(X[full], C, b)
                n_dist += len(full) * k
                labels[full] = la
                u[full] = uu
                cand[full] = cc_
                cand_lb[full] = cl
                rest_lb[full] = rl
        return AssignStats.of(X, labels, old_labels, k, n_dist)

    return iterate(C0, assign, max_iter).result(labels, memory_floats=2 * n * b + 2 * n)
