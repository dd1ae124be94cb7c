"""Yinyang k-means [17] — group-level lower bounds (k/10 groups).

Centroids are clustered once at init into G = max(1, k/10) groups; each
point keeps one upper bound and G group lower bounds (O(n * k/10) memory,
between Hamerly and Elkan). Global filter, then per-group exact scans for
the groups whose bound fails. Exact drop-in for Lloyd from the same init.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core import init as cinit
from repro.core.result import (
    AssignStats, KMeansResult, beats, check_centroids, check_points, dist, iterate, pair_dist,
)


def n_groups(k: int) -> int:
    return max(1, k // 10)


def _group_centroids(C: np.ndarray, G: int, seed: int = 0) -> np.ndarray:
    """Cluster the initial centroids into G groups (5 Lloyd iterations)."""
    from repro.baselines import lloyd

    if G >= len(C):
        return np.arange(len(C))
    r = lloyd.fit(C, cinit.random_init(C, G, seed=seed), max_iter=5)
    return r.labels


def fit(X: np.ndarray, init_centroids: np.ndarray, max_iter: int = 20) -> KMeansResult:
    X = check_points(X)
    n, d = X.shape
    C0 = check_centroids(init_centroids, d)
    k = len(C0)
    G = n_groups(k)

    t0 = time.perf_counter()
    group = _group_centroids(C0, G)
    members = [np.flatnonzero(group == g) for g in range(G)]
    init_time = time.perf_counter() - t0

    labels = np.full(n, -1, dtype=np.int64)
    u = np.zeros(n)
    lg = np.zeros((n, G))

    def assign(C, drift):
        nonlocal u, lg
        old_labels = labels.copy()
        if drift is None:
            dists = dist(X, C)
            labels[:] = np.argmin(dists, axis=1)
            u = dists[np.arange(n), labels]
            dists[np.arange(n), labels] = np.inf  # exclude assigned centroid
            for g in range(G):
                lg[:, g] = (
                    dists[:, members[g]].min(axis=1) if len(members[g]) else np.inf
                )
            return AssignStats.of(X, labels, old_labels, k, n * k)
        gd = np.array(
            [drift[members[g]].max() if len(members[g]) else 0.0 for g in range(G)]
        )
        u += drift[labels]
        lg = np.maximum(lg - gd[None, :], 0.0)

        n_dist = 0
        suspect = np.flatnonzero(u >= lg.min(axis=1))
        if len(suspect):
            du = pair_dist(X[suspect], C[labels[suspect]])
            n_dist += len(suspect)
            u[suspect] = du
            still = suspect[du >= lg[suspect].min(axis=1)]
            for g in range(G):
                if not len(members[g]):
                    continue
                rows = still[lg[still, g] <= u[still]]
                if not len(rows):
                    continue
                dm = dist(X[rows], C[members[g]])
                n_dist += len(rows) * len(members[g])
                jloc = np.argmin(dm, axis=1)
                dbest = dm[np.arange(len(rows)), jloc]
                jbest = members[g][jloc]
                win = beats(dbest, jbest, u[rows], labels[rows])
                rw = rows[win]
                # The dethroned centroid becomes a candidate again: its
                # exact distance (old u) tightens — but must not raise —
                # its group's lower bound.
                np.minimum.at(lg, (rw, group[labels[rw]]), u[rw])
                labels[rw] = jbest[win]
                u[rw] = dbest[win]
                # New bound for the scanned group: its nearest centroid
                # other than the (possibly new) label.
                lg[rows, g] = np.where(members[g] == labels[rows][:, None], np.inf, dm).min(1)
        return AssignStats.of(X, labels, old_labels, k, n_dist)

    return iterate(C0, assign, max_iter).result(
        labels, init_time=init_time, memory_floats=n * G + 2 * n + k
    )
