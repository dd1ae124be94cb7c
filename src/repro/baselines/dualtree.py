"""Dual-tree k-means [50] (simplified) — index batching + node bounds.

The paper's Dual-tree comparator extends Hamerly's single upper/lower
bound to the index-based algorithm [44]: a Ball-tree over the points is
traversed each iteration, each node caches its previous cluster with an
upper bound (d1 + r) and a lower bound (d2 - r), and drift-adjusted
bounds let whole subtrees be kept with **zero** distance computations.
Unlike Dask-means there is no centroid index: a node that must be
checked scans all k centroids, and leaves fall back to full per-point
scans — which is exactly the O(k)-scan drawback Section II-C attributes
to index-based algorithms.

Simplification vs [50]: the original uses kd/cover-trees with <= 2
points per leaf and also groups centroids; we keep one point Ball-tree
(leaf capacity ``LEAF_CAPACITY`` = 4, to mirror the tiny-leaf memory
profile that Fig. 9 shows) and the node-level Hamerly bounds. Exact
drop-in for Lloyd from the same init.
"""
from __future__ import annotations

import time

import numpy as np

from repro.baselines.lloyd import assign_labels
from repro.core import balltree as bt
from repro.core.balltree import NO_CLUSTER
from repro.core.result import (
    AssignStats, KMeansResult, check_centroids, check_points, inflate, iterate,
)
from repro.estimator.memory import measured_floats

#: Leaf capacity of the point Ball-tree.
LEAF_CAPACITY = 4


def fit(X: np.ndarray, init_centroids: np.ndarray, max_iter: int = 20) -> KMeansResult:
    X = check_points(X)
    n, d = X.shape
    C0 = check_centroids(init_centroids, d)
    k = len(C0)

    t0 = time.perf_counter()
    tree = bt.build(X, LEAF_CAPACITY)
    m = tree.n_nodes
    init_time = time.perf_counter() - t0

    # Node-level Hamerly bounds, lazily drift-adjusted via cumulative sums:
    # current ub = ub_set + (cum_drift[a] - set_cum_a); lb analogously with
    # the cumulative max drift. This keeps bounds valid for nodes skipped
    # over several iterations without touching them.
    ub_set = np.full(m, np.inf)
    lb_set = np.full(m, -np.inf)
    set_cum_a = np.zeros(m)
    set_cum_max = np.zeros(m)
    cum_drift = np.zeros(k)
    cum_max = 0.0
    labels = np.full(n, NO_CLUSTER, dtype=np.int64)

    def assign(C, drift):
        nonlocal cum_drift, cum_max
        if drift is not None:
            cum_drift += drift
            cum_max += float(drift.max())
        stats = AssignStats.zero(k, d)

        def batch_assign(node: int, j: int):
            rows = tree.points(node)
            if (labels[rows] != j).any():
                stats.changed = True
                labels[rows] = j
            tree.cluster[node : tree.subtree_end[node]] = j
            # Descendants now carry cluster j but their cached bounds were
            # set under an older assignment — invalidate them (not the node
            # itself, whose own records stay consistent with its cluster).
            ub_set[node + 1 : tree.subtree_end[node]] = np.inf
            stats.sv[j] += tree.node_sum[node]
            stats.cnt[j] += len(rows)
            stats.pruned_vectors += len(rows)

        stack = [0]
        while stack:
            node = stack.pop()
            aN = int(tree.cluster[node])
            r = float(tree.radius[node])
            pv = tree.pivot[node]

            if aN != NO_CLUSTER:
                ub = ub_set[node] + (cum_drift[aN] - set_cum_a[node])
                lb = lb_set[node] - (cum_max - set_cum_max[node])
                if inflate(ub) < lb:
                    # Whole subtree provably keeps its cluster: zero dists.
                    batch_assign(node, aN)
                    continue

            # Subtractive: pivot distances only feed the guarded bounds.
            dd = np.sqrt(((C - pv) ** 2).sum(1))
            stats.n_dist += k
            if k >= 2:
                i1, i2 = np.argpartition(dd, 1)[:2]
                if dd[i2] < dd[i1]:
                    i1, i2 = i2, i1
                d1, d2 = float(dd[i1]), float(dd[i2])
            else:
                i1, d1, d2 = 0, float(dd[0]), np.inf

            if d2 > inflate(d1 + 2.0 * r):
                batch_assign(node, int(i1))
                ub_set[node] = d1 + r
                lb_set[node] = d2 - r
                set_cum_a[node] = cum_drift[i1]
                set_cum_max[node] = cum_max
                continue

            if not tree.is_leaf(node):
                stack += reversed(tree.children(node))  # left pops first
                continue

            rows = tree.points(node)
            pts = X[rows]
            best = assign_labels(pts, C)
            stats.n_dist += len(rows) * k
            if (labels[rows] != best).any():
                stats.changed = True
            labels[rows] = best
            np.add.at(stats.sv, best, pts)
            np.add.at(stats.cnt, best, 1)
            tree.cluster[node] = NO_CLUSTER
            ub_set[node] = np.inf  # invalidate node bounds for mixed leaf
        return stats

    return iterate(C0, assign, max_iter).result(
        labels, init_time=init_time, memory_floats=measured_floats(tree) + 4 * m + n,
    )
