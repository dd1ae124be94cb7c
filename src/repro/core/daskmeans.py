"""Dask-means: the paper's memory-efficient accelerator (Section IV, Alg. 1).

Structure per iteration:

1. rebuild the **centroid index** (Ball-tree over the k current centroids);
2. compute each centroid's **inter bound** cb[j] (Eq. 3), the distance to
   its nearest other centroid, by a walk over the centroid index whose
   candidate lists are cut by the drift bound of Eq. 9;
3. **Assign** by a walk over the spatial-vector index: a node either
   (a) keeps its previous cluster when the inter bound proves it
   (Eq. 5), (b) is batch-assigned to its nearest centroid when the
   nearest-two gap exceeds its diameter (Eq. 6), or (c) is split; leaves
   keep a point's previous cluster when the point-level inter bound
   proves it (Eq. 4); the other points of a block of leaves take one
   argmin over the union of those leaves' lists, as Lloyd does over all k;
4. refine centroids from the per-cluster sum vectors and compute drifts.

Step 4 is ``repro.core.result.iterate``, the loop every accelerated
algorithm shares. Steps 1-3 are its ``assign(C, drift)`` hook,
:class:`Hook`, written once for the local :func:`fit` and the Spark
per-partition operator (``repro.spark.daskmeans_spark``); only step 3's
``assign_points(C, cb) -> AssignStats`` differs: locally one
:func:`assign_pass` over the single point tree; on Spark a broadcast of
(C, cb), an ``assign_pass`` over each partition's persistent Ball-tree
and the sum of the partitions' stats.

**The walk** (both indexes). Alg. 1 recurses node by node and runs a kNN
search over the centroid index at each node (Eq. 7-8). Here a tree is
walked one depth at a time: the active nodes of a depth are handled in
NumPy batches (runs of at most ``_BLOCK_FLOATS`` list entries, taken
depth-first), and each node carries a *candidate list* of centroid ids
inherited from its parent (Pelleg & Moore's blacklisting, Kanungo et
al.'s filtering). The root's list is every centroid. A node's list holds
every centroid that can be nearest to any point in its ball, so the
nearest two over the list decide Eq. 6 exactly; its children inherit the
centroids within d1 + 2r of its pivot, the triangle bound that Eq. 7-8
prune the kNN search with. The deviation from Alg. 1: the per-node kNN
over the centroid index becomes this inherited, bound-filtered list, and
the centroid index now serves Eq. 3/9 only — :func:`compute_cb` walks it
with the centroids themselves as queries, each node keeping the
centroids within d2 + 2r (and within the Eq. 9 bound) of its pivot;
a centroid's cb is the d2 of its leaf's list, which holds it at 0.

Exactness notes (mirroring the paper's reasoning):

* Eq. 4/5 remain valid for *stale* previous assignments: the check proves
  that every covered point is closest to centroid a(N) regardless of how
  a(N) was obtained, so batch-assigned subtrees simply inherit the
  parent's cluster id (and label resync happens inside the batch step).
* Every bound is inflated by a tiny epsilon before it is compared: a list
  filter keeps, and Eq. 4/5/6 prune, only what rounding cannot turn into
  a tie at exactly the bound.
* Exact ties go to the lowest centroid id, as in Lloyd's ``argmin``: lists
  stay in ascending id order and every argmin takes the first minimum.

Ablations (Section VI-B): ``use_knn=False`` -> **NokNN** (inter bound kept,
but every list keeps all k centroids: the same walk with the candidate
filter off, and no centroid index); ``use_inter_bound=False`` -> **NoInB**
(candidate lists kept; no inter bounds, ``cb=None``, so Eq. 4/5 keep nothing).
"""
from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core import balltree as bt
from repro.core.balltree import NO_CLUSTER, BallTree
from repro.core.result import (
    AssignStats, KMeansResult, check_centroids, check_points, dist, inflate, iterate,
)
from repro.estimator import memory

#: Most floats one vectorized distance block holds (a block of gathered
#: difference vectors, or a block of points against their candidates),
#: and most list entries one batch of a frontier holds. This bounds the
#: walks' working memory whatever n, k and d are.
_BLOCK_FLOATS = 1 << 16


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, e) for s, e in zip(starts, ends)])``."""
    lens = ends - starts
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())


def _pair_dist(A: np.ndarray, ia: np.ndarray, B: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """``||A[ia[i]] - B[ib[i]]||`` for every i, gathered block by block.
    Subtractive (cheaper on gathered rows): it yields pivot and inter-bound
    distances, always compared through ``inflate``, never a label."""
    out = np.empty(len(ia))
    step = max(1, _BLOCK_FLOATS // A.shape[1])
    for s in range(0, len(ia), step):
        diff = A[ia[s : s + step]] - B[ib[s : s + step]]
        out[s : s + step] = np.sqrt((diff * diff).sum(axis=1))
    return out


@dataclass
class _Lists:
    """Candidate lists of a set of nodes, flat (CSR): ``nodes[i]`` keeps
    centroid ids ``ids[ptr[i]:ptr[i + 1]]``, in ascending order."""

    nodes: np.ndarray
    ptr: np.ndarray
    ids: np.ndarray

    @classmethod
    def root(cls, k: int) -> "_Lists":
        return cls(np.zeros(1, dtype=np.int64), np.array([0, k]), np.arange(k))

    @property
    def lens(self) -> np.ndarray:
        return np.diff(self.ptr)

    @property
    def owner(self) -> np.ndarray:
        """Position in ``nodes`` of every entry of ``ids``."""
        return np.repeat(np.arange(len(self.nodes)), self.lens)

    def take(self, ix: np.ndarray, nodes: np.ndarray | None = None) -> "_Lists":
        """The lists at positions ``ix`` (repeats allowed), handed to
        ``nodes`` when given."""
        return _Lists(
            self.nodes[ix] if nodes is None else nodes,
            np.concatenate([[0], np.cumsum(self.lens[ix])]),
            self.ids[_ranges(self.ptr[ix], self.ptr[ix + 1])],
        )

    def keep(self, mask: np.ndarray) -> "_Lists":
        """The same nodes with only the entries where ``mask`` holds."""
        cnt = np.bincount(self.owner[mask], minlength=len(self.nodes))
        return _Lists(self.nodes, np.concatenate([[0], np.cumsum(cnt)]), self.ids[mask])

    def children(self, tree: BallTree) -> "_Lists":
        """Both children of every (internal) node, each inheriting its
        parent's list."""
        kids = np.column_stack(tree.children(self.nodes)).ravel()
        return self.take(np.repeat(np.arange(len(self.nodes)), 2), kids)

    def points(self, tree: BallTree) -> tuple[np.ndarray, np.ndarray]:
        """Rows of ``tree.X`` covered by the nodes, and the position in
        ``nodes`` of each row's node."""
        s, e = tree.start[self.nodes], tree.end[self.nodes]
        return tree.idx[_ranges(s, e)], np.repeat(np.arange(len(self.nodes)), e - s)

    def split(self, cap: int) -> list["_Lists"]:
        """Runs of consecutive nodes holding at most ``cap`` entries each
        (one node may hold more); none for no nodes."""
        m = len(self.nodes)
        if len(self.ids) <= cap or m == 1:
            return [self] if m else []
        return self.take(np.arange(m // 2)).split(cap) + self.take(np.arange(m // 2, m)).split(cap)

    def nearest2(self, P: np.ndarray, C: np.ndarray):
        """Distances ``D`` from each node's row of ``P`` (pivots, or the
        centroids themselves) to its candidates, one per entry, and, per
        node, the smallest ``d1``, the lowest id ``n1`` at ``d1`` and the
        second smallest ``d2`` (inf for a one-entry list; lists are never
        empty)."""
        D = _pair_dist(P, self.nodes[self.owner], C, self.ids)
        starts = self.ptr[:-1]
        d1 = np.minimum.reduceat(D, starts)
        at = np.arange(len(D))
        first = np.minimum.reduceat(np.where(D == d1[self.owner], at, len(D)), starts)
        rest = np.where(at == first[self.owner], np.inf, D)
        return D, d1, self.ids[first], np.minimum.reduceat(rest, starts)


def compute_cb(
    C: np.ndarray,
    ctree: BallTree | None,
    cb_prev: np.ndarray | None,
    drift: np.ndarray | None,
) -> tuple[np.ndarray, int]:
    """Inter bounds cb[j] = distance to each centroid's nearest other
    centroid (Eq. 3), and the number of distances computed.

    Walks the centroid index with the centroids as queries: a node keeps
    the centroids within ``d2 + 2r`` of its pivot, where ``d2`` is the
    second-smallest pivot distance over its list, and, from the second
    iteration (``cb_prev``/``drift`` given), within the Eq. 9 bound
    ``cb_prev[j] + drift[j] + max(drift)`` of the centroids it covers plus ``r``.
    Each centroid then scans its leaf's list. One scan of all k centroids
    serves every centroid left at inf: all of them for ``ctree=None``
    (NokNN), and those whose list held no other (a tie at the bound, k = 1).
    """
    k = len(C)
    cb = np.full(k, np.inf)
    n_dist = 0 if ctree is None else _walk_cb(C, ctree, cb_prev, drift, cb)
    rest = np.flatnonzero(np.isinf(cb))
    n_dist += _scan_cb(C, _Lists.root(k), np.zeros(len(rest), dtype=np.int64), rest, cb)
    return cb, n_dist


def _walk_cb(C, ctree, cb_prev, drift, cb) -> int:
    """The centroid-index walk of :func:`compute_cb`; fills ``cb``."""
    node_ub = None
    if cb_prev is not None:
        ub = cb_prev + drift + drift.max()
        # Max of ub over each node's centroids: reduceat over interleaved
        # (start, end) pairs; a sentinel keeps the root's end in range.
        bounds = np.column_stack([ctree.start, ctree.end]).ravel()
        node_ub = np.maximum.reduceat(np.append(ub[ctree.idx], 0.0), bounds)[::2]
    n_dist = 0
    stack = [_Lists.root(len(C))]
    while stack:
        level = stack.pop()
        D, _, _, d2 = level.nearest2(ctree.pivot, C)
        n_dist += len(D)
        r = ctree.radius[level.nodes]
        bound = d2 + 2.0 * r
        if node_ub is not None:
            bound = np.minimum(bound, node_ub[level.nodes] + r)
        level = level.keep(D <= inflate(bound)[level.owner])
        leaf = ctree.is_leaf(level.nodes)
        leaves = level.take(np.flatnonzero(leaf))
        queries, own = leaves.points(ctree)
        n_dist += _scan_cb(C, leaves, own, queries, cb)
        stack += level.take(np.flatnonzero(~leaf)).children(ctree).split(_BLOCK_FLOATS)
    return n_dist


def _scan_cb(C, lists: _Lists, own, queries, cb) -> int:
    """Set ``cb[queries[i]]`` to the distance from that centroid to the
    nearest *other* centroid in list ``own[i]``, block by block; returns
    the number of distances computed. That is the list's ``nearest2`` d2,
    for the list holds the query itself at distance exactly 0."""
    n_dist = 0
    step = max(1, _BLOCK_FLOATS // len(C))
    for s in range(0, len(queries), step):
        ql = lists.take(own[s : s + step], queries[s : s + step])
        D, _, _, d2 = ql.nearest2(C, C)
        n_dist += len(D)
        cb[ql.nodes] = d2
    return n_dist


def _kept(P, prev, r, C, cb, stats: AssignStats) -> np.ndarray:
    """Eq. 4/5: a mask of the positions i whose ball of radius ``r[i]``
    around ``P[i]`` provably stays with its recorded cluster ``prev[i]``,
    at one distance per recorded cluster. None hold without inter bounds
    (NoInB)."""
    kept = np.zeros(len(prev), dtype=bool)
    if cb is None:
        return kept
    has = np.flatnonzero(prev != NO_CLUSTER)
    dprev = _pair_dist(P, has, C, prev[has])
    stats.n_dist += len(has)
    kept[has] = inflate(dprev + r[has]) < cb[prev[has]] / 2.0
    return kept


def assign_pass(
    tree: BallTree,
    C: np.ndarray,
    cb: np.ndarray | None,
    labels: np.ndarray,
    *,
    use_knn: bool = True,
) -> AssignStats:
    """One full Assign traversal (Alg. 1 lines 15-40) as a walk over the
    point tree, one depth at a time; ``cb=None`` is NoInB.

    Mutates ``tree.cluster`` (the per-node a(N) state) and ``labels`` (the
    per-point a(i) state) in place — these are the cross-iteration state
    that each Spark partition keeps alongside its tree.
    """
    k, d = C.shape
    stats = AssignStats.zero(k, d)
    if not len(tree.idx):  # an empty tree: no point to assign
        return stats
    batch_nodes, batch_ids = [], []
    # Runs of one depth's frontier, depth-first, so the lists held at once
    # stay within O(tree height * _BLOCK_FLOATS) entries.
    stack = [_Lists.root(k)]
    while stack:
        level = stack.pop()
        # Eq. 5: the whole node provably belongs to cluster a(N). Valid
        # even for a stale a(N); the batch step also resyncs any point
        # labels that drifted away in earlier iterations.
        nodes = level.nodes
        aN = tree.cluster[nodes]
        hit = _kept(tree.pivot[nodes], aN, tree.radius[nodes], C, cb, stats)
        batch_nodes.append(nodes[hit])
        batch_ids.append(aN[hit])
        level = level.take(np.flatnonzero(~hit))

        nodes = level.nodes
        r = tree.radius[nodes]
        D, d1, n1, d2 = level.nearest2(tree.pivot, C)
        stats.n_dist += len(D)
        # Only centroids within d1 + 2r of the pivot can be nearest to a
        # point of the node. Eq. 6: n1 is the only one -> batch-assign.
        reach = inflate(d1 + 2.0 * r)
        gap = d2 > reach
        batch_nodes.append(nodes[gap])
        batch_ids.append(n1[gap])
        # Eq. 7-8: the node's (and its children's) list keeps just those.
        if use_knn:
            level = level.keep(D <= reach[level.owner])
        leaf = ~gap & tree.is_leaf(nodes)
        leaves = level.take(np.flatnonzero(leaf))
        _assign_leaves(tree, C, cb, labels, leaves, stats)
        # A leaf holds mixed clusters; remember its pivot's nearest centroid
        # as a(N) — Eq. 5 stays exact for *any* recorded id, and this choice
        # maximizes the chance of a batch prune next round.
        tree.cluster[nodes[leaf]] = n1[leaf]
        stack += level.take(np.flatnonzero(~gap & ~leaf)).children(tree).split(_BLOCK_FLOATS)

    _assign_batches(tree, labels, np.concatenate(batch_nodes), np.concatenate(batch_ids), stats)
    return stats


def _assign_batches(tree, labels, nodes, ids, stats: AssignStats) -> None:
    """Assign whole subtrees: node ``nodes[i]`` and its points to ``ids[i]``."""
    count = tree.end[nodes] - tree.start[nodes]
    rows = tree.idx[_ranges(tree.start[nodes], tree.end[nodes])]
    new = np.repeat(ids, count)
    stats.changed |= bool((labels[rows] != new).any())
    labels[rows] = new
    size = tree.subtree_end[nodes] - nodes
    tree.cluster[_ranges(nodes, tree.subtree_end[nodes])] = np.repeat(ids, size)
    np.add.at(stats.sv, ids, tree.node_sum[nodes])
    np.add.at(stats.cnt, ids, count)
    stats.pruned_vectors += int(count.sum())


def _assign_leaves(tree, C, cb, labels, leaves: _Lists, stats) -> None:
    """Per-point assignment of the leaves the walk reached, in blocks of
    points: Eq. 4 keeps a point's previous cluster, the other points take
    Lloyd's block argmin over the union of their leaves' lists, unmasked:
    a list holds every centroid that can be nearest to one of its points.
    ``n_dist`` counts each such point's own list entries (Alg. 1's
    per-point search), not the columns of the block matmul."""
    X = tree.X
    k, d = C.shape
    rows, own = leaves.points(tree)
    lens = leaves.lens
    step = max(1, _BLOCK_FLOATS // (k + d))
    for s in range(0, len(rows), step):
        rs, os_ = rows[s : s + step], own[s : s + step]
        pts, prev = X[rs], labels[rs]
        best = prev.copy()
        # Eq. 4 is Eq. 5 at radius 0 (dprev + 0.0 is exact).
        kept = _kept(pts, prev, np.zeros(len(rs)), C, cb, stats)
        stats.pruned_vectors += int(kept.sum())
        rest = np.flatnonzero(~kept)
        if len(rest):
            o = os_[rest]
            U = np.unique(leaves.ids[leaves.ptr[o[0]] : leaves.ptr[o[-1] + 1]])
            best[rest] = U[np.argmin(dist(pts[rest], C[U]), axis=1)]
            stats.n_dist += int(lens[o].sum())
        stats.changed |= bool((best != prev).any())
        labels[rs] = best
        np.add.at(stats.sv, best, pts)
        stats.cnt += np.bincount(best, minlength=k)


@dataclass
class Hook:
    """The loop's ``assign(C, drift)`` hook of Dask-means (steps 1-3),
    shared by the local and the Spark fit: rebuild the centroid index,
    compute the inter bounds, then ``assign_points(C, cb) -> AssignStats``
    over every point. Keeps the last centroid index and inter bounds
    (``cb`` stays None for NoInB)."""

    assign_points: Callable[[np.ndarray, np.ndarray | None], AssignStats]
    f: int
    use_knn: bool = True
    use_inter_bound: bool = True
    ctree: BallTree | None = field(default=None, init=False)
    cb: np.ndarray | None = field(default=None, init=False)

    def __call__(self, C: np.ndarray, drift: np.ndarray | None) -> AssignStats:
        if self.use_knn:
            self.ctree = bt.build(C, self.f)
        n_dist = 0
        if self.use_inter_bound:
            self.cb, n_dist = compute_cb(C, self.ctree, self.cb, drift)
        stats = self.assign_points(C, self.cb)
        stats.n_dist += n_dist
        return stats


def fit(
    X: np.ndarray,
    init_centroids: np.ndarray,
    max_iter: int = 20,
    *,
    f: int = 30,
    use_knn: bool = True,
    use_inter_bound: bool = True,
    tree: BallTree | None = None,
) -> KMeansResult:
    """Run Dask-means from the given initial centroids.

    ``f`` is the leaf capacity of both indexes (the memory-tunable knob of
    Section V-A). ``tree`` lets callers reuse a prebuilt spatial-vector
    index (built once per dataset); its build time then does not count
    towards ``init_time``.
    """
    X = check_points(X)
    n, d = X.shape
    C = check_centroids(init_centroids, d)

    t0 = time.perf_counter()
    if tree is None:
        tree = bt.build(X, f)
    elif tree.f != f or not np.array_equal(tree.X, X):
        raise ValueError(
            f"prebuilt tree must index these X with f={f}; it indexes "
            f"other points of shape {tree.X.shape} or f={tree.f}"
        )
    else:
        tree.cluster[:] = NO_CLUSTER
    init_time = time.perf_counter() - t0

    labels = np.full(n, NO_CLUSTER, dtype=np.int64)

    def assign_points(C, cb):
        return assign_pass(tree, C, cb, labels, use_knn=use_knn)

    hook = Hook(assign_points, f, use_knn, use_inter_bound)
    return iterate(C, hook, max_iter).result(
        labels, init_time=init_time,
        memory_floats=memory.measured_total_floats(tree, hook.ctree, n),
    )


def fit_nok_nn(X, init_centroids, max_iter: int = 20, *, f: int = 30, **kw):
    """NokNN ablation: inter bound only, linear centroid scans."""
    return fit(X, init_centroids, max_iter, f=f, use_knn=False, **kw)


def fit_no_inb(X, init_centroids, max_iter: int = 20, *, f: int = 30, **kw):
    """NoInB ablation: optimized kNN only, no inter bounds."""
    return fit(X, init_centroids, max_iter, f=f, use_inter_bound=False, **kw)
