"""Array-based Ball-tree (the paper's index substrate, Section IV).

One tree class serves both roles in the paper:

* the **spatial vector index** over the n points (built once, before the
  first k-means iteration), and
* the **centroid index** over the k centroids (rebuilt every iteration).

Nodes are stored in flat NumPy arrays (structure-of-arrays) so per-node
statistics are vectorized at build time and the tree pickles cheaply into
Spark executors. Every node owns a contiguous slice ``[start, end)`` of the
permutation array ``idx``; leaves hold at most ``f`` points. Following
Omohundro's construction [47], a node splits on the coordinate of maximum
spread at the median, giving a balanced tree of height ~log2(2n/f).

Each node carries exactly the fields the paper's Algorithm 1 needs: pivot
(mean of covered points), radius, the cluster id a(N) assigned in the
previous iteration, and the covered-point sum vector used for O(1)
cluster-sum updates when a whole node moves between clusters. The covered
count |N| is ``end - start``. Node ids are preorder, so the tree shape is
one array, ``subtree_end``: node ``i``'s subtree is the id range
``[i, subtree_end[i])``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NO_CLUSTER = -1


@dataclass
class BallTree:
    """A built Ball-tree over ``X`` with leaf capacity ``f``.

    Attributes are flat arrays indexed by preorder node id; node 0 is the
    root. ``idx[start[i]:end[i]]`` are the row indices of ``X`` covered by
    node ``i``, so |N| is ``end[i] - start[i]``. Node ``i`` is a leaf when
    ``subtree_end[i] == i + 1``; otherwise its children are ``i + 1`` and
    ``subtree_end[i + 1]``.
    """

    X: np.ndarray          # (n, d) the indexed vectors (not copied)
    f: int                 # leaf capacity
    height: int            # number of levels
    idx: np.ndarray        # (n,) permutation of arange(n)
    pivot: np.ndarray      # (m, d) node means
    radius: np.ndarray     # (m,) max distance from pivot to covered points
    start: np.ndarray      # (m,) slice into idx
    end: np.ndarray        # (m,)
    node_sum: np.ndarray   # (m, d) sum of covered points (for sv updates)
    subtree_end: np.ndarray  # (m,) end of the preorder id range of the subtree
    cluster: np.ndarray    # (m,) a(N), NO_CLUSTER until assigned

    @property
    def n_nodes(self) -> int:
        return len(self.pivot)

    @property
    def n_leaves(self) -> int:
        return int(self.is_leaf(np.arange(self.n_nodes)).sum())

    @property
    def n_internal(self) -> int:
        return self.n_nodes - self.n_leaves

    def is_leaf(self, i):
        """Whether node i is a leaf (elementwise for an array of ids)."""
        return self.subtree_end[i] == i + 1

    def children(self, i):
        """The left and right child of internal node i (elementwise for an
        array of ids)."""
        return i + 1, self.subtree_end[i + 1]

    def points(self, i: int) -> np.ndarray:
        """Row indices of X covered by node i."""
        return self.idx[self.start[i] : self.end[i]]


def build(X: np.ndarray, f: int) -> BallTree:
    """Build a balanced Ball-tree over ``X`` with leaf capacity ``f``.

    Median split on the max-spread coordinate; O(n log(2n/f)) vectorized
    passes. Deterministic for a given ``X`` and ``f``.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, _ = X.shape
    if f < 1:
        raise ValueError(f"leaf capacity f must be >= 1, got {f}")
    idx = np.arange(n)
    pivot, radius, start, end, node_sum, subtree_end = [], [], [], [], [], []
    height = 0

    def grow(s, e, depth):
        # Preorder: the node takes the next id, then its left and right
        # subtrees; the recursion is as deep as the tree.
        nonlocal height
        height = max(height, depth + 1)
        node = len(pivot)
        pts = X[idx[s:e]]
        mu = pts.mean(axis=0)
        diff = pts - mu  # subtractive: the radius feeds inflated bounds only
        pivot.append(mu)
        radius.append(float(np.sqrt((diff * diff).sum(axis=1).max())) if e > s else 0.0)
        start.append(s)
        end.append(e)
        node_sum.append(pts.sum(axis=0))
        subtree_end.append(0)
        if e - s > f:
            spread = pts.max(axis=0) - pts.min(axis=0)
            dim = int(np.argmax(spread))
            mid = (e - s) // 2
            order = np.argpartition(pts[:, dim], mid)
            idx[s:e] = idx[s:e][order]
            grow(s, s + mid, depth + 1)
            grow(s + mid, e, depth + 1)
        subtree_end[node] = len(pivot)

    grow(0, n, 0)
    return BallTree(
        X=X, f=f, height=height, idx=idx,
        pivot=np.array(pivot), radius=np.array(radius),
        start=np.array(start, dtype=np.int64), end=np.array(end, dtype=np.int64),
        node_sum=np.array(node_sum),
        subtree_end=np.array(subtree_end, dtype=np.int64),
        cluster=np.full(len(pivot), NO_CLUSTER, dtype=np.int64),
    )


def knn(
    tree: BallTree, q: np.ndarray, kq: int, ub: float = np.inf
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact kq-nearest-neighbor search for query ``q`` over the tree.

    This is Algorithm 1's ``kNN`` function: a best-first descent whose
    result queue H is *initialized with the inherited upper bound* ``ub``
    (Eq. 7) so a centroid node is pruned as soon as its lower bound
    ``||q - pivot|| - radius`` exceeds the current kq-th best (Eq. 8).

    Returns (neighbor row-indices into tree.X, their distances, number of
    vector-vector distance computations performed). Neighbors farther than
    ``ub`` are reported with index -1 and distance ub — callers pass a
    finite ub only when any hit beyond it is irrelevant.
    """
    best_d = np.full(kq, float(ub))
    best_i = np.full(kq, -1, dtype=np.int64)
    n_dist = 0

    # Best-first traversal ordered by node lower bound.
    import heapq

    diff = q - tree.pivot[0]
    d_root = float(np.sqrt(diff @ diff))
    n_dist += 1
    heap = [(d_root - tree.radius[0], 0, d_root)]
    while heap:
        lb, node, d_pivot = heapq.heappop(heap)
        if lb >= best_d[-1]:
            break  # all remaining nodes are at least this far
        if tree.is_leaf(node):
            rows = tree.points(node)
            pts = tree.X[rows]
            dd = np.sqrt(((pts - q) ** 2).sum(axis=1))
            n_dist += len(rows)
            for di, ri in zip(dd, rows):
                if di < best_d[-1]:
                    # insert into the fixed-size sorted result arrays
                    pos = int(np.searchsorted(best_d, di))
                    best_d[pos + 1 :] = best_d[pos:-1]
                    best_i[pos + 1 :] = best_i[pos:-1]
                    best_d[pos] = di
                    best_i[pos] = ri
        else:
            for child in tree.children(node):
                diff = q - tree.pivot[child]
                dc = float(np.sqrt(diff @ diff))
                n_dist += 1
                clb = dc - tree.radius[child]
                if clb < best_d[-1]:
                    heapq.heappush(heap, (clb, child, dc))
    return best_i, best_d, n_dist


def range_query(
    tree: BallTree, q: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """All indexed rows within distance ``r`` of ``q`` (plus their distances).

    The per-query form of Dask-means' candidate bound: once the nearest
    centroid of a node's pivot is at ``d1``, every centroid that can be
    nearest to *some* point of the node lies within ``d1 + 2 * radius`` of
    the pivot. (``repro.core.daskmeans`` applies it to whole depths of the
    point tree at once instead of searching per node.)
    """
    out_i: list[np.ndarray] = []
    out_d: list[np.ndarray] = []
    n_dist = 0
    stack = [0]
    while stack:
        node = stack.pop()
        diff = q - tree.pivot[node]
        dp = float(np.sqrt(diff @ diff))
        n_dist += 1
        if dp - tree.radius[node] > r:
            continue
        if tree.is_leaf(node):
            rows = tree.points(node)
            pts = tree.X[rows]
            dd = np.sqrt(((pts - q) ** 2).sum(axis=1))
            n_dist += len(rows)
            m = dd <= r
            if m.any():
                out_i.append(rows[m])
                out_d.append(dd[m])
        else:
            stack.extend(tree.children(node))
    if not out_i:
        return np.empty(0, dtype=np.int64), np.empty(0), n_dist
    return np.concatenate(out_i), np.concatenate(out_d), n_dist


def brute_knn(X: np.ndarray, q: np.ndarray, kq: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference kq-NN by full scan, for tests."""
    dd = np.sqrt(((X - q) ** 2).sum(axis=1))
    order = np.argsort(dd, kind="stable")[:kq]
    return order, dd[order]
