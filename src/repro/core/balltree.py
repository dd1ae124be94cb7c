"""Array-based Ball-tree (the paper's index substrate, Section IV).

One tree class serves both roles in the paper:

* the **spatial vector index** over the n points (built once, before the
  first k-means iteration), and
* the **centroid index** over the k centroids (rebuilt every iteration).

Nodes are stored in flat NumPy arrays (structure-of-arrays), so the tree
pickles cheaply into Spark executors. Every node owns a contiguous slice
``[start, end)`` of the permutation array ``idx``; leaves hold at most
``f`` points. Following Omohundro's construction [47], a node splits on
the coordinate of maximum spread at the median, giving a balanced tree of
height ~log2(2n/f). The build is level-synchronous, as the Dask-means walk
is: every node of a depth is reduced and split in the same NumPy calls,
and preorder ids are given once the shape is known.

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

    Median split on the max-spread coordinate (the first one on a tie),
    one depth at a time: the points of all nodes of a depth are gathered
    into one block padded to the widest node, reduced together and split
    by one row-wise ``argpartition``, so a build makes O(height) NumPy
    passes over the points whatever the node count. Deterministic for a
    given ``X`` and ``f``; an empty ``X`` gives a lone root of zero pivot
    and radius.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, _ = X.shape
    if f < 1:
        raise ValueError(f"leaf capacity f must be >= 1, got {f}")
    XT = np.ascontiguousarray(X.T)
    idx = np.arange(n)
    # Per depth, nodes left to right: slices, stats and which nodes split
    # (their children are the next depth's nodes, in pairs).
    start, end, node_sum, pivot, radius, cut = [], [], [], [], [], []
    s, e = np.zeros(1, dtype=np.int64), np.full(1, n, dtype=np.int64)
    while True:
        cnt = e - s
        # A median split leaves at most two sizes per depth, so padding to
        # the widest node costs at most one slot per node. A pad slot
        # repeats its node's first row: min, max and radius ignore it.
        col = np.arange(cnt.max())
        real = col < cnt[:, None]
        rows = idx[np.where(real, s[:, None] + col, s[:, None])]
        # The block is (d, nodes, width), so the reductions along width run
        # over its contiguous axis.
        P = XT.take(rows, axis=1)
        total = P.sum(axis=2, where=real).T
        mu = total / np.maximum(cnt, 1)[:, None]
        diff = P - mu.T[:, :, None]  # subtractive: the radius feeds inflated bounds only
        diff *= diff
        radius.append(np.sqrt(diff.sum(axis=0).max(axis=1, initial=0.0)))
        del diff  # so a depth holds at most three blocks: XT, P and diff
        start.append(s)
        end.append(e)
        node_sum.append(total)
        pivot.append(mu)
        split = np.flatnonzero(cnt > f)
        cut.append(split)
        if not len(split):
            break
        lo, c, real, rows = s[split], cnt[split], real[split], rows[split]
        mid = c // 2
        dim = np.argmax(P.max(axis=2) - P.min(axis=2), axis=0)[split]
        key = np.where(real, P[dim, split], np.inf)
        # Partitioning at every median and at every short node's length
        # puts each node's lower half first and its pad slots last.
        order = np.argpartition(key, np.union1d(mid, c[c < len(col)]), axis=1)
        idx[(lo[:, None] + col)[real]] = np.take_along_axis(rows, order, axis=1)[real]
        s = np.column_stack([lo, lo + mid]).ravel()
        e = np.column_stack([lo + mid, lo + c]).ravel()

    # Preorder ids: a left child follows its parent, a right child follows
    # its sibling's subtree, whose size is counted bottom-up.
    size = [np.ones(len(a), dtype=np.int64) for a in start]
    for t in range(len(cut) - 2, -1, -1):
        size[t][cut[t]] += size[t + 1][0::2] + size[t + 1][1::2]
    ids = [np.zeros(1, dtype=np.int64)]
    for t in range(len(cut) - 1):
        left = ids[t][cut[t]] + 1
        ids.append(np.column_stack([left, left + size[t + 1][0::2]]).ravel())
    at = np.concatenate(ids)

    def preorder(parts):
        flat = np.concatenate(parts)
        out = np.empty_like(flat)
        out[at] = flat
        return out

    return BallTree(
        X=X, f=f, height=len(start), idx=idx,
        pivot=preorder(pivot), radius=preorder(radius),
        start=preorder(start), end=preorder(end), node_sum=preorder(node_sum),
        subtree_end=preorder([i + z for i, z in zip(ids, size)]),
        cluster=np.full(len(at), NO_CLUSTER, dtype=np.int64),
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
