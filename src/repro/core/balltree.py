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
(mean of covered points), radius, covered count |N|, the cluster id a(N)
assigned in the previous iteration, and the covered-point sum vector used
for O(1) cluster-sum updates when a whole node moves between clusters.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NO_CLUSTER = -1


@dataclass
class BallTree:
    """A built Ball-tree over ``X`` with leaf capacity ``f``.

    Attributes are flat arrays indexed by node id; node 0 is the root.
    ``left[i] == -1`` marks a leaf. ``idx[start[i]:end[i]]`` are the row
    indices of ``X`` covered by node ``i``.
    """

    X: np.ndarray          # (n, d) the indexed vectors (not copied)
    f: int                 # leaf capacity
    idx: np.ndarray        # (n,) permutation of arange(n)
    pivot: np.ndarray      # (m, d) node means
    radius: np.ndarray     # (m,) max distance from pivot to covered points
    count: np.ndarray      # (m,) number of covered points |N|
    left: np.ndarray       # (m,) child ids, -1 for leaves
    right: np.ndarray      # (m,)
    start: np.ndarray      # (m,) slice into idx
    end: np.ndarray        # (m,)
    node_sum: np.ndarray   # (m, d) sum of covered points (for sv updates)
    depth: np.ndarray      # (m,) root depth 0
    subtree_end: np.ndarray = field(default=None)  # (m,) preorder subtree end
    cluster: np.ndarray = field(default=None)  # (m,) a(N), NO_CLUSTER init

    def __post_init__(self):
        if self.cluster is None:
            self.cluster = np.full(len(self.pivot), NO_CLUSTER, dtype=np.int64)
        if self.subtree_end is None:
            # Node ids are preorder, so node v's subtree is the contiguous id
            # range [v, subtree_end[v]) — the first later node at depth <=
            # depth[v] closes it. Monotonic-stack pass, O(m).
            m = len(self.pivot)
            se = np.full(m, m, dtype=np.int64)
            stack: list[int] = []
            for i in range(m):
                while stack and self.depth[stack[-1]] >= self.depth[i]:
                    se[stack.pop()] = i
                stack.append(i)
            self.subtree_end = se

    @property
    def n_nodes(self) -> int:
        return len(self.pivot)

    @property
    def n_leaves(self) -> int:
        return int((self.left == -1).sum())

    @property
    def n_internal(self) -> int:
        return self.n_nodes - self.n_leaves

    @property
    def height(self) -> int:
        return int(self.depth.max()) + 1 if self.n_nodes else 0

    def is_leaf(self, i: int) -> bool:
        return self.left[i] == -1

    def points(self, i: int) -> np.ndarray:
        """Row indices of X covered by node i."""
        return self.idx[self.start[i] : self.end[i]]


def build(X: np.ndarray, f: int) -> BallTree:
    """Build a balanced Ball-tree over ``X`` with leaf capacity ``f``.

    Median split on the max-spread coordinate; O(n log(2n/f)) vectorized
    passes. Deterministic for a given ``X`` and ``f``.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, d = X.shape
    if f < 1:
        raise ValueError(f"leaf capacity f must be >= 1, got {f}")
    idx = np.arange(n)
    # Worst case number of nodes for a binary tree with >= f/2-filled leaves.
    cap = max(1, 4 * (n // max(1, f // 2 + 1) + 2))
    pivot = np.zeros((cap, d))
    radius = np.zeros(cap)
    count = np.zeros(cap, dtype=np.int64)
    left = np.full(cap, -1, dtype=np.int64)
    right = np.full(cap, -1, dtype=np.int64)
    start = np.zeros(cap, dtype=np.int64)
    end = np.zeros(cap, dtype=np.int64)
    node_sum = np.zeros((cap, d))
    depth = np.zeros(cap, dtype=np.int64)

    def grow(m):
        nonlocal cap, pivot, radius, count, left, right, start, end, node_sum, depth
        while m >= cap:
            cap *= 2
            pivot = np.vstack([pivot, np.zeros_like(pivot)])
            radius = np.concatenate([radius, np.zeros_like(radius)])
            count = np.concatenate([count, np.zeros_like(count)])
            left = np.concatenate([left, np.full_like(left, -1)])
            right = np.concatenate([right, np.full_like(right, -1)])
            start = np.concatenate([start, np.zeros_like(start)])
            end = np.concatenate([end, np.zeros_like(end)])
            node_sum = np.vstack([node_sum, np.zeros_like(node_sum)])
            depth = np.concatenate([depth, np.zeros_like(depth)])

    n_nodes = 0
    # Explicit stack: (start, end, depth, parent_slot, is_left) — parent link
    # is written when the child id is known.
    stack = [(0, n, 0, -1, False)]
    while stack:
        s, e, dep, parent, is_left = stack.pop()
        node = n_nodes
        n_nodes += 1
        grow(node)
        pts = X[idx[s:e]]
        mu = pts.mean(axis=0)
        diff = pts - mu
        r = float(np.sqrt((diff * diff).sum(axis=1).max())) if e > s else 0.0
        pivot[node] = mu
        radius[node] = r
        count[node] = e - s
        start[node] = s
        end[node] = e
        node_sum[node] = pts.sum(axis=0)
        depth[node] = dep
        if parent >= 0:
            (left if is_left else right)[parent] = node
        if e - s > f:
            spread = pts.max(axis=0) - pts.min(axis=0)
            dim = int(np.argmax(spread))
            mid = (e - s) // 2
            order = np.argpartition(pts[:, dim], mid)
            idx[s:e] = idx[s:e][order]
            stack.append((s + mid, e, dep + 1, node, False))
            stack.append((s, s + mid, dep + 1, node, True))

    sl = slice(0, n_nodes)
    return BallTree(
        X=X, f=f, idx=idx,
        pivot=pivot[sl].copy(), radius=radius[sl].copy(),
        count=count[sl].copy(), left=left[sl].copy(), right=right[sl].copy(),
        start=start[sl].copy(), end=end[sl].copy(),
        node_sum=node_sum[sl].copy(), depth=depth[sl].copy(),
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
            for child in (tree.left[node], tree.right[node]):
                diff = q - tree.pivot[child]
                dc = float(np.sqrt(diff @ diff))
                n_dist += 1
                clb = dc - tree.radius[child]
                if clb < best_d[-1]:
                    heapq.heappush(heap, (clb, int(child), dc))
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
            stack.append(int(tree.left[node]))
            stack.append(int(tree.right[node]))
    if not out_i:
        return np.empty(0, dtype=np.int64), np.empty(0), n_dist
    return np.concatenate(out_i), np.concatenate(out_d), n_dist


def brute_knn(X: np.ndarray, q: np.ndarray, kq: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference kq-NN by full scan, for tests."""
    dd = np.sqrt(((X - q) ** 2).sum(axis=1))
    order = np.argsort(dd, kind="stable")[:kq]
    return order, dd[order]
