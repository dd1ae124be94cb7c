"""Dask-means: the paper's memory-efficient accelerator (Section IV, Alg. 1).

Structure per iteration:

1. rebuild the **centroid index** (Ball-tree over the k current centroids);
2. compute each centroid's **inter bound** cb[j] (Eq. 3) by a 2-NN search
   over the centroid index, with the drift-based upper bound of Eq. 9;
3. **Assign** recursively over the spatial-vector index: a node either
   (a) keeps its previous cluster when the inter bound proves it
   (Eq. 5), (b) is batch-assigned to its nearest centroid when the 2-NN
   gap exceeds its diameter (Eq. 6), or (c) is split; leaves assign
   point-by-point with the point-level inter bound (Eq. 4) and an exact
   candidate range query;
4. refine centroids from the per-cluster sum vectors and compute drifts.

Steps 1, 2 and 4 are the driver loop :func:`iterate`, written once for
the local :func:`fit` and the Spark per-partition operator
(``repro.spark.daskmeans_spark``). Step 3 is its ``assign`` hook,
``assign(C, ctree, cb) -> AssignStats``: locally one :func:`assign_pass`
over the single point tree; on Spark a broadcast of (C, ctree, cb), an
``assign_pass`` over each partition's persistent Ball-tree and the sum
of the partitions' stats.

Exactness notes (mirroring the paper's reasoning):

* Eq. 4/5 remain valid for *stale* previous assignments: the check proves
  that every covered point is closest to centroid a(N) regardless of how
  a(N) was obtained, so batch-assigned subtrees simply inherit the
  parent's cluster id (and label resync happens inside the batch step).
* The kNN upper bound handed to a child is d2(parent) + parent.radius
  (Alg. 1 line 30 / Eq. 7); a tiny epsilon inflation guards the strict
  comparisons against ties at exactly the bound.
* Leaf fallback: after the leaf pivot's 2-NN (d1, d2) is known, every
  centroid that can be nearest to *some* leaf point lies within
  d1 + 2 * leaf.radius of the pivot (triangle inequality), so one range
  query over the centroid index yields an exact candidate set and the
  leaf is finished with one vectorized argmin. This is the vectorization
  of Alg. 1's per-point kNN(1) loop: identical result, identical pruning
  semantics, counted at the same distance-computation cost.

Ablations (Section VI-B): ``use_knn=False`` -> **NokNN** (inter bound kept,
but all nearest-centroid searches are linear scans over the k centroids);
``use_inter_bound=False`` -> **NoInB** (optimized kNN kept, Eq. 4/5/9
checks dropped).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core import balltree as bt
from repro.core.balltree import NO_CLUSTER, BallTree
from repro.core.result import KMeansResult, refine_from_sums
from repro.estimator import memory

_EPS = 1e-9


def _inflate(ub: float) -> float:
    """Guard strict comparisons against exact ties at the bound."""
    return ub * (1.0 + 1e-12) + _EPS if np.isfinite(ub) else ub


def _knn2_linear(C: np.ndarray, q: np.ndarray) -> tuple[int, int, float, float, int]:
    """Two nearest centroids by full scan (the NokNN path)."""
    dd = np.sqrt(((C - q) ** 2).sum(axis=1))
    if len(C) == 1:
        return 0, 0, float(dd[0]), np.inf, len(C)
    i1, i2 = np.argpartition(dd, 1)[:2]
    if dd[i2] < dd[i1]:
        i1, i2 = i2, i1
    return int(i1), int(i2), float(dd[i1]), float(dd[i2]), len(C)


def compute_cb(
    C: np.ndarray,
    ctree: BallTree | None,
    cb_prev: np.ndarray | None,
    drift: np.ndarray | None,
    *,
    use_knn: bool = True,
) -> tuple[np.ndarray, int]:
    """Inter bounds cb[j] = distance to each centroid's nearest other
    centroid (Eq. 3), accelerated by 2-NN with the Eq. 9 upper bound.

    ``cb_prev``/``drift`` are None on the first iteration (ub = inf).
    """
    k = len(C)
    cb = np.zeros(k)
    n_dist = 0
    max_drift = float(drift.max()) if drift is not None and k else 0.0
    for j in range(k):
        ub = np.inf if cb_prev is None else cb_prev[j] + drift[j] + max_drift
        if use_knn:
            idxs, dists, nd = bt.knn(ctree, C[j], 2, _inflate(ub))
            n_dist += nd
            if idxs[1] < 0:  # tie at the bound — exact fallback
                _, _, _, d2, nd = _knn2_linear(C, C[j])
                n_dist += nd
                cb[j] = d2
            else:
                # idxs[0] is c_j itself (distance 0); idxs[1] the nearest
                # *other* centroid unless centroids coincide, in which case
                # cb[j] = 0 is still exact.
                cb[j] = dists[1] if idxs[0] == j else dists[0]
        else:
            _, _, d1_, d2_, nd = _knn2_linear(C, C[j])
            n_dist += nd
            cb[j] = d2_ if d1_ == 0.0 else d1_
    return cb, n_dist


@dataclass
class AssignStats:
    """Outcome of one assignment pass over one spatial-vector index."""

    sv: np.ndarray          # (k, d) per-cluster sum vectors
    cnt: np.ndarray         # (k,) per-cluster counts
    changed: bool           # any label changed in this pass
    n_dist: int
    pruned_vectors: int     # vectors assigned in batch / kept via Eq. 4-5


def assign_pass(
    tree: BallTree,
    C: np.ndarray,
    ctree: BallTree | None,
    cb: np.ndarray | None,
    labels: np.ndarray,
    *,
    use_knn: bool = True,
    use_inter_bound: bool = True,
) -> AssignStats:
    """One full Assign traversal (Alg. 1 lines 15-40).

    Mutates ``tree.cluster`` (the per-node a(N) state) and ``labels`` (the
    per-point a(i) state) in place — these are the cross-iteration state
    that each Spark partition keeps alongside its tree.
    """
    X = tree.X
    k, d = C.shape
    sv = np.zeros((k, d))
    cnt = np.zeros(k, dtype=np.int64)
    n_dist = 0
    pruned_vectors = 0
    changed = False

    def batch_assign(node: int, j: int):
        nonlocal changed
        rows = tree.points(node)
        if (labels[rows] != j).any():
            changed = True
            labels[rows] = j
        tree.cluster[node : tree.subtree_end[node]] = j
        sv[j] += tree.node_sum[node]
        cnt[j] += tree.count[node]

    stack: list[tuple[int, float]] = [(0, np.inf)]
    while stack:
        node, ub = stack.pop()
        aN = int(tree.cluster[node])
        r = float(tree.radius[node])
        pv = tree.pivot[node]

        # Eq. 5: the whole node provably belongs to cluster a(N). Valid
        # even for a stale a(N); batch_assign also resyncs any point
        # labels that drifted away during deeper recursions.
        if use_inter_bound and aN != NO_CLUSTER:
            dist_prev = float(np.sqrt(((pv - C[aN]) ** 2).sum()))
            n_dist += 1
            if dist_prev + r < cb[aN] / 2.0:
                pruned_vectors += int(tree.count[node])
                batch_assign(node, aN)
                continue

        # Two nearest centroids of the pivot (kNN with inherited bound).
        if use_knn:
            idxs, dists, nd = bt.knn(ctree, pv, 2, _inflate(ub))
            n_dist += nd
            if idxs[1] >= 0:
                n1, n2 = int(idxs[0]), int(idxs[1])
                d1, d2 = float(dists[0]), float(dists[1])
            else:
                n1, n2, d1, d2, nd = _knn2_linear(C, pv)
                n_dist += nd
        else:
            n1, n2, d1, d2, nd = _knn2_linear(C, pv)
            n_dist += nd

        # Eq. 6: gap large enough -> batch-assign the node to n1.
        if d2 - d1 > 2.0 * r:
            pruned_vectors += int(tree.count[node])
            batch_assign(node, n1)
            continue

        if not tree.is_leaf(node):
            child_ub = _inflate(d2 + r)
            stack.append((int(tree.right[node]), child_ub))
            stack.append((int(tree.left[node]), child_ub))
            continue

        # ---- leaf: per-point assignment (vectorized, exact) --------------
        rows = tree.points(node)
        pts = X[rows]
        prev = labels[rows]
        todo = np.ones(len(rows), dtype=bool)

        if use_inter_bound:
            has_prev = prev != NO_CLUSTER
            if has_prev.any():
                sel = np.flatnonzero(has_prev)
                dprev = np.sqrt(((pts[sel] - C[prev[sel]]) ** 2).sum(axis=1))
                n_dist += len(sel)
                keep = dprev < cb[prev[sel]] / 2.0
                kept = sel[keep]
                if len(kept):
                    pruned_vectors += len(kept)
                    np.add.at(sv, prev[kept], pts[kept])
                    np.add.at(cnt, prev[kept], 1)
                    todo[kept] = False

        rest = np.flatnonzero(todo)
        if len(rest):
            # Exact candidate set: centroids within d1 + 2r of the pivot.
            if use_knn:
                cand, _, nd = bt.range_query(ctree, pv, _inflate(d1 + 2.0 * r))
                n_dist += nd
                if len(cand) == 0:  # numeric corner — full scan
                    cand = np.arange(k)
            else:
                cand = np.arange(k)
            sub = pts[rest]
            d2mat = (
                (sub * sub).sum(axis=1)[:, None]
                + (C[cand] * C[cand]).sum(axis=1)[None, :]
                - 2.0 * sub @ C[cand].T
            )
            n_dist += len(rest) * len(cand)
            best = cand[np.argmin(d2mat, axis=1)]
            if (prev[rest] != best).any():
                changed = True
            labels[rows[rest]] = best
            np.add.at(sv, best, sub)
            np.add.at(cnt, best, 1)
        # The leaf now holds mixed clusters; remember its pivot's nearest
        # centroid as a(N) — Eq. 5 stays exact for *any* recorded id, and
        # this choice maximizes the chance of a batch prune next round.
        tree.cluster[node] = n1

    return AssignStats(sv, cnt, changed, n_dist, pruned_vectors)


def check_centroids(init_centroids: np.ndarray, d: int, k: int | None = None) -> np.ndarray:
    """The input contract of both fits: a finite (k >= 1, d) array of
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


@dataclass
class LoopResult:
    """Outcome of :func:`iterate`; the labels stay with ``assign``'s state."""

    centroids: np.ndarray          # final (refined) centroids
    labels_centroids: np.ndarray   # centroids the final assignment used —
    # labels are the argmin w.r.t. *these* (assignment precedes the last
    # refinement), which is what oracle validation must check against
    ctree: BallTree | None         # the last centroid index
    n_iter: int
    converged: bool
    iter_times: list[float]
    n_dist: int
    pruned_vectors: int


def iterate(
    C: np.ndarray,
    assign,
    max_iter: int,
    *,
    f: int,
    use_knn: bool = True,
    use_inter_bound: bool = True,
) -> LoopResult:
    """Alg. 1's driver loop, shared by the local and the Spark fit.

    Each iteration rebuilds the centroid index, computes the inter bounds,
    runs ``assign(C, ctree, cb) -> AssignStats`` over every point, refines
    the centroids from the summed per-cluster vectors and records their
    drift for the next Eq. 9 bound. It stops after an iteration in which
    no label changed.
    """
    k = len(C)
    n_dist = pruned_vectors = it = 0
    iter_times: list[float] = []
    cb = drift = ctree = None
    labels_C = C
    converged = False
    for it in range(1, max_iter + 1):
        t_iter = time.perf_counter()
        if use_knn:
            ctree = bt.build(C, f)
        if use_inter_bound:
            cb, nd = compute_cb(C, ctree, cb, drift, use_knn=use_knn)
            n_dist += nd
        stats = assign(C, ctree, cb)
        n_dist += stats.n_dist
        pruned_vectors += stats.pruned_vectors

        labels_C = C
        C = refine_from_sums(labels_C, stats.sv, stats.cnt)
        drift = np.sqrt(((C - labels_C) ** 2).sum(axis=1))
        n_dist += k
        iter_times.append(time.perf_counter() - t_iter)
        if not stats.changed:
            converged = True
            break

    return LoopResult(
        centroids=C, labels_centroids=labels_C, ctree=ctree, n_iter=it,
        converged=converged, iter_times=iter_times, n_dist=n_dist,
        pruned_vectors=pruned_vectors,
    )


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
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or not np.isfinite(X).all():
        raise ValueError(f"X must be a finite 2-D array, got shape {X.shape}")
    n, d = X.shape
    C = check_centroids(init_centroids, d)

    t0 = time.perf_counter()
    if tree is None:
        tree = bt.build(X, f)
    elif tree.X.shape != X.shape or tree.f != f:
        raise ValueError(
            f"prebuilt tree indexes shape {tree.X.shape} with f={tree.f}, "
            f"but X has shape {X.shape} and f={f}"
        )
    else:
        tree.cluster[:] = NO_CLUSTER
    init_time = time.perf_counter() - t0

    labels = np.full(n, NO_CLUSTER, dtype=np.int64)

    def assign(C, ctree, cb):
        return assign_pass(
            tree, C, ctree, cb, labels,
            use_knn=use_knn, use_inter_bound=use_inter_bound,
        )

    loop = iterate(
        C, assign, max_iter, f=f, use_knn=use_knn, use_inter_bound=use_inter_bound
    )
    return KMeansResult(
        centroids=loop.centroids, labels=labels, n_iter=loop.n_iter,
        converged=loop.converged, iter_times=loop.iter_times, init_time=init_time,
        n_dist=loop.n_dist, pruned_vectors=loop.pruned_vectors,
        memory_floats=memory.measured_total_floats(tree, loop.ctree, n),
        extra={"f": f, "tree_height": tree.height, "tree_leaves": tree.n_leaves},
    )


def fit_nok_nn(X, init_centroids, max_iter: int = 20, *, f: int = 30, **kw):
    """NokNN ablation: inter bound only, linear centroid scans."""
    return fit(X, init_centroids, max_iter, f=f, use_knn=False, **kw)


def fit_no_inb(X, init_centroids, max_iter: int = 20, *, f: int = 30, **kw):
    """NoInB ablation: optimized kNN only, no inter bounds."""
    return fit(X, init_centroids, max_iter, f=f, use_inter_bound=False, **kw)
