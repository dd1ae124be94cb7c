"""From-scratch SOTA runtime-estimator baselines (Section VI-C / Fig. 11).

The paper compares against XGBoost [24], DisNet [20] (a small MLP), and
AutoML [43] (regularized regression). None of those libraries exist in
this offline container, so each is implemented here in NumPy with the
paper's stated configuration:

* :class:`GBTRegressor` — gradient-boosted regression trees, 100 trees,
  max depth 5, learning rate 0.1, column subsample 0.3 per tree;
* :class:`MLPRegressor` — hidden layers 128 and 64 with ReLU, Adam,
  default lr 1e-4, 1000 epochs;
* :class:`RidgeRegressor` — closed-form ridge with lambda 0.1 on
  standardized features (the one-pass regression AutoML resolves to).

All expose ``fit(X, y)`` / ``predict(X)`` on task-level features; the
"S-" variants of the paper (predict each iteration, then sum) are built
in the Fig. 11 harness by training the same models on per-iteration rows.
"""
from __future__ import annotations

import numpy as np

from repro.estimator.features import Standardizer

#: The paper's fixed settings: GBT tree depth, shrinkage and least samples
#: per leaf; MLP hidden-layer widths.
GBT_MAX_DEPTH, GBT_LR, GBT_MIN_LEAF = 5, 0.1, 2
MLP_HIDDEN = (128, 64)


class RidgeRegressor:
    """AutoML-lite: standardized ridge regression, lambda = 0.1."""

    def __init__(self, lam: float = 0.1):
        self.lam = lam

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegressor":
        self.std = Standardizer().fit(X)
        A = np.column_stack([np.ones(len(X)), self.std.transform(X)])
        d = A.shape[1]
        reg = self.lam * np.eye(d)
        reg[0, 0] = 0.0  # don't penalize the intercept
        self.coef_ = np.linalg.solve(A.T @ A + reg, A.T @ y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        A = np.column_stack([np.ones(len(X)), self.std.transform(X)])
        return A @ self.coef_


class _Tree:
    """One regression tree grown greedily on squared error."""

    def __init__(self, feat_ids: np.ndarray):
        self.feat_ids = feat_ids
        self.nodes: list[tuple] = []  # (feat, thr, left, right) or (None, value)

    def _grow(self, X, y, depth) -> int:
        node_id = len(self.nodes)
        self.nodes.append(None)
        if depth >= GBT_MAX_DEPTH or len(y) < 2 * GBT_MIN_LEAF or np.ptp(y) == 0:
            self.nodes[node_id] = (None, float(y.mean()), -1, -1)
            return node_id
        best = None
        parent_sse = ((y - y.mean()) ** 2).sum()
        for fid in self.feat_ids:
            xs = X[:, fid]
            order = np.argsort(xs, kind="stable")
            xs_s, ys_s = xs[order], y[order]
            csum = np.cumsum(ys_s)
            csq = np.cumsum(ys_s**2)
            total, total_sq = csum[-1], csq[-1]
            m = len(y)
            idxs = np.arange(GBT_MIN_LEAF, m - GBT_MIN_LEAF + 1)
            if len(idxs) == 0:
                continue
            # skip split points between equal feature values
            valid = xs_s[idxs - 1] < xs_s[np.minimum(idxs, m - 1)]
            idxs = idxs[valid]
            if len(idxs) == 0:
                continue
            nl = idxs.astype(float)
            nr = m - nl
            sse = (
                (csq[idxs - 1] - csum[idxs - 1] ** 2 / nl)
                + ((total_sq - csq[idxs - 1]) - (total - csum[idxs - 1]) ** 2 / nr)
            )
            j = int(np.argmin(sse))
            if best is None or sse[j] < best[0]:
                thr = 0.5 * (xs_s[idxs[j] - 1] + xs_s[idxs[j]])
                best = (float(sse[j]), int(fid), float(thr))
        if best is None or best[0] >= parent_sse:
            self.nodes[node_id] = (None, float(y.mean()), -1, -1)
            return node_id
        _, fid, thr = best
        mask = X[:, fid] <= thr
        left = self._grow(X[mask], y[mask], depth + 1)
        right = self._grow(X[~mask], y[~mask], depth + 1)
        self.nodes[node_id] = (fid, thr, left, right)
        return node_id

    def fit(self, X, y):
        self.nodes = []
        self._grow(X, y, 0)
        return self

    def predict(self, X):
        out = np.empty(len(X))
        for i, x in enumerate(X):
            node = 0
            while True:
                fid, a, l, r = self.nodes[node]
                if fid is None:
                    out[i] = a
                    break
                node = l if x[fid] <= a else r
        return out


class GBTRegressor:
    """XGBoost-lite: boosted regression trees on squared loss."""

    def __init__(self, n_trees: int = 100, colsample: float = 0.3, seed: int = 0):
        self.n_trees = n_trees
        self.colsample = colsample
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GBTRegressor":
        g = np.random.default_rng(self.seed)
        n, d = X.shape
        n_cols = max(1, int(round(self.colsample * d)))
        self.base_ = float(y.mean())
        resid = y - self.base_
        self.trees_: list[_Tree] = []
        for _ in range(self.n_trees):
            feat_ids = g.choice(d, size=n_cols, replace=False)
            t = _Tree(feat_ids).fit(X, resid)
            pred = t.predict(X)
            resid = resid - GBT_LR * pred
            self.trees_.append(t)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(len(X), self.base_)
        for t in self.trees_:
            out += GBT_LR * t.predict(X)
        return out


class MLPRegressor:
    """DisNet-lite: 128-64 ReLU MLP trained with Adam on standardized data."""

    def __init__(self, lr: float = 1e-4, epochs: int = 1000, seed: int = 0):
        self.lr = lr
        self.epochs = epochs
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        g = np.random.default_rng(self.seed)
        self.xstd = Standardizer().fit(X)
        Xs = self.xstd.transform(X)
        self.ymean_, self.ystd_ = float(y.mean()), float(y.std() or 1.0)
        ys = (y - self.ymean_) / self.ystd_
        sizes = [X.shape[1], *MLP_HIDDEN, 1]
        self.W = [
            g.normal(0, np.sqrt(2.0 / sizes[i]), (sizes[i], sizes[i + 1]))
            for i in range(len(sizes) - 1)
        ]
        self.b = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
        mW = [np.zeros_like(w) for w in self.W]
        vW = [np.zeros_like(w) for w in self.W]
        mb = [np.zeros_like(bb) for bb in self.b]
        vb = [np.zeros_like(bb) for bb in self.b]
        b1, b2, eps = 0.9, 0.999, 1e-8
        t = 0
        n = len(Xs)
        for _ in range(self.epochs):
            t += 1
            # forward
            acts = [Xs]
            for li, (w, bb) in enumerate(zip(self.W, self.b)):
                z = acts[-1] @ w + bb
                acts.append(np.maximum(z, 0) if li < len(self.W) - 1 else z)
            pred = acts[-1][:, 0]
            # backward (MSE)
            delta = (2.0 / n) * (pred - ys)[:, None]
            for li in reversed(range(len(self.W))):
                gW = acts[li].T @ delta
                gb = delta.sum(axis=0)
                if li > 0:
                    delta = (delta @ self.W[li].T) * (acts[li] > 0)
                for arr, grad, mm, vv in (
                    (self.W[li], gW, mW, vW),
                    (self.b[li], gb, mb, vb),
                ):
                    mm[li] = b1 * mm[li] + (1 - b1) * grad
                    vv[li] = b2 * vv[li] + (1 - b2) * grad**2
                    mhat = mm[li] / (1 - b1**t)
                    vhat = vv[li] / (1 - b2**t)
                    arr -= self.lr * mhat / (np.sqrt(vhat) + eps)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        a = self.xstd.transform(X)
        for li, (w, bb) in enumerate(zip(self.W, self.b)):
            z = a @ w + bb
            a = np.maximum(z, 0) if li < len(self.W) - 1 else z
        return a[:, 0] * self.ystd_ + self.ymean_
