"""Table VI: accuracy of the memory estimation method.

Three sweeps, each measuring estimated (Eq. 11) / actual (measured from
really-built indexes) memory:

* increasing k at fixed n, f — the ratio should be ~flat (the centroid
  index is negligible next to the point index);
* increasing n' (fraction of the base dataset) at fixed k, f;
* increasing f at fixed n, k.

Paper scale: n = 1e6-class datasets, k up to 5e4, f up to 200. Scaled
here: base n = 1e5, k up to 2e3, same f grid.
"""
from __future__ import annotations

import numpy as np

from repro import datasets
from repro.core import balltree as bt
from repro.estimator import memory as mem

BASE_N = 100_000
DATASET = "argo_pc"
K_SWEEP = (10, 100, 1000, 2000)
N_FRACS = (0.01, 0.05, 0.25, 1.0)
F_SWEEP = (30, 100, 150, 200)
SEED = 0  # of the dataset and of the centroid sample


def _ratio(n: int, k: int, f: int, X, Ck) -> float:
    tree = bt.build(X[:n], f)
    ctree = bt.build(Ck[:k], f)
    est = mem.estimate_total_floats(n, k, f)
    act = mem.measured_total_floats(tree, ctree, n)
    return mem.accuracy(est, act)


def run(*, base_n: int = BASE_N) -> list[dict]:
    X = datasets.make(DATASET, base_n, seed=SEED)
    g = np.random.default_rng(SEED)
    Ck = X[g.choice(base_n, size=max(K_SWEEP), replace=False)]
    rows = []
    for k in K_SWEEP:
        rows.append({"sweep": "k", "param": k,
                     "ratio": _ratio(base_n, k, 30, X, Ck)})
    for frac in N_FRACS:
        n = max(10, int(base_n * frac))
        rows.append({"sweep": "n", "param": frac,
                     "ratio": _ratio(n, 100, 30, X, Ck)})
    for f in F_SWEEP:
        rows.append({"sweep": "f", "param": f,
                     "ratio": _ratio(base_n, 100, f, X, Ck)})
    return rows


def format_table(rows: list[dict]) -> str:
    lines = []
    for sweep, label in (("k", "Increasing k"), ("n", "Increasing n'"),
                         ("f", "Increasing f")):
        sel = [r for r in rows if r["sweep"] == sweep]
        lines.append(
            f"{label:<14s} "
            + "  ".join(f"{r['param']!s:>8s}={r['ratio']:.3f}" for r in sel)
        )
    return "\n".join(lines)
