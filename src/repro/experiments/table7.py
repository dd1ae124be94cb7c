"""Table VII: impact of the memory limit on the memory-tunable index.

The paper gives Dask-means 15/20/30 MB at n = 1e6 and reports runtime and
cumulative batch-pruned vectors. Inverting Eq. 12 at their scale, those
budgets correspond to leaf capacities f ~ 30 / 12 / 6, which is the
regime we reproduce directly: the same three target-f budgets are derived
for our scaled n via Eq. 11 + a safety margin, then Eq. 12 recovers f
from the budget, the index is built with it, and Dask-means runs.
"""
from __future__ import annotations

import time

from repro import datasets
from repro.core import daskmeans, init as cinit
from repro.estimator import memory as mem

#: target leaf capacities matching the paper's 15/20/30 MB regime.
TARGET_F = (30, 12, 6)
BUDGET_LABELS = ("15MB-eq", "20MB-eq", "30MB-eq")
SCALE_N = 20_000
KS = (16, 64, 256)
MAX_ITER = 10
SEED = 0  # of the dataset; the init takes SEED + 1


def budgets_for(n: int, k: int) -> list[float]:
    """Float budgets that Eq. 12 maps to the paper's three f regimes."""
    return [mem.estimate_total_floats(n, k, f, exact=False) * 1.001
            for f in TARGET_F]


def run(names: list[str], *, ks=KS, base_n: int = SCALE_N,
        max_iter: int = MAX_ITER) -> list[dict]:
    rows = []
    for name in names:
        n = datasets.paper_scale_n(name, base_n)
        X = datasets.make(name, n, seed=SEED)
        for k in ks:
            C0 = cinit.random_init(X, k, seed=SEED + 1)
            for label, budget in zip(BUDGET_LABELS, budgets_for(n, k)):
                f = mem.tune_f(n, k, budget)
                t0 = time.perf_counter()
                r = daskmeans.fit(X, C0, max_iter, f=f)
                wall = time.perf_counter() - t0
                rows.append({
                    "dataset": name, "k": k, "budget": label,
                    "budget_mb": mem.floats_to_mb(budget),
                    "f": f, "time_s": wall,
                    "pruned_vectors": r.pruned_vectors,
                    "actual_mb": mem.floats_to_mb(r.memory_floats),
                })
    return rows


def format_table(rows: list[dict]) -> str:
    names = sorted({r["dataset"] for r in rows})
    ks = sorted({r["k"] for r in rows})
    head = (f"{'dataset':<10s} {'k':>5s} "
            + " ".join(f"{b:>22s}" for b in BUDGET_LABELS))
    lines = [head, "-" * len(head),
             f"{'':<10s} {'':>5s} " + " ".join(f"{'time_s/pruned(f)':>22s}"
                                               for _ in BUDGET_LABELS)]
    by = {(r["dataset"], r["k"], r["budget"]): r for r in rows}
    for name in names:
        for k in ks:
            cells = []
            for b in BUDGET_LABELS:
                r = by[(name, k, b)]
                cells.append(
                    f"{r['time_s']:7.2f}/{r['pruned_vectors']:>9,d}(f={r['f']:>3d})"
                )
            lines.append(f"{name:<10s} {k:>5d} " + " ".join(cells))
    return "\n".join(lines)
