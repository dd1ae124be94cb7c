"""Table IV / Table V: total runtime of 10 algorithms across datasets x k.

The paper's grid: 6 low-dimensional datasets (Table IV) and 2 high-
dimensional datasets (Table V), k in {1e2, 1e3, 1e4}, <= 20 iterations,
f = 30, C++ at n = 1e6 (0.43e6 for 3D-RD, 0.5e6 for embeddings). Scaled
here: n = SCALE_N (Table III proportions preserved), k in {16, 64, 256},
10 iterations. Besides wall-clock we record the paper's machine-
independent pruning-power signal: exact distance-computation counts.
Each cell also records the extra memory the algorithm keeps beyond the
dataset (float slots and MB), so the Fig. 9 analog is the ``memory_mb``
column of this grid at one k.
"""
from __future__ import annotations

import time

from repro import datasets
from repro.algorithms import ALGORITHMS, TABLE4_ORDER
from repro.core import init as cinit
from repro.estimator.memory import floats_to_mb

SCALE_N = 20_000
KS = (16, 64, 256)
MAX_ITER = 10
SEED = 0  # of the dataset; the init takes SEED + 1


def run_cell(name: str, k: int, algo: str, *, base_n: int = SCALE_N,
             max_iter: int = MAX_ITER) -> dict:
    """One (dataset, k, algorithm) cell of the table."""
    n = datasets.paper_scale_n(name, base_n)
    X = datasets.make(name, n, seed=SEED)
    C0 = cinit.random_init(X, k, seed=SEED + 1)
    t0 = time.perf_counter()
    r = ALGORITHMS[algo](X, C0, max_iter)
    wall = time.perf_counter() - t0
    return {
        "dataset": name, "k": k, "algo": algo, "n": n,
        "time_s": wall, "n_dist": r.n_dist, "n_iter": r.n_iter,
        "memory_floats": r.memory_floats,
        "memory_mb": floats_to_mb(r.memory_floats),
        "init_time_s": r.init_time,
    }


def run(names: list[str], *, ks=KS, base_n: int = SCALE_N,
        max_iter: int = MAX_ITER, algos=None) -> list[dict]:
    algos = algos or TABLE4_ORDER
    rows = []
    for name in names:
        for k in ks:
            for algo in algos:
                rows.append(run_cell(name, k, algo, base_n=base_n, max_iter=max_iter))
    return rows


def format_table(rows: list[dict], metric: str = "time_s") -> str:
    """Render rows in the paper's layout: datasets x k down, algorithms
    across."""
    algos = [a for a in TABLE4_ORDER
             if any(r["algo"] == a for r in rows)]
    by = {(r["dataset"], r["k"], r["algo"]): r for r in rows}
    names = sorted({r["dataset"] for r in rows},
                   key=lambda x: list(datasets.PAPER_DATASETS).index(x))
    ks = sorted({r["k"] for r in rows})
    head = f"{'dataset':<10s} {'k':>5s} " + " ".join(f"{a:>12s}" for a in algos)
    lines = [head, "-" * len(head)]
    for name in names:
        for k in ks:
            cells = []
            for a in algos:
                r = by.get((name, k, a))
                v = r[metric] if r else float("nan")
                cells.append(f"{v:12.2f}" if isinstance(v, float) else f"{v:12,d}")
            lines.append(f"{name:<10s} {k:>5d} " + " ".join(cells))
    return "\n".join(lines)
