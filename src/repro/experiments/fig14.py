"""Fig. 14 analog (supplementary table): GP runtime adjustment over time.

For each held-out task, the per-iteration predictions of the trained
estimator are adjusted after observing c = 0, 1, 2, ... completed
iterations, using (a) the paper's asymmetric-kernel GP, (b) the
weighted-average baseline [63], and (c) NoGP (the same step with ratio 1,
so only the observed iterations change). Metrics compare the adjusted
*total* runtime against the actual total — the paper's finding is that
error shrinks monotonically as more posterior information arrives, and
that GP beats NoGP at every c.
"""
from __future__ import annotations

import numpy as np

from repro.estimator import metrics as M
from repro.estimator import samples as S
from repro.estimator.gp import Adjuster, RuntimeAdjuster, WeightedAverageAdjuster
from repro.estimator.runtime import RuntimePredictor

N_TASKS = 200
OBSERVED = (0, 1, 2, 4, 6)


def run(*, n_tasks: int = N_TASKS, seed: int = 0, max_iter: int = 12,
        sample_kwargs: dict | None = None) -> list[dict]:
    smp = S.generate(n_tasks, seed=seed, max_iter=max_iter,
                     **(sample_kwargs or {}))
    train, _va, test = S.split(smp, seed=seed)
    rp = RuntimePredictor(beta=4, interaction=True, q=max_iter).fit(train)
    adjusters = {
        "GP": RuntimeAdjuster(),
        "WeightedAvg": WeightedAverageAdjuster(),
        "NoGP": Adjuster(),
    }
    rows = []
    for c in OBSERVED:
        y, preds = [], {name: [] for name in adjusters}
        for s in test:
            actual = np.array(s.iter_times)
            u, yhat = rp.predict_profile(s)
            profile = yhat[: s.n_iter]  # score over the true horizon
            y.append(actual.sum())
            for name, adj in adjusters.items():
                preds[name].append(adj.adjust(profile, actual[:c]).sum())
        for name in adjusters:
            rows.append({"observed": c, "adjuster": name,
                         **M.evaluate(y, preds[name])})
    return rows


def format_table(rows: list[dict]) -> str:
    names = ["GP", "WeightedAvg", "NoGP"]
    head = (f"{'observed':>8s} | "
            + " | ".join(f"{n:>11s} MSE" for n in names))
    lines = [head, "-" * len(head)]
    by = {(r["observed"], r["adjuster"]): r for r in rows}
    for c in sorted({r["observed"] for r in rows}):
        lines.append(
            f"{c:>8d} | "
            + " | ".join(f"{by[(c, n)]['MSE']:15.5g}" for n in names)
        )
    return "\n".join(lines)
