"""Fig. 11 analog (supplementary table): runtime prediction vs SOTAs.

Compares the paper's estimator with from-scratch XGBoost-, DisNet-, and
AutoML-lite baselines (plus their S- per-iteration variants) on the same
cached task sample set: training time, prediction time, and the four
accuracy metrics. This carries the abstract's "MSE up to 33.3% lower than
SOTA" claim, so it is reproduced even though figures are out of scope.
"""
from __future__ import annotations

import time

import numpy as np

from repro.estimator import features as F
from repro.estimator import metrics as M
from repro.estimator import samples as S
from repro.estimator.competitors import GBTRegressor, MLPRegressor, RidgeRegressor
from repro.estimator.runtime import RuntimePredictor, TaskSample

N_TASKS = 200


def _task_X(samples: list[TaskSample]) -> np.ndarray:
    return np.array([s.features() for s in samples])


def _models():
    return {
        "XGBoost": GBTRegressor(),
        "DisNet": MLPRegressor(epochs=1000, lr=1e-4),
        "AutoML": RidgeRegressor(lam=0.1),
    }


def run(*, n_tasks: int = N_TASKS, seed: int = 0, max_iter: int = 12,
        sample_kwargs: dict | None = None) -> list[dict]:
    smp = S.generate(n_tasks, seed=seed, max_iter=max_iter,
                     **(sample_kwargs or {}))
    train, _val, test = S.split(smp, seed=seed)
    y = np.array([s.total_time for s in test])
    # Task-level baselines map features to the total runtime directly; the
    # S- variants fit per-iteration rows and sum each test task's
    # predictions over its actual iteration count (the paper's "predict
    # each iteration separately and then sum" modification).
    Xte = _task_X(test)
    Zte = [F.per_iteration([s])[0] for s in test]
    setups = (
        ("", (_task_X(train), np.array([s.total_time for s in train])),
         lambda model: model.predict(Xte)),
        ("S-", F.per_iteration(train),
         lambda model: np.array([model.predict(Z).sum() for Z in Zte])),
    )
    rows = []
    for prefix, (Xtr, ytr), predict in setups:
        for name, model in _models().items():
            t0 = time.perf_counter()
            model.fit(Xtr, ytr)
            t_train = time.perf_counter() - t0
            t0 = time.perf_counter()
            yhat = predict(model)
            t_pred = time.perf_counter() - t0
            rows.append({"model": prefix + name, "train_s": t_train,
                         "predict_s": t_pred, **M.evaluate(y, yhat)})

    # Our estimator (beta=4, interaction, per the paper's defaults).
    t0 = time.perf_counter()
    rp = RuntimePredictor(beta=4, interaction=True, q=max_iter).fit(train)
    t_train = time.perf_counter() - t0
    t0 = time.perf_counter()
    yhat = np.array([rp.predict_total(s) for s in test])
    t_pred = time.perf_counter() - t0
    rows.append({"model": "Dask-means", "train_s": t_train,
                 "predict_s": t_pred, **M.evaluate(y, yhat)})
    return rows


def format_table(rows: list[dict]) -> str:
    head = (f"{'model':<12s} {'train_s':>9s} {'predict_s':>10s} "
            f"{'MSE':>11s} {'MAE':>9s} {'WMAPE':>7s} {'sMAPE':>7s}")
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r['model']:<12s} {r['train_s']:9.3f} {r['predict_s']:10.4f} "
            f"{r['MSE']:11.4g} {r['MAE']:9.4g} {r['WMAPE']:7.3f} {r['sMAPE']:7.1f}"
        )
    return "\n".join(lines)
