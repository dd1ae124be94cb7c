"""Sample-set generation for training/evaluating the cost estimator.

Section VI-C builds a set of 2000 k-means tasks with random datasets
(n in [1e5, 1e8]) and random k in [1e2, 1e4], runs Dask-means on each and
records per-iteration runtimes. We reproduce the protocol at laptop scale
(defaults: 200 tasks, n in [2e3, 2e4], k in [8, 128]) and cache the
recorded runs on disk — the sample set is shared by the Table VIII sweep,
the Fig. 11 comparison, and the GP-adjustment checks, and regenerating it
is the dominant cost.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro import datasets
from repro.core import daskmeans, init as cinit
from repro.core import balltree as bt
from repro.estimator import features as F
from repro.estimator.runtime import TaskSample

#: The paper's train and validation shares; the test set takes the rest.
TRAIN, VAL = 0.8, 0.1

_CACHE_DIR = Path(os.environ.get("REPRO_CACHE", Path(__file__).resolve().parents[3] / ".cache"))


def generate(
    n_tasks: int = 200,
    *,
    n_range: tuple[int, int] = (2_000, 20_000),
    k_range: tuple[int, int] = (8, 128),
    f_choices: tuple[int, ...] = (20, 30, 50, 100),
    max_iter: int = 12,
    seed: int = 0,
    cache: bool = True,
) -> list[TaskSample]:
    """Run Dask-means on ``n_tasks`` random tasks, recording runtimes.

    Deterministic in all parameters; cached as JSON keyed by their hash.
    Dataset is drawn uniformly from the paper's low-dimensional analogs.
    """
    key = json.dumps(
        [n_tasks, n_range, k_range, f_choices, max_iter, seed], sort_keys=True
    )
    cache_file = _CACHE_DIR / f"samples_{hashlib.sha1(key.encode()).hexdigest()[:12]}.json"
    if cache and cache_file.exists():
        return _load(cache_file)

    g = np.random.default_rng(seed)
    out: list[TaskSample] = []
    names = datasets.LOW_DIM
    for t in range(n_tasks):
        name = names[int(g.integers(len(names)))]
        n = int(g.integers(n_range[0], n_range[1] + 1))
        k = int(g.integers(k_range[0], min(k_range[1], n // 4) + 1))
        f = int(f_choices[int(g.integers(len(f_choices)))])
        X = datasets.make(name, n, seed=int(g.integers(1 << 31)))
        C0 = cinit.random_init(X, k, seed=int(g.integers(1 << 31)))
        tree = bt.build(X, f)
        r = daskmeans.fit(X, C0, max_iter, f=f, tree=tree)
        out.append(
            TaskSample(
                n=n, k=k, d=X.shape[1], f=f,
                iter_times=list(r.iter_times),
                tree_stats=F.task_features(n, k, X.shape[1], f, tree),
            )
        )
    if cache:
        _save(cache_file, out)
    return out


def split(
    samples: list[TaskSample], *, seed: int = 0
) -> tuple[list[TaskSample], list[TaskSample], list[TaskSample]]:
    """The paper's 80/10/10 train/validation/test split."""
    g = np.random.default_rng(seed)
    order = g.permutation(len(samples))
    n_tr = int(len(samples) * TRAIN)
    n_val = int(len(samples) * VAL)
    pick = lambda ids: [samples[i] for i in ids]  # noqa: E731
    return (
        pick(order[:n_tr]),
        pick(order[n_tr : n_tr + n_val]),
        pick(order[n_tr + n_val :]),
    )


def _save(path: Path, samples: list[TaskSample]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [asdict(s) | {"tree_stats": s.tree_stats.tolist()} for s in samples]
    path.write_text(json.dumps(rows))


def _load(path: Path) -> list[TaskSample]:
    return [
        TaskSample(**row | {"tree_stats": np.array(row["tree_stats"])})
        for row in json.loads(path.read_text())
    ]
