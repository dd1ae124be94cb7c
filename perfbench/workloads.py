"""The benchmark's workloads and the inputs they make from a seed.

A run fits several *instances* of its workload, each a dataset and an
initial centroid set drawn from its own seed derived from the run seed.
The synthetic datasets have heavy-tailed structure (road weights, mixture
sizes), so one instance's cost swings with the seed by 10-30%; the median
over several instances is what makes one run comparable with another.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    path: str          # "local": repro.core.daskmeans.fit; "spark": repro.spark.daskmeans_spark.fit
    dataset: str       # repro.datasets name
    n: int
    k: int
    iters: int         # max_iter handed to every fit
    instances: int     # datasets per run
    why: str
    f: int = 30        # leaf capacity of both indexes
    partitions: int = 4


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "local-2d-k256", "local", "tdrive", n=20_000, k=256, iters=5, instances=6,
            why="2-D, large k: centroid-index knn/range_query searches dominate the fit, "
            "so a batched assignment should show here first",
        ),
        Workload(
            "spark-2d-k64", "spark", "tdrive", n=60_000, k=64, iters=5, instances=4,
            why="the only workload through spark.data and spark.daskmeans_spark: "
            "Row ingest, per-partition state, broadcast/collect rounds and label export",
        ),
    ]
}


@dataclass
class Instance:
    seed: int
    X: np.ndarray
    C0: np.ndarray


def instances(w: Workload, seed: int) -> list[Instance]:
    """The run's inputs: the same ``seed`` always gives the same arrays."""
    from repro import datasets
    from repro.core import init as cinit

    out = []
    for i in range(w.instances):
        s = seed * 1000 + i
        X = datasets.make(w.dataset, w.n, seed=s)
        out.append(Instance(s, X, cinit.random_init(X, w.k, seed=s)))
    return out
