"""The two fit paths the benchmark times, with their set-up, reference and
correctness check.

``LocalPath`` times ``repro.core.daskmeans.fit`` on a prebuilt point index
and checks it against ``repro.baselines.lloyd.fit`` from the same init.
``SparkPath`` times ``repro.spark.daskmeans_spark.fit`` plus materialising
its ``labels_df``, and checks it against Lloyd too (the local Dask-means
fit must equal Lloyd, so this is the same invariant) and against the
DuckDB oracle. Checks run outside the timed region and return a list of
problems; an empty list is a pass.
"""
from __future__ import annotations

import pickle

import numpy as np

from repro.baselines import lloyd
from repro.core import balltree as bt
from repro.core import daskmeans
from repro.core.balltree import NO_CLUSTER
from repro.estimator import memory

from workloads import Instance, Workload

ATOL = 1e-6
COUNTERS = ("n_dist", "pruned_vectors", "n_iter", "memory_floats")


def _compare(labels, centroids, ref_labels, ref_centroids, what: str) -> list[str]:
    problems = []
    if labels.shape != ref_labels.shape or (labels != ref_labels).any():
        bad = int((labels != ref_labels).sum()) if labels.shape == ref_labels.shape else -1
        problems.append(f"labels differ from {what} at {bad} points")
    if not np.allclose(centroids, ref_centroids, rtol=0.0, atol=ATOL):
        err = float(np.abs(centroids - ref_centroids).max())
        problems.append(f"centroids differ from {what} by {err:.3g} > {ATOL}")
    return problems


def index_floats(parts: list[np.ndarray], k_centroids: np.ndarray, f: int) -> tuple[int, float]:
    """(measured, Eq. 11 estimate) float slots of one point index per
    partition, the centroid index and the n-entry label array."""
    n = sum(len(p) for p in parts)
    measured = sum(memory.measured_floats(bt.build(p, f)) for p in parts)
    measured += memory.measured_floats(bt.build(k_centroids, f)) + n
    est = sum(memory.estimate_index_floats(len(p), f) for p in parts)
    est += memory.estimate_index_floats(len(k_centroids), f) + n
    return measured, est


class LocalPath:
    name = "local"
    one_core = True   # the fit runs on the calling thread; its times are calibrated

    def __init__(self, w: Workload):
        self.w = w

    def setup(self, inst: Instance):
        """The point index every fit reuses."""
        return bt.build(inst.X, self.w.f)

    def release(self, state) -> None:
        pass

    def fit(self, inst: Instance, tree):
        return daskmeans.fit(inst.X, inst.C0, self.w.iters, f=self.w.f, tree=tree)

    def reference(self, inst: Instance):
        return lloyd.fit(inst.X, inst.C0, self.w.iters)

    def check(self, inst: Instance, ref, res) -> list[str]:
        return _compare(res.labels, res.centroids, ref.labels, ref.centroids, "Lloyd")

    def counters(self, inst: Instance, state, res) -> dict:
        return {
            "n_dist": res.n_dist, "pruned_vectors": res.pruned_vectors,
            "n_iter": res.n_iter, "memory_floats": res.memory_floats,
        }

    def memory(self, inst: Instance, state) -> tuple[int, float]:
        return index_floats([inst.X], inst.C0, self.w.f)


class SparkPath:
    name = "spark"
    # The fit spreads over every core, whose speeds swing independently of
    # the one core a calibration runs on, so its times stay wall seconds.
    one_core = False

    def __init__(self, w: Workload, spark):
        self.w = w
        self.spark = spark
        self._layout: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._memory: dict[int, tuple[int, float]] = {}

    def setup(self, inst: Instance):
        """The input DataFrame, randomly repartitioned, cached and materialised."""
        from repro.spark import data as sdata

        df = sdata.to_spark(self.spark, inst.X, n_partitions=self.w.partitions).persist()
        df.count()
        return df

    def release(self, df) -> None:
        """Uncache ``df`` and wait until that is done, so it cannot overlap
        the next timed set-up."""
        df.unpersist(blocking=True)

    def fit(self, inst: Instance, df):
        from repro.spark import daskmeans_spark

        res = daskmeans_spark.fit(
            self.spark, df, self.w.k, d=inst.X.shape[1], f=self.w.f,
            max_iter=self.w.iters, init_centroids=inst.C0,
        )
        materialise(res.labels_df)
        return res

    def reference(self, inst: Instance):
        return lloyd.fit(inst.X, inst.C0, self.w.iters)

    def check(self, inst: Instance, ref, res) -> list[str]:
        import pandas as pd
        from pyspark.sql import functions as F

        from repro.oracle import assert_equivalent
        from repro.spark import assign_sql
        from repro.spark.data import dim_cols

        got = res.labels_df.toPandas().sort_values("id")
        problems = []
        if not np.array_equal(got["id"].to_numpy(), np.arange(len(inst.X))):
            problems.append("labels_df ids are not exactly 0..n-1")
            return problems
        problems += _compare(
            got["cluster"].to_numpy(), res.centroids, ref.labels, ref.centroids, "Lloyd"
        )
        d = inst.X.shape[1]
        pts = pd.DataFrame(inst.X, columns=dim_cols(d))
        pts.insert(0, "id", np.arange(len(inst.X), dtype=np.int64))
        try:
            assert_equivalent(
                res.labels_df.select("id", F.lit(1).alias("ok")),
                assign_sql.validation_sql(d),
                points=pts,
                centroids=assign_sql.centroids_pdf(res.labels_centroids),
                labels=res.labels_df,
            )
        except AssertionError as e:
            problems.append(f"DuckDB oracle rejects labels: {str(e)[:200]}")
        return problems

    def partitions(self, inst: Instance, df) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each partition's (ids, points) as the Spark fit sees them."""
        from repro.spark import data as sdata

        if inst.seed not in self._layout:
            self._layout[inst.seed] = sdata.partition_arrays(df, inst.X.shape[1]).collect()
        return self._layout[inst.seed]

    def counters(self, inst: Instance, df, res) -> dict:
        return {
            "n_dist": res.n_dist, "pruned_vectors": res.pruned_vectors,
            "n_iter": res.n_iter, "memory_floats": self.memory(inst, df)[0],
        }

    def memory(self, inst: Instance, df) -> tuple[int, float]:
        if inst.seed not in self._memory:
            parts = [X for _, X in self.partitions(inst, df)]
            self._memory[inst.seed] = index_floats(parts, inst.C0, self.w.f)
        return self._memory[inst.seed]

    def pickled_state_bytes(self, inst: Instance, df) -> int:
        """Pickled size of every partition's (ids, tree, labels) state, the
        object the fit re-caches each iteration."""
        total = 0
        for ids, X in self.partitions(inst, df):
            state = (ids, bt.build(X, self.w.f), np.full(len(X), NO_CLUSTER, dtype=np.int64))
            total += len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
        return total


def materialise(labels_df) -> None:
    """Force every label to be computed, so a lazy export is timed too."""
    from pyspark.sql import functions as F

    labels_df.agg(F.count("id"), F.sum("cluster")).collect()
