"""Distributed Dask-means: per-partition Ball-trees + broadcast centroids.

The paper's future-work section sketches a distributed Dask-means for
edge fleets; the reproduction plan realizes it as a Spark per-partition
operator:

* **state** — one persisted RDD; each partition owns (ids, Ball-tree
  with its a(N) array ``cluster``, labels a(i), ``AssignStats`` of the
  last pass). The tree is built once; the a(N)/a(i) state evolves across
  iterations. PySpark caches pickled partitions, so in-task mutation
  would be lost: every iteration maps the state to the next one.
* **per iteration** — the driver runs the loop every accelerated
  algorithm shares, ``result.iterate`` (refinement, drift, convergence),
  with the local fit's own hook, ``daskmeans.Hook`` (centroid index,
  inter bounds). Only the hook's point assignment is distributed: it
  broadcasts (C, cb), each partition runs the *same*
  ``daskmeans.assign_pass`` over its own tree, and the driver collects
  and adds up the partitions' ``AssignStats`` (per-cluster sums and
  counts, counters).
* **labels** — ``labels_df`` is written from the final state on the
  executors and checkpointed; no label passes through the driver.

Because every partition applies the exact algorithm to its share of the
points and refinement uses global sums, the result equals the local
algorithm (and Lloyd) from the same initial centroids. ``lloyd_spark``
runs the same loop with a Catalyst-aggregation hook and returns the same
:class:`SparkKMeansResult`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core import balltree as bt
from repro.core import daskmeans
from repro.core.balltree import NO_CLUSTER
from repro.core.result import AssignStats, LoopResult, check_centroids, check_points, iterate
from repro.spark import data as sdata


@dataclass
class SparkKMeansResult(LoopResult):
    """The shared loop's outcome plus the final labels as a DataFrame."""

    labels_df: DataFrame           # [id, cluster]


def _build_state(part, f: int):
    for ids, X in part:
        tree = bt.build(check_points(X), f)
        labels = np.full(len(ids), NO_CLUSTER, dtype=np.int64)
        yield ids, tree, labels, None


def fit(
    spark: SparkSession,
    df: DataFrame,
    k: int,
    *,
    d: int,
    init_centroids: np.ndarray,
    f: int = 30,
    max_iter: int = 20,
) -> SparkKMeansResult:
    """Distributed Dask-means over a [id, x0..x{d-1}] DataFrame."""
    C = check_centroids(init_centroids, d, k)
    sc = spark.sparkContext
    state = sdata.partition_arrays(df, d).mapPartitions(lambda p: _build_state(p, f)).persist()
    state.count()  # materialize the trees once

    # Per-iteration broadcasts are referenced by the cached state RDD's
    # pickled closure, so they cannot be destroyed until the final state
    # has been written out — they are tiny (k x d floats + k inter
    # bounds), so we keep them and destroy all at the end.
    broadcasts = []

    def assign_points(C, cb):
        nonlocal state
        bc = sc.broadcast((C, cb))
        broadcasts.append(bc)

        def step(s):
            ids, tree, labels, _ = s
            return ids, tree, labels, daskmeans.assign_pass(tree, *bc.value, labels)

        # Persist + localCheckpoint truncates lineage each iteration so the
        # DAG does not grow with the iteration count.
        prev, state = state, state.map(step).persist()
        state.localCheckpoint()
        parts = state.map(lambda s: s[3]).collect()
        prev.unpersist()
        return AssignStats.total(parts)

    loop = iterate(C, daskmeans.Hook(assign_points, f), max_iter)

    # Checkpointed, so labels_df carries no lineage into the state it is
    # written from, which is unpersisted next.
    labels_df = spark.createDataFrame(
        state.flatMap(lambda s: zip(s[0].tolist(), s[2].tolist())), "id bigint, cluster bigint"
    ).localCheckpoint()
    state.unpersist()
    for bc in broadcasts:
        bc.destroy()
    return SparkKMeansResult(**vars(loop), labels_df=labels_df)
