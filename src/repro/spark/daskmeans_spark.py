"""Distributed Dask-means: per-partition Ball-trees + broadcast centroids.

The paper's future-work section sketches a distributed Dask-means for
edge fleets; the reproduction plan realizes it as a Spark per-partition
operator:

* **state** — each partition owns (ids, Ball-tree with its a(N) array
  ``cluster``, labels a(i)). The tree is built once; the a(N)/a(i) state
  evolves across iterations. The state lives in a persisted RDD and is
  *functionally* replaced each iteration (PySpark caches pickled
  partitions, so in-task mutation would be lost — instead every iteration
  maps the old state to (new state, partial aggregates) and persists the
  new RDD).
* **per iteration** — the driver runs the loop every accelerated
  algorithm shares, ``result.iterate`` (refinement, drift, convergence),
  with the local fit's own hook, ``daskmeans.Hook`` (centroid index,
  inter bounds). Only the hook's point assignment is distributed: it
  broadcasts (C, cb), each partition runs the *same*
  ``daskmeans.assign_pass`` over its own tree and returns its
  ``AssignStats`` (per-cluster sums and counts, counters), and the driver
  sums them.

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
        yield ids, tree, labels


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
    arrays = sdata.partition_arrays(df, d)
    cached = arrays.mapPartitions(lambda p: _build_state(p, f)).persist()
    cached.count()  # materialize the trees once
    state = cached

    # Per-iteration broadcasts are referenced by the cached state RDD's
    # pickled closure, so they cannot be destroyed until the final state
    # has been collected — they are tiny (k x d floats + k inter
    # bounds), so we keep them and destroy all at the end.
    broadcasts = []

    def assign_points(C, cb):
        nonlocal cached, state
        bc = sc.broadcast((C, cb))
        broadcasts.append(bc)

        def step(s):
            ids, tree, labels = s
            stats = daskmeans.assign_pass(tree, *bc.value, labels)
            return (ids, tree, labels), stats

        # Persist + localCheckpoint truncates lineage each iteration so the
        # DAG does not grow with the iteration count.
        new_full = state.map(step).persist()
        new_full.localCheckpoint()
        partials = new_full.map(lambda t: t[1]).collect()
        cached.unpersist()
        cached = new_full
        state = new_full.map(lambda t: t[0])
        return AssignStats(
            sum(p.sv for p in partials), sum(p.cnt for p in partials),
            any(p.changed for p in partials), sum(p.n_dist for p in partials),
            sum(p.pruned_vectors for p in partials),
        )

    loop = iterate(C, daskmeans.Hook(assign_points, f), max_iter)

    # Final labels back into the DataFrame world — collected to the driver
    # first so labels_df carries no lineage into the (unpersisted) state.
    parts = state.map(lambda s: (s[0], s[2])).collect()
    labels_df = sdata.labels_to_spark(
        spark, np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    )
    cached.unpersist()
    for bc in broadcasts:
        bc.destroy()
    return SparkKMeansResult(**vars(loop), labels_df=labels_df)
