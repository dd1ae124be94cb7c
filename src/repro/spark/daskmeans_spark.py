"""Distributed Dask-means: per-partition Ball-trees + broadcast centroids.

The paper's future-work section sketches a distributed Dask-means for
edge fleets; the reproduction plan realizes it as a Spark per-partition
operator:

* **state** — one persisted DataFrame with one row per non-empty
  partition and two binary columns: ``state``, the pickled (ids,
  Ball-tree with its a(N) array ``cluster``, labels a(i)), and ``stats``,
  the pickled ``AssignStats`` of the last pass. Cached rows are
  immutable, so every iteration maps the state to the next one: one
  ``mapInArrow``, one Python pass per task, whose output is persisted
  while the previous state is unpersisted. The first pass reads the
  partition's [id, x0..] rows as Arrow batches, builds its tree and
  assigns, so there is no separate ingest or build job. A lost cached
  block is recomputed from lineage, through the earlier passes and their
  broadcasts.
* **per iteration** — the driver runs the loop every accelerated
  algorithm shares, ``result.iterate`` (refinement, drift, convergence),
  with the local fit's own hook, ``daskmeans.Hook`` (centroid index,
  inter bounds). Only the hook's point assignment is distributed: it
  broadcasts (C, cb), each partition runs the *same*
  ``daskmeans.assign_pass`` over its own tree, and the driver collects
  the ``stats`` column (a JVM-only projection of the cached state) and
  adds up the partitions' ``AssignStats`` (per-cluster sums and counts,
  counters).
* **labels** — ``labels_df`` is written from the final state on the
  executors and checkpointed; no label or tree passes through the
  driver.

Because every partition applies the exact algorithm to its share of the
points and refinement uses global sums, the result equals the local
algorithm (and Lloyd) from the same initial centroids. ``lloyd_spark``
runs the same loop with a Catalyst-aggregation hook and returns the same
:class:`SparkKMeansResult`.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyspark.sql.functions as Fn
from pyspark.sql import DataFrame, SparkSession

from repro.core import balltree as bt
from repro.core import daskmeans
from repro.core.balltree import NO_CLUSTER
from repro.core.result import AssignStats, LoopResult, check_centroids, check_points, iterate
from repro.spark import data as sdata

_STATE_SCHEMA = "state binary, stats binary"


@dataclass
class SparkKMeansResult(LoopResult):
    """The shared loop's outcome plus the final labels as a DataFrame."""

    labels_df: DataFrame           # [id, cluster]


def _built(batches, cols: list[str], f: int):
    """The initial (ids, tree, labels) of a partition from its [id, x0..]
    Arrow batches; an empty partition holds no state."""
    batches = list(batches)
    if not sum(b.num_rows for b in batches):
        return
    rows = pa.Table.from_batches(batches)
    X = check_points(np.column_stack([rows.column(c).to_numpy() for c in cols]))
    yield rows.column("id").to_numpy(), bt.build(X, f), np.full(len(X), NO_CLUSTER, dtype=np.int64)


def _stored(batches):
    """The (ids, tree, labels) of each state row in a partition's batches."""
    for batch in batches:
        for blob in batch.column("state").to_pylist():
            yield pickle.loads(blob)


def _step(states, bc):
    """One assignment pass over each state: a row of its next state and
    the pass's stats."""
    for ids, tree, labels in states:
        stats = daskmeans.assign_pass(tree, *bc.value, labels)
        blobs = [pickle.dumps(o, pickle.HIGHEST_PROTOCOL) for o in ((ids, tree, labels), stats)]
        yield pa.RecordBatch.from_arrays(
            [pa.array([b], pa.binary()) for b in blobs], names=["state", "stats"]
        )


def _labels(batches):
    for ids, _, labels in _stored(batches):
        yield pa.RecordBatch.from_arrays([pa.array(ids), pa.array(labels)], names=["id", "cluster"])


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
    cols = sdata.dim_cols(d)
    rows = df.select("id", *cols)
    # Persisted states not yet released, oldest first: the current one and,
    # while a pass runs, the one it reads.
    states: list[DataFrame] = []
    # Recomputing a lost block replays earlier passes with their
    # broadcasts, so these (k x d floats + k inter bounds each) are
    # destroyed only when the fit ends.
    broadcasts = []

    def assign_points(C, cb):
        bc = sc.broadcast((C, cb))
        broadcasts.append(bc)
        if states:
            src, read = states[-1].select("state"), _stored
        else:  # the first pass builds each partition's tree
            src, read = rows, lambda it: _built(it, cols, f)
        states.append(src.mapInArrow(lambda it: _step(read(it), bc), _STATE_SCHEMA).persist())
        parts = states[-1].select("stats").rdd.collect()
        while len(states) > 1:
            states.pop(0).unpersist()
        if not parts:  # no partition holds a row
            return AssignStats.zero(*C.shape)
        return AssignStats.total([pickle.loads(r.stats) for r in parts])

    try:
        loop = iterate(C, daskmeans.Hook(assign_points, f), max_iter)
        if states:
            labels_df = states[-1].select("state").mapInArrow(_labels, "id bigint, cluster bigint")
        else:  # max_iter = 0: no pass ran, so no point has a cluster yet
            labels_df = rows.select("id", Fn.lit(NO_CLUSTER).cast("bigint").alias("cluster"))
        # Checkpointed, so labels_df carries no lineage into the state it
        # is written from, which is unpersisted next.
        labels_df = labels_df.localCheckpoint()
    finally:
        for s in states:
            s.unpersist()
        for bc in broadcasts:
            bc.destroy()
    return SparkKMeansResult(**vars(loop), labels_df=labels_df)
