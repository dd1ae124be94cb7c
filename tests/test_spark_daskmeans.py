"""Distributed Dask-means tests: equivalence with the local algorithm and
DuckDB-oracle validation of the distributed assignment."""
import os
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pyarrow as pa
import pyspark.sql.functions as Fn
import pytest

from repro import datasets
from repro.baselines import lloyd as lloyd_local
from repro.core import balltree as bt
from repro.core import daskmeans as dk_local
from repro.core import init as cinit
from repro.core.balltree import NO_CLUSTER
from repro.core.result import AssignStats, iterate
from repro.oracle import assert_equivalent
from repro.spark import assign_sql, data as sdata, daskmeans_spark, lloyd_spark


@pytest.fixture(scope="module")
def fixture2d(spark):
    X = datasets.make("tdrive", 3000, seed=0)
    C0 = cinit.random_init(X, 16, seed=1)
    df = sdata.to_spark(spark, X, n_partitions=4)
    return X, C0, df


def test_matches_local_daskmeans(spark, fixture2d):
    X, C0, df = fixture2d
    local = dk_local.fit(X, C0, 6, f=30)
    dist = daskmeans_spark.fit(spark, df, 16, d=2, f=30, max_iter=6, init_centroids=C0)
    assert dist.n_iter == local.n_iter
    np.testing.assert_allclose(dist.centroids, local.centroids, atol=1e-8)
    lab = dist.labels_df.toPandas().sort_values("id")["cluster"].to_numpy()
    np.testing.assert_array_equal(lab, local.labels)


def test_matches_local_lloyd(spark, fixture2d):
    X, C0, df = fixture2d
    ref = lloyd_local.fit(X, C0, 6)
    dist = daskmeans_spark.fit(spark, df, 16, d=2, f=30, max_iter=6, init_centroids=C0)
    np.testing.assert_allclose(dist.centroids, ref.centroids, atol=1e-8)


def test_assignment_validated_by_duckdb(spark, fixture2d):
    """DuckDB independently verifies every assigned cluster is optimal."""
    X, C0, df = fixture2d
    dist = daskmeans_spark.fit(spark, df, 16, d=2, f=30, max_iter=6, init_centroids=C0)
    pts = pd.DataFrame(X, columns=["x0", "x1"])
    pts.insert(0, "id", np.arange(len(X)))
    claimed = dist.labels_df.select("id", Fn.lit(1).alias("ok"))
    assert_equivalent(
        claimed,
        assign_sql.validation_sql(2),
        points=pts,
        # labels are the argmin w.r.t. the assignment-time centroids
        centroids=assign_sql.centroids_pdf(dist.labels_centroids),
        labels=dist.labels_df,
    )


def test_exact_assignment_on_quantized_data(spark):
    """With coarse coordinates ties/float-form effects vanish: the exact
    argmin SQL must agree row for row."""
    X = np.round(datasets.make("argo_pc", 800, seed=2), 1)
    C0 = cinit.random_init(X, 8, seed=3)
    df = sdata.to_spark(spark, X, n_partitions=3)
    dist = daskmeans_spark.fit(spark, df, 8, d=3, f=20, max_iter=4, init_centroids=C0)
    pts = pd.DataFrame(X, columns=["x0", "x1", "x2"])
    pts.insert(0, "id", np.arange(len(X)))
    assert_equivalent(
        dist.labels_df,
        assign_sql.assignment_sql(3),
        points=pts,
        centroids=assign_sql.centroids_pdf(dist.labels_centroids),
    )


def test_partitioning_invariance(spark):
    """The distributed result must not depend on the partition layout."""
    X = datasets.make("porto", 2000, seed=4)
    C0 = cinit.random_init(X, 12, seed=5)
    r2 = daskmeans_spark.fit(
        spark, sdata.to_spark(spark, X, n_partitions=2), 12, d=2, max_iter=5,
        init_centroids=C0,
    )
    r7 = daskmeans_spark.fit(
        spark, sdata.to_spark(spark, X, n_partitions=7), 12, d=2, max_iter=5,
        init_centroids=C0,
    )
    np.testing.assert_allclose(r2.centroids, r7.centroids, atol=1e-8)


def test_counters_aggregate(spark, fixture2d):
    """The Spark fit's counters and labels are those of the same loop run
    on the driver over one tree per ``partition_arrays`` partition, so the
    fit indexes exactly that layout (the one the benchmark's
    ``memory_floats`` is computed from) and adds up every partition's
    counters once."""
    X, C0, df = fixture2d
    dist = daskmeans_spark.fit(spark, df, 16, d=2, f=30, max_iter=6, init_centroids=C0)
    parts = [
        (ids, bt.build(P, 30), np.full(len(ids), NO_CLUSTER, dtype=np.int64))
        for ids, P in sdata.partition_arrays(df, 2).collect()
    ]

    def assign_points(C, cb):
        return AssignStats.total([dk_local.assign_pass(t, C, cb, lab) for _, t, lab in parts])

    ref = iterate(C0, dk_local.Hook(assign_points, 30), 6)
    assert len(parts) == 4
    assert (dist.n_dist, dist.pruned_vectors, dist.n_iter) == (
        ref.n_dist, ref.pruned_vectors, ref.n_iter
    )
    assert dist.pruned_vectors > 0
    ref_labels = np.empty(len(X), dtype=np.int64)
    for ids, _, lab in parts:
        ref_labels[ids] = lab
    lab = dist.labels_df.toPandas().sort_values("id")["cluster"].to_numpy()
    np.testing.assert_array_equal(lab, ref_labels)


def _more_partitions_than_rows(spark):
    X = datasets.make("tdrive", 40, seed=8)
    return X, sdata.to_spark(spark, X, n_partitions=64)


def _filtered_to_empty_partitions(spark):
    X = datasets.make("tdrive", 400, seed=9)
    return X[:5], sdata.to_spark(spark, X, n_partitions=8).where("id < 5")


def _partition_below_leaf_capacity(spark):
    X = datasets.make("tdrive", 300, seed=10)
    # Rows 0-9 in one partition, the rest in another.
    rows = spark.sparkContext.parallelize([(0, 10), (10, 300)], 2).flatMap(lambda r: range(*r))
    df = spark.createDataFrame(
        rows.map(lambda i: (i, *X[i].tolist())), "id bigint, x0 double, x1 double"
    )
    sizes = [len(ids) for ids, _ in sdata.partition_arrays(df, 2).collect()]
    assert sizes == [10, 290]  # 10 < f = 30: that tree is a single leaf
    return X, df


@pytest.mark.parametrize(
    "spark_fit, local_fit",
    [(daskmeans_spark.fit, dk_local.fit), (lloyd_spark.fit, lloyd_local.fit)],
    ids=["daskmeans_spark", "lloyd_spark"],
)
@pytest.mark.parametrize(
    "layout",
    [_more_partitions_than_rows, _filtered_to_empty_partitions, _partition_below_leaf_capacity],
)
def test_empty_and_tiny_partitions(spark, layout, spark_fit, local_fit):
    """Empty partitions hold no state, and a partition smaller than the
    leaf capacity is one leaf; labels and centroids equal the local fit's."""
    X, df = layout(spark)
    C0 = cinit.random_init(X, 3, seed=11)
    local = local_fit(X, C0, 4)
    dist = spark_fit(spark, df, 3, d=2, max_iter=4, init_centroids=C0)
    got = dist.labels_df.toPandas().sort_values("id")
    np.testing.assert_array_equal(got["id"].to_numpy(), np.arange(len(X)))
    np.testing.assert_array_equal(got["cluster"].to_numpy(), local.labels)
    np.testing.assert_allclose(dist.centroids, local.centroids, atol=1e-8)
    assert dist.n_iter == local.n_iter


@pytest.mark.parametrize("spark_fit,local_fit", [
    (daskmeans_spark.fit, dk_local.fit),
    (lloyd_spark.fit, lloyd_local.fit),
], ids=["daskmeans_spark", "lloyd_spark"])
def test_no_iteration_leaves_every_point_unlabelled(spark, spark_fit, local_fit):
    """As the local fit: with max_iter=0 no pass runs, so every label is
    NO_CLUSTER and the centroids stay the initial ones."""
    X = datasets.make("tdrive", 200, seed=12)
    C0 = cinit.random_init(X, 4, seed=13)
    local = local_fit(X, C0, 0)
    dist = spark_fit(
        spark, sdata.to_spark(spark, X, n_partitions=2), 4, d=2, max_iter=0, init_centroids=C0
    )
    lab = dist.labels_df.toPandas().sort_values("id")["cluster"].to_numpy()
    np.testing.assert_array_equal(lab, local.labels)
    assert (local.labels == NO_CLUSTER).all()
    np.testing.assert_array_equal(dist.centroids, C0)
    assert dist.n_iter == 0


def test_fit_leaves_only_the_labels_checkpoint(spark):
    """A fit leaves at most one persisted RDD, its ``labels_df``
    checkpoint, and that ``labels_df`` outlives the next fit."""
    X = datasets.make("tdrive", 2000, seed=6)
    C0 = cinit.random_init(X, 8, seed=7)
    df = sdata.to_spark(spark, X, n_partitions=2)
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    first = daskmeans_spark.fit(spark, df, 8, d=2, max_iter=4, init_centroids=C0)
    assert persistent().size() <= before + 1
    daskmeans_spark.fit(spark, df, 8, d=2, max_iter=4, init_centroids=C0)
    assert first.labels_df.count() == len(X)


@pytest.mark.parametrize("spark_fit, max_iter", [
    (daskmeans_spark.fit, 6), (daskmeans_spark.fit, 0), (lloyd_spark.fit, 1),
], ids=["daskmeans_spark", "daskmeans_spark-no-iteration", "lloyd_spark"])
def test_labels_df_types(spark, fixture2d, spark_fit, max_iter):
    """``labels_df`` is [id bigint, cluster bigint] on every branch of both
    fits, whatever expression builds it."""
    X, C0, df = fixture2d
    dist = spark_fit(spark, df, 16, d=2, max_iter=max_iter, init_centroids=C0)
    assert dist.labels_df.dtypes == [("id", "bigint"), ("cluster", "bigint")]


def test_state_round_trip():
    """``_stored`` reads back the (ids, tree, labels) that ``_step`` wrote
    after its pass, whether the state rows come one per batch or together,
    with labels ``assign_pass`` can update; an empty partition holds no
    state."""
    X = datasets.make("tdrive", 300, seed=14)
    C = cinit.random_init(X, 4, seed=15)
    cols = sdata.dim_cols(2)

    def batch(lo, hi):
        return pa.RecordBatch.from_arrays(
            [pa.array(np.arange(lo, hi))] + [pa.array(X[lo:hi, j]) for j in range(2)],
            names=["id", *cols],
        )

    parts = [(0, 100), (100, 300)]
    states = [next(daskmeans_spark._built([batch(lo, hi)], cols, 30)) for lo, hi in parts]
    batches = list(daskmeans_spark._step(iter(states), SimpleNamespace(value=(C, None))))
    one_batch = pa.Table.from_batches(batches).combine_chunks().to_batches()
    assert [b.num_rows for b in batches] == [1, 1] and [b.num_rows for b in one_batch] == [2]
    for stored in (batches, one_batch):
        back = list(daskmeans_spark._stored(stored))
        assert len(back) == len(states) == 2
        for (ids, tree, labels), (ids2, tree2, labels2) in zip(states, back):
            np.testing.assert_array_equal(ids2, ids)
            np.testing.assert_array_equal(labels2, labels)
            assert labels2.dtype == np.int64 and labels2.flags.writeable
            assert vars(tree2).keys() == vars(tree).keys()
            for name, value in vars(tree).items():
                np.testing.assert_array_equal(getattr(tree2, name), value, err_msg=name)
    assert all((labels != NO_CLUSTER).all() for _, _, labels in states)
    assert (states[0][1].cluster != NO_CLUSTER).any()
    assert list(daskmeans_spark._built([batch(0, 0)], cols, 30)) == []
    assert list(daskmeans_spark._built([], cols, 30)) == []


_RETRY_FIT = textwrap.dedent("""
    import os
    import sys

    import numpy as np
    from pyspark import TaskContext
    from pyspark.sql import SparkSession

    from repro import datasets
    from repro.core import init as cinit
    from repro.spark import data as sdata, daskmeans_spark

    markers, out = sys.argv[1:]
    spark = SparkSession.builder.getOrCreate()
    X = datasets.make("tdrive", 2000, seed=6)
    C0 = cinit.random_init(X, 8, seed=7)
    df = sdata.to_spark(spark, X, n_partitions=2)


    def fit():
        res = daskmeans_spark.fit(spark, df, 8, d=2, max_iter=4, init_centroids=C0)
        labels = res.labels_df.toPandas().sort_values("id")["cluster"].to_numpy()
        return [res.centroids, labels, res.n_dist, res.pruned_vectors, res.n_iter]


    clean = fit()
    step = daskmeans_spark._step


    def failing_step(states, bc):
        # The first attempt of partition 0 fails in the first pass (the
        # build) and in the third; the retry runs the pass.
        task = TaskContext.get()
        if task.partitionId() == 0 and task.attemptNumber() == 0:
            n = sum(name.startswith("pass-") for name in os.listdir(markers))
            open(os.path.join(markers, f"pass-{n}"), "w").close()
            if n in (0, 2):
                open(os.path.join(markers, f"failed-{n}"), "w").close()
                raise RuntimeError(f"injected failure in pass {n}")
        return step(states, bc)


    daskmeans_spark._step = failing_step
    failed = fit()
    np.savez(out, *clean, *failed)
""")


def test_failed_tasks_replay_the_same_fit(tmp_path):
    """A fit whose tasks fail once, in the build pass and in a later pass,
    and are retried equals the fit without failures. Retries need a
    ``local[N,F]`` master, and a JVM holds one SparkContext, so the fits
    run in a subprocess with its own."""
    markers = tmp_path / "markers"
    markers.mkdir()
    out = tmp_path / "fits.npz"
    env = dict(os.environ, PYSPARK_SUBMIT_ARGS=(
        "--master local[2,2] --driver-memory 1g --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell"
    ))
    run = subprocess.run(
        [sys.executable, "-c", _RETRY_FIT, str(markers), str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-3000:]
    assert sorted(p.name for p in markers.glob("failed-*")) == ["failed-0", "failed-2"]
    fits = np.load(out)
    clean, failed = [[fits[f"arr_{i}"] for i in range(j, j + 5)] for j in (0, 5)]
    np.testing.assert_array_equal(failed[0], clean[0])  # centroids
    np.testing.assert_array_equal(failed[1], clean[1])  # labels
    assert [int(v) for v in failed[2:]] == [int(v) for v in clean[2:]]  # n_dist, pruned, n_iter
    assert int(clean[4]) == 4
