"""Distributed Dask-means tests: equivalence with the local algorithm and
DuckDB-oracle validation of the distributed assignment."""
import numpy as np
import pandas as pd
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


def test_no_iteration_leaves_every_point_unlabelled(spark):
    """As the local fit: with max_iter=0 no pass runs, so every label is
    NO_CLUSTER and the centroids stay the initial ones."""
    X = datasets.make("tdrive", 200, seed=12)
    C0 = cinit.random_init(X, 4, seed=13)
    local = dk_local.fit(X, C0, 0)
    dist = daskmeans_spark.fit(
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
