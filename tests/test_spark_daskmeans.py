"""Distributed Dask-means tests: equivalence with the local algorithm and
DuckDB-oracle validation of the distributed assignment."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as Fn
import pytest

from repro import datasets
from repro.baselines import lloyd as lloyd_local
from repro.core import daskmeans as dk_local
from repro.core import init as cinit
from repro.oracle import assert_equivalent
from repro.spark import assign_sql, data as sdata, daskmeans_spark


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
    X, C0, df = fixture2d
    dist = daskmeans_spark.fit(spark, df, 16, d=2, f=30, max_iter=6, init_centroids=C0)
    assert dist.n_dist > 0
    assert dist.pruned_vectors > 0


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
