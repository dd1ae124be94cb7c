"""DataFrame-native Lloyd tests: Catalyst aggregation vs DuckDB, and the
MLlib comparator."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as Fn
import pytest

from repro import datasets
from repro.baselines import lloyd as lloyd_local
from repro.core import init as cinit
from repro.oracle import assert_equivalent
from repro.spark import assign_sql, daskmeans_spark, data as sdata, lloyd_spark


@pytest.fixture(scope="module")
def fixture2d(spark):
    X = np.round(datasets.make("tdrive", 2000, seed=0), 2)
    C0 = cinit.random_init(X, 8, seed=1)
    df = sdata.to_spark(spark, X, n_partitions=4)
    pts = pd.DataFrame(X, columns=["x0", "x1"])
    pts.insert(0, "id", np.arange(len(X)))
    return X, C0, df, pts


def test_matches_local_lloyd(spark, fixture2d):
    X, C0, df, _ = fixture2d
    ref = lloyd_local.fit(X, C0, 6)
    r = lloyd_spark.fit(spark, df, 8, d=2, max_iter=6, init_centroids=C0)
    np.testing.assert_allclose(r.centroids, ref.centroids, atol=1e-8)


def test_assign_df_vs_duckdb(spark, fixture2d):
    X, C0, df, pts = fixture2d
    assigned = lloyd_spark.assign_df(df, C0, 2).select("id", "cluster")
    assert_equivalent(
        assigned,
        assign_sql.assignment_sql(2),
        points=pts,
        centroids=assign_sql.centroids_pdf(C0),
    )


def test_catalyst_refinement_vs_duckdb(spark, fixture2d):
    """The groupBy().agg() refinement (Catalyst path) equals DuckDB's
    GROUP BY over the same assignment."""
    X, C0, df, pts = fixture2d
    assigned = lloyd_spark.assign_df(df, C0, 2)
    agg = assigned.groupBy("cluster").agg(
        Fn.count("*").alias("cnt"),
        Fn.sum("x0").alias("s_x0"),
        Fn.sum("x1").alias("s_x1"),
    )
    assert_equivalent(
        agg,
        assign_sql.refine_sql(2),
        points=pts,
        centroids=assign_sql.centroids_pdf(C0),
    )


def test_keeps_callers_cache(spark):
    """A DataFrame the caller cached is still cached after the fit."""
    X = datasets.make("tdrive", 2000, seed=0)
    C0 = cinit.random_init(X, 8, seed=1)
    df = sdata.to_spark(spark, X, n_partitions=2).persist()
    df.count()
    lloyd_spark.fit(spark, df, 8, d=2, max_iter=2, init_centroids=C0)
    level = df.storageLevel
    df.unpersist()
    assert level.useMemory or level.useDisk


def _labels(r) -> np.ndarray:
    return r.labels_df.toPandas().sort_values("id")["cluster"].to_numpy()


@pytest.mark.parametrize("max_iter", [1, 3])
def test_labels_match_local_lloyd(spark, max_iter):
    """Stopped by max_iter, the labels are those of the last assignment,
    as in local Lloyd — not an assignment to the refined centroids."""
    X = datasets.make("tdrive", 3000, seed=0)
    C0 = cinit.random_init(X, 16, seed=1)
    df = sdata.to_spark(spark, X, n_partitions=4)
    ref = lloyd_local.fit(X, C0, max_iter)
    r = lloyd_spark.fit(spark, df, 16, d=2, max_iter=max_iter, init_centroids=C0)
    np.testing.assert_array_equal(_labels(r), ref.labels)
    np.testing.assert_allclose(r.centroids, ref.centroids, atol=1e-8)
    assert (r.n_iter, r.converged) == (ref.n_iter, ref.converged)


@pytest.mark.parametrize(
    "spark_fit", [daskmeans_spark.fit, lloyd_spark.fit], ids=["daskmeans_spark", "lloyd_spark"]
)
def test_convergence_detection(spark, spark_fit):
    """A dataset with well-separated blobs converges quickly and the flag
    reports it; both Spark fits fill the shared loop's fields."""
    g = np.random.default_rng(0)
    X = np.concatenate([g.normal(c, 0.05, (200, 2)) for c in ((0, 0), (10, 10), (20, 0))])
    C0 = np.array([[0.5, 0.5], [10.5, 10.5], [20.5, 0.5]])
    df = sdata.to_spark(spark, X, n_partitions=2)
    r = spark_fit(spark, df, 3, d=2, max_iter=10, init_centroids=C0)
    assert r.converged and r.n_iter < 10
    assert len(r.iter_times) == r.n_iter
    ref = lloyd_local.fit(X, C0, 10)
    np.testing.assert_array_equal(_labels(r), ref.labels)
    assert r.labels_centroids.shape == C0.shape
    if spark_fit is lloyd_spark.fit:
        assert r.n_dist == r.n_iter * (len(X) * 3 + 3)


def test_mllib_kmeans_comparator(spark, fixture2d):
    """pyspark.ml KMeans (the MLlib comparator of the repro plan) reaches a
    comparable SSE on the same data."""
    from pyspark.ml.clustering import KMeans as MLKMeans
    from pyspark.ml.feature import VectorAssembler

    X, C0, df, _ = fixture2d
    feats = VectorAssembler(inputCols=["x0", "x1"], outputCol="features").transform(df)
    model = MLKMeans(k=8, maxIter=6, seed=1, initMode="random").fit(feats)
    sse_ml = model.summary.trainingCost
    ref = lloyd_local.fit(X, C0, 6)
    sse_ours = ref.sse(X)
    assert sse_ml < sse_ours * 3 and sse_ours < sse_ml * 3
