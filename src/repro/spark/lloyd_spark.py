"""DataFrame-native Lloyd baseline (Catalyst aggregation path).

Assignment is a ``mapInPandas`` operator (broadcast centroids,
``lloyd.assign_labels`` per Arrow batch); per-cluster counts and sums come
from a Catalyst ``groupBy("cluster")`` aggregation. One round of both is
the ``assign`` hook of ``result.iterate``, the loop every accelerated
algorithm shares; labels never leave Spark, so a pass "changed" when its
per-cluster (count, sum) signature did. This is both the distributed
comparison baseline and the template the oracle tests check against DuckDB.
"""
from __future__ import annotations

import numpy as np
import pyspark.sql.functions as Fn
import pyspark.sql.types as T
from pyspark import StorageLevel
from pyspark.sql import DataFrame, SparkSession

from repro.baselines import lloyd
from repro.core.result import AssignStats, check_centroids, check_points, iterate
from repro.spark import data as sdata
from repro.spark.daskmeans_spark import SparkKMeansResult


def assign_df(df: DataFrame, C: np.ndarray, d: int) -> DataFrame:
    """[id, x0.., cluster] — nearest-centroid assignment via mapInPandas.
    Each batch must meet the input contract (``check_points``)."""
    cols = sdata.dim_cols(d)
    # Fresh StructType — StructType.add would mutate df's own schema object.
    schema = T.StructType(
        list(df.schema.fields) + [T.StructField("cluster", T.LongType())]
    )

    def _assign(batches):
        for pdf in batches:
            out = pdf.copy()
            X = check_points(pdf[cols].to_numpy(dtype=np.float64))
            out["cluster"] = lloyd.assign_labels(X, C)
            yield out

    return df.mapInPandas(_assign, schema=schema)


def fit(
    spark: SparkSession,
    df: DataFrame,
    k: int,
    *,
    d: int,
    init_centroids: np.ndarray,
    max_iter: int = 20,
) -> SparkKMeansResult:
    """Distributed Lloyd over a [id, x0..x{d-1}] DataFrame."""
    C = check_centroids(init_centroids, d, k)
    cols = sdata.dim_cols(d)
    # Release only a cache the fit made itself, never the caller's.
    own_cache = df.storageLevel == StorageLevel.NONE
    if own_cache:
        df = df.persist()
    prev_sig = None

    def assign(C, drift):
        nonlocal prev_sig
        agg = (
            assign_df(df, C, d).groupBy("cluster")
            .agg(Fn.count("*").alias("cnt"), *[Fn.sum(c).alias(f"s_{c}") for c in cols])
            .toPandas()
        )
        idx = agg["cluster"].to_numpy()
        cnt, sv = np.zeros(k), np.zeros((k, d))
        cnt[idx] = agg["cnt"].to_numpy()
        sv[idx] = agg[[f"s_{c}" for c in cols]].to_numpy()
        sig = (cnt.tolist(), np.round(sv, 9).tolist())
        changed, prev_sig = sig != prev_sig, sig
        return AssignStats(sv, cnt, changed, int(cnt.sum()) * k, 0)

    try:
        loop = iterate(C, assign, max_iter)
        labels_df = assign_df(df, loop.labels_centroids, d).select("id", "cluster")
    finally:
        if own_cache:
            df.unpersist()
    return SparkKMeansResult(**vars(loop), labels_df=labels_df)
