"""DataFrame-native Lloyd baseline (Catalyst aggregation path).

Assignment is a ``mapInPandas`` operator (broadcast centroids, vectorized
argmin per Arrow batch); refinement is a Catalyst ``groupBy("cluster")``
aggregation of per-dimension sums and counts — the relational part of the
iteration runs through the optimizer, the numeric part in the executor's
Python worker. This is both the distributed comparison baseline and the
template the oracle tests check against DuckDB.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyspark.sql.functions as Fn
import pyspark.sql.types as T
from pyspark.sql import DataFrame, SparkSession

from repro.core.result import check_centroids
from repro.spark import data as sdata


@dataclass
class SparkLloydResult:
    centroids: np.ndarray
    n_iter: int
    converged: bool
    labels_df: DataFrame


def assign_df(df: DataFrame, C: np.ndarray, d: int) -> DataFrame:
    """[id, x0.., cluster] — nearest-centroid assignment via mapInPandas."""
    cols = sdata.dim_cols(d)
    c_sq = (C * C).sum(axis=1)
    # Fresh StructType — StructType.add would mutate df's own schema object.
    schema = T.StructType(
        list(df.schema.fields) + [T.StructField("cluster", T.LongType())]
    )

    def _assign(batches):
        for pdf in batches:
            X = pdf[cols].to_numpy(dtype=np.float64)
            d2 = (X * X).sum(1)[:, None] + c_sq[None, :] - 2.0 * X @ C.T
            out = pdf.copy()
            out["cluster"] = np.argmin(d2, axis=1).astype(np.int64)
            yield out

    return df.mapInPandas(_assign, schema=schema)


def fit(
    spark: SparkSession,
    df: DataFrame,
    k: int,
    *,
    d: int,
    max_iter: int = 20,
    seed: int = 0,
    init_centroids: np.ndarray | None = None,
) -> SparkLloydResult:
    """Distributed Lloyd over a [id, x0..x{d-1}] DataFrame."""
    cols = sdata.dim_cols(d)
    if init_centroids is not None:
        C = check_centroids(init_centroids, d, k)
    df = df.persist()
    if init_centroids is None:
        sample = df.rdd.takeSample(False, k, seed)
        sample.sort(key=lambda r: r["id"])
        C = np.array([[r[c] for c in cols] for r in sample])

    prev_sig = None
    converged = False
    it = 0
    assigned = None
    for it in range(1, max_iter + 1):
        assigned = assign_df(df, C, d)
        # Catalyst aggregation: per-cluster count + per-dimension sums.
        agg = (
            assigned.groupBy("cluster")
            .agg(Fn.count("*").alias("cnt"), *[Fn.sum(c).alias(f"s_{c}") for c in cols])
            .toPandas()
            .sort_values("cluster")
        )
        new_C = C.copy()
        idx = agg["cluster"].to_numpy()
        cnts = agg["cnt"].to_numpy().astype(float)
        sums = agg[[f"s_{c}" for c in cols]].to_numpy()
        new_C[idx] = sums / cnts[:, None]
        # Convergence = assignment unchanged; detect via a cheap signature
        # (per-cluster counts + first-moment sums are identical iff the
        # label multiset per cluster is stable for our purposes).
        sig = (tuple(idx.tolist()), tuple(np.round(cnts, 0).tolist()), tuple(np.round(sums.ravel(), 9).tolist()))
        if sig == prev_sig:
            converged = True
            C = new_C
            break
        prev_sig = sig
        C = new_C

    labels_df = assign_df(df, C, d).select("id", "cluster")
    df.unpersist()
    return SparkLloydResult(centroids=C, n_iter=it, converged=converged, labels_df=labels_df)
