"""NumPy <-> Spark DataFrame plumbing for spatial vectors.

A spatial dataset is a DataFrame with a bigint ``id`` column and float
columns ``x0..x{d-1}``. Conversions go through pandas/Arrow (the session
enables Arrow), and the id encodes the original row order so labels can
be compared elementwise against the local algorithms; the Spark fits
write their [id, cluster] ``labels_df`` on the executors.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def dim_cols(d: int) -> list[str]:
    return [f"x{i}" for i in range(d)]


def to_spark(
    spark: SparkSession, X: np.ndarray, *, n_partitions: int | None = None
) -> DataFrame:
    """Wrap an (n, d) array as a DataFrame [id, x0..x{d-1}]."""
    n, d = X.shape
    pdf = pd.DataFrame(X, columns=dim_cols(d))
    pdf.insert(0, "id", np.arange(n, dtype=np.int64))
    df = spark.createDataFrame(pdf)
    if n_partitions:
        df = df.repartition(n_partitions)
    return df


def partition_arrays(df: DataFrame, d: int):
    """RDD of (ids, X) NumPy pairs, one element per partition.

    Empty partitions yield nothing. These are the partitions, rows in the
    same order, that Spark Dask-means builds one tree each over (it reads
    them as Arrow batches in its first pass), so this is how to inspect
    its layout and index memory.
    """
    cols = ["id", *dim_cols(d)]

    def _collect(rows):
        pdf = pd.DataFrame(list(rows), columns=cols)
        if len(pdf) == 0:
            return
        ids = pdf["id"].to_numpy(dtype=np.int64)
        X = pdf[cols[1:]].to_numpy(dtype=np.float64)
        yield ids, X

    return df.select(*cols).rdd.mapPartitions(_collect)

