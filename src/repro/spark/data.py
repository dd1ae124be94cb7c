"""NumPy <-> Spark DataFrame plumbing for spatial vectors.

A spatial dataset is a DataFrame with a bigint ``id`` column and float
columns ``x0..x{d-1}``. Conversions go through pandas/Arrow (the session
enables Arrow), and the id encodes the original row order so labels can
be compared elementwise against the local algorithms; the Spark fits
write their [id, cluster] ``labels_df`` on the executors.
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
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


def arrays(batches, cols: list[str]):
    """The (ids, X) NumPy pair of a partition's [id, *cols] Arrow batches,
    one column of X per ``cols``; None if they hold no row."""
    batches = list(batches)
    if not sum(b.num_rows for b in batches):
        return None
    rows = pa.Table.from_batches(batches)
    return rows.column("id").to_numpy(), np.column_stack([rows.column(c).to_numpy() for c in cols])


def partition_arrays(df: DataFrame, d: int):
    """RDD of (ids, X) NumPy pairs, one element per partition.

    Empty partitions yield nothing. These are the partitions, rows in the
    same order, that Spark Dask-means builds one tree each over, read by
    the same :func:`arrays`, so this is how to inspect its layout and
    index memory.
    """
    cols = dim_cols(d)

    def _pickled(batches):
        if (pair := arrays(batches, cols)) is not None:
            yield pa.RecordBatch.from_arrays([pa.array([pickle.dumps(pair)])], names=["pair"])

    pairs = df.select("id", *cols).mapInArrow(_pickled, "pair binary")
    return pairs.rdd.map(lambda r: pickle.loads(r.pair))
