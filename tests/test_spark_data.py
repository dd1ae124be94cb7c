"""Spark <-> NumPy plumbing tests."""
import numpy as np

from repro import datasets
from repro.spark import data as sdata


def test_to_spark_roundtrip(spark):
    X = datasets.make("tdrive", 500, seed=0)
    df = sdata.to_spark(spark, X)
    pdf = df.toPandas().sort_values("id")
    np.testing.assert_allclose(pdf[["x0", "x1"]].to_numpy(), X)
    assert pdf["id"].tolist() == list(range(500))


def test_partition_arrays_cover_all_rows(spark):
    X = datasets.make("argo_pc", 700, seed=1)
    df = sdata.to_spark(spark, X, n_partitions=5)
    parts = sdata.partition_arrays(df, 3).collect()
    assert 1 <= len(parts) <= 5
    ids = np.concatenate([p[0] for p in parts])
    assert sorted(ids.tolist()) == list(range(700))
    allX = np.concatenate([p[1] for p in parts])
    order = np.argsort(ids)
    np.testing.assert_allclose(allX[order], X)


def test_partition_arrays_dtype(spark):
    X = datasets.make("tdrive", 100, seed=0)
    df = sdata.to_spark(spark, X, n_partitions=2)
    for ids, arr in sdata.partition_arrays(df, 2).collect():
        assert ids.dtype == np.int64
        assert arr.dtype == np.float64

