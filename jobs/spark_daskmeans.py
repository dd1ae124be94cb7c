"""Distributed Dask-means demo job: per-partition Ball-trees + broadcast
centroids vs the DataFrame-native Lloyd baseline and MLlib KMeans.

Usage: spark-submit jobs/spark_daskmeans.py [n] [k]
"""
import sys
import time

import numpy as np
from pyspark.sql import SparkSession

from repro import datasets
from repro.core import init as cinit
from repro.spark import daskmeans_spark, data as sdata, lloyd_spark


def main(n: int = 100_000, k: int = 64) -> None:
    spark = (
        SparkSession.builder.appName("spark-daskmeans")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    X = datasets.make("tdrive", n, seed=0)
    C0 = cinit.random_init(X, k, seed=1)
    df = sdata.to_spark(spark, X, n_partitions=spark.sparkContext.defaultParallelism)

    t0 = time.perf_counter()
    rd = daskmeans_spark.fit(spark, df, k, d=2, f=30, max_iter=10, init_centroids=C0)
    t_dask = time.perf_counter() - t0

    t0 = time.perf_counter()
    rl = lloyd_spark.fit(spark, df, k, d=2, max_iter=10, init_centroids=C0)
    t_lloyd = time.perf_counter() - t0

    t0 = time.perf_counter()
    from pyspark.ml.clustering import KMeans as MLKMeans
    from pyspark.ml.feature import VectorAssembler

    feats = VectorAssembler(inputCols=["x0", "x1"], outputCol="features").transform(df)
    MLKMeans(k=k, maxIter=10, seed=1, initMode="random").fit(feats)
    t_ml = time.perf_counter() - t0

    agree = np.allclose(rd.centroids, rl.centroids, atol=1e-6)
    print(f"n={n} k={k}")
    print(f"spark Dask-means : {t_dask:7.2f}s  dists={rd.n_dist:,} "
          f"pruned={rd.pruned_vectors:,} iters={rd.n_iter}")
    print(f"spark Lloyd (DF) : {t_lloyd:7.2f}s  dists={rl.n_dist:,} "
          f"iters={rl.n_iter}")
    print(f"MLlib KMeans     : {t_ml:7.2f}s")
    print(f"Dask-means == Lloyd centroids: {agree}")
    spark.stop()


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 64
    sys.exit(main(n, k))
