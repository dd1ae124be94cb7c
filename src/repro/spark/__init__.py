"""PySpark layer: the paper's accelerator as a per-partition operator.

Per the reproduction plan, Dask-means is an executor-level technique (an
in-memory index + batch assignment), so it is expressed here as:

* per-partition Ball-trees built once and persisted across iterations
  (``daskmeans_spark``), with centroids/bounds broadcast from the driver;
* a DataFrame-native Lloyd baseline (``lloyd_spark``) whose per-cluster
  sums come from a Catalyst ``groupBy().agg()``;
* DuckDB argmin SQL generation (``assign_sql``) so every distributed
  assignment can be checked by ``repro.oracle.assert_equivalent``.

Both fits run the shared loop ``repro.core.result.iterate`` with their own
``assign`` hook, take a required ``init_centroids`` and return one
``SparkKMeansResult``.
"""
