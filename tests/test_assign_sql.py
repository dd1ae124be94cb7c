"""The DuckDB oracle's SQL binds and agrees with NumPy at the paper's high
dimensions (DuckDB only, no Spark)."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro import datasets
from repro.baselines import lloyd
from repro.core.result import cluster_sums
from repro.spark import assign_sql
from repro.spark.data import dim_cols


def _query(sql: str, **tables) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


@pytest.mark.parametrize("name", ["apoll_td", "argo_etd"])  # d = 128, 256
def test_oracle_sql_at_high_dimension(name):
    X = datasets.make(name, 300, seed=0)
    C = X[:8]
    d = X.shape[1]
    points = pd.DataFrame(X, columns=dim_cols(d))
    points.insert(0, "id", np.arange(len(X)))
    centroids = assign_sql.centroids_pdf(C)
    labels = lloyd.assign_labels(X, C)

    got = _query(assign_sql.assignment_sql(d), points=points, centroids=centroids)
    np.testing.assert_array_equal(got.sort_values("id")["cluster"].to_numpy(), labels)

    claimed = pd.DataFrame({"id": points["id"], "cluster": labels})
    ok = _query(assign_sql.validation_sql(d), points=points, centroids=centroids, labels=claimed)
    assert ok["ok"].all()
    # The farthest centroid is never within tol of the nearest.
    claimed.loc[100, "cluster"] = int(np.argmax(((X[100] - C) ** 2).sum(1)))
    ok = _query(assign_sql.validation_sql(d), points=points, centroids=centroids, labels=claimed)
    assert ok.loc[ok["ok"] == 0, "id"].tolist() == [100]

    agg = _query(assign_sql.refine_sql(d), points=points, centroids=centroids)
    agg = agg.sort_values("cluster")
    sv, cnt = cluster_sums(X, labels, len(C))
    np.testing.assert_array_equal(agg["cluster"].to_numpy(), np.flatnonzero(cnt))
    np.testing.assert_array_equal(agg["cnt"].to_numpy(), cnt[cnt > 0])
    np.testing.assert_allclose(agg[[f"s_x{i}" for i in range(d)]].to_numpy(), sv[cnt > 0])
