"""Harness smoke tests: every table module runs end-to-end at tiny scale
and produces well-formed rows + printable tables."""
import numpy as np
import pytest

from repro.experiments import fig11, table4, table6, table7, table8


def test_table4_cell_fields():
    row = table4.run_cell("tdrive", 8, "Lloyd", base_n=500, max_iter=3)
    assert row["n"] == 500 and row["n_iter"] <= 3
    assert row["time_s"] > 0 and row["n_dist"] == 500 * 8 * row["n_iter"]


def test_table4_grid_and_format():
    rows = table4.run(["tdrive", "rd3d"], ks=(4, 8), base_n=400, max_iter=2,
                      algos=["Lloyd", "Dask-means"])
    assert len(rows) == 2 * 2 * 2
    # rd3d runs at its Table III 0.43x proportion
    assert {r["n"] for r in rows} == {400, 172}
    out = table4.format_table(rows)
    assert "Lloyd" in out and "rd3d" in out
    out2 = table4.format_table(rows, "n_dist")
    assert "," in out2  # thousands-formatted counts


def test_table4_daskmeans_wins_distance_counts():
    rows = table4.run(["tdrive"], ks=(64,), base_n=4000, max_iter=5,
                      algos=["Lloyd", "Dask-means"])
    by = {r["algo"]: r for r in rows}
    assert by["Dask-means"]["n_dist"] < by["Lloyd"]["n_dist"] / 3


def test_table6_rows_and_trends():
    rows = table6.run(base_n=5000)
    sweeps = {r["sweep"] for r in rows}
    assert sweeps == {"k", "n", "f"}
    for r in rows:
        assert 0.3 < r["ratio"] < 3.0  # sane est/actual band
    # k-sweep ratio is nearly flat (Table VI's first observation)
    kr = [r["ratio"] for r in rows if r["sweep"] == "k"]
    assert max(kr) - min(kr) < 0.1
    assert "Increasing k" in table6.format_table(rows)


def test_table7_budgets_monotone():
    n, k = 2000, 16
    budgets = table7.budgets_for(n, k)
    assert budgets == sorted(budgets)  # 15MB-eq < 20MB-eq < 30MB-eq


def test_table7_run_and_format():
    rows = table7.run(["tdrive"], ks=(8, 16), base_n=1500, max_iter=4)
    assert len(rows) == 2 * 3
    fs = [r["f"] for r in rows if r["k"] == 8]
    assert fs == sorted(fs, reverse=True)  # more memory -> smaller f
    # more memory (smaller f) -> at least as many pruned vectors, typically
    pruned = [r["pruned_vectors"] for r in rows if r["k"] == 8]
    assert pruned[-1] >= pruned[0] * 0.5
    # the index Eq. 12 sizes from each budget stays inside that budget
    for r in rows:
        assert r["actual_mb"] <= r["budget_mb"]
    assert "15MB-eq" in table7.format_table(rows)


@pytest.fixture(scope="module")
def tiny_sample_kwargs(tmp_path_factory, request):
    from repro.estimator import samples as S

    tmp = tmp_path_factory.mktemp("cache")
    orig = S._CACHE_DIR
    S._CACHE_DIR = tmp
    request.addfinalizer(lambda: setattr(S, "_CACHE_DIR", orig))
    return {"n_range": (400, 900), "k_range": (4, 12),
            "f_choices": (20, 30)}


def test_table8_runs_tiny(tiny_sample_kwargs):
    rows = table8.run(n_tasks=24, seed=1, max_iter=4,
                      sample_kwargs=tiny_sample_kwargs)
    assert len(rows) == 6 * 2
    for r in rows:
        for m in ("MSE", "MAE", "WMAPE", "sMAPE"):
            assert np.isfinite(r[m]) and r[m] >= 0
    assert "beta" in table8.format_table(rows)


def test_fig11_runs_tiny(tiny_sample_kwargs):
    rows = fig11.run(n_tasks=24, seed=1, max_iter=4,
                     sample_kwargs=tiny_sample_kwargs)
    models = {r["model"] for r in rows}
    assert models == {"XGBoost", "DisNet", "AutoML",
                      "S-XGBoost", "S-DisNet", "S-AutoML", "Dask-means"}
    for r in rows:
        assert r["train_s"] > 0 and np.isfinite(r["MSE"])
    assert "Dask-means" in fig11.format_table(rows)
