"""Smoke + shape tests for the supplementary Fig. 9 (the memory column of
the Table IV grid) and Fig. 14 harnesses."""
import numpy as np
import pytest

from repro.experiments import fig14, table4


def test_fig9_rows_and_ordering():
    rows = table4.run(["tdrive"], ks=(64,), base_n=2000, max_iter=3)
    by = {r["algo"]: r["memory_floats"] for r in rows}
    assert by["Elkan"] > by["Drake"] > by["Yinyang"] > by["Dask-means"]
    assert by["Lloyd"] == min(by.values())
    assert "tdrive" in table4.format_table(rows, "memory_mb")


@pytest.fixture(scope="module")
def tiny_sample_kwargs(tmp_path_factory, request):
    from repro.estimator import samples as S

    tmp = tmp_path_factory.mktemp("cache")
    orig = S._CACHE_DIR
    S._CACHE_DIR = tmp
    request.addfinalizer(lambda: setattr(S, "_CACHE_DIR", orig))
    return {"n_range": (400, 900), "k_range": (4, 12), "f_choices": (20, 30)}


def test_fig14_monotone_improvement(tiny_sample_kwargs):
    rows = fig14.run(n_tasks=30, seed=2, max_iter=5,
                     sample_kwargs=tiny_sample_kwargs)
    assert {r["adjuster"] for r in rows} == {"GP", "WeightedAvg", "NoGP"}
    gp = {r["observed"]: r["MSE"] for r in rows if r["adjuster"] == "GP"}
    cs = sorted(gp)
    # observing more iterations never hurts much, and helps by the end
    assert gp[cs[-1]] < gp[0]
    for r in rows:
        assert np.isfinite(r["MSE"])
    assert "GP" in fig14.format_table(rows)
