"""Memory model tests (Eq. 10-12) and the memory-tunable index."""
import dataclasses

import numpy as np
import pytest

from repro import datasets
from repro.core import balltree as bt
from repro.estimator import memory as mem


def test_eq10_exact_vs_approx_close():
    for n in (1000, 50_000):
        for f in (10, 30, 100):
            exact = mem.estimate_index_floats(n, f, exact=True)
            approx = mem.estimate_index_floats(n, f, exact=False)
            assert abs(exact - approx) / exact < 0.05


def test_eq10_components():
    # n=100, f=20 -> 10 leaves * 26 + 9 internal * 8 = 332
    assert mem.estimate_index_floats(100, 20) == 10 * 26 + 9 * 8


def test_eq11_total():
    n, k, f = 1000, 50, 20
    expect = (
        mem.estimate_index_floats(n, f)
        + mem.estimate_index_floats(k, f)
        + n
    )
    assert mem.estimate_total_floats(n, k, f) == expect


@pytest.mark.parametrize("f", [5, 30, 200])
def test_estimate_decreases_with_f(f):
    assert mem.estimate_index_floats(10_000, f) > mem.estimate_index_floats(
        10_000, f * 2
    )


def test_tune_f_roundtrip():
    """Eq. 12 inverts Eq. 11: budgeting with the tuned f fits the budget."""
    n, k = 50_000, 500
    for budget in (mem.estimate_total_floats(n, k, 200) * 1.02,
                   mem.estimate_total_floats(n, k, 30) * 1.02,
                   mem.estimate_total_floats(n, k, 8) * 1.02):
        f = mem.tune_f(n, k, budget)
        assert mem.estimate_total_floats(n, k, f, exact=False) <= budget * 1.05


def test_tune_f_monotone_in_budget():
    n, k = 20_000, 100
    budgets = [mem.mb_to_floats(x) for x in (0.6, 1.0, 2.0, 5.0)]
    fs = [mem.tune_f(n, k, b) for b in budgets]
    assert fs == sorted(fs, reverse=True)  # more memory -> finer leaves


def test_tune_f_impossible_budget():
    assert mem.tune_f(100_000, 100, 10.0) == 4096  # coarsest fallback


@pytest.mark.parametrize("name", ["tdrive", "argo_pc"])
@pytest.mark.parametrize("f", [16, 64])
def test_measured_matches_arrays(name, f):
    X = datasets.make(name, 3000, seed=0)
    t = bt.build(X, f)
    # Every array the tree holds except X, so an array added to the tree
    # but not to the count fails here.
    arrays = [getattr(t, fl.name) for fl in dataclasses.fields(t) if fl.name != "X"]
    assert mem.measured_floats(t) == sum(a.size for a in arrays if isinstance(a, np.ndarray))


def test_accuracy_ratio_stable_in_k():
    """Table VI row 1: k barely moves the ratio (the centroid index is
    negligible next to the point index)."""
    n, f = 20_000, 30
    X = datasets.make("argo_pc", n, seed=0)
    t = bt.build(X, f)
    base = mem.measured_floats(t)
    ratios = []
    for k in (10, 100, 1000):
        g = np.random.default_rng(0)
        ct = bt.build(g.normal(size=(k, 3)), f)
        est = mem.estimate_total_floats(n, k, f)
        act = base + mem.measured_floats(ct) + n
        ratios.append(est / act)
    assert max(ratios) - min(ratios) < 0.05


def test_mb_conversions_roundtrip():
    assert mem.floats_to_mb(mem.mb_to_floats(12.5)) == pytest.approx(12.5)


def test_accuracy_helper():
    assert mem.accuracy(90, 100) == pytest.approx(0.9)
