"""Dask-means-specific behaviour: counters, pruning, memory knob, reuse."""
import numpy as np
import pytest

from repro import datasets
from repro.core import balltree as bt
from repro.core import daskmeans, init as cinit
from repro.baselines import lloyd


@pytest.fixture(scope="module")
def setup():
    X = datasets.make("tdrive", 4000, seed=0)
    C0 = cinit.random_init(X, 32, seed=1)
    ref = lloyd.fit(X, C0, 8)
    return X, C0, ref


def test_distance_counter_below_lloyd(setup):
    X, C0, ref = setup
    r = daskmeans.fit(X, C0, 8)
    assert r.n_dist < ref.n_dist / 2  # pruning must actually prune


def test_pruning_improves_with_k(setup):
    """Pruning power (fraction of Lloyd's distances avoided) grows with k —
    the paper's headline observation."""
    X, _, _ = setup
    fracs = []
    for k in (8, 32, 128):
        C0 = cinit.random_init(X, k, seed=1)
        r = daskmeans.fit(X, C0, 8)
        fracs.append(r.n_dist / (len(X) * k * r.n_iter))
    assert fracs[2] < fracs[0]


def test_pruned_vectors_counted(setup):
    X, C0, _ = setup
    r = daskmeans.fit(X, C0, 8)
    assert r.pruned_vectors > 0
    # cannot exceed n per iteration
    assert r.pruned_vectors <= len(X) * r.n_iter


@pytest.mark.parametrize("f", [8, 30, 100])
def test_f_values_all_exact(setup, f):
    X, C0, ref = setup
    r = daskmeans.fit(X, C0, 8, f=f)
    assert (r.labels == ref.labels).all()
    np.testing.assert_allclose(r.centroids, ref.centroids, atol=1e-8)


def test_smaller_f_prunes_more(setup):
    """Finer leaves -> tighter balls -> fewer distance computations
    (Table VII's 'pruned vectors rise as memory increases')."""
    X, C0, _ = setup
    r_small = daskmeans.fit(X, C0, 8, f=10)
    r_large = daskmeans.fit(X, C0, 8, f=200)
    assert r_small.pruned_vectors > r_large.pruned_vectors


def test_tree_reuse_matches_fresh(setup):
    X, C0, ref = setup
    tree = bt.build(X, 30)
    r1 = daskmeans.fit(X, C0, 8, f=30, tree=tree)
    r2 = daskmeans.fit(X, C0, 8, f=30)
    assert (r1.labels == r2.labels).all()
    assert (r1.labels == ref.labels).all()
    assert r1.init_time < r2.init_time  # build skipped


def test_tree_reuse_resets_state(setup):
    """Reusing a tree from a previous run must not leak a(N) state."""
    X, C0, ref = setup
    tree = bt.build(X, 30)
    daskmeans.fit(X, C0, 8, f=30, tree=tree)  # dirty the tree
    C0b = cinit.random_init(X, 16, seed=9)
    refb = lloyd.fit(X, C0b, 8)
    rb = daskmeans.fit(X, C0b, 8, f=30, tree=tree)
    assert (rb.labels == refb.labels).all()


def test_iter_times_recorded(setup):
    X, C0, _ = setup
    r = daskmeans.fit(X, C0, 8)
    assert len(r.iter_times) == r.n_iter
    assert all(t > 0 for t in r.iter_times)
    assert r.init_time > 0


def test_memory_floats_reported(setup):
    X, C0, _ = setup
    r30 = daskmeans.fit(X, C0, 8, f=30)
    r100 = daskmeans.fit(X, C0, 8, f=100)
    assert r30.memory_floats > r100.memory_floats  # finer index costs more


def test_ablations_cost_ordering(setup):
    """NokNN scans all centroids linearly -> at least as many distance
    computations as the full algorithm; NoInB loses Eq. 4/5 prunes."""
    X, _, _ = setup
    C0 = cinit.random_init(X, 128, seed=1)
    full = daskmeans.fit(X, C0, 8)
    noknn = daskmeans.fit_nok_nn(X, C0, 8)
    noinb = daskmeans.fit_no_inb(X, C0, 8)
    assert noknn.n_dist > full.n_dist
    assert noinb.pruned_vectors <= full.pruned_vectors


def test_compute_cb_exact():
    """Inter bounds equal the true nearest-other-centroid distances."""
    g = np.random.default_rng(0)
    C = g.normal(size=(40, 3))
    ctree = bt.build(C, 8)
    cb, _ = daskmeans.compute_cb(C, ctree, None, None)
    dd = np.sqrt(((C[:, None, :] - C[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(dd, np.inf)
    np.testing.assert_allclose(cb, dd.min(1), rtol=1e-9)


def test_compute_cb_with_drift_bound_exact():
    """Eq. 9's upper bound must not change the computed inter bounds."""
    g = np.random.default_rng(1)
    C_prev = g.normal(size=(30, 2))
    drift_vec = g.normal(0, 0.05, (30, 2))
    C = C_prev + drift_vec
    dd_prev = np.sqrt(((C_prev[:, None] - C_prev[None]) ** 2).sum(-1))
    np.fill_diagonal(dd_prev, np.inf)
    cb_prev = dd_prev.min(1)
    drift = np.sqrt((drift_vec**2).sum(1))
    ctree = bt.build(C, 8)
    cb, _ = daskmeans.compute_cb(C, ctree, cb_prev, drift)
    dd = np.sqrt(((C[:, None] - C[None]) ** 2).sum(-1))
    np.fill_diagonal(dd, np.inf)
    np.testing.assert_allclose(cb, dd.min(1), rtol=1e-9)

