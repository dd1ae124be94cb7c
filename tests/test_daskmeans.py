"""Dask-means-specific behaviour: counters, pruning, memory knob, reuse."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import datasets
from repro.algorithms import ALGORITHMS
from repro.core import balltree as bt
from repro.core import daskmeans, init as cinit
from repro.baselines import lloyd
from repro.core.result import refine_centroids


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


@pytest.mark.parametrize("algo", [a for a in ALGORITHMS if a != "Lloyd"])
def test_iter_times_recorded(setup, algo):
    """Every accelerated algorithm times its iterations in the shared loop."""
    X, C0, _ = setup
    r = ALGORITHMS[algo](X, C0, 8)
    assert len(r.iter_times) == r.n_iter
    assert all(t > 0 for t in r.iter_times)
    if algo == "Dask-means":
        assert r.init_time > 0  # the point-index build


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



def _lowest_id_argmin(X, C):
    """Brute-force nearest centroid; exact ties go to the lowest id."""
    return np.argmin(((X[:, None, :] - C[None, :, :]) ** 2).sum(-1), axis=1)


def _nearest_other(C):
    dd = np.sqrt(((C[:, None, :] - C[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(dd, np.inf)
    return dd.min(1)


# Coordinates on a 1/8 grid keep every distance exact in both the direct
# and the ||x||^2 + ||c||^2 - 2 x.c form, so ties are exact ties.
_grid = st.integers(-24, 24).map(lambda v: v / 8.0)


@st.composite
def _assign_case(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 70))
    k = draw(st.integers(1, 12))
    X = np.array(draw(st.lists(_grid, min_size=n * d, max_size=n * d))).reshape(n, d)
    C = np.array(draw(st.lists(_grid, min_size=k * d, max_size=k * d))).reshape(k, d)
    if draw(st.booleans()):  # duplicate points
        X = np.repeat(X[: max(1, n // 3)], 3, axis=0)[:n]
    if k > 1 and draw(st.booleans()):  # coincident centroids
        C[k // 2 :] = C[: k - k // 2]
    step = st.sampled_from([-0.25, 0.0, 0.5])
    moves = np.array(draw(st.lists(step, min_size=k * d, max_size=k * d)))
    return X, C, C + moves.reshape(k, d), draw(st.integers(1, 8)), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_assign_case(), st.sampled_from(["Dask-means", "NokNN", "NoInB"]))
def test_assign_pass_is_lowest_id_argmin(case, variant):
    """Two passes (the second with moved centroids and stale a(N)/a(i)
    state) label every point exactly as a brute-force argmin, and the
    sums and counts match those labels. Covers k >= n, n < f, d = 1,
    duplicates and float32 input."""
    X, C1, C2, f, as_float32 = case
    use_knn, use_inb = variant != "NokNN", variant != "NoInB"
    tree = bt.build(X.astype(np.float32) if as_float32 else X, f)
    labels = np.full(len(X), -1, dtype=np.int64)
    cb = None
    for C in (C1, C2):
        ctree = bt.build(C, f) if use_knn else None
        if use_inb:
            cb, _ = daskmeans.compute_cb(C, ctree, None, None)
        stats = daskmeans.assign_pass(tree, C, cb, labels, use_knn=use_knn)
        want = _lowest_id_argmin(X, C)
        assert (labels == want).all()
        assert (stats.cnt == np.bincount(want, minlength=len(C))).all()
        sums = np.zeros_like(C)
        np.add.at(sums, want, X)
        np.testing.assert_allclose(stats.sv, sums, atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(_assign_case())
def test_compute_cb_is_nearest_other(case):
    """Inter bounds equal the brute-force nearest-other distance, coincident
    centroids included, on the centroid index and by full scan (NokNN);
    the second call takes the Eq. 9 bound from the first."""
    _, C1, C2, f, _ = case
    drift = np.sqrt(((C2 - C1) ** 2).sum(1))
    for ctree1, ctree2 in ((bt.build(C1, f), bt.build(C2, f)), (None, None)):
        cb1, _ = daskmeans.compute_cb(C1, ctree1, None, None)
        np.testing.assert_array_equal(cb1, _nearest_other(C1))
        cb2, _ = daskmeans.compute_cb(C2, ctree2, cb1, drift)
        np.testing.assert_array_equal(cb2, _nearest_other(C2))


@pytest.mark.parametrize("k", [1, 2, 7])
def test_compute_cb_full_scan_costs_k_squared(k):
    """NokNN's inter bounds (no centroid index) are one scan of all k
    centroids per centroid: brute-force values at exactly k * k distances."""
    C = np.random.default_rng(k).normal(size=(k, 3))
    cb, n_dist = daskmeans.compute_cb(C, None, None, None)
    np.testing.assert_array_equal(cb, _nearest_other(C))
    assert n_dist == k * k


def test_compute_cb_second_iteration_of_a_fit():
    """Eq. 9 with real drift: the inter bounds of iteration 2 of a fit."""
    X = datasets.make("argo_pc", 3000, seed=4)
    C1 = cinit.random_init(X, 64, seed=5)
    C1[40:48] = C1[:8]  # coincident centroids: cb = 0
    cb1, _ = daskmeans.compute_cb(C1, bt.build(C1, 8), None, None)
    np.testing.assert_allclose(cb1, _nearest_other(C1), rtol=1e-12)
    assert (cb1[:8] == 0).all() and (cb1[40:48] == 0).all()
    C2 = refine_centroids(X, lloyd.assign_labels(X, C1), C1)
    drift = np.sqrt(((C2 - C1) ** 2).sum(1))
    assert drift.max() > 0
    cb2, _ = daskmeans.compute_cb(C2, bt.build(C2, 8), cb1, drift)
    np.testing.assert_allclose(cb2, _nearest_other(C2), rtol=1e-12)


def test_fit_memory_stays_blocked():
    """Peak traced memory of a high-d, large-k fit stays bounded: distance
    blocks never grow with n * k * d."""
    X = datasets.make("apoll_td", 4000, seed=0)
    C0 = cinit.random_init(X, 256, seed=1)
    tracemalloc.start()
    try:
        daskmeans.fit(X, C0, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


@pytest.mark.parametrize("fit", [daskmeans.fit, daskmeans.fit_nok_nn, daskmeans.fit_no_inb])
def test_block_size_changes_neither_result_nor_counters(monkeypatch, fit):
    """Tiny blocks split every frontier, distance gather and leaf step into
    many pieces; labels, centroids and counters stay the same."""
    X = datasets.make("argo_pc", 1000, seed=2)
    C0 = cinit.random_init(X, 24, seed=3)
    whole = fit(X, C0, 6)
    monkeypatch.setattr(daskmeans, "_BLOCK_FLOATS", 200)
    pieces = fit(X, C0, 6)
    assert (pieces.labels == whole.labels).all()
    np.testing.assert_allclose(pieces.centroids, whole.centroids, atol=1e-10)
    assert (pieces.n_dist, pieces.pruned_vectors) == (whole.n_dist, whole.pruned_vectors)
