"""Per-baseline cost/memory properties the paper's comparison rests on."""
import numpy as np
import pytest

from repro import datasets
from repro.algorithms import ALGORITHMS
from repro.baselines import drake, elkan, hamerly, lloyd, nobound, yinyang, dualtree
from repro.core import init as cinit
from repro.core.result import refine_centroids


@pytest.fixture(scope="module")
def setup():
    X = datasets.make("porto", 3000, seed=0)
    C0 = cinit.random_init(X, 64, seed=1)
    return X, C0, lloyd.fit(X, C0, 8)


def test_lloyd_distance_count(setup):
    X, C0, ref = setup
    assert ref.n_dist == len(X) * len(C0) * ref.n_iter


def test_elkan_memory_is_nk(setup):
    X, C0, _ = setup
    r = elkan.fit(X, C0, 8)
    assert r.memory_floats >= len(X) * len(C0)  # the O(nk) bound matrix


def test_drake_memory_is_quarter_nk(setup):
    X, C0, _ = setup
    r = drake.fit(X, C0, 8)
    b = drake.n_bounds(len(C0))
    assert b == 16  # k/4
    # cand and cand_lb (n x b each); u, rest_lb and labels (n each)
    assert r.memory_floats == 2 * len(X) * b + 3 * len(X)
    assert r.memory_floats < len(X) * len(C0)


def test_hamerly_memory_is_linear(setup):
    X, C0, _ = setup
    r = hamerly.fit(X, C0, 8)
    assert r.memory_floats <= 3 * len(X) + len(C0) ** 2


def test_yinyang_groups(setup):
    X, C0, _ = setup
    assert yinyang.n_groups(64) == 6
    assert yinyang.n_groups(5) == 1
    r = yinyang.fit(X, C0, 8)
    assert r.memory_floats < elkan.fit(X, C0, 8).memory_floats


def test_memory_ordering_matches_fig9(setup):
    """Fig. 9's qualitative ordering: Elkan > Drake > Yinyang > Dask-means;
    NoBound and Hamerly are small."""
    X, C0, _ = setup
    mem = {a: ALGORITHMS[a](X, C0, 6).memory_floats for a in
           ("Elkan", "Drake", "Yinyang", "Dask-means", "NoBound", "Hamerly")}
    assert mem["Elkan"] > mem["Drake"] > mem["Yinyang"] > mem["Dask-means"]
    # The paper's <1% claim is at n=1e6, k=1e3; at test scale the O(nk) vs
    # O(n + n/f) gap is still an order of magnitude.
    assert mem["Elkan"] > 10 * mem["Dask-means"]
    assert mem["Hamerly"] < mem["Yinyang"]


def test_accelerators_prune_vs_lloyd(setup):
    X, C0, ref = setup
    for algo in ("Elkan", "Hamerly", "Yinyang", "Drake", "Dask-means"):
        r = ALGORITHMS[algo](X, C0, 8)
        assert r.n_dist < ref.n_dist, algo


def test_dualtree_batch_pruning(setup):
    X, C0, _ = setup
    r = dualtree.fit(X, C0, 8)
    assert r.pruned_vectors > 0


def test_nobound_uses_kk_matrix(setup):
    X, C0, _ = setup
    r = nobound.fit(X, C0, 8)
    assert r.memory_floats >= len(C0) ** 2


#: (n_dist, pruned_vectors, n_iter, memory_floats) on tdrive n=2000 (seed 0),
#: k=32 (init seed 1), 8 iterations. The Dask-means family is left out: its
#: counters move with performance work on its walk.
PINNED_COUNTERS = {
    "Lloyd": (512000, 0, 8, 2000),
    "NoBound": (120541, 0, 8, 5024),
    "Dual-tree": (389824, 9908, 8, 17299),
    "Hamerly": (224097, 0, 8, 7024),
    "Drake": (149980, 0, 8, 38000),
    "Yinyang": (179353, 0, 8, 10032),
    "Elkan": (79881, 0, 8, 69024),
}


def test_baseline_counters_pinned():
    X = datasets.make("tdrive", 2000, seed=0)
    C0 = cinit.random_init(X, 32, seed=1)
    got = {}
    for algo in PINNED_COUNTERS:
        r = ALGORITHMS[algo](X, C0, 8)
        got[algo] = (r.n_dist, r.pruned_vectors, r.n_iter, r.memory_floats)
    assert got == PINNED_COUNTERS


def test_refine_centroids_empty_cluster():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 0])
    old = np.array([[5.0, 5.0], [9.0, 9.0]])
    new = refine_centroids(X, labels, old)
    np.testing.assert_allclose(new[0], [0.5, 0.5])
    np.testing.assert_allclose(new[1], [9.0, 9.0])  # empty keeps old


def test_refine_centroids_matches_groupby():
    g = np.random.default_rng(0)
    X = g.normal(size=(200, 3))
    labels = g.integers(0, 10, 200)
    old = g.normal(size=(10, 3))
    new = refine_centroids(X, labels, old)
    for j in range(10):
        rows = X[labels == j]
        if len(rows):
            np.testing.assert_allclose(new[j], rows.mean(0), rtol=1e-10)


@pytest.mark.parametrize("k", [3, 17, 50])
def test_assign_labels_is_argmin(k):
    g = np.random.default_rng(k)
    X = g.normal(size=(300, 4))
    C = g.normal(size=(k, 4))
    lab = lloyd.assign_labels(X, C)
    dd = ((X[:, None, :] - C[None, :, :]) ** 2).sum(-1)
    np.testing.assert_array_equal(lab, np.argmin(dd, axis=1))
