"""The central correctness property: every accelerated algorithm in the
comparison is an *exact* drop-in for Lloyd's algorithm.

From the same initial centroids, labels, centroids, and iteration counts
must match Lloyd's across datasets, k, and seeds. This is what makes the
paper's runtime comparison meaningful (all algorithms compute the same
clustering, only the work differs).
"""
import numpy as np
import pytest

from repro import datasets
from repro.algorithms import ALGORITHMS
from repro.baselines import lloyd
from repro.core import init as cinit

ACCELERATED = [a for a in ALGORITHMS if a != "Lloyd"]


@pytest.fixture(scope="module")
def refs():
    cache = {}

    def get(name, n, k, seed, max_iter=8):
        key = (name, n, k, seed, max_iter)
        if key not in cache:
            X = datasets.make(name, n, seed=seed)
            C0 = cinit.random_init(X, k, seed=seed + 1)
            cache[key] = (X, C0, lloyd.fit(X, C0, max_iter))
        return cache[key]

    return get


@pytest.mark.parametrize("algo", ACCELERATED)
@pytest.mark.parametrize("name", ["tdrive", "argo_pc"])
@pytest.mark.parametrize("k", [8, 32])
def test_matches_lloyd(refs, algo, name, k):
    X, C0, ref = refs(name, 2000, k, seed=0)
    r = ALGORITHMS[algo](X, C0, 8)
    assert r.n_iter == ref.n_iter
    assert (r.labels == ref.labels).all()
    np.testing.assert_allclose(r.centroids, ref.centroids, atol=1e-8)


@pytest.mark.parametrize("algo", ACCELERATED)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_lloyd_across_seeds(refs, algo, seed):
    X, C0, ref = refs("porto", 1500, 16, seed=seed)
    r = ALGORITHMS[algo](X, C0, 8)
    assert (r.labels == ref.labels).all()
    np.testing.assert_allclose(r.centroids, ref.centroids, atol=1e-8)


@pytest.mark.parametrize("algo", ACCELERATED)
def test_matches_lloyd_highdim(refs, algo):
    X, C0, ref = refs("apoll_td", 800, 16, seed=0)
    r = ALGORITHMS[algo](X, C0, 8)
    assert (r.labels == ref.labels).all()
    np.testing.assert_allclose(r.centroids, ref.centroids, atol=1e-8)


@pytest.mark.parametrize("algo", ACCELERATED)
def test_matches_until_convergence(refs, algo):
    """Run far past convergence: converged flags and results still agree."""
    X, C0, ref = refs("rd3d", 800, 8, seed=4, max_iter=60)
    r = ALGORITHMS[algo](X, C0, 60)
    assert r.converged == ref.converged
    assert r.n_iter == ref.n_iter
    assert (r.labels == ref.labels).all()


@pytest.mark.parametrize("algo", ACCELERATED)
def test_k_equals_one(algo):
    X = datasets.make("tdrive", 300, seed=0)
    C0 = cinit.random_init(X, 1, seed=1)
    ref = lloyd.fit(X, C0, 5)
    r = ALGORITHMS[algo](X, C0, 5)
    assert (r.labels == 0).all() and (ref.labels == 0).all()
    np.testing.assert_allclose(r.centroids, ref.centroids, atol=1e-10)


@pytest.mark.parametrize("algo", ACCELERATED)
def test_k_equals_two(algo):
    X = datasets.make("argo_pc", 400, seed=2)
    C0 = cinit.random_init(X, 2, seed=3)
    ref = lloyd.fit(X, C0, 8)
    r = ALGORITHMS[algo](X, C0, 8)
    assert (r.labels == ref.labels).all()


@pytest.mark.parametrize("algo", ACCELERATED)
def test_duplicate_heavy_data(algo):
    """Many coincident points (degenerate radii / zero inter bounds)."""
    g = np.random.default_rng(0)
    base = g.normal(size=(20, 2))
    X = np.repeat(base, 20, axis=0) + g.normal(0, 1e-6, (400, 2))
    C0 = cinit.random_init(X, 8, seed=1)
    ref = lloyd.fit(X, C0, 6)
    r = ALGORITHMS[algo](X, C0, 6)
    assert (r.labels == ref.labels).all()


def test_kmeanspp_init_also_exact():
    X = datasets.make("shapenet", 1200, seed=0)
    C0 = cinit.kmeanspp_init(X, 16, seed=5)
    ref = lloyd.fit(X, C0, 8)
    for algo in ("Dask-means", "Elkan", "Hamerly"):
        r = ALGORITHMS[algo](X, C0, 8)
        assert (r.labels == ref.labels).all()


@pytest.mark.parametrize("algo", ACCELERATED)
def test_sse_never_above_lloyd(refs, algo):
    """Same clustering -> same SSE (Eq. 1)."""
    X, C0, ref = refs("tdrive", 2000, 8, seed=0)
    r = ALGORITHMS[algo](X, C0, 8)
    assert abs(r.sse(X) - ref.sse(X)) / ref.sse(X) < 1e-9


@pytest.mark.parametrize("algo", ACCELERATED)
def test_duplicated_init_centroids(algo):
    """Exact ties when k > f: centroids 20..39 repeat 0..19, so every point
    is equally near two ids and must go to the lower one, as in Lloyd."""
    X = datasets.make("tdrive", 2000, seed=0)
    C0 = cinit.random_init(X, 40, seed=1)
    C0[20:] = C0[:20]
    ref = lloyd.fit(X, C0, 8)
    r = ALGORITHMS[algo](X, C0, 8)
    assert (r.labels == ref.labels).all()
    np.testing.assert_allclose(r.centroids, ref.centroids, atol=1e-8)


@pytest.mark.parametrize("algo", ACCELERATED)
@pytest.mark.parametrize("X, C0", [
    ([[3, 4], [1, 2], [4, 2], [2, 4], [4, 4]], [[2, 4], [3, 4], [4, 4]]),
    ([[4, 2], [4, 1], [4, 4], [1, 2]], [[4, 1], [4, 2], [1, 2]]),
    # two of Drake's cached candidates tie, the higher id in the earlier slot
    ([[2, 0], [2, 1], [1, 3], [0, 0], [1, 1], [1, 1], [3, 0]],
     [[4, 0], [4, 1], [3, 3], [3, 3], [1, 0], [1, 2], [3, 1]]),
], ids=["tie-a", "tie-b", "tie-c"])
def test_exact_tie_after_refinement(algo, X, C0):
    """After the first refinement a point sits exactly as near a lower-id
    centroid as its own one (and, in tie-a/tie-b, exactly on the pruning
    bounds): it must move to the lowest such id, as in Lloyd."""
    X, C0 = np.array(X, dtype=float), np.array(C0, dtype=float)
    ref = lloyd.fit(X, C0, 2)
    r = ALGORITHMS[algo](X, C0, 2)
    assert (r.labels == ref.labels).all()
    np.testing.assert_allclose(r.centroids, ref.centroids, atol=1e-12)
