"""Ball-tree substrate tests: structural invariants and exact search."""
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import datasets
from repro.core import balltree as bt


def _tree(name="tdrive", n=1000, f=16, seed=0):
    X = datasets.make(name, n, seed=seed)
    return X, bt.build(X, f)


@pytest.mark.parametrize("name", ["tdrive", "argo_pc", "apoll_td"])
@pytest.mark.parametrize("f", [4, 16, 64])
def test_structure_invariants(name, f):
    X, t = _tree(name, 800, f)
    n = len(X)
    # Root covers everything; idx is a permutation.
    assert len(t.points(0)) == n
    assert sorted(t.idx.tolist()) == list(range(n))
    for i in range(t.n_nodes):
        rows = t.points(i)
        if t.is_leaf(i):
            assert len(rows) <= f
        else:
            l, r = t.children(i)
            assert len(t.points(l)) + len(t.points(r)) == len(rows)
            # children partition the parent's slice
            assert t.start[l] == t.start[i] and t.end[r] == t.end[i]
            assert t.end[l] == t.start[r]


def _digest(t) -> str:
    """sha256 over the slices, the shape and each node's member set."""
    h = hashlib.sha256()
    for a in (t.start, t.end, t.subtree_end):
        h.update(a.astype(np.int64).tobytes())
    for i in range(t.n_nodes):
        h.update(np.sort(t.points(i)).astype(np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "name, n, f, n_nodes, height, digest",
    [
        ("tdrive", 2000, 30, 255, 8,
         "f3d691a0c470c3dcdaf625c75f03ee5393971047a79c1062611f15948704ed20"),
        ("argo_pc", 3000, 4, 2047, 11,
         "9470be28c998b0f5ec234e72a9fdf82a1307ec363c0c7f8080ef3a9a531c48b2"),
        ("apoll_td", 1500, 30, 127, 7,
         "87235d2b3c8ac4e69d80c3f67ec514181e9738b4de9e6e5458a3c1caf3f9f7e5"),
    ],
)
def test_tree_is_pinned(name, n, f, n_nodes, height, digest):
    """On untied data the tree is fixed node for node (preorder ids,
    slices and member sets), so a change to the build cannot move a
    counter unnoticed."""
    X = datasets.make(name, n, seed=0)
    t = bt.build(X, f)
    assert (t.n_nodes, t.height, _digest(t)) == (n_nodes, height, digest)


def _nodes(c: int, f: int) -> int:
    return 1 if c <= f else 1 + _nodes(c // 2, f) + _nodes(c - c // 2, f)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 400),
    D=st.integers(1, 4),
    f=st.integers(1, 40),
    kind=st.sampled_from(["grid", "duplicates"]),
    seed=st.integers(0, 1000),
)
def test_split_is_the_median(n, D, f, kind, seed):
    """Every internal node sends exactly ``cnt // 2`` points left, none of
    them above a right point on its split dimension (the first of
    maximum spread), even where most values tie."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, (n, D)) / 2 if kind == "grid" else np.ones((n, D))
    t = bt.build(X, f)
    assert t.n_nodes == _nodes(n, f)
    for i in np.flatnonzero(~t.is_leaf(np.arange(t.n_nodes))):
        pts = X[t.points(i)]
        l, r = t.children(i)
        assert t.end[l] - t.start[l] == len(pts) // 2
        dim = np.argmax(pts.max(0) - pts.min(0))
        assert X[t.points(l), dim].max() <= X[t.points(r), dim].min()


@pytest.mark.parametrize("name", ["tdrive", "argo_pc"])
@pytest.mark.parametrize("f", [8, 32])
def test_radius_covers_members(name, f):
    X, t = _tree(name, 600, f)
    for i in range(t.n_nodes):
        pts = X[t.points(i)]
        dd = np.sqrt(((pts - t.pivot[i]) ** 2).sum(1))
        assert (dd <= t.radius[i] + 1e-9).all()


@pytest.mark.parametrize("f", [4, 16])
def test_node_sums_and_pivot(f):
    X, t = _tree("porto", 500, f)
    for i in range(t.n_nodes):
        pts = X[t.points(i)]
        np.testing.assert_allclose(t.node_sum[i], pts.sum(0), rtol=1e-10)
        np.testing.assert_allclose(t.pivot[i], pts.mean(0), rtol=1e-10)


def test_subtree_end_preorder():
    X, t = _tree("tdrive", 400, 8)
    for i in range(t.n_nodes):
        lo, hi = i, t.subtree_end[i]
        # The subtree ids are exactly the nodes whose slice nests in node
        # i's slice, found from start/end alone.
        nested = np.flatnonzero((t.start >= t.start[i]) & (t.end <= t.end[i]))
        assert nested.tolist() == list(range(lo, hi))
        if t.is_leaf(i):
            assert hi == i + 1
        else:
            l, r = t.children(i)
            assert l == i + 1
            assert lo < r < hi
            assert t.subtree_end[r] == hi


@pytest.mark.parametrize("name", ["tdrive", "argo_pc", "apoll_td"])
@pytest.mark.parametrize("kq", [1, 2, 5])
@pytest.mark.parametrize("f", [4, 32])
def test_knn_matches_brute_force(name, kq, f):
    X, t = _tree(name, 400, f, seed=3)
    g = np.random.default_rng(0)
    for _ in range(10):
        q = X[g.integers(len(X))] + g.normal(0, 0.1, X.shape[1])
        bi, bd = bt.brute_knn(X, q, kq)
        ti, td, _ = bt.knn(t, q, kq)
        np.testing.assert_allclose(np.sort(td), np.sort(bd), rtol=1e-9)


def test_knn_with_finite_upper_bound_prunes():
    X, t = _tree("tdrive", 500, 16)
    q = X[0]
    _, bd = bt.brute_knn(X, q, 2)
    # Valid bound (>= true 2nd-NN distance): identical result, fewer dists.
    ti, td, nd_bounded = bt.knn(t, q, 2, ub=bd[1] * 1.001 + 1e-9)
    _, td_inf, nd_inf = bt.knn(t, q, 2, ub=np.inf)
    np.testing.assert_allclose(td, bd, rtol=1e-9)
    assert nd_bounded <= nd_inf


def test_knn_unreachable_bound_returns_sentinels():
    X, t = _tree("tdrive", 300, 16)
    far = X.mean(0) + 1e9
    ti, td, _ = bt.knn(t, far, 2, ub=1.0)
    assert (ti == -1).all()


@pytest.mark.parametrize("r_scale", [0.01, 0.1, 0.5])
def test_range_query_matches_brute(r_scale):
    X, t = _tree("argo_pc", 500, 16)
    extent = np.linalg.norm(X.max(0) - X.min(0))
    q = X.mean(0)
    r = extent * r_scale
    ri, rd, _ = bt.range_query(t, q, r)
    dd = np.sqrt(((X - q) ** 2).sum(1))
    expected = set(np.flatnonzero(dd <= r).tolist())
    assert set(ri.tolist()) == expected
    np.testing.assert_allclose(np.sort(rd), np.sort(dd[dd <= r]), rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(5, 200),
    d=st.integers(1, 6),
    f=st.integers(1, 40),
    seed=st.integers(0, 1000),
)
def test_knn_matches_brute_hypothesis(n, d, f, seed):
    g = np.random.default_rng(seed)
    X = g.normal(size=(n, d))
    t = bt.build(X, f)
    q = g.normal(size=d)
    kq = min(3, n)
    _, bd = bt.brute_knn(X, q, kq)
    _, td, _ = bt.knn(t, q, kq)
    np.testing.assert_allclose(td, bd, rtol=1e-9, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 300), f=st.integers(1, 50), seed=st.integers(0, 99))
def test_build_counts_hypothesis(n, f, seed):
    g = np.random.default_rng(seed)
    X = g.normal(size=(n, 3))
    t = bt.build(X, f)
    leaves = [i for i in range(t.n_nodes) if t.is_leaf(i)]
    assert sum(len(t.points(i)) for i in leaves) == n
    assert all(len(t.points(i)) <= f for i in leaves)
    assert t.n_internal == t.n_leaves - 1


def test_build_rejects_bad_f():
    X = np.zeros((5, 2))
    with pytest.raises(ValueError):
        bt.build(X, 0)


def test_single_point_tree():
    X = np.array([[1.0, 2.0]])
    t = bt.build(X, 4)
    assert t.n_nodes == 1 and t.radius[0] == 0.0
    ti, td, _ = bt.knn(t, np.array([1.0, 2.0]), 1)
    assert ti[0] == 0 and td[0] == 0.0


def test_empty_tree():
    """No point: a lone root of zero pivot and radius, built without a
    NaN or a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = bt.build(np.empty((0, 3)), 4)
    assert (t.n_nodes, t.height, len(t.idx)) == (1, 1, 0)
    assert (t.start[0], t.end[0], t.subtree_end[0]) == (0, 0, 1)
    assert not t.pivot.any() and not t.node_sum.any() and t.radius[0] == 0.0


def test_duplicate_points():
    X = np.ones((50, 3))
    t = bt.build(X, 8)
    assert t.radius[0] == 0.0
    ti, td, _ = bt.knn(t, np.ones(3), 2)
    assert (td == 0).all()
