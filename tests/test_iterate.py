"""The loop every accelerated algorithm shares, ``result.iterate``, driven
by a scripted ``assign`` hook."""
import numpy as np

from repro.core.result import AssignStats, cluster_sums, iterate

X = np.array([[0.0], [1.0], [4.0], [5.0]])
C0 = np.array([[0.0], [5.0]])
# The hook's labelling at each call: two changing passes, then a stable one.
SCRIPT = [[0, 0, 0, 1], [0, 0, 1, 1], [0, 0, 1, 1]]


def scripted_hook():
    """A hook that labels ``X`` by ``SCRIPT`` and records each call's
    centroids and drift; its t-th call reports ``10 + t`` distances and
    ``t`` pruned vectors."""
    calls = []

    def assign(C, drift):
        t = len(calls)
        calls.append((C.copy(), drift))
        labels = np.array(SCRIPT[t])
        changed = t == 0 or SCRIPT[t] != SCRIPT[t - 1]
        return AssignStats(*cluster_sums(X, labels, len(C)), changed, 10 + t, t)

    return assign, calls


def test_loop_drift_counters_and_convergence():
    assign, calls = scripted_hook()
    loop = iterate(C0, assign, 10)
    assert loop.converged and loop.n_iter == 3 == len(calls) == len(loop.iter_times)
    assert calls[0][1] is None
    for (prev, _), (C, drift) in zip(calls, calls[1:]):
        np.testing.assert_array_equal(drift, np.sqrt(((C - prev) ** 2).sum(axis=1)))
    np.testing.assert_allclose(calls[1][0], [[5 / 3], [5.0]])
    np.testing.assert_allclose(calls[2][1], [7 / 6, 0.5])
    assert loop.n_dist == (10 + 11 + 12) + len(C0) * 3
    assert loop.pruned_vectors == 0 + 1 + 2
    np.testing.assert_array_equal(loop.labels_centroids, calls[-1][0])
    np.testing.assert_allclose(loop.centroids, [[0.5], [4.5]])


def test_loop_stops_at_max_iter_unconverged():
    assign, calls = scripted_hook()
    loop = iterate(C0, assign, 2)
    assert not loop.converged and loop.n_iter == 2 == len(calls)
    # The labels came from the centroids of the last call, before the
    # last refinement moved them.
    np.testing.assert_array_equal(loop.labels_centroids, calls[-1][0])
    np.testing.assert_allclose(loop.labels_centroids, [[5 / 3], [5.0]])
    np.testing.assert_allclose(loop.centroids, [[0.5], [4.5]])
    assert loop.n_dist == (10 + 11) + len(C0) * 2
