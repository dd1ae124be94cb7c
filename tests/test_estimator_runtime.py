"""Runtime predictor tests: features, OLS recovery, end-to-end accuracy."""
import numpy as np
import pytest

from repro.estimator import features as F
from repro.estimator import metrics as M
from repro.estimator.runtime import N_CORE, PolynomialOLS, RuntimePredictor, TaskSample


def _synthetic_samples(n_tasks=60, q=10, seed=0, noise=0.0):
    """Tasks whose per-iteration runtime follows a known polynomial law:
    y_j = 1e-6 * n * (1 + 5/j) + 1e-4 * k  (first iterations cost more)."""
    g = np.random.default_rng(seed)
    out = []
    for _ in range(n_tasks):
        n = int(g.integers(1000, 50_000))
        k = int(g.integers(8, 200))
        f = int(g.choice([20, 30, 50]))
        v = int(g.integers(3, q + 1))
        times = [
            1e-6 * n * (1 + 5 / j) + 1e-4 * k + noise * g.normal()
            for j in range(1, v + 1)
        ]
        out.append(TaskSample(n=n, k=k, d=3, f=f, iter_times=times))
    return out


def test_task_features_shape():
    feat = F.task_features(1000, 10, 3, 30)
    assert feat.shape == (len(F.TASK_FEATURES),)
    assert feat[0] == 1000 and feat[1] == 10


def test_iteration_rows():
    feat = F.task_features(100, 5, 2, 10)
    rows = F.iteration_rows(feat, 4)
    assert rows.shape == (4, len(feat) + 1)
    np.testing.assert_array_equal(rows[:, -1], [1, 2, 3, 4])


def test_per_iteration_stacks_every_recorded_iteration():
    samples = _synthetic_samples(3, seed=4)
    Z, y = F.per_iteration(samples, N_CORE)
    assert Z.shape == (sum(s.n_iter for s in samples), N_CORE + 1)
    np.testing.assert_array_equal(Z[: samples[0].n_iter], F.iteration_rows(
        samples[0].features()[:N_CORE], samples[0].n_iter))
    np.testing.assert_array_equal(y, np.concatenate([s.iter_times for s in samples]))
    assert F.per_iteration(samples)[0].shape[1] == len(F.TASK_FEATURES) + 1


def test_standardizer():
    g = np.random.default_rng(0)
    Z = g.normal(5, 3, (100, 4))
    s = F.Standardizer().fit(Z)
    Zt = s.transform(Z)
    np.testing.assert_allclose(Zt.mean(0), 0, atol=1e-9)
    np.testing.assert_allclose(Zt.std(0), 1, atol=1e-9)


def test_standardizer_constant_column():
    Z = np.ones((10, 2))
    Zt = F.Standardizer().fit(Z).transform(Z)
    assert np.isfinite(Zt).all()


@pytest.mark.parametrize("beta,interaction,expected", [
    (1, False, 1 + 2),          # const + x1 + x2
    (2, False, 1 + 4),          # + x1^2, x2^2
    (1, True, 1 + 2),
    (2, True, 1 + 2 + 3),       # + x1^2, x1x2, x2^2
])
def test_monomial_counts(beta, interaction, expected):
    assert len(F.monomial_exponents(2, beta, interaction)) == expected


def test_expand_evaluates_monomials():
    Z = np.array([[2.0, 3.0]])
    expos = [(0, 0), (1, 0), (1, 1), (0, 2)]
    A = F.expand(Z, expos)
    np.testing.assert_allclose(A[0], [1.0, 2.0, 6.0, 9.0])


def test_ols_recovers_planted_polynomial():
    """Interaction OLS must fit y = a + b*x1*x2 exactly (it's in the basis)."""
    g = np.random.default_rng(0)
    samples = []
    for _ in range(40):
        n, k = int(g.integers(100, 1000)), int(g.integers(5, 50))
        times = [1e-7 * n * k + 1e-3 * j for j in range(1, 6)]
        samples.append(TaskSample(n=n, k=k, d=2, f=30, iter_times=times))
    ols = PolynomialOLS(beta=2, interaction=True).fit(*F.per_iteration(samples, N_CORE))
    s = TaskSample(n=555, k=33, d=2, f=30, iter_times=[0] * 5)
    pred = ols.predict(F.per_iteration([s], N_CORE)[0])
    truth = np.array([1e-7 * 555 * 33 + 1e-3 * j for j in range(1, 6)])
    np.testing.assert_allclose(pred, truth, rtol=1e-4)


def test_iteration_count_lr():
    g = np.random.default_rng(1)
    samples = []
    for _ in range(50):
        n = int(g.integers(1000, 10_000))
        v = max(1, min(10, round(n / 1000)))  # v is a linear function of n
        samples.append(TaskSample(n=n, k=10, d=2, f=30, iter_times=[0.01] * v))
    rp = RuntimePredictor(beta=1, q=10).fit(samples)
    u, _ = rp.predict_profile(TaskSample(n=5000, k=10, d=2, f=30, iter_times=[]))
    v = int(u.sum())
    assert 4 <= v <= 6
    np.testing.assert_array_equal(u, np.arange(10) < v)  # a 0/1 prefix of length v


def test_runtime_predictor_end_to_end():
    train = _synthetic_samples(80, seed=0)
    test = _synthetic_samples(20, seed=1)
    rp = RuntimePredictor(beta=2, q=10).fit(train)
    y = np.array([s.total_time for s in test])
    yhat = np.array([rp.predict_total(s) for s in test])
    assert M.wmape(y, yhat) < 0.25  # noiseless planted law -> tight fit


def test_interaction_beats_basic_on_multiplicative_law():
    """Table VIII's point: interaction features help when cost ~ n*k."""
    g = np.random.default_rng(2)
    samples = []
    for _ in range(80):
        n, k = int(g.integers(1000, 30_000)), int(g.integers(8, 200))
        times = [2e-8 * n * k] * 5
        samples.append(TaskSample(n=n, k=k, d=2, f=30, iter_times=times))
    train, test = samples[:60], samples[60:]
    y = np.array([s.total_time for s in test])
    errs = {}
    for inter in (False, True):
        rp = RuntimePredictor(beta=2, interaction=inter, q=5).fit(train)
        yhat = np.array([rp.predict_total(s) for s in test])
        errs[inter] = M.mse(y, yhat)
    assert errs[True] < errs[False]


def test_predict_iters_nonnegative():
    train = _synthetic_samples(40, seed=3)
    _, pred = RuntimePredictor(beta=3, q=20).fit(train).predict_profile(train[0])
    assert len(pred) == 20
    assert (pred >= 0).all()


def test_fig11_estimator_competitive_on_cached_samples():
    """Fig. 11 on the committed 200-task sample set: the paper's estimator
    (beta=4, interaction features) is within 2x of the best competitor's
    MSE. The abstract claims up to 33.3% below SOTA; at this scale we
    only require it to be competitive."""
    from repro.experiments import fig11

    rows = fig11.run()
    ours = next(r["MSE"] for r in rows if r["model"] == "Dask-means")
    best_other = min(r["MSE"] for r in rows if r["model"] != "Dask-means")
    assert ours <= 2.0 * best_other
