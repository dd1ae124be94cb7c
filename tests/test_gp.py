"""Asymmetric-kernel GP tests (Eq. 18-21)."""
import numpy as np
import pytest

from repro.estimator import gp


def test_h_continuity_at_zero():
    # ln(delta+1) -> 0 as delta -> 0-, and delta -> 0 as delta -> 0+
    eps = 1e-8
    assert abs(gp.h(np.array([-eps]))[0]) < 1e-7
    assert abs(gp.h(np.array([eps]))[0]) < 1e-7


def test_h_branches():
    np.testing.assert_allclose(gp.h(np.array([2.0]))[0], 2.0)
    np.testing.assert_allclose(gp.h(np.array([-0.5]))[0], np.log(0.5))


def test_kernel_one_sided():
    """cov(i, i') must be zero whenever i' - i <= -1 (the past cannot be
    influenced by the future)."""
    i = np.array([5.0])
    ip = np.array([1.0, 2.0, 3.0, 4.0])
    K = gp.cov(i, ip, sigma=50)
    assert (K == 0).all()


def test_kernel_forward_positive():
    i = np.array([2.0])
    ip = np.array([2.0, 3.0, 10.0])
    K = gp.cov(i, ip, sigma=50)[0]
    assert K[0] == pytest.approx(1.0)     # self-correlation
    assert (K > 0).all()
    assert K[1] > K[2]                    # decays with distance


def test_kernel_asymmetric():
    K12 = gp.cov(np.array([1.0]), np.array([2.0]))[0, 0]
    K21 = gp.cov(np.array([2.0]), np.array([1.0]))[0, 0]
    assert K12 > 0 and K21 == 0.0


@pytest.mark.parametrize("sigma", [2.0, 50.0])
def test_kernel_sigma_controls_reach(sigma):
    K = gp.cov(np.array([1.0]), np.array([6.0]), sigma=sigma)[0, 0]
    if sigma == 2.0:
        assert K < 0.1
    else:
        assert K > 0.9


def test_posterior_prior_is_one():
    adj = gp.RuntimeAdjuster()
    post = adj.posterior_ratio(np.array([]), np.array([]), np.array([3.0, 4.0]))
    np.testing.assert_allclose(post, 1.0)


def test_posterior_moves_towards_observed_ratio():
    """If the model overpredicts 2x on early iterations, the posterior ratio
    for upcoming iterations must rise above 1."""
    adj = gp.RuntimeAdjuster()
    obs_i = np.array([1.0, 2.0, 3.0])
    g_obs = np.array([2.0, 2.0, 2.0])
    post = adj.posterior_ratio(obs_i, g_obs, np.array([4.0, 5.0]))
    assert (post > 1.5).all()


def test_adjust_replaces_observed_and_scales_future():
    adj = gp.RuntimeAdjuster()
    yhat = np.full(6, 2.0)
    y_obs = np.array([1.0, 1.0, 1.0])  # actual is half the prediction
    out = adj.adjust(yhat, y_obs)
    np.testing.assert_allclose(out[:3], y_obs)
    assert (out[3:] < 1.5).all()  # future scaled down towards actual


def test_adjust_reduces_total_error():
    """The paper's claim: more observed iterations -> better total estimate."""
    adj = gp.RuntimeAdjuster()
    y_true = np.array([5.0, 3.0, 2.0, 2.0, 2.0, 2.0])
    yhat = y_true * 1.8  # systematic overprediction
    err0 = abs(yhat.sum() - y_true.sum())
    errs = []
    for c in (1, 3, 5):
        out = adj.adjust(yhat, y_true[:c])
        errs.append(abs(out.sum() - y_true.sum()))
    assert errs[0] < err0
    assert errs[2] < errs[0]


def test_adjust_noop_without_observations():
    adj = gp.RuntimeAdjuster()
    yhat = np.array([1.0, 2.0])
    np.testing.assert_array_equal(adj.adjust(yhat, np.array([])), yhat)


def test_weighted_average_baseline():
    wa = gp.WeightedAverageAdjuster()
    yhat = np.full(4, 2.0)
    out = wa.adjust(yhat, np.array([1.0, 1.0]))
    np.testing.assert_allclose(out[:2], 1.0)
    np.testing.assert_allclose(out[2:], 1.0)  # ratio 2 -> halved


def test_adjust_handles_more_obs_than_q():
    adj = gp.RuntimeAdjuster()
    out = adj.adjust(np.array([1.0, 1.0]), np.array([2.0, 2.0, 2.0]))
    np.testing.assert_allclose(out, [2.0, 2.0])
