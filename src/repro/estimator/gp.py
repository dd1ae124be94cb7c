"""Runtime adjustment with a Gaussian Process (Section V-B2).

A GP is placed over g(i) = predicted/actual runtime ratio of iteration i,
with prior mean 1 (perfect prediction before the task starts). As each
iteration completes, its observed ratio conditions the GP and rescales
the predictions of the *remaining* iterations.

The kernel (Eq. 20) is asymmetric on purpose: completed iterations must
influence upcoming ones but not vice versa, so cov(i, i') is zero for
i' - i <= -1 and exp(-h(i'-i)^2 / (2 sigma^2)) otherwise, where h
(Eq. 21) is ln(delta+1) on (-1, 0] and delta beyond — continuously
differentiable at the boundary. Such a kernel is not a valid (PSD)
covariance in the classical sense; following the paper we use it as a
similarity weighting and solve the (jittered, non-symmetric) linear
system directly.
"""
from __future__ import annotations

import numpy as np

#: Kernel width of the adjuster's GP (in iterations) and the jitter added
#: to its kernel matrix.
SIGMA = 50.0
JITTER = 1e-6


def h(delta: np.ndarray) -> np.ndarray:
    """Eq. 21: continuously differentiable distance warp."""
    delta = np.asarray(delta, dtype=float)
    out = np.where(delta > 0, delta, np.log1p(np.clip(delta, -1 + 1e-15, None)))
    return out


def cov(i: np.ndarray, ip: np.ndarray, sigma: float = SIGMA) -> np.ndarray:
    """Eq. 20: asymmetric kernel; rows = observed i, cols = target i'."""
    i = np.asarray(i, dtype=float)
    ip = np.asarray(ip, dtype=float)
    delta = ip[None, :] - i[:, None]
    k = np.where(
        delta <= -1.0,
        0.0,
        np.exp(-(h(delta) ** 2) / (2.0 * sigma**2)),
    )
    return k


class Adjuster:
    """Adjusts per-iteration runtime predictions once iterations complete.

    ``adjust(yhat, y_obs)`` takes the per-iteration predictions yhat
    (1..q) and the actual runtimes of the first c iterations, and returns
    adjusted predictions where iterations 1..c are replaced by their
    actuals and iterations c+1..q are divided by :meth:`ratio`, the
    predicted/actual ratio expected of them given the observed ratios.
    This base class is NoGP: the ratio stays 1, only the past is known.
    """

    def ratio(self, g_obs: np.ndarray, q: int) -> float | np.ndarray:
        """Predicted/actual ratio of iterations c+1..q, given the ratios
        ``g_obs`` of iterations 1..c."""
        return 1.0

    def adjust(self, yhat: np.ndarray, y_obs: np.ndarray) -> np.ndarray:
        """Adjusted per-iteration runtimes after observing len(y_obs) iters."""
        q = len(yhat)
        c = min(len(y_obs), q)
        out = np.asarray(yhat, dtype=float).copy()
        if c == 0:
            return out
        safe = np.maximum(np.asarray(y_obs[:c], dtype=float), 1e-12)
        g_obs = out[:c] / safe
        out[:c] = y_obs[:c]
        if c < q:
            # Clipped to keep the correction sane.
            out[c:] = out[c:] / np.clip(self.ratio(g_obs, q), 0.1, 10.0)
        return out


class RuntimeAdjuster(Adjuster):
    """Conditions the ratio-GP on completed iterations (Fig. 5(c)): the
    ratio is the posterior mean E[g | observations]."""

    def posterior_ratio(self, obs_iters: np.ndarray, g_obs: np.ndarray, target_iters: np.ndarray) -> np.ndarray:
        """Posterior mean of g at target iterations given observed ratios."""
        if len(obs_iters) == 0:
            return np.ones(len(target_iters))
        K = cov(obs_iters, obs_iters) + JITTER * np.eye(len(obs_iters))
        Ks = cov(obs_iters, target_iters)
        try:
            alpha = np.linalg.solve(K, g_obs - 1.0)
        except np.linalg.LinAlgError:
            alpha = np.linalg.lstsq(K, g_obs - 1.0, rcond=None)[0]
        return 1.0 + Ks.T @ alpha

    def ratio(self, g_obs: np.ndarray, q: int) -> np.ndarray:
        c = len(g_obs)
        return self.posterior_ratio(
            np.arange(1, c + 1, dtype=float), g_obs, np.arange(c + 1, q + 1, dtype=float)
        )


class WeightedAverageAdjuster(Adjuster):
    """The [63]-style baseline: the ratio is the mean observed ratio."""

    def ratio(self, g_obs: np.ndarray, q: int) -> float:
        return float(g_obs.mean())
