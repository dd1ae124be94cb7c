"""Runtime prediction (Section V-B): iteration count x per-iteration time.

The paper's estimator decomposes total runtime t into (a) an iteration
count v predicted by a *linear* regressor over the meta-features,
expressed as the dummy vector u = [1]*v + [0]*(q-v) (Eq. 13), and (b) a
per-iteration runtime predicted by a *non-linear* (polynomial) regressor
with optional interaction features (Eq. 14-17), solved by OLS. The linear
regressor is the beta = 1 case of the polynomial one, so both are fits of
one :class:`PolynomialOLS`: a single-pass closed-form solve, the
"lightweight" property Fig. 11(a) measures against XGBoost/DisNet
training loops.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.estimator import features as F

#: Eq. 14 meta-features: the first entries of F.TASK_FEATURES.
N_CORE = 4


@dataclass
class TaskSample:
    """One recorded k-means run used to train/evaluate the estimator."""

    n: int
    k: int
    d: int
    f: int
    iter_times: list[float]          # actual per-iteration runtimes (sec)
    tree_stats: np.ndarray | None = None  # optional task_features override

    @property
    def n_iter(self) -> int:
        return len(self.iter_times)

    @property
    def total_time(self) -> float:
        return float(sum(self.iter_times))

    def features(self) -> np.ndarray:
        if self.tree_stats is not None:
            return self.tree_stats
        return F.task_features(self.n, self.k, self.d, self.f)


class PolynomialOLS:
    """OLS over all monomials of total degree <= beta (Eq. 14-17).

    Rows are standardized, then expanded into the monomial basis (cross
    terms only when ``interaction``) and solved in one pass by lstsq, the
    OLS solution of Eq. 17.
    """

    def __init__(self, beta: int, interaction: bool = True):
        self.beta = beta
        self.interaction = interaction

    def fit(self, Z: np.ndarray, y: np.ndarray) -> "PolynomialOLS":
        self.std = F.Standardizer().fit(Z)
        self.expos = F.monomial_exponents(Z.shape[1], self.beta, self.interaction)
        A = F.expand(self.std.transform(Z), self.expos)
        self.coef_, *_ = np.linalg.lstsq(A, y, rcond=None)
        return self

    def predict(self, Z: np.ndarray) -> np.ndarray:
        return F.expand(self.std.transform(Z), self.expos) @ self.coef_


@dataclass
class RuntimePredictor:
    """The full estimator: t_hat = sum_i u_i * y_hat_i (Eq. 13).

    Two fits of :class:`PolynomialOLS`. The iteration count v is a beta = 1
    fit over all task features, rounded and clipped to [1, q] before it
    becomes the dummy vector u. The runtime y_hat_j of iteration j is a
    (beta, interaction) fit over the paper's Eq. 14 meta-features
    [n, k, d, f] (lambda = 4) plus j, clipped at 0. The index-shape
    features stay with the v fit: putting all 8 into a degree-4
    interaction basis yields ~700 collinear terms and OLS blows up, which
    is why the per-iteration basis is restricted to the paper's own
    feature set.
    """

    beta: int = 4
    interaction: bool = True
    q: int = 20

    def fit(self, samples: list[TaskSample]) -> "RuntimePredictor":
        Z = np.array([s.features() for s in samples])
        v = np.array([s.n_iter for s in samples], dtype=float)
        self.v_fit = PolynomialOLS(1).fit(Z, v)
        self.y_fit = PolynomialOLS(self.beta, self.interaction).fit(
            *F.per_iteration(samples, N_CORE))
        return self

    def predict_profile(self, sample: TaskSample) -> tuple[np.ndarray, np.ndarray]:
        """(u, per-iteration predictions over 1..q) for one task."""
        feat = sample.features()
        v = int(np.clip(round(float(self.v_fit.predict(feat[None, :])[0])), 1, self.q))
        u = np.zeros(self.q)
        u[:v] = 1.0
        yhat = self.y_fit.predict(F.iteration_rows(feat[:N_CORE], self.q))
        return u, np.maximum(yhat, 0.0)

    def predict_total(self, sample: TaskSample) -> float:
        u, yhat = self.predict_profile(sample)
        return float((u * yhat).sum())
