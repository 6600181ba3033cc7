"""Nested pointwise aggregation of experts (NPAE).

Expert means at a test point are treated as jointly Gaussian with the
target: mu_i(x*) = Gamma_i y_i with Gamma_i = k(X_i, x*)' C_i^-1, so

    cov(mu_i, mu_j) = Gamma_i Cov(y_i, y_j) Gamma_j',
    cov(y*,  mu_i)  = Gamma_i k(X_i, x*),

and the aggregated mean is the conditional mean k_A' K_A^-1 mu(x*),
solved fresh at every test point (an M x M system each time, so the
aggregation cost scales with n_t * M^3 plus the covariance assembly).
A diagonal entry needs no block of Cov(y_i, y_i): Gamma_i C_i Gamma_i'
cancels one inverse and reduces to k_A[i]. Only the cross blocks
Cov(y_i, y_j) = k(X_i, X_j), i != j, are built, and never all at once.
"""

from __future__ import annotations

import logging
import time

import numpy as np
from scipy.linalg import cho_solve

from ._linalg import chol_jitter
from .gp import Hyperparameters, TrainedExpert, kernel_matrix

log = logging.getLogger(__name__)


def npae_aggregate(
    experts: list[TrainedExpert], hp: Hyperparameters, X_star: np.ndarray
) -> np.ndarray:
    """Aggregated means k_A' K_A^-1 mu(x*) over all test points.

    The loop is pair-major: each cross block k(X_i, X_j), i < j, is built
    once per call and used for every test point while it is still in
    cache. The call holds the M weight matrices Gamma_i' (n x n_t in
    total; every pair needs both of its own, so all M stay alive), the
    K_A stack (n_t x M x M) and one cross block at a time; no n x n
    joint covariance exists. K_A is solved per test point with
    the shared jitter policy, and a jittered call logs one warning with
    the number of test points that needed it and the largest jitter.
    """
    X_star = np.asarray(X_star, dtype=float)
    if X_star.ndim == 1:
        X_star = X_star[:, None]
    M = len(experts)
    n_t = X_star.shape[0]
    started = time.perf_counter()

    gammas = []
    k_A = np.empty((n_t, M))
    for i, e in enumerate(experts):
        k_star = kernel_matrix(e.data.X, X_star, hp)
        gamma = cho_solve((e.chol_C, True), k_star)
        for t in range(n_t):
            k_A[t, i] = gamma[:, t] @ k_star[:, t]
        gammas.append(gamma)
    local_means = np.column_stack([g.T @ e.data.y for g, e in zip(gammas, experts)])

    K_A = np.empty((n_t, M, M))
    diag = np.arange(M)
    K_A[:, diag, diag] = k_A
    for i in range(M):
        for j in range(i + 1, M):
            cross = kernel_matrix(experts[i].data.X, experts[j].data.X, hp)
            g_i, g_j = gammas[i], gammas[j]
            for t in range(n_t):
                K_A[t, i, j] = K_A[t, j, i] = g_i[:, t] @ (cross @ g_j[:, t])

    means = np.empty(n_t)
    jittered, max_jitter = 0, 0.0
    for t in range(n_t):
        L, jitter = chol_jitter(K_A[t])
        if jitter > 0.0:
            jittered += 1
            max_jitter = max(max_jitter, jitter)
        w = cho_solve((L, True), k_A[t])
        means[t] = w @ local_means[t]
    if jittered:
        log.warning(
            "npae_aggregate: %d of %d test points needed Cholesky jitter on K_A (largest %.3e)",
            jittered, n_t, max_jitter,
        )
    log.debug("npae_aggregate: M=%d n_t=%d took %.3fs", M, n_t, time.perf_counter() - started)
    return means
