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
Cov(y_i, y_j) = k(X_i, X_j), i != j, are built, never all at once, and
once per block of at most ``QUERY_BLOCK`` test points.

The experts' weight matrices and the cross blocks are independent of
one another, so a block large enough to repay a thread start splits
both phases into fixed shares (``_workers.in_shares``), joined before
the per-point K_A solves, which stay on the caller's thread. Every K_A
entry is written by one share from the same operands and BLAS calls as
on one thread, so the predictions do not depend on the number of workers.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from ._linalg import cho_solve, chol_jitter, spd_solve_each
from ._workers import in_shares, one_blas_thread, workers_for
from .gp import Hyperparameters, TrainedExpert, check_test_inputs, kernel_matrix

log = logging.getLogger(__name__)

# Queries per block. Each block rebuilds the M(M-1)/2 cross blocks, and a
# 250 x 250 one costs about 18 queries' pair products, so blocks of 256
# keep the extra work near 7% while the weight matrices stay at most
# 8 * n * 256 bytes whatever the batch. With several workers each holds
# one cross block and its product at a time.
QUERY_BLOCK = 256


@one_blas_thread
def npae_aggregate(
    experts: list[TrainedExpert], hp: Hyperparameters, X_star: np.ndarray
) -> np.ndarray:
    """Aggregated means k_A' K_A^-1 mu(x*) over all test points.

    The queries run in consecutive blocks of at most ``QUERY_BLOCK``.
    Within a block the loop is pair-major: each cross block k(X_i, X_j),
    i < j, is built once per block and serves all of its test points in
    two stacked matmuls (one gemv, then one dot call per point). Each
    stacked item is the BLAS call a lone query makes on the same
    contiguous rows, so no prediction depends on the batch or its
    blocking. A block holds the M weight matrices Gamma_i (n x
    min(n_t, QUERY_BLOCK) in total; every pair needs both of its own, so
    all M stay alive), the K_A stack (min(n_t, QUERY_BLOCK) x M x M) and
    one cross block with its product per worker; no n x n joint exists.
    A block whose pair work reaches ``_workers.PARALLEL_WORK`` computes the
    Gamma_i, then the pair products, on ``_workers.workers_for`` threads.
    K_A is solved per point on the caller's thread, with the shared jitter
    policy where it is not SPD; a jittered call logs one warning with the
    number of jittered points and the largest jitter over all blocks.
    ``hp`` must match the parameters every expert was factorized with.
    """
    if not experts:
        raise ValueError("need at least one expert")
    if any(hp != e.hp for e in experts):
        raise ValueError("hyperparameters differ from those used to factorize the expert")
    X_star = check_test_inputs(X_star, experts[0].data.d)
    n_t = X_star.shape[0]
    started = time.perf_counter()

    means = np.empty(n_t)
    jitters = []
    for a in range(0, n_t, QUERY_BLOCK):
        jitters += _aggregate_block(experts, hp, X_star[a : a + QUERY_BLOCK], means[a : a + QUERY_BLOCK])
    jittered = [j for j in jitters if j > 0.0]
    if jittered:
        log.warning(
            "npae_aggregate: %d of %d test points needed Cholesky jitter on K_A (largest %.3e)",
            len(jittered), n_t, max(jittered),
        )
    log.debug("npae_aggregate: M=%d n_t=%d took %.3fs", len(experts), n_t, time.perf_counter() - started)
    return means


def _pair_work(sizes: list[int], n_t: int) -> int:
    """Multiply-adds of one block's pair phase: n_t * sum_{i<j} n_i n_j
    for the products, plus the cross blocks at about 18 queries' worth
    each (``QUERY_BLOCK``'s count)."""
    n = sum(sizes)
    return (n_t + 18) * (n * n - sum(s * s for s in sizes)) // 2


def _aggregate_block(
    experts: list[TrainedExpert], hp: Hyperparameters, X_star: np.ndarray, means: np.ndarray
) -> list[float]:
    """Write one block's aggregated means into ``means``; return the
    jitter each of its points needed on K_A."""
    M = len(experts)
    n_t = X_star.shape[0]

    def expert(e):
        """Gamma_i, the K_A diagonal entry and the local mean per point."""
        k_star = kernel_matrix(X_star, e.data.X, hp)
        gamma = np.ascontiguousarray(cho_solve(e.chol_C, k_star.T).T)
        row = gamma[:, None, :]
        y = np.broadcast_to(e.data.y, gamma.shape)
        return gamma, (row @ k_star[:, :, None])[:, 0, 0], (row @ y[:, :, None])[:, 0, 0]

    def pair(ij):
        i, j = ij
        cross = kernel_matrix(experts[i].data.X, experts[j].data.X, hp)
        g_i, g_j = gammas[i], gammas[j]
        K_A[:, i, j] = K_A[:, j, i] = (g_i[:, None, :] @ (cross @ g_j[:, :, None]))[:, 0, 0]

    work = _pair_work([e.data.n for e in experts], n_t)
    gammas, diagonal, local = zip(*in_shares(expert, experts, workers_for(work)))
    K_A = np.empty((n_t, M, M))
    K_A[:, range(M), range(M)] = np.column_stack(diagonal)
    local_means = np.column_stack(local)
    in_shares(pair, [(i, j) for i in range(M) for j in range(i + 1, M)], workers_for(work))

    weights, spd = spd_solve_each(K_A, K_A[:, range(M), range(M)])
    jitters = [0.0] * n_t
    for t in np.flatnonzero(~spd):
        L, jitters[t] = chol_jitter(K_A[t])
        weights[t] = cho_solve(L, K_A[t].diagonal())
    for t in range(n_t):
        means[t] = weights[t] @ local_means[t]
    return jitters
