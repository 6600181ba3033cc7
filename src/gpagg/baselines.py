"""Conditional-independence aggregation baselines: PoE, GPoE, BCM, RBCM, GRBCM.

All rules combine per-test-point expert means and variances through
weighted precision sums over a prior N(prior_mean, prior_var):

    c         = (1 - sum_i beta_i) / prior_var
    precision = sum_i beta_i / var_i                          [+ c]
    mean      = (1 / precision) * (sum_i beta_i * mean_i / var_i  [+ c * prior_mean])

The bracketed prior-correction terms distinguish the committee-machine
family (BCM, RBCM) from the plain products (PoE, GPoE); the GP prior has
prior_mean = 0. PoE and BCM set beta = 1, GPoE 1/M, RBCM the entropy gain
(``entropy_weights``); other weights go to ``poe_family_aggregate``.
GRBCM is RBCM's rule over base-augmented experts with the base expert
(its mean and its variance) as the prior. Every expert's mean and
variance, GRBCM's too, come from ``gp.posterior_terms``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._linalg import blas_threads, chol_jitter, dgemm, dsyrk, dtrmm, inverse_lower, solve_lower
from ._workers import in_shares, workers_for
from .errors import DimensionError, NumericalError
from .gp import (
    Hyperparameters,
    TrainedExpert,
    check_test_inputs,
    kernel_matrix,
    posterior_terms,
    posterior_variance,
    predict,
    train_expert,
    with_targets,
)
from .partition import Partitioning

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ExpertPredictions:
    """Per-expert posterior means/variances plus the prior they combine over.

    ``means`` and ``variances`` are n_t x M (one column per expert).
    ``prior_variance`` and ``prior_mean`` describe the prior per test
    point: for the GP prior, k(x*,x*) + sigma^2 and zero (a scalar is
    broadcast); GRBCM puts its base expert's prediction there. Means must
    be finite and variances finite and strictly positive; prior >=
    posterior is deliberately not required (it can fail under model
    mismatch).
    """

    means: np.ndarray
    variances: np.ndarray
    prior_variance: np.ndarray
    prior_mean: np.ndarray | float = 0.0

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        variances = np.atleast_2d(np.asarray(self.variances, dtype=float))
        prior = np.asarray(self.prior_variance, dtype=float).ravel()
        prior_mean = np.asarray(self.prior_mean, dtype=float).ravel()
        if means.shape != variances.shape:
            raise DimensionError("means and variances must have identical shape")
        if prior.size != means.shape[0]:
            raise DimensionError("prior_variance length must equal the number of test points")
        if prior_mean.size not in (1, prior.size):
            raise DimensionError("prior_mean must be a scalar or one entry per test point")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(prior_mean))):
            raise ValueError("means and prior_mean must be finite")
        if not all(np.all(np.isfinite(v) & (v > 0)) for v in (variances, prior)):
            raise ValueError("variances must be finite and strictly positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "prior_variance", prior)
        object.__setattr__(self, "prior_mean", np.broadcast_to(prior_mean, prior.shape))

    @property
    def n_experts(self) -> int:
        return self.means.shape[1]


def collect_predictions(
    experts: list[TrainedExpert], X_star: np.ndarray, hp: Hyperparameters | None = None
) -> ExpertPredictions:
    """Run every expert on the test inputs and stack the results."""
    cols = []
    for expert in experts:
        hp = hp or expert.hp
        cols.append(predict(expert, X_star, hp))
    if not cols:
        raise ValueError("need at least one expert")
    means = np.column_stack([m for m, _ in cols])
    variances = np.column_stack([v for _, v in cols])
    prior = np.full(means.shape[0], hp.signal_variance + hp.noise_variance)
    return ExpertPredictions(means, variances, prior)


def entropy_weights(preds: ExpertPredictions) -> np.ndarray:
    """RBCM's expert importance weights beta (n_t x M): the
    differential-entropy gain 1/2 (log prior_var - log var_i) per point."""
    return 0.5 * (np.log(preds.prior_variance)[:, None] - np.log(preds.variances))


def poe_family_aggregate(
    preds: ExpertPredictions, beta: np.ndarray, use_prior_correction: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted product of expert Gaussians, optionally prior-corrected.

    Without the correction this is PoE/GPoE; with it, BCM/RBCM/GRBCM.
    The combined precision must stay positive at every test point.
    """
    if beta.shape != preds.means.shape:
        raise DimensionError("weights shape does not match predictions")
    prec = beta / preds.variances
    agg_prec = prec.sum(axis=1)
    numerator = np.sum(prec * preds.means, axis=1)
    if use_prior_correction:
        prior_prec = (1.0 - beta.sum(axis=1)) / preds.prior_variance
        agg_prec = agg_prec + prior_prec
        numerator = numerator + prior_prec * preds.prior_mean
    bad = np.where(agg_prec <= 0)[0]
    if bad.size:
        raise NumericalError(f"non-positive aggregated precision at test index {bad[0]}")
    variance = 1.0 / agg_prec
    return variance * numerator, variance


def poe(preds: ExpertPredictions) -> tuple[np.ndarray, np.ndarray]:
    """Product of experts: beta = 1, no prior correction."""
    return poe_family_aggregate(preds, np.ones(preds.means.shape), False)


def gpoe(preds: ExpertPredictions) -> tuple[np.ndarray, np.ndarray]:
    """Generalized product of experts: uniform beta = 1/M, no prior correction."""
    return poe_family_aggregate(preds, np.full(preds.means.shape, 1.0 / preds.n_experts), False)


def bcm(preds: ExpertPredictions) -> tuple[np.ndarray, np.ndarray]:
    """Bayesian committee machine: beta = 1 with the prior correction."""
    return poe_family_aggregate(preds, np.ones(preds.means.shape), True)


def rbcm(preds: ExpertPredictions) -> tuple[np.ndarray, np.ndarray]:
    """Robust BCM: entropy-gain weights with the prior correction."""
    return poe_family_aggregate(preds, entropy_weights(preds), True)


def grbcm_base_index(M: int, seed: int) -> int:
    """The seeded random draw selecting GRBCM's base partition."""
    return int(np.random.default_rng(seed).integers(M))


def _augmented_work(n_b: int, sizes: list[int], n_t: int) -> int:
    """Multiply-adds of GRBCM's augmented experts with n_b base points:
    per expert of n_i points, W_i (n_b^2 n_i / 2), S_i (n_b n_i^2 / 2),
    its factor (n_i^3 / 6), the right-hand side (n_b n_i (n_t + 1)) and
    the triangular solve (n_i^2 (n_t + 1) / 2)."""
    k = n_t + 1
    return sum(n_b * n_i * (n_b + n_i) // 2 + n_i**3 // 6 + n_b * n_i * k + n_i * n_i * k // 2 for n_i in sizes)


def grbcm_aggregate(
    partitioning: Partitioning,
    hp: Hyperparameters,
    X_star: np.ndarray,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized robust BCM over base-augmented experts.

    A base partition is drawn by ``seed`` and every other partition i is
    augmented with it. The base is factored once, C_b = L_b L_b'; with
    W_i = L_b^-1 K_bi, the Schur complement S_i = C_i - W_i' W_i =
    L_Si L_Si' completes the block factor [[L_b, 0], [W_i', L_Si]] that
    Cholesky builds on the merged covariance without jitter, so the
    predictions move only by rounding. That factor's solve of [k | y]
    stacks the base expert's, as in ``predict``, over L_Si^-1 ([k_i | y_i]
    - W_i' [w_b | z_b]), and each block adds its ``posterior_terms``.
    Jitter, when needed, lands on the base factor and then on each Schur
    complement, never on a merged matrix; a call that jitters a Schur
    complement logs one warning with the number of jittered experts and
    the largest jitter. The experts are combined by RBCM's rule with the
    base expert as the prior: beta is the entropy gain relative to it,
    except 1 for the first.

    The augmented experts are independent given the base. A call whose
    work on them reaches ``_workers.PARALLEL_WORK`` multiply-adds runs
    them in fixed shares on ``worker_count() // blas_threads()`` threads,
    the caller's among them; their BLAS and LAPACK calls release the
    interpreter lock (see ``_linalg``). Each expert writes its own slot,
    so the outputs are bitwise those of one thread.
    """
    M = len(partitioning.subsets)
    if M < 2:
        raise ValueError("GRBCM needs at least 2 partitions")
    base_idx = grbcm_base_index(M, seed)
    base = partitioning.subsets[base_idx]
    X_star = check_test_inputs(X_star, base.d)
    L_b = train_expert(base, hp).chol_C
    wz_b = solve_lower(L_b, with_targets(base, X_star, hp))
    L_b_inv = inverse_lower(L_b)
    base_mean, base_explained = posterior_terms(wz_b)
    augmented = [part for i, part in enumerate(partitioning.subsets) if i != base_idx]
    slots = [None] * len(augmented)

    def expert(k):
        part = augmented[k]
        # kernel_matrix's C-ordered n_i x n_b and n_i x n_i outputs are
        # the Fortran-ordered K_bi and (symmetric) C_i, so BLAS writes
        # W_i and S_i's lower triangle over them in place.
        W = dtrmm(1.0, L_b_inv, kernel_matrix(part.X, base.X, hp).T, lower=1, overwrite_b=1)
        C = kernel_matrix(part.X, part.X, hp)
        C.flat[:: part.n + 1] += hp.noise_variance
        S = dsyrk(-1.0, W, beta=1.0, c=C.T, trans=1, lower=1, overwrite_c=1)
        # S_i carries rounding on the scale of C_i's diagonal, which its
        # own diagonal (down to sigma^2) can undercut by orders of magnitude.
        L_S, jitter = chol_jitter(S, scale=hp.signal_variance + hp.noise_variance)
        rhs = dgemm(-1.0, W, wz_b, beta=1.0, c=with_targets(part, X_star, hp), trans_a=1, overwrite_c=1)
        mean, explained = posterior_terms(solve_lower(L_S, rhs))
        slots[k] = (base_mean + mean, posterior_variance(hp, base_explained + explained), jitter)

    # Every step of an expert is a BLAS or LAPACK call large enough for
    # OpenBLAS to spread over its own threads. On 2 cores with two BLAS
    # threads, two workers ran a serve-shape call (n = 5000, M = 20, 50
    # queries) in 76-90 ms against 59-60 ms on the caller's thread alone,
    # so the workers share the CPUs with BLAS's threads.
    work = _augmented_work(base.n, [part.n for part in augmented], X_star.shape[0])
    in_shares(expert, list(range(len(augmented))), workers_for(work) // blas_threads())
    means, variances, jitters = zip(*slots)
    jittered = [j for j in jitters if j > 0.0]
    if jittered:
        log.warning(
            "grbcm_aggregate: %d of %d augmented experts needed Cholesky jitter on the Schur complement"
            " (largest %.3e)",
            len(jittered), len(augmented), max(jittered),
        )
    preds = ExpertPredictions(
        np.column_stack(means),
        np.column_stack(variances),
        posterior_variance(hp, base_explained),
        base_mean,
    )
    beta = entropy_weights(preds)
    beta[:, 0] = 1.0
    return poe_family_aggregate(preds, beta, True)
