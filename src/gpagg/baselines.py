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
(its mean and its variance) as the prior; its query-independent factors
are trained once per partitioning, theta and seed, and held under the
partitioning object until another training or the partitioning's
collection. Every expert's mean and variance, GRBCM's too, come from
``gp.posterior_terms``.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    blas_threads,
    chol_jitter,
    dgemm,
    dsyrk,
    dtrmm,
    inverse_lower,
    pack_lower,
    solve_lower,
    unpack_lower,
)
from ._workers import in_shares, workers_for
from .errors import DimensionError, NumericalError
from .gp import (
    Dataset,
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


def _training_work(n_b: int, sizes: list[int]) -> int:
    """Multiply-adds of training GRBCM's augmented experts on n_b base
    points: per expert of n_i points, W_i (n_b^2 n_i / 2), S_i
    (n_b n_i^2 / 2) and its factor (n_i^3 / 6)."""
    return sum(n_b * n_i * (n_b + n_i) // 2 + n_i**3 // 6 for n_i in sizes)


def _prediction_work(n_b: int, sizes: list[int], n_t: int) -> int:
    """Multiply-adds of one call's augmented experts on n_t queries: per
    expert of n_i points, the right-hand side (n_b n_i (n_t + 1)) and the
    triangular solve (n_i^2 (n_t + 1) / 2)."""
    k = n_t + 1
    return sum(n_b * n_i * k + n_i * n_i * k // 2 for n_i in sizes)


@dataclass(frozen=True, eq=False)
class _GrbcmModel:
    """GRBCM's query-independent part for one partitioning, theta and seed.

    ``base`` is the trained base expert and ``augmented`` the other
    partitions in order; ``schur_packed[i]`` is the factor L_Si of
    augmented expert i's Schur complement in packed storage
    (``_linalg.pack_lower``). Nothing here references the partitioning,
    which keys the model in ``_held``.
    """

    hp: Hyperparameters
    seed: int
    base: TrainedExpert
    augmented: list[Dataset]
    schur_packed: list[np.ndarray]

    def predict(self, X_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """RBCM's rule over the augmented experts at ``X_star``, with the
        base expert as the prior."""
        hp, base = self.hp, self.base.data
        X_star = check_test_inputs(X_star, base.d)
        L_b = self.base.chol_C
        wz_b = solve_lower(L_b, with_targets(base, X_star, hp))
        # v = C_b^-1 [k_b | y_b], so K_ib v = W_i' [w_b | z_b]
        v = solve_lower(L_b, wz_b, transpose=True)
        del L_b
        base_mean, base_explained = posterior_terms(wz_b)
        slots = [None] * len(self.augmented)

        def expert(i):
            part = self.augmented[i]
            # kernel_matrix's C-ordered n_i x n_b output is the Fortran-ordered K_bi
            rhs = dgemm(kernel_matrix(part.X, base.X, hp).T, v, with_targets(part, X_star, hp))
            L_S = unpack_lower(self.schur_packed[i], part.n)
            mean, explained = posterior_terms(solve_lower(L_S, rhs))
            slots[i] = (base_mean + mean, posterior_variance(hp, base_explained + explained))

        work = _prediction_work(base.n, [part.n for part in self.augmented], X_star.shape[0])
        in_shares(expert, list(range(len(self.augmented))), workers_for(work) // blas_threads())
        means, variances = zip(*slots)
        preds = ExpertPredictions(
            np.column_stack(means),
            np.column_stack(variances),
            posterior_variance(hp, base_explained),
            base_mean,
        )
        beta = entropy_weights(preds)
        beta[:, 0] = 1.0
        return poe_family_aggregate(preds, beta, True)


# The trained model of the latest partitioning, keyed by the object itself
# (``Partitioning`` compares by identity) and dropped when it is collected.
_held: weakref.WeakKeyDictionary[Partitioning, _GrbcmModel] = weakref.WeakKeyDictionary()


def _train_grbcm(partitioning: Partitioning, hp: Hyperparameters, seed: int) -> _GrbcmModel:
    """Factor the base partition, C_b = L_b L_b', and for every other
    partition i the Schur complement S_i = C_i - W_i' W_i = L_Si L_Si' of
    W_i = L_b^-1 K_bi; keep L_b and every L_Si packed and drop the rest."""
    M = len(partitioning.subsets)
    if M < 2:
        raise ValueError("GRBCM needs at least 2 partitions")
    # a copy, so that writing into the caller's lengthscale cannot change the key
    hp = Hyperparameters(hp.lengthscale.copy(), hp.signal_variance, hp.noise_variance)
    base_idx = grbcm_base_index(M, seed)
    base = train_expert(partitioning.subsets[base_idx], hp)
    L_b_inv = inverse_lower(base.chol_C)
    augmented = [part for i, part in enumerate(partitioning.subsets) if i != base_idx]
    slots = [None] * len(augmented)

    def expert(i):
        part = augmented[i]
        # kernel_matrix's C-ordered n_i x n_b and n_i x n_i outputs are
        # the Fortran-ordered K_bi and (symmetric) C_i, so BLAS writes
        # W_i and S_i's lower triangle over them in place. Each is dropped
        # after its last use, so W_i, S_i and L_Si are never alive at once.
        W = dtrmm(L_b_inv, kernel_matrix(part.X, base.data.X, hp).T)
        C = kernel_matrix(part.X, part.X, hp)
        C.flat[:: part.n + 1] += hp.noise_variance
        S = dsyrk(W, C.T)
        del W, C
        # S_i carries rounding on the scale of C_i's diagonal, which its
        # own diagonal (down to sigma^2) can undercut by orders of magnitude.
        L_S, jitter = chol_jitter(S, scale=hp.signal_variance + hp.noise_variance)
        del S
        slots[i] = (pack_lower(L_S), jitter)

    # Every step of an expert is a BLAS or LAPACK call large enough for
    # OpenBLAS to spread over its own threads. On 2 cores with two BLAS
    # threads, two workers ran a serve-shape call (n = 5000, M = 20, 50
    # queries, training and prediction) in 76-90 ms against 59-60 ms on
    # the caller's thread alone, so the workers share the CPUs with BLAS's
    # threads; prediction divides them the same way.
    work = _training_work(base.data.n, [part.n for part in augmented])
    in_shares(expert, list(range(len(augmented))), workers_for(work) // blas_threads())
    packed, jitters = zip(*slots)
    jittered = [j for j in jitters if j > 0.0]
    if jittered:
        log.warning(
            "grbcm_aggregate: %d of %d augmented experts needed Cholesky jitter on the Schur complement"
            " (largest %.3e)",
            len(jittered), len(augmented), max(jittered),
        )
    return _GrbcmModel(hp, seed, base, augmented, list(packed))


def grbcm_aggregate(
    partitioning: Partitioning,
    hp: Hyperparameters,
    X_star: np.ndarray,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized robust BCM over base-augmented experts.

    A base partition is drawn by ``seed`` and every other partition i is
    augmented with it. Training factors the base once, C_b = L_b L_b';
    with W_i = L_b^-1 K_bi, the Schur complement S_i = C_i - W_i' W_i =
    L_Si L_Si' completes the block factor [[L_b, 0], [W_i', L_Si]] that
    Cholesky builds on the merged covariance without jitter, so the
    predictions move only by rounding. A call solves [w_b | z_b] =
    L_b^-1 [k_b | y_b] and v = L_b^-T [w_b | z_b], and that factor's
    solve of [k | y] stacks the base expert's, as in ``predict``, over
    L_Si^-1 ([k_i | y_i] - K_ib v), since W_i' [w_b | z_b] = K_ib v; each
    block adds its ``posterior_terms``. Jitter, when needed, lands on the
    base factor and then on each Schur complement, never on a merged
    matrix; a training that jitters a Schur complement logs one warning
    with the number of jittered experts and the largest jitter. The
    experts are combined by RBCM's rule with the base expert as the
    prior: beta is the entropy gain relative to it, except 1 for the
    first.

    The trained model is held in a mapping weakly keyed by the
    partitioning object: L_b and every L_Si in packed storage, sum_i n_i
    (n_i + 1) / 2 doubles in all, plus references to the partitions. A
    call with the same partitioning object, an equal ``hp`` and the same
    ``seed`` reuses it and gives bitwise the outputs of a first call; any
    other call drops every held model, then trains its own. The model is
    freed with its partitioning, which must not be changed in place once
    used. Overlapping calls with different keys may each leave their
    model until the next training clears them.

    The augmented experts are independent given the base. Training, and
    each call, runs them in fixed shares on ``worker_count() //
    blas_threads()`` threads, the caller's among them, when its work on
    them reaches ``_workers.PARALLEL_WORK`` multiply-adds; their BLAS and
    LAPACK calls release the interpreter lock (see ``_linalg``). Each
    expert writes its own slot, so the outputs are bitwise those of one
    thread.
    """
    model = _held.get(partitioning)
    if model is None or model.hp != hp or model.seed != seed:
        _held.clear()  # the old model goes before the new one is built
        model = _held[partitioning] = _train_grbcm(partitioning, hp, seed)
    return model.predict(X_star)
