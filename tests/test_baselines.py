import ast
import gc
import inspect
import logging
import math
import sys
import textwrap
import threading
import weakref

import numpy as np
import pytest

from gpagg import _workers, baselines, gp
from gpagg import (
    Dataset,
    DimensionError,
    ExpertPredictions,
    Hyperparameters,
    NumericalError,
    Partitioning,
    bcm,
    collect_predictions,
    emggm_aggregate,
    gpoe,
    grbcm_aggregate,
    kmeans_partition,
    npae_aggregate,
    poe,
    poe_family_aggregate,
    predict,
    rbcm,
    train_expert,
)
from gpagg.baselines import entropy_weights, grbcm_base_index


def make_preds(means, variances, prior=None):
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if prior is None:
        prior = np.full(means.shape[0], 2.0)
    return ExpertPredictions(means, variances, prior)


class TestWeights:
    def test_entropy_zero_when_posterior_equals_prior(self):
        prior = np.full(5, 1.7)
        preds = make_preds(np.zeros((5, 2)), np.full((5, 2), 1.7), prior)
        assert np.allclose(entropy_weights(preds), 0.0)

    def test_entropy_half_at_log_ratio_one(self):
        prior = np.full(4, math.e * 0.9)
        preds = make_preds(np.zeros((4, 3)), np.full((4, 3), 0.9), prior)
        assert np.allclose(entropy_weights(preds), 0.5)

    def test_variances_must_be_positive(self):
        with pytest.raises(ValueError):
            make_preds(np.zeros((2, 2)), np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_means_and_variances_need_one_shape(self):
        with pytest.raises(DimensionError, match="identical shape"):
            ExpertPredictions(np.zeros((3, 2)), np.ones((3, 3)), np.full(3, 2.0))

    def test_prior_variance_needs_one_entry_per_test_point(self):
        with pytest.raises(DimensionError, match="prior_variance length"):
            ExpertPredictions(np.zeros((3, 2)), np.ones((3, 2)), np.full(2, 2.0))

    def test_prior_mean_needs_one_entry_per_test_point(self):
        with pytest.raises(DimensionError):
            ExpertPredictions(np.zeros((3, 2)), np.ones((3, 2)), np.full(3, 2.0), [0.0, 1.0])


class TestNonFinitePredictions:
    def test_nan_mean_raises(self):
        with pytest.raises(ValueError, match="finite"):
            make_preds(np.array([[0.0, np.nan], [1.0, 1.0]]), np.ones((2, 2)))

    def test_inf_variance_raises(self):
        with pytest.raises(ValueError, match="finite"):
            make_preds(np.zeros((2, 2)), np.array([[1.0, np.inf], [1.0, np.inf]]))

    def test_nan_prior_mean_raises(self):
        with pytest.raises(ValueError, match="finite"):
            ExpertPredictions(np.zeros((2, 2)), np.ones((2, 2)), np.full(2, 2.0), [0.0, np.nan])

    def test_inf_prior_variance_raises(self):
        with pytest.raises(ValueError, match="finite"):
            make_preds(np.zeros((2, 2)), np.ones((2, 2)), prior=np.array([2.0, np.inf]))


class TestPoeFamily:
    def test_two_expert_product_closed_form(self):
        preds = make_preds([[1.0, 3.0]], [[1.0, 1.0]])
        mean, var = poe(preds)
        assert mean[0] == pytest.approx(2.0, abs=1e-14)
        assert var[0] == pytest.approx(0.5, abs=1e-14)

    def test_single_expert_recovered_exactly(self):
        preds = make_preds([[1.3], [-0.4]], [[0.7], [0.9]])
        w = np.ones((2, 1))
        for flag in (False, True):
            mean, var = poe_family_aggregate(preds, w, flag)
            # exact up to one float rounding from the 1/(1/x) round trip
            assert np.allclose(mean, preds.means[:, 0], rtol=1e-15, atol=0)
            assert np.allclose(var, preds.variances[:, 0], rtol=1e-15, atol=0)

    def test_identical_experts_gpoe_inv_m_recovers_expert(self):
        col_m = np.array([0.5, -1.0, 2.0])
        col_v = np.array([0.3, 0.8, 1.1])
        preds = make_preds(np.tile(col_m[:, None], 5), np.tile(col_v[:, None], 5))
        mean, var = gpoe(preds)
        assert np.allclose(mean, col_m, atol=1e-14)
        assert np.allclose(var, col_v, atol=1e-14)

    def test_poe_precision_grows_with_expert_count(self):
        prev = np.inf
        for M in (1, 2, 4, 8):
            preds = make_preds(np.zeros((1, M)), np.full((1, M), 0.5))
            _, var = poe(preds)
            assert var[0] < prev
            prev = var[0]

    def test_gpoe_convex_weights_variance_bound(self):
        rng = np.random.default_rng(1)
        preds = make_preds(rng.standard_normal((8, 5)), rng.uniform(0.1, 2.0, (8, 5)))
        _, var = gpoe(preds)  # betas sum to one per point
        assert np.all(var >= preds.variances.min(axis=1) - 1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        means = rng.standard_normal((7, 5))
        variances = rng.uniform(0.2, 1.4, (7, 5))
        prior = np.full(7, 2.0)
        perm = rng.permutation(5)
        for fn in (poe, gpoe, bcm, rbcm):
            a = fn(ExpertPredictions(means, variances, prior))
            b = fn(ExpertPredictions(means[:, perm], variances[:, perm], prior))
            assert np.allclose(a[0], b[0], atol=1e-12)
            assert np.allclose(a[1], b[1], atol=1e-12)

    def test_non_positive_precision_names_test_index(self):
        # large weights on weak experts push the corrected precision negative
        preds = make_preds([[0.0, 0.0]], [[1e6, 1e6]], prior=np.array([1.0]))
        w = np.full((1, 2), 2.5)
        with pytest.raises(NumericalError, match="test index 0"):
            poe_family_aggregate(preds, w, True)

    def test_weight_shape_mismatch_raises(self):
        preds = make_preds(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(Exception):
            poe_family_aggregate(preds, np.ones((3, 2)), False)


class TestCollectPredictions:
    def test_columns_match_individual_experts(self):
        rng = np.random.default_rng(3)
        hp = Hyperparameters([0.5], 1.0, 0.1)
        parts = [
            Dataset(rng.uniform(0, 1, (6, 1)), rng.standard_normal(6)) for _ in range(3)
        ]
        experts = [train_expert(p, hp) for p in parts]
        X_star = rng.uniform(0, 1, (4, 1))
        preds = collect_predictions(experts, X_star, hp)
        for i, e in enumerate(experts):
            m, v = predict(e, X_star, hp)
            assert np.array_equal(preds.means[:, i], m)
            assert np.array_equal(preds.variances[:, i], v)
        assert np.allclose(preds.prior_variance, 1.1)
        assert np.all(preds.prior_mean == 0.0)

    @staticmethod
    def _setup(M, n_per, n_t, seed=5):
        rng = np.random.default_rng(seed)
        hp = Hyperparameters([0.3], 1.0, 0.05)
        experts = [train_expert(s, hp) for s in _chunked_partitions(rng, 1, M, n_per).subsets]
        return experts, hp, rng.uniform(-0.2, 1.2, (n_t, 1))

    def test_worker_counts_give_the_bits_of_one(self, monkeypatch):
        # threshold 0: every call runs on the workers, and 3 workers split
        # 7 experts unevenly
        experts, hp, X_star = self._setup(7, 40, 30)
        monkeypatch.setattr(_workers, "PARALLEL_WORK", 0)
        threads = _recording_threads(monkeypatch, "predict")
        outputs = []
        for workers in (1, 3):
            monkeypatch.setattr(_workers, "worker_count", lambda: workers)
            threads.clear()
            preds = collect_predictions(experts, X_star, hp)
            outputs.append((preds.means, preds.variances, preds.prior_variance))
            assert len(set(threads)) == workers
        assert _bitwise(*outputs)
        for i, e in enumerate(experts):
            assert _bitwise((outputs[1][0][:, i], outputs[1][1][:, i]), gp.predict(e, X_star, hp))

    @pytest.mark.parametrize(
        "M, n_per, n_t, threaded", [(20, 250, 50, True), (4, 75, 10, False)], ids=["serve batch", "tiny batch"]
    )
    def test_threshold_decides_who_runs_the_experts(self, monkeypatch, M, n_per, n_t, threaded):
        # unpatched PARALLEL_WORK, two workers on any machine: a serve batch
        # (n_t sum_i n_i^2 = 6.25e7 multiply-adds) reaches it, a tiny one
        # (2.25e5) stays on the caller's thread and starts no thread
        experts, hp, X_star = self._setup(M, n_per, n_t)
        monkeypatch.setattr(_workers, "worker_count", lambda: 2)
        if not threaded:
            _refuse_threads(monkeypatch)
        threads = _recording_threads(monkeypatch, "predict")
        collect_predictions(experts, X_star, hp)
        assert threading.current_thread() in threads
        assert len(set(threads)) == (2 if threaded else 1)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_earliest_mismatched_expert_raises(self, monkeypatch, workers):
        # experts 2 and 4 of 6 were factorized under another theta; on 3
        # workers they fall in shares 2 and 1, so expert 4 may fail first
        monkeypatch.setattr(_workers, "PARALLEL_WORK", 0)
        monkeypatch.setattr(_workers, "worker_count", lambda: workers)
        experts, hp, X_star = self._setup(6, 20, 15)
        other = Hyperparameters([0.4], 1.0, 0.05)
        experts[2], experts[4] = (train_expert(experts[i].data, other) for i in (2, 4))
        index = {id(e): i for i, e in enumerate(experts)}

        def naming(e, X, hp):
            try:
                return gp.predict(e, X, hp)
            except ValueError as exc:
                raise ValueError(f"expert {index[id(e)]}: {exc}") from exc

        monkeypatch.setattr(baselines, "predict", naming)
        with pytest.raises(ValueError, match="^expert 2: hyperparameters differ"):
            collect_predictions(experts, X_star)

    def test_no_experts_raises(self):
        with pytest.raises(ValueError, match="need at least one expert"):
            collect_predictions([], np.zeros((3, 1)))


def test_empty_query_batch_gives_empty_outputs():
    # a (0, d) batch is a valid query: every method that can answer it
    # returns empty arrays of the right shapes, and EMGGM, which needs a
    # sample covariance over the test points, names what it lacks
    rng = np.random.default_rng(16)
    hp = Hyperparameters([0.3, 0.4], 1.0, 0.1)
    data = Dataset(rng.uniform(0, 1, (60, 2)), rng.standard_normal(60))
    parts = kmeans_partition(data, 3, seed=0)
    experts = [train_expert(s, hp) for s in parts.subsets]
    X_star = np.empty((0, 2))
    mean, var = predict(experts[0], X_star, hp)
    assert mean.shape == var.shape == (0,)
    preds = collect_predictions(experts, X_star, hp)
    assert preds.means.shape == preds.variances.shape == (0, 3)
    for rule in (poe, gpoe, bcm, rbcm):
        mean, var = rule(preds)
        assert mean.shape == var.shape == (0,)
    mean, var = grbcm_aggregate(parts, hp, X_star, seed=0)
    assert mean.shape == var.shape == (0,)
    assert npae_aggregate(experts, hp, X_star).shape == (0,)
    with pytest.raises(ValueError, match="need at least 2 test points"):
        emggm_aggregate(preds)


# From one point to 384, the largest order at which each column of
# OpenBLAS's multi-column triangular solve (dtrsm) has the bits it has
# when solved alone; one expert of exactly that order
BATCH_SIZES = [1, 7, 129, 250, 384]


def batch_experts(d):
    rng = np.random.default_rng(d)
    hp = Hyperparameters([0.3, 0.4][:d], 1.0, 0.05)
    experts = [train_expert(Dataset(rng.uniform(0, 1, (k, d)), rng.standard_normal(k)), hp) for k in BATCH_SIZES]
    return experts, hp, rng.uniform(-0.2, 1.2, (60, d))


def assert_batch_independent(f, X):
    """Each array ``f`` returns holds one row per query, and every row has
    the same bits in one batch, one query per call, in pieces and
    permuted; an empty batch gives empty arrays of the same shape."""
    batch = f(X)
    perm = np.random.default_rng(1).permutation(len(X))
    runs = {
        "one query per call": (np.arange(len(X)), [f(X[t : t + 1]) for t in range(len(X))]),
        "split": (np.arange(len(X)), [f(X[a:b]) for a, b in ((0, 23), (23, 24), (24, len(X)))]),
        "permuted": (perm, [f(X[perm[a:b]]) for a, b in ((0, 37), (37, len(X)))]),
    }
    for name, (order, calls) in runs.items():
        for k, whole in enumerate(batch):
            assert np.array_equal(np.concatenate([c[k] for c in calls]), whole[order]), (name, k)
    for whole, empty in zip(batch, f(X[:0])):
        assert empty.shape == (0, *whole.shape[1:])


@pytest.mark.parametrize("d", [1, 2])
class TestBatchIndependence:
    """An expert's posterior, and every rule built on it alone, does not
    depend on which other queries share the call, for experts of up to
    384 points."""

    def test_predict(self, d):
        experts, hp, X_star = batch_experts(d)
        for e in experts:
            assert_batch_independent(lambda X: predict(e, X, hp), X_star)

    def test_collect_predictions(self, d):
        experts, hp, X_star = batch_experts(d)

        def collected(X):
            preds = collect_predictions(experts, X, hp)
            return preds.means, preds.variances, preds.prior_variance

        assert_batch_independent(collected, X_star)

    @pytest.mark.parametrize("rule", [poe, gpoe, bcm, rbcm])
    def test_poe_rules(self, d, rule):
        experts, hp, X_star = batch_experts(d)
        assert_batch_independent(lambda X: rule(collect_predictions(experts, X, hp)), X_star)


def _grbcm_merged_reference(partitioning, hp, X_star, seed):
    """GRBCM as it was computed before the base-factor conditioning:
    every augmented expert factors its merged covariance."""
    M = len(partitioning.subsets)
    if M < 2:
        raise ValueError("GRBCM needs at least 2 partitions")
    base_idx = grbcm_base_index(M, seed)
    base = partitioning.subsets[base_idx]
    others = [s for i, s in enumerate(partitioning.subsets) if i != base_idx]
    merged = [Dataset(np.vstack([base.X, s.X]), np.concatenate([base.y, s.y])) for s in others]
    joint = collect_predictions([train_expert(d, hp) for d in [base, *merged]], X_star, hp)
    preds = ExpertPredictions(
        joint.means[:, 1:], joint.variances[:, 1:], joint.variances[:, 0], joint.means[:, 0]
    )
    beta = entropy_weights(preds)
    beta[:, 0] = 1.0
    return poe_family_aggregate(preds, beta, True)


def _assert_matches_reference(mean, var, ref_mean, ref_var, var_scale):
    """Both within 1e-10 relative: means to the batch's largest mean,
    variances to ``var_scale``."""
    assert np.all(np.abs(mean - ref_mean) <= 1e-10 * np.max(np.abs(ref_mean)))
    assert np.all(np.abs(var - ref_var) <= 1e-10 * var_scale)


def _identical_partitions(n, noise):
    # three copies of one partition: every augmented expert sees its base twice
    X = np.linspace(0, 1, n)[:, None]
    base = Dataset(X, np.sin(6 * X[:, 0]))
    parts = Partitioning(np.repeat(np.arange(3), n), [base, base, base], "random")
    X_star = np.random.default_rng(5).uniform(0, 1, (20, 1))
    return Hyperparameters([0.5], 1.0, noise), parts, X_star


class TestGrbcmAgainstMergedExperts:
    SEEDS = (0, 1, 2)

    @pytest.mark.parametrize("M", [2, 3, 5, 20])
    @pytest.mark.parametrize(
        "d, lengthscale", [(1, [0.3]), (3, [0.5]), (3, [0.3, 0.6, 1.2])], ids=["d1", "d3-iso", "d3-ard"]
    )
    def test_base_conditioning_matches_merged_factorization(self, M, d, lengthscale):
        hp = Hyperparameters(lengthscale, 1.3, 0.01)
        rng = np.random.default_rng(M)
        X = rng.uniform(0, 1, (15 * M, d))
        data = Dataset(X, np.sin(5 * X.sum(axis=1)) + 0.1 * rng.standard_normal(15 * M))
        parts = kmeans_partition(data, M, seed=0)
        assert len({grbcm_base_index(M, seed) for seed in self.SEEDS}) > 1
        for n_t in (1, 7, 300):
            X_star = rng.uniform(-0.1, 1.1, (n_t, d))
            for seed in self.SEEDS:
                mean, var = grbcm_aggregate(parts, hp, X_star, seed)
                ref_mean, ref_var = _grbcm_merged_reference(parts, hp, X_star, seed)
                _assert_matches_reference(mean, var, ref_mean, ref_var, ref_var)

    def test_identical_partitions_without_jitter_match(self, monkeypatch):
        # The Schur complement of a repeated partition is at least sigma^2 I
        # in exact arithmetic, and at noise 1e-6 rounding stays far below it.
        # The variances sit near sigma^2, so they are compared on the scale
        # of the prior variance they are subtracted from.
        jitters = []
        chol_jitter = baselines.chol_jitter

        def recording(A, **kwargs):
            L, jitter = chol_jitter(A, **kwargs)
            jitters.append(jitter)
            return L, jitter

        monkeypatch.setattr(baselines, "chol_jitter", recording)
        hp, parts, X_star = _identical_partitions(6, 1e-6)
        mean, var = grbcm_aggregate(parts, hp, X_star, seed=0)
        assert jitters == [0.0, 0.0]
        ref_mean, ref_var = _grbcm_merged_reference(parts, hp, X_star, 0)
        _assert_matches_reference(mean, var, ref_mean, ref_var, hp.signal_variance + hp.noise_variance)

    def test_identical_partitions_jitter_each_schur_complement(self, monkeypatch):
        # At noise 1e-12 rounding swamps the Schur complement's sigma^2. Its
        # jitter is counted in units of the covariance it came from: in units
        # of its own diagonal (~sigma^2) the ladder would end near 1e-16 and
        # raise.
        jitters = []
        chol_jitter = baselines.chol_jitter

        def recording(A, **kwargs):
            L, jitter = chol_jitter(A, **kwargs)
            jitters.append(jitter)
            return L, jitter

        monkeypatch.setattr(baselines, "chol_jitter", recording)
        hp, parts, X_star = _identical_partitions(30, 1e-12)
        mean, var = grbcm_aggregate(parts, hp, X_star, seed=0)
        assert len(jitters) == 2 and all(j > 0 for j in jitters)
        assert np.all(np.isfinite(mean)) and np.all(var > 0)
        ref_mean, _ = _grbcm_merged_reference(parts, hp, X_star, 0)
        assert np.max(np.abs(mean - ref_mean)) < 1e-5
        assert np.max(np.abs(mean - np.sin(6 * X_star[:, 0]))) < 1e-5


def _numpy_blas_uses(tree: ast.AST) -> list[str]:
    """Products that run on numpy's BLAS: ``@`` and numpy's product functions."""
    products = {"dot", "matmul", "tensordot", "inner", "vdot", "einsum"}
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append("@")
        elif isinstance(node, ast.Attribute) and node.attr in products:
            uses.append(node.attr)
    return uses


def test_collect_loop_and_grbcm_run_on_scipy_blas_alone():
    # numpy's and scipy's OpenBLAS each keep a thread pool; a loop that
    # alternates between them leaves one pool's threads holding the cores.
    # collect_predictions' experts and GRBCM's two phases call _linalg on scipy's.
    for fn in (
        baselines.grbcm_aggregate,
        baselines._train_grbcm,
        baselines._GrbcmModel.predict,
        baselines.collect_predictions,
        gp.predict,
        gp.with_targets,
        gp.posterior_terms,
    ):
        assert _numpy_blas_uses(ast.parse(textwrap.dedent(inspect.getsource(fn)))) == [], fn.__name__
    for snippet in ("a @ b", "a @= b", "np.dot(a, b)", "np.matmul(a, b)", "a.dot(b)"):
        assert _numpy_blas_uses(ast.parse(snippet)), snippet


class TestGrbcm:
    @staticmethod
    def _setup(M, n_per=8, seed=4):
        rng = np.random.default_rng(seed)
        hp = Hyperparameters([0.4], 1.0, 0.05)
        data = Dataset(rng.uniform(0, 1, (M * n_per, 1)), rng.standard_normal(M * n_per))
        parts = kmeans_partition(data, M, seed=seed)
        X_star = rng.uniform(0, 1, (5, 1))
        return hp, data, parts, X_star

    def test_two_partitions_equal_full_gp(self):
        hp, data, parts, X_star = self._setup(2)
        mean, _ = grbcm_aggregate(parts, hp, X_star, seed=0)
        full_mean, _ = predict(train_expert(data, hp), X_star, hp)
        assert np.allclose(mean, full_mean, atol=1e-8)

    def test_identical_partitions_recover_augmented_expert(self):
        # all augmented experts coincide; the aggregate can deviate from them
        # only through the base-correction term, which is bounded by the
        # base-vs-augmented prediction gap (and vanishes as noise -> 0)
        rng = np.random.default_rng(5)
        hp = Hyperparameters([0.5], 1.0, 1e-6)
        base = Dataset(np.linspace(0, 1, 6)[:, None], rng.standard_normal(6))
        parts = Partitioning(
            assignments=np.repeat(np.arange(3), 6),
            subsets=[base, base, base],
            method="random",
        )
        X_star = rng.uniform(0, 1, (4, 1))
        mean, _ = grbcm_aggregate(parts, hp, X_star, seed=0)
        merged = Dataset(np.vstack([base.X, base.X]), np.concatenate([base.y, base.y]))
        aug_mean, _ = predict(train_expert(merged, hp), X_star, hp)
        base_mean, _ = predict(train_expert(base, hp), X_star, hp)
        gap = np.max(np.abs(aug_mean - base_mean))
        assert np.max(np.abs(mean - aug_mean)) <= gap + 1e-12
        assert np.allclose(mean, aug_mean, atol=2e-3)

    def test_matches_pointwise_formula_transcription(self):
        hp, data, parts, X_star = self._setup(3)
        mean, var = grbcm_aggregate(parts, hp, X_star, seed=7)

        # transcription oracle: scalar arithmetic per test point
        base_idx = int(np.random.default_rng(7).integers(3))
        base = parts.subsets[base_idx]
        mu_b, var_b = predict(train_expert(base, hp), X_star, hp)
        others = [s for i, s in enumerate(parts.subsets) if i != base_idx]
        preds = []
        for s in others:
            merged = Dataset(np.vstack([base.X, s.X]), np.concatenate([base.y, s.y]))
            preds.append(predict(train_expert(merged, hp), X_star, hp))
        for t in range(X_star.shape[0]):
            betas = [1.0]
            for k in range(1, len(others)):
                betas.append(0.5 * (math.log(var_b[t]) - math.log(preds[k][1][t])))
            prec = sum(b / p[1][t] for b, p in zip(betas, preds))
            prec += (1.0 - sum(betas)) / var_b[t]
            num = sum(b * p[0][t] / p[1][t] for b, p in zip(betas, preds))
            num += (1.0 - sum(betas)) * mu_b[t] / var_b[t]
            assert mean[t] == pytest.approx(num / prec, rel=1e-10)
            assert var[t] == pytest.approx(1.0 / prec, rel=1e-10)

    def test_single_partition_raises(self):
        hp, data, parts, X_star = self._setup(2)
        single = Partitioning(np.zeros(data.n, dtype=int), [data], "kmeans")
        with pytest.raises(ValueError):
            grbcm_aggregate(single, hp, X_star, seed=0)


def _chunked_partitions(rng, d, M, n_per):
    """M partitions of exactly n_per random points each."""
    X = rng.uniform(0, 1, (M * n_per, d))
    y = np.sin(5 * X.sum(axis=1)) + 0.1 * rng.standard_normal(M * n_per)
    subsets = [Dataset(X[k * n_per : (k + 1) * n_per], y[k * n_per : (k + 1) * n_per]) for k in range(M)]
    return Partitioning(np.repeat(np.arange(M), n_per), subsets, "random")


def _fresh(parts):
    """A new partitioning object over the same subsets: its first GRBCM
    call trains."""
    return Partitioning(parts.assignments, list(parts.subsets), parts.method)


def _bitwise(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.fixture(params=[2, 3], ids=["2 workers", "3 workers"])
def threaded(request, monkeypatch):
    """Every GRBCM call on ``request.param`` workers, however small: the
    threshold is 0, and 3 workers split the augmented experts unevenly."""
    monkeypatch.setattr(_workers, "PARALLEL_WORK", 0)
    monkeypatch.setattr(_workers, "worker_count", lambda: request.param)
    return request.param


def _on_one_worker(monkeypatch, *args):
    with monkeypatch.context() as m:
        m.setattr(_workers, "worker_count", lambda: 1)
        return grbcm_aggregate(*args)


def _recording_threads(monkeypatch, name):
    """Patch ``baselines.<name>`` to record the thread of every call:
    ``kernel_matrix`` runs in both of GRBCM's phases, ``chol_jitter``
    only in training."""
    threads = []
    original = getattr(baselines, name)

    def recording(*args, **kwargs):
        threads.append(threading.current_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(baselines, name, recording)
    return threads


def _refuse_threads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(_workers.threading, "Thread", refuse)


class TestGrbcmWorkerShares:
    """Each augmented expert runs on one share and writes its own slot, in
    training and in every call, so any number of workers gives the bits
    of one."""

    # M = 2 has one augmented expert of 150 points, M = 20 nineteen of 12
    @pytest.mark.parametrize("n_t", [0, 1, 50, 400])
    @pytest.mark.parametrize("M, n_per", [(2, 150), (20, 12)])
    @pytest.mark.parametrize("d", [1, 2])
    def test_threaded_outputs_equal_one_worker(self, threaded, monkeypatch, d, M, n_per, n_t):
        rng = np.random.default_rng(100 * d + M)
        parts = _chunked_partitions(rng, d, M, n_per)
        hp = Hyperparameters([0.3] * d, 1.3, 0.01)
        X_star = rng.uniform(-0.1, 1.1, (n_t, d))
        threads = _recording_threads(monkeypatch, "kernel_matrix")
        for seed in (0, 1):
            one = _fresh(parts)
            cold_one = _on_one_worker(monkeypatch, one, hp, X_star, seed)
            warm_one = _on_one_worker(monkeypatch, one, hp, X_star, seed)
            many = _fresh(parts)
            spread = []
            for expected in (cold_one, warm_one):
                threads.clear()
                assert _bitwise(grbcm_aggregate(many, hp, X_star, seed), expected)
                spread.append(len(set(threads)))
            # each phase of a call starts workers of its own; the caller's
            # thread runs share 0 of both
            w = min(threaded, M - 1)
            assert spread == [2 * w - 1, w]

    def test_call_above_the_threshold_runs_on_every_worker(self, monkeypatch):
        # unpatched threshold: training the augmented experts is above
        # PARALLEL_WORK and a call's prediction below it
        rng = np.random.default_rng(23)
        parts = _chunked_partitions(rng, 1, 6, 200)
        hp = Hyperparameters([0.1], 1.0, 0.01)
        X_star = rng.uniform(0, 1, (60, 1))
        assert baselines._prediction_work(200, [200] * 5, 60) < _workers.PARALLEL_WORK
        assert baselines._training_work(200, [200] * 5) >= _workers.PARALLEL_WORK
        expected = _on_one_worker(monkeypatch, parts, hp, X_star, 0)
        threads = _recording_threads(monkeypatch, "chol_jitter")
        fresh = _fresh(parts)
        assert _bitwise(grbcm_aggregate(fresh, hp, X_star, 0), expected)
        assert threading.main_thread() in threads
        assert len(set(threads)) == min(_workers.worker_count(), 5)
        _refuse_threads(monkeypatch)
        assert _bitwise(grbcm_aggregate(fresh, hp, X_star, 0), expected)
        assert len(threads) == 5

    def test_more_workers_than_cores_under_frequent_switches(self, monkeypatch):
        # five workers on a short switch interval interleave their writes
        # to the slots as often as they can, in training and in a warm
        # call; a lost or misplaced write would change the bits
        monkeypatch.setattr(_workers, "PARALLEL_WORK", 0)
        rng = np.random.default_rng(24)
        parts = _chunked_partitions(rng, 1, 12, 20)
        hp = Hyperparameters([0.3], 1.0, 0.05)
        X_star = rng.uniform(0, 1, (40, 1))
        expected = _on_one_worker(monkeypatch, parts, hp, X_star, 0)
        monkeypatch.setattr(_workers, "worker_count", lambda: 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                fresh = _fresh(parts)
                for _ in range(2):
                    assert _bitwise(grbcm_aggregate(fresh, hp, X_star, 0), expected)
        finally:
            sys.setswitchinterval(interval)


def _holds_only(parts, hp, seed):
    """Whether GRBCM's held mapping holds one model, that of this key."""
    model = baselines._held.get(parts)
    return len(baselines._held) == 1 and model is not None and model.hp == hp and model.seed == seed


class TestGrbcmThreadHygiene:
    def test_worker_exception_reaches_the_caller(self, threaded, monkeypatch):
        # the second augmented expert belongs to share 1, on a worker thread,
        # in training and in a warm call
        class KernelError(RuntimeError):
            pass

        rng = np.random.default_rng(25)
        parts = _chunked_partitions(rng, 1, 4, 20)
        hp = Hyperparameters([0.3], 1.0, 0.05)
        X_star = rng.uniform(0, 1, (30, 1))
        second = [s for i, s in enumerate(parts.subsets) if i != grbcm_base_index(4, 0)][1]
        raised_on = []

        def failing(X, X2, hp):
            if X is second.X:
                raised_on.append(threading.current_thread())
                raise KernelError("second augmented expert")
            return gp.kernel_matrix(X, X2, hp)

        started = threading.active_count()
        for warm in (False, True):
            if warm:
                grbcm_aggregate(parts, hp, X_star, 0)
            with monkeypatch.context() as m:
                m.setattr(baselines, "kernel_matrix", failing)
                raised_on.clear()
                with pytest.raises(KernelError, match="second augmented expert"):
                    grbcm_aggregate(parts, hp, X_star, 0)
            assert raised_on and raised_on[0] is not threading.main_thread()
            assert threading.active_count() == started
            # a training that raised holds no model; one that finished stays held
            assert len(baselines._held) == warm and _holds_only(parts, hp, 0) == warm

    def test_call_below_the_threshold_starts_no_thread(self, monkeypatch):
        # the largest shapes of TestGrbcmAgainstMergedExperts stay on the
        # caller's thread, in training and in a warm call
        rng = np.random.default_rng(20)
        parts = kmeans_partition(Dataset(rng.uniform(0, 1, (300, 3)), rng.standard_normal(300)), 20, seed=0)
        sizes = [s.n for s in parts.subsets]
        assert baselines._training_work(max(sizes), sizes) < _workers.PARALLEL_WORK
        assert baselines._prediction_work(max(sizes), sizes, 300) < _workers.PARALLEL_WORK
        _refuse_threads(monkeypatch)
        trainings = _recording_threads(monkeypatch, "train_expert")
        for _ in range(2):
            grbcm_aggregate(parts, Hyperparameters([0.5], 1.3, 0.01), rng.uniform(0, 1, (300, 3)), 0)
        assert len(trainings) == 1


class TestGrbcmHeldModel:
    """The trained model of the latest partitioning object, held in a weak
    mapping and reused for an equal theta and the same seed."""

    @staticmethod
    def _setup():
        rng = np.random.default_rng(30)
        parts = _chunked_partitions(rng, 1, 5, 30)
        return parts, Hyperparameters([0.3], 1.0, 0.05), rng.uniform(-0.1, 1.1, (25, 1))

    def test_warm_call_trains_nothing_and_gives_cold_call_bits(self, monkeypatch):
        parts, hp, X_star = self._setup()
        grbcm_aggregate(parts, hp, X_star, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("a warm call trained")

        with monkeypatch.context() as m:
            m.setattr(baselines, "train_expert", refuse)
            m.setattr(baselines, "chol_jitter", refuse)
            # an equal theta, not the same object
            warm = grbcm_aggregate(parts, Hyperparameters([0.3], 1.0, 0.05), X_star, 3)
        assert _bitwise(warm, grbcm_aggregate(_fresh(parts), hp, X_star, 3))

    @pytest.mark.parametrize("change", ["seed", "theta", "partitioning"])
    def test_another_key_retrains(self, monkeypatch, change):
        parts, hp, X_star = self._setup()
        trainings = _recording_threads(monkeypatch, "train_expert")
        grbcm_aggregate(parts, hp, X_star, 0)
        seed = 0
        if change == "seed":
            seed = 1
        elif change == "theta":
            hp = Hyperparameters([0.3], 1.0, 0.06)
        else:
            parts = _fresh(parts)
        retrained = grbcm_aggregate(parts, hp, X_star, seed)
        assert len(trainings) == 2
        assert _bitwise(retrained, grbcm_aggregate(_fresh(parts), hp, X_star, seed))

    def test_theta_cannot_change_in_place(self):
        # a held model's key is the caller's theta itself: its lengthscale
        # is read-only, and a copy of the array it was built from
        parts, _, X_star = self._setup()
        source = np.array([0.3])
        hp = Hyperparameters(source, 1.0, 0.05)
        source[0] = 0.4
        grbcm_aggregate(parts, hp, X_star, 0)
        with pytest.raises(ValueError, match="read-only"):
            hp.lengthscale[0] = 0.4
        assert _holds_only(parts, Hyperparameters([0.3], 1.0, 0.05), 0)

    def test_second_partitioning_evicts_the_first_before_training(self, monkeypatch):
        parts, hp, X_star = self._setup()
        other = _fresh(parts)
        grbcm_aggregate(parts, hp, X_star, 0)
        first = weakref.ref(baselines._held[parts])
        alive = []
        train_expert = baselines.train_expert

        def checking(*args):
            gc.collect()
            alive.append(first() is not None)
            return train_expert(*args)

        monkeypatch.setattr(baselines, "train_expert", checking)
        grbcm_aggregate(other, hp, X_star, 0)
        assert alive == [False]
        assert _holds_only(other, hp, 0)
        # after cold calls on three partitionings in turn, only the last is held
        last = _fresh(parts)
        grbcm_aggregate(last, hp, X_star, 0)
        assert _holds_only(last, hp, 0)

    def test_model_is_freed_with_its_partitioning(self):
        parts, hp, X_star = self._setup()
        grbcm_aggregate(parts, hp, X_star, 0)
        model = weakref.ref(baselines._held[parts])
        del parts
        gc.collect()
        assert model() is None
        assert len(baselines._held) == 0

    def test_two_threads_on_two_partitionings_get_their_own_bits(self, monkeypatch):
        # each thread's calls evict the other's model; every call must still
        # answer from its own partitioning
        rng = np.random.default_rng(31)
        hp = Hyperparameters([0.3], 1.0, 0.05)
        X_star = rng.uniform(0, 1, (20, 1))
        both = [_chunked_partitions(rng, 1, 4, 25) for _ in range(2)]
        expected = [grbcm_aggregate(_fresh(parts), hp, X_star, 0) for parts in both]
        start = threading.Barrier(2)
        results = [[], []]

        def calls(k):
            start.wait()
            for _ in range(20):
                results[k].append(grbcm_aggregate(both[k], hp, X_star, 0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=calls, args=(k,)) for k in range(2)]
            for t in workers:
                t.start()
            for t in workers:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        for k in range(2):
            assert len(results[k]) == 20
            assert all(_bitwise(out, expected[k]) for out in results[k])

    def test_batches_of_a_warm_model_match_one_call(self):
        rng = np.random.default_rng(32)
        parts = _chunked_partitions(rng, 1, 6, 60)
        hp = Hyperparameters([0.2], 1.0, 0.01)
        X_star = rng.uniform(-0.1, 1.1, (400, 1))
        mean, var = grbcm_aggregate(parts, hp, X_star, 0)
        batches = [grbcm_aggregate(parts, hp, X_star[k : k + 50], 0) for k in range(0, 400, 50)]
        for whole, parts_out in ((mean, [b[0] for b in batches]), (var, [b[1] for b in batches])):
            assert np.all(np.abs(np.concatenate(parts_out) - whole) <= 1e-12 * np.max(np.abs(whole)))


class TestGrbcmJitterWarning:
    @staticmethod
    def _near_duplicates():
        # four copies of 30 points, each moved by up to a few 1e-4: at
        # noise 1e-12 every Schur complement needs jitter
        rng = np.random.default_rng(3)
        X = np.linspace(0, 1, 30)[:, None]
        subsets = [Dataset(X + 1e-4 * k * rng.standard_normal(X.shape), np.sin(6 * X[:, 0])) for k in range(4)]
        parts = Partitioning(np.repeat(np.arange(4), 30), subsets, "random")
        return parts, Hyperparameters([0.5], 1.0, 1e-12), rng.uniform(0, 1, (20, 1))

    def test_jittered_call_logs_one_warning_from_the_caller(self, threaded, monkeypatch, caplog):
        jitters = []
        chol_jitter = baselines.chol_jitter

        def recording(A, **kwargs):
            L, jitter = chol_jitter(A, **kwargs)
            jitters.append(jitter)
            return L, jitter

        monkeypatch.setattr(baselines, "chol_jitter", recording)
        parts, hp, X_star = self._near_duplicates()
        with caplog.at_level(logging.WARNING, logger="gpagg.baselines"):
            mean, var = grbcm_aggregate(parts, hp, X_star, 0)
        assert np.all(np.isfinite(mean)) and np.all(var > 0)
        jittered = [j for j in jitters if j > 0.0]
        assert len(jitters) == 3 and jittered
        [record] = caplog.records
        assert record.threadName == threading.main_thread().name
        assert record.getMessage() == (
            f"grbcm_aggregate: {len(jittered)} of 3 augmented experts needed Cholesky jitter "
            f"on the Schur complement (largest {max(jittered):.3e})"
        )

    def test_one_warning_per_trained_model(self, caplog):
        parts, hp, X_star = self._near_duplicates()
        with caplog.at_level(logging.WARNING, logger="gpagg.baselines"):
            grbcm_aggregate(parts, hp, X_star, 0)
            [first] = caplog.records
            grbcm_aggregate(parts, hp, X_star[:5], 0)
        assert caplog.records == [first]
        assert first.getMessage().startswith(
            "grbcm_aggregate: 3 of 3 augmented experts needed Cholesky jitter on the Schur complement (largest "
        )

    def test_call_without_jitter_logs_nothing(self, caplog):
        hp, parts, X_star = _identical_partitions(6, 1e-6)
        with caplog.at_level(logging.WARNING, logger="gpagg.baselines"):
            grbcm_aggregate(parts, hp, X_star, 0)
        assert not caplog.records
