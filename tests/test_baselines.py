import ast
import inspect
import math

import numpy as np
import pytest

from gpagg import baselines, gp
from gpagg import (
    Dataset,
    DimensionError,
    ExpertPredictions,
    Hyperparameters,
    NumericalError,
    Partitioning,
    bcm,
    collect_predictions,
    gpoe,
    grbcm_aggregate,
    kmeans_partition,
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
    # collect_predictions' loop and GRBCM's call _linalg on scipy's.
    for fn in (
        baselines.grbcm_aggregate,
        baselines.collect_predictions,
        gp.predict,
        gp.with_targets,
        gp.posterior_terms,
    ):
        assert _numpy_blas_uses(ast.parse(inspect.getsource(fn))) == [], fn.__name__
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
