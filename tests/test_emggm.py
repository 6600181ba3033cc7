import json
import math

import numpy as np
import pytest

import gpagg.emggm as emggm
from gpagg import (
    EmggmConfig,
    ExpertPredictions,
    e_step,
    emggm_aggregate,
    glasso_solve,
    init_latent,
    joint_sample_covariance,
    m_step,
)
from gpagg.emggm import resolve_lambda


def make_preds(means, variances=None, prior=None):
    means = np.atleast_2d(np.asarray(means, dtype=float))
    if variances is None:
        variances = np.ones_like(means)
    if prior is None:
        prior = np.full(means.shape[0], 2.0)
    return ExpertPredictions(means, variances, prior)


def factor_model_preds(rng, n_t, loadings, noise_sd):
    """Experts as noisy views of a latent signal; returns (preds, latent)."""
    f = rng.standard_normal(n_t)
    M = len(loadings)
    means = np.column_stack([a * f + s * rng.standard_normal(n_t) for a, s in zip(loadings, noise_sd)])
    return make_preds(means), f


class TestInitLatent:
    def test_single_expert_returns_its_means(self):
        preds = make_preds(np.arange(6.0)[:, None])
        assert np.array_equal(init_latent(preds), np.arange(6.0))

    def test_opposite_experts_cancel(self):
        v = np.array([1.0, -2.0, 3.0])
        preds = make_preds(np.column_stack([v, -v]))
        assert np.array_equal(init_latent(preds), np.zeros(3))


class TestJointSampleCovariance:
    def test_constant_columns_give_zero_covariance(self):
        preds = make_preds(np.full((5, 2), 3.0))
        S, col_means = joint_sample_covariance(np.full(5, -1.0), preds)
        assert np.array_equal(S, np.zeros((3, 3)))
        assert col_means[0] == -1.0
        assert np.array_equal(col_means[1:], [3.0, 3.0])

    def test_matches_two_pass_covariance_oracle(self):
        rng = np.random.default_rng(1)
        means = rng.standard_normal((40, 3))
        y0 = rng.standard_normal(40)
        S_joint, _ = joint_sample_covariance(y0, make_preds(means))
        Z = np.column_stack([y0, means])
        # hand-rolled two-pass formula
        mu = Z.mean(axis=0)
        S = np.zeros((4, 4))
        for row in Z:
            S += np.outer(row - mu, row - mu)
        S /= 40
        assert np.allclose(S_joint, S, atol=1e-12)

    def test_duplicated_experts_singular_block_still_aggregates(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal(30)
        preds = make_preds(np.column_stack([col, col]))
        S, _ = joint_sample_covariance(col.copy(), preds)
        evals = np.linalg.eigvalsh(S[1:, 1:])
        assert evals[0] == pytest.approx(0.0, abs=1e-12)
        means, _ = emggm_aggregate(preds, EmggmConfig(lam=0.0, max_iters=2))
        assert np.allclose(means, col, atol=1e-5)

    def test_too_few_test_points_raises(self):
        preds = make_preds(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            joint_sample_covariance(np.zeros(1), preds)

    def test_warns_when_rank_deficient(self):
        rng = np.random.default_rng(3)
        preds = make_preds(rng.standard_normal((4, 4)))
        with pytest.warns(RuntimeWarning):
            joint_sample_covariance(rng.standard_normal(4), preds)


class TestESteps:
    @staticmethod
    def model_with(S, Sigma):
        """Float copies of S and of the precision inv(Sigma), so e_step's
        in-place writes stay local."""
        return np.asarray(S, dtype=float).copy(), np.linalg.inv(np.asarray(Sigma, dtype=float))

    def test_independent_latent_blocks_stay_trivial(self):
        S = np.array([[9.0, 9.0, 9.0], [9.0, 2.0, 0.3], [9.0, 0.3, 1.5]])
        Sigma = np.array([[1.2, 0.0, 0.0], [0.0, 2.0, 0.3], [0.0, 0.3, 1.5]])
        S, Omega = self.model_with(S, Sigma)
        e_step(S, Omega)
        assert np.allclose(S[0, 1:], 0.0, atol=1e-12)
        assert S[0, 0] == pytest.approx(1.2, abs=1e-12)

    def test_matched_blocks_are_a_fixed_point(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 3))
        Sigma = A @ A.T + np.eye(3)
        S, Omega = self.model_with(Sigma, Sigma)
        e_step(S, Omega)
        assert np.allclose(S, Sigma, atol=1e-10)

    def test_scalar_case_matches_transcription(self):
        # S_mm=4, Omega = inv([[3, 1.2],[1.2, 2]]): A = 1.2/2, S_my = 4*0.6 = 2.4,
        # S_yy = 1/Omega_yy + 0.6*4*0.6 = (3 - 1.2^2/2) + 1.44 = 3.72
        S = np.array([[0.0, 0.0], [0.0, 4.0]])
        Sigma = np.array([[3.0, 1.2], [1.2, 2.0]])
        S, Omega = self.model_with(S, Sigma)
        e_step(S, Omega)
        assert S[0, 1] == pytest.approx(2.4, abs=1e-12)
        assert S[1, 0] == pytest.approx(2.4, abs=1e-12)
        assert S[0, 0] == pytest.approx(3.72, abs=1e-12)

    @pytest.mark.parametrize("p", [2, 4, 11, 21])
    def test_precision_route_matches_covariance_route(self, p):
        # oracle: the conditional Gaussian from the covariance Sigma = inv(Omega),
        # A = Sigma_mm^-1 Sigma_my and S_yy = Sigma_yy - Sigma_ym A + A' S_mm A
        rng = np.random.default_rng(p)
        B = rng.standard_normal((p, p))
        Omega = B @ B.T / p + 0.5 * np.eye(p)
        C = rng.standard_normal((3 * p, p))
        S = C.T @ C / (3 * p)
        Sigma = np.linalg.inv(Omega)
        A = np.linalg.solve(Sigma[1:, 1:], Sigma[1:, 0])
        S_my = S[1:, 1:] @ A
        S_yy = Sigma[0, 0] - Sigma[0, 1:] @ A + A @ S_my
        assert np.allclose(emggm._regression(Omega), A, rtol=1e-10, atol=0)
        e_step(S, Omega)
        assert np.allclose(S[0, 1:], S_my, rtol=1e-10, atol=0)
        assert np.allclose(S[1:, 0], S_my, rtol=1e-10, atol=0)
        assert S[0, 0] == pytest.approx(S_yy, rel=1e-10)

    @pytest.mark.parametrize("omega_yy", [0.0, -1.0, math.nan])
    def test_rejects_a_latent_precision_that_is_not_positive(self, omega_yy):
        S = np.eye(3)
        Omega = np.eye(3)
        Omega[0, 0] = omega_yy
        with pytest.raises(ValueError, match="finite and positive"):
            e_step(S, Omega)
        assert np.array_equal(S, np.eye(3))

    def test_expert_block_bit_identical_across_steps(self):
        rng = np.random.default_rng(5)
        preds = make_preds(rng.standard_normal((30, 3)))
        S, _ = joint_sample_covariance(rng.standard_normal(30), preds)
        block_before = S[1:, 1:].copy()
        est = m_step(S, 0.05)
        for _ in range(4):
            e_step(S, est.Omega)
            est = m_step(S, 0.05, est.Omega)
        assert np.array_equal(S[1:, 1:], block_before)

    def test_e_step_writes_only_the_latent_row_and_column(self):
        rng = np.random.default_rng(6)
        preds = make_preds(rng.standard_normal((30, 3)))
        S, _ = joint_sample_covariance(rng.standard_normal(30), preds)
        est = m_step(S, 0.05)
        S_before, Omega_before = S.copy(), est.Omega.copy()
        e_step(S, est.Omega)
        assert np.array_equal(S[1:, 1:], S_before[1:, 1:])
        assert not np.array_equal(S[0], S_before[0])
        assert np.array_equal(S[0], S[:, 0])
        assert np.array_equal(est.Omega, Omega_before)


class TestMStep:
    def test_lambda_zero_gives_dense_inverse(self):
        rng = np.random.default_rng(7)
        preds = make_preds(rng.standard_normal((25, 3)))
        S, _ = joint_sample_covariance(rng.standard_normal(25), preds)
        est = m_step(S, 0.0)
        S_eff = 0.5 * (S + S.T)
        S_eff[np.diag_indices_from(S_eff)] += 1e-8 * np.mean(np.diag(S_eff))
        assert np.max(np.abs(est.Omega - np.linalg.inv(S_eff))) < 1e-6
        assert est.converged

    def test_diagonal_s_gives_diagonal_omega(self):
        est = m_step(np.diag([2.0, 1.0, 0.5]), 0.3)
        off = est.Omega - np.diag(np.diag(est.Omega))
        assert np.max(np.abs(off)) == 0.0

    def test_large_lambda_fully_shrinks_penalized_block(self):
        rng = np.random.default_rng(8)
        preds = make_preds(rng.standard_normal((40, 3)))
        # the penalty spares the latent row, so its edges survive
        S, _ = joint_sample_covariance(rng.standard_normal(40), preds)
        est = m_step(S, 100.0)
        inner = est.Omega[1:, 1:]
        assert np.max(np.abs(inner - np.diag(np.diag(inner)))) == 0.0
        assert np.max(np.abs(est.Omega[0, 1:])) > 0.0

    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_leaves_s_and_init_untouched(self, lam):
        rng = np.random.default_rng(18)
        preds = make_preds(rng.standard_normal((30, 3)))
        S, _ = joint_sample_covariance(rng.standard_normal(30), preds)
        init = m_step(S, lam).Omega
        e_step(S, init)
        S_before, init_before = S.copy(), init.copy()
        est = m_step(S, lam, init)
        assert np.array_equal(S, S_before)
        assert np.array_equal(init, init_before)
        assert est.Omega is not init


class TestAggregate:
    def test_single_expert_is_recovered(self):
        rng = np.random.default_rng(9)
        preds = make_preds(rng.standard_normal((30, 1)))
        means, diag = emggm_aggregate(preds, EmggmConfig(lam=0.0))
        assert np.allclose(means, preds.means[:, 0], atol=1e-8)

    def test_identical_experts_recovered(self):
        rng = np.random.default_rng(10)
        col = rng.standard_normal(25)
        preds = make_preds(np.tile(col[:, None], 4))
        means, _ = emggm_aggregate(preds, EmggmConfig(lam=0.0))
        assert np.allclose(means, col, atol=1e-5)

    def test_factor_model_near_analytic_blup(self):
        rng = np.random.default_rng(11)
        loadings = np.array([1.0, 0.8, 1.2])
        noise = np.array([0.5, 0.7, 0.4])
        preds, f = factor_model_preds(rng, 4000, loadings, noise)
        # analytic BLUP for the generating joint covariance
        Sigma_mm = np.outer(loadings, loadings) + np.diag(noise**2)
        beta = np.linalg.solve(Sigma_mm, loadings)
        blup_mse = float(np.mean((f - preds.means @ beta) ** 2))
        means, _ = emggm_aggregate(preds, EmggmConfig(lam=0.02))
        em_mse = float(np.mean((f - means) ** 2))
        assert em_mse <= blup_mse * 1.05

    def test_em_descent_every_iteration(self):
        rng = np.random.default_rng(12)
        preds, _ = factor_model_preds(rng, 200, np.array([1.0, 0.9, 1.1, 0.5]), np.full(4, 0.6))
        _, diag = emggm_aggregate(preds, EmggmConfig(lam=0.05, max_iters=10))
        assert diag["iterations"], "EM must run at least one iteration"
        for it in diag["iterations"]:
            assert it["objective"] <= it["objective_start"] + 1e-8

    def test_permutation_invariance_lambda_zero(self):
        rng = np.random.default_rng(13)
        means = rng.standard_normal((40, 4))
        preds = make_preds(means)
        perm = [3, 0, 2, 1]
        a, _ = emggm_aggregate(preds, EmggmConfig(lam=0.0))
        b, _ = emggm_aggregate(make_preds(means[:, perm]), EmggmConfig(lam=0.0))
        assert np.allclose(a, b, atol=1e-10)

    def test_permutation_invariance_penalized(self):
        rng = np.random.default_rng(14)
        preds, _ = factor_model_preds(rng, 150, np.array([1.0, 0.7, 1.3]), np.full(3, 0.5))
        perm = [2, 0, 1]
        a, _ = emggm_aggregate(preds, EmggmConfig(lam=0.05, max_iters=5))
        b, _ = emggm_aggregate(
            make_preds(preds.means[:, perm]), EmggmConfig(lam=0.05, max_iters=5)
        )
        # solved to tolerance, so only near-invariance is guaranteed
        assert np.allclose(a, b, atol=1e-4)

    def test_scale_equivariance_lambda_zero(self):
        rng = np.random.default_rng(15)
        means = rng.standard_normal((35, 3))
        a, _ = emggm_aggregate(make_preds(means), EmggmConfig(lam=0.0))
        b, _ = emggm_aggregate(make_preds(3.0 * means), EmggmConfig(lam=0.0))
        assert np.allclose(3.0 * a, b, atol=1e-8)

    def test_diagnostics_are_json_serializable(self):
        rng = np.random.default_rng(16)
        preds, _ = factor_model_preds(rng, 60, np.array([1.0, 1.0]), np.full(2, 0.4))
        _, diag = emggm_aggregate(preds, EmggmConfig(lam=0.03, max_iters=3))
        payload = json.loads(json.dumps(diag))
        assert payload["n_iterations"] == len(payload["iterations"])
        keys = {"iteration", "objective_start", "objective", "omega_change", "mean_change", "wall_time_s"}
        assert keys <= set(payload["iterations"][0])

    def test_diagnostics_report_every_solve(self, monkeypatch):
        rng = np.random.default_rng(16)
        preds, _ = factor_model_preds(rng, 60, np.array([1.0, 1.0]), np.full(2, 0.4))
        solves = []

        def recording_solve(*args, **kwargs):
            solves.append(glasso_solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(emggm, "glasso_solve", recording_solve)
        _, diag = emggm_aggregate(preds, EmggmConfig(lam=0.03, max_iters=3))
        stats = [diag["initial_m_step"]] + diag["iterations"]
        assert len(stats) == len(solves)
        for entry, est in zip(stats, solves):
            assert entry["n_sweeps"] == est.n_sweeps
            assert entry["converged"] == est.converged
            assert entry["dual_gap"] == est.dual_gap

    def test_aggregates_without_a_cholesky(self, monkeypatch):
        # the conditional Gaussian is read from Omega, so EMGGM never factors;
        # chol_jitter stays bound in emggm as a hook for perfbench's tracer
        rng = np.random.default_rng(16)
        preds, _ = factor_model_preds(rng, 60, np.array([1.0, 1.0]), np.full(2, 0.4))
        plain, _ = emggm_aggregate(preds, EmggmConfig(lam=0.03, max_iters=3))

        def refuse(A):
            raise AssertionError("EMGGM factored a matrix")

        monkeypatch.setattr(emggm, "chol_jitter", refuse)
        means, _ = emggm_aggregate(preds, EmggmConfig(lam=0.03, max_iters=3))
        assert np.array_equal(means, plain)

    def test_mean_change_is_the_change_of_the_returned_means(self, monkeypatch):
        rng = np.random.default_rng(20)
        preds, _ = factor_model_preds(rng, 80, np.array([1.0, 0.8, 0.6]), np.full(3, 0.4))
        monkeypatch.setattr(emggm, "CONV_TOL", 0.0)
        K = 5
        runs = [emggm_aggregate(preds, EmggmConfig(lam=0.05, max_iters=k)) for k in range(1, K + 1)]
        iterations = runs[-1][1]["iterations"]
        assert len(iterations) == K
        for k in range(2, K + 1):
            step = float(np.max(np.abs(runs[k - 1][0] - runs[k - 2][0])))
            assert iterations[k - 1]["mean_change"] == pytest.approx(step, rel=0, abs=1e-12)

    def test_converged_exit_stops_the_loop(self, monkeypatch):
        # every precision change is below an infinite tolerance, so EM
        # stops after its first iteration, as a one-iteration budget does
        rng = np.random.default_rng(19)
        preds, _ = factor_model_preds(rng, 60, np.array([1.0, 0.8, 0.6]), np.full(3, 0.4))
        one, one_diag = emggm_aggregate(preds, EmggmConfig(lam=0.05, max_iters=1))
        monkeypatch.setattr(emggm, "CONV_TOL", math.inf)
        means, diag = emggm_aggregate(preds, EmggmConfig(lam=0.05, max_iters=20))
        assert diag["converged"] and not one_diag["converged"]
        assert diag["n_iterations"] == 1
        assert np.array_equal(means, one)

    def test_nan_lambda_raises(self):
        rng = np.random.default_rng(16)
        preds, _ = factor_model_preds(rng, 60, np.array([1.0, 1.0]), np.full(2, 0.4))
        with pytest.raises(ValueError, match="finite"):
            emggm_aggregate(preds, EmggmConfig(lam=math.nan))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0, "grid"])
    def test_config_rejects_invalid_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            EmggmConfig(lam=lam)

    def test_auto_lambda_resolution(self):
        assert resolve_lambda("auto", 4, 100) == pytest.approx(0.5 * math.sqrt(math.log(5) / 100))
        assert resolve_lambda(0.3, 4, 100) == 0.3
        with pytest.raises(ValueError):
            resolve_lambda("grid", 4, 100)
        with pytest.raises(ValueError):
            resolve_lambda(-1.0, 4, 100)


class TestBlupProperty:
    def test_conditional_coefficients_beat_perturbations(self):
        # known joint Gaussian; the conditional-mean coefficients must win
        # against 100 random perturbations of norm 0.1 in empirical MSE
        rng = np.random.default_rng(17)
        M = 4
        loadings = np.array([1.0, 0.6, 1.3, 0.9])
        noise_var = np.array([0.4, 0.6, 0.3, 0.8])
        Sigma_mm = np.outer(loadings, loadings) + np.diag(noise_var)
        Sigma_ym = loadings  # cov(y, mu_i) with y = latent factor, unit variance
        beta = np.linalg.solve(Sigma_mm, Sigma_ym)

        n = 10_000
        f = rng.standard_normal(n)
        mu = np.column_stack(
            [a * f + math.sqrt(v) * rng.standard_normal(n) for a, v in zip(loadings, noise_var)]
        )
        base_mse = np.mean((f - mu @ beta) ** 2)
        for _ in range(100):
            delta = rng.standard_normal(M)
            delta *= 0.1 / np.linalg.norm(delta)
            assert base_mse <= np.mean((f - mu @ (beta + delta)) ** 2)
