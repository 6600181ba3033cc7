import logging

import numpy as np
import pytest

from gpagg import (
    DimensionError,
    NumericalError,
    effective_covariance,
    glasso,
    glasso_objective,
    glasso_solve,
)
from gpagg.emggm import resolve_lambda

log = logging.getLogger(__name__)


def random_spd(rng, p, cond=None):
    A = rng.standard_normal((p, p))
    S = A @ A.T / p + 0.5 * np.eye(p)
    return 0.5 * (S + S.T)


def emggm_shaped_problem(rng, M, n_t=200):
    """S and penalty as EMGGM's first M-step sees them: near-collinear
    expert columns, a latent column equal to their mean (so S is singular
    up to the solver's jitter), the latent row/column unpenalized and
    lambda resolved by the "auto" rule."""
    x = np.linspace(0.0, 1.0, n_t)
    base = np.sin(6.0 * x)
    experts = np.column_stack(
        [rng.uniform(0.8, 1.2) * base + 1e-2 * rng.standard_normal(n_t) for _ in range(M)]
    )
    Z = np.column_stack([experts.mean(axis=1), experts])
    Z -= Z.mean(axis=0)
    Lam = np.full((M + 1, M + 1), resolve_lambda("auto", M, n_t))
    Lam[0, :] = 0.0
    Lam[:, 0] = 0.0
    np.fill_diagonal(Lam, 0.0)
    return Z.T @ Z / n_t, Lam


def subgradient_violation(Omega, Sigma, S_eff, Lam):
    """Per-entry distance of S - Sigma from -Lam * d|Omega| (zero at the optimum)."""
    G = S_eff - Sigma
    return np.where(
        Lam == 0,
        np.abs(G),
        np.where(Omega != 0, np.abs(G + Lam * np.sign(Omega)), np.maximum(np.abs(G) - Lam, 0.0)),
    )


def naive_objective(Omega, S, lam):
    """Element-by-element transcription of the penalized objective."""
    sign, logdet = np.linalg.slogdet(Omega)
    assert sign > 0
    trace = 0.0
    penalty = 0.0
    p = S.shape[0]
    for i in range(p):
        for j in range(p):
            trace += S[i, j] * Omega[j, i]
            if i != j:
                penalty += lam * abs(Omega[i, j])
    return -logdet + trace + penalty


class TestObjective:
    def test_identity_no_penalty(self):
        for p in (2, 5):
            assert glasso_objective(np.eye(p), np.eye(p), 0.0) == pytest.approx(p, abs=1e-12)

    def test_identity_penalty_has_no_offdiagonal_contribution(self):
        assert glasso_objective(np.eye(2), np.eye(2), 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_matches_naive_transcription(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            Omega = random_spd(rng, 4)
            S = random_spd(rng, 4)
            lam = rng.uniform(0, 1)
            assert glasso_objective(Omega, S, lam) == pytest.approx(
                naive_objective(Omega, S, lam), rel=1e-12
            )

    def test_non_spd_omega_raises(self):
        with pytest.raises(NumericalError):
            glasso_objective(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), 0.1)


class TestSolve:
    def test_lambda_zero_matches_dense_inverse(self):
        rng = np.random.default_rng(1)
        S = random_spd(rng, 5)
        est = glasso_solve(S, 0.0)
        assert np.max(np.abs(est.Omega - np.linalg.inv(S))) < 1e-6

    def test_full_shrinkage_gives_exact_diagonal(self):
        rng = np.random.default_rng(2)
        S = random_spd(rng, 6)
        lam = np.max(np.abs(S - np.diag(np.diag(S)))) * 1.001
        est = glasso_solve(S, lam)
        off = est.Omega - np.diag(np.diag(est.Omega))
        assert np.all(off == 0.0)
        assert np.allclose(np.diag(est.Omega), 1.0 / np.diag(S), rtol=1e-6)

    def test_diagonal_s_decouples_for_any_lambda(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(0.5, 3.0, 5)
        for lam in (0.0, 0.1, 10.0):
            est = glasso_solve(np.diag(d), lam)
            off = est.Omega - np.diag(np.diag(est.Omega))
            assert np.max(np.abs(off)) == 0.0
            assert np.allclose(np.diag(est.Omega), 1.0 / d, rtol=1e-6)

    def test_objective_non_increasing_across_sweeps(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            S = random_spd(rng, 7)
            est = glasso_solve(S, 0.08)
            trace = np.array(est.objective_trace)
            assert np.all(np.diff(trace) <= 1e-10)

    def test_warm_start_descends_from_the_given_point(self):
        rng = np.random.default_rng(5)
        S1 = random_spd(rng, 6)
        S2 = S1 + 0.05 * random_spd(rng, 6)
        first = glasso_solve(S1, 0.1)
        second = glasso_solve(S2, 0.1, init=first.Omega)
        start = glasso_objective(first.Omega, effective_covariance(S2), 0.1)
        assert second.objective_trace[0] == pytest.approx(start, rel=1e-12)
        assert second.objective_trace[-1] <= start + 1e-10

    def test_solution_is_spd_without_jitter(self):
        rng = np.random.default_rng(6)
        for lam in (0.0, 0.05, 0.5):
            S = random_spd(rng, 6)
            est = glasso_solve(S, lam)
            np.linalg.cholesky(est.Omega)  # raises if not PD

    def test_lambda_zero_residual_identity(self):
        rng = np.random.default_rng(7)
        S = random_spd(rng, 5)
        est = glasso_solve(S, 0.0)
        assert np.max(np.abs(S @ est.Omega - np.eye(5))) < 1e-5

    def test_omega_sigma_inverse_pair(self):
        rng = np.random.default_rng(8)
        S = random_spd(rng, 6)
        est = glasso_solve(S, 0.1)
        assert np.max(np.abs(est.Omega @ est.Sigma - np.eye(6))) < 1e-6

    def test_sparsity_roughly_monotone_in_lambda(self):
        # heuristic, not a theorem: tolerate up to 5% violating pairs
        rng = np.random.default_rng(9)
        grid = [0.02, 0.08, 0.2, 0.5]
        checked = 0
        violations = 0
        for _ in range(10):
            S = random_spd(rng, 6)
            edges = []
            for lam in grid:
                est = glasso_solve(S, lam)
                off = np.abs(est.Omega - np.diag(np.diag(est.Omega)))
                edges.append(set(zip(*np.where(off > 1e-10))))
            for a, b in zip(edges, edges[1:]):
                checked += 1
                if not b.issubset(a):
                    violations += 1
                    log.info("sparsity-path violation: %d extra edges", len(b - a))
        assert violations / checked < 0.05

    def test_indefinite_s_with_lambda_zero_raises_jitter_hint(self):
        S = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match="jitter"):
            glasso_solve(S, 0.0)

    def test_negative_lambda_raises(self):
        with pytest.raises(ValueError):
            glasso_solve(np.eye(3), -0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_scalar_lambda_raises(self, lam):
        with pytest.raises(ValueError, match="finite"):
            glasso_solve(np.eye(3), lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_penalty_matrix_entry_raises(self, bad):
        Lam = np.full((3, 3), 0.1)
        Lam[0, 1] = Lam[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            glasso_solve(np.eye(3), Lam)

    def test_max_iter_flags_unconverged(self, monkeypatch):
        rng = np.random.default_rng(10)
        S = random_spd(rng, 8)
        monkeypatch.setattr(glasso, "MAX_ITER", 1)
        est = glasso_solve(S, 0.01)
        assert not est.converged
        assert np.isfinite(est.dual_gap)

    def test_penalty_matrix_spares_selected_entries(self):
        rng = np.random.default_rng(11)
        S = random_spd(rng, 4)
        lam = np.max(np.abs(S - np.diag(np.diag(S)))) * 2.0
        Lam = np.full((4, 4), lam)
        Lam[0, :] = 0.0
        Lam[:, 0] = 0.0
        est = glasso_solve(S, Lam)
        # unpenalized row 0 keeps its covariance fit exact: Sigma row matches S
        S_eff = effective_covariance(S)
        assert np.allclose(est.Sigma[0], S_eff[0], atol=1e-5)
        # penalized block is fully shrunk
        inner = est.Omega[1:, 1:]
        assert np.max(np.abs(inner - np.diag(np.diag(inner)))) == 0.0

    def test_near_singular_emggm_covariance(self):
        rng = np.random.default_rng(12)
        for M in (4, 8, 12):
            S, Lam = emggm_shaped_problem(rng, M)
            S_eff = effective_covariance(S)
            est = glasso_solve(S, Lam)
            scale = np.max(np.abs(est.Omega))
            # inverting an Omega this large loses about eps * max|Omega| in Sigma
            violation = subgradient_violation(est.Omega, est.Sigma, S_eff, Lam)
            assert np.max(violation) <= 1e-10 * scale, (M, np.max(violation) / scale)
            best = est.objective_trace[-1]
            for _ in range(3):
                E = 0.05 * rng.standard_normal(S.shape)
                init = (np.eye(M + 1) + E) @ est.Omega @ (np.eye(M + 1) + E).T
                start = glasso_objective(init, S_eff, Lam)
                warm = glasso_solve(S, Lam, init=init)
                assert warm.objective_trace[0] == pytest.approx(start, rel=1e-12)
                assert warm.objective_trace[-1] <= start
                assert warm.objective_trace[-1] <= best + 1e-9 * (1.0 + abs(best))

    def test_stopping_rule_is_scale_free(self):
        # (c S, c lam) has the solution Omega / c; the Newton decrement, and
        # with it the number of iterations, does not depend on c
        rng = np.random.default_rng(13)
        S = random_spd(rng, 8)
        base = glasso_solve(S, 0.05)
        for c in (1e-4, 1e-2, 1.0, 1e2, 1e4):
            est = glasso_solve(c * S, c * 0.05)
            error = np.max(np.abs(c * est.Omega - base.Omega)) / np.max(np.abs(base.Omega))
            assert error <= 1e-10, (c, error)
            assert est.n_sweeps == base.n_sweeps, (c, est.n_sweeps, base.n_sweeps)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize(
        "init, error",
        [
            (np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), ValueError),
            (np.eye(2), DimensionError),
            (np.full((3, 3), np.nan), ValueError),
            # positive definite by its lower triangle, the only one dpotrf
            # reads; symmetric Newton steps would never remove the skew
            (np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), ValueError),
        ],
        ids=["not-pd", "wrong-shape", "nan", "asymmetric"],
    )
    def test_bad_init_raises_the_same_error_for_any_lambda(self, lam, init, error):
        with pytest.raises(ValueError, match="init") as info:
            glasso_solve(np.eye(3), lam, init=init)
        assert type(info.value) is error

    def test_effective_covariance_symmetrizes_and_jitters(self):
        S = np.array([[1.0, 0.3], [0.1, 2.0]])
        S_eff = effective_covariance(S)
        assert S_eff[0, 1] == S_eff[1, 0] == pytest.approx(0.2)
        assert S_eff[0, 0] > 1.0
        assert S_eff[1, 1] > 2.0
