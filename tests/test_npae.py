import logging
import multiprocessing
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve

from gpagg import (
    Dataset,
    Hyperparameters,
    kernel_matrix,
    kmeans_partition,
    npae_aggregate,
    predict,
    train_expert,
)
from gpagg import _workers, gp, npae
from gpagg._linalg import cho_solve as linalg_cho_solve
from gpagg._linalg import chol_jitter, solve_lower, spd_solve_each
from gpagg.gp import posterior_terms, with_targets


def make_experts(rng, hp, M, n_per, d=1):
    parts = [
        Dataset(rng.uniform(0, 1, (n_per, d)), rng.standard_normal(n_per)) for _ in range(M)
    ]
    return parts, [train_expert(p, hp) for p in parts]


@dataclass(frozen=True, eq=False)
class PointwiseCovariances:
    """Inter-expert covariance K_A (M x M) and target cross-covariance k_A (M,)
    at a single test point."""

    K_A: np.ndarray
    k_A: np.ndarray


def npae_pointwise_cov(experts, hp, x_star) -> PointwiseCovariances:
    """Assemble K_A and k_A at one test point from scratch, one point at a
    time with a fresh cross block per pair: the per-point oracle for
    ``npae_aggregate``.

    Diagonal entries reduce to k_i' C_i^-1 k_i because the C_i in
    Gamma_i C_i Gamma_i' cancels one inverse; they coincide with k_A.
    """
    x = np.asarray(x_star, dtype=float).reshape(1, -1)
    M = len(experts)
    gammas = []
    k_A = np.empty(M)
    K_A = np.empty((M, M))
    for i, e in enumerate(experts):
        k_i = kernel_matrix(e.data.X, x, hp)[:, 0]
        gamma = cho_solve((e.chol_C, True), k_i)
        gammas.append(gamma)
        k_A[i] = gamma @ k_i
        K_A[i, i] = k_A[i]
    for i in range(M):
        for j in range(i + 1, M):
            cross = kernel_matrix(experts[i].data.X, experts[j].data.X, hp)
            K_A[i, j] = K_A[j, i] = gammas[i] @ (cross @ gammas[j])
    return PointwiseCovariances(K_A=K_A, k_A=k_A)


def _npae_loop_reference(experts, hp, X_star):
    """The loop form of ``npae_aggregate``: one Python-level product per
    test point. Each expert's K_A diagonal and local means are
    ``posterior_terms`` of each point's column alone, and Gamma_i is one
    transposed solve, as in ``predict``'s route. Each stacked item must
    be the same BLAS call on the same operands, so the two agree bit for
    bit; a numpy whose stacked matmul leaves the per-item BLAS path
    breaks that."""
    X_star = np.asarray(X_star, dtype=float)
    M = len(experts)
    n_t = X_star.shape[0]
    gammas = []
    K_A = np.empty((n_t, M, M))
    local_means = np.empty((n_t, M))
    for i, e in enumerate(experts):
        wz = solve_lower(e.chol_C, with_targets(e.data, X_star, hp))
        for t in range(n_t):
            (local_means[t, i],), (K_A[t, i, i],) = posterior_terms(wz[:, [t, -1]])
        gammas.append(np.ascontiguousarray(solve_lower(e.chol_C, wz[:, :-1], transpose=True).T))

    for i in range(M):
        for j in range(i + 1, M):
            cross = kernel_matrix(experts[i].data.X, experts[j].data.X, hp)
            g_i, g_j = gammas[i], gammas[j]
            for t in range(n_t):
                K_A[t, i, j] = K_A[t, j, i] = g_i[t] @ (cross @ g_j[t])

    means = np.empty(n_t)
    for t in range(n_t):
        L, _ = chol_jitter(K_A[t])
        w = linalg_cho_solve(L, K_A[t].diagonal())
        means[t] = w @ local_means[t]
    return means


def joint_oracle(parts, hp, x_star):
    """Full-joint brute force: materialize Cov of every observation, apply the
    per-expert weight maps with dense inverses."""
    M = len(parts)
    Xcat = np.vstack([p.X for p in parts])
    Cfull = kernel_matrix(Xcat, Xcat, hp) + hp.noise_variance * np.eye(len(Xcat))
    bounds = np.cumsum([0] + [p.n for p in parts])
    x = np.asarray(x_star, dtype=float).reshape(1, -1)
    gammas, mus = [], []
    for p in parts:
        Ci = kernel_matrix(p.X, p.X, hp) + hp.noise_variance * np.eye(p.n)
        ki = kernel_matrix(p.X, x, hp)[:, 0]
        gam = np.linalg.inv(Ci) @ ki
        gammas.append(gam)
        mus.append(gam @ p.y)
    K_A = np.empty((M, M))
    k_A = np.empty(M)
    for i in range(M):
        k_A[i] = gammas[i] @ kernel_matrix(parts[i].X, x, hp)[:, 0]
        for j in range(M):
            block = Cfull[bounds[i] : bounds[i + 1], bounds[j] : bounds[j + 1]]
            K_A[i, j] = gammas[i] @ block @ gammas[j]
    mean = np.linalg.solve(K_A, k_A) @ np.array(mus)
    return K_A, k_A, mean


def assert_batch_matches_per_point_calls():
    """A query's prediction must not depend on the batch it shares: every
    per-point product reads contiguous rows, so it is bit for bit the
    same in a batch, in pieces and one point at a time. The batch spans
    three query blocks, and two pieces straddle block boundaries. The
    batch is also checked against the loop form."""
    rng = np.random.default_rng(8)
    hp = Hyperparameters([0.25], 1.0, 0.05)
    _, experts = make_experts(rng, hp, 5, 30)
    n_t = 2 * npae.QUERY_BLOCK + 88
    X_star = rng.uniform(-0.2, 1.2, (n_t, 1))
    batch = npae_aggregate(experts, hp, X_star)
    single = np.array([npae_aggregate(experts, hp, X_star[t : t + 1])[0] for t in range(n_t)])
    cuts = ((0, 2), (2, 9), (9, 23), (23, 250), (250, 300), (300, n_t))
    split = np.concatenate([npae_aggregate(experts, hp, X_star[a:b]) for a, b in cuts])
    assert np.array_equal(single, batch)
    assert np.array_equal(split, batch)
    assert np.array_equal(batch, _npae_loop_reference(experts, hp, X_star))


def assert_split_and_permuted_batches_match_on_2d_inputs():
    rng = np.random.default_rng(11)
    hp = Hyperparameters([0.3, 0.4], 1.0, 0.05)
    X = rng.uniform(0, 1, (150, 2))
    data = Dataset(X, np.sin(4 * X[:, 0]) + 0.1 * rng.standard_normal(150))
    experts = [train_expert(s, hp) for s in kmeans_partition(data, 4, seed=0).subsets]
    X_star = rng.uniform(-0.2, 1.2, (40, 2))
    batch = npae_aggregate(experts, hp, X_star)
    perm = rng.permutation(40)
    shuffled = np.concatenate([npae_aggregate(experts, hp, X_star[perm[a:b]]) for a, b in ((0, 13), (13, 14), (14, 40))])
    assert np.array_equal(shuffled, batch[perm])
    assert np.array_equal(batch, _npae_loop_reference(experts, hp, X_star))


def assert_loop_reference_shape(d, M, n_per, n_t):
    rng = np.random.default_rng(100 * d + M)
    hp = Hyperparameters([0.3] * d, 1.0, 0.05)
    _, experts = make_experts(rng, hp, M, n_per, d)
    X_star = rng.uniform(-0.2, 1.2, (n_t, d))
    assert np.array_equal(npae_aggregate(experts, hp, X_star), _npae_loop_reference(experts, hp, X_star))


class TestPointwiseCov:
    def test_single_expert_scalar_cancellation(self):
        rng = np.random.default_rng(0)
        hp = Hyperparameters([0.5], 1.2, 0.1)
        parts, experts = make_experts(rng, hp, 1, 8)
        x = np.array([0.37])
        pc = npae_pointwise_cov(experts, hp, x)
        # Cov(mu_1, mu_1) = Gamma C Gamma' collapses to k' C^-1 k = k_A
        assert pc.K_A.shape == (1, 1)
        assert pc.K_A[0, 0] == pytest.approx(pc.k_A[0], rel=1e-12)

    def test_matches_full_joint_oracle(self):
        rng = np.random.default_rng(1)
        hp = Hyperparameters([0.4], 1.0, 0.08)
        parts, experts = make_experts(rng, hp, 3, 7)
        for x in [np.array([0.2]), np.array([0.9]), np.array([-0.1])]:
            K_A, k_A, _ = joint_oracle(parts, hp, x)
            pc = npae_pointwise_cov(experts, hp, x)
            assert np.allclose(pc.K_A, K_A, atol=1e-9)
            assert np.allclose(pc.k_A, k_A, atol=1e-9)
            assert np.allclose(pc.K_A, pc.K_A.T, atol=1e-12)

    def test_duplicated_experts_near_singular(self):
        rng = np.random.default_rng(2)
        hp = Hyperparameters([0.5], 1.0, 1e-12)
        data = Dataset(rng.uniform(0, 1, (6, 1)), rng.standard_normal(6))
        experts = [train_expert(data, hp), train_expert(data, hp)]
        pc = npae_pointwise_cov(experts, hp, np.array([0.5]))
        # noise-free duplicates make K_A essentially rank one with equal entries
        assert np.allclose(pc.K_A, pc.K_A[0, 0], rtol=1e-6)
        # the aggregate still returns the shared expert's mean; the 1e-12
        # noise keeps the off-diagonal ~1e-9 below the diagonal, so K_A
        # factorizes without jitter
        mean = npae_aggregate(experts, hp, np.array([[0.5]]))
        expert_mean, _ = predict(experts[0], np.array([[0.5]]), hp)
        assert mean[0] == pytest.approx(expert_mean[0], abs=1e-6)

    def test_duplicated_experts_jitter_is_reported(self, caplog, monkeypatch):
        # at 1e-16 noise the duplicates' K_A is singular to rounding at most
        # points, which the stacked solve refuses and chol_jitter jitters;
        # each call counts those points over all its query blocks and warns
        # once
        rng = np.random.default_rng(2)
        hp = Hyperparameters([0.5], 1.0, 1e-16)
        data = Dataset(rng.uniform(0, 1, (6, 1)), rng.standard_normal(6))
        experts = [train_expert(data, hp), train_expert(data, hp)]
        jitters = []

        def recording(A):
            L, jitter = chol_jitter(A)
            jitters.append(jitter)
            return L, jitter

        monkeypatch.setattr(npae, "chol_jitter", recording)
        for n_t in (11, 600):
            jitters.clear()
            caplog.clear()
            X_star = np.linspace(0, 1, n_t)[:, None]
            with caplog.at_level(logging.WARNING, logger="gpagg.npae"):
                mean = npae_aggregate(experts, hp, X_star)
            expert_mean, _ = predict(experts[0], X_star, hp)
            assert np.allclose(mean, expert_mean, atol=1e-6)
            jittered = [j for j in jitters if j > 0.0]
            assert jittered == jitters and 0 < len(jitters) < n_t
            assert [r.getMessage() for r in caplog.records] == [
                f"npae_aggregate: {len(jittered)} of {n_t} test points needed Cholesky jitter"
                f" on K_A (largest {max(jittered):.3e})"
            ]

    def test_well_conditioned_call_logs_no_warning(self, caplog):
        rng = np.random.default_rng(12)
        hp = Hyperparameters([0.3], 1.0, 0.1)
        _, experts = make_experts(rng, hp, 3, 8)
        with caplog.at_level(logging.WARNING, logger="gpagg.npae"):
            npae_aggregate(experts, hp, rng.uniform(0, 1, (5, 1)))
        assert not caplog.records


class TestAggregate:
    def test_single_expert_weight_collapses_to_one(self):
        rng = np.random.default_rng(3)
        hp = Hyperparameters([0.6], 1.0, 0.05)
        parts, experts = make_experts(rng, hp, 1, 10)
        X_star = rng.uniform(0, 1, (7, 1))
        agg = npae_aggregate(experts, hp, X_star)
        mean, _ = predict(experts[0], X_star, hp)
        assert np.allclose(agg, mean, atol=1e-10)

    def test_no_experts_rejected(self):
        hp = Hyperparameters([0.5], 1.0, 0.1)
        with pytest.raises(ValueError, match="need at least one expert"):
            npae_aggregate([], hp, np.zeros((3, 1)))

    @pytest.mark.parametrize(
        "trained, queried",
        [
            (Hyperparameters([0.3], 1.0, 0.05), Hyperparameters([0.3], 0.9, 0.05)),
            (Hyperparameters([0.3], 1.0, 0.05), Hyperparameters([0.1], 1.0, 0.05)),
        ],
    )
    def test_hyperparameters_must_match_the_experts(self, trained, queried):
        # a mismatch would silently weight the experts with another kernel
        # (or fail in K_A's jitter); it is refused as gp.predict refuses it,
        # even when only one expert differs
        rng = np.random.default_rng(13)
        _, experts = make_experts(rng, trained, 3, 20)
        X_star = rng.uniform(0, 1, (10, 1))
        with pytest.raises(ValueError, match="hyperparameters differ"):
            npae_aggregate(experts, queried, X_star)
        with pytest.raises(ValueError, match="hyperparameters differ"):
            npae_aggregate(experts[:2] + [train_expert(experts[2].data, queried)], queried, X_star)

    def test_zero_targets_give_zero_aggregate(self):
        rng = np.random.default_rng(4)
        hp = Hyperparameters([0.5], 1.0, 0.1)
        parts = [Dataset(rng.uniform(0, 1, (5, 1)), np.zeros(5)) for _ in range(3)]
        experts = [train_expert(p, hp) for p in parts]
        agg = npae_aggregate(experts, hp, rng.uniform(0, 1, (4, 1)))
        assert np.array_equal(agg, np.zeros(4))

    def test_matches_full_joint_oracle_means(self):
        rng = np.random.default_rng(5)
        hp = Hyperparameters([0.45], 1.1, 0.07)
        for M in (2, 3):
            parts, experts = make_experts(rng, hp, M, 6)
            X_star = rng.uniform(-0.2, 1.2, (5, 1))
            agg = npae_aggregate(experts, hp, X_star)
            for t in range(5):
                _, _, mean = joint_oracle(parts, hp, X_star[t])
                assert agg[t] == pytest.approx(mean, abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        hp = Hyperparameters([0.5], 1.0, 0.1)
        parts, experts = make_experts(rng, hp, 4, 6)
        X_star = rng.uniform(0, 1, (6, 1))
        a = npae_aggregate(experts, hp, X_star)
        perm = [2, 0, 3, 1]
        b = npae_aggregate([experts[i] for i in perm], hp, X_star)
        assert np.allclose(a, b, atol=1e-10)

    def test_batch_matches_per_point_calls(self):
        assert_batch_matches_per_point_calls()

    def test_split_and_permuted_batches_match_on_2d_inputs(self):
        assert_split_and_permuted_batches_match_on_2d_inputs()

    def test_local_means_and_diagonal_are_predicts_bits(self, monkeypatch):
        # NPAE reads each expert's posterior where predict does: the
        # local means are predict's means, and the K_A diagonal that the
        # stacked solve receives is predict's explained variance
        rng = np.random.default_rng(23)
        hp = Hyperparameters([0.3, 0.4], 1.0, 0.05)
        experts = [train_expert(Dataset(rng.uniform(0, 1, (k, 2)), rng.standard_normal(k)), hp) for k in (1, 120, 384)]
        X_star = rng.uniform(-0.2, 1.2, (40, 2))
        terms, diagonals = [], []

        def recording(wz):
            terms.append(posterior_terms(wz))
            return terms[-1]

        def solving(A, b):
            diagonals.append(b.copy())
            return spd_solve_each(A, b)

        monkeypatch.setattr(gp, "posterior_terms", recording)
        monkeypatch.setattr(npae, "posterior_terms", recording)
        monkeypatch.setattr(npae, "spd_solve_each", solving)
        npae_aggregate(experts, hp, X_star)
        in_npae = terms[:]
        terms.clear()
        means = [predict(e, X_star, hp)[0] for e in experts]
        assert len(in_npae) == len(terms) == len(experts) and len(diagonals) == 1
        for i, ((local, diagonal), (mean, explained)) in enumerate(zip(in_npae, terms)):
            assert np.array_equal(local, means[i]) and np.array_equal(local, mean)
            assert np.array_equal(diagonal, explained)
            assert np.array_equal(diagonals[0][:, i], explained)

    def test_matches_pointwise_oracle_on_2d_inputs(self):
        # wider inputs take the cdist route through kernel_matrix
        rng = np.random.default_rng(9)
        hp = Hyperparameters([0.3, 0.5], 1.0, 0.05)
        X = rng.uniform(0, 1, (160, 2))
        data = Dataset(X, np.sin(4 * X[:, 0]) * np.cos(3 * X[:, 1]) + 0.1 * rng.standard_normal(160))
        experts = [train_expert(s, hp) for s in kmeans_partition(data, 5, seed=0).subsets]
        X_star = rng.uniform(-0.1, 1.1, (12, 2))
        agg = npae_aggregate(experts, hp, X_star)
        for t, x in enumerate(X_star):
            pc = npae_pointwise_cov(experts, hp, x)
            mus = np.array([predict(e, x[None, :], hp)[0][0] for e in experts])
            oracle = np.linalg.solve(pc.K_A, pc.k_A) @ mus
            assert abs(agg[t] - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_traced_peak_stays_off_the_joint(self):
        # The call keeps the M weight matrices Gamma_i of one query block
        # (n x min(n_t, QUERY_BLOCK) together; n_t = 200 is a single block)
        # plus the largest matrix of run_benchmark's npae rule: one expert's
        # block, a cross block or the K_A stack. The old n x n joint was
        # 8 n^2 bytes, 32 MB here.
        rng = np.random.default_rng(10)
        hp = Hyperparameters([0.1], 1.0, 0.01)
        n, M, n_t = 2000, 20, 200
        data = Dataset(rng.uniform(0, 1, (n, 1)), rng.standard_normal(n))
        experts = [train_expert(s, hp) for s in kmeans_partition(data, M, seed=0).subsets]
        X_star = rng.uniform(0, 1, (n_t, 1))
        max_n_i = max(e.data.n for e in experts)
        rule = 8 * max(max_n_i**2, n_t * M * M, max_n_i * n_t)
        tracemalloc.start()
        try:
            npae_aggregate(experts, hp, X_star)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (8 * n * n_t + rule)
        assert peak < 8 * n * n / 5

    def test_traced_peak_does_not_grow_with_the_batch(self):
        # Query blocks bound the working set: four blocks' worth of queries
        # peak no higher than one block, not four times as high.
        rng = np.random.default_rng(14)
        hp = Hyperparameters([0.1], 1.0, 0.01)
        data = Dataset(rng.uniform(0, 1, (2000, 1)), rng.standard_normal(2000))
        experts = [train_expert(s, hp) for s in kmeans_partition(data, 20, seed=0).subsets]
        X_star = rng.uniform(0, 1, (4 * npae.QUERY_BLOCK, 1))

        def traced_peak(X):
            tracemalloc.start()
            try:
                npae_aggregate(experts, hp, X)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_block = traced_peak(X_star[: npae.QUERY_BLOCK])
        assert traced_peak(X_star) <= 1.25 * one_block

    @pytest.mark.slow
    def test_cost_scales_superlinearly_in_expert_count(self):
        # with n fixed the cross-block flops stay near n^2 n_t, but the calls
        # grow like M^2 matrix-vector products per test point plus an M^3
        # solve; quadrupling M should cost well over 4x
        rng = np.random.default_rng(7)
        hp = Hyperparameters([0.3], 1.0, 0.1)
        data = Dataset(rng.uniform(0, 1, (200, 1)), rng.standard_normal(200))
        X_star = rng.uniform(0, 1, (40, 1))

        def wall(M):
            from gpagg import kmeans_partition

            parts = kmeans_partition(data, M, seed=0)
            experts = [train_expert(s, hp) for s in parts.subsets]
            npae_aggregate(experts, hp, X_star)  # warm-up
            # the fastest of five calls: one call stalled by a busy machine
            # must not decide the ratio
            times = []
            for _ in range(5):
                tic = time.perf_counter()
                npae_aggregate(experts, hp, X_star)
                times.append(time.perf_counter() - tic)
            return min(times)

        assert wall(20) / wall(5) > 4.0


# (d, M, n per expert, n_t): 1-D to 3-D inputs, one to twenty experts,
# a single query, and a batch of three query blocks
LOOP_REFERENCE_SHAPES = [
    (1, 1, 10, 7),
    (1, 2, 6, 5),
    (1, 3, 7, 9),
    (1, 4, 30, 23),
    (1, 5, 40, 60),
    (1, 8, 25, 200),
    (1, 12, 15, 50),
    (1, 20, 20, 200),
    (2, 2, 20, 10),
    (2, 4, 35, 40),
    (2, 5, 30, 12),
    (2, 10, 20, 100),
    (3, 3, 25, 15),
    (3, 6, 20, 80),
    (3, 9, 12, 30),
    (3, 16, 10, 200),
    (1, 6, 20, 1),
    (1, 4, 15, 600),
]


class TestLoopReference:
    @pytest.mark.parametrize("d, M, n_per, n_t", LOOP_REFERENCE_SHAPES)
    def test_stacked_products_equal_the_loops(self, d, M, n_per, n_t):
        assert_loop_reference_shape(d, M, n_per, n_t)

    def test_subnormal_products_equal_the_loops(self):
        # at lengthscale 0.05 on [0, 4], the cross blocks of far-apart
        # experts underflow into subnormal numbers
        rng = np.random.default_rng(15)
        hp = Hyperparameters([0.05], 1.0, 0.01)
        X = np.sort(rng.uniform(0, 4, (320, 1)), axis=0)
        y = np.sin(3 * X[:, 0]) + 0.1 * rng.standard_normal(320)
        experts = [train_expert(Dataset(X[a : a + 40], y[a : a + 40]), hp) for a in range(0, 320, 40)]
        cross = kernel_matrix(experts[0].data.X, experts[3].data.X, hp)
        assert np.any((cross > 0) & (cross < np.finfo(float).tiny))
        X_star = rng.uniform(0, 4, (30, 1))
        assert np.array_equal(npae_aggregate(experts, hp, X_star), _npae_loop_reference(experts, hp, X_star))


@pytest.fixture(params=[2, 3], ids=["2 workers", "3 workers"])
def threaded(request, monkeypatch):
    """Every block on ``request.param`` workers, however small: the
    threshold is 0, and 3 workers split the experts and pairs unevenly;
    both phases use every worker."""
    monkeypatch.setattr(_workers, "PARALLEL_WORK", 0)
    monkeypatch.setattr(_workers, "worker_count", lambda: request.param)
    return request.param


def recording_kernel_matrix(monkeypatch, record=lambda X, X2: threading.current_thread()):
    """Patch the kernel of both phases, the cross blocks' ``npae.kernel_matrix``
    and the one ``gp.with_targets`` builds for each expert, to record
    ``record(X, X2)`` of every call; by default its thread."""
    calls = []

    def recording(X, X2, hp):
        calls.append(record(X, X2))
        return kernel_matrix(X, X2, hp)

    monkeypatch.setattr(npae, "kernel_matrix", recording)
    monkeypatch.setattr(gp, "kernel_matrix", recording)
    return calls


class TestWorkerShares:
    """Every K_A entry comes from one share, on the operands and BLAS
    calls of one thread, so any number of workers gives the same bits."""

    @pytest.mark.parametrize("d, M, n_per, n_t", LOOP_REFERENCE_SHAPES)
    def test_threaded_products_equal_the_loops(self, threaded, d, M, n_per, n_t):
        assert_loop_reference_shape(d, M, n_per, n_t)

    def test_threaded_batch_matches_per_point_calls(self, threaded):
        assert_batch_matches_per_point_calls()

    def test_threaded_split_and_permuted_batches_match_on_2d_inputs(self, threaded):
        assert_split_and_permuted_batches_match_on_2d_inputs()

    def test_each_block_builds_every_kernel_block_once(self, threaded, monkeypatch):
        # two shares that wrote the same pair would give the same bits,
        # so the work itself is counted: per query block, one k(X_i, X*)
        # per expert and one k(X_i, X_j) per pair i < j
        rng = np.random.default_rng(21)
        hp = Hyperparameters([0.3], 1.0, 0.05)
        _, experts = make_experts(rng, hp, 7, 15)
        index = {id(e.data.X): i for i, e in enumerate(experts)}
        calls = recording_kernel_matrix(monkeypatch, lambda X, X2: (index[id(X)], index.get(id(X2), "X*")))
        npae_aggregate(experts, hp, rng.uniform(0, 1, (npae.QUERY_BLOCK + 5, 1)))
        expected = [(i, "X*") for i in range(7)] + [(i, j) for i in range(7) for j in range(i + 1, 7)]
        assert sorted(calls, key=str) == sorted(2 * expected, key=str)

    def test_more_workers_than_cores_under_frequent_switches(self, monkeypatch):
        # five workers on a short switch interval interleave their writes
        # to K_A, the local means and the weight list as often as they
        # can; a lost or misplaced write would change the bits
        monkeypatch.setattr(_workers, "PARALLEL_WORK", 0)
        monkeypatch.setattr(_workers, "worker_count", lambda: 5)
        rng = np.random.default_rng(22)
        hp = Hyperparameters([0.3], 1.0, 0.05)
        _, experts = make_experts(rng, hp, 12, 20)
        X_star = rng.uniform(0, 1, (40, 1))
        expected = _npae_loop_reference(experts, hp, X_star)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                assert np.array_equal(npae_aggregate(experts, hp, X_star), expected)
        finally:
            sys.setswitchinterval(interval)

    def test_block_above_the_threshold_runs_on_every_worker(self, monkeypatch):
        # unpatched: this block's pair work is above PARALLEL_WORK, so it
        # runs on worker_count() threads and still matches the loops
        rng = np.random.default_rng(17)
        hp = Hyperparameters([0.1], 1.0, 0.01)
        data = Dataset(rng.uniform(0, 1, (1200, 1)), rng.standard_normal(1200))
        experts = [train_expert(s, hp) for s in kmeans_partition(data, 12, seed=0).subsets]
        X_star = rng.uniform(0, 1, (60, 1))
        assert npae._pair_work([e.data.n for e in experts], 60) >= _workers.PARALLEL_WORK
        expected = _npae_loop_reference(experts, hp, X_star)
        threads = recording_kernel_matrix(monkeypatch)
        assert np.array_equal(npae_aggregate(experts, hp, X_star), expected)
        assert threading.main_thread() in threads
        assert len(set(threads)) >= min(_workers.worker_count(), 12)


class TestThreadHygiene:
    def test_worker_exception_reaches_the_caller(self, threaded, monkeypatch):
        # the cross block of pair (0, 2), the second pair, is built by
        # share 1 on a worker thread
        class CrossBlockError(RuntimeError):
            pass

        rng = np.random.default_rng(18)
        hp = Hyperparameters([0.3], 1.0, 0.05)
        _, experts = make_experts(rng, hp, 4, 20)
        raised_on = []

        def failing(X, X2, hp):
            if X is experts[0].data.X and X2 is experts[2].data.X:
                raised_on.append(threading.current_thread())
                raise CrossBlockError("cross block (0, 2)")
            return kernel_matrix(X, X2, hp)

        monkeypatch.setattr(npae, "kernel_matrix", failing)
        started = threading.active_count()
        with pytest.raises(CrossBlockError, match=r"cross block \(0, 2\)"):
            npae_aggregate(experts, hp, rng.uniform(0, 1, (30, 1)))
        assert raised_on and raised_on[0] is not threading.main_thread()
        assert threading.active_count() == started

    def test_k_a_solves_stay_on_the_calling_thread(self, threaded, monkeypatch):
        rng = np.random.default_rng(19)
        hp = Hyperparameters([0.3], 1.0, 0.05)
        _, experts = make_experts(rng, hp, 5, 20)
        callers, solved = [], []

        def recording(A, b):
            callers.append(threading.current_thread())
            solved.append(len(b))
            return spd_solve_each(A, b)

        monkeypatch.setattr(npae, "spd_solve_each", recording)
        threads = recording_kernel_matrix(monkeypatch)
        npae_aggregate(experts, hp, rng.uniform(0, 1, (300, 1)))
        assert len(set(threads)) >= threaded
        assert solved == [npae.QUERY_BLOCK, 300 - npae.QUERY_BLOCK]
        assert all(c is threading.main_thread() for c in callers)

    def test_block_below_the_threshold_starts_no_thread(self, monkeypatch):
        # the shapes of test_cost_scales_superlinearly_in_expert_count
        # stay on the caller's thread
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started below the threshold")

        hp = Hyperparameters([0.3], 1.0, 0.1)
        data = Dataset(np.random.default_rng(7).uniform(0, 1, (200, 1)), np.zeros(200))
        X_star = np.linspace(0, 1, 40)[:, None]
        monkeypatch.setattr(_workers.threading, "Thread", refuse)
        for M in (5, 20):
            experts = [train_expert(s, hp) for s in kmeans_partition(data, M, seed=0).subsets]
            assert npae._pair_work([e.data.n for e in experts], 40) < _workers.PARALLEL_WORK
            npae_aggregate(experts, hp, X_star)

    def test_import_starts_no_thread(self):
        src = Path(npae.__file__).resolve().parent.parent
        code = (
            "import sys, threading\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import gpagg\n"
            "print(threading.active_count())\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.strip() == "1"

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    def test_forked_child_runs_threaded_calls(self, threaded):
        # the workers of the parent's call are gone when it returns, so a
        # child forked afterwards starts its own and finishes
        rng = np.random.default_rng(20)
        hp = Hyperparameters([0.3], 1.0, 0.05)
        _, experts = make_experts(rng, hp, 6, 30)
        X_star = rng.uniform(0, 1, (50, 1))
        expected = npae_aggregate(experts, hp, X_star)
        child = multiprocessing.get_context("fork").Process(
            target=_assert_npae_equals, args=(experts, hp, X_star, expected)
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("the forked child did not finish a threaded call within 60 s")
        assert child.exitcode == 0


def _assert_npae_equals(experts, hp, X_star, expected):
    assert np.array_equal(npae_aggregate(experts, hp, X_star), expected)
