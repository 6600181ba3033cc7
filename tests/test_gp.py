import json
import math
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import gpagg.gp as gp
from gpagg import _workers
from gpagg._linalg import cho_solve, chol_jitter, cholesky, solve_lower
from gpagg import (
    Dataset,
    DimensionError,
    FitError,
    FitOptions,
    Hyperparameters,
    NumericalError,
    collect_predictions,
    fit_shared_hyperparameters,
    grbcm_aggregate,
    kernel_matrix,
    kmeans_partition,
    lml_gradient,
    log_marginal_likelihood,
    npae_aggregate,
    predict,
    train_expert,
)

LOG_2PI = math.log(2.0 * math.pi)


def dense_lml_oracle(data, hp):
    """Brute-force lml via explicit dense inverse and slogdet."""
    K = kernel_matrix(data.X, data.X, hp)
    C = K + hp.noise_variance * np.eye(data.n)
    quad = data.y @ np.linalg.inv(C) @ data.y
    _, logdet = np.linalg.slogdet(C)
    return -0.5 * quad - 0.5 * logdet - 0.5 * data.n * LOG_2PI


def fd_gradient_oracle(data, hp, step=1e-5):
    """Central finite differences of the lml in log-parameter space."""
    v0 = hp.log_vector()
    grad = np.empty(v0.size)
    for j in range(v0.size):
        vp, vm = v0.copy(), v0.copy()
        vp[j] += step
        vm[j] -= step
        fp = log_marginal_likelihood(data, Hyperparameters.from_log_vector(vp))
        fm = log_marginal_likelihood(data, Hyperparameters.from_log_vector(vm))
        grad[j] = (fp - fm) / (2 * step)
    return grad


def dense_grad_oracle(data, hp):
    """1/2 tr((alpha alpha' - C^-1) dC/dtheta_j) with an explicit dense inverse."""
    X, ls = data.X, hp.lengthscale
    K = kernel_matrix(X, X, hp)
    Cinv = np.linalg.inv(K + hp.noise_variance * np.eye(data.n))
    alpha = Cinv @ data.y
    A = np.outer(alpha, alpha) - Cinv
    if ls.size == 1:
        dists = [cdist(X, X, "sqeuclidean") / ls[0] ** 2]
    else:
        dists = [cdist(X[:, [j]], X[:, [j]], "sqeuclidean") / ls[j] ** 2 for j in range(ls.size)]
    dK = [K * D for D in dists] + [K, hp.noise_variance * np.eye(data.n)]
    return np.array([0.5 * np.sum(A * B) for B in dK])


def tensordot_lml_and_grad(data, hp, monkeypatch):
    """``_lml_and_grad`` with C = K + sigma^2 I built by one np.tensordot.

    The tensordot C is copied over the matrix handed to ``chol_jitter``,
    so everything after the kernel scaling runs the module's own code.
    """
    sq = gp._sq_dists(data.X, hp.lengthscale.size)
    C = np.tensordot(-0.5 / hp.lengthscale**2, sq, axes=1)
    np.exp(C, out=C)
    C *= hp.signal_variance
    C.flat[:: data.n + 1] += hp.noise_variance

    def substituted(A):
        calls.append(A.shape)
        A[...] = C
        return real(A)

    real, calls = gp.chol_jitter, []
    with monkeypatch.context() as m:
        m.setattr(gp, "chol_jitter", substituted)
        result = gp._lml_and_grad(data, hp, sq)
    assert calls == [C.shape]
    return result


def _predict_reference(expert, X_star):
    """The expert's posterior with the mean as k' (C^-1 y), C^-1 y by
    ``cho_solve``, and the variance from w = L^-1 k (no shared solve)."""
    hp = expert.hp
    k_star = kernel_matrix(expert.data.X, X_star, hp)
    means = k_star.T @ cho_solve(expert.chol_C, expert.data.y)
    w = solve_lower(expert.chol_C, k_star)
    return means, gp.posterior_variance(hp, np.sum(w * w, axis=0))


# every public entry point that takes test inputs
QUERY_ENTRIES = ["predict", "collect_predictions", "npae_aggregate", "grbcm_aggregate"]


def random_dataset(rng, n, d=1):
    return Dataset(rng.uniform(-1, 1, (n, d)), rng.standard_normal(n))


def random_hp(rng, d=1, ard=False):
    k = d if ard else 1
    return Hyperparameters(
        np.exp(rng.uniform(-1.0, 0.5, k)),
        math.exp(rng.uniform(-0.5, 0.5)),
        math.exp(rng.uniform(-3.0, -0.5)),
    )


class TestKernel:
    def test_zero_distance_gives_signal_variance(self):
        hp = Hyperparameters([0.7], 2.3, 0.1)
        x = np.array([[0.4, -1.2]])
        assert kernel_matrix(x, x, hp)[0, 0] == pytest.approx(2.3, abs=0)

    def test_unit_distance_frozen_value(self):
        hp = Hyperparameters([1.0], 1.0, 0.1)
        assert kernel_matrix([[0.0]], [[1.0]], hp)[0, 0] == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_huge_lengthscale_approaches_signal_variance(self):
        hp = Hyperparameters([1e6], 1.5, 0.1)
        assert abs(kernel_matrix([[0.0]], [[3.0]], hp)[0, 0] - 1.5) < 1e-6

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            hp = random_hp(rng, d=3)
            a, b = rng.standard_normal((1, 3)), rng.standard_normal((1, 3))
            kab = kernel_matrix(a, b, hp)[0, 0]
            assert kab == pytest.approx(kernel_matrix(b, a, hp)[0, 0], rel=1e-15)
            assert 0.0 < kab <= hp.signal_variance

    def test_dimension_mismatch_raises(self):
        hp = Hyperparameters([1.0], 1.0, 0.1)
        with pytest.raises(DimensionError):
            kernel_matrix([[0.0, 1.0]], [[0.0]], hp)
        with pytest.raises(DimensionError):
            kernel_matrix(np.zeros((3, 2)), np.zeros((3, 3)), hp)

    def test_ard_lengthscale_must_match_dimension(self):
        hp = Hyperparameters([1.0, 2.0, 3.0], 1.0, 0.1)
        with pytest.raises(DimensionError):
            kernel_matrix(np.zeros((3, 2)), np.zeros((3, 2)), hp)

    def test_matches_closed_form_bitwise(self):
        rng = np.random.default_rng(16)
        for ard in (False, True):
            hp = random_hp(rng, d=3, ard=ard)
            X, X2 = rng.standard_normal((7, 3)), rng.standard_normal((5, 3))
            D = cdist(X / hp.lengthscale, X2 / hp.lengthscale, "sqeuclidean")
            assert np.array_equal(kernel_matrix(X, X2, hp), hp.signal_variance * np.exp(-0.5 * D))


class TestSqDists:
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("n, m", [(1, 6), (6, 1), (1, 1), (40, 25)])
    def test_equals_cdist_bitwise(self, d, n, m):
        rng = np.random.default_rng(100 * d + n + m)
        X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        X2 = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        got = gp.sq_dists(X, X2)
        want = cdist(X, X2, "sqeuclidean")
        assert got.shape == want.shape == (n, m)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_one_d_prediction_loads_neither_optimizer_nor_spatial(self):
        # a process that partitions, trains, predicts and aggregates on 1-D
        # inputs must not pay for scipy.linalg's Python API (and the
        # numpy.f2py it pulls in), scipy.optimize or scipy.spatial; the
        # first fit still loads the optimizer
        src = Path(gp.__file__).resolve().parent.parent
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import numpy as np, gpagg\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.uniform(0, 1, 40)\n"
            "data = gpagg.Dataset(x[:, None], np.sin(6 * x) + 0.1 * rng.standard_normal(40))\n"
            "hp0 = gpagg.Hyperparameters([0.3], 1.0, 0.1)\n"
            "part = gpagg.kmeans_partition(data, 2, seed=0)\n"
            "gpagg.predict(gpagg.train_expert(part.subsets[0], hp0), np.array([[0.5]]), hp0)\n"
            "experts = [gpagg.train_expert(s, hp0) for s in part.subsets]\n"
            "X_star = np.array([[0.25], [0.5], [0.75]])\n"
            "preds = gpagg.collect_predictions(experts, X_star, hp0)\n"
            "for rule in (gpagg.poe, gpagg.gpoe, gpagg.bcm, gpagg.rbcm):\n"
            "    rule(preds)\n"
            "gpagg.grbcm_aggregate(part, hp0, X_star, seed=0)\n"
            "gpagg.npae_aggregate(experts, hp0, X_star)\n"
            "heavy = ('scipy.linalg', 'numpy.f2py', 'scipy.optimize', 'scipy.spatial')\n"
            "loaded = sorted(m for m in heavy if m in sys.modules)\n"
            "assert not loaded, loaded\n"
            "hp = gpagg.fit_shared_hyperparameters([data], hp0)\n"
            "assert 'scipy.optimize' in sys.modules\n"
            "print(hp.to_json())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert Hyperparameters.from_json(proc.stdout.strip().splitlines()[-1]).noise_variance > 0


class TestTypes:
    def test_hyperparameters_must_be_positive(self):
        for bad in [([0.0], 1.0, 1.0), ([1.0], -1.0, 1.0), ([1.0], 1.0, 0.0)]:
            with pytest.raises(ValueError):
                Hyperparameters(*bad)

    @pytest.mark.parametrize(
        "bad, named",
        [
            (([0.3], True, 0.1), "signal_variance must be of type float"),
            (([0.3], 1.0, np.bool_(False)), "noise_variance must be of type float"),
            (([0.3], "1.0", 0.1), "signal_variance must be of type float"),
            (([0.3], 1.0, math.inf), "noise_variance must be finite"),
            (([True], 1.0, 0.1), "lengthscale must be of type float"),
            ((["0.5"], 1.0, 0.1), "lengthscale must be of type float"),
            ((np.array([0.3, True], dtype=object), 1.0, 0.1), "lengthscale must be of type float"),
            (([0.3, math.nan], 1.0, 0.1), "lengthscale must be finite"),
        ],
        ids=[
            "bool-signal", "numpy-bool-noise", "string-signal", "infinite-noise",
            "bool-lengthscale", "string-lengthscale", "bool-second-lengthscale", "nan-lengthscale",
        ],
    )
    def test_hyperparameter_that_is_no_finite_number_raises(self, bad, named):
        # True would otherwise be taken as sigma_f^2 = 1, or as lengthscale 1
        with pytest.raises(ValueError, match=named):
            Hyperparameters(*bad)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("{}", "lengthscale"),
            ('{"lengthscale": [0.3], "signal_variance": 1.0}', "noise_variance"),
            ("[1]", "must be an object, got list"),
            ('{"lengthscale": ["0.5"], "signal_variance": 1.0, "noise_variance": 0.1}', "lengthscale must be of type float"),
        ],
        ids=["empty-object", "missing-noise", "list", "string-lengthscale"],
    )
    def test_hyperparameters_from_bad_json_raises_value_error(self, text, named):
        with pytest.raises(ValueError, match=named):
            Hyperparameters.from_json(text)

    def test_hyperparameters_json_round_trip(self):
        hp = Hyperparameters([0.2, 0.4], 1.5, 0.04)
        again = Hyperparameters.from_json(hp.to_json())
        assert again == hp
        payload = json.loads(hp.to_json())
        assert set(payload) == {"lengthscale", "signal_variance", "noise_variance"}
        assert payload["lengthscale"] == [0.2, 0.4]

    def test_dataset_rejects_mismatch_and_nonfinite(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros((3, 1)), np.zeros(4))
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan]]), np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0]]), np.array([np.inf]))

    def test_dataset_accepts_1d_inputs(self):
        ds = Dataset(np.arange(4.0), np.arange(4.0))
        assert ds.X.shape == (4, 1)

    def test_trained_expert_factorization_invariants(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng, 12)
        hp = random_hp(rng)
        expert = train_expert(data, hp)
        C = kernel_matrix(data.X, data.X, hp) + hp.noise_variance * np.eye(data.n)
        recon = expert.chol_C @ expert.chol_C.T
        rel = np.linalg.norm(recon - C) / np.linalg.norm(C)
        assert rel < 1e-8


def expert_covariance(data, hp):
    """C = K + sigma^2 I as ``train_expert`` forms it."""
    C = kernel_matrix(data.X, data.X, hp)
    C.flat[:: data.n + 1] += hp.noise_variance
    return C


class TestPackedFactor:
    """A trained expert keeps only the packed lower triangle of its factor
    and rebuilds the full factor, bit for bit, on each access to ``chol_C``."""

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 434])
    def test_chol_C_is_the_cholesky_factor(self, n):
        rng = np.random.default_rng(n)
        data, hp = random_dataset(rng, n), Hyperparameters([0.3], 1.0, 0.05)
        expert = train_expert(data, hp)
        assert expert.jitter == 0.0
        # train_expert factors with BLAS on one thread, so the reference does too
        reference = _workers.one_blas_thread(cholesky)(expert_covariance(data, hp))
        assert np.array_equal(expert.chol_C, reference)
        assert expert.chol_packed.nbytes == 8 * n * (n + 1) // 2
        assert set(vars(expert)) == {"data", "hp", "chol_packed", "jitter"}  # no full factor is kept

    def test_jittered_expert(self):
        # noise far below the roundoff of sigma_f^2 on near-duplicate inputs
        rng = np.random.default_rng(18)
        base = rng.uniform(-1, 1, 10)
        data = Dataset(np.concatenate([base, base + 1e-9]), rng.standard_normal(20))
        hp = Hyperparameters([1.0], 1e4, 1e-12)
        expert = train_expert(data, hp)
        L, jitter = chol_jitter(expert_covariance(data, hp))
        assert expert.jitter == jitter > 0
        assert np.array_equal(expert.chol_C, L)

    def test_each_access_is_a_new_array_the_caller_may_overwrite(self):
        rng = np.random.default_rng(5)
        expert = train_expert(random_dataset(rng, 130), Hyperparameters([0.3], 1.0, 0.05))
        packed = expert.chol_packed.copy()
        first, second = expert.chol_C, expert.chol_C
        assert not np.shares_memory(first, second)
        for L in (first, second):
            assert L.flags.f_contiguous and L.flags.writeable and not np.triu(L, 1).any()
        first[:] = np.nan
        assert np.array_equal(expert.chol_C, second)
        assert np.array_equal(expert.chol_packed, packed)

    def test_chol_C_cannot_be_assigned(self):
        expert = train_expert(random_dataset(np.random.default_rng(6), 4), Hyperparameters([0.3], 1.0, 0.05))
        with pytest.raises(AttributeError):
            expert.chol_C = np.eye(4)


class TestLogMarginalLikelihood:
    def test_single_point_zero_target_closed_form(self):
        hp = Hyperparameters([0.5], 1.3, 0.2)
        data = Dataset(np.array([[0.7]]), np.array([0.0]))
        expected = -0.5 * math.log(2 * math.pi * (1.3 + 0.2))
        assert log_marginal_likelihood(data, hp) == pytest.approx(expected, abs=1e-12)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(2)
        data = random_dataset(rng, 3)
        hp = random_hp(rng)
        assert log_marginal_likelihood(data, hp) == pytest.approx(
            dense_lml_oracle(data, hp), abs=1e-10
        )

    def test_dense_oracle_agreement_up_to_n20(self):
        rng = np.random.default_rng(3)
        for n in [2, 5, 11, 20]:
            for _ in range(3):
                data = random_dataset(rng, n, d=2)
                hp = random_hp(rng, d=2)
                assert abs(log_marginal_likelihood(data, hp) - dense_lml_oracle(data, hp)) < 1e-8

    def test_zeroing_targets_increases_lml_iff_quadratic_positive(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng, 8)
        hp = random_hp(rng)
        zeroed = Dataset(data.X, np.zeros(data.n))
        assert log_marginal_likelihood(zeroed, hp) > log_marginal_likelihood(data, hp)


class TestGradient:
    def test_matches_finite_differences_on_50_draws(self):
        rng = np.random.default_rng(5)
        for i in range(50):
            d = 1 if i % 2 == 0 else 2
            data = random_dataset(rng, rng.integers(3, 9), d=d)
            hp = random_hp(rng, d=d, ard=(i % 4 == 3))
            grad = lml_gradient(data, hp)
            fd = fd_gradient_oracle(data, hp)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grad - fd) / denom < 1e-5

    def test_single_point_noise_gradient_matches_fd(self):
        data = Dataset(np.array([[0.0]]), np.array([1.7]))
        hp = Hyperparameters([1.0], 0.8, 0.3)
        grad = lml_gradient(data, hp)
        fd = fd_gradient_oracle(data, hp)
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_cached_distances_match_uncached_and_dense_oracles(self):
        rng = np.random.default_rng(17)
        # n = 300 takes chol_inverse past INVERSE_BLOCK into its recursion
        for n, d, ard in [(25, 1, False), (25, 3, False), (25, 3, True), (300, 1, False), (300, 3, True)]:
            data = random_dataset(rng, n, d=d)
            hp = random_hp(rng, d=d, ard=ard)
            sq = gp._sq_dists(data.X, hp.lengthscale.size)
            cached = gp._lml_and_grad(data, hp, sq)
            uncached = gp._lml_and_grad(data, hp)
            assert cached[0] == uncached[0]
            assert np.array_equal(cached[1], uncached[1])
            assert cached[0] == pytest.approx(dense_lml_oracle(data, hp), abs=1e-8)
            oracle = dense_grad_oracle(data, hp)
            assert np.linalg.norm(cached[1] - oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))

    @pytest.mark.parametrize("n", [40, 434, 1000])
    def test_isotropic_scaling_equals_tensordot_bitwise(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        for d in (1, 3):
            data = random_dataset(rng, n, d=d)
            hp = random_hp(rng, d=d)
            value, grad = gp._lml_and_grad(data, hp)
            want_value, want_grad = tensordot_lml_and_grad(data, hp, monkeypatch)
            assert value == want_value
            assert grad.tobytes() == want_grad.tobytes()

    def test_ard_scaling_matches_tensordot(self, monkeypatch):
        # ARD sums the slices in another order; only rounding may differ
        rng = np.random.default_rng(21)
        for n, d in [(40, 3), (434, 5), (1000, 3)]:
            data = random_dataset(rng, n, d=d)
            hp = random_hp(rng, d=d, ard=True)
            value, grad = gp._lml_and_grad(data, hp)
            want_value, want_grad = tensordot_lml_and_grad(data, hp, monkeypatch)
            assert value == pytest.approx(want_value, rel=1e-12)
            assert np.linalg.norm(grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)

    def test_failed_cholesky_falls_back_to_jitter(self, monkeypatch):
        # noise far below the roundoff of sigma_f^2 on near-duplicate inputs
        rng = np.random.default_rng(18)
        base = rng.uniform(-1, 1, 10)
        data = Dataset(np.concatenate([base, base + 1e-9]), rng.standard_normal(20))
        hp = Hyperparameters([1.0], 1e4, 1e-12)
        jitters = []

        def recording(A):
            L, jitter = gp_chol_jitter(A)
            jitters.append(jitter)
            return L, jitter

        gp_chol_jitter = gp.chol_jitter
        monkeypatch.setattr(gp, "chol_jitter", recording)
        value, grad = gp._lml_and_grad(data, hp)
        assert jitters and jitters[0] > 0
        assert math.isfinite(value) and np.all(np.isfinite(grad))
        assert train_expert(data, hp).jitter == jitters[-1] > 0

    def test_gradient_small_at_found_optimum(self):
        rng = np.random.default_rng(6)
        data = random_dataset(rng, 40)
        init = Hyperparameters([0.5], 1.0, 0.1)
        hp = fit_shared_hyperparameters([data], init)
        # L-BFGS-B stops on the projected-gradient norm
        assert np.max(np.abs(lml_gradient(data, hp))) < 1e-4


class TestFit:
    def test_init_at_optimum_is_a_fixed_point(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, 30)
        rough = Hyperparameters([0.5], 1.0, 0.1)
        opt = fit_shared_hyperparameters([data], rough)
        again = fit_shared_hyperparameters([data], opt)
        f_opt = log_marginal_likelihood(data, opt)
        f_again = log_marginal_likelihood(data, again)
        assert f_again >= f_opt - 1e-9

    def test_objective_never_worse_than_init(self):
        rng = np.random.default_rng(8)
        parts = [random_dataset(rng, 15) for _ in range(3)]
        init = Hyperparameters([2.0], 0.5, 0.5)
        hp = fit_shared_hyperparameters(parts, init)
        before = sum(log_marginal_likelihood(p, init) for p in parts)
        after = sum(log_marginal_likelihood(p, hp) for p in parts)
        assert after >= before - 1e-9

    def test_recovers_known_generative_parameters(self):
        # data drawn from a known SE-GP; recovery within 0.5 in log space.
        # inputs span 40 lengthscales so the signal variance is identifiable
        rng = np.random.default_rng(9)
        truth = Hyperparameters([0.2], 1.0, 0.04)
        X = rng.uniform(0, 8, (500, 1))
        K = kernel_matrix(X, X, truth) + truth.noise_variance * np.eye(500)
        y = np.linalg.cholesky(K) @ rng.standard_normal(500)
        data = Dataset(X, y)
        init = Hyperparameters([0.5], 0.5, 0.1)
        hp = fit_shared_hyperparameters([data], init)
        assert np.max(np.abs(hp.log_vector() - truth.log_vector())) < 0.5

    def test_duplicated_partition_keeps_argmax(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng, 25)
        init = Hyperparameters([0.5], 1.0, 0.1)
        single = fit_shared_hyperparameters([data], init)
        double = fit_shared_hyperparameters([data, data], init)
        assert np.allclose(single.log_vector(), double.log_vector(), atol=1e-3)
        f1 = log_marginal_likelihood(data, single)
        f2 = sum(log_marginal_likelihood(p, double) for p in [data, data])
        assert f2 == pytest.approx(2 * log_marginal_likelihood(data, double), rel=1e-12)
        assert f2 <= 2 * f1 + 1e-9

    def test_each_point_evaluated_once(self, monkeypatch):
        rng = np.random.default_rng(19)
        parts = [random_dataset(rng, 15) for _ in range(3)]
        init = Hyperparameters([0.5], 1.0, 0.1)
        evaluated, nfev = [], []

        def lml(data, hp, *args):
            evaluated.append(hp.log_vector())
            return real_lml(data, hp, *args)

        def counted_minimize(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        real_lml, real_minimize = gp._lml_and_grad, gp.minimize
        monkeypatch.setattr(gp, "_lml_and_grad", lml)
        monkeypatch.setattr(gp, "minimize", counted_minimize)
        fit_shared_hyperparameters(parts, init)
        assert len(evaluated) == len(parts) * sum(nfev)
        assert sum(np.array_equal(v, init.log_vector()) for v in evaluated) == len(parts)

    def test_init_kept_when_every_restart_raises(self, monkeypatch, caplog):
        def failing(*args, **kwargs):
            raise NumericalError("restart failed")

        monkeypatch.setattr(gp, "minimize", failing)
        rng = np.random.default_rng(20)
        init = Hyperparameters([0.5], 1.0, 0.1)
        with caplog.at_level("WARNING", logger="gpagg.gp"):
            hp = fit_shared_hyperparameters([random_dataset(rng, 10)], init)
        assert np.allclose(hp.log_vector(), init.log_vector(), rtol=0, atol=1e-12)
        (record,) = caplog.records
        assert record.levelname == "WARNING"
        assert "1 of 1 optimizer runs failed" in record.getMessage()
        assert "restart failed" in record.getMessage()

    def test_default_fit_runs_the_optimizer_once(self, monkeypatch, caplog):
        # also with FitOptions(seed=...), which perfbench's pipeline passes
        calls = []

        def counted_minimize(*args, **kwargs):
            calls.append(args[1])
            return real_minimize(*args, **kwargs)

        real_minimize = gp.minimize
        monkeypatch.setattr(gp, "minimize", counted_minimize)
        rng = np.random.default_rng(22)
        parts = [random_dataset(rng, 20) for _ in range(2)]
        init = Hyperparameters([0.5], 1.0, 0.1)
        fitted = []
        for opts in ((), (FitOptions(seed=7),)):
            calls.clear()
            with caplog.at_level("WARNING", logger="gpagg.gp"):
                fitted.append(fit_shared_hyperparameters(parts, init, *opts))
            assert len(calls) == 1
            assert np.array_equal(calls[0], init.log_vector())
        assert fitted[0] == fitted[1]
        assert not caplog.records

    def test_fit_error_names_the_init_and_the_run(self, monkeypatch, caplog):
        def failing(*args, **kwargs):
            raise NumericalError("not positive definite")

        monkeypatch.setattr(gp, "_lml_and_grad", failing)
        rng = np.random.default_rng(23)
        init = Hyperparameters([0.5], 1.0, 0.1)
        with caplog.at_level("WARNING", logger="gpagg.gp"), pytest.raises(FitError) as info:
            fit_shared_hyperparameters([random_dataset(rng, 10)], init)
        diagnostics = info.value.diagnostics
        assert [d["stage"] for d in diagnostics] == ["init", "run"]
        assert all(d["error"] == "not positive definite" for d in diagnostics)
        (record,) = caplog.records
        assert "1 of 1 optimizer runs failed" in record.getMessage()

    @pytest.mark.parametrize("run_end", ["worse", "tie"])
    def test_init_returned_bitwise_unless_the_run_scores_better(self, monkeypatch, run_end):
        # a finite run that ends at another theta, scoring worse than the
        # init or exactly as well
        from scipy.optimize import OptimizeResult

        rng = np.random.default_rng(24)
        parts = [random_dataset(rng, 15) for _ in range(2)]
        init = Hyperparameters([0.5], 1.0, 0.1)
        end = init.log_vector() - 1.0
        calls = []

        def run(objective, x0, **kwargs):
            calls.append(x0)
            f_init, f_end = objective(x0)[0], objective(end)[0]
            assert math.isfinite(f_end) and f_end > f_init
            return OptimizeResult(x=end, fun=f_end if run_end == "worse" else f_init, success=True)

        monkeypatch.setattr(gp, "minimize", run)
        hp = fit_shared_hyperparameters(parts, init)
        assert len(calls) == 1
        assert hp == Hyperparameters.from_log_vector(init.log_vector())

    def test_empty_partition_list_raises(self):
        with pytest.raises(ValueError):
            fit_shared_hyperparameters([], Hyperparameters([1.0], 1.0, 0.1))

    def test_partitions_that_disagree_on_dimension_raise(self):
        rng = np.random.default_rng(17)
        parts = [random_dataset(rng, 8, d=1), random_dataset(rng, 8, d=2)]
        with pytest.raises(DimensionError, match="disagree on input dimension"):
            fit_shared_hyperparameters(parts, Hyperparameters([0.5], 1.0, 0.1))

    def test_ard_flag_expands_lengthscale(self):
        rng = np.random.default_rng(11)
        data = random_dataset(rng, 20, d=2)
        init = Hyperparameters([0.5, 0.5], 1.0, 0.1)
        hp = fit_shared_hyperparameters([data], init)
        assert hp.lengthscale.size == 2


def on_workers(monkeypatch, workers):
    """The fit's threads as on ``workers`` CPUs."""
    monkeypatch.setattr(_workers, "worker_count", lambda: workers)


def sine_partitions(rng, sizes):
    parts = []
    for n in sizes:
        X = rng.uniform(0, 1, (n, 1))
        parts.append(Dataset(X, np.sin(6 * X[:, 0]) + 0.1 * rng.standard_normal(n)))
    return parts


class TestThreadedFit:
    """The fit evaluates its partitions on worker threads once sum n_i^3
    reaches PARALLEL_WORK, with theta and its failures as on one thread."""

    # sum n_i^3 = 26.8 M
    SIZES = [100, 170, 190, 215, 160]

    def test_theta_bitwise_on_one_two_and_three_workers(self, monkeypatch):
        parts = sine_partitions(np.random.default_rng(30), self.SIZES)
        assert sum(p.n**3 for p in parts) >= _workers.PARALLEL_WORK
        init = Hyperparameters([0.3], 1.0, 0.05)
        real, on_main = gp._lml_and_grad, []

        def recording(*args):
            on_main.append(threading.current_thread() is threading.main_thread())
            return real(*args)

        monkeypatch.setattr(gp, "_lml_and_grad", recording)
        fitted = []
        for workers in (1, 2, 3):
            on_workers(monkeypatch, workers)
            on_main.clear()
            fitted.append(fit_shared_hyperparameters(parts, init).log_vector())
            # the caller's share is partitions 0, w, 2w, ... of each evaluation
            assert sum(on_main) * len(parts) == len(on_main) * len(range(0, len(parts), workers))
        assert not np.array_equal(fitted[0], init.log_vector())
        for theta in fitted[1:]:
            assert np.array_equal(theta, fitted[0])

    def test_fit_below_parallel_work_starts_no_thread(self, monkeypatch):
        on_workers(monkeypatch, 3)
        parts = sine_partitions(np.random.default_rng(31), [40] * 5)
        assert sum(p.n**3 for p in parts) < _workers.PARALLEL_WORK

        def refuse(*args, **kwargs):
            raise AssertionError("the fit started a thread")

        monkeypatch.setattr(threading, "Thread", refuse)
        hp = fit_shared_hyperparameters(parts, Hyperparameters([0.3], 1.0, 0.05))
        assert np.isfinite(hp.log_vector()).all()

    @pytest.mark.parametrize("init_fails", [False, True], ids=["run fails", "init fails too"])
    def test_error_on_a_worker_takes_the_one_thread_path(self, monkeypatch, caplog, init_fails):
        # partition 1 sits on the second share, a worker's, with 2 workers
        monkeypatch.setattr(_workers, "PARALLEL_WORK", 0)
        parts = sine_partitions(np.random.default_rng(32), [30] * 4)
        init = Hyperparameters([0.3], 1.0, 0.05)
        start = Hyperparameters.from_log_vector(init.log_vector())  # the objective's init
        real, raised_on = gp._lml_and_grad, []

        def failing(data, hp, *args):
            if data is parts[1] and (init_fails or hp != start):
                raised_on.append(threading.current_thread())
                raise NumericalError("partition 1 failed")
            return real(data, hp, *args)

        monkeypatch.setattr(gp, "_lml_and_grad", failing)
        outcomes = []
        for workers in (1, 2):
            on_workers(monkeypatch, workers)
            raised_on.clear()
            caplog.clear()
            with caplog.at_level("WARNING", logger="gpagg.gp"):
                if init_fails:
                    with pytest.raises(FitError) as info:
                        fit_shared_hyperparameters(parts, init)
                    outcomes.append(info.value.diagnostics)
                else:
                    outcomes.append(fit_shared_hyperparameters(parts, init))
            (record,) = caplog.records
            assert "1 of 1 optimizer runs failed (partition 1 failed)" in record.getMessage()
            assert raised_on
            assert all((t is threading.main_thread()) == (workers == 1) for t in raised_on)
        if init_fails:
            assert outcomes[0] == outcomes[1] == [
                {"stage": "init", "error": "partition 1 failed"},
                {"stage": "run", "error": "partition 1 failed"},
            ]
        else:
            assert outcomes[0] == outcomes[1] == start


class TestPredict:
    def test_single_point_closed_form(self):
        hp = Hyperparameters([1.0], 2.0, 0.5)
        data = Dataset(np.array([[0.3]]), np.array([1.4]))
        expert = train_expert(data, hp)
        mean, var = predict(expert, np.array([[0.3]]), hp)
        assert mean[0] == pytest.approx(2.0 / 2.5 * 1.4, rel=1e-12)

    def test_near_noiseless_interpolation(self):
        hp = Hyperparameters([1.0], 1.0, 1e-12)
        data = Dataset(np.array([[0.5]]), np.array([2.0]))
        expert = train_expert(data, hp)
        mean, _ = predict(expert, np.array([[0.5]]), hp)
        assert abs(mean[0] - 2.0) < 1e-4

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng, 4)
        hp = random_hp(rng)
        expert = train_expert(data, hp)
        X_star = rng.uniform(-1, 1, (6, 1))
        mean, var = predict(expert, X_star, hp)
        C = kernel_matrix(data.X, data.X, hp) + hp.noise_variance * np.eye(4)
        k = kernel_matrix(data.X, X_star, hp)
        Cinv = np.linalg.inv(C)
        mean_o = k.T @ Cinv @ data.y
        var_o = hp.signal_variance + hp.noise_variance - np.sum(k * (Cinv @ k), axis=0)
        assert np.allclose(mean, mean_o, atol=1e-8)
        assert np.allclose(var, var_o, atol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_t", [1, 7, 300])
    @pytest.mark.parametrize("d, ard", [(1, False), (3, False), (3, True)], ids=["d1", "d3-iso", "d3-ard"])
    def test_matches_separate_solve_reference(self, d, ard, n_t, seed):
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, 80, d)
        hp = random_hp(rng, d, ard)
        expert = train_expert(data, hp)
        X_star = rng.uniform(-1.2, 1.2, (n_t, d))
        mean, var = predict(expert, X_star)
        ref_mean, ref_var = _predict_reference(expert, X_star)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-11 * np.max(np.abs(ref_mean))
        assert np.max(np.abs(var - ref_var)) <= 1e-12 * (hp.signal_variance + hp.noise_variance)

    def test_variance_floor_and_growth_with_distance(self):
        hp = Hyperparameters([0.5], 1.0, 0.01)
        data = Dataset(np.array([[0.0]]), np.array([1.0]))
        expert = train_expert(data, hp)
        _, var = predict(expert, np.array([[0.0], [5.0]]), hp)
        assert np.all(var >= hp.noise_variance * (1 - 1e-10))
        assert var[0] <= var[1]

    def test_variance_floor_on_many_draws(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            data = random_dataset(rng, 15)
            hp = random_hp(rng)
            expert = train_expert(data, hp)
            _, var = predict(expert, rng.uniform(-2, 2, (20, 1)), hp)
            assert np.all(var >= hp.noise_variance - 1e-10)

    def test_hyperparameter_mismatch_raises(self):
        rng = np.random.default_rng(14)
        data = random_dataset(rng, 5)
        expert = train_expert(data, Hyperparameters([1.0], 1.0, 0.1))
        with pytest.raises(ValueError):
            predict(expert, np.zeros((2, 1)), Hyperparameters([2.0], 1.0, 0.1))

    def test_one_d_test_inputs_are_one_column(self):
        rng = np.random.default_rng(18)
        expert = train_expert(random_dataset(rng, 9), Hyperparameters([0.5], 1.0, 0.1))
        x = rng.uniform(-1, 1, 6)
        column = predict(expert, x[:, None])
        flat = predict(expert, x)
        assert all(np.array_equal(a, b) for a, b in zip(flat, column))

    def test_test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(15)
        data = random_dataset(rng, 5, d=2)
        expert = train_expert(data, Hyperparameters([1.0], 1.0, 0.1))
        with pytest.raises(DimensionError):
            predict(expert, np.zeros((2, 3)))

    @staticmethod
    def _query(entry, X_star):
        """``entry`` on two 1-D experts over 12 points at ``X_star``."""
        rng = np.random.default_rng(16)
        data = random_dataset(rng, 12)
        hp = Hyperparameters([0.5], 1.0, 0.1)
        parts = kmeans_partition(data, 2, seed=0)
        experts = [train_expert(s, hp) for s in parts.subsets]
        calls = {
            "predict": lambda: predict(experts[0], X_star),
            "collect_predictions": lambda: collect_predictions(experts, X_star, hp),
            "npae_aggregate": lambda: npae_aggregate(experts, hp, X_star),
            "grbcm_aggregate": lambda: grbcm_aggregate(parts, hp, X_star, seed=0),
        }
        return calls[entry]()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", QUERY_ENTRIES)
    def test_non_finite_test_inputs_raise(self, entry, bad):
        with pytest.raises(ValueError, match="test inputs contain NaN or Inf"):
            self._query(entry, np.array([[0.1], [bad], [0.3]]))

    @pytest.mark.parametrize("X_star", [np.float64(0.5), np.zeros((3, 1, 1))], ids=["0-D", "3-D"])
    @pytest.mark.parametrize("entry", QUERY_ENTRIES)
    def test_queries_neither_1d_nor_2d_raise(self, entry, X_star):
        with pytest.raises(DimensionError, match="test inputs must be 1-D or 2-D, got ndim="):
            self._query(entry, X_star)
