"""Exact squared-exponential GP machinery shared by every aggregator.

Local experts are plain GPs trained on data partitions: this module holds
the kernel, the log-marginal likelihood and its analytic gradient,
shared-hyperparameter training across partitions, and posterior
prediction per expert. Everything downstream (PoE-family rules, NPAE,
the graphical-model aggregator) consumes the experts built here.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import (
    cho_solve,
    chol_inverse,
    chol_jitter,
    dsyr,
    pack_lower,
    solve_lower,
    unpack_lower,
)
from ._workers import in_shares, one_blas_thread, workers_for
from .errors import DimensionError, FitError, NumericalError, checked

log = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)

# Bounds (in log space) for the optimizer; wide enough to be inactive for
# any sane problem, tight enough to keep exp() finite.
_LOG_BOUNDS = (-15.0, 15.0)
_MAX_ITER = 200  # L-BFGS-B iterations in the fit's one run
_GRAD_TOL = 1e-5


@dataclass(frozen=True, eq=False)
class Hyperparameters:
    """Shared kernel/noise parameters for all experts.

    ``lengthscale`` holds one entry per input dimension, or a single
    entry shared by every dimension (isotropic, the default). All values
    are strictly positive.
    """

    lengthscale: np.ndarray
    signal_variance: float
    noise_variance: float

    def __post_init__(self):
        ls = np.array([checked("lengthscale", v, float) for v in np.ravel(np.asarray(self.lengthscale, dtype=object))])
        object.__setattr__(self, "lengthscale", ls)
        for name in ("signal_variance", "noise_variance"):
            object.__setattr__(self, name, checked(name, getattr(self, name), float))
        if not (np.all(np.isfinite(ls)) and np.all(ls > 0) and self.signal_variance > 0 and self.noise_variance > 0):
            raise ValueError("hyperparameters must be finite and strictly positive")

    def __eq__(self, other):
        if not isinstance(other, Hyperparameters):
            return NotImplemented
        return (
            np.array_equal(self.lengthscale, other.lengthscale)
            and self.signal_variance == other.signal_variance
            and self.noise_variance == other.noise_variance
        )

    def log_vector(self) -> np.ndarray:
        """Flat log-parameter vector: (log l_1..l_k, log sigma_f^2, log sigma^2)."""
        return np.concatenate(
            [np.log(self.lengthscale), [math.log(self.signal_variance), math.log(self.noise_variance)]]
        )

    @classmethod
    def from_log_vector(cls, v: np.ndarray) -> "Hyperparameters":
        v = np.asarray(v, dtype=float)
        return cls(np.exp(v[:-2]), math.exp(v[-2]), math.exp(v[-1]))

    def to_json(self) -> str:
        return json.dumps(
            {
                "lengthscale": self.lengthscale.tolist(),
                "signal_variance": self.signal_variance,
                "noise_variance": self.noise_variance,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Hyperparameters":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"hyperparameters JSON must be an object, got {type(obj).__name__}")
        missing = [k for k in ("lengthscale", "signal_variance", "noise_variance") if k not in obj]
        if missing:
            raise ValueError(f"hyperparameters JSON lacks {missing}")
        return cls(obj["lengthscale"], obj["signal_variance"], obj["noise_variance"])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Inputs X (n x d) and targets y (n,), with no NaN/Inf entries."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise DimensionError(f"X must be 2-D, got ndim={X.ndim}")
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.size:
            raise DimensionError(f"X has {X.shape[0]} rows but y has {y.size} entries")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains NaN or Inf entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _check_lengthscale(hp: Hyperparameters, d: int) -> np.ndarray:
    ls = hp.lengthscale
    if ls.size not in (1, d):
        raise DimensionError(f"lengthscale has {ls.size} entries for {d}-dimensional inputs")
    return ls


def sq_dists(X: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of X and of X2.

    For 1-D inputs this is one outer subtraction squared in place,
    bitwise equal to ``cdist(X, X2, "sqeuclidean")`` and faster. Wider
    inputs go to ``cdist``, imported on first use, so a process that
    only sees 1-D inputs never loads ``scipy.spatial``.
    """
    if X.shape[1] == 1:
        D = np.subtract.outer(X[:, 0], X2[:, 0])
        D *= D
        return D
    from scipy.spatial.distance import cdist

    return cdist(X, X2, "sqeuclidean")


def kernel_matrix(X: np.ndarray, X2: np.ndarray, hp: Hyperparameters) -> np.ndarray:
    """Squared-exponential kernel matrix.

    k(x, x') = sigma_f^2 * exp(-1/2 * sum_k (x_k - x'_k)^2 / l_k^2)
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    if X.shape[1] != X2.shape[1]:
        raise DimensionError(f"inputs have {X.shape[1]} and {X2.shape[1]} columns")
    ls = _check_lengthscale(hp, X.shape[1])
    K = sq_dists(X / ls, X2 / ls)
    K *= -0.5
    np.exp(K, out=K)
    K *= hp.signal_variance
    return K


@dataclass(frozen=True, eq=False)
class TrainedExpert:
    """One partition plus its factorized covariance, ready for prediction.

    ``chol_packed`` holds the lower Cholesky factor L of C = K + sigma^2 I
    (plus any jitter applied) in packed storage, n(n+1)/2 doubles
    (``_linalg.pack_lower``): half the memory of the full factor, which
    every aggregator keeps alive for each expert.
    """

    data: Dataset
    hp: Hyperparameters
    chol_packed: np.ndarray
    jitter: float = 0.0

    @property
    def chol_C(self) -> np.ndarray:
        """L rebuilt on each access as a new Fortran-ordered n x n array
        over a zero strict upper triangle, bitwise the factor that
        ``train_expert`` packed; writing into it leaves the expert as it
        was."""
        return unpack_lower(self.chol_packed, self.data.n)


@one_blas_thread
def train_expert(data: Dataset, hp: Hyperparameters) -> TrainedExpert:
    """Factorize one partition's covariance for O(n^2) prediction and
    keep the factor packed."""
    C = kernel_matrix(data.X, data.X, hp)
    C.flat[:: data.n + 1] += hp.noise_variance
    L, jitter = chol_jitter(C)
    return TrainedExpert(data=data, hp=hp, chol_packed=pack_lower(L), jitter=jitter)


def _lml_from_factors(L: np.ndarray, alpha: np.ndarray, y: np.ndarray) -> float:
    n = y.size
    return float(-0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * LOG_2PI)


@one_blas_thread
def log_marginal_likelihood(data: Dataset, hp: Hyperparameters) -> float:
    """Gaussian log-marginal likelihood of ``data`` under ``hp``.

    Computed via Cholesky of C = K + sigma^2 I; never inverts C
    explicitly. Equals -1/2 y' C^-1 y - 1/2 log|C| - n/2 log(2 pi).
    """
    L = train_expert(data, hp).chol_C
    return _lml_from_factors(L, cho_solve(L, data.y), data.y)


def _sq_dists(X: np.ndarray, k: int) -> np.ndarray:
    """Squared distances of X to itself that the lml needs for k lengthscales.

    Shape (1, n, n) summed over dimensions when k == 1 (isotropic), or
    (d, n, n) with one slice per dimension (ARD). They do not depend on
    the hyperparameters, so a fit computes them once per partition.
    """
    if k == 1:
        return sq_dists(X, X)[None]
    return np.stack([sq_dists(x, x) for x in X.T[:, :, None]])


def _lml_and_grad(
    data: Dataset, hp: Hyperparameters, sq: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Value and gradient of the lml over (log l_k.., log sigma_f^2, log sigma^2).

    Each component is 1/2 tr((alpha alpha' - C^-1) dC/dtheta_j)
    (Rasmussen & Williams 2006, eq. 5.9). ``sq`` is ``_sq_dists`` of
    ``data.X``, computed here when not given.
    """
    X, y = data.X, data.y
    n = data.n
    ls = _check_lengthscale(hp, data.d)
    if sq is None:
        sq = _sq_dists(X, ls.size)
    # Scaled elementwise rather than by a tensordot, which would call
    # numpy's BLAS in a loop that otherwise runs on scipy's LAPACK.
    c = -0.5 / ls**2
    K = sq[0] * c[0]
    for j in range(1, ls.size):
        K += sq[j] * c[j]
    np.exp(K, out=K)
    K *= hp.signal_variance
    # C = K + sigma^2 I is factored from K itself (dpotrf copies it), and
    # K's diagonal, exp(0) * sigma_f^2, is set back exactly afterwards.
    K.flat[:: n + 1] += hp.noise_variance
    L, _ = chol_jitter(K)
    K.flat[:: n + 1] = hp.signal_variance
    alpha = cho_solve(L, y)
    value = _lml_from_factors(L, alpha, y)

    # chol_inverse leaves the lower triangle of C^-1 over a zero upper
    # triangle, in L's own Fortran-ordered buffer. A becomes W = 2 tril(Q)
    # - diag(Q) for Q = alpha alpha' - C^-1: sum(W * B) equals sum(Q * B)
    # for every symmetric B, which is all that each trace below needs.
    A = chol_inverse(L)
    A *= -2.0
    dsyr(2.0, alpha, A)
    A[np.diag_indices(n)] *= 0.5
    k = ls.size
    grad = np.empty(k + 2)
    grad[k + 1] = 0.5 * hp.noise_variance * np.trace(A)
    # A is in LAPACK's column-major order; K and sq are symmetric, so
    # their transposes are the same matrices laid out in that order.
    A *= K.T
    grad[k] = 0.5 * np.sum(A)
    for j in range(k):
        grad[j] = 0.5 * np.einsum("ij,ij->", A, sq[j].T) / ls[j] ** 2
    return value, grad


@one_blas_thread
def lml_gradient(data: Dataset, hp: Hyperparameters) -> np.ndarray:
    """Analytic lml gradient in log-parameter space."""
    return _lml_and_grad(data, hp)[1]


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first fit.

    A process that only predicts never pays for loading the optimizer.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class FitOptions:
    """Accepted and ignored: the fit has no settings.

    Kept only because perfbench's pipeline still builds
    ``FitOptions(seed=...)`` and passes it to
    ``fit_shared_hyperparameters``; both go once that call does.
    """

    seed: int = 0


@one_blas_thread
def fit_shared_hyperparameters(
    partitions: Sequence[Dataset],
    init: Hyperparameters,
    opts: FitOptions | None = None,
) -> Hyperparameters:
    """Maximize the summed per-partition lml over one shared parameter set.

    All experts share a single theta; the objective is the factorized
    marginal likelihood sum_i log p(y_i | X_i, theta), optimized by one
    L-BFGS-B run from ``init`` in log-parameter space. The kernel is ARD
    when ``init`` carries d lengthscales and isotropic when it carries
    one. The returned theta is whichever of ``init`` and the run's end
    scores better (``init`` on a tie), so it never scores worse than
    ``init``. A run that raises or ends non-finite is logged as one
    warning; ``FitError`` is raised only when neither ``init`` nor the run
    could be scored. ``opts`` is ignored (see ``FitOptions``).

    Each evaluation computes the partitions' terms in fixed shares
    (``_workers.in_shares``) on ``_workers.workers_for(sum_i n_i^3)``
    threads and sums them in partition order, so theta, and the error of
    a partition that raises, are those of one thread. Up to that many
    partitions' n_i x n_i working arrays are alive at once.
    """
    datasets = list(partitions)
    if not datasets or any(ds.n == 0 for ds in datasets):
        raise ValueError("need at least one non-empty partition")
    d = datasets[0].d
    if any(ds.d != d for ds in datasets):
        raise DimensionError("partitions disagree on input dimension")
    k = _check_lengthscale(init, d).size
    inputs = [(ds, _sq_dists(ds.X, k)) for ds in datasets]
    workers = workers_for(sum(ds.n**3 for ds in datasets))
    last: list = []  # the latest point evaluated, its value and gradient

    def objective(logv: np.ndarray) -> tuple[float, np.ndarray]:
        # L-BFGS-B starts by evaluating its x0, which the init check below
        # has already scored.
        if last and np.array_equal(last[0], logv):
            return last[1], last[2].copy()
        hp = Hyperparameters.from_log_vector(logv)
        total = 0.0
        grad = np.zeros(logv.size)
        # partition order keeps the reduction deterministic
        for v, g in in_shares(lambda ds_sq: _lml_and_grad(ds_sq[0], hp, ds_sq[1]), inputs, workers):
            total += v
            grad += g
        last[:] = [logv.copy(), -total, -grad]
        return -total, -grad.copy()

    x0 = init.log_vector()
    best: tuple[float, np.ndarray] | None = None
    failures: list[dict] = []
    try:
        best = (objective(x0)[0], x0)
    except NumericalError as exc:
        failures.append({"stage": "init", "error": str(exc)})
    try:
        res = minimize(
            objective,
            np.clip(x0, *_LOG_BOUNDS),
            jac=True,
            method="L-BFGS-B",
            bounds=[_LOG_BOUNDS] * x0.size,
            options={"maxiter": _MAX_ITER, "gtol": _GRAD_TOL},
        )
        run_error = None if math.isfinite(res.fun) else "non-finite objective"
    except (NumericalError, FloatingPointError) as exc:
        run_error = str(exc)
    if run_error is not None:
        failures.append({"stage": "run", "error": run_error})
        log.warning("fit_shared_hyperparameters: 1 of 1 optimizer runs failed (%s)", run_error)
    elif best is None or res.fun < best[0]:
        best = (float(res.fun), res.x)
    if best is None:
        raise FitError("neither the init nor the optimizer run could be scored", failures)
    return Hyperparameters.from_log_vector(best[1])


def check_test_inputs(X_star: np.ndarray, d: int) -> np.ndarray:
    """Test inputs as a finite n_t x d array; a 1-D array is one column."""
    X_star = np.asarray(X_star, dtype=float)
    if X_star.ndim == 1:
        X_star = X_star[:, None]
    if X_star.shape[1] != d:
        raise DimensionError(f"test inputs have {X_star.shape[1]} columns, experts were trained on {d}")
    if not np.all(np.isfinite(X_star)):
        raise ValueError("test inputs contain NaN or Inf entries")
    return X_star


@one_blas_thread
def predict(
    expert: TrainedExpert,
    X_star: np.ndarray,
    hp: Hyperparameters | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of one expert at the test inputs.

    mean = k(X_i, x*)' C^-1 y_i; variance = k(x*,x*) + sigma^2 - k' C^-1 k,
    floored just below sigma^2 against roundoff, both read from L^-1 [k | y_i]
    by ``posterior_terms``, which NPAE and GRBCM share. ``hp`` must match
    the expert's factorization.
    """
    if hp is not None and hp != expert.hp:
        raise ValueError("hyperparameters differ from those used to factorize the expert")
    hp = expert.hp
    X_star = check_test_inputs(X_star, expert.data.d)
    means, explained = posterior_terms(solve_lower(expert.chol_C, with_targets(expert.data, X_star, hp)))
    return means, posterior_variance(hp, explained)


def with_targets(data: Dataset, X_star: np.ndarray, hp: Hyperparameters) -> np.ndarray:
    """[k(X, X*) | y] for one partition, in Fortran order for BLAS."""
    R = np.empty((data.n, X_star.shape[0] + 1), order="F")
    R[:, :-1] = kernel_matrix(data.X, X_star, hp)
    R[:, -1] = data.y
    return R


def posterior_terms(wz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per test point, w'z = k' C^-1 y (the mean) and |w|^2 = k' C^-1 k
    (the explained variance) from [w | z] = L^-1 [k | y] for C = L L', as
    column sums: each point's pair depends on its own column alone. Every
    expert posterior of the package (predict, GRBCM, NPAE) is read here."""
    w, z = wz[:, :-1], wz[:, -1]
    return np.sum(w * z[:, None], axis=0), np.sum(w**2, axis=0)


def posterior_variance(hp: Hyperparameters, explained: np.ndarray) -> np.ndarray:
    """k(x*,x*) + sigma^2 - ``explained``, floored just below sigma^2 against roundoff.

    ``explained`` is k' C^-1 k per test point, the squared column norms of
    L^-1 k for the factor L of C.
    """
    variances = hp.signal_variance + hp.noise_variance - explained
    return np.maximum(variances, hp.noise_variance * (1.0 - 1e-10))
