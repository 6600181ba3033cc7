"""EM-fitted Gaussian graphical model over (latent target, expert means).

The target prediction and the M expert predictions at the test points
are modeled as one (M+1)-variate Gaussian whose sparse precision is
estimated by graphical lasso. Because the target column is unobserved,
its sample-covariance blocks are filled in by EM: the E-step overwrites
the latent row/column of S with its conditional expectation under the
current precision, the M-step re-solves the penalized likelihood. The
loop's state is S and the latest ``PrecisionEstimate``, nothing else.
The aggregated mean is the conditional-Gaussian map, read from the
precision's latent row with no factorization:

    y_A(x*) = ybar_0 - Omega_yy^-1 Omega_{ y mu } (mu(x*) - mubar)

with ybar_0, mubar the latent and expert column means. Index 0 of every
(M+1)-sized structure is the latent target, throughout.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import chol_jitter  # noqa: F401  perfbench/tracing.py hooks this name; EMGGM factors nothing
from ._workers import one_blas_thread
from .baselines import ExpertPredictions
from .errors import DimensionError, checked
from .glasso import PrecisionEstimate, glasso_solve

LATENT = 0

CONV_TOL = 1e-4  # EM stops once Omega's relative max-norm change falls below this


@dataclass(frozen=True)
class EmggmConfig:
    """Aggregation settings: the penalty ``lam`` and the EM budget ``max_iters``.

    ``lam`` is a finite number >= 0 or the string "auto", which resolves
    to 0.5 * sqrt(log(M+1) / n_t) at aggregation time. The latent target
    starts at the mean of the experts; the penalty stays off its edges
    (see ``m_step``).
    """

    lam: float | str = "auto"
    max_iters: int = 20

    def __post_init__(self):
        object.__setattr__(self, "max_iters", checked("max_iters", self.max_iters, int, 1))
        if self.lam != "auto":
            object.__setattr__(self, "lam", checked("lambda", self.lam, float, 0))


def resolve_lambda(lam: float | str, n_experts: int, n_t: int) -> float:
    if lam == "auto":
        return 0.5 * math.sqrt(math.log(n_experts + 1) / n_t)
    return checked("lambda", lam, float, 0)


def init_latent(preds: ExpertPredictions) -> np.ndarray:
    """Starting guess for the unobserved target at each test point: the
    mean of the experts."""
    return preds.means.mean(axis=1)


@one_blas_thread
def joint_sample_covariance(y0: np.ndarray, preds: ExpertPredictions) -> tuple[np.ndarray, np.ndarray]:
    """Centered sample covariance S of (y0, expert means), and the column means.

    Each column is centered by its own mean over the n_t test points;
    S = Z'Z / n_t for the centered matrix Z.
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    n_t, M = preds.means.shape
    if y0.size != n_t:
        raise DimensionError(f"latent init has {y0.size} entries for {n_t} test points")
    if n_t < 2:
        raise ValueError("need at least 2 test points to form a sample covariance")
    if n_t < M + 2:
        warnings.warn(
            f"only {n_t} test points for {M} experts: the sample covariance is "
            "rank-deficient and the solver will lean on jitter",
            RuntimeWarning,
        )
    Z = np.column_stack([y0, preds.means])
    col_means = Z.mean(axis=0)
    Zc = Z - col_means
    return Zc.T @ Zc / n_t, col_means


def _regression(Omega: np.ndarray) -> np.ndarray:
    """A = -Omega_my / Omega_yy, the coefficients of E[y | mu] under the
    precision ``Omega``."""
    return -Omega[1:, LATENT] / Omega[LATENT, LATENT]


@one_blas_thread
def e_step(S: np.ndarray, Omega: np.ndarray) -> None:
    """Overwrite S's latent blocks with their conditional expectations
    under the current precision estimate ``Omega``.

    With A = -Omega_my / Omega_yy, the coefficients of E[y | mu]:
        S_my <- S_mm A
        S_yy <- 1 / Omega_yy + A' S_mm A
    The expert-expert block S_mm is left untouched. Raises ValueError
    unless Omega_yy is finite and positive.
    """
    omega_yy = float(Omega[LATENT, LATENT])
    if not (math.isfinite(omega_yy) and omega_yy > 0.0):
        raise ValueError(f"Omega's latent diagonal must be finite and positive, got {omega_yy}")
    A = _regression(Omega)
    S_my = S[1:, 1:] @ A
    S[LATENT, 1:] = S_my
    S[1:, LATENT] = S_my
    S[LATENT, LATENT] = 1.0 / omega_yy + A @ S_my


@one_blas_thread
def m_step(S: np.ndarray, lam: float, init: np.ndarray | None = None) -> PrecisionEstimate:
    """Solve the penalized likelihood on S, warm-starting from ``init`` (the
    previous precision) as ``glasso_solve`` does; neither is modified. The
    solver's own stopping rule decides when the solve is done.

    Only the expert-expert off-diagonals are penalized. The latent target
    absorbs the experts' common covariance; penalizing its edges shrinks
    the unidentified latent blocks by lambda per M-step until the target
    decouples. Unpenalized, the objective is invariant to the latent
    scale, so the iteration stays anchored to the initialization.
    """
    p = S.shape[0]
    penalty = np.full((p, p), float(lam))
    penalty[LATENT, :] = 0.0
    penalty[:, LATENT] = 0.0
    return glasso_solve(S, penalty, init=init)


def _solve_stats(est: PrecisionEstimate) -> dict:
    """How one M-step's graphical-lasso solve ended, JSON-ready."""
    return {
        "n_sweeps": int(est.n_sweeps),
        "converged": bool(est.converged),
        "dual_gap": float(est.dual_gap),
    }


@one_blas_thread
def emggm_aggregate(
    preds: ExpertPredictions, cfg: EmggmConfig | None = None
) -> tuple[np.ndarray, dict]:
    """Aggregate expert means through the EM-fitted graphical model.

    Returns the per-test-point means and a JSON-serializable diagnostics
    dict: resolved lambda, per-iteration penalized objective before and
    after each M-step, precision change, largest change of the
    aggregated means (``mean_change``, normalized units), wall time, and
    the M-step solver's iterations, convergence and dual gap; the
    initial M-step's solver stats sit at the top level. Iterations stop
    at ``cfg.max_iters`` or when the relative max-norm change of Omega
    drops below ``CONV_TOL`` (1e-4); if the loop exhausts its budget the
    last iterate is returned with ``converged`` set to False.
    """
    cfg = cfg or EmggmConfig()
    n_t, M = preds.means.shape
    y0 = init_latent(preds)
    S, col_means = joint_sample_covariance(y0, preds)
    lam = resolve_lambda(cfg.lam, M, n_t)
    centered = preds.means - col_means[1:]

    initial = est = m_step(S, lam)
    w = _regression(est.Omega)
    iterations: list[dict] = []
    converged = False
    for t in range(1, cfg.max_iters + 1):
        tic = time.perf_counter()
        e_step(S, est.Omega)
        previous = est.Omega
        est = m_step(S, lam, previous)
        scale = max(float(np.max(np.abs(previous))), 1e-300)
        change = float(np.max(np.abs(est.Omega - previous))) / scale
        previous_w, w = w, _regression(est.Omega)
        iterations.append(
            {
                "iteration": t,
                "objective_start": est.objective_trace[0],
                "objective": est.objective_trace[-1],
                "omega_change": change,
                "mean_change": float(np.max(np.abs(centered @ (w - previous_w)))),
                "wall_time_s": time.perf_counter() - tic,
                **_solve_stats(est),
            }
        )
        if change < CONV_TOL:
            converged = True
            break

    means = col_means[LATENT] + centered @ w
    diagnostics = {
        "lambda": lam,
        "converged": converged,
        "n_iterations": len(iterations),
        "iterations": iterations,
        "initial_m_step": _solve_stats(initial),
    }
    return means, diagnostics
