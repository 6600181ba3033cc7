"""EM-fitted Gaussian graphical model over (latent target, expert means).

The target prediction and the M expert predictions at the test points
are modeled as one (M+1)-variate Gaussian whose sparse precision is
estimated by graphical lasso. Because the target column is unobserved,
its sample-covariance blocks are filled in by EM: the E-step replaces
the latent row/column of S with its conditional expectation under the
current precision, the M-step re-solves the penalized likelihood. The
final aggregated mean is the conditional-Gaussian map

    y_A(x*) = latent_mean + Sigma_{ y mu }' Sigma_{ mu mu }^-1 (mu(x*) - expert_means)

built from blocks of the converged covariance. Index 0 of every
(M+1)-sized structure is the latent target, throughout.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import cho_solve, chol_jitter
from .baselines import ExpertPredictions
from .errors import DimensionError
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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        _check_lambda(self.lam)


@dataclass(eq=False)
class JointCovarianceModel:
    """EM workspace: sample covariance S of (latent, experts) plus the
    current precision/covariance estimates.

    Only the latent row/column of S changes across E-steps; the
    expert-expert block is fixed by the observed predictions. Column
    means removed during centering are kept for the final un-centering.
    ``e_step_jitter`` is the diagonal jitter the latest E-step needed to
    factor Sigma_mm (0.0 when the plain Cholesky succeeded).
    """

    S: np.ndarray
    expert_means: np.ndarray
    latent_mean: float
    Omega: np.ndarray | None = None
    Sigma: np.ndarray | None = None
    e_step_jitter: float = 0.0


def _check_lambda(lam: float | str) -> None:
    if lam != "auto" and (isinstance(lam, str) or not (math.isfinite(lam) and lam >= 0)):
        raise ValueError(f"lambda must be 'auto' or a finite number >= 0, got {lam!r}")


def resolve_lambda(lam: float | str, n_experts: int, n_test: int) -> float:
    _check_lambda(lam)
    if lam == "auto":
        return 0.5 * math.sqrt(math.log(n_experts + 1) / n_test)
    return float(lam)


def init_latent(preds: ExpertPredictions) -> np.ndarray:
    """Starting guess for the unobserved target at each test point: the
    mean of the experts."""
    return preds.means.mean(axis=1)


def joint_sample_covariance(y0: np.ndarray, preds: ExpertPredictions) -> JointCovarianceModel:
    """Centered sample covariance of (y0, expert means) across test points.

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
    S = Zc.T @ Zc / n_t
    return JointCovarianceModel(
        S=S, expert_means=col_means[1:], latent_mean=float(col_means[LATENT])
    )


def _regression(Sigma: np.ndarray) -> tuple[np.ndarray, float]:
    """A = Sigma_mm^-1 Sigma_my under the covariance ``Sigma``, and the
    diagonal jitter the Cholesky factorization of Sigma_mm needed."""
    L, jitter = chol_jitter(Sigma[1:, 1:])
    return cho_solve(L, Sigma[1:, LATENT]), jitter


def e_step(model: JointCovarianceModel) -> JointCovarianceModel:
    """Replace the latent blocks of S with their conditional expectations.

    With A = Sigma_mm^-1 Sigma_my under the current estimate:
        S_my <- S_mm A
        S_yy <- Sigma_yy - Sigma_ym A + A' S_mm A
    The expert-expert block S_mm is left untouched.
    """
    if model.Sigma is None:
        raise ValueError("model has no covariance estimate yet; run an M-step first")
    Sigma_my = model.Sigma[1:, LATENT]
    Sigma_yy = model.Sigma[LATENT, LATENT]
    S_mm = model.S[1:, 1:]

    A, model.e_step_jitter = _regression(model.Sigma)
    S_my = S_mm @ A
    S_yy = Sigma_yy - Sigma_my @ A + A @ (S_mm @ A)

    model.S[LATENT, 1:] = S_my
    model.S[1:, LATENT] = S_my
    model.S[LATENT, LATENT] = S_yy
    return model


def m_step(model: JointCovarianceModel, lam: float) -> PrecisionEstimate:
    """Refresh Omega/Sigma by solving the penalized likelihood on the
    current S, warm-starting from the previous precision. The solver's own
    stopping rule decides when the solve is done.

    Only the expert-expert off-diagonals are penalized. The latent target
    absorbs the experts' common covariance; penalizing its edges shrinks
    the unidentified latent blocks by lambda per M-step until the target
    decouples. Unpenalized, the objective is invariant to the latent
    scale, so the iteration stays anchored to the initialization.
    """
    p = model.S.shape[0]
    penalty = np.full((p, p), float(lam))
    penalty[LATENT, :] = 0.0
    penalty[:, LATENT] = 0.0
    est = glasso_solve(model.S, penalty, init=model.Omega)
    model.Omega = est.Omega
    model.Sigma = est.Sigma
    return est


def _solve_stats(est: PrecisionEstimate) -> dict:
    """How one M-step's graphical-lasso solve ended, JSON-ready."""
    return {
        "n_sweeps": int(est.n_sweeps),
        "converged": bool(est.converged),
        "dual_gap": float(est.dual_gap),
    }


def emggm_aggregate(
    preds: ExpertPredictions, cfg: EmggmConfig | None = None
) -> tuple[np.ndarray, dict]:
    """Aggregate expert means through the EM-fitted graphical model.

    Returns the per-test-point means and a JSON-serializable diagnostics
    dict: resolved lambda, per-iteration penalized objective before and
    after each M-step, precision change, wall time, the M-step solver's
    iterations, convergence and dual gap, and the E-step's jitter; the
    initial M-step's solver stats and the jitter of the final weight
    solve sit at the top level. Iterations stop
    at ``cfg.max_iters`` or when the relative max-norm change of Omega
    drops below ``CONV_TOL`` (1e-4); if the loop exhausts its budget the
    last iterate is returned with ``converged`` set to False.
    """
    cfg = cfg or EmggmConfig()
    n_t, M = preds.means.shape
    y0 = init_latent(preds)
    model = joint_sample_covariance(y0, preds)
    lam = resolve_lambda(cfg.lam, M, n_t)

    initial = m_step(model, lam)
    iterations: list[dict] = []
    converged = False
    for t in range(1, cfg.max_iters + 1):
        tic = time.perf_counter()
        e_step(model)
        previous = model.Omega.copy()
        est = m_step(model, lam)
        scale = max(float(np.max(np.abs(previous))), 1e-300)
        change = float(np.max(np.abs(model.Omega - previous))) / scale
        iterations.append(
            {
                "iteration": t,
                "objective_start": est.objective_trace[0],
                "objective": est.objective_trace[-1],
                "omega_change": change,
                "wall_time_s": time.perf_counter() - tic,
                **_solve_stats(est),
                "e_step_jitter": model.e_step_jitter,
            }
        )
        if change < CONV_TOL:
            converged = True
            break

    w, weight_jitter = _regression(model.Sigma)
    means = model.latent_mean + (preds.means - model.expert_means) @ w

    diagnostics = {
        "lambda": lam,
        "converged": converged,
        "n_iterations": len(iterations),
        "iterations": iterations,
        "initial_m_step": _solve_stats(initial),
        "weight_jitter": weight_jitter,
    }
    return means, diagnostics
