"""Sparse precision estimation by L1-penalized Gaussian likelihood.

Minimizes

    -log|Omega| + trace(S Omega) + sum_{i != j} Lam_ij |Omega_ij|

by a proximal Newton method, the second-order route of QUIC (Hsieh et
al., "QUIC: quadratic approximation for sparse inverse covariance
estimation", JMLR 2014). Each iteration minimizes the penalized
quadratic model of the objective around Omega over the free entries
(every entry but the penalized zeros whose gradient lies within the
penalty) and backtracks along that direction until the objective drops
enough. The model is minimized by an active-set method whose every
solve is one dense Cholesky of the Hessian block W kron W (W =
Omega^-1) on at most p(p+1)/2 free entries, so the work is numpy/LAPACK
throughout; entries the model drives to zero are set to exactly zero.
Only steps that lower the objective are accepted, so it decreases
iteration by iteration, the last iterate is the best one seen and a
warm start can only be improved on. Only off-diagonal entries are
penalized, which keeps the lambda = 0 and full-shrinkage solutions
exact.

The solve has one stopping rule, on the decrease the model predicts
(the Newton decrement; Lee, Sun & Saunders, "Proximal Newton-type
methods for minimizing composite functions", SIAM J. Optim. 2014): it
has converged once that decrease is at most TOL * (1 + |objective|).
The decrement, unlike the entries of the step, does not change when S
and the penalty are scaled together, so the rule needs no rescaling by
the caller. A line search that finds no acceptable step, or MAX_ITER
iterations, end the solve unconverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import cho_solve, chol_jitter, cholesky, spd_inverse
from ._workers import one_blas_thread
from .errors import DimensionError, NumericalError, checked

TOL = 1e-9
MAX_ITER = 500
COVARIANCE_JITTER = 1e-8
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 50


@dataclass(eq=False)
class PrecisionEstimate:
    """Solver output: the SPD precision Omega and diagnostics.

    ``objective_trace`` starts at the initial point and records one value
    per accepted Newton iteration, all evaluated on the preprocessed
    covariance actually solved against (see ``effective_covariance``).
    ``n_sweeps`` counts solver iterations, each one Newton direction.
    """

    Omega: np.ndarray
    dual_gap: float
    converged: bool = True
    n_sweeps: int = 0
    objective_trace: list[float] = field(default_factory=list)


def effective_covariance(S: np.ndarray) -> np.ndarray:
    """The matrix ``glasso_solve`` actually works on: symmetrized and
    inflated by 1e-8 * mean(diag) on the diagonal."""
    S = np.asarray(S, dtype=float)
    S_eff = 0.5 * (S + S.T)
    scale = float(np.mean(np.diag(S_eff)))
    if scale <= 0.0:
        scale = 1.0
    S_eff[np.diag_indices_from(S_eff)] += COVARIANCE_JITTER * scale
    return S_eff


def penalty_matrix(lam: float | np.ndarray, p: int) -> np.ndarray:
    """Per-entry penalty weights: scalar lambda on every off-diagonal, or a
    caller-supplied symmetric non-negative matrix (diagonal forced to zero).
    Every value must be finite; a bool is no number."""
    if np.isscalar(lam):
        Lam = np.full((p, p), checked("lambda", lam, float, 0))
    else:
        Lam = np.asarray(lam, dtype=float).copy()
        if Lam.shape != (p, p):
            raise DimensionError(f"penalty matrix must be {p}x{p}, got {Lam.shape}")
        if not np.all(np.isfinite(Lam)) or np.any(Lam < 0) or not np.allclose(Lam, Lam.T):
            raise ValueError("penalty matrix must be finite, symmetric and non-negative")
    Lam[np.diag_indices_from(Lam)] = 0.0
    return Lam


def _objective(Omega: np.ndarray, S: np.ndarray, Lam: np.ndarray) -> float:
    """Objective with a prebuilt penalty matrix; no input validation."""
    L = cholesky(Omega)
    if L is None:
        raise NumericalError("Omega must be symmetric positive definite")
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return -logdet + float(np.sum(S * Omega)) + float(np.sum(Lam * np.abs(Omega)))


@one_blas_thread
def glasso_objective(Omega: np.ndarray, S: np.ndarray, lam: float | np.ndarray) -> float:
    """-log|Omega| + tr(S Omega) + sum_ij Lam_ij |Omega_ij| (diagonal unpenalized).

    ``lam`` is a scalar applied to every off-diagonal entry, or a full
    per-entry penalty matrix.
    """
    Omega = np.asarray(Omega, dtype=float)
    S = np.asarray(S, dtype=float)
    return _objective(Omega, S, penalty_matrix(lam, Omega.shape[0]))


def _spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for SPD A, Jacobi-scaled so Cholesky jitter is relative."""
    s = 1.0 / np.sqrt(np.diag(A))
    L, _ = chol_jitter(s[:, None] * A * s[None, :])
    return s * cho_solve(L, s * b)


def _newton_step(
    Omega: np.ndarray, S: np.ndarray, Lam: np.ndarray, upper: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, float]:
    """Proximal Newton direction at ``Omega`` and its predicted decrease.

    D is the symmetric matrix minimizing the model

        tr(G D) + 1/2 tr(W D W D) + sum_ij Lam_ij |Omega_ij + D_ij|

    with W = Omega^-1 and G = S - W, over the free entries among the
    upper-triangle indices ``upper`` (``np.triu_indices(p)``): penalized
    entries at zero whose gradient lies within the penalty stay fixed
    (the free set of QUIC). The second value is tr(G D) plus the change
    of the penalty, negative for a descent direction.

    The model is minimized by an active-set method. Each pass fixes a
    sign for every free penalized entry and pins some of them at zero;
    the model is then a quadratic whose minimizer (the target) is one
    dense solve. A target that keeps every sign is accepted, and pinned
    entries that violate their optimality condition there are released
    with the sign their gradient asks for. Otherwise D moves toward the
    target by the longest step, halving down to the first sign change,
    whose projection (entries that crossed zero set to zero and pinned)
    lowers the model. Every pass lowers the model, so D is a descent
    direction even if the pass budget runs out.
    """
    W = spd_inverse(Omega)
    G = S - W
    I, J = upper
    free = (Lam[I, J] == 0) | (Omega[I, J] != 0) | (np.abs(G[I, J]) > Lam[I, J])
    I, J = I[free], J[free]
    # one variable per upper-triangle entry; an off-diagonal one appears
    # twice in Omega, hence the factors c
    c = np.where(I == J, 1.0, 2.0)
    WI, WJ = W.take(I, 0), W.take(J, 0)
    H = (0.5 * c[:, None] * c[None, :]) * (
        WI.take(I, 1) * WJ.take(J, 1) + WI.take(J, 1) * WJ.take(I, 1)
    )
    g = c * G[I, J]
    lam = c * Lam[I, J]
    x = Omega[I, J]

    def model(d: np.ndarray) -> float:
        return float(g @ d + 0.5 * d @ (H @ d) + lam @ np.abs(x + d))

    confined = lam > 0
    xi = np.sign(x)
    d = np.zeros_like(x)
    pinned = confined & (x == 0)
    # a pass either releases entries or pins at least one; the budget
    # only guards against release/pin cycles
    for _ in range(x.size + 1):
        rest = ~pinned
        target = d.copy()
        target[rest] = _spd_solve(
            H[np.ix_(rest, rest)],
            -(g + lam * xi)[rest] - H[np.ix_(rest, pinned)] @ d[pinned],
        )
        step = target - d
        ratio = np.full_like(x, np.inf)
        toward = confined & rest & (xi * step < 0)
        ratio[toward] = (x + d)[toward] / -step[toward]
        alpha = float(np.min(ratio))
        if alpha >= 1.0:
            d = target
            r = g + H @ d
            release = pinned & (np.abs(r) > lam)
            if not release.any():
                break
            pinned &= ~release
            xi[release] = -np.sign(r[release])
            continue
        # the step up to the first sign change always lowers the model;
        # try longer ones first, projected back onto the orthants
        current = model(d)
        beta = 1.0
        while True:
            if beta <= max(alpha, 0.5**_MAX_BACKTRACKS):
                beta = alpha
            hit = ratio <= beta
            trial = d + beta * step
            trial[hit] = -x[hit]
            if beta == alpha or model(trial) < current:
                break
            beta *= 0.5
        d = trial
        pinned |= hit
    D = np.zeros_like(Omega)
    D[I, J] = d
    D[J, I] = d
    decrease = float(np.sum(G * D) + np.sum(Lam * (np.abs(Omega + D) - np.abs(Omega))))
    return D, decrease


def _line_search(
    Omega: np.ndarray, obj: float, D: np.ndarray, decrease: float, S: np.ndarray, Lam: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """Backtrack along D until the iterate is positive definite, lowers the
    objective and meets the Armijo condition of QUIC; None when no step
    does."""
    t = 1.0
    for _ in range(_MAX_BACKTRACKS):
        trial = Omega + t * D
        try:
            trial_obj = _objective(trial, S, Lam)
        except NumericalError:
            trial_obj = math.inf
        if trial_obj < obj and trial_obj <= obj + _ARMIJO * t * decrease:
            return trial, trial_obj
        t *= 0.5
    return None


def _dual_gap(S: np.ndarray, Omega: np.ndarray, Lam: np.ndarray) -> float:
    p = S.shape[0]
    return float(np.sum(S * Omega)) - p + float(np.sum(Lam * np.abs(Omega)))


@one_blas_thread
def glasso_solve(
    S: np.ndarray, lam: float | np.ndarray, init: np.ndarray | None = None
) -> PrecisionEstimate:
    """Solve the penalized problem on sample covariance ``S`` for Omega alone.

    ``lam`` is a scalar penalty on every off-diagonal entry or a full
    per-entry penalty matrix. ``init`` warm-starts from a symmetric
    positive-definite precision, e.g. the previous EM iterate; asymmetry
    beyond rounding (1e-12 of its largest entry) is rejected. The solve
    has converged once the Newton direction's predicted decrease is at
    most TOL * (1 + |objective|); a failed line search or MAX_ITER
    iterations leave the result flagged unconverged, with the dual gap
    reported.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionError(f"S must be square, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise NumericalError("S contains non-finite entries")
    S_eff = effective_covariance(S)
    p = S_eff.shape[0]
    Lam = penalty_matrix(lam, p)
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (p, p):
            raise DimensionError(f"init must be {p}x{p}, got {init.shape}")
        if np.max(np.abs(init - init.T)) > 1e-12 * np.max(np.abs(init)):
            raise ValueError("init must be symmetric")
        if cholesky(init) is None:
            raise ValueError("init must be positive definite")

    if not Lam.any():
        try:
            Omega = spd_inverse(S_eff)
        except NumericalError as exc:
            raise NumericalError(
                "sample covariance is singular with lambda=0; add diagonal jitter or use lambda>0"
            ) from exc
        trace = [] if init is None else [_objective(init, S_eff, Lam)]
        trace.append(_objective(Omega, S_eff, Lam))
        return PrecisionEstimate(Omega=Omega, dual_gap=_dual_gap(S_eff, Omega, Lam), objective_trace=trace)

    if np.any(np.diag(S_eff) <= 0):
        raise NumericalError("S must have positive diagonal entries")

    Omega = np.diag(1.0 / np.diag(S_eff)) if init is None else init.copy()
    trace = [_objective(Omega, S_eff, Lam)]
    upper = np.triu_indices(p)
    converged = False
    iters = 0
    while iters < MAX_ITER:
        iters += 1
        D, decrease = _newton_step(Omega, S_eff, Lam, upper)
        if -decrease <= TOL * (1.0 + abs(trace[-1])):
            converged = True
            break
        step = _line_search(Omega, trace[-1], D, decrease, S_eff, Lam)
        if step is None:
            break
        Omega = step[0]
        trace.append(step[1])

    return PrecisionEstimate(
        Omega=Omega,
        dual_gap=_dual_gap(S_eff, Omega, Lam),
        converged=converged,
        n_sweeps=iters,
        objective_trace=trace,
    )
