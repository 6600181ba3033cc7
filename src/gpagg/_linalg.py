"""Every Cholesky factorization, SPD solve and SPD inverse of the package,
on one binding: LAPACK dpotrf, dpotrs, dtrtrs and dpotri.

Factors are lower triangular; only the lower triangle of a matrix to
factor is read. dpotrf reports success with NaN on the diagonal, so a
factor counts only when its diagonal is finite. ``chol_jitter`` holds the
shared jitter policy: on failure the diagonal is inflated by 1e-10, then
tenfold up to 1e-4, times mean(diag); past that a NumericalError carries
the last jitter tried. A non-finite matrix raises before any jitter.
"""

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs

from .errors import NumericalError

JITTER_START = 1e-10
JITTER_MAX = 1e-4


def cholesky(A: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a symmetric matrix; None unless it is SPD."""
    L, info = dpotrf(A, lower=1)
    if info != 0 or not np.isfinite(L.diagonal()).all():
        return None
    return L


def chol_jitter(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric matrix, jittering on failure.

    Returns ``(L, jitter)`` where ``L @ L.T == A + jitter * I`` and
    ``jitter`` is 0.0 when no inflation was needed.
    """
    A = np.asarray(A, dtype=float)
    L = cholesky(A)
    if L is not None:
        return L, 0.0
    if not np.isfinite(A).all():
        raise NumericalError("matrix contains non-finite entries")
    scale = float(np.mean(np.diag(A)))
    if scale <= 0.0:
        scale = 1.0
    rel = JITTER_START
    while rel <= JITTER_MAX:
        L = cholesky(A + rel * scale * np.eye(A.shape[0]))
        if L is not None:
            return L, rel * scale
        rel *= 10.0
    raise NumericalError(
        f"Cholesky failed after escalating jitter to {JITTER_MAX * scale:.3e}",
        jitter=JITTER_MAX * scale,
    )


def cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L') x = b for a lower Cholesky factor ``L``."""
    return dpotrs(L, b, lower=1)[0]  # info < 0 only flags a malformed call


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for a lower-triangular ``L``."""
    x, info = dtrtrs(L, b, lower=1)
    if info > 0:
        raise NumericalError(f"triangular factor is singular at diagonal entry {info - 1}")
    return x


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """Exactly symmetric inverse of a symmetric positive-definite matrix."""
    L = cholesky(A)
    if L is None:
        raise NumericalError("matrix is not positive definite")
    # dpotri cannot fail on a factor with a positive diagonal. It fills the
    # lower triangle and keeps the factor's zero upper triangle, so adding
    # the strict lower triangle's mirror completes the inverse.
    inv = dpotri(L, lower=1, overwrite_c=1)[0]
    inv += np.tril(inv, -1).T
    return inv
