"""Every Cholesky factorization, SPD solve and SPD inverse of the package,
on one binding: LAPACK dpotrf, dpotrs, dtrtrs, dtrtri and dlauum, and
BLAS dtrmm.

Factors are lower triangular; only the lower triangle of a matrix to
factor is read. dpotrf reports success with NaN on the diagonal, so a
factor counts only when its diagonal is finite. ``chol_jitter`` holds the
shared jitter policy: on failure the diagonal is inflated by 1e-10, then
tenfold up to 1e-4, times mean(diag); past that a NumericalError carries
the last jitter tried. A non-finite matrix raises before any jitter.
"""

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dlauum, dpotrf, dpotrs, dtrtri, dtrtrs

from .errors import NumericalError

JITTER_START = 1e-10
JITTER_MAX = 1e-4
# Order up to which ``chol_inverse`` inverts a triangle with one dtrtri.
# Up to it the inverse is bitwise dpotri's; above it OpenBLAS's dtrtri
# is slower than splitting in halves and joining them with dtrmm.
INVERSE_BLOCK = 128


def cholesky(A: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a symmetric matrix; None unless it is SPD."""
    L, info = dpotrf(A, lower=1)
    if info != 0 or not np.isfinite(L.diagonal()).all():
        return None
    return L


def chol_jitter(A: np.ndarray, scale: float | None = None) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric matrix, jittering on failure.

    Returns ``(L, jitter)`` where ``L @ L.T == A + jitter * I`` and
    ``jitter`` is 0.0 when no inflation was needed. The jitter is counted
    in units of ``scale``, mean(diag(A)) by default. A Schur complement
    C - W'W passes the scale of C instead: its rounding error is on that
    scale, which can be many orders above its own diagonal.
    """
    A = np.asarray(A, dtype=float)
    L = cholesky(A)
    if L is not None:
        return L, 0.0
    if not np.isfinite(A).all():
        raise NumericalError("matrix contains non-finite entries")
    if scale is None:
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


def _invert_lower(X: np.ndarray, lo: int, hi: int) -> None:
    """Invert the lower-triangular block X[lo:hi, lo:hi] in place.

    Above INVERSE_BLOCK the block is split in halves, each inverted
    recursively, and the corner becomes X21 = -X22^-1 L21 X11^-1 by two
    triangular multiplies (LAPACK's blocked scheme; Du Croz & Higham,
    IMA J. Numer. Anal. 1992). The wrappers take no leading dimension,
    so each call on a strict sub-block works on a contiguous copy of it.
    """
    if hi - lo <= INVERSE_BLOCK:
        X[lo:hi, lo:hi] = dtrtri(X[lo:hi, lo:hi], lower=1, overwrite_c=1)[0]
        return
    mid = (lo + hi) // 2
    _invert_lower(X, lo, mid)
    _invert_lower(X, mid, hi)
    corner = dtrmm(-1.0, X[mid:hi, mid:hi], X[mid:hi, lo:mid], lower=1)
    X[mid:hi, lo:mid] = dtrmm(1.0, X[lo:mid, lo:mid], corner, side=1, lower=1, overwrite_b=1)


def inverse_lower(L: np.ndarray) -> np.ndarray:
    """L^-1 for a lower Cholesky factor ``L``, in Fortran order.

    ``L`` must have a positive diagonal and a zero strict upper triangle,
    as ``cholesky`` returns; it is overwritten, and is the result when it
    is Fortran-ordered. The strict upper triangle of the result is zero.
    """
    X = np.asfortranarray(L)
    _invert_lower(X, 0, X.shape[0])
    return X


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """Lower triangle of (L L')^-1 for a lower Cholesky factor ``L``.

    The strict upper triangle of the result is zero and it is in Fortran
    order, so BLAS can update it in place. ``L`` is overwritten as by
    ``inverse_lower``. Up to INVERSE_BLOCK this is dpotri bit for bit:
    dtrtri, then dlauum forms X' X from the inverse factor X.
    """
    return dlauum(inverse_lower(L), lower=1, overwrite_c=1)[0]


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """Exactly symmetric inverse of a symmetric positive-definite matrix."""
    L = cholesky(A)
    if L is None:
        raise NumericalError("matrix is not positive definite")
    # chol_inverse fills the lower triangle over a zero upper triangle, so
    # adding the strict lower triangle's mirror completes the inverse.
    inv = chol_inverse(L)
    inv += np.tril(inv, -1).T
    return inv
