"""Every Cholesky factorization, SPD solve and SPD inverse of the package:
LAPACK dpotrf, dpotrs, dtrtrs, dtrtri and dlauum, and BLAS dtrmm.

Factors are lower triangular; only the lower triangle of a matrix to
factor is read. dpotrf reports success with NaN on the diagonal, so a
factor counts only when its diagonal is finite. ``chol_jitter`` holds the
shared jitter policy: on failure the diagonal is inflated by 1e-10, then
tenfold up to 1e-4, times mean(diag); past that a NumericalError carries
the last jitter tried. A non-finite matrix raises before any jitter.

It is also the package's one BLAS module: gp's dgemv and dsyr come from
here, and so do dtrmm, dsyrk and dgemm, which take the arguments of
scipy's wrappers that the package passes.

Two routes reach the same OpenBLAS. scipy's f2py wrappers hold the
interpreter lock for the whole call, so worker threads that run them
take turns. The pointers that ``scipy.linalg.cython_lapack`` and
``cython_blas`` export, called through ctypes, release it. dpotrf,
dpotrs, dtrtrs, dtrmm, dsyrk and dgemm take that route when an operand
has a dimension of at least POINTER_MIN, with the operand layouts f2py
would use (a Fortran-ordered copy wherever f2py copies), so both routes
give the same bits.
"""

import ctypes

import numpy as np
from scipy.linalg import blas, cython_blas, cython_lapack, lapack
from scipy.linalg.blas import dgemv, dsyr  # noqa: F401 - gp's BLAS, imported from here

from .errors import NumericalError

JITTER_START = 1e-10
JITTER_MAX = 1e-4
# Order up to which ``chol_inverse`` inverts a triangle with one dtrtri.
# Up to it the inverse is bitwise dpotri's; above it OpenBLAS's dtrtri
# is slower than splitting in halves and joining them with dtrmm.
INVERSE_BLOCK = 128
# A call takes the pointer route when its largest operand dimension
# reaches this. The route's ctypes arguments add 6-9 us per call (2
# cores, one BLAS thread, scipy's OpenBLAS 0.3.30, medians of 9 runs):
# 70-180% of a call at order 20 (NPAE's K_A), 30-135% at 41 (the
# graphical lasso), and at 128-256 4-24% for dtrtrs, dtrmm, dsyrk and
# dgemm with 51 right-hand sides and 15-47% for a one-column dpotrs,
# while dpotrf ran 11-23% faster. Two threads ran each routed call
# 1.3-2.0x as fast as one, against 0.8-1.1x through f2py.
POINTER_MIN = 128


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _capsule_function(module, name: str, nargs: int):
    """The routine ``name`` of one of scipy's Cython BLAS/LAPACK modules as
    a ctypes function: every argument by address, the Fortran convention,
    and the interpreter lock released for the call."""
    capsule = module.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


_dpotrf = _capsule_function(cython_lapack, "dpotrf", 5)
_dpotrs = _capsule_function(cython_lapack, "dpotrs", 8)
_dtrtrs = _capsule_function(cython_lapack, "dtrtrs", 10)
_dlaset = _capsule_function(cython_lapack, "dlaset", 7)
_dtrmm = _capsule_function(cython_blas, "dtrmm", 11)
_dsyrk = _capsule_function(cython_blas, "dsyrk", 10)
_dgemm = _capsule_function(cython_blas, "dgemm", 13)


def _blas_thread_getter():
    """The thread-count getter of the OpenBLAS that scipy links, found
    through the extension module that links it; None for a BLAS without
    one."""
    lib = ctypes.CDLL(cython_blas.__file__)
    for name in ("scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        try:
            getter = getattr(lib, name)
        except AttributeError:
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        return getter
    return None


_blas_thread_count = _blas_thread_getter()


def blas_threads() -> int:
    """Threads scipy's BLAS may run one call on: OpenBLAS's own setting
    (``OPENBLAS_NUM_THREADS``, else one per CPU), or 1 where it cannot be
    read."""
    return max(1, _blas_thread_count()) if _blas_thread_count else 1


def _int(v: int):
    return ctypes.byref(ctypes.c_int(v))


def _float(v: float):
    return ctypes.byref(ctypes.c_double(v))


def _ld(x: np.ndarray):
    """Leading dimension of a Fortran-ordered operand."""
    return _int(max(1, x.shape[0]))


def _large(*operands: np.ndarray) -> bool:
    """Whether a call on these operands takes the pointer route."""
    return max(max(x.shape, default=0) for x in operands) >= POINTER_MIN


def _in(x: np.ndarray) -> np.ndarray:
    """An operand the routine only reads: Fortran-ordered float64, copied
    only when it is not already, as f2py does."""
    return np.asfortranarray(x, dtype=float)


def _copy(x: np.ndarray) -> np.ndarray:
    return np.array(x, dtype=float, order="F")


def _out(x: np.ndarray, overwrite) -> np.ndarray:
    """The operand the routine overwrites with its result: ``x`` itself
    when the caller allows it and it is writable Fortran-ordered float64,
    else a copy."""
    flags = x.flags
    if overwrite and x.dtype == np.float64 and flags.f_contiguous and flags.writeable and flags.aligned:
        return x
    return _copy(x)


def _columns(x: np.ndarray) -> int:
    """Right-hand sides in a solve's 1-D or 2-D ``x``."""
    return x.shape[1] if x.ndim == 2 else 1


def cholesky(A: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a symmetric matrix; None unless it is SPD."""
    A = np.asarray(A)
    if A.ndim == 2 and A.shape[0] == A.shape[1] and _large(A):
        n = A.shape[0]
        L = _copy(A)
        info = ctypes.c_int()
        _dpotrf(b"L", _int(n), L.ctypes.data, _ld(L), ctypes.byref(info))
        # f2py's ``clean``: the strict upper triangle is that of the
        # (n-1) x (n-1) block from L[0, 1], diagonal included.
        _dlaset(b"U", _int(n - 1), _int(n - 1), _float(0.0), _float(0.0), L.ctypes.data + 8 * n, _ld(L))
        info = info.value
    else:
        L, info = lapack.dpotrf(A, lower=1)
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


def _solvable(L: np.ndarray, b: np.ndarray) -> bool:
    """Whether a solve with factor ``L`` takes the pointer route: it is
    large and its shapes are ones the f2py wrapper accepts as they are."""
    square = L.ndim == 2 and L.shape[0] == L.shape[1]
    return square and b.ndim in (1, 2) and b.shape[0] == L.shape[0] and _large(L, b)


def cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L') x = b for a lower Cholesky factor ``L``."""
    L, b = np.asarray(L), np.asarray(b)
    if not _solvable(L, b):
        return lapack.dpotrs(L, b, lower=1)[0]  # info < 0 only flags a malformed call
    L, x = _in(L), _copy(b)
    info = ctypes.c_int()
    _dpotrs(
        b"L", _int(L.shape[0]), _int(_columns(x)), L.ctypes.data, _ld(L), x.ctypes.data, _ld(x), ctypes.byref(info)
    )
    return x


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for a lower-triangular ``L``."""
    L, b = np.asarray(L), np.asarray(b)
    if _solvable(L, b):
        L, x = _in(L), _copy(b)
        info = ctypes.c_int()
        _dtrtrs(
            b"L", b"N", b"N", _int(L.shape[0]), _int(_columns(x)),
            L.ctypes.data, _ld(L), x.ctypes.data, _ld(x), ctypes.byref(info),
        )
        info = info.value
    else:
        x, info = lapack.dtrtrs(L, b, lower=1)
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
        X[lo:hi, lo:hi] = lapack.dtrtri(X[lo:hi, lo:hi], lower=1, overwrite_c=1)[0]
        return
    mid = (lo + hi) // 2
    _invert_lower(X, lo, mid)
    _invert_lower(X, mid, hi)
    corner = blas.dtrmm(-1.0, X[mid:hi, mid:hi], X[mid:hi, lo:mid], lower=1)
    X[mid:hi, lo:mid] = blas.dtrmm(1.0, X[lo:mid, lo:mid], corner, side=1, lower=1, overwrite_b=1)


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
    return lapack.dlauum(inverse_lower(L), lower=1, overwrite_c=1)[0]


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


def dtrmm(alpha: float, a: np.ndarray, b: np.ndarray, lower=0, overwrite_b=0) -> np.ndarray:
    """alpha a b for a triangular ``a``: scipy's ``dtrmm`` with ``a`` on
    the left, not transposed, and its diagonal read."""
    a, b = np.asarray(a), np.asarray(b)
    shapes_fit = a.ndim == b.ndim == 2 and a.shape[0] == a.shape[1] == b.shape[0]
    if not (shapes_fit and _large(a, b)):
        return blas.dtrmm(alpha, a, b, lower=lower, overwrite_b=overwrite_b)
    a, b = _in(a), _out(b, overwrite_b)
    _dtrmm(
        b"L", b"L" if lower else b"U", b"N", b"N", _int(b.shape[0]), _int(b.shape[1]),
        _float(alpha), a.ctypes.data, _ld(a), b.ctypes.data, _ld(b),
    )
    return b


def dsyrk(alpha: float, a: np.ndarray, beta: float, c: np.ndarray, trans=0, lower=0, overwrite_c=0) -> np.ndarray:
    """One triangle of alpha a a' + beta c (trans 0) or alpha a' a + beta c
    (trans 1): scipy's ``dsyrk`` with ``c`` given."""
    a, c = np.asarray(a), np.asarray(c)
    if a.ndim == c.ndim == 2:
        n, k = a.shape[::-1] if trans else a.shape
        routed = c.shape == (n, n) and _large(a, c)
    else:
        routed = False
    if not routed:
        return blas.dsyrk(alpha, a, beta=beta, c=c, trans=trans, lower=lower, overwrite_c=overwrite_c)
    a, c = _in(a), _out(c, overwrite_c)
    _dsyrk(
        b"L" if lower else b"U", b"T" if trans else b"N", _int(n), _int(k),
        _float(alpha), a.ctypes.data, _ld(a), _float(beta), c.ctypes.data, _ld(c),
    )
    return c


def dgemm(
    alpha: float, a: np.ndarray, b: np.ndarray, beta: float, c: np.ndarray, trans_a=0, overwrite_c=0
) -> np.ndarray:
    """alpha op(a) b + beta c: scipy's ``dgemm`` with ``c`` given and ``b``
    not transposed."""
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    if a.ndim == b.ndim == c.ndim == 2:
        m, k = a.shape[::-1] if trans_a else a.shape
        routed = b.shape[0] == k and c.shape == (m, b.shape[1]) and _large(a, b, c)
    else:
        routed = False
    if not routed:
        return blas.dgemm(alpha, a, b, beta=beta, c=c, trans_a=trans_a, overwrite_c=overwrite_c)
    a, b, c = _in(a), _in(b), _out(c, overwrite_c)
    _dgemm(
        b"T" if trans_a else b"N", b"N", _int(m), _int(c.shape[1]), _int(k),
        _float(alpha), a.ctypes.data, _ld(a), b.ctypes.data, _ld(b), _float(beta), c.ctypes.data, _ld(c),
    )
    return c
