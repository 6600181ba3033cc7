"""Every Cholesky factorization, SPD solve and SPD inverse of the package:
LAPACK dpotrf, dpotrs, dtrtrs, dtrtri and dlauum, and BLAS dtrmm; and
the packed storage that trained experts keep their factors in, LAPACK
dtrttp and dtpttr.

Factors are lower triangular; only the lower triangle of a matrix to
factor is read. dpotrf reports success with NaN on the diagonal, so a
factor counts only when its diagonal is finite. ``chol_jitter`` holds the
shared jitter policy: on failure the diagonal is inflated by 1e-10, then
tenfold up to 1e-4, times mean(diag); past that a NumericalError carries
the last jitter tried. A non-finite matrix raises before any jitter.

It is also the package's one BLAS module: gp's dgemv and dsyr come from
here, and so do GRBCM's in-place updates ``dtrmm``, ``dsyrk`` and
``dgemm``, each in the one form GRBCM uses.

Two routes reach the same OpenBLAS: scipy's f2py wrappers, which hold
the interpreter lock for the whole call, and the pointers that
``scipy.linalg.cython_lapack`` and ``cython_blas`` export, which ctypes
calls with the lock released and with a leading dimension, for 11-14 us
more per call. dtrtrs, dtrttp, dtpttr, the BLAS updates and the blocked
inverse's dtrmm always take the pointers; dtrtri, dlauum, dgemv and
dsyr always take f2py; dpotrf and dpotrs choose by size (POINTER_MIN).
Operands are copied to Fortran order exactly where f2py copies, so both
routes give the same bits.

A packed triangle (Anderson et al., LAPACK Users' Guide, 3rd ed., 1999)
holds the n(n+1)/2 entries of a lower triangle column by column, half
the memory of the full array. ``pack_lower`` and ``unpack_lower`` copy
between the two forms, so a factor comes back with its exact bits.
"""

import ctypes

import numpy as np
from scipy.linalg import cython_blas, cython_lapack, lapack
from scipy.linalg.blas import dgemv, dsyr  # noqa: F401 - gp's BLAS, imported from here

from .errors import DimensionError, NumericalError

JITTER_START = 1e-10
JITTER_MAX = 1e-4
# Order up to which ``chol_inverse`` inverts a triangle with one dtrtri.
# Up to it the inverse is bitwise dpotri's; above it OpenBLAS's dtrtri
# is slower than splitting in halves and joining them with dtrmm.
INVERSE_BLOCK = 128
# ``cholesky`` and ``cho_solve`` take the pointer route from this order
# up: they run hundreds of times per benchmark draw on each side of it.
# At orders 5 / 20 / 41 (NPAE's K_A, the graphical lasso) dpotrf took
# 16 / 18 / 28 us through the pointer against 1.7 / 4.0 / 14 us through
# f2py (2 cores, one BLAS thread, OpenBLAS 0.3.30, medians of 9); from
# 128 up it ran 10-14% faster. A one-column dpotrs there ran 11-22%
# slower (~90 calls, ~1 ms per desk draw) but stays routed: the fit's
# solves need the lock released before they can run on worker threads.
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
_dtrttp = _capsule_function(cython_lapack, "dtrttp", 6)
_dtpttr = _capsule_function(cython_lapack, "dtpttr", 6)
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


def _check_solve(L: np.ndarray, b: np.ndarray) -> None:
    if not (L.ndim == 2 and L.shape[0] == L.shape[1] and b.ndim in (1, 2) and b.shape[0] == L.shape[0]):
        raise DimensionError(f"cannot solve with a {L.shape} factor for a {b.shape} right-hand side")


def pack_lower(L: np.ndarray) -> np.ndarray:
    """The lower triangle of a square ``L`` in packed storage (dtrttp);
    its strict upper triangle is not read."""
    L = _in(L)
    if not (L.ndim == 2 and L.shape[0] == L.shape[1]):
        raise DimensionError(f"cannot pack the lower triangle of a {L.shape} matrix")
    n = L.shape[0]
    ap = np.empty(n * (n + 1) // 2)
    info = ctypes.c_int()
    _dtrttp(b"L", _int(n), L.ctypes.data, _ld(L), ap.ctypes.data, ctypes.byref(info))
    return ap


def unpack_lower(ap: np.ndarray, n: int) -> np.ndarray:
    """The n x n lower triangle packed in ``ap`` (dtpttr), as a new
    Fortran-ordered array over a zero strict upper triangle."""
    ap = np.ascontiguousarray(ap, dtype=float)
    if ap.shape != (n * (n + 1) // 2,):
        raise DimensionError(f"{ap.shape} entries do not pack an order-{n} triangle")
    L = np.zeros((n, n), order="F")
    info = ctypes.c_int()
    _dtpttr(b"L", _int(n), ap.ctypes.data, L.ctypes.data, _ld(L), ctypes.byref(info))
    return L


def cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L') x = b for a lower Cholesky factor ``L``."""
    L, b = np.asarray(L), np.asarray(b)
    _check_solve(L, b)
    if L.shape[0] and not _large(L, b):  # f2py's dpotrs refuses an order-0 factor
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
    _check_solve(L, b)
    L, x = _in(L), _copy(b)
    info = ctypes.c_int()
    _dtrtrs(
        b"L", b"N", b"N", _int(L.shape[0]), _int(_columns(x)),
        L.ctypes.data, _ld(L), x.ctypes.data, _ld(x), ctypes.byref(info),
    )
    if info.value > 0:
        raise NumericalError(f"triangular factor is singular at diagonal entry {info.value - 1}")
    return x


def _invert_lower(X: np.ndarray, lo: int, hi: int) -> None:
    """Invert the lower-triangular block X[lo:hi, lo:hi] of a
    Fortran-ordered float64 ``X`` in place.

    Above INVERSE_BLOCK the block is split in halves, each inverted
    recursively, and the corner becomes X21 = -X22^-1 L21 X11^-1 by two
    triangular multiplies (LAPACK's blocked scheme; Du Croz & Higham,
    IMA J. Numer. Anal. 1992) on the sub-blocks X11, X21 and X22 where
    they lie in ``X``, through its leading dimension.
    """
    if hi - lo <= INVERSE_BLOCK:
        X[lo:hi, lo:hi] = lapack.dtrtri(X[lo:hi, lo:hi], lower=1, overwrite_c=1)[0]
        return
    mid = (lo + hi) // 2
    _invert_lower(X, lo, mid)
    _invert_lower(X, mid, hi)
    x11, x21, x22 = (X.ctypes.data + X.itemsize * (i + j * X.shape[0]) for i, j in ((lo, lo), (mid, lo), (mid, mid)))
    rows, cols, ld = _int(hi - mid), _int(mid - lo), _ld(X)
    _dtrmm(b"L", b"L", b"N", b"N", rows, cols, _float(-1.0), x22, ld, x21, ld)
    _dtrmm(b"R", b"L", b"N", b"N", rows, cols, _float(1.0), x11, ld, x21, ld)


def inverse_lower(L: np.ndarray) -> np.ndarray:
    """L^-1 for a lower Cholesky factor ``L``, in Fortran order.

    ``L`` must have a positive diagonal and a zero strict upper triangle,
    as ``cholesky`` returns; it is overwritten, and is the result when it
    is Fortran-ordered float64. The strict upper triangle of the result
    is zero.
    """
    X = np.asfortranarray(L, dtype=float)
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


def _output(x: np.ndarray) -> None:
    float64 = isinstance(x, np.ndarray) and x.dtype == np.float64
    if not (float64 and x.flags.f_contiguous and x.flags.writeable and x.flags.aligned):
        raise ValueError("the output must be a writable, Fortran-ordered float64 array")


def dtrmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b := a b in place for a lower-triangular ``a`` (its strict upper
    triangle is not read); returns ``b``."""
    a = _in(a)
    _output(b)
    if not (a.ndim == b.ndim == 2 and a.shape[0] == a.shape[1] == b.shape[0]):
        raise DimensionError(f"cannot multiply a {b.shape} matrix by a {a.shape} triangle")
    m, n = b.shape
    _dtrmm(b"L", b"L", b"N", b"N", _int(m), _int(n), _float(1.0), a.ctypes.data, _ld(a), b.ctypes.data, _ld(b))
    return b


def dsyrk(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The lower triangle of c := c - a' a in place (the strict upper
    triangle of ``c`` is neither read nor written); returns ``c``."""
    a = _in(a)
    _output(c)
    if not (a.ndim == c.ndim == 2 and c.shape == (a.shape[1], a.shape[1])):
        raise DimensionError(f"cannot update a {c.shape} matrix by the Gram matrix of a {a.shape} one")
    k, n = a.shape
    _dsyrk(b"L", b"T", _int(n), _int(k), _float(-1.0), a.ctypes.data, _ld(a), _float(1.0), c.ctypes.data, _ld(c))
    return c


def dgemm(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c := c - a' b in place; returns ``c``."""
    a, b = _in(a), _in(b)
    _output(c)
    if not (a.ndim == b.ndim == c.ndim == 2 and a.shape[0] == b.shape[0] and c.shape == (a.shape[1], b.shape[1])):
        raise DimensionError(f"cannot update a {c.shape} matrix by a {a.shape}' {b.shape} product")
    (k, m), n = a.shape, b.shape[1]
    _dgemm(
        b"T", b"N", _int(m), _int(n), _int(k),
        _float(-1.0), a.ctypes.data, _ld(a), b.ctypes.data, _ld(b), _float(1.0), c.ctypes.data, _ld(c),
    )
    return c
