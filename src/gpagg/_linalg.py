"""Every Cholesky factorization, SPD solve and SPD inverse of the package:
LAPACK dpotrf, dpotrs, dposv, dtrtri and dlauum, and BLAS dtrsm and dtrmm; and
the packed storage that trained experts keep their factors in, LAPACK
dtrttp and dtpttr.

Factors are lower triangular; only the lower triangle of a matrix to
factor is read. dpotrf reports success with NaN on the diagonal, so a
factor counts only when its diagonal is finite. ``chol_jitter`` holds the
shared jitter policy: on failure the diagonal is inflated by 1e-10, then
tenfold up to 1e-4, times mean(diag); past that a NumericalError carries
the last jitter tried. A non-finite matrix raises before any jitter.

It is also the package's one BLAS module (``solve_lower``'s dtrsm, gp's
``dsyr``, GRBCM's ``dtrmm``, ``dsyrk`` and ``dgemm``), and it alone sets the thread
counts of the process's two OpenBLAS pools (``set_pool_threads``). Each
routine is called by ctypes through the pointer that scipy's
``cython_lapack`` or ``cython_blas`` exports, with the interpreter lock
released, on operands copied to Fortran order where scipy's f2py
wrappers copy them, so results have their bits.

The two Cython modules are loaded from their own files
(``_scipy_linalg_module``): ``from scipy.linalg import`` would run
``scipy/linalg/__init__.py``, whose Python API (with ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``) took more than half of
``import gpagg``. Registered in ``sys.modules`` under their own names,
they serve a later scipy.linalg, scipy.optimize or ``cimport`` as well;
only the attributes ``scipy.linalg.cython_blas`` and ``.cython_lapack``
stay unbound when scipy.linalg is imported after this module.

A packed triangle (Anderson et al., LAPACK Users' Guide, 3rd ed., 1999)
holds the n(n+1)/2 entries of a lower triangle column by column, half
the memory of the full array. ``pack_lower`` and ``unpack_lower`` copy
between the two forms, so a factor comes back with its exact bits.
"""

import ctypes
import importlib.machinery
import importlib.util
import sys

import numpy as np
import scipy
from numpy.linalg import _umath_linalg

from .errors import DimensionError, NumericalError

JITTER_START = 1e-10
JITTER_MAX = 1e-4
# Order up to which ``chol_inverse`` inverts a triangle with one dtrtri.
# Up to it the inverse is bitwise dpotri's; above it OpenBLAS's dtrtri
# is slower than splitting in halves and joining them with dtrmm.
INVERSE_BLOCK = 128


def _scipy_linalg_module(name: str):
    """scipy.linalg's compiled module ``name``: the one in ``sys.modules``,
    else one loaded from its own file and registered there."""
    full = f"scipy.linalg.{name}"
    if full not in sys.modules:
        spec = importlib.machinery.PathFinder.find_spec(full, [f"{scipy.__path__[0]}/linalg"])
        sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[full])
    return sys.modules[full]


cython_blas = _scipy_linalg_module("cython_blas")
cython_lapack = _scipy_linalg_module("cython_lapack")


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
_dposv = _capsule_function(cython_lapack, "dposv", 8)
_dtrtri = _capsule_function(cython_lapack, "dtrtri", 6)
_dlauum = _capsule_function(cython_lapack, "dlauum", 5)
_dlaset = _capsule_function(cython_lapack, "dlaset", 7)
_dtrttp = _capsule_function(cython_lapack, "dtrttp", 6)
_dtpttr = _capsule_function(cython_lapack, "dtpttr", 6)
_dtrsm = _capsule_function(cython_blas, "dtrsm", 11)
_dtrmm = _capsule_function(cython_blas, "dtrmm", 11)
_dsyrk = _capsule_function(cython_blas, "dsyrk", 10)
_dgemm = _capsule_function(cython_blas, "dgemm", 13)
_dsyr = _capsule_function(cython_blas, "dsyr", 7)


# (get, set) thread-count functions of scipy's and numpy's OpenBLAS, via a module that links each; none for other BLAS.
_POOLS = [
    (ctypes.CFUNCTYPE(ctypes.c_int)((f"{name}_get_num_threads{sfx}", lib)),
     ctypes.CFUNCTYPE(None, ctypes.c_int)((f"{name}_set_num_threads{sfx}", lib)))
    for lib, sfx in ((ctypes.CDLL(cython_blas.__file__), ""), (ctypes.CDLL(_umath_linalg.__file__), "64_"))
    for name in ("scipy_openblas", "openblas")
    if hasattr(lib, f"{name}_set_num_threads{sfx}")
]


def set_pool_threads(counts: list[int]) -> list[int]:
    """Set each OpenBLAS pool's thread count, scipy's first; return the old counts."""
    had = [get() for get, _ in _POOLS]
    for (_, put), count in zip(_POOLS, counts):
        put(count)
    return had


def _int(v: int):
    return ctypes.byref(ctypes.c_int(v))


def _float(v: float):
    return ctypes.byref(ctypes.c_double(v))


# Arguments LAPACK and BLAS only read, built once; the rest are built per call, as calls run on several threads.
_ONE_INT, _ONE, _ZERO, _MINUS_ONE = _int(1), _float(1.0), _float(0.0), _float(-1.0)


def _ld(x: np.ndarray):
    """Leading dimension of a Fortran-ordered operand."""
    return _int(max(1, x.shape[0]))


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
    if not (A.ndim == 2 and A.shape[0] == A.shape[1]):
        raise DimensionError(f"cannot factor a {A.shape} matrix")
    n, L = A.shape[0], _copy(A)
    address, ld, info = L.ctypes.data, _ld(L), ctypes.c_int()
    _dpotrf(b"L", _int(n), address, ld, ctypes.byref(info))
    # f2py's ``clean`` of the strict upper triangle: that of the order n-1 block from L[0, 1]
    rest = _int(max(n - 1, 0))
    _dlaset(b"U", rest, rest, _ZERO, _ZERO, address + 8 * n, ld)
    if info.value != 0 or not np.isfinite(L.diagonal()).all():
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
    _dtrttp(b"L", _int(n), L.ctypes.data, _ld(L), ap.ctypes.data, _int(0))  # info, not read
    return ap


def unpack_lower(ap: np.ndarray, n: int) -> np.ndarray:
    """The n x n lower triangle packed in ``ap`` (dtpttr), as a new
    Fortran-ordered array over a zero strict upper triangle."""
    ap = np.ascontiguousarray(ap, dtype=float)
    if ap.shape != (n * (n + 1) // 2,):
        raise DimensionError(f"{ap.shape} entries do not pack an order-{n} triangle")
    L = np.zeros((n, n), order="F")
    _dtpttr(b"L", _int(n), ap.ctypes.data, L.ctypes.data, _ld(L), _int(0))  # info, not read
    return L


def cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L') x = b for a lower Cholesky factor ``L``."""
    L, b = np.asarray(L), np.asarray(b)
    _check_solve(L, b)
    L, x = _in(L), _copy(b)
    _dpotrs(b"L", _int(L.shape[0]), _int(_columns(x)), L.ctypes.data, _ld(L), x.ctypes.data, _ld(x), _int(0))
    return x


def spd_solve_each(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x[t] = A[t]^-1 b[t] for k symmetric m x m ``A`` and a k x m ``b`` by one
    dposv (dpotrf, then dpotrs) each, and whether A[t] is SPD; where it is,
    x[t] is bitwise ``cho_solve(cholesky(A[t]), b[t])``."""
    F = np.array(np.swapaxes(A, -1, -2), dtype=float, order="C")  # a copy, each A[t] in Fortran order
    x = np.array(b, dtype=float, order="C")
    k, m = x.shape
    if F.shape != (k, m, m):
        raise DimensionError(f"cannot solve a {F.shape} stack for a {x.shape} one")
    order, ld, info = _int(m), _int(max(1, m)), ctypes.c_int()
    a, b_at, status, spd = F.ctypes.data, x.ctypes.data, ctypes.byref(info), np.empty(k, dtype=bool)
    for t in range(k):
        _dposv(b"L", order, _ONE_INT, a + 8 * m * m * t, ld, b_at + 8 * m * t, ld, status)
        spd[t] = info.value == 0
    return x, spd & np.isfinite(np.diagonal(F, axis1=1, axis2=2)).all(axis=1)


def solve_lower(L: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve L x = b, or L' x = b with ``transpose``, for a lower-triangular
    ``L`` by one dtrsm; up to order 384 each column of ``x`` has the bits it
    has solved alone. A zero on the diagonal raises, as in LAPACK's dtrtrs."""
    L, b = np.asarray(L), np.asarray(b)
    _check_solve(L, b)
    L, x = _in(L), _copy(b)
    zero = np.flatnonzero(L.diagonal() == 0.0)
    if zero.size:
        raise NumericalError(f"triangular factor is singular at diagonal entry {zero[0]}")
    _dtrsm(
        b"L", b"L", b"T" if transpose else b"N", b"N", _int(L.shape[0]), _int(_columns(x)),
        _ONE, L.ctypes.data, _ld(L), x.ctypes.data, _ld(x),
    )
    return x


def _at(X: np.ndarray, i: int, j: int) -> int:
    """Address of X[i, j] in a Fortran-ordered float64 ``X``."""
    return X.ctypes.data + X.itemsize * (i + j * X.shape[0])


def _invert_lower(X: np.ndarray, lo: int, hi: int) -> None:
    """Invert the lower-triangular block X[lo:hi, lo:hi] of a
    Fortran-ordered float64 ``X`` in place.

    Above INVERSE_BLOCK the block is split in halves, each inverted
    recursively, and the corner becomes X21 = -X22^-1 L21 X11^-1 by two
    triangular multiplies (LAPACK's blocked scheme; Du Croz & Higham,
    IMA J. Numer. Anal. 1992) on the sub-blocks X11, X21 and X22 where
    they lie in ``X``, through its leading dimension. A leaf is inverted
    there too, by dtrtri.
    """
    if hi - lo <= INVERSE_BLOCK:
        _dtrtri(b"L", b"N", _int(hi - lo), _at(X, lo, lo), _ld(X), _int(0))  # info, not read
        return
    mid = (lo + hi) // 2
    _invert_lower(X, lo, mid)
    _invert_lower(X, mid, hi)
    x11, x21, x22 = _at(X, lo, lo), _at(X, mid, lo), _at(X, mid, mid)
    rows, cols, ld = _int(hi - mid), _int(mid - lo), _ld(X)
    _dtrmm(b"L", b"L", b"N", b"N", rows, cols, _MINUS_ONE, x22, ld, x21, ld)
    _dtrmm(b"R", b"L", b"N", b"N", rows, cols, _ONE, x11, ld, x21, ld)


def inverse_lower(L: np.ndarray) -> np.ndarray:
    """L^-1 for a lower Cholesky factor ``L``, in Fortran order.

    ``L`` must have a positive diagonal and a zero strict upper triangle,
    as ``cholesky`` returns; it is overwritten, and is the result when it
    is a writable Fortran-ordered float64 array. The strict upper
    triangle of the result is zero.
    """
    X = np.require(L, dtype=float, requirements="FW")
    _invert_lower(X, 0, X.shape[0])
    return X


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """Lower triangle of (L L')^-1 for a lower Cholesky factor ``L``.

    The strict upper triangle of the result is zero and it is in Fortran
    order, so BLAS can update it in place. ``L`` is overwritten as by
    ``inverse_lower``. Up to INVERSE_BLOCK this is dpotri bit for bit:
    dtrtri, then dlauum forms X' X from the inverse factor X.
    """
    X = inverse_lower(L)
    _dlauum(b"L", _int(X.shape[0]), X.ctypes.data, _ld(X), _int(0))  # info, not read
    return X


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


def dsyr(alpha: float, x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The lower triangle of a := a + alpha x x' in place for a 1-D ``x``
    (the strict upper triangle of ``a`` is neither read nor written);
    returns ``a``."""
    x = _in(x)
    _output(a)
    if not (x.ndim == 1 and a.ndim == 2 and a.shape == (x.size, x.size)):
        raise DimensionError(f"cannot update a {a.shape} matrix by the outer product of a {x.shape} vector")
    _dsyr(b"L", _int(x.size), _float(alpha), x.ctypes.data, _ONE_INT, a.ctypes.data, _ld(a))
    return a


def dtrmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b := a b in place for a lower-triangular ``a`` (its strict upper
    triangle is not read); returns ``b``."""
    a = _in(a)
    _output(b)
    if not (a.ndim == b.ndim == 2 and a.shape[0] == a.shape[1] == b.shape[0]):
        raise DimensionError(f"cannot multiply a {b.shape} matrix by a {a.shape} triangle")
    m, n = b.shape
    _dtrmm(b"L", b"L", b"N", b"N", _int(m), _int(n), _ONE, a.ctypes.data, _ld(a), b.ctypes.data, _ld(b))
    return b


def dsyrk(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The lower triangle of c := c - a' a in place (the strict upper
    triangle of ``c`` is neither read nor written); returns ``c``."""
    a = _in(a)
    _output(c)
    if not (a.ndim == c.ndim == 2 and c.shape == (a.shape[1], a.shape[1])):
        raise DimensionError(f"cannot update a {c.shape} matrix by the Gram matrix of a {a.shape} one")
    k, n = a.shape
    _dsyrk(b"L", b"T", _int(n), _int(k), _MINUS_ONE, a.ctypes.data, _ld(a), _ONE, c.ctypes.data, _ld(c))
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
        _MINUS_ONE, a.ctypes.data, _ld(a), b.ctypes.data, _ld(b), _ONE, c.ctypes.data, _ld(c),
    )
    return c

