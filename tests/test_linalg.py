"""The package's one Cholesky/SPD module and the rule that nothing else factors."""

import ast
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import blas, lapack
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dpotri, dtrtri

from gpagg import NumericalError, _linalg
from gpagg._linalg import (
    INVERSE_BLOCK,
    POINTER_MIN,
    cho_solve,
    chol_inverse,
    chol_jitter,
    cholesky,
    dgemm,
    dsyrk,
    dtrmm,
    inverse_lower,
    solve_lower,
    spd_inverse,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "gpagg"


def random_spd(rng, p):
    B = rng.standard_normal((p, p))
    return B @ B.T + p * np.eye(p)


class TestCholJitter:
    def test_well_conditioned_needs_no_jitter(self):
        A = random_spd(np.random.default_rng(0), 21)
        L, jitter = chol_jitter(A)
        assert jitter == 0.0
        assert np.array_equal(L, np.tril(L))
        assert np.allclose(L @ L.T, A, rtol=0, atol=1e-12 * np.max(np.abs(A)))

    @pytest.mark.parametrize(
        "entries",
        [
            [(2, 2, np.nan)],
            [(3, 1, np.nan), (1, 3, np.nan)],
            [(4, 4, np.inf)],
            [(3, 1, np.inf), (1, 3, np.inf)],
        ],
        ids=["nan-diagonal", "nan-off-diagonal", "inf-diagonal", "inf-off-diagonal"],
    )
    def test_non_finite_input_raises(self, entries):
        # dpotrf itself reports success with NaN on the diagonal
        A = random_spd(np.random.default_rng(1), 6)
        for i, j, v in entries:
            A[i, j] = v
        with pytest.raises(NumericalError, match="non-finite"):
            chol_jitter(A)

    def test_singular_matrix_is_jittered(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((8, 3))
        A = B @ B.T  # rank 3
        L, jitter = chol_jitter(A)
        assert jitter > 0.0
        target = A + jitter * np.eye(8)
        assert np.allclose(L @ L.T, target, rtol=0, atol=1e-12 * np.max(np.abs(target)))

    def test_jitter_counts_in_the_given_scale(self):
        # a diagonal far below the off-diagonal rounding, as in a Schur complement
        A = np.array([[1e-12, 1e-6], [1e-6, 1e-12]])
        with pytest.raises(NumericalError):
            chol_jitter(A)
        L, jitter = chol_jitter(A, scale=2.0)
        assert jitter == pytest.approx(2e-6)
        assert np.allclose(L @ L.T, A + jitter * np.eye(2), rtol=0, atol=1e-20)

    def test_hopeless_matrix_raises_with_last_jitter(self):
        A = -np.eye(3)
        with pytest.raises(NumericalError) as info:
            chol_jitter(A)
        assert info.value.jitter > 0


class TestSolves:
    def test_cho_solve_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        A = random_spd(rng, 12)
        b = rng.standard_normal((12, 4))
        L, _ = chol_jitter(A)
        assert np.allclose(cho_solve(L, b), np.linalg.solve(A, b), rtol=1e-12, atol=1e-14)
        assert np.allclose(cho_solve(L, b[:, 0]), np.linalg.solve(A, b[:, 0]), rtol=1e-12, atol=1e-14)

    def test_solve_lower_matches_dense_solve(self):
        rng = np.random.default_rng(4)
        L, _ = chol_jitter(random_spd(rng, 10))
        b = rng.standard_normal((10, 3))
        assert np.allclose(solve_lower(L, b), np.linalg.solve(L, b), rtol=1e-12, atol=1e-14)

    def test_solve_lower_rejects_a_singular_factor(self):
        L = np.tril(np.ones((3, 3)))
        L[1, 1] = 0.0
        with pytest.raises(NumericalError, match="singular"):
            solve_lower(L, np.ones(3))


class TestSpdInverse:
    @pytest.mark.parametrize("p", [21, 129, 300, 600])
    def test_exactly_symmetric_and_close_to_dense_inverse(self, p):
        A = random_spd(np.random.default_rng(5), p)
        inv = spd_inverse(A)
        assert np.array_equal(inv, inv.T)
        dense = np.linalg.inv(A)
        assert np.max(np.abs(inv - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("A", [-np.eye(3), np.diag([1.0, np.nan, 1.0])], ids=["indefinite", "nan"])
    def test_non_spd_raises(self, A):
        with pytest.raises(NumericalError, match="not positive definite"):
            spd_inverse(A)


class TestInverseLower:
    @pytest.mark.parametrize("n", [1, 41, INVERSE_BLOCK, INVERSE_BLOCK + 1, 300])
    def test_inverts_the_factor_and_stays_lower(self, n):
        L = cholesky(random_spd(np.random.default_rng(n), n))
        X = inverse_lower(L.copy(order="F"))
        assert X.flags.f_contiguous
        assert not np.triu(X, 1).any()
        if n <= INVERSE_BLOCK:
            assert np.array_equal(X, dtrtri(L, lower=1)[0])
        assert np.max(np.abs(X @ L - np.eye(n))) <= 1e-13


class TestCholInverse:
    @pytest.mark.parametrize("n", [1, 41, INVERSE_BLOCK])
    def test_bitwise_dpotri_up_to_the_block(self, n):
        L = cholesky(random_spd(np.random.default_rng(n), n))
        assert np.array_equal(chol_inverse(L.copy(order="F")), dpotri(L, lower=1)[0])

    @pytest.mark.parametrize("n", [INVERSE_BLOCK + 1, 300])
    def test_above_the_block_stays_lower_and_fortran_ordered(self, n):
        rng = np.random.default_rng(n)
        inv = chol_inverse(cholesky(random_spd(rng, n)))
        assert inv.flags.f_contiguous
        assert not np.triu(inv, 1).any()
        # dsyr updates the Fortran-ordered result in place
        x = rng.standard_normal(n)
        assert dsyr(1.0, x, lower=1, a=inv, overwrite_a=1) is inv


ROUTED = {
    "dpotrf": "_dpotrf",
    "dpotrs": "_dpotrs",
    "dtrtrs": "_dtrtrs",
    "dtrmm": "_dtrmm",
    "dsyrk": "_dsyrk",
    "dgemm": "_dgemm",
}
ORDERS = [POINTER_MIN - 1, POINTER_MIN]


@pytest.fixture
def pointer_calls(monkeypatch):
    """Record which pointer routines run, by their LAPACK/BLAS names."""
    calls = []
    for name, attr in ROUTED.items():
        def recording(*args, _name=name, _fn=getattr(_linalg, attr)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(_linalg, attr, recording)
    return calls


def strided(x):
    """``x`` as a view with neither C nor Fortran layout."""
    big = np.zeros(tuple(2 * k for k in x.shape))
    big[tuple(slice(None, None, 2) for _ in x.shape)] = x
    view = big[tuple(slice(None, None, 2) for _ in x.shape)]
    assert not (view.flags.c_contiguous or view.flags.f_contiguous)
    return view


LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray, "strided": strided}


def routed_on(n) -> bool:
    return n >= POINTER_MIN


def factor(n, seed=0):
    return lapack.dpotrf(random_spd(np.random.default_rng(seed), n), lower=1)[0]


class TestPointerRoute:
    """Above POINTER_MIN, _linalg calls LAPACK/BLAS through the pointers
    that scipy's Cython modules export; below it, through scipy's f2py
    wrappers. Both must give f2py's bits for any operand layout."""

    def test_pointer_calls_release_the_interpreter_lock(self):
        for attr in ROUTED.values():
            assert not getattr(_linalg, attr)._flags_ & ctypes._FUNCFLAG_PYTHONAPI

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_cholesky_reads_only_the_lower_triangle(self, pointer_calls, n, layout):
        # the upper triangle is not A's mirror, so reading the buffer in
        # the other order would factor a different matrix
        rng = np.random.default_rng(n)
        A = random_spd(rng, n) + np.triu(rng.standard_normal((n, n)), 1)
        x = LAYOUTS[layout](A)
        before = x.copy()
        L = cholesky(x)
        assert np.array_equal(L, lapack.dpotrf(A, lower=1)[0])
        assert L.flags.f_contiguous and not np.triu(L, 1).any()
        assert np.array_equal(x, before)
        assert pointer_calls == ["dpotrf"] * routed_on(n)

    @pytest.mark.parametrize("n", ORDERS)
    def test_failed_factorization_still_jitters(self, pointer_calls, n):
        rng = np.random.default_rng(n)
        B = rng.standard_normal((n, 5))
        A = B @ B.T
        assert cholesky(A) is None
        assert cholesky(-np.eye(n)) is None
        L, jitter = chol_jitter(A)
        assert jitter > 0.0
        assert np.array_equal(L, lapack.dpotrf(A + jitter * np.eye(n), lower=1)[0])
        assert set(pointer_calls) == ({"dpotrf"} if routed_on(n) else set())

    @pytest.mark.parametrize("solve, name", [(cho_solve, "dpotrs"), (solve_lower, "dtrtrs")])
    @pytest.mark.parametrize("L_layout", LAYOUTS)
    @pytest.mark.parametrize("b_layout", [*LAYOUTS, "1-D"])
    @pytest.mark.parametrize("n", ORDERS)
    def test_solves_equal_f2py(self, pointer_calls, solve, name, L_layout, b_layout, n):
        L = LAYOUTS[L_layout](factor(n))
        b = np.random.default_rng(n).standard_normal((n, 7))
        b = b[:, 0] if b_layout == "1-D" else LAYOUTS[b_layout](b)
        before = (L.copy(), b.copy())
        x = solve(L, b)
        assert np.array_equal(x, getattr(lapack, name)(L, b, lower=1)[0])
        assert x.shape == b.shape
        assert np.array_equal(L, before[0]) and np.array_equal(b, before[1])
        assert pointer_calls == [name] * routed_on(n)

    @pytest.mark.parametrize("n", ORDERS)
    def test_singular_factor_still_raises(self, pointer_calls, n):
        L = factor(n)
        L[n // 2, n // 2] = 0.0
        with pytest.raises(NumericalError, match=f"singular at diagonal entry {n // 2}"):
            solve_lower(L, np.ones((n, 3)))
        assert pointer_calls == ["dtrtrs"] * routed_on(n)

    @pytest.mark.parametrize("lower", [1, 0])
    @pytest.mark.parametrize("a_layout", LAYOUTS)
    @pytest.mark.parametrize("b_layout", LAYOUTS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_dtrmm_equals_f2py(self, pointer_calls, lower, a_layout, b_layout, n):
        # a full random a: dtrmm must read only the named triangle of it
        rng = np.random.default_rng(n)
        a = LAYOUTS[a_layout](rng.standard_normal((n, n)))
        b = LAYOUTS[b_layout](rng.standard_normal((n, 9)))
        before = b.copy()
        out = dtrmm(1.5, a, b, lower=lower)
        assert np.array_equal(out, blas.dtrmm(1.5, a, b, lower=lower))
        assert np.array_equal(b, before)
        assert pointer_calls == ["dtrmm"] * routed_on(n)

    @pytest.mark.parametrize("trans, lower", [(1, 1), (0, 1), (1, 0), (0, 0)])
    @pytest.mark.parametrize("a_layout", LAYOUTS)
    @pytest.mark.parametrize("c_layout", LAYOUTS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_dsyrk_equals_f2py(self, pointer_calls, trans, lower, a_layout, c_layout, n):
        rng = np.random.default_rng(n)
        a = LAYOUTS[a_layout](rng.standard_normal((11, n) if trans else (n, 11)))
        c = LAYOUTS[c_layout](rng.standard_normal((n, n)))
        before = c.copy()
        out = dsyrk(-1.0, a, beta=0.5, c=c, trans=trans, lower=lower)
        assert np.array_equal(out, blas.dsyrk(-1.0, a, beta=0.5, c=c, trans=trans, lower=lower))
        assert np.array_equal(c, before)
        assert pointer_calls == ["dsyrk"] * routed_on(n)

    @pytest.mark.parametrize("trans_a", [1, 0])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_dgemm_equals_f2py(self, pointer_calls, trans_a, layout, n):
        rng = np.random.default_rng(n)
        a = LAYOUTS[layout](rng.standard_normal((n, 6) if trans_a else (6, n)))
        b = LAYOUTS[layout](rng.standard_normal((n, 5)))
        c = LAYOUTS[layout](rng.standard_normal((6, 5)))
        before = c.copy()
        out = dgemm(-1.0, a, b, beta=1.0, c=c, trans_a=trans_a)
        assert np.array_equal(out, blas.dgemm(-1.0, a, b, beta=1.0, c=c, trans_a=trans_a))
        assert np.array_equal(c, before)
        assert pointer_calls == ["dgemm"] * routed_on(n)

    @pytest.mark.parametrize("n", ORDERS)
    def test_overwrite_writes_in_place_only_where_f2py_does(self, pointer_calls, n):
        # a writable Fortran-ordered output is overwritten and returned;
        # a C-ordered or strided one is copied and left as it was
        rng = np.random.default_rng(n)
        a, w, c = factor(n), rng.standard_normal((n, n)), rng.standard_normal((n, n))
        calls = {
            "dtrmm": lambda out, f=dtrmm, o=1: f(1.0, a, out, lower=1, overwrite_b=o),
            "dsyrk": lambda out, f=dsyrk, o=1: f(-1.0, w, beta=1.0, c=out, trans=1, lower=1, overwrite_c=o),
            "dgemm": lambda out, f=dgemm, o=1: f(-1.0, w, a, beta=1.0, c=out, trans_a=1, overwrite_c=o),
        }
        for name, call in calls.items():
            expected = call(c, f=getattr(blas, name), o=0)
            for out, in_place in ((np.asfortranarray(c), True), (c.copy(), False), (strided(c), False)):
                before = out.copy()
                got = call(out)
                assert np.array_equal(got, expected), name
                assert (got is out) == in_place, name
                if not in_place:
                    assert np.array_equal(out, before), name
        assert pointer_calls == [name for name in calls for _ in range(3)] * routed_on(n)


@pytest.mark.skipif(_linalg._blas_thread_count is None, reason="scipy's BLAS reports no thread count")
def test_blas_threads_reads_openblas_own_setting():
    src = Path(_linalg.__file__).resolve().parent.parent
    code = f"import sys; sys.path.insert(0, {str(src)!r}); from gpagg._linalg import blas_threads; print(blas_threads())"
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.strip() == threads


def _linalg_uses(tree: ast.AST) -> list[str]:
    """Dense linear algebra a module reaches without going through _linalg:
    numpy.linalg in any form, scipy.linalg in any form (its LAPACK and BLAS
    wrappers and its Cython exports belong to _linalg alone), and ctypes,
    which _linalg calls those exports through."""
    forbidden = (
        "numpy.linalg",
        "scipy.linalg",
        "scipy.linalg.lapack",
        "scipy.linalg.blas",
        "scipy.linalg.cython_lapack",
        "scipy.linalg.cython_blas",
    )

    def flagged(module):
        return module in forbidden or module == "ctypes" or module.startswith("ctypes.")

    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses += [a.name for a in node.names if flagged(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = {a.name for a in node.names}
            if flagged(node.module) or (node.module in ("numpy", "scipy") and "linalg" in names):
                uses.append(f"from {node.module} import {', '.join(sorted(names))}")
        elif isinstance(node, ast.Attribute):
            dotted = ast.unparse(node)
            if dotted in ("np.linalg", "numpy.linalg", "scipy.linalg"):
                uses.append(dotted)
    return uses


def test_only_the_linalg_module_factors_solves_and_inverts():
    """np.linalg, scipy's LAPACK and BLAS wrappers, its Cython exports,
    ctypes, cho_solve, cho_factor, solve_triangular and
    scipy.linalg.cholesky appear nowhere in the package outside _linalg
    (its own cho_solve and BLAS names, imported from there, are allowed)."""
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        uses = _linalg_uses(ast.parse(path.read_text(encoding="utf-8")))
        if uses:
            offenders[path.name] = uses
    assert not offenders


def test_source_rule_flags_each_forbidden_form():
    for snippet in (
        "import numpy as np\nnp.linalg.cholesky(A)",
        "from numpy.linalg import cholesky",
        "from numpy import linalg",
        "import scipy.linalg",
        "from scipy.linalg import cho_solve",
        "from scipy.linalg import solve_triangular",
        "from scipy.linalg import cho_factor",
        "from scipy import linalg",
        "from scipy.linalg.lapack import dpotri",
        "import scipy.linalg.lapack",
        "from scipy.linalg.blas import dsyr",
        "import scipy.linalg.blas",
        "from scipy.linalg import blas",
        "from scipy.linalg import cython_lapack",
        "import scipy.linalg.cython_lapack",
        "from scipy.linalg.cython_lapack import __pyx_capi__",
        "import scipy.linalg.cython_blas",
        "from scipy.linalg.cython_blas import __pyx_capi__",
        "import ctypes",
        "from ctypes import CFUNCTYPE",
        "import ctypes.util",
    ):
        assert _linalg_uses(ast.parse(snippet)), snippet
    for snippet in (
        "from ._linalg import cho_solve, chol_jitter",
        "from ._linalg import dgemm, dsyr",
        "from scipy.spatial.distance import cdist",
    ):
        assert not _linalg_uses(ast.parse(snippet)), snippet
