"""The package's one Cholesky/SPD module and the rule that nothing else factors."""

import ast
import ctypes
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import blas, lapack
from scipy.linalg.lapack import dpotri, dtrtri

from gpagg import Dataset, DimensionError, Hyperparameters, NumericalError, _linalg
from gpagg.baselines import collect_predictions, grbcm_aggregate, grbcm_base_index
from gpagg.emggm import emggm_aggregate
from gpagg.gp import _lml_and_grad, predict, train_expert
from gpagg.npae import npae_aggregate
from gpagg.partition import Partitioning
from gpagg._linalg import (
    INVERSE_BLOCK,
    cho_solve,
    chol_inverse,
    chol_jitter,
    cholesky,
    dgemm,
    dgemv,
    dsyr,
    dsyrk,
    dtrmm,
    inverse_lower,
    pack_lower,
    solve_lower,
    spd_inverse,
    spd_solve_each,
    unpack_lower,
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
        assert np.allclose(solve_lower(L, b, transpose=True), np.linalg.solve(L.T, b), rtol=1e-12, atol=1e-14)

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

    @pytest.mark.parametrize("n", [6, 129])
    def test_a_read_only_factor_is_copied_not_overwritten(self, n):
        L = cholesky(random_spd(np.random.default_rng(n), n))
        expected = inverse_lower(L.copy(order="F"))
        L.flags.writeable = False
        before = L.copy()
        X = inverse_lower(L)
        assert X is not L and np.array_equal(L, before)
        assert np.array_equal(X, expected)
        writable = L.copy(order="F")
        assert inverse_lower(writable) is writable


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
        assert dsyr(1.0, x, inv) is inv


def _invert_lower_reference(X, lo, hi):
    """``_invert_lower``'s blocked scheme with each corner product on a
    contiguous copy of its sub-blocks, through scipy's f2py dtrmm."""
    if hi - lo <= INVERSE_BLOCK:
        X[lo:hi, lo:hi] = dtrtri(X[lo:hi, lo:hi], lower=1, overwrite_c=1)[0]
        return
    mid = (lo + hi) // 2
    _invert_lower_reference(X, lo, mid)
    _invert_lower_reference(X, mid, hi)
    corner = blas.dtrmm(-1.0, X[mid:hi, mid:hi], X[mid:hi, lo:mid], lower=1)
    X[mid:hi, lo:mid] = blas.dtrmm(1.0, X[lo:mid, lo:mid], corner, side=1, lower=1, overwrite_b=1)


@pytest.mark.parametrize("n", [129, 199, 250, 365, 434, 1000])
def test_blocked_inverse_equals_the_copying_reference(n):
    L = cholesky(random_spd(np.random.default_rng(n), n))
    expected = np.asfortranarray(L.copy())
    _invert_lower_reference(expected, 0, n)
    assert np.array_equal(inverse_lower(L.copy(order="F")), expected)
    assert np.array_equal(chol_inverse(L.copy(order="F")), lapack.dlauum(expected, lower=1)[0])


ROUTED = {
    "dpotrf": "_dpotrf",
    "dlaset": "_dlaset",
    "dpotrs": "_dpotrs",
    "dposv": "_dposv",
    "dtrtrs": "_dtrtrs",
    "dtrmm": "_dtrmm",
    "dsyrk": "_dsyrk",
    "dgemm": "_dgemm",
    "dtrttp": "_dtrttp",
    "dtpttr": "_dtpttr",
    "dtrtri": "_dtrtri",
    "dlauum": "_dlauum",
    "dsyr": "_dsyr",
    "dgemv": "_dgemv",
}
# NPAE's K_A and the graphical lasso (M, M + 1), a partition, and the
# orders on either side of the cut that once split the routes
ORDERS = [5, 41, 127, 128]
# around the inverse's block, one split and two
SPLIT_ORDERS = [127, 128, 129, 250, 434]
INVERSE_ORDERS = [2, 6, 21, *SPLIT_ORDERS]
DSYR_ORDERS = [2, 5, *SPLIT_ORDERS]


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


@pytest.fixture
def f2py_refused(monkeypatch):
    """scipy's f2py wrappers of every routine _linalg calls raise when
    called."""
    def refuse(*args, **kwargs):
        raise AssertionError("reached one of scipy's f2py wrappers")

    for module, name in (
        (lapack, "dpotrf"), (lapack, "dpotrs"), (lapack, "dposv"), (lapack, "dtrtrs"), (lapack, "dtrtri"), (lapack, "dlauum"),
        (blas, "dtrmm"), (blas, "dsyrk"), (blas, "dgemm"), (blas, "dsyr"), (blas, "dgemv"),
    ):
        monkeypatch.setattr(module, name, refuse)


def strided(x):
    """``x`` as a view with neither C nor Fortran layout."""
    big = np.zeros(tuple(2 * k for k in x.shape))
    big[tuple(slice(None, None, 2) for _ in x.shape)] = x
    view = big[tuple(slice(None, None, 2) for _ in x.shape)]
    assert not (view.flags.c_contiguous or view.flags.f_contiguous)
    return view


LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray, "strided": strided}


def leaves(n) -> int:
    """dtrtri calls of ``inverse_lower`` at order n: one per block of at
    most INVERSE_BLOCK that the halving leaves."""
    return 1 if n <= INVERSE_BLOCK else leaves(n // 2) + leaves(n - n // 2)


def factor(n, seed=0):
    return lapack.dpotrf(random_spd(np.random.default_rng(seed), n), lower=1)[0]


class TestPointerRoute:
    """Every routine runs through the pointer that scipy's Cython modules
    export, at every size, and must give f2py's bits for any layout of
    the operands it reads."""

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
        assert pointer_calls == ["dpotrf", "dlaset"]

    @pytest.mark.parametrize("n", ORDERS)
    def test_failed_factorization_still_jitters(self, pointer_calls, n):
        rng = np.random.default_rng(n)
        B = rng.standard_normal((n, min(5, n - 1)))  # rank-deficient
        A = B @ B.T
        assert cholesky(A) is None
        assert cholesky(-np.eye(n)) is None
        L, jitter = chol_jitter(A)
        assert jitter > 0.0
        assert np.array_equal(L, lapack.dpotrf(A + jitter * np.eye(n), lower=1)[0])
        assert set(pointer_calls) == {"dpotrf", "dlaset"}

    @pytest.mark.parametrize("solve, name", [(cho_solve, "dpotrs"), (solve_lower, "dtrtrs")])
    @pytest.mark.parametrize("L_layout", LAYOUTS)
    @pytest.mark.parametrize("b_layout", [*LAYOUTS, "1-D"])
    # and a factor with more right-hand sides than rows
    @pytest.mark.parametrize(
        "n, k", [(n, 7) for n in ORDERS] + [(127, 128)], ids=[*map(str, ORDERS), "127x128"]
    )
    def test_solves_equal_f2py(self, pointer_calls, solve, name, L_layout, b_layout, n, k):
        L = LAYOUTS[L_layout](factor(n))
        b = np.random.default_rng(n).standard_normal((n, k))
        b = b[:, 0] if b_layout == "1-D" else LAYOUTS[b_layout](b)
        before = (L.copy(), b.copy())
        x = solve(L, b)
        assert np.array_equal(x, getattr(lapack, name)(L, b, lower=1)[0])
        assert x.shape == b.shape
        assert np.array_equal(L, before[0]) and np.array_equal(b, before[1])
        assert pointer_calls == [name]

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("m", [1, 5, 21, 41])
    def test_stacked_solves_equal_factor_then_solve(self, pointer_calls, layout, m):
        # NPAE's per-point K_A solves: every A[t] that cholesky factors is
        # solved bitwise as cho_solve(cholesky(A[t]), b[t]); the others,
        # singular, indefinite or with NaN, are flagged for the jitter policy
        rng = np.random.default_rng(m)
        A = np.stack([random_spd(rng, m) for _ in range(6)])
        A += np.triu(rng.standard_normal((m, m)), 1)  # upper triangles are not read
        A[1] = -np.eye(m)
        B = rng.standard_normal((m, m // 2))
        A[3] = B @ B.T  # rank m // 2
        A[4, -1, 0] = np.nan
        b = rng.standard_normal((6, m))
        stack = np.stack([LAYOUTS[layout](a) for a in A]) if layout == "C" else np.asfortranarray(A)
        before = (stack.copy(), b.copy())
        pointer_calls.clear()
        x, spd = spd_solve_each(stack, b)
        assert pointer_calls == ["dposv"] * 6
        assert np.array_equal(stack, before[0], equal_nan=True) and np.array_equal(b, before[1])
        expected = [cholesky(a) is not None for a in A]
        assert list(spd) == expected == [True, False, True, False, False, True]
        for t in np.flatnonzero(spd):
            assert np.array_equal(x[t], cho_solve(cholesky(A[t]), b[t]))

    def test_stacked_solve_shapes_must_match(self):
        for A, b in ((np.ones((2, 3, 3)), np.ones((2, 4))), (np.ones((2, 3, 4)), np.ones((2, 3)))):
            with pytest.raises(DimensionError, match="cannot solve"):
                spd_solve_each(A, b)

    @pytest.mark.parametrize("L_layout", LAYOUTS)
    @pytest.mark.parametrize("b_layout", [*LAYOUTS, "1-D"])
    @pytest.mark.parametrize("n", ORDERS)
    def test_transposed_solve_equals_f2py(self, pointer_calls, L_layout, b_layout, n):
        L = LAYOUTS[L_layout](factor(n))
        b = np.random.default_rng(n).standard_normal((n, 7))
        b = b[:, 0] if b_layout == "1-D" else LAYOUTS[b_layout](b)
        before = (L.copy(), b.copy())
        x = solve_lower(L, b, transpose=True)
        assert np.array_equal(x, lapack.dtrtrs(L, b, lower=1, trans=1)[0])
        assert x.shape == b.shape
        assert np.array_equal(L, before[0]) and np.array_equal(b, before[1])
        assert pointer_calls == ["dtrtrs"]

    @pytest.mark.parametrize("n", ORDERS)
    def test_singular_factor_still_raises(self, pointer_calls, n):
        L = factor(n)
        L[n // 2, n // 2] = 0.0
        with pytest.raises(NumericalError, match=f"singular at diagonal entry {n // 2}"):
            solve_lower(L, np.ones((n, 3)))
        assert pointer_calls == ["dtrtrs"]

    @pytest.mark.parametrize("a_layout", LAYOUTS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_dtrmm_equals_f2py(self, pointer_calls, a_layout, n):
        # a full random a: dtrmm must read only its lower triangle
        rng = np.random.default_rng(n)
        a = LAYOUTS[a_layout](rng.standard_normal((n, n)))
        b = np.asfortranarray(rng.standard_normal((n, 9)))
        expected = blas.dtrmm(1.0, a, b, lower=1)
        assert dtrmm(a, b) is b
        assert np.array_equal(b, expected)
        assert pointer_calls == ["dtrmm"]

    @pytest.mark.parametrize("a_layout", LAYOUTS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_dsyrk_equals_f2py(self, pointer_calls, a_layout, n):
        rng = np.random.default_rng(n)
        a = LAYOUTS[a_layout](rng.standard_normal((11, n)))
        c = np.asfortranarray(rng.standard_normal((n, n)))
        expected = blas.dsyrk(-1.0, a, beta=1.0, c=c, trans=1, lower=1)
        assert dsyrk(a, c) is c
        assert np.array_equal(c, expected)
        assert pointer_calls == ["dsyrk"]

    @pytest.mark.parametrize("a_layout", LAYOUTS)
    @pytest.mark.parametrize("b_layout", LAYOUTS)
    @pytest.mark.parametrize("n", ORDERS)
    def test_dgemm_equals_f2py(self, pointer_calls, a_layout, b_layout, n):
        rng = np.random.default_rng(n)
        a = LAYOUTS[a_layout](rng.standard_normal((n, 6)))
        b = LAYOUTS[b_layout](rng.standard_normal((n, 5)))
        c = np.asfortranarray(rng.standard_normal((6, 5)))
        expected = blas.dgemm(-1.0, a, b, beta=1.0, c=c, trans_a=1)
        assert dgemm(a, b, c) is c
        assert np.array_equal(c, expected)
        assert pointer_calls == ["dgemm"]

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", INVERSE_ORDERS)
    def test_inverse_equals_f2py(self, pointer_calls, layout, n):
        # dtrtri on each leaf, f2py's dtrmm joins, then dlauum: the
        # copying reference runs every routine through f2py
        L = factor(n)
        expected = np.asfortranarray(L.copy())
        _invert_lower_reference(expected, 0, n)
        X = inverse_lower(LAYOUTS[layout](L.copy()))
        assert np.array_equal(X, expected)
        assert pointer_calls.count("dtrtri") == leaves(n)
        pointer_calls.clear()
        assert np.array_equal(chol_inverse(LAYOUTS[layout](L.copy())), lapack.dlauum(expected, lower=1)[0])
        assert pointer_calls.count("dlauum") == 1

    @pytest.mark.parametrize("x_layout", LAYOUTS)
    @pytest.mark.parametrize("n", DSYR_ORDERS)
    def test_dsyr_equals_f2py(self, pointer_calls, x_layout, n):
        # a full random a: dsyr must read and write only its lower triangle
        rng = np.random.default_rng(n)
        x = LAYOUTS[x_layout](rng.standard_normal(n))
        a = np.asfortranarray(rng.standard_normal((n, n)))
        before = x.copy()
        expected = blas.dsyr(2.0, x, lower=1, a=a)
        assert dsyr(2.0, x, a) is a
        assert np.array_equal(a, expected)
        assert np.array_equal(x, before)
        assert pointer_calls == ["dsyr"]

    def test_dsyr_on_an_empty_vector(self, capfd):
        # f2py's dsyr refuses an empty x; the pointer updates nothing
        a = np.asfortranarray(np.ones((0, 0)))
        assert dsyr(2.0, np.ones(0), a) is a
        assert a.shape == (0, 0)
        no_illegal_argument(capfd)

    @pytest.mark.parametrize("a_layout", LAYOUTS)
    @pytest.mark.parametrize("columns", [0, 1, 7, 51])
    @pytest.mark.parametrize("n", [1, *ORDERS])
    def test_dgemv_equals_f2py(self, pointer_calls, a_layout, columns, n):
        # gp's posterior means, w' z, on a batch of ``columns`` queries;
        # f2py's dgemv refuses an empty batch, which gives an empty array
        rng = np.random.default_rng([n, columns])
        a = rng.standard_normal((n, columns))
        a = LAYOUTS[a_layout](a) if min(n, columns) > 1 else a  # a row or a column has one layout
        x = rng.standard_normal(n)
        before = (a.copy(), x.copy())
        y = dgemv(a, x)
        expected = blas.dgemv(1.0, a, x, trans=1) if columns else np.empty(0)
        assert np.array_equal(y, expected) and y.shape == (columns,)
        assert np.array_equal(a, before[0]) and np.array_equal(x, before[1])
        assert pointer_calls == ["dgemv"]

    def test_dgemv_on_a_strided_vector_and_no_rows(self, capfd):
        rng = np.random.default_rng(3)
        a, x = rng.standard_normal((9, 4)), rng.standard_normal(18)[::2]
        assert np.array_equal(dgemv(a, x), blas.dgemv(1.0, a, x, trans=1))
        assert np.array_equal(dgemv(np.ones((0, 3)), np.ones(0)), np.zeros(3))
        no_illegal_argument(capfd)

    @pytest.mark.parametrize("out", ["C", "strided", "read-only", "float32"])
    def test_blas_output_must_be_updatable_in_place(self, pointer_calls, out):
        # an output BLAS cannot overwrite is refused, not copied
        rng = np.random.default_rng(5)
        n = 6
        a, w = factor(n), rng.standard_normal((n, n))
        c = rng.standard_normal((n, n))
        if out == "C":
            c = np.ascontiguousarray(c)
        elif out == "strided":
            c = strided(c)
        elif out == "read-only":
            c = np.asfortranarray(c)
            c.flags.writeable = False
        else:
            c = np.asfortranarray(c, dtype=np.float32)
        before = c.copy()
        calls = (
            lambda: dtrmm(a, c),
            lambda: dsyrk(w, c),
            lambda: dgemm(w, a, c),
            lambda: dgemm(w, a, [[0.0]]),
            lambda: dsyr(1.0, w[0], c),
        )
        for call in calls:
            with pytest.raises(ValueError, match="writable, Fortran-ordered float64"):
                call()
        assert np.array_equal(c, before)
        assert pointer_calls == []

    def test_mismatched_shapes_raise(self, pointer_calls):
        L, F = factor(5), np.asfortranarray
        for solve in (cho_solve, solve_lower):
            for lhs, rhs in ((L[:4], np.ones(4)), (L, np.ones(4)), (L, np.ones((5, 2, 1))), (L[0], np.ones(5))):
                with pytest.raises(DimensionError, match="cannot solve"):
                    solve(lhs, rhs)
        for call in (
            lambda: dtrmm(L, F(np.ones((4, 3)))),
            lambda: dtrmm(L[:, :4], F(np.ones((5, 3)))),
            lambda: dsyrk(np.ones((3, 5)), F(np.ones((4, 4)))),
            lambda: dgemm(np.ones((3, 5)), np.ones((4, 2)), F(np.ones((5, 2)))),
            lambda: dgemm(np.ones((3, 5)), np.ones((3, 2)), F(np.ones((5, 3)))),
            lambda: dsyr(1.0, np.ones(4), F(np.ones((5, 5)))),
            lambda: dsyr(1.0, np.ones((5, 1)), F(np.ones((5, 5)))),
            lambda: dsyr(1.0, np.ones(5), F(np.ones((5, 4)))),
            lambda: dgemv(np.ones((5, 3)), np.ones(4)),
            lambda: dgemv(np.ones(5), np.ones(5)),
            lambda: cholesky(np.ones((3, 2))),
            lambda: cholesky(np.ones(3)),
        ):
            with pytest.raises(DimensionError, match="cannot"):
                call()
        assert pointer_calls == []


# (n_b, n_i): GRBCM's base and augmented partition sizes, from one point
# to serve's 250, square and not
GRBCM_SHAPES = [
    (1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (1, 250),
    (127, 128), (128, 127), (128, 128), (249, 250), (250, 249), (250, 1),
]

BLAS_UPDATES = ["dtrmm", "dsyrk", "dgemm"]


def no_illegal_argument(capfd):
    """OpenBLAS reports a call with an illegal argument on the console and
    returns without computing; nothing may have been reported."""
    out = capfd.readouterr()
    assert "illegal value" not in out.out + out.err


class TestBlasShapes:
    """dtrmm, dsyrk and dgemm on the operand shapes GRBCM makes: L_b^-1
    (n_b x n_b), K_bi and W_i (n_b x n_i), C_i (n_i x n_i) and [k | y]
    with one column more than the queries. Each call passes its own
    dimensions and leading dimensions, gives f2py's bits in place, and
    leaves the operands it reads as they were."""

    @pytest.mark.parametrize("n_b, n_i", GRBCM_SHAPES)
    def test_dtrmm_equals_f2py(self, n_b, n_i):
        rng = np.random.default_rng([n_b, n_i])
        a = rng.standard_normal((n_b, n_b))
        b = np.asfortranarray(rng.standard_normal((n_b, n_i)))
        before = a.copy()
        expected = blas.dtrmm(1.0, a, b, lower=1)
        assert dtrmm(a, b) is b
        assert np.array_equal(b, expected)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("n_b, n_i", GRBCM_SHAPES)
    def test_dsyrk_equals_f2py(self, n_b, n_i):
        rng = np.random.default_rng([n_b, n_i])
        a = rng.standard_normal((n_b, n_i))
        c = np.asfortranarray(rng.standard_normal((n_i, n_i)))
        before = a.copy()
        expected = blas.dsyrk(-1.0, a, beta=1.0, c=c, trans=1, lower=1)
        assert dsyrk(a, c) is c
        assert np.array_equal(c, expected)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("columns", [1, 2, 51])
    @pytest.mark.parametrize("n_b, n_i", GRBCM_SHAPES)
    def test_dgemm_equals_f2py(self, n_b, n_i, columns):
        rng = np.random.default_rng([n_b, n_i, columns])
        a = rng.standard_normal((n_b, n_i))
        b = rng.standard_normal((n_b, columns))
        c = np.asfortranarray(rng.standard_normal((n_i, columns)))
        before = (a.copy(), b.copy())
        expected = blas.dgemm(-1.0, a, b, beta=1.0, c=c, trans_a=1)
        assert dgemm(a, b, c) is c
        assert np.array_equal(c, expected)
        assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])

    # f2py itself reports an illegal leading dimension on some of these
    # (dsyrk with no rows to a), so the results are checked against the
    # arithmetic: an empty product changes nothing

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (3, 0)])
    def test_dtrmm_on_empty_operands(self, capfd, m, n):
        b = np.asfortranarray(np.ones((m, n)))
        assert dtrmm(np.ones((m, m)), b) is b
        assert b.shape == (m, n)
        no_illegal_argument(capfd)

    @pytest.mark.parametrize("k, n", [(0, 0), (0, 3), (4, 0)])
    def test_dsyrk_on_empty_operands(self, capfd, k, n):
        c = np.asfortranarray(np.arange(n * n, dtype=float).reshape(n, n))
        before = c.copy()
        assert dsyrk(np.ones((k, n)), c) is c
        assert np.array_equal(c, before)
        no_illegal_argument(capfd)

    @pytest.mark.parametrize("k, m, n", [(0, 3, 2), (4, 0, 2), (4, 3, 0)])
    def test_dgemm_on_empty_operands(self, capfd, k, m, n):
        c = np.asfortranarray(np.arange(m * n, dtype=float).reshape(m, n))
        before = c.copy()
        assert dgemm(np.ones((k, m)), np.ones((k, n)), c) is c
        assert np.array_equal(c, before)
        no_illegal_argument(capfd)

    @pytest.mark.parametrize("shape", [(0,), (0, 0), (0, 3), (0, 128)], ids=["0", "0x0", "0x3", "0x128"])
    def test_cho_solve_on_an_empty_factor(self, capfd, shape):
        # the same empty solution as solve_lower
        L, b = np.ones((0, 0)), np.ones(shape)
        x = cho_solve(L, b)
        assert x.shape == shape
        assert np.array_equal(x, solve_lower(L, b))
        no_illegal_argument(capfd)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    @pytest.mark.parametrize("routine", BLAS_UPDATES)
    def test_read_operands_converted_as_f2py_converts(self, routine, dtype):
        rng = np.random.default_rng(11)
        a = (10 * rng.standard_normal((6, 6))).astype(dtype)
        b = (10 * rng.standard_normal((6, 4))).astype(dtype)
        c = np.asfortranarray(rng.standard_normal((6, 6 if routine == "dsyrk" else 4)))
        if routine == "dtrmm":
            expected, got = blas.dtrmm(1.0, a, c, lower=1), dtrmm(a, c)
        elif routine == "dsyrk":
            expected, got = blas.dsyrk(-1.0, a, beta=1.0, c=c, trans=1, lower=1), dsyrk(a, c)
        else:
            expected, got = blas.dgemm(-1.0, a, b, beta=1.0, c=c, trans_a=1), dgemm(a, b, c)
        assert got is c
        assert np.array_equal(c, expected)

    @pytest.mark.parametrize("routine", BLAS_UPDATES)
    def test_output_column_block_is_the_only_memory_written(self, routine):
        # a run of whole columns of a Fortran-ordered array is itself
        # Fortran-ordered, so BLAS may update it where it lies
        n = 7
        rng = np.random.default_rng(12)
        a, w = factor(n), rng.standard_normal((5, n))
        big = np.asfortranarray(rng.standard_normal((n, 3 * n)))
        before = big.copy()
        block = big[:, n : 2 * n]
        expected = {
            "dtrmm": lambda: blas.dtrmm(1.0, a, block, lower=1),
            "dsyrk": lambda: blas.dsyrk(-1.0, w, beta=1.0, c=block, trans=1, lower=1),
            "dgemm": lambda: blas.dgemm(-1.0, w, w, beta=1.0, c=block, trans_a=1),
        }[routine]()
        call = {"dtrmm": lambda: dtrmm(a, block), "dsyrk": lambda: dsyrk(w, block), "dgemm": lambda: dgemm(w, w, block)}
        assert call[routine]() is block
        assert np.array_equal(block, expected)
        assert np.array_equal(big[:, :n], before[:, :n]) and np.array_equal(big[:, 2 * n :], before[:, 2 * n :])


class TestPackedStorage:
    """pack_lower and unpack_lower copy a lower triangle into packed
    storage (column by column) and back, exactly."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", [0, 1, 5, 127, 128, 434])
    def test_round_trip(self, pointer_calls, n, layout):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))  # the strict upper triangle is not read
        before = A.copy()
        ap = pack_lower(LAYOUTS[layout](A) if n > 1 else A)  # orders 0 and 1 have one layout
        assert np.array_equal(ap, A.T[np.triu_indices(n)])  # column-major lower triangle
        assert ap.nbytes == 8 * n * (n + 1) // 2
        L = unpack_lower(ap, n)
        assert np.array_equal(L, np.tril(A)) and L.flags.f_contiguous
        assert np.array_equal(A, before)
        assert pointer_calls == ["dtrttp", "dtpttr"]

    def test_shapes_must_match(self):
        with pytest.raises(DimensionError):
            pack_lower(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            pack_lower(np.ones(3))
        with pytest.raises(DimensionError):
            unpack_lower(np.ones(5), 3)


class TestOneRoute:
    """No call of the package reaches scipy's f2py wrappers, at any order:
    expert prediction, GRBCM, NPAE, EMGGM with its graphical lasso, the
    SPD inverse and a fit evaluation."""

    @pytest.mark.parametrize("sizes", [[106, 150], [12] * 20], ids=["M=2", "M=20"])
    def test_predict_and_aggregators(self, f2py_refused, sizes):
        rng = np.random.default_rng(len(sizes))
        hp = Hyperparameters([0.2], 1.0, 0.05)
        subsets = [Dataset(rng.uniform(0, 1, (k, 1)), rng.standard_normal(k)) for k in sizes]
        parts = Partitioning(np.repeat(np.arange(len(sizes)), sizes), subsets, "random")
        X_star = rng.uniform(0, 1, (7, 1))
        experts = [train_expert(data, hp) for data in subsets]
        for expert in experts:
            assert np.isfinite(predict(expert, X_star, hp)[0]).all()
        # a base of each size on M=2
        bases = sorted({grbcm_base_index(len(sizes), seed): seed for seed in range(20)}.items())[:2]
        assert len(bases) == 2
        for _, seed in bases:
            assert np.isfinite(grbcm_aggregate(parts, hp, X_star, seed)[0]).all()
        assert np.isfinite(npae_aggregate(experts, hp, X_star)).all()
        means, _ = emggm_aggregate(collect_predictions(experts, rng.uniform(0, 1, (30, 1)), hp))
        assert np.isfinite(means).all()

    @pytest.mark.parametrize("n", [2, 6, 41, 128, 129, 250, 434])
    def test_chol_inverse(self, f2py_refused, n):
        L = cholesky(random_spd(np.random.default_rng(n), n))
        assert np.isfinite(chol_inverse(L)).all()

    @pytest.mark.parametrize("n", [20, 128, 250])
    def test_fit_evaluation(self, f2py_refused, n):
        # the fit's worker threads run every LAPACK and BLAS call of an
        # evaluation with the interpreter lock released
        rng = np.random.default_rng(n)
        X = rng.uniform(0, 1, (n, 1))
        data = Dataset(X, np.sin(6 * X[:, 0]) + 0.1 * rng.standard_normal(n))
        value, grad = _lml_and_grad(data, Hyperparameters([0.2], 1.0, 0.05))
        assert np.isfinite(value) and np.isfinite(grad).all()


def test_linalg_imports_no_f2py_wrapper():
    """scipy's f2py LAPACK and BLAS wrappers serve only as the tests'
    bitwise oracle; _linalg reaches both libraries through the pointers."""
    tree = ast.parse((SRC / "_linalg.py").read_text(encoding="utf-8"))
    wrappers = {"scipy.linalg.lapack", "scipy.linalg.blas"}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name in wrappers]
        elif isinstance(node, ast.ImportFrom):
            if node.module in wrappers or (
                node.module == "scipy.linalg" and {a.name for a in node.names} & {"lapack", "blas"}
            ):
                imported.append(node.module)
    assert not imported


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
