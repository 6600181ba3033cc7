"""The package's one Cholesky/SPD module and the rule that nothing else factors."""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dpotri, dtrtri

from gpagg import NumericalError
from gpagg._linalg import (
    INVERSE_BLOCK,
    cho_solve,
    chol_inverse,
    chol_jitter,
    cholesky,
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


def _linalg_uses(tree: ast.AST) -> list[str]:
    """Dense linear algebra a module reaches without going through _linalg:
    numpy.linalg in any form, and scipy.linalg other than its raw BLAS
    wrappers. Its LAPACK wrappers belong to _linalg alone."""
    forbidden = ("numpy.linalg", "scipy.linalg", "scipy.linalg.lapack")
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses += [a.name for a in node.names if a.name in forbidden]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = {a.name for a in node.names}
            if node.module in forbidden or (
                node.module in ("numpy", "scipy") and "linalg" in names
            ):
                uses.append(f"from {node.module} import {', '.join(sorted(names))}")
        elif isinstance(node, ast.Attribute):
            dotted = ast.unparse(node)
            if dotted in ("np.linalg", "numpy.linalg", "scipy.linalg"):
                uses.append(dotted)
    return uses


def test_only_the_linalg_module_factors_solves_and_inverts():
    """np.linalg, scipy's LAPACK wrappers, cho_solve, cho_factor,
    solve_triangular and scipy.linalg.cholesky appear nowhere in the
    package outside _linalg (its own cho_solve, imported from there, is
    the one allowed)."""
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
    ):
        assert _linalg_uses(ast.parse(snippet)), snippet
    for snippet in (
        "from ._linalg import cho_solve, chol_jitter",
        "from scipy.linalg.blas import dsyr",
    ):
        assert not _linalg_uses(ast.parse(snippet)), snippet
