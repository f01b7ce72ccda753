import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import metricgap
from metricgap import linalg
from metricgap.errors import AsymmetricInput, DimensionMismatch, SingularSystem
from metricgap.linalg import (
    DEFAULT_PIVOT_TOL,
    SymMatrix,
    eigenvalues_sym,
    factor,
    invert,
    solve,
)
from metricgap.metric import gen_cycle, gen_discrete, path_metric

from oracles import det_cofactor, random_point_metric


def random_sym(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return SymMatrix(a + a.T)


def zero_diagonal_sym(n, seed):
    a = random_sym(n, seed).a.copy()
    np.fill_diagonal(a, 0.0)
    return SymMatrix(a)


def rebuild(packed, pivots):
    """L D L^T from dsytrf's lower output: L = P(1) L(1) P(2) L(2) ..., where
    P(k) swaps row |pivots[k]| with the last row of block k and L(k) holds
    the multipliers below the block."""
    n = packed.shape[0]
    lower, d = np.eye(n), np.zeros((n, n))
    k = 0
    while k < n:
        e = k + (2 if pivots[k] < 0 else 1)
        d[k:e, k:e] = np.tril(packed[k:e, k:e]) + np.tril(packed[k:e, k:e], -1).T
        step = np.eye(n)
        step[e:, k:e] = packed[e:, k:e]
        perm = np.arange(n)
        perm[[e - 1, abs(pivots[k]) - 1]] = perm[[abs(pivots[k]) - 1, e - 1]]
        lower = lower[:, perm] @ step
        k = e
    return lower @ d @ lower.T


def ldl_reference(a):
    """Minimum pivot ratio of a and its singular flag, from the 1x1 and 2x2
    blocks of the D that scipy.linalg.ldl builds."""
    d = scipy.linalg.ldl(a)[1]
    mags, i = [], 0
    while i < d.shape[0]:
        if i + 1 < d.shape[0] and d[i + 1, i] != 0.0:
            mags.extend(np.abs(np.linalg.eigvalsh(d[i : i + 2, i : i + 2])).tolist())
            i += 2
        else:
            mags.append(abs(float(d[i, i])))
            i += 1
    ratio = min(mags) / float(np.max(np.abs(a)))
    return ratio, ratio < DEFAULT_PIVOT_TOL


def cycle_matrix(n):
    return path_metric(gen_cycle(n)).d


# Random symmetric matrices take mostly 1x1 pivots.  Zero-diagonal ones force
# 2x2 blocks, and some have two adjacent blocks with the same pivot entry
# (zerodiag4-2, zerodiag14-3 and zerodiag130 among them).  Even cycles are
# singular, and n = 65 and 130 run dsytrf's blocked path.
PIVOT_CASES = (
    [(f"random{n}-{s}", lambda n=n, s=s: random_sym(n, s)) for n in (2, 7, 20) for s in range(3)]
    + [(f"zerodiag{n}-{s}", lambda n=n, s=s: zero_diagonal_sym(n, s))
       for n in (4, 14, 20) for s in range(8)]
    + [(f"cloud{n}", lambda n=n: random_point_metric(n, n).d) for n in (10, 30)]
    + [("discrete16", lambda: gen_discrete(16).d)]
    + [(f"cycle{n}", lambda n=n: cycle_matrix(n)) for n in (6, 7, 10, 20, 21)]
    + [(f"{name}{n}", lambda n=n, make=make: make(n))
       for n in (65, 130)
       for name, make in [
           ("random", lambda n: random_sym(n, n)),
           ("zerodiag", lambda n: zero_diagonal_sym(n, n)),
           ("cloud", lambda n: random_point_metric(n, n).d),
           ("cycle", cycle_matrix),
       ]]
)


class TestSymMatrix:
    def test_accepts_exact_symmetry(self):
        m = SymMatrix([[0.0, 1.0], [1.0, 0.0]])
        assert m.n == 2
        assert m[0, 1] == 1.0

    def test_averages_tiny_asymmetry(self):
        m = SymMatrix([[0.0, 1.0 + 1e-15], [1.0, 0.0]])
        assert m[0, 1] == m[1, 0]

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(AsymmetricInput):
            SymMatrix([[0.0, 1.0], [2.0, 0.0]])

    @pytest.mark.filterwarnings("error")
    def test_huge_entries_average_without_overflow(self):
        big = 1.5e308
        m = SymMatrix([[0.0, big], [np.nextafter(big, np.inf), 0.0]])
        assert m[0, 1] == m[1, 0]
        assert big <= m[0, 1] <= np.nextafter(big, np.inf)
        assert SymMatrix([[0.0, big], [big, 0.0]])[0, 1] == big

    def test_exact_symmetry_kept_below_normal_range(self):
        # Halving each entry first would round a subnormal one.
        tiny = 5e-324 * 3
        assert SymMatrix([[0.0, tiny], [tiny, 0.0]])[0, 1] == tiny

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix([[1.0, 2.0, 3.0]])

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.zeros((0, 0)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SymMatrix([[np.nan]])

    def test_backing_array_read_only(self):
        m = SymMatrix(np.eye(3))
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0

    def test_array_protocol(self):
        m = SymMatrix(np.eye(2))
        assert np.array_equal(np.asarray(m), np.eye(2))


class TestFactor:
    def test_identity(self):
        f = factor(SymMatrix(np.eye(3)))
        assert not f.singular_flag
        assert f.min_pivot_ratio == 1.0

    def test_all_ones_is_singular(self):
        f = factor(SymMatrix(np.ones((2, 2))))
        assert f.singular_flag

    def test_zero_matrix_is_singular(self):
        f = factor(SymMatrix(np.zeros((2, 2))))
        assert f.singular_flag
        assert f.min_pivot_ratio == 0.0

    def test_three_point_uniform_space_nonsingular(self):
        # det of the 3x3 all-ones-off-diagonal matrix is 2, by cofactor
        # expansion with the reference oracle.
        a = np.ones((3, 3)) - np.eye(3)
        assert det_cofactor(a) == pytest.approx(2.0, abs=1e-12)
        assert not factor(SymMatrix(a)).singular_flag

    def test_zero_diagonal_two_by_two_pivot(self):
        # [[0, 1], [1, 0]] forces a 2x2 pivot block; both magnitudes are 1.
        f = factor(SymMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert not f.singular_flag
        assert f.min_pivot_ratio == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_reconstructs_input(self, seed):
        m = random_sym(7, seed)
        f = factor(m)
        rebuilt = rebuild(f.packed, f.pivots)
        assert np.max(np.abs(rebuilt - m.a)) <= 1e-12 * max(1.0, m.max_abs)

    @pytest.mark.parametrize("make", [c[1] for c in PIVOT_CASES], ids=[c[0] for c in PIVOT_CASES])
    def test_pivots_match_ldl_reference(self, make):
        m = SymMatrix(make())
        f = factor(m)
        ratio, singular = ldl_reference(m.a)
        assert f.min_pivot_ratio == ratio
        assert f.singular_flag == singular
        assert np.max(np.abs(rebuild(f.packed, f.pivots) - m.a)) <= 1e-12 * m.n * m.max_abs

    @pytest.mark.parametrize("n", [6, 10, 20, 130])
    def test_even_cycle_is_singular(self, n):
        assert factor(SymMatrix(cycle_matrix(n))).singular_flag


class TestSolveInvert:
    @pytest.mark.parametrize(
        "n, seed", [(8, s) for s in range(6)] + [(70, 6)], ids=[*map(str, range(6)), "n70"]
    )
    def test_solve_recovers_rhs(self, n, seed):
        m = random_sym(n, seed)
        f = factor(m)
        rng = np.random.default_rng(1000 + seed)
        b = rng.standard_normal(n)
        x = solve(f, b)
        assert np.max(np.abs(m.a @ x - b)) <= 1e-9 * max(1.0, np.max(np.abs(b)))

    def test_solve_matrix_rhs(self):
        m = random_sym(5, 42)
        x = solve(factor(m), np.eye(5))
        assert np.max(np.abs(m.a @ x - np.eye(5))) <= 1e-10

    def test_solve_singular_raises(self):
        f = factor(SymMatrix(np.ones((3, 3))))
        with pytest.raises(SingularSystem):
            solve(f, np.ones(3))

    def test_solve_dimension_mismatch(self):
        f = factor(SymMatrix(np.eye(3)))
        with pytest.raises(DimensionMismatch):
            solve(f, np.ones(4))

    def test_invert_uniform_space_closed_form(self):
        # Inverse of the n-point all-ones-off-diagonal matrix is
        # (1/(n-1)) ones - identity.
        n = 4
        a = SymMatrix(np.ones((n, n)) - np.eye(n))
        expected = np.ones((n, n)) / (n - 1) - np.eye(n)
        assert np.max(np.abs(invert(factor(a)).a - expected)) <= 1e-12

    @pytest.mark.parametrize(
        "n, seed", [(6, s) for s in range(4)] + [(70, 4)], ids=[*map(str, range(4)), "n70"]
    )
    def test_invert_matches_numpy(self, n, seed):
        m = random_sym(n, seed)
        got = invert(factor(m)).a
        assert np.max(np.abs(got - np.linalg.inv(m.a))) <= 1e-9 * np.max(np.abs(got))


class TestEigQuad:
    def test_uniform_space_spectrum(self):
        # Frozen after checking the characteristic polynomial with the
        # cofactor determinant: -1 (three times) and 3.
        a = SymMatrix(np.ones((4, 4)) - np.eye(4))
        got = eigenvalues_sym(a)
        assert np.allclose(got, [-1.0, -1.0, -1.0, 3.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_ascending_order(self, seed):
        vals = eigenvalues_sym(random_sym(9, seed))
        assert np.all(np.diff(vals) >= 0)


class TestLapackWrappers:
    NAMES = ("dsytrf", "dsytrf_lwork", "dsytrs", "dsytri", "dsyevr")

    def test_same_objects_as_scipy(self):
        for name in self.NAMES:
            assert getattr(linalg, name) is getattr(scipy.linalg.lapack, name)

    def test_cli_import_leaves_scipy_linalg_out(self):
        # In a fresh interpreter, where the package loads the wrappers before
        # anything imports scipy.linalg, which then reuses them.
        code = (
            "import sys\n"
            "import metricgap.cli\n"
            "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported'\n"
            "import scipy.linalg.lapack\n"
            "from metricgap import linalg\n"
            f"for name in {self.NAMES!r}:\n"
            "    assert getattr(linalg, name) is getattr(scipy.linalg.lapack, name), name\n"
        )
        src = str(Path(metricgap.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
