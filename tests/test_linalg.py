import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import metricgap
from metricgap import linalg, negtype
from metricgap.errors import AsymmetricInput, DimensionMismatch
from metricgap.linalg import SymMatrix
from metricgap.metric import gen_cycle, gen_discrete, path_metric, power_matrix
from metricgap.negtype import classify

from oracles import det_cofactor, random_point_metric


def random_sym(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return SymMatrix(a + a.T)


def zero_diagonal_sym(n, seed):
    a = random_sym(n, seed).a.copy()
    np.fill_diagonal(a, 0.0)
    return SymMatrix(a)


def ldl(a):
    """The pivoted LDL^T of ``a`` as negtype.classify takes it from dsytrf,
    on the lower triangle: the packed factors, the pivots and info, which
    is nonzero at an exactly zero pivot."""
    a = np.asarray(a, dtype=float)
    return linalg.dsytrf(a, lower=1, lwork=int(linalg.dsytrf_lwork(a.shape[0], lower=1)[0]))


def solve(a, b):
    packed, pivots, _ = ldl(a)
    return linalg.dsytrs(packed, pivots, b, lower=1)[0]


def invert(a):
    """A^-1 as classify forms it: dsytri's lower triangle, mirrored."""
    packed, pivots, _ = ldl(a)
    x, info = linalg.dsytri(packed, pivots, lower=1)
    assert info == 0
    x = np.tril(x)
    x += np.tril(x, -1).T
    return x


def unpack(packed, pivots):
    """L and D from dsytrf's lower output, with L D L^T the factored matrix:
    L = P(1) L(1) P(2) L(2) ..., where P(k) swaps row |pivots[k]| with the
    last row of block k and L(k) holds the multipliers below the block."""
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
    return lower, d


def rebuild(packed, pivots):
    lower, d = unpack(packed, pivots)
    return lower @ d @ lower.T


def ldl_reference(a):
    """The block diagonal D, of 1x1 and 2x2 blocks, that scipy.linalg.ldl
    builds."""
    return scipy.linalg.ldl(a)[1]


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

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 70, 2.0 ** -70])
    def test_slack_is_relative_to_scale(self, scale):
        # The same relative asymmetry raises at every scale, and a 1-ulp
        # one averages at every scale.
        with pytest.raises(AsymmetricInput):
            SymMatrix([[0.0, scale], [3.0 * scale, 0.0]])
        m = SymMatrix([[0.0, scale], [np.nextafter(scale, np.inf), 0.0]])
        assert m[0, 1] == m[1, 0]
        assert scale <= m[0, 1] <= np.nextafter(scale, np.inf)

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


# TestFactor and TestSolveInvert call LAPACK as negtype.classify does, on
# more inputs than the strict ones it factors: 2x2 pivot blocks, dsytrf's
# blocked path and singular matrices, whose nonzero info classify raises on.
class TestFactor:
    def test_identity(self):
        packed, pivots, info = ldl(np.eye(3))
        assert info == 0
        assert np.array_equal(rebuild(packed, pivots), np.eye(3))

    def test_all_ones_is_singular(self):
        assert ldl(np.ones((2, 2)))[2] > 0

    def test_zero_matrix_is_singular(self):
        assert ldl(np.zeros((2, 2)))[2] > 0

    def test_three_point_uniform_space_nonsingular(self):
        # det of the 3x3 all-ones-off-diagonal matrix is 2, by cofactor
        # expansion with the reference oracle.
        a = np.ones((3, 3)) - np.eye(3)
        assert det_cofactor(a) == pytest.approx(2.0, abs=1e-12)
        assert ldl(a)[2] == 0

    def test_zero_diagonal_two_by_two_pivot(self):
        # [[0, 1], [1, 0]] forces a 2x2 pivot block, which is the whole of D.
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        packed, pivots, info = ldl(a)
        assert info == 0
        assert list(pivots) == [-2, -2]
        assert np.array_equal(rebuild(packed, pivots), a)

    @pytest.mark.parametrize("seed", range(6))
    def test_reconstructs_input(self, seed):
        m = random_sym(7, seed)
        rebuilt = rebuild(*ldl(m.a)[:2])
        assert np.max(np.abs(rebuilt - m.a)) <= 1e-12 * max(1.0, m.max_abs)

    @pytest.mark.parametrize("make", [c[1] for c in PIVOT_CASES], ids=[c[0] for c in PIVOT_CASES])
    def test_pivots_match_ldl_reference(self, make):
        m = SymMatrix(make())
        packed, pivots, _ = ldl(m.a)
        assert np.array_equal(unpack(packed, pivots)[1], ldl_reference(m.a))
        assert np.max(np.abs(rebuild(packed, pivots) - m.a)) <= 1e-12 * m.n * m.max_abs

    @pytest.mark.parametrize("n", [6, 10, 20, 130])
    def test_even_cycle_is_singular(self, n):
        # The singularity shows in D to rounding, as an eigenvalue within
        # n eps max|A| of zero.  dsytrf flags only an exactly zero pivot;
        # classification reads near-singularity from the projected spectrum.
        m = SymMatrix(cycle_matrix(n))
        d = unpack(*ldl(m.a)[:2])[1]
        assert np.min(np.abs(np.linalg.eigvalsh(d))) <= n * np.finfo(float).eps * m.max_abs


class TestSolveInvert:
    @pytest.mark.parametrize(
        "n, seed", [(8, s) for s in range(6)] + [(70, 6)], ids=[*map(str, range(6)), "n70"]
    )
    def test_solve_recovers_rhs(self, n, seed):
        m = random_sym(n, seed)
        rng = np.random.default_rng(1000 + seed)
        b = rng.standard_normal(n)
        x = solve(m.a, b)
        assert np.max(np.abs(m.a @ x - b)) <= 1e-9 * max(1.0, np.max(np.abs(b)))

    def test_solve_matrix_rhs(self):
        m = random_sym(5, 42)
        x = solve(m.a, np.eye(5))
        assert np.max(np.abs(m.a @ x - np.eye(5))) <= 1e-10

    def test_solve_singular_raises(self, monkeypatch):
        # A strict verdict makes A nonsingular, so a zero pivot reported by
        # dsytrf or dsytri can only be a numerical failure: classify raises
        # instead of solving for A^-1 u, and builds no B.
        for routine in ("dsytrf", "dsytri"):
            real = getattr(negtype, routine)
            with monkeypatch.context() as patch:
                patch.setattr(negtype, routine,
                              lambda *args, real=real, **kwargs: (*real(*args, **kwargs)[:-1], 1))
                patch.setattr(negtype, "dsytrs", lambda *args, **kwargs: pytest.fail("solved"))
                with pytest.raises(ArithmeticError, match="zero pivot in row 1"):
                    classify(power_matrix(path_metric(gen_cycle(7)), 1.0))

    def test_invert_uniform_space_closed_form(self):
        # Inverse of the n-point all-ones-off-diagonal matrix is
        # (1/(n-1)) ones - identity.
        n = 4
        a = SymMatrix(np.ones((n, n)) - np.eye(n))
        expected = np.ones((n, n)) / (n - 1) - np.eye(n)
        assert np.max(np.abs(invert(a.a) - expected)) <= 1e-12

    @pytest.mark.parametrize(
        "n, seed", [(6, s) for s in range(4)] + [(70, 4)], ids=[*map(str, range(4)), "n70"]
    )
    def test_invert_matches_numpy(self, n, seed):
        m = random_sym(n, seed)
        got = invert(m.a)
        assert np.max(np.abs(got - np.linalg.inv(m.a))) <= 1e-9 * np.max(np.abs(got))


class TestEigQuad:
    def test_uniform_space_spectrum(self):
        # A = J - I has the eigenvalue 3 on the ones vector and -1 on the
        # hyperplane F orthogonal to it, where classify compresses it.
        got = classify(power_matrix(gen_discrete(4), 1.0)).projected_spectrum
        assert np.allclose(got, [-1.0, -1.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_ascending_order(self, seed):
        # classify reads the verdict from the last entry.
        vals = classify(random_sym(9, seed)).projected_spectrum
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
