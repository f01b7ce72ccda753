import numpy as np
import pytest

from metricgap.errors import (
    NotStrict,
    PositiveDirectionMissing,
    ZeroFunctional,
)
from metricgap.linalg import SymMatrix, eigenvalues_sym
from metricgap.metric import (
    gen_cycle,
    gen_discrete,
    gen_random_tree,
    gen_tree,
    path_metric,
    power_matrix,
    validate_metric,
)
from metricgap.negtype import (
    NEGATIVE_TYPE_NON_STRICT,
    NOT_NEGATIVE_TYPE,
    STRICT_NEGATIVE_TYPE,
    build_B,
    classify,
    oscillation,
    project_to_F,
)


def cycle_ntm(n, p=1.0):
    return power_matrix(path_metric(gen_cycle(n)), p)


def claw_ntm_p2():
    # Star with three unit legs, distances squared: positive somewhere on
    # the zero-sum hyperplane, so not of negative type at exponent 2.
    space = path_metric(gen_tree([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]))
    return power_matrix(space, 2.0)


class TestProjectToF:
    def test_shape(self):
        a = SymMatrix(np.ones((4, 4)) - np.eye(4))
        assert project_to_F(a, np.ones(4)).n == 3

    def test_uniform_space_projected_spectrum(self):
        # On the zero-sum hyperplane the all-ones part dies, leaving -I.
        a = SymMatrix(np.ones((4, 4)) - np.eye(4))
        vals = eigenvalues_sym(project_to_F(a, np.ones(4)))
        assert np.allclose(vals, [-1.0, -1.0, -1.0], atol=1e-12)

    def test_respects_functional(self):
        # With u = e1 the projection picks out the lower-right block.
        a = SymMatrix(np.diag([5.0, -1.0, -2.0]))
        vals = eigenvalues_sym(project_to_F(a, np.array([1.0, 0.0, 0.0])))
        assert np.allclose(vals, [-2.0, -1.0], atol=1e-12)

    def test_zero_functional(self):
        with pytest.raises(ZeroFunctional):
            project_to_F(SymMatrix(np.eye(2)), np.zeros(2))


class TestOscillation:
    def test_all_ones_functional_is_half_spread(self):
        assert oscillation([1.0, 0.0, -1.0], np.ones(3)) == 1.0
        assert oscillation([3.0, 3.0], np.ones(2)) == 0.0

    def test_off_support_uses_absolute_value(self):
        assert oscillation([0.0, 0.0, 5.0], [1.0, 1.0, 0.0]) == 5.0

    def test_weighted_functional(self):
        # |u0 x1 - u1 x0| / (|u0| + |u1|) = |2*1 - 1*0| / 3
        assert oscillation([0.0, 1.0], [2.0, 1.0]) == pytest.approx(2.0 / 3.0)

    def test_homogeneous_in_x(self):
        rng = np.random.default_rng(3)
        x, u = rng.standard_normal(6), rng.standard_normal(6)
        assert oscillation(3.0 * x, u) == pytest.approx(3.0 * oscillation(x, u), rel=1e-12)

    def test_zero_functional(self):
        with pytest.raises(ZeroFunctional):
            oscillation([1.0], [0.0])


class TestClassify:
    def test_discrete_is_strict(self):
        rep = classify(power_matrix(gen_discrete(5), 1.0))
        assert rep.verdict == STRICT_NEGATIVE_TYPE
        assert rep.has_positive_direction
        assert not rep.marginal
        # M = (n-1)/n and z = (1/n) ones, from the closed-form inverse.
        assert rep.M == pytest.approx(4.0 / 5.0, rel=1e-12)
        assert np.allclose(rep.z, np.full(5, 0.2), atol=1e-12)

    def test_two_point_space(self):
        # Solved by hand: A = [[0, 1], [1, 0]] is its own inverse, so
        # (A^-1 u | u) = 2, M = 1/2, z = (1/2, 1/2).
        rep = classify(power_matrix(validate_metric([[0, 1], [1, 0]]), 1.0))
        assert rep.verdict == STRICT_NEGATIVE_TYPE
        assert rep.M == pytest.approx(0.5, rel=1e-12)
        assert np.allclose(rep.z, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_odd_cycles_strict(self, n):
        k = (n - 1) // 2
        rep = classify(cycle_ntm(n))
        assert rep.verdict == STRICT_NEGATIVE_TYPE
        assert rep.M == pytest.approx(k * (k + 1) / n, rel=1e-12)
        assert np.allclose(rep.z, np.full(n, 1.0 / n), atol=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_even_cycles_non_strict(self, n):
        rep = classify(cycle_ntm(n))
        assert rep.verdict == NEGATIVE_TYPE_NON_STRICT
        assert rep.M is None

    def test_claw_squared_not_negative_type(self):
        rep = classify(claw_ntm_p2())
        assert rep.verdict == NOT_NEGATIVE_TYPE
        assert rep.projected_spectrum[-1] > 0

    def test_raw_matrix_defaults_to_ones_functional(self):
        rep = classify(SymMatrix(np.ones((3, 3)) - np.eye(3)))
        assert rep.verdict == STRICT_NEGATIVE_TYPE

    def test_raw_negative_definite_refused(self):
        with pytest.raises(PositiveDirectionMissing):
            classify(SymMatrix(-np.eye(3)))

    def test_single_point_refused(self):
        with pytest.raises(PositiveDirectionMissing):
            classify(power_matrix(validate_metric([[0.0]]), 1.0))

    def test_functional_alongside_prepared_matrix_rejected(self):
        with pytest.raises(ValueError):
            classify(power_matrix(gen_discrete(3), 1.0), u=np.ones(3))

    def test_marginal_flag_near_singularity(self):
        # A hair away from the singular even cycle: still non-strict, and
        # flagged as a tolerance-sensitive call.
        d = path_metric(gen_cycle(6)).d.a.copy()
        d[0, 3] = d[3, 0] = 3.0 - 1e-9
        rep = classify(power_matrix(validate_metric(d), 1.0))
        assert rep.verdict == NEGATIVE_TYPE_NON_STRICT
        assert rep.marginal
        assert rep.notes


class TestComputeMZ:
    def test_requires_strict(self):
        with pytest.raises(NotStrict):
            build_B(cycle_ntm(6))

    def test_discrete_values(self):
        rep = build_B(power_matrix(gen_discrete(4), 1.0))
        m_val, z = rep.M, rep.z
        assert m_val == pytest.approx(0.75, rel=1e-12)
        assert np.allclose(z, np.full(4, 0.25), atol=1e-12)

    def test_z_lies_on_unit_level_set(self):
        # (z | u) = M (A^-1 u | u) = 1 by construction.
        for seed in range(4):
            ntm = power_matrix(path_metric(gen_random_tree(7, seed=seed)), 1.0)
            rep = build_B(ntm)
            m_val, z = rep.M, rep.z
            assert float(z @ ntm.u) == pytest.approx(1.0, rel=1e-9)
            assert m_val > 0


class TestBuildB:
    def test_requires_strict(self):
        with pytest.raises(NotStrict):
            build_B(cycle_ntm(4))

    def test_discrete_closed_form(self):
        n = 6
        gm = build_B(power_matrix(gen_discrete(n), 1.0))
        expected = np.eye(n) - np.ones((n, n)) / n
        assert np.max(np.abs(gm.B.a - expected)) <= 1e-12

    def test_kernels(self):
        for seed in range(4):
            ntm = power_matrix(path_metric(gen_random_tree(8, seed=seed)), 1.0)
            gm = build_B(ntm)
            assert np.max(np.abs(gm.B.a @ gm.u)) <= 1e-10 * gm.B.max_abs * ntm.n
            assert np.max(np.abs(gm.C.a @ gm.z)) <= 1e-10 * gm.C.max_abs * ntm.n

    def test_both_positive_semidefinite(self):
        ntm = cycle_ntm(7)
        gm = build_B(ntm)
        for m in (gm.B, gm.C):
            assert eigenvalues_sym(m)[0] >= -1e-10 * m.max_abs

    @pytest.mark.parametrize("make", [
        lambda: power_matrix(gen_discrete(5), 1.0),
        lambda: cycle_ntm(7),
        lambda: power_matrix(path_metric(gen_random_tree(6, seed=11)), 1.0),
    ])
    def test_transfer_identity(self, make):
        # (B A x | A x) = (C x | x) for every x; the two corrections are
        # the same form seen through A.
        ntm = make()
        gm = build_B(ntm)
        rng = np.random.default_rng(99)
        scale = gm.C.max_abs
        for _ in range(20):
            x = rng.standard_normal(ntm.n)
            ax = ntm.A.a @ x
            lhs = float(ax @ gm.B.a @ ax)
            rhs = float(x @ gm.C.a @ x)
            assert abs(lhs - rhs) <= 1e-9 * scale * float(x @ x)
