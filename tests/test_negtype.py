import math
import sys
import time

import numpy as np
import pytest

from metricgap.errors import InvalidSize, NotStrict, PositiveDirectionMissing
from metricgap.linalg import SymMatrix
from metricgap.metric import (
    WeightedGraph,
    gen_cycle,
    gen_discrete,
    gen_path,
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
    _margin,
    automorphisms,
    build_B,
    classify,
    oscillation,
    project_to_F,
)


def cycle_ntm(n, p=1.0):
    return power_matrix(path_metric(gen_cycle(n)), p)


def cloud(n, seed):
    # Distances of n standard normal points in R^3.
    pts = np.random.default_rng(seed).standard_normal((n, 3))
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)


def claw_ntm_p2():
    # Star with three unit legs, distances squared: positive somewhere on
    # the zero-sum hyperplane, so not of negative type at exponent 2.
    space = path_metric(gen_tree([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]))
    return power_matrix(space, 2.0)


class TestProjectToF:
    def test_shape(self):
        a = SymMatrix(np.ones((4, 4)) - np.eye(4))
        assert project_to_F(a).n == 3

    def test_uniform_space_projected_spectrum(self):
        # On the zero-sum hyperplane the all-ones part dies, leaving -I.
        a = SymMatrix(np.ones((4, 4)) - np.eye(4))
        vals = np.linalg.eigvalsh(project_to_F(a).a)
        assert np.allclose(vals, [-1.0, -1.0, -1.0], atol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side, n", [(1e308, 6), (1.5e308, 3), (1.79e308, 3)])
    def test_overflow_raises_invalid_size(self, side, n):
        # The rank-two update passes the largest float.  SymMatrix refused
        # the result with a ValueError, after numpy warned of the overflow.
        with pytest.raises(InvalidSize, match="compression to F"):
            project_to_F(SymMatrix(side * (1.0 - np.eye(n))))

    @pytest.mark.parametrize("first", [-1.3, 0.0, 0.7])
    def test_rank_two_update_matches_dense_reflector(self, first):
        # The reference forms q^T A q with the dense reflector, as the
        # projection once did, on three matrices that differ in their
        # leading entry.
        rng = np.random.default_rng(5)
        n = 9
        x = rng.standard_normal((n, n))
        x[0, 0] = first
        a = SymMatrix(x + x.T)
        got = project_to_F(a).a
        assert np.array_equal(got, got.T)

        u = np.ones(n)
        v = u / np.linalg.norm(u)
        v[0] += 1.0
        v /= np.linalg.norm(v)
        q = (np.eye(n) - 2.0 * np.outer(v, v))[:, 1:]
        assert np.max(np.abs(q.T @ u)) <= 1e-14 * np.linalg.norm(u)
        ref = q.T @ a.a @ q
        tol = 1e-13 * a.max_abs
        assert np.max(np.abs(got - ref)) <= tol
        ref_spectrum = np.linalg.eigvalsh(0.5 * (ref + ref.T))
        assert np.max(np.abs(np.linalg.eigvalsh(got) - ref_spectrum)) <= tol


class TestOscillation:
    def test_all_ones_functional_is_half_spread(self):
        assert oscillation([1.0, 0.0, -1.0]) == 1.0
        assert oscillation([3.0, 3.0]) == 0.0

    def test_homogeneous_in_x(self):
        x = np.random.default_rng(3).standard_normal(6)
        assert oscillation(3.0 * x) == pytest.approx(3.0 * oscillation(x), rel=1e-12)


class TestMargin:
    # Every margin of a report is a finite float, so a machine report stays
    # JSON whatever the threshold.
    @pytest.mark.parametrize("threshold", [0.0, 1e-320, 5e-324])
    def test_zero_or_subnormal_threshold(self, threshold):
        # The threshold is raised to the smallest positive float, never
        # divided by as zero.
        assert _margin(-2.5e-320, threshold) == -2.5e-320 / max(threshold, 5e-324)
        assert _margin(0.0, threshold) == 0.0

    @pytest.mark.parametrize("quantity, threshold", [(1.0, 1e-310), (1e300, 1e-10), (1.0, 0.0)])
    def test_quotient_past_the_largest_float_saturates(self, quantity, threshold):
        assert _margin(quantity, threshold) == sys.float_info.max
        assert _margin(-quantity, threshold) == -sys.float_info.max

    @pytest.mark.parametrize("quantity, threshold", [(-3.0, 1.5), (2.5e-10, 1e-9),
                                                      (1e300, 1e10), (-7e-300, 1e-300)])
    def test_ordinary_quotient_unchanged(self, quantity, threshold):
        assert _margin(quantity, threshold) == quantity / threshold


class TestClassify:
    def test_discrete_is_strict(self):
        rep = classify(power_matrix(gen_discrete(5), 1.0))
        assert rep.verdict == STRICT_NEGATIVE_TYPE
        # The zero test is decided by at least a factor 10: the projected
        # eigenvalue lies 10 tolerances below zero.
        m = rep.margins
        assert set(m) == {"eig", "B_u"}
        assert m["eig"] <= -10.0
        assert m["B_u"] <= 0.1
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

    @pytest.mark.parametrize("side, refused", [(1e308, True), (1.5e307, True), (1e200, False)])
    def test_B_below_normal_range_refused(self, side, refused):
        # B of a triangle of side L is about 1 / L: at L = 1e308 its entries
        # are subnormal and its beta would come out 2.0e-308, not 2.67e-308.
        d = np.full((3, 3), side)
        np.fill_diagonal(d, 0.0)
        ntm = power_matrix(validate_metric(d), 1.0)
        if refused:
            with pytest.raises(InvalidSize):
                classify(ntm)
        else:
            assert classify(ntm).verdict == STRICT_NEGATIVE_TYPE

    def test_single_point_refused(self):
        with pytest.raises(PositiveDirectionMissing):
            classify(power_matrix(validate_metric([[0.0]]), 1.0))

    def test_eig_margin_near_singularity(self):
        # A hair away from the singular even cycle: still non-strict, and
        # the projected eigenvalue is within 10 tolerances of zero.
        d = path_metric(gen_cycle(6)).d.a.copy()
        d[0, 3] = d[3, 0] = 3.0 - 1e-9
        rep = classify(power_matrix(validate_metric(d), 1.0))
        assert rep.verdict == NEGATIVE_TYPE_NON_STRICT
        assert abs(rep.margins["eig"]) <= 10.0

    @pytest.mark.parametrize("seed", range(3))
    def test_large_random_tree_strict(self, seed):
        # Every tree metric has strict 1-negative type, although (A^-1 u | u)
        # of a tree, 2 / (total weight), falls as 1/n.  classify takes about
        # 0.05 s here on a 2-core host; the bound leaves room for a loaded one.
        ntm = power_matrix(path_metric(gen_random_tree(500, seed=seed)), 1.0)
        start = time.perf_counter()
        rep = classify(ntm)
        assert time.perf_counter() - start < 5.0
        assert rep.verdict == STRICT_NEGATIVE_TYPE
        assert rep.margins["B_u"] <= 1.0

    def test_large_even_cycle_non_strict(self):
        rep = classify(cycle_ntm(500))
        assert rep.verdict == NEGATIVE_TYPE_NON_STRICT
        assert rep.B is None

    @pytest.mark.parametrize("n", [6, 9, 20])
    def test_cloud_just_below_p2_strict(self, n):
        # Distinct points of R^3 have strict p-negative type for p < 2 and
        # are non-strict at p = 2.
        space = validate_metric(cloud(n, 0))
        rep = classify(power_matrix(space, 2.0 - 1e-4))
        assert rep.verdict == STRICT_NEGATIVE_TYPE
        assert rep.margins["B_u"] < 1.0
        assert classify(power_matrix(space, 2.0)).verdict == NEGATIVE_TYPE_NON_STRICT

    @pytest.mark.parametrize("make, bare, verdict", [
        (lambda: power_matrix(path_metric(gen_random_tree(9, seed=3)), 1.0), False,
         STRICT_NEGATIVE_TYPE),
        (lambda: power_matrix(validate_metric(cloud(8, 0)), 1.0), False, STRICT_NEGATIVE_TYPE),
        (lambda: power_matrix(validate_metric(cloud(8, 1)), 2.0), False,
         NEGATIVE_TYPE_NON_STRICT),
        (lambda: power_matrix(validate_metric(cloud(8, 2)), 3.0), False, NOT_NEGATIVE_TYPE),
        (lambda: cycle_ntm(9), False, STRICT_NEGATIVE_TYPE),
        (lambda: cycle_ntm(8), False, NEGATIVE_TYPE_NON_STRICT),
        (lambda: SymMatrix(np.ones((4, 4)) - np.eye(4)), True, STRICT_NEGATIVE_TYPE),
        (lambda: cycle_ntm(6).A, True, NEGATIVE_TYPE_NON_STRICT),
        (lambda: claw_ntm_p2().A, True, NOT_NEGATIVE_TYPE),
    ], ids=["tree", "cloud-p1", "cloud-p2", "cloud-p3", "cycle9", "cycle8", "bare-discrete4",
            "bare-cycle6", "bare-claw-p2"])
    def test_margins_on_their_verdicts_side(self, make, bare, verdict):
        rep = classify(make())
        assert rep.verdict == verdict
        # The eig margin alone decides: above 1 is not of negative type,
        # below -1 strict and in between non-strict.  Only a strict verdict
        # builds B and checks B u.
        eig = rep.margins["eig"]
        assert (eig > 1.0) == (verdict == NOT_NEGATIVE_TYPE)
        assert (eig < -1.0) == (verdict == STRICT_NEGATIVE_TYPE)
        strict = verdict == STRICT_NEGATIVE_TYPE
        keys = {"eig"} | ({"eig_full"} if bare else set()) | ({"B_u"} if strict else set())
        assert set(rep.margins) == keys
        if bare:
            assert rep.margins["eig_full"] > 1.0
        if strict:
            assert rep.margins["B_u"] <= 1.0
        assert (rep.B is not None) == strict


class TestComputeMZ:
    def test_requires_strict(self):
        with pytest.raises(NotStrict):
            build_B(cycle_ntm(6))

    def test_C_requires_strict(self):
        rep = classify(cycle_ntm(6))
        with pytest.raises(NotStrict):
            rep.C

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
            assert float(z @ np.ones(ntm.n)) == pytest.approx(1.0, rel=1e-9)
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
            assert np.max(np.abs(gm.B.a @ np.ones(ntm.n))) <= 1e-10 * gm.B.max_abs * ntm.n
            assert np.max(np.abs(gm.C.a @ gm.z)) <= 1e-10 * gm.C.max_abs * ntm.n

    def test_both_positive_semidefinite(self):
        ntm = cycle_ntm(7)
        gm = build_B(ntm)
        for m in (gm.B, gm.C):
            assert np.linalg.eigvalsh(m.a)[0] >= -1e-10 * m.max_abs

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


def fixes_exactly(group, a):
    """Every row is a permutation fixing A exactly; the rows are distinct
    and sorted, with the identity first."""
    n = a.shape[0]
    assert group.shape[1] == n
    for sigma in group:
        assert sorted(sigma) == list(range(n))
        assert np.array_equal(a[np.ix_(sigma, sigma)], a)
    rows = [tuple(sigma) for sigma in group]
    assert rows == sorted(set(rows))
    return set(rows)


class TestAutomorphisms:
    @pytest.mark.parametrize("n", range(5, 32, 2))
    def test_odd_cycle_dihedral(self, n):
        ntm = cycle_ntm(n)
        group = automorphisms(ntm.A)
        dihedral = {tuple((sign * i + r) % n for i in range(n)) for r in range(n)
                    for sign in (1, -1)}
        assert fixes_exactly(group, ntm.A.a) == dihedral
        assert len(group) == 2 * n
        assert np.array_equal(group[0], np.arange(n))

    @pytest.mark.parametrize("n", [2, 3, 8, 30])
    def test_path_reversal(self, n):
        ntm = power_matrix(path_metric(gen_path(n)), 1.0)
        group = automorphisms(ntm.A)
        assert fixes_exactly(group, ntm.A.a) == {tuple(range(n)),
                                                 tuple(range(n - 1, -1, -1))}

    @pytest.mark.parametrize("n, seed", [(4, 0), (10, 1), (30, 0), (30, 3), (60, 2)])
    def test_generic_clouds_trivial(self, n, seed):
        ntm = power_matrix(validate_metric(cloud(n, seed)), 1.0)
        assert automorphisms(ntm.A).shape == (0, n)

    @pytest.mark.parametrize("n", [40, 100])
    def test_random_trees_trivial(self, n):
        ntm = power_matrix(path_metric(gen_random_tree(n, seed=0)), 1.0)
        assert automorphisms(ntm.A).shape == (0, n)

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_discrete_within_cap(self, n):
        ntm = power_matrix(gen_discrete(n), 1.0)
        group = automorphisms(ntm.A)
        assert len(fixes_exactly(group, ntm.A.a)) == math.factorial(n)

    @pytest.mark.parametrize("n", [7, 25, 41])
    def test_discrete_above_cap_trivial(self, n):
        ntm = power_matrix(gen_discrete(n), 1.0)
        assert automorphisms(ntm.A).shape == (0, n)

    def test_graph_groups(self):
        # The Petersen graph's group is S_5, of order 120; the Frucht graph
        # is 3-regular with no symmetry but the identity.
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        petersen = WeightedGraph(10, tuple((i, j, 1.0) for i, j in outer + spokes + inner))
        ntm = power_matrix(path_metric(petersen), 1.0)
        assert len(fixes_exactly(automorphisms(ntm.A), ntm.A.a)) == 120
        edges = {tuple(sorted((i, (i + 1) % 12))) for i in range(12)}
        for i, step in enumerate([-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]):
            edges.add(tuple(sorted((i, (i + step) % 12))))
        frucht = WeightedGraph(12, tuple((i, j, 1.0) for i, j in sorted(edges)))
        ntm = power_matrix(path_metric(frucht), 1.0)
        assert automorphisms(ntm.A).shape == (0, 12)

    def test_exact_entries_only(self):
        # One distance off by an ulp leaves only the symmetries that fix
        # that pair: the identity and the reflection swapping its ends.
        a = cycle_ntm(7).A.a.copy()
        a[0, 3] = a[3, 0] = np.nextafter(a[0, 3], 10.0)
        group = automorphisms(a)
        assert fixes_exactly(group, a) == {
            tuple(range(7)), tuple((3 - i) % 7 for i in range(7))}
