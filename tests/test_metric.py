import numpy as np
import pytest

from metricgap.errors import (
    AsymmetricInput,
    DisconnectedGraph,
    DuplicatePointsWarning,
    InvalidSize,
    NegativeDistance,
    NonzeroDiagonal,
    NotATree,
    TriangleViolation,
)
from metricgap.metric import (
    WeightedGraph,
    gen_cycle,
    gen_discrete,
    gen_path,
    gen_random_tree,
    gen_tree,
    is_tree,
    path_metric,
    power_matrix,
    validate_metric,
)


class TestValidateMetric:
    def test_happy_path(self):
        d = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        space = validate_metric(d)
        assert space.n == 3
        assert space.merged == ()

    def test_asymmetric(self):
        with pytest.raises(AsymmetricInput):
            validate_metric([[0, 1], [2, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal):
            validate_metric([[1e-3, 1], [1, 0]])

    def test_negative_entry(self):
        with pytest.raises(NegativeDistance):
            validate_metric([[0, -1], [-1, 0]])

    def test_triangle_violation_reports_triple(self):
        d = [[0, 5, 1], [5, 0, 1], [1, 1, 0]]
        with pytest.raises(TriangleViolation) as exc:
            validate_metric(d)
        e = exc.value
        assert (e.i, e.j, e.k) == (0, 1, 2)
        assert e.lhs == 5.0
        assert e.rhs == 2.0

    def test_duplicates_collapse_with_warning(self):
        d = [[0, 0, 2], [0, 0, 2], [2, 2, 0]]
        with pytest.warns(DuplicatePointsWarning):
            space = validate_metric(d)
        assert space.n == 2
        assert space.merged == ((0, 1),)
        assert space.d[0, 1] == 2.0

    @pytest.mark.filterwarnings("error")
    def test_huge_triangle_validates_without_overflow(self):
        d = np.full((3, 3), 1e308)
        np.fill_diagonal(d, 0.0)
        space = validate_metric(d)
        assert space.merged == ()
        assert space.d[0, 1] == 1e308

    def test_inconsistent_duplicates_rejected(self):
        # Points 0 and 1 coincide but disagree about point 2; that is a
        # zero-side triangle violation, not a mergeable duplicate.
        d = [[0, 0, 2], [0, 0, 3], [2, 3, 0]]
        with pytest.raises(TriangleViolation):
            validate_metric(d)

    def test_accepts_tight_triangle(self):
        # Collinear points: equality in the triangle inequality is fine.
        d = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        validate_metric(d)


class TestPowerMatrix:
    def test_p_one_keeps_entries(self):
        space = validate_metric([[0, 2], [2, 0]])
        ntm = power_matrix(space, 1.0)
        assert ntm.A[0, 1] == 2.0
        assert ntm.p == 1.0
        assert np.array_equal(ntm.u, np.ones(2))

    def test_p_two_squares(self):
        space = validate_metric([[0, 3], [3, 0]])
        assert power_matrix(space, 2.0).A[0, 1] == 9.0

    def test_p_zero_collapses_to_uniform(self):
        space = validate_metric([[0, 3, 7], [3, 0, 5], [7, 5, 0]])
        a = power_matrix(space, 0.0).A.a
        assert np.array_equal(a, np.ones((3, 3)) - np.eye(3))

    def test_negative_p_rejected(self):
        space = gen_discrete(2)
        with pytest.raises(ValueError):
            power_matrix(space, -1.0)

    @pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf])
    def test_non_finite_p_rejected(self, p):
        # As the CLI's exponent check: not the InvalidSize of an overflow.
        with pytest.raises(ValueError, match="finite"):
            power_matrix(gen_discrete(3), p)

    def test_zero_diagonal_preserved(self):
        space = validate_metric([[0, 0.5], [0.5, 0]])
        assert power_matrix(space, 0.5).A[0, 0] == 0.0

    def test_power_below_normal_range_rejected(self):
        space = validate_metric([[0, 1e-200], [1e-200, 0]])
        assert power_matrix(space, 1.0).A[0, 1] == 1e-200
        with pytest.raises(InvalidSize):
            power_matrix(space, 2.0)
        with pytest.raises(InvalidSize):
            power_matrix(validate_metric([[0, 1e-310], [1e-310, 0]]), 1.0)

    def test_small_diagonal_is_not_an_underflow(self):
        # A diagonal entry inside the validation slack is zeroed, not refused.
        space = validate_metric([[1e-200, 1], [1, 0]])
        assert power_matrix(space, 2.0).A[0, 0] == 0.0


class TestWeightedGraph:
    def test_canonicalizes_edge_order(self):
        g = WeightedGraph(3, ((2, 0, 1.5),))
        assert g.edges == ((0, 2, 1.5),)

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidSize):
            WeightedGraph(2, ((0, 0, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidSize):
            WeightedGraph(2, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(NegativeDistance):
            WeightedGraph(2, ((0, 1, 0.0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidSize):
            WeightedGraph(2, ((0, 2, 1.0),))


class TestPathMetric:
    def test_weighted_path_accumulates(self):
        g = gen_path(3, [2.0, 5.0])
        d = path_metric(g).d
        assert d[0, 1] == 2.0
        assert d[1, 2] == 5.0
        assert d[0, 2] == 7.0

    def test_cycle_distances(self):
        d = path_metric(gen_cycle(5)).d.a
        expected = np.array([[min(abs(i - j), 5 - abs(i - j)) for j in range(5)] for i in range(5)])
        assert np.array_equal(d, expected.astype(float))

    def test_shortcut_wins(self):
        g = WeightedGraph(3, ((0, 1, 10.0), (0, 2, 1.0), (1, 2, 1.0)))
        assert path_metric(g).d[0, 1] == 2.0

    def test_disconnected(self):
        g = WeightedGraph(3, ((0, 1, 1.0),))
        with pytest.raises(DisconnectedGraph):
            path_metric(g)

    @pytest.mark.parametrize("seed", range(8))
    def test_output_is_a_valid_metric(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        space = path_metric(gen_random_tree(n, seed=seed))
        again = validate_metric(space.d)
        assert again.n == n
        assert again.merged == ()


class TestGenerators:
    def test_discrete(self):
        space = gen_discrete(3)
        assert np.array_equal(space.d.a, np.ones((3, 3)) - np.eye(3))
        with pytest.raises(InvalidSize):
            gen_discrete(1)

    def test_cycle(self):
        g = gen_cycle(4)
        assert len(g.edges) == 4
        with pytest.raises(InvalidSize):
            gen_cycle(2)

    def test_path_weight_count(self):
        with pytest.raises(InvalidSize):
            gen_path(3, [1.0])

    def test_tree_infers_size(self):
        g = gen_tree([(0, 1, 1.0), (1, 2, 2.0)])
        assert g.n == 3
        assert is_tree(g)

    def test_tree_rejects_cycle(self):
        with pytest.raises(NotATree):
            gen_tree([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])

    def test_tree_rejects_forest(self):
        with pytest.raises(NotATree):
            gen_tree([(0, 1, 1.0)], n=3)

    def test_random_tree_deterministic(self):
        a = gen_random_tree(9, seed=5)
        b = gen_random_tree(9, seed=5)
        assert a.edges == b.edges
        assert is_tree(a)

    def test_random_tree_weight_range(self):
        g = gen_random_tree(30, weight_range=(0.5, 2.0), seed=1)
        ws = [w for _, _, w in g.edges]
        assert min(ws) >= 0.5
        assert max(ws) <= 2.0

    def test_random_tree_bad_range(self):
        with pytest.raises(InvalidSize):
            gen_random_tree(5, weight_range=(0.0, 1.0))
