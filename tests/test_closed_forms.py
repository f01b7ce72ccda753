import tracemalloc

import numpy as np
import pytest

from metricgap.closed_forms import gamma_cycle, gamma_discrete, gamma_tree
from metricgap.errors import InvalidSize, NotATree
from metricgap.gap import solve_gap
from metricgap.metric import (
    WeightedGraph,
    gen_cycle,
    gen_discrete,
    gen_path,
    gen_random_tree,
    gen_tree,
    path_metric,
    power_matrix,
)
from metricgap.negtype import build_B

from oracles import B_tree, cycle_binary_maximizer, inverse_cycle, inverse_tree, tree_two_coloring


def _cycle_B_pipeline(n):
    return build_B(power_matrix(path_metric(gen_cycle(n)), 1.0)).B.a


class TestDiscrete:
    def test_frozen_small_values(self):
        # gamma = (1/floor(n/2) + 1/ceil(n/2)) / 2, worked by hand.
        assert gamma_discrete(2).gamma == pytest.approx(1.0, rel=1e-15)
        assert gamma_discrete(3).gamma == pytest.approx(0.75, rel=1e-15)
        assert gamma_discrete(4).gamma == pytest.approx(0.5, rel=1e-15)
        assert gamma_discrete(5).gamma == pytest.approx(0.5 * (1.0 / 2.0 + 1.0 / 3.0), rel=1e-15)

    def test_beta_parity_split(self):
        assert gamma_discrete(6).beta == 6.0
        assert gamma_discrete(7).beta == pytest.approx(7.0 - 1.0 / 7.0, rel=1e-15)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_gamma_beta_product(self, n):
        res = gamma_discrete(n)
        assert res.gamma * res.beta == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_aux_inverse_is_inverse(self, n):
        a = power_matrix(gen_discrete(n), 1.0).A.a
        prod = (np.ones((n, n)) / (n - 1) - np.eye(n)) @ a
        assert np.max(np.abs(prod - np.eye(n))) <= 1e-12

    def test_aux_B_matches_pipeline(self):
        n = 7
        gm = build_B(power_matrix(gen_discrete(n), 1.0))
        closed = np.eye(n) - np.ones((n, n)) / n
        assert np.max(np.abs(closed - gm.B.a)) <= 1e-12

    def test_invalid_size(self):
        with pytest.raises(InvalidSize):
            gamma_discrete(1)


class TestCycle:
    def test_frozen_values(self):
        # gamma = n / (2 (n^2 - 2n - 1)): 3/4 for n = 3, 5/28 for n = 5.
        assert gamma_cycle(3).gamma == pytest.approx(0.75, rel=1e-15)
        assert gamma_cycle(5).gamma == pytest.approx(5.0 / 28.0, rel=1e-15)
        assert gamma_cycle(5).beta == pytest.approx(56.0 / 5.0, rel=1e-15)
        assert gamma_cycle(7).beta == pytest.approx(136.0 / 7.0, rel=1e-15)

    def test_even_cycle_gamma_zero(self):
        res = gamma_cycle(8)
        assert res.gamma == 0.0
        assert res.beta is None

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
    def test_gamma_beta_product(self, n):
        res = gamma_cycle(n)
        assert res.gamma * res.beta == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
    def test_inverse_cycle_is_inverse(self, n):
        a = power_matrix(path_metric(gen_cycle(n)), 1.0).A.a
        prod = inverse_cycle(n) @ a
        assert np.max(np.abs(prod - np.eye(n))) <= 1e-10

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_aux_B_matches_pipeline(self, n):
        # B = 2I + C^k + C^{k+1} - (4/n) 1 1^T, C the one-step cyclic shift.
        k = (n - 1) // 2
        eye = np.eye(n)
        closed = (2.0 * eye + np.roll(eye, k, axis=1) + np.roll(eye, k + 1, axis=1)
                  - (4.0 / n) * np.ones((n, n)))
        assert np.max(np.abs(closed - _cycle_B_pipeline(n))) <= 1e-10

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_aux_M_matches_pipeline(self, n):
        rep = build_B(power_matrix(path_metric(gen_cycle(n)), 1.0))
        k = (n - 1) // 2
        assert rep.M == pytest.approx(k * (k + 1.0) / n, rel=1e-12)
        assert np.allclose(rep.z, np.full(n, 1.0 / n), atol=1e-12)

    def test_binary_maximizer_small_patterns(self):
        # k = 1 degenerates to the single position {2}; k = 2 gives
        # {1, 3, 4} (both 1-based).
        assert cycle_binary_maximizer(3).tolist() == [0.0, 1.0, 0.0]
        assert cycle_binary_maximizer(5).tolist() == [1.0, 0.0, 1.0, 1.0, 0.0]

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
    def test_binary_maximizer_attains_binary_max(self, n):
        x = cycle_binary_maximizer(n)
        b = _cycle_B_pipeline(n)
        assert float(x @ b @ x) == pytest.approx(gamma_cycle(n).beta / 4.0, rel=1e-12)


class TestTree:
    @pytest.mark.parametrize("seed", range(8))
    def test_gamma_is_reciprocal_weight_sum(self, seed):
        tree = gen_random_tree(3 + seed, seed=seed)
        res = gamma_tree(tree)
        recip = sum(1.0 / w for _, _, w in tree.edges)
        assert res.gamma == pytest.approx(1.0 / recip, rel=1e-15)
        assert res.beta == pytest.approx(2.0 * recip, rel=1e-15)
        assert res.gamma * res.beta == pytest.approx(2.0, rel=1e-12)

    def test_unit_path_values(self):
        # Path with unit weights: gamma = 1/(n-1).
        res = gamma_tree(gen_path(5))
        assert res.gamma == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_inverse_tree_is_inverse(self, seed):
        tree = gen_random_tree(4 + seed, seed=100 + seed)
        a = power_matrix(path_metric(tree), 1.0).A.a
        prod = inverse_tree(tree) @ a
        assert np.max(np.abs(prod - np.eye(tree.n))) <= 1e-10

    # n = 65 and 130 run dsytrf's blocked path.
    @pytest.mark.parametrize("n, seed", [(4 + s, 200 + s) for s in range(6)]
                             + [(65, 265), (130, 330)],
                             ids=[*map(str, range(6)), "n65", "n130"])
    def test_B_tree_matches_pipeline(self, n, seed):
        tree = gen_random_tree(n, seed=seed)
        gm = build_B(power_matrix(path_metric(tree), 1.0))
        closed = B_tree(tree)
        scale = max(np.max(np.abs(closed)), 1.0)
        assert np.max(np.abs(closed - gm.B.a)) <= 1e-9 * scale

    def test_two_coloring_attains_beta(self):
        tree = gen_random_tree(9, seed=5)
        b = build_B(power_matrix(path_metric(tree), 1.0)).B.a
        s = tree_two_coloring(tree)
        assert set(np.unique(s)) == {-1.0, 1.0}
        assert float(s @ b @ s) == pytest.approx(gamma_tree(tree).beta, rel=1e-12)

    def test_two_coloring_alternates_across_edges(self):
        tree = gen_path(6)
        s = tree_two_coloring(tree)
        assert s.tolist() == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]

    def test_star_gamma(self):
        # Star with legs w: gamma = 1 / sum(1/w).
        star = gen_tree([(0, 1, 2.0), (0, 2, 2.0), (0, 3, 2.0)])
        assert gamma_tree(star).gamma == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_not_a_tree_rejected(self):
        g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        with pytest.raises(NotATree):
            gamma_tree(g)

    def test_one_vertex_rejected(self):
        g = WeightedGraph(1, ())
        with pytest.raises(InvalidSize):
            gamma_tree(g)


class TestAgainstPipeline:
    """The closed forms and the generic pipeline are independent routes;
    they must land on the same numbers."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_discrete(self, n):
        res = solve_gap(gen_discrete(n))
        assert res.gamma == pytest.approx(gamma_discrete(n).gamma, rel=1e-10)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_cycles(self, n):
        res = solve_gap(path_metric(gen_cycle(n)))
        assert res.gamma == pytest.approx(gamma_cycle(n).gamma, rel=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_trees(self, seed):
        tree = gen_random_tree(7, seed=300 + seed)
        res = solve_gap(path_metric(tree))
        assert res.gamma == pytest.approx(gamma_tree(tree).gamma, rel=1e-9)


@pytest.mark.parametrize("oracle, arg", [
    (gamma_discrete, 2000),
    (gamma_cycle, 2001),
    (gamma_tree, gen_random_tree(2000, seed=0)),
], ids=["discrete", "cycle", "tree"])
def test_oracle_builds_no_matrix(oracle, arg):
    # A dense n x n matrix at n = 2000 is 32 MB; the oracles need only sums.
    tracemalloc.start()
    try:
        oracle(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
