import itertools
import math
import warnings

import numpy as np
import pytest

from metricgap.errors import NotStrict, TooLarge
from metricgap import gap
from metricgap.gap import (
    beta_binary,
    beta_hypercube,
    beta_opnorm,
    branch_and_bound,
    make_witness,
    solve_gap,
    verify_gap_inequality,
)
from metricgap.linalg import SymMatrix
from metricgap.metric import (
    WeightedGraph,
    gen_cycle,
    gen_discrete,
    gen_path,
    gen_random_tree,
    path_metric,
    power_matrix,
)
from metricgap.negtype import automorphisms, build_B, classify

from oracles import beta_brute, binary_brute, opnorm_brute, random_point_metric


def tree_B(n, seed):
    return build_B(power_matrix(path_metric(gen_random_tree(n, seed=seed)), 1.0)).B


def cycle_B(n):
    return build_B(power_matrix(path_metric(gen_cycle(n)), 1.0)).B


def discrete_B(n):
    return build_B(power_matrix(gen_discrete(n), 1.0)).B


def cloud_B(n, seed):
    return build_B(power_matrix(random_point_metric(n, seed), 1.0)).B


def relabelled_tree(n, seed, label_seed):
    """gen_random_tree(n, seed) with its vertices renamed by a random
    permutation: the same tree, whose B the greedy descent of
    branch_and_bound, taken in index order, does not 2-colour."""
    tree = gen_random_tree(n, seed=seed)
    label = np.random.default_rng(label_seed).permutation(n).tolist()
    return WeightedGraph(n, tuple((label[i], label[j], w) for i, j, w in tree.edges))


def indefinite_B(n, seed, centered=False):
    """Seeded random symmetric matrix; ``centered`` makes B 1 = 0 up to rounding."""
    m = np.random.default_rng(seed).standard_normal((n, n))
    m = m + m.T
    if centered:
        c = np.eye(n) - 1.0 / n
        m = c @ m @ c
        m = (m + m.T) / 2.0
    return SymMatrix(m)


# Exact scaling, one that rounds every entry, and one where the squares of
# the entries, and of beta, overflow.
SCALES = (1.0, 1e4, 2.0**-20, 1e200)


def top_scale(arr):
    """A factor that takes sum|B_ij| + g (gap._rounding_guard) of ``arr`` to
    just under the largest float."""
    top = np.finfo(float).max
    scale = top / (float(np.abs(arr).sum()) + gap._rounding_guard(arr)) * (1.0 - 1e-9)
    scaled = arr * scale
    total = float(np.abs(scaled).sum()) + gap._rounding_guard(scaled)
    assert math.isfinite(total) and total > 0.999 * top
    return scale


def unpruned_opnorm(arr):
    """max ||B s||_1 over every entry of every block of gap._sign_blocks."""
    n = arr.shape[0]
    best = -np.inf
    for high, low in gap._sign_blocks(n):
        k = high.shape[1]
        high_part, low_part = high @ arr[:k], low @ arr[k:]
        norms = np.zeros((len(high), len(low)))
        for c in range(n):
            norms += np.abs(high_part[:, c, None] + low_part[:, c])
        best = max(best, float(norms.max()))
    return best


class TestBetaHypercube:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_discrete_matches_brute(self, n):
        b = discrete_B(n)
        got_v, got_s = beta_hypercube(b)
        exp_v, exp_s = beta_brute(b.a)
        assert got_v == exp_v
        assert np.array_equal(got_s, exp_s)

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_odd_cycles_match_brute(self, n):
        b = cycle_B(n)
        got_v, got_s = beta_hypercube(b)
        exp_v, exp_s = beta_brute(b.a)
        assert got_v == exp_v
        assert np.array_equal(got_s, exp_s)

    @pytest.mark.parametrize("seed", range(6))
    def test_trees_match_brute(self, seed):
        b = tree_B(4 + seed, seed)
        got_v, got_s = beta_hypercube(b)
        exp_v, exp_s = beta_brute(b.a)
        assert got_v == exp_v
        assert np.array_equal(got_s, exp_s)

    @pytest.mark.parametrize("seed", range(4))
    def test_point_clouds_match_brute(self, seed):
        b = cloud_B(7, 500 + seed)
        got_v, got_s = beta_hypercube(b)
        exp_v, exp_s = beta_brute(b.a)
        assert got_v == exp_v
        assert np.array_equal(got_s, exp_s)

    def test_known_cycle_values(self):
        # beta = 4 (4 k^2 - 2) / n for the odd n-cycle: 56/5 and 136/7.
        v5, _ = beta_hypercube(cycle_B(5))
        v7, _ = beta_hypercube(cycle_B(7))
        assert v5 == pytest.approx(56.0 / 5.0, rel=1e-12)
        assert v7 == pytest.approx(136.0 / 7.0, rel=1e-12)

    def test_maximizer_first_coordinate_fixed(self):
        _, s = beta_hypercube(tree_B(9, 17))
        assert s[0] == 1.0

    @pytest.mark.parametrize("block", [2, 8, 64, 512])
    def test_small_blocks_bit_identical(self, monkeypatch, block):
        # Blocks far below the default force maxima and exact ties to merge
        # across many blocks; the result must not depend on the layout.
        monkeypatch.setattr(gap, "_BLOCK", block)
        for b in (tree_B(11, 23), discrete_B(9), cycle_B(9)):
            got_v, got_s = beta_hypercube(b)
            exp_v, exp_s = beta_brute(b.a)
            assert got_v == exp_v
            assert np.array_equal(got_s, exp_s)

    @pytest.mark.parametrize("n", [1, 2, 9, 17])
    def test_one_block_tables_shared_and_read_only(self, monkeypatch, n):
        # Orders that fit one block walk one cached pair of tables, the pair
        # branch-and-bound's leaves of that order take too, and no route can
        # write into them.  The pair covers {+1} x {-1,+1}^(n-1) once.
        (high, low), = list(gap._sign_blocks(n))
        highs, lows = gap._cached_tables(n, False, gap._BLOCK)
        assert len(highs) == len(lows) == 1 and highs[0] is high and lows[0] is low
        assert not high.flags.writeable and not low.flags.writeable
        # With _ENUM_FREE = n - 1, every node solved outright has order n.
        monkeypatch.setattr(gap, "_ENUM_FREE", n - 1)
        leaves = []
        best_in_block = gap._best_in_block

        def capture(arr, vals, leaf_high, leaf_low, *rest):
            leaves.append((leaf_high, leaf_low))
            return best_in_block(arr, vals, leaf_high, leaf_low, *rest)

        monkeypatch.setattr(gap, "_best_in_block", capture)
        assert branch_and_bound(discrete_B(n + 2)).nodes_enumerated > 0
        assert leaves and all(h is high and l is low for h, l in leaves)
        signs = {tuple(row) + tuple(suffix) for row in high for suffix in low}
        assert len(signs) == 1 << (n - 1) and all(s[0] == 1.0 for s in signs)

    @pytest.mark.parametrize("scale", [1.0, 2.0**-20])
    def test_two_blocks_match_brute(self, scale):
        # n = 18 has 2^17 sign vectors, two blocks of the default size.
        from metricgap.metric import validate_metric

        space = path_metric(gen_random_tree(18, seed=41))
        b = build_B(power_matrix(validate_metric(scale * space.d.a), 1.0)).B
        got_v, got_s = beta_hypercube(b)
        exp_v, exp_s = beta_brute(b.a)
        assert got_v == exp_v
        assert np.array_equal(got_s, exp_s)

    def test_single_point(self):
        v, s = beta_hypercube(SymMatrix([[0.0]]))
        assert v == 0.0
        assert np.array_equal(s, [1.0])


class TestSplitValues:
    @pytest.mark.parametrize("block", [8, 64, gap._BLOCK])
    @pytest.mark.parametrize("scale", [2.0**-400, 2.0**400, None], ids=["2^-400", "2^400", "top"])
    def test_sums_in_the_documented_order(self, monkeypatch, block, scale):
        # beta_binary returns the split values and beta_opnorm filters on
        # them, so their float order is part of the result: bit for bit
        # (q_H + q_L) + 2 (x_H B_HL) x_L^T, on both kinds of table.  With
        # the small blocks, the first 32 blocks of each order are checked.
        # "top" scales B so that sum|B_ij| + g sits just under the largest
        # float, the edge of the range where the kernel keeps that order.
        monkeypatch.setattr(gap, "_BLOCK", block)
        for n in range(2, 22):
            arr = indefinite_B(n, n).a
            arr = arr * (scale or top_scale(arr))
            for binary in (False, True):
                blocks = itertools.islice(gap._valued_blocks(arr, binary), 32)
                for high, low, vals in blocks:
                    k = high.shape[1]
                    q_high = np.einsum("ij,ij->i", high @ arr[:k, :k], high)
                    q_low = np.einsum("ij,ij->i", low @ arr[k:, k:], low)
                    cross = (high @ arr[:k, k:]) @ low.T
                    assert np.array_equal(vals, (q_high[:, None] + q_low[None, :]) + 2.0 * cross)

    @pytest.mark.parametrize("k", range(2, 16))
    def test_leaf_values_in_the_documented_order(self, monkeypatch, k):
        # A leaf of branch_and_bound values qf + x^T Q x over the completions
        # of its prefix, for its node matrix Q = [[0, h^T], [h, B_FF]]: bit
        # for bit qf + ((q_H + q_L) + 2 (x_H Q_HL) x_L^T).  The leaves of
        # order k sit below prefixes of length 4 of a random B, whose
        # coordinates the search takes in descending order of B_ii (they
        # lie far apart), so Q and qf come from B in that order.
        n = k + 3
        caller = indefinite_B(n, 1000 + k).a
        heavy_first = np.argsort(-caller.diagonal())
        arr = caller[np.ix_(heavy_first, heavy_first)]
        monkeypatch.setattr(gap, "_ENUM_FREE", k - 1)
        prefix_terms, best_in_block = gap._prefix_terms, gap._best_in_block
        nodes, leaves = [], []

        def terms(q, high):
            nodes.append(q.copy())
            return prefix_terms(q, high)

        def fold(arr_, vals, high, low, prefix, *args):
            leaves.append((vals.copy(), high, low, prefix.copy()))
            return best_in_block(arr_, vals, high, low, prefix, *args)

        monkeypatch.setattr(gap, "_prefix_terms", terms)
        monkeypatch.setattr(gap, "_best_in_block", fold)
        branch_and_bound(SymMatrix(caller), budget=50)
        assert leaves
        depth = n - k + 1
        for q, (vals, high, low, prefix) in zip(nodes, leaves, strict=True):
            assert len(prefix) == depth and prefix[0] == 1.0
            assert q[0, 0] == 0.0 and np.array_equal(q[0, 1:], q[1:, 0])
            assert np.array_equal(q[1:, 1:], arr[depth:, depth:])
            np.testing.assert_allclose(q[1:, 0], arr[depth:, :depth] @ prefix,
                                       rtol=1e-12, atol=1e-12)
            h = high.shape[1]
            q_high = np.einsum("ij,ij->i", high @ q[:h, :h], high)
            q_low = np.einsum("ij,ij->i", low @ q[h:, h:], low)
            cross = (high @ q[:h, h:]) @ low.T
            qf = float(prefix @ arr[:depth, :depth] @ prefix)
            assert np.array_equal(vals, qf + ((q_high[:, None] + q_low[None, :]) + 2.0 * cross))

    @pytest.mark.parametrize("block", [8, 64, gap._BLOCK])
    def test_prefix_terms_once_per_high_table(self, monkeypatch, block):
        # _sign_blocks yields every L table of one H table before the next,
        # so each route's walk takes the prefix terms once per H table, in
        # the order of the tables.
        monkeypatch.setattr(gap, "_BLOCK", block)
        prefix_terms = gap._prefix_terms
        calls = []

        def counted(arr, high):
            calls.append(high)
            return prefix_terms(arr, high)

        monkeypatch.setattr(gap, "_prefix_terms", counted)
        for n in (2, 9, 14, 18):
            b = tree_B(n, n)
            for route, binary in ((beta_hypercube, False), (beta_opnorm, False),
                                  (beta_binary, True)):
                highs = [high for high, _ in gap._sign_blocks(n, binary)]
                tables = [high for i, high in enumerate(highs) if i == 0 or high is not highs[i - 1]]
                assert len(tables) == len({id(high) for high in highs})
                calls.clear()
                route(b)
                assert len(calls) == len(tables)
                assert all(np.array_equal(c, t) for c, t in zip(calls, tables, strict=True))


class TestSignTableCache:
    def test_keyed_on_block_size(self, monkeypatch):
        # A walk of n = 18 at _BLOCK = 8 fills the cache with its small
        # tables; the walk at the default _BLOCK after it must take its own.
        # Each walk covers {+1} x {-1,+1}^17 exactly once.
        n = 18
        for block, high_shape, low_shape in ((8, (4, 10), (2, 8)),
                                              (gap._BLOCK, (256, 10), (256, 8))):
            monkeypatch.setattr(gap, "_BLOCK", block)
            blocks = list(gap._sign_blocks(n))
            assert len(blocks) == (1 << (n - 1)) // (high_shape[0] * low_shape[0])
            assert all(high.shape == high_shape and low.shape == low_shape
                       for high, low in blocks)
            signs = np.concatenate([
                np.hstack((np.repeat(high, len(low), axis=0), np.tile(low, (len(high), 1))))
                for high, low in blocks
            ])
            assert np.all(signs[:, 0] == 1.0) and np.all(np.abs(signs) == 1.0)
            codes = (signs[:, 1:] < 0) @ (1 << np.arange(n - 1))
            assert np.array_equal(np.sort(codes), np.arange(1 << (n - 1)))

    def test_second_solve_builds_no_sign_table(self, monkeypatch):
        # The first solve_gap at n = 20 fills the cache; the second takes
        # every table from it.  Its peak is then the two 512 KiB value
        # tables of a block and the routes' scratch (a block's comparison
        # masks and beta_opnorm's row products, about 170 KiB); building
        # the tables again would add about 50 KiB on top of that.
        import tracemalloc

        space = path_metric(gen_random_tree(20, seed=3))
        solve_gap(space)

        def no_tables(*args):
            raise AssertionError("sign table built")

        monkeypatch.setattr(gap, "_sign_rows", no_tables)
        tracemalloc.start()
        try:
            solve_gap(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (512 << 10) + (192 << 10)

    def test_past_the_cutoff_tables_are_not_cached(self):
        # Orders past MAX_ENUM_N stream their tables and leave the cache as
        # it was.
        before = gap._cached_tables.cache_info().currsize
        high, low = next(gap._sign_blocks(gap.MAX_ENUM_N + 1))
        assert high.flags.writeable and low.flags.writeable
        assert gap._cached_tables.cache_info().currsize == before

    @pytest.mark.parametrize("block", [8, 64, gap._BLOCK])
    def test_suffix_row_once_per_low_table(self, monkeypatch, block):
        # Every H table meets the same L tables, so each walk takes the
        # suffix row [1; q_L] once per L table, in the order of the tables.
        monkeypatch.setattr(gap, "_BLOCK", block)
        suffix_row = gap._suffix_row
        calls = []

        def counted(arr, low):
            calls.append(low)
            return suffix_row(arr, low)

        monkeypatch.setattr(gap, "_suffix_row", counted)
        for n in (2, 9, 14, 18):
            b = tree_B(n, n)
            for route, binary in ((beta_hypercube, False), (beta_opnorm, False),
                                  (beta_binary, True)):
                lows = gap._cached_tables(n, binary, block)[1]
                calls.clear()
                route(b)
                assert len(calls) == len(lows)
                assert all(c is t for c, t in zip(calls, lows, strict=True))

    def test_leaves_own_value_tables_and_share_sign_tables(self, monkeypatch):
        # Every branch-and-bound leaf and every walk values its blocks into
        # tables of its own, while the sign tables a leaf reads are the
        # cached, read-only ones of its order.
        seen = []
        best_in_block = gap._best_in_block

        def capture(arr, vals, high, low, *rest):
            seen.append((vals, high, low))
            return best_in_block(arr, vals, high, low, *rest)

        monkeypatch.setattr(gap, "_best_in_block", capture)
        result = branch_and_bound(cloud_B(20, 5), budget=200)
        assert len(seen) == result.nodes_enumerated > 1
        tables = [vals for vals, _, _ in seen]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(tables) for b in tables[:i])
        for _, high, low in seen:
            highs, lows = gap._cached_tables(len(high[0]) + len(low[0]), False, gap._BLOCK)
            assert high is highs[0] and low is lows[0]
            assert not (high.flags.writeable or low.flags.writeable)
        arr = tree_B(9, 9).a
        walks = [next(gap._valued_blocks(arr))[2] for _ in range(2)]
        assert not np.shares_memory(walks[0], walks[1])


class TestBetaOpnormBinary:
    @pytest.mark.parametrize("make", [
        lambda: discrete_B(6),
        lambda: cycle_B(7),
        lambda: tree_B(8, 3),
        lambda: cloud_B(7, 77),
    ])
    def test_three_routes_agree(self, make):
        b = make()
        v, _ = beta_hypercube(b)
        assert beta_opnorm(b) == pytest.approx(v, rel=1e-12)
        assert beta_binary(b) == pytest.approx(v, rel=1e-12)

    def test_binary_matches_brute_quarter(self, ):
        b = tree_B(6, 9)
        assert beta_binary(b) == pytest.approx(4.0 * binary_brute(b.a), rel=1e-12)

    def test_opnorm_on_known_matrix(self):
        # Row sums of |B| bound ||B s||_1; for B = I - J/3 the max is 4/3
        # at any sign vector with one sign different from the others.
        b = discrete_B(3)
        assert beta_opnorm(b) == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_chunking_invariant(self, monkeypatch):
        b = tree_B(10, 13)
        opnorm, binary = beta_opnorm(b), beta_binary(b)
        monkeypatch.setattr(gap, "_BLOCK", 8)
        assert beta_opnorm(b) == opnorm
        assert beta_binary(b) == binary

    @pytest.mark.parametrize("block", [1, 2, 8, 64, gap._BLOCK])
    def test_pruned_opnorm_is_exact(self, monkeypatch, block):
        # Rows whose bound is below the best value so far are skipped; the
        # bound must hold in floating point, so the result is the unpruned
        # maximum bit for bit.
        monkeypatch.setattr(gap, "_BLOCK", block)
        cases = [tree_B(11, 23), cycle_B(9), cloud_B(9, 5), discrete_B(8)]
        cases += [indefinite_B(n, 100 + n) for n in range(1, 11)]
        for b in cases:
            got = beta_opnorm(b)
            assert got == pytest.approx(opnorm_brute(b.a), rel=1e-12)
            assert got == unpruned_opnorm(b.a)

    @pytest.mark.parametrize(
        "make", [lambda: tree_B(18, 31), lambda: cycle_B(19), lambda: cloud_B(20, 7)],
        ids=["tree18", "cycle19", "cloud20"],
    )
    def test_filtered_opnorm_multi_block(self, make):
        # 2, 4 and 8 blocks at the default block size.  Scaling by 2^-20 is
        # exact and by 1e4 or 1e200 moves each entry by at most half an
        # ulp, so the oracle's value for B, scaled, serves every scale to
        # within 1e-12.
        base = make()
        brute = opnorm_brute(base.a)
        for scale in SCALES:
            b = SymMatrix(base.a * scale)
            got = beta_opnorm(b)
            assert got == unpruned_opnorm(b.a)
            assert got == pytest.approx(scale * brute, rel=1e-12)

    @pytest.mark.parametrize("block", [1, 8, 64, gap._BLOCK])
    def test_filtered_opnorm_any_block_size(self, monkeypatch, block):
        monkeypatch.setattr(gap, "_BLOCK", block)
        bases = [tree_B(10, 5), cycle_B(11), cloud_B(10, 3), discrete_B(10),
                 indefinite_B(10, 17, centered=True)]
        for base in bases:
            brute = opnorm_brute(base.a)
            for scale in SCALES:
                b = SymMatrix(base.a * scale)
                got = beta_opnorm(b)
                assert got == unpruned_opnorm(b.a)
                assert got == pytest.approx(scale * brute, rel=1e-12)

    @pytest.mark.parametrize("block", [64, gap._BLOCK])
    def test_filtered_opnorm_near_ties(self, monkeypatch, block):
        # Every balanced sign vector of the 16-point discrete space maximizes
        # (B s | s), so C(15, 7) = 6,435 near-ties must all pass the filter.
        b = discrete_B(16)
        signs = np.ones((1 << 15, 16))
        signs[:, 1:] = gap._sign_rows(0, 1 << 15, 15)
        values = np.einsum("ij,jk,ik->i", signs, b.a, signs)
        assert np.count_nonzero(values >= values.max() * (1.0 - 1e-9)) == 6435
        monkeypatch.setattr(gap, "_BLOCK", block)
        got = beta_opnorm(b)
        assert got == unpruned_opnorm(b.a)
        assert got == pytest.approx(opnorm_brute(b.a), rel=1e-12)

    def test_filtered_opnorm_indefinite_filters_nothing(self):
        # -lmin(B) n exceeds beta, so the threshold is -inf and every entry
        # of the table is evaluated.
        b = indefinite_B(14, 5, centered=True)
        assert -np.linalg.eigvalsh(b.a)[0] * b.n > beta_hypercube(b)[0]
        got = beta_opnorm(b)
        assert got == unpruned_opnorm(b.a)
        assert got == pytest.approx(opnorm_brute(b.a), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e152, 1e153, 1e200])
    def test_filtered_opnorm_near_overflow(self, scale):
        # Nearly rank one, so beta is about n times ||B||_F: at 1e152 and
        # 1e153 beta^2 overflows while ||B||_F^2 does not, and at 1e200 both
        # do.  The threshold must stay finite or fall to -inf, never rise to
        # +inf and skip the maximum, and nothing may warn.
        rng = np.random.default_rng(3)
        v = rng.choice([-1.0, 1.0], 16) * rng.uniform(0.5, 1.0, 16)
        base = np.outer(v, v) + np.diag(rng.uniform(0.1, 0.2, 16))
        b = SymMatrix(base * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = beta_opnorm(b)
        assert got == unpruned_opnorm(b.a)
        assert got == pytest.approx(scale * opnorm_brute(base), rel=1e-12)

    @pytest.mark.parametrize("block", [8, 64, gap._BLOCK])
    def test_opnorm_values_each_block_once(self, monkeypatch, block):
        # One walk: the split values of a block are computed once, whether
        # or not its norms are taken.
        monkeypatch.setattr(gap, "_BLOCK", block)
        split_values = gap._split_values
        calls = []

        def counted(*args):
            calls.append(None)
            return split_values(*args)

        monkeypatch.setattr(gap, "_split_values", counted)
        for b in (cycle_B(11), tree_B(11, 23), discrete_B(10)):
            calls.clear()
            got = beta_opnorm(b)
            assert len(calls) == len(list(gap._sign_blocks(b.n)))
            assert got == unpruned_opnorm(b.a)

    @pytest.mark.parametrize("n", [9, 18])
    def test_binary_tables_are_zero_one_sign_tables(self, n):
        # 9 fits one block of the default size and 18 takes two.  Block for
        # block, the 0/1 tables are x = (s + 1) / 2 of the sign tables, with
        # x_0 = 0.
        pairs = list(zip(gap._sign_blocks(n), gap._sign_blocks(n, binary=True), strict=True))
        assert len(pairs) == (1 if n == 9 else 2)
        for (high, low), (x_high, x_low) in pairs:
            expected = (high + 1.0) / 2.0
            expected[:, 0] = 0.0
            assert np.array_equal(x_high, expected)
            assert np.array_equal(x_low, (low + 1.0) / 2.0)

    def test_ceiling_refuses_before_any_table(self, monkeypatch):
        def no_tables(n):
            raise AssertionError(f"sign tables built for n = {n}")

        monkeypatch.setattr(gap, "_sign_blocks", no_tables)
        b = SymMatrix(np.eye(gap.ENUM_CEILING + 1))
        for route in (beta_hypercube, beta_opnorm, beta_binary):
            with pytest.raises(TooLarge, match="ceiling"):
                route(b)


@pytest.mark.parametrize("block", [1, gap._BLOCK])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_smallest_sizes_all_routes(monkeypatch, n, block):
    monkeypatch.setattr(gap, "_BLOCK", block)
    cases = [indefinite_B(n, 7 * n, centered=True)]
    if n > 1:
        cases += [discrete_B(n), tree_B(n, n)]
    for b in cases:
        got_v, got_s = beta_hypercube(b)
        exp_v, exp_s = beta_brute(b.a)
        assert got_v == exp_v
        assert np.array_equal(got_s, exp_s)
        assert beta_opnorm(b) == pytest.approx(opnorm_brute(b.a), rel=1e-12)
        assert beta_binary(b) == pytest.approx(4.0 * binary_brute(b.a), rel=1e-12)


def root_Q(b):
    """Q = [[0, h^T], [h, B_FF]] of a node with an empty prefix, so h = 0."""
    n = b.n
    q = np.zeros((n + 1, n + 1))
    q[1:, 1:] = b.a
    return q


class TestTopEig:
    EPS = np.finfo(float).eps

    def check(self, a):
        lam, v = gap._top_eig(a)
        k = a.shape[0]
        a_norm = float(np.linalg.norm(a))
        assert abs(lam - np.linalg.eigh(a)[0][-1]) <= k * k * self.EPS * a_norm
        assert abs(float(np.linalg.norm(v)) - 1.0) <= k * self.EPS
        assert float(np.linalg.norm(a @ v - lam * v)) <= 4 * k * self.EPS * a_norm

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("k", range(1, 41))
    def test_random_symmetric(self, k, scale):
        a = np.random.default_rng(k).standard_normal((k, k))
        self.check(scale * (a + a.T))

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("make", [
        # The all-ones matrix has the eigenvalue 0 k - 1 times below k, and
        # its negative has it k - 1 times at the top.
        lambda: np.ones((7, 7)),
        lambda: np.ones((30, 30)),
        lambda: -np.ones((7, 7)),
        lambda: -np.ones((30, 30)),
        # An odd cycle's B has a double top eigenvalue.
        lambda: root_Q(cycle_B(9)),
        lambda: root_Q(cycle_B(29)),
        # The 24-point discrete space's root node has a 24-fold top
        # eigenvalue.  dsyevr's bisection by index finds it with numpy 2.4.6
        # and scipy 1.17.1, so this case does not reach the whole-spectrum
        # fallback; test_fallback_to_the_whole_spectrum forces it.
        lambda: root_Q(discrete_B(24)),
    ])
    def test_repeated_eigenvalue(self, make, scale):
        self.check(scale * make())

    @pytest.mark.parametrize("n", [9, 29])
    def test_cycle_node_has_double_top_eigenvalue(self, n):
        w = np.linalg.eigvalsh(root_Q(cycle_B(n)))
        assert w[-1] - w[-2] <= 1e-12 * w[-1]

    @pytest.mark.parametrize("make", [
        lambda: np.random.default_rng(1).standard_normal((1, 1)),
        lambda: np.random.default_rng(9).standard_normal((9, 9)),
        lambda: root_Q(cycle_B(29)),
        lambda: root_Q(discrete_B(24)),
    ])
    def test_fallback_to_the_whole_spectrum(self, monkeypatch, make):
        # A by-index call that finds no eigenvalue, as dsyevr's bisection
        # can on a tightly clustered top.  With numpy 2.4.6 and scipy 1.17.1
        # no other test reaches the fallback.
        real = gap.dsyevr
        whole = []

        def no_eigenvalue_by_index(a, *args, **kwargs):
            w, z, m, isuppz, info = real(a, *args, **kwargs)
            if args[1:2] == ("I",):
                return w, z, 0, isuppz, info
            whole.append(kwargs["range"])
            return w, z, m, isuppz, info

        monkeypatch.setattr(gap, "dsyevr", no_eigenvalue_by_index)
        a = make()
        a = a + a.T
        self.check(a)
        assert whole == ["A"]

    @pytest.mark.parametrize("by_index_fails", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 9, 31])
    def test_nan_entry_raises(self, monkeypatch, k, by_index_fails):
        # With by_index_fails the by-index call reports no eigenvalue even at
        # order 1, where dsyevr returns the NaN itself; a NaN matrix must
        # still not reach the whole-spectrum call, which can return finite
        # values for it.
        real = gap.dsyevr
        whole = []

        def dsyevr(a, *args, **kwargs):
            w, z, m, isuppz, info = real(a, *args, **kwargs)
            if args[1:2] == ("I",):
                return w, z, 0 if by_index_fails else m, isuppz, info
            whole.append(kwargs["range"])
            return w, z, m, isuppz, info

        monkeypatch.setattr(gap, "dsyevr", dsyevr)
        a = np.random.default_rng(k).standard_normal((k, k))
        a = a + a.T
        a[k // 2, k - 1] = a[k - 1, k // 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            gap._top_eig(a)
        assert whole == []


class TestZeroDirections:
    # A top eigenvector whose entries all have the same magnitude makes the
    # subgradient k v^2 - 1 of the shifts zero, and a parent vector can
    # merge to zero on a child's coordinates; the search steps on neither.
    # No branch_and_bound run in this suite meets either.

    @pytest.mark.parametrize("k", [1, 4, 16])
    @pytest.mark.parametrize("deflected", [False, True])
    def test_shift_step_stops_on_a_zero_direction(self, k, deflected):
        v = np.full(k, 1.0 / math.sqrt(k))
        v[::2] *= -1.0
        shifts = np.arange(k, dtype=float)
        last = None
        if deflected:
            last = (np.linspace(-1.0, 1.0, k) + 0.5, float(k))
        got, direction = gap._shift_step(shifts, 3.0, v, last)
        assert got is shifts and direction is None
        assert np.array_equal(shifts, np.arange(k, dtype=float))

    def test_shifted_bound_stops_after_a_zero_direction(self):
        # At order 1 the top eigenvector is +-1, so the first step is zero
        # and the search ends after one eigen-solve.
        a = np.array([[3.0]])
        shifts = np.array([0.5])
        f, got, top, v, norm, solves, tied = gap._shifted_bound(a, shifts, 0.0, 1.0)
        assert (f, top, solves, tied) == (3.0, 3.5, 1, False)
        assert got is shifts and abs(v[0]) == 1.0
        assert a[0, 0] == norm == 3.5

    @pytest.mark.parametrize("vec, sign", [
        ([0.6, -0.6], 1.0),
        ([0.5, 0.5, 0.0, 0.0], -1.0),
        ([-0.5, 0.5, 0.0, 0.0, 0.0, 0.0], 1.0),
    ])
    def test_merged_zero_vector_gives_no_free_step(self, vec, sign):
        assert gap._merged(np.array(vec), sign, 1.0) is None
        assert gap._merged(np.array(vec), -sign, 1.0) is not None


class TestBranchAndBound:
    @pytest.mark.parametrize("make", [
        lambda: cycle_B(9),
        lambda: cycle_B(13),
        lambda: tree_B(12, 5),
        lambda: tree_B(16, 7),
        lambda: discrete_B(10),
    ])
    def test_certified_and_exact(self, make):
        b = make()
        r = branch_and_bound(b)
        v, _ = beta_hypercube(b)
        assert r.certified
        assert r.beta == v
        assert float(r.s_star @ b.a @ r.s_star) == r.beta

    @pytest.mark.parametrize("n", range(1, gap._ENUM_FREE + 2))
    def test_small_instances_match_enumeration_bit_for_bit(self, n):
        # Up to _ENUM_FREE + 1 points the root is solved by enumerating its
        # completions under the enumeration's tie-break.
        makes = [lambda: indefinite_B(n, 700 + n), lambda: indefinite_B(n, 800 + n, True)]
        if n >= 2:
            makes += [lambda: tree_B(n, 40 + n), lambda: cloud_B(n, 60 + n),
                      lambda: discrete_B(n)]
        if n >= 3 and n % 2:
            makes.append(lambda: cycle_B(n))
        for make in makes:
            b = make()
            r = branch_and_bound(b)
            v, s = beta_hypercube(b)
            assert r.certified
            assert r.beta == v
            assert np.array_equal(r.s_star, s)
            assert r.nodes_expanded == r.nodes_enumerated == min(1, n - 1)
            # The root is solved outright, with no eigen-solve.
            assert r.eigen_solves == 0

    @pytest.mark.parametrize("n", [15, 17])
    def test_odd_discrete_space_certifies(self, n):
        # Every sign vector with a balanced split ties here, so all the
        # work is in re-evaluating ties.
        b = discrete_B(n)
        r = branch_and_bound(b, budget=2000)
        assert r.certified
        assert abs(r.beta - (n - 1.0 / n)) <= r.delta + 1e-12 * n
        assert r.nodes_enumerated >= 1

    def test_enumerated_nodes_are_expanded(self):
        r = branch_and_bound(cycle_B(29))
        assert r.certified
        assert 0 < r.nodes_enumerated < r.nodes_expanded

    def test_budget_exhaustion_returns_best_found(self):
        # Past _ENUM_FREE + 1 points, so the root is bounded, not solved.
        # A tree's B would certify at the root, with no node expanded.
        b = cloud_B(20, 21)
        r = branch_and_bound(b, budget=3)
        assert not r.certified
        v, _ = beta_hypercube(b)
        assert r.beta <= v
        assert r.beta > 0

    def test_zero_budget_uses_greedy_incumbent(self):
        b = tree_B(10, 2)
        r = branch_and_bound(b, budget=0)
        assert not r.certified
        assert r.nodes_expanded == 0
        assert float(r.s_star @ b.a @ r.s_star) == r.beta

    @pytest.mark.parametrize("make", [
        # A tree at p = 0.5: at p = 1 its B is sign-balanced and certifies
        # at the root, with no eigen-solve.
        lambda: build_B(power_matrix(path_metric(gen_random_tree(gap._ENUM_FREE + 2, seed=3)),
                                     0.5)).B,
        lambda: cloud_B(gap._ENUM_FREE + 4, 5),
        lambda: cycle_B(gap._ENUM_FREE + 5),
        lambda: discrete_B(gap._ENUM_FREE + 2),
        lambda: cycle_B(29),
    ], ids=["tree", "cloud", "cycle", "discrete", "cycle29"])
    def test_zero_budget_reports_finite_sound_bound(self, make):
        # No node is expanded, and the root's bound at its starting shifts,
        # one eigen-solve, stands as best_bound.
        from metricgap.closed_forms import gamma_cycle

        b = make()
        r = branch_and_bound(b, budget=0)
        assert r.nodes_expanded == 0
        assert r.eigen_solves == 1
        assert math.isfinite(r.best_bound)
        beta = gamma_cycle(b.n).beta if b.n > gap.MAX_ENUM_N else beta_hypercube(b)[0]
        assert r.best_bound + r.delta >= beta
        if b.n == 29:
            # The trivial bound sum |B_ij| is 208, a gap of 100.
            assert r.best_bound - beta < 0.1 * beta

    def test_bound_dominates_value(self):
        b = tree_B(9, 4)
        r = branch_and_bound(b)
        assert r.best_bound <= r.beta + 1e-9 * max(1.0, r.beta)

    @pytest.mark.parametrize("make", [
        lambda: tree_B(16, 31),
        lambda: tree_B(22, 32),
        lambda: cloud_B(18, 33),
        lambda: cloud_B(22, 34),
        lambda: cycle_B(17),
        lambda: cycle_B(19),
        lambda: cycle_B(21),
        lambda: discrete_B(16),
        lambda: discrete_B(18),
    ] + [
        (lambda n=n, seed=seed: indefinite_B(n, 500 + 10 * n + seed))
        for n in range(2, 12) for seed in range(3)
    ] + [
        # Nodes of these have tightly clustered top eigenvalues.
        lambda: discrete_B(14),
        lambda: discrete_B(15),
    ])
    def test_certificate_matches_enumeration(self, make):
        b = make()
        r = branch_and_bound(b)
        v, _ = beta_hypercube(b)
        assert r.certified
        assert abs(r.beta - v) <= r.delta
        assert r.beta == float(r.s_star @ b.a @ r.s_star)
        assert r.delta <= 1e-9 * abs(r.beta)

    @pytest.mark.parametrize("n", [19, 21])
    def test_discrete_space_clustered_spectrum(self, n):
        # The semidefinite bound is n against beta = n - 1/n, so the run
        # may end uncertified, but every node bound must be computed.
        b = discrete_B(n)
        r = branch_and_bound(b, budget=2000)
        assert r.beta == float(r.s_star @ b.a @ r.s_star)

    @pytest.mark.parametrize("n", [29, 31])
    def test_odd_cycle_past_cutoff_within_delta(self, n):
        from metricgap.closed_forms import gamma_cycle

        r = branch_and_bound(cycle_B(n))
        assert r.certified
        assert abs(r.beta - gamma_cycle(n).beta) <= r.delta
        assert r.best_bound <= r.beta
        assert r.delta <= 1e-9 * r.beta

    @pytest.mark.parametrize("n", [29, 31])
    def test_odd_cycle_certifies_within_node_budget(self, n):
        # They take 239 and 311 nodes and 457 and 509 eigen-solves; a looser
        # node bound or a broken warm start of the shifts needs many times
        # more.
        r = branch_and_bound(cycle_B(n), budget=1000)
        assert r.certified
        assert r.nodes_expanded <= 1000
        assert r.eigen_solves <= {29: 650, 31: 800}[n]

    @pytest.mark.parametrize("make, ties", [
        # Renamed trees: under gen_random_tree's labels they certify at the
        # root, with no node to check.
        (lambda: build_B(power_matrix(path_metric(relabelled_tree(60, 0, 1)), 1.0)).B, False),
        (lambda: build_B(power_matrix(path_metric(relabelled_tree(66, 0, 1)), 1.0)).B, False),
        (lambda: cloud_B(30, 0), False),
        (lambda: cycle_B(29), True),
        (lambda: cycle_B(31), True),
    ], ids=["tree60", "tree66", "cloud30", "cycle29", "cycle31"])
    def test_tie_exit_only_on_tied_maximizers(self, make, ties):
        # An odd n-cycle has n maximizers with s_0 = +1, so nodes on their
        # paths stop stepping; an input with one maximizer never meets a
        # second, and runs no tie check at all.
        from metricgap.closed_forms import gamma_cycle

        b = make()
        r = branch_and_bound(b, budget=5000)
        assert r.certified
        assert r.nodes_expanded > 0
        assert (r.nodes_tied > 0) == ties
        if ties:
            assert abs(r.beta - gamma_cycle(b.n).beta) <= r.delta

    def test_random_tree_60_certifies_within_node_budget(self):
        # Renamed, as under gen_random_tree's labels it certifies at the
        # root: 149 nodes.  Over-long steps (an over-relaxation of 1.35)
        # leave it uncertified after 20,000.
        tree = relabelled_tree(60, 0, 1)
        r = branch_and_bound(build_B(power_matrix(path_metric(tree), 1.0)).B, budget=1000)
        assert r.certified

    def test_eigen_solves_count_every_top_eig_call(self, monkeypatch):
        calls = []
        top_eig = gap._top_eig

        def counted(*args, **kwargs):
            calls.append(1)
            return top_eig(*args, **kwargs)

        monkeypatch.setattr(gap, "_top_eig", counted)
        # A tree's B would certify at the root, with no solve at all.
        for b in (cycle_B(29), cloud_B(20, 21)):
            calls.clear()
            r = branch_and_bound(b)
            assert r.eigen_solves == len(calls) > b.n

    @pytest.mark.parametrize("n", [66, 100])
    def test_random_tree_past_depth_64(self, monkeypatch, n):
        # Nodes of the 100-point tree reach depth 64 and beyond, where a
        # sign prefix held in one int64 would overflow.  gen_random_tree's
        # own labels let the greedy descent 2-colour a tree, which then
        # certifies at the root; renamed, the 66- and 100-point trees
        # search 167 and 641 nodes, down to depths 49 and 76.
        import heapq
        import types

        from metricgap.closed_forms import gamma_tree

        depths = []

        def popped(heap):
            entry = heapq.heappop(heap)
            depths.append(entry[1])
            return entry

        monkeypatch.setattr(gap, "heapq", types.SimpleNamespace(
            heappop=popped, heappush=heapq.heappush))
        tree = relabelled_tree(n, 0, 1)
        r = branch_and_bound(build_B(power_matrix(path_metric(tree), 1.0)).B)
        beta = gamma_tree(tree).beta
        assert r.certified
        assert max(depths) > {66: 40, 100: 64}[n]
        assert abs(r.beta - beta) <= r.delta + 1e-12 * beta

    def test_cloud_50_seed_1_certifies_within_node_budget(self):
        # Taken in descending order of B_ii it takes 1,631 nodes; in index
        # order it took 7,015.
        r = branch_and_bound(cloud_B(50, 1), budget=2500)
        assert r.certified

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", [150, 300])
    def test_random_tree_certifies_at_the_root(self, n, seed):
        # A tree's B is sign-balanced, so beta is sum |B_ij|, and the greedy
        # descent reaches it: no node is expanded and no eigen-solve taken.
        # In index order the search took 11 to 1,861 nodes on trees with
        # n = 20-120, and left the 150-point tree of seed 0 uncertified
        # after 2,000.
        from metricgap.closed_forms import gamma_tree

        tree = gen_random_tree(n, seed=seed)
        r = branch_and_bound(build_B(power_matrix(path_metric(tree), 1.0)).B, budget=100)
        beta = gamma_tree(tree).beta
        assert r.certified
        assert r.nodes_expanded == r.eigen_solves == 0
        assert abs(r.beta - beta) <= r.delta
        assert r.delta <= 1e-9 * r.beta

    def test_cloud_is_not_certified_at_the_root(self):
        r = branch_and_bound(cloud_B(30, 0))
        assert r.certified
        assert r.nodes_expanded > 0 and r.eigen_solves > 0

    def test_heavy_first_order(self):
        # An odd cycle's and a discrete space's B_ii are equal up to
        # rounding, so their order stays the identity.
        assert gap._heavy_first(cycle_B(29).a.diagonal()) is None
        assert gap._heavy_first(discrete_B(21).a.diagonal()) is None
        diag = cloud_B(30, 0).a.diagonal()
        assert np.array_equal(gap._heavy_first(diag), np.argsort(-diag))
        # Values within n^2 eps max|B_ii| of each other keep index order.
        diag = np.array([1.0, 2.0, 3.0, 2.0 + 1e-15, 0.5])
        assert gap._heavy_first(diag).tolist() == [2, 1, 3, 0, 4]

    def test_cloud_24_certifies_within_small_budget(self):
        r = branch_and_bound(cloud_B(24, 0), budget=5000)
        assert r.certified
        assert r.nodes_expanded <= 5000
        assert r.nodes_pruned > 0

    def test_frobenius_is_the_plain_norm_in_range(self):
        # Scaled by a power of two, the norm is np.linalg.norm's float
        # bit for bit wherever the plain sum of squares stays normal.
        rng = np.random.default_rng(0)
        for k in (1, 2, 7, 30):
            for scale in (1e-100, 1e-3, 1.0, 1e3, 1e100):
                a = rng.standard_normal((k, k)) * scale
                assert gap._frobenius(a) == float(np.linalg.norm(a))
        assert gap._frobenius(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("make", [
        lambda: build_B(power_matrix(path_metric(gen_path(20)), 1.0)).B,
        lambda: cycle_B(29),
        lambda: cloud_B(24, 0),
    ])
    def test_delta_scales_with_B(self, make):
        # delta's eigen-solver term takes the Frobenius norm of Q + Diag d.
        # Summed over the squares of its entries, that norm overflowed at
        # 2^600 (delta inf, with a warning) and underflowed at 2^-600
        # (delta about a tenth of its value scaled by 2^k).
        b = make().a
        base = branch_and_bound(b, budget=300)
        for k in (-600, -300, 300, 600):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = branch_and_bound(np.ldexp(b, k), budget=300)
            assert math.ldexp(r.delta, -k) == pytest.approx(base.delta, rel=1e-12)


def local_search_loop(arr, val, key, second=-np.inf):
    """The 1-flip ascent that values every flip canonically: the reference
    for gap._local_search."""
    improved = True
    while improved:
        improved = False
        for i in range(1, len(key)):
            s = np.array(key)
            s[i] = -s[i]
            v = float(s @ arr @ s)
            t = tuple(s)
            if v > val or (v == val and t < key):
                val, key, second, improved = v, t, max(second, val), True
            else:
                second = max(second, v)
    return val, key, second


class TestLocalSearch:
    @pytest.mark.parametrize("make", [
        lambda: indefinite_B(40, 11),
        lambda: indefinite_B(25, 12, True),
        lambda: tree_B(40, 13),
        lambda: cloud_B(35, 14),
        lambda: cycle_B(21),
        lambda: discrete_B(16),
        lambda: discrete_B(17),
    ], ids=["random", "centered", "tree", "cloud", "cycle", "discrete16", "discrete17"])
    def test_matches_the_loop_that_values_every_flip(self, make):
        # The same value and vector, float for float; ``second`` the same
        # wherever it comes within the guard of the value reached, below it
        # by more than the guard otherwise.  Discrete spaces tie on every
        # balanced sign vector, and 1-flips between them tie exactly.
        b = make()
        arr = b.a
        g = gap._rounding_guard(arr)
        rng = np.random.default_rng(b.n)
        starts = [np.ones(b.n)] + [
            np.concatenate(([1.0], rng.choice([-1.0, 1.0], b.n - 1))) for _ in range(6)]
        for s in starts:
            val = float(s @ arr @ s)
            for second in (-np.inf, val - 2.0 * g, val):
                ref = local_search_loop(arr, val, tuple(s), second)
                got = gap._local_search(arr, val, tuple(s), second)
                assert got[:2] == ref[:2]
                assert got[2] <= ref[2]
                if ref[2] >= ref[0] - g:
                    assert got[2] == ref[2]
                else:
                    assert got[2] < ref[0] - g


def report_of(space):
    return build_B(power_matrix(space, 1.0))


def cycle_group(n):
    report = report_of(path_metric(gen_cycle(n)))
    return report, automorphisms(report.A, report.u)


class TestSymmetricBranchAndBound:
    @pytest.mark.parametrize("free", [2, 6])
    @pytest.mark.parametrize("n", range(5, 22, 2))
    def test_odd_cycle_matches_enumeration(self, monkeypatch, n, free):
        # A small _ENUM_FREE makes the search branch on small cycles.
        monkeypatch.setattr(gap, "_ENUM_FREE", free)
        report, group = cycle_group(n)
        r = branch_and_bound(report.B, automorphisms=group)
        v, _ = beta_hypercube(report.B)
        assert r.certified
        assert abs(r.beta - v) <= r.delta
        assert r.beta == float(r.s_star @ report.B.a @ r.s_star)
        assert r.s_star[0] == 1.0
        # Every search that branches drops a node by symmetry; up to
        # free + 1 points the root is solved outright.
        assert (r.nodes_symmetric > 0) == (n > free + 1)

    @pytest.mark.parametrize("n", [29, 31, 51])
    def test_odd_cycle_fewer_nodes(self, n):
        # 93, 103 and 385 nodes, 229, 262 and 1,271 eigen-solves, against
        # 239 and 311 nodes and 457 and 509 solves for n = 29 and 31
        # without the group.  Halving a node's step after each solve that
        # did not lower its bound took 541 nodes and 1,791 solves on the
        # 51-cycle.
        from metricgap.closed_forms import gamma_cycle

        report, group = cycle_group(n)
        r = branch_and_bound(report.B, automorphisms=group)
        assert r.certified
        assert abs(r.beta - gamma_cycle(n).beta) <= r.delta
        assert r.delta <= 1e-9 * r.beta
        assert r.nodes_symmetric > 0
        assert r.nodes_expanded <= {29: 150, 31: 180, 51: 450}[n]
        assert r.eigen_solves <= {29: 350, 31: 450, 51: 1500}[n]

    @pytest.mark.parametrize("n", [23, 33, 37])
    def test_result_is_the_best_of_its_orbit(self, n):
        # The members of the maximizer's orbit have canonical values that
        # differ by rounding; whichever the search meets, the result is the
        # largest, lexicographically smallest among equals.
        report, group = cycle_group(n)
        b = report.B.a
        r = branch_and_bound(report.B, automorphisms=group)
        images = {tuple(r.s_star[sigma] * r.s_star[sigma[0]]) for sigma in group}
        values = {t: float(np.array(t) @ b @ np.array(t)) for t in images}
        best = max(images, key=lambda t: (values[t], tuple(-x for x in t)))
        assert len(set(values.values())) > 1
        assert r.beta == values[best]
        assert tuple(r.s_star) == best

    def test_tie_path_nodes_take_no_solve(self, monkeypatch):
        # A node that stops on a tied maximizer marks it, and the child
        # that holds it is branched on without an eigen-solve.  Each pop
        # opens a record of the node's order and the solves it takes.
        import heapq
        import types

        pops = []
        top_eig = gap._top_eig

        def popped(heap):
            entry = heapq.heappop(heap)
            pops.append([report.B.n - entry[1] + 1, 0])
            return entry

        def counted(*args, **kwargs):
            pops[-1][1] += 1
            return top_eig(*args, **kwargs)

        monkeypatch.setattr(gap, "heapq", types.SimpleNamespace(
            heappop=popped, heappush=heapq.heappush))
        monkeypatch.setattr(gap, "_top_eig", counted)
        report, group = cycle_group(29)
        r = branch_and_bound(report.B, automorphisms=group)
        assert r.certified
        # The pop that finds the queue's best bound at the incumbent is not
        # expanded.
        expanded = pops[:r.nodes_expanded]
        assert sum(solves for _, solves in expanded) == r.eigen_solves
        bounded = [solves for k, solves in expanded if k > gap._ENUM_FREE + 1]
        assert 0 < bounded.count(0) <= r.nodes_tied

    @pytest.mark.parametrize("space", [
        lambda: random_point_metric(30, 0),
        lambda: random_point_metric(40, 0),
        lambda: path_metric(gen_random_tree(40, seed=0)),
        lambda: path_metric(gen_random_tree(60, seed=1)),
    ], ids=["cloud30", "cloud40", "tree40", "tree60"])
    def test_trivial_group_runs_the_same_search(self, space):
        report = report_of(space())
        n = report.B.n
        group = automorphisms(report.A, report.u)
        assert group.shape == (0, n)
        plain = branch_and_bound(report.B)
        fields = list(gap.BnbResult.__dataclass_fields__)
        for trivial in (group, np.arange(n)[None, :]):
            r = branch_and_bound(report.B, automorphisms=trivial)
            assert np.array_equal(r.s_star, plain.s_star)
            assert ([getattr(r, f) for f in fields if f != "s_star"]
                    == [getattr(plain, f) for f in fields if f != "s_star"])
            assert r.nodes_symmetric == 0

    @pytest.mark.parametrize("n", [17, 19, 21])
    def test_group_follows_the_heavy_first_order(self, monkeypatch, n):
        # A path at p = 0.5: its reversal is a symmetry, and its B_ii differ,
        # so the search runs in heavy-first order with the group conjugated
        # by it.  A group left in the caller's order would drop nodes that
        # are no symmetric copies, and its asymmetry would swell delta.
        monkeypatch.setattr(gap, "_ENUM_FREE", 6)
        report = build_B(power_matrix(path_metric(gen_path(n)), 0.5))
        group = automorphisms(report.A, report.u)
        assert len(group) == 2
        assert gap._heavy_first(report.B.a.diagonal()) is not None
        r = branch_and_bound(report.B, automorphisms=group)
        v, _ = beta_hypercube(report.B)
        assert r.certified
        assert r.nodes_symmetric > 0
        assert abs(r.beta - v) <= r.delta <= 1e-9 * r.beta
        assert r.beta == float(r.s_star @ report.B.a @ r.s_star)
        assert r.s_star[0] == 1.0

    def test_group_not_closed_raises(self):
        report, group = cycle_group(9)
        b = report.B
        rotations = group[(group[:, 1] - group[:, 0]) % 9 == 1]
        bad_lists = [
            group[:-1],                       # one reflection missing
            group[1:],                        # no identity
            rotations[[0, 1]],                # the identity and one rotation
            np.concatenate((rotations, group[-1:], group[-1:])),
        ]
        for bad in bad_lists:
            with pytest.raises(ValueError, match="closed"):
                branch_and_bound(b, automorphisms=bad)
        not_permutation = group.copy()
        not_permutation[3, 0] = not_permutation[3, 1]
        with pytest.raises(ValueError, match="permutation"):
            branch_and_bound(b, automorphisms=not_permutation)
        # Closed lists, duplicates and any order of the rows are accepted.
        v, _ = beta_hypercube(b)
        for good in (rotations, group[::-1], np.concatenate((group, group[:5]))):
            r = branch_and_bound(b, automorphisms=good)
            assert r.certified
            assert abs(r.beta - v) <= r.delta

    @pytest.mark.parametrize("make", [
        lambda: path_metric(gen_cycle(9)),
        lambda: path_metric(gen_cycle(31)),
        lambda: path_metric(gen_cycle(61)),
        lambda: gen_discrete(5),
        lambda: path_metric(gen_path(12)),
    ], ids=["cycle9", "cycle31", "cycle61", "discrete5", "path12"])
    def test_leader_test_matches_loop(self, make):
        # The reference scans i = 1, 2, ... while sigma(0) and sigma(i) lie
        # in the prefix; the first image coordinate that differs decides.
        def reference(group, x):
            for sigma in group:
                for i in range(1, len(x)):
                    if sigma[0] >= len(x) or sigma[i] >= len(x):
                        break
                    image = x[sigma[0]] * x[sigma[i]]
                    if image != x[i]:
                        if image > x[i]:
                            return True
                        break
            return False

        report = report_of(make())
        n = report.B.n
        group = gap._check_group(automorphisms(report.A, report.u), n)
        rng = np.random.default_rng(n)
        for length in range(2, n + 1):
            tables = gap._symmetry_tables(group, length)
            for _ in range(40):
                x = np.concatenate(([1.0], rng.choice([-1.0, 1.0], length - 1)))
                if rng.random() < 0.3:
                    # Periodic prefixes agree with many images for long.
                    x = np.resize(x[: rng.integers(1, 4)], length)
                got = tables is not None and gap._non_leader(tables, x)
                # Runs are weighed up to position 52 at most.
                if length <= 53:
                    assert got == reference(group, x)
                elif got:
                    assert reference(group, x)

    def test_delta_covers_asymmetry(self, monkeypatch):
        # The 17-cycle's group, handed with a B that a symmetric
        # perturbation of 1e-6 moves off it.  For this draw the perturbed
        # maximum lies in a node the group drops, so beta falls short of it
        # by more than the rounding of any bound; delta must cover it.
        monkeypatch.setattr(gap, "_ENUM_FREE", 6)
        report, group = cycle_group(17)
        # The perturbation leaves the diagonal alone, which keeps the
        # diagonal's entries within rounding of each other: the search takes
        # the coordinates in index order, the order this draw is chosen for.
        e = np.random.default_rng(2).standard_normal((17, 17)) * 1e-6
        e += e.T
        np.fill_diagonal(e, 0.0)
        b = report.B.a + e
        r = branch_and_bound(b, automorphisms=group)
        v, _ = beta_hypercube(b)
        assert r.certified
        assert r.nodes_symmetric > 0
        assert v - r.beta > 1e-6
        assert v <= r.beta + r.delta
        # max over sigma of sum |B_ij - B_sigma(i)sigma(j)| bounds the rest.
        spread = max(float(np.abs(b[np.ix_(sigma, sigma)] - b).sum()) for sigma in group)
        assert r.delta >= spread


class TestWitness:
    @pytest.mark.parametrize("make", [
        lambda: power_matrix(gen_discrete(5), 1.0),
        lambda: power_matrix(path_metric(gen_cycle(7)), 1.0),
        lambda: power_matrix(path_metric(gen_random_tree(8, seed=6)), 1.0),
        lambda: power_matrix(random_point_metric(7, 42), 1.0),
    ])
    def test_witness_identities(self, make):
        from metricgap.negtype import oscillation

        ntm = make()
        gm = build_B(ntm)
        beta, s_star = beta_hypercube(gm.B)
        y0 = make_witness(gm, s_star)
        l1 = float(np.sum(np.abs(y0)))
        assert l1 == pytest.approx(beta, rel=1e-9)
        assert float(-y0 @ ntm.A.a @ y0) == pytest.approx(beta, rel=1e-9)
        assert oscillation(ntm.A.a @ y0, ntm.u) <= 1.0 + 1e-7
        # Equality case of the gap inequality at gamma = 2 / beta.
        gamma = 2.0 / beta
        residual = 0.5 * gamma * l1 * l1 + float(y0 @ ntm.A.a @ y0)
        assert abs(residual) <= 1e-6 * beta

    def test_witness_is_the_paper_formula(self):
        # B x is the paper's ((x | z) / M) z - A^{-1} x up to rounding.
        ntm = power_matrix(random_point_metric(9, 3), 1.0)
        gm = build_B(ntm)
        _, s_star = beta_hypercube(gm.B)
        y0 = make_witness(gm, s_star)
        x = s_star - (float(s_star @ gm.u) / float(gm.u @ gm.u)) * gm.u
        paper = (float(x @ gm.z) / gm.M) * gm.z - np.linalg.solve(ntm.A.a, x)
        assert np.max(np.abs(y0 - paper)) <= 1e-13 * np.max(np.abs(paper))

    def test_non_strict_report_refused(self):
        # The 4-cycle is of negative type but not strict: its report has no B.
        report = classify(power_matrix(path_metric(gen_cycle(4)), 1.0))
        with pytest.raises(NotStrict):
            make_witness(report, np.array([1.0, -1.0, 1.0, -1.0]))

    def test_two_point_witness(self):
        ntm = power_matrix(gen_discrete(2), 1.0)
        gm = build_B(ntm)
        beta, s_star = beta_hypercube(gm.B)
        y0 = make_witness(gm, s_star)
        assert np.allclose(np.abs(y0), [1.0, 1.0], atol=1e-12)
        assert float(np.sum(y0)) == pytest.approx(0.0, abs=1e-12)


class TestVerifyGapInequality:
    def test_clean_instance_passes(self):
        space = path_metric(gen_cycle(7))
        gamma = solve_gap(space).gamma
        rep = verify_gap_inequality(space, 1.0, gamma, trials=500, seed=1)
        assert rep.failures == 0
        assert rep.max_violation <= rep.tol

    def test_inflated_gamma_fails_on_witness(self):
        space = path_metric(gen_cycle(7))
        res = solve_gap(space)
        rep = verify_gap_inequality(
            space, 1.0, res.gamma, trials=10, seed=2, witness=res.witness_y0
        )
        assert rep.maximality_checked
        assert rep.maximality_violated

    def test_oversized_gamma_detected_in_random_trials(self):
        space = gen_discrete(6)
        gamma = solve_gap(space).gamma
        rep = verify_gap_inequality(space, 1.0, 3.0 * gamma, trials=500, seed=3)
        assert rep.failures > 0

    def test_deterministic_given_seed(self):
        space = gen_discrete(5)
        a = verify_gap_inequality(space, 1.0, 0.5, trials=50, seed=9)
        b = verify_gap_inequality(space, 1.0, 0.5, trials=50, seed=9)
        assert a.max_violation == b.max_violation


class TestSolveGap:
    def test_gamma_is_derived_from_beta(self):
        res = solve_gap(path_metric(gen_cycle(9)))
        assert res.gamma == 2.0 / res.beta

    def test_cross_checks_populated(self):
        res = solve_gap(gen_discrete(6))
        assert res.beta_by_opnorm == pytest.approx(res.beta, rel=1e-12)
        assert res.beta_by_binary == pytest.approx(res.beta, rel=1e-12)
        assert res.method == "gray_scan"

    def test_binary_cross_check_needs_constant_functional(self):
        # B w = 0 for this w, not B 1 = 0, so the 0/1 maximum is no
        # cross-check; the operator norm still is.
        n = 6
        w = np.random.default_rng(0).uniform(0.5, 2.0, n)
        a = -np.eye(n) + 3.0 * np.outer(w, w) / float(w @ w)
        report = classify(a, u=w)
        assert report.verdict == "StrictNegativeType"
        res = solve_gap(report)
        assert res.beta_by_binary is None
        assert res.beta_by_opnorm == pytest.approx(res.beta, rel=1e-12)
        s = res.s_star
        assert res.beta == float(s @ report.B.a @ s)

    def test_non_strict_refused(self):
        with pytest.raises(NotStrict):
            solve_gap(path_metric(gen_cycle(6)))

    def test_too_large_without_bnb(self):
        space = path_metric(gen_random_tree(9, seed=1))
        with pytest.raises(TooLarge):
            solve_gap(space, max_enum_n=8)

    def test_bnb_takes_over_past_cutoff(self):
        tree = gen_random_tree(14, seed=12)
        space = path_metric(tree)
        res = solve_gap(space, max_enum_n=10, use_bnb=True)
        assert res.method == "branch_and_bound"
        assert res.bnb_certified
        full = solve_gap(space)
        assert res.beta == full.beta

    def test_bnb_takes_over_past_ceiling(self, monkeypatch):
        # Past ENUM_CEILING, whatever max_enum_n says, branch-and-bound is
        # the route when asked for, and TooLarge otherwise; no sign table
        # is built either way.
        def no_tables(n):
            raise AssertionError(f"sign tables built for n = {n}")

        monkeypatch.setattr(gap, "_sign_blocks", no_tables)
        report = classify(power_matrix(gen_discrete(gap.ENUM_CEILING + 1), 1.0))
        res = solve_gap(report, max_enum_n=100, use_bnb=True, bnb_budget=3)
        assert res.method == "branch_and_bound"
        assert res.bnb.nodes_expanded <= 3
        with pytest.raises(TooLarge, match="ceiling"):
            solve_gap(report, max_enum_n=100)

    def test_bnb_certificate_fields(self, monkeypatch):
        # Past _ENUM_FREE + 1 points, so some nodes are pruned.  solve_gap
        # hands the search the 21-cycle's dihedral group, and keeps the
        # very BnbResult the search returns.
        calls = []

        def capture(*args, **kwargs):
            calls.append((kwargs["automorphisms"], branch_and_bound(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(gap, "branch_and_bound", capture)
        space = path_metric(gen_cycle(21))
        res = solve_gap(space, max_enum_n=20, use_bnb=True)
        [(group, r)] = calls
        assert res.bnb is r
        assert res.beta == r.beta and res.s_star is r.s_star
        assert res.bnb_certified is r.certified is True
        assert r.best_bound <= r.beta and r.delta > 0.0
        assert r.nodes_pruned > 0 and r.nodes_enumerated > 0 and r.nodes_symmetric > 0
        assert r.eigen_solves > 21
        assert r.group_order == len(group) == 42
        report = build_B(power_matrix(space, 1.0))
        np.testing.assert_array_equal(group, automorphisms(report.A, report.u))
        assert branch_and_bound(report.B).group_order == 1
        assert branch_and_bound(report.B, automorphisms=group[:1]).group_order == 1
        plain = solve_gap(space)
        assert plain.bnb is None and plain.bnb_certified is None

    def test_bnb_inside_cutoff_runs_enumeration_alone(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("branch_and_bound ran inside the cutoff")

        space = path_metric(gen_cycle(11))
        beta = solve_gap(space).beta
        monkeypatch.setattr(gap, "branch_and_bound", no_search)
        res = solve_gap(space, use_bnb=True)
        assert res.method == "gray_scan"
        assert res.bnb is None and res.bnb_certified is None
        assert res.beta == beta

    def test_accepts_prepared_matrix(self):
        ntm = power_matrix(gen_discrete(4), 1.0)
        assert solve_gap(ntm).gamma == pytest.approx(0.5, rel=1e-12)

    def test_accepts_classified_report(self):
        space = path_metric(gen_random_tree(9, seed=5))
        ntm = power_matrix(space, 1.0)
        direct = solve_gap(space)
        via_report = solve_gap(classify(ntm))
        assert via_report.beta == direct.beta
        assert np.array_equal(via_report.s_star, direct.s_star)
        assert np.array_equal(via_report.witness_y0, direct.witness_y0)
        with pytest.raises(NotStrict):
            solve_gap(classify(power_matrix(path_metric(gen_cycle(6)), 1.0)))

    def test_p_parameter(self):
        # At p = 0 every space looks discrete.
        space = path_metric(gen_random_tree(5, seed=8))
        res = solve_gap(space, p=0.0)
        from metricgap.closed_forms import gamma_discrete

        assert res.gamma == pytest.approx(gamma_discrete(5).gamma, rel=1e-9)

    def test_scale_covariance(self):
        # Distances scaled by c scale gamma by c and keep the maximizer.
        from metricgap.metric import validate_metric

        base = path_metric(gen_random_tree(8, seed=14))
        res = solve_gap(base)
        for c in (0.5, 3.0):
            scaled = validate_metric(c * base.d.a)
            res_c = solve_gap(scaled)
            assert res_c.gamma == pytest.approx(c * res.gamma, rel=1e-9)
            assert np.array_equal(res_c.s_star, res.s_star)
