"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
happen; without -s they still appear in captured output for failures.
Instances are built once and shared across criteria, and the stated wall
clock budgets are asserted, so this file doubles as a performance check.
"""

import time

import numpy as np
import pytest

import metricgap as mg

from oracles import B_tree, beta_brute, inverse_cycle, inverse_tree, random_point_metric
from oracles import tree_two_coloring

TREE_COUNT = 50


def rel(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


class criterion:
    def __init__(self, num, label):
        self.num = num
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.num:2d}: {self.label}")
        return False


_cache = {}


def discrete_instances():
    """(space, n, result) for n = 2..12, plus the sweep's wall time."""
    if "discrete" not in _cache:
        t0 = time.perf_counter()
        rows = [(mg.gen_discrete(n), n, mg.solve_gap(mg.gen_discrete(n)))
                for n in range(2, 13)]
        _cache["discrete"] = (rows, time.perf_counter() - t0)
    return _cache["discrete"]


def cycle_instances():
    """Odd cycles solved, even ones classified; with the sweep's wall time."""
    if "cycles" not in _cache:
        t0 = time.perf_counter()
        odd = []
        even = []
        for n in range(3, 16, 2):
            space = mg.path_metric(mg.gen_cycle(n))
            odd.append((space, n, mg.solve_gap(space)))
        for n in range(4, 15, 2):
            space = mg.path_metric(mg.gen_cycle(n))
            even.append((space, n, mg.classify(mg.power_matrix(space, 1.0))))
        _cache["cycles"] = (odd, even, time.perf_counter() - t0)
    return _cache["cycles"]


def tree_instances():
    """50 seeded random trees with n <= 12 and weights in [0.1, 10]."""
    if "trees" not in _cache:
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        rows = []
        for i in range(TREE_COUNT):
            n = int(rng.integers(2, 13))
            tree = mg.gen_random_tree(n, weight_range=(0.1, 10.0), seed=7000 + i)
            space = mg.path_metric(tree)
            rows.append((tree, space, mg.solve_gap(space)))
        _cache["trees"] = (rows, time.perf_counter() - t0)
    return _cache["trees"]


def strict_instances():
    """Every strict (space, result) pair from criteria 1-3."""
    rows = [(space, res) for space, _, res in discrete_instances()[0]]
    rows += [(space, res) for space, _, res in cycle_instances()[0]]
    rows += [(space, res) for _, space, res in tree_instances()[0]]
    return rows


def test_criterion_01_discrete_gamma():
    with criterion(1, "discrete n=2..12 match the closed form (rel 1e-9, < 1 s)"):
        rows, elapsed = discrete_instances()
        for _, n, res in rows:
            assert rel(res.gamma, mg.gamma_discrete(n).gamma) <= 1e-9
        assert elapsed < 1.0, f"discrete sweep took {elapsed:.2f} s"


def test_criterion_02_cycles():
    with criterion(2, "odd cycles match the closed form, even ones are "
                      "non-strict with zero gap (< 5 s)"):
        odd, even, elapsed = cycle_instances()
        for _, n, res in odd:
            assert rel(res.gamma, mg.gamma_cycle(n).gamma) <= 1e-9
        for _, n, rep in even:
            assert rep.verdict == mg.NEGATIVE_TYPE_NON_STRICT
            assert mg.gamma_cycle(n).gamma == 0.0
        assert elapsed < 5.0, f"cycle sweep took {elapsed:.2f} s"


def test_criterion_03_random_trees_gamma():
    with criterion(3, f"{TREE_COUNT} random trees match 1/sum(1/w) "
                      "(rel 1e-8, < 10 s)"):
        rows, elapsed = tree_instances()
        assert len(rows) == TREE_COUNT
        for tree, _, res in rows:
            assert rel(res.gamma, mg.gamma_tree(tree).gamma) <= 1e-8
        assert elapsed < 10.0, f"tree sweep took {elapsed:.2f} s"


def test_criterion_04_tree_B_is_half_laplacian():
    with criterion(4, "pipeline B equals half the reciprocal-weight "
                      "Laplacian on trees (rel 1e-9)"):
        for tree, space, _ in tree_instances()[0]:
            gm = mg.build_B(mg.power_matrix(space, 1.0))
            closed = B_tree(tree)
            assert np.max(np.abs(gm.B.a - closed)) <= 1e-9 * np.max(np.abs(closed))


def test_criterion_05_closed_form_inverses():
    with criterion(5, "closed-form inverses invert the distance matrices "
                      "(max-entry 1e-10)"):
        for n in range(3, 16, 2):
            a = mg.power_matrix(mg.path_metric(mg.gen_cycle(n)), 1.0).A.a
            residual = inverse_cycle(n) @ a - np.eye(n)
            assert np.max(np.abs(residual)) <= 1e-10
        for tree, space, _ in tree_instances()[0]:
            a = mg.power_matrix(space, 1.0).A.a
            residual = inverse_tree(tree) @ a - np.eye(tree.n)
            assert np.max(np.abs(residual)) <= 1e-10


def test_criterion_06_three_routes_agree():
    with criterion(6, "gray scan, operator norm, and binary enumeration "
                      "agree on beta (rel 1e-8)"):
        for _, res in strict_instances():
            assert rel(res.beta_by_opnorm, res.beta) <= 1e-8
            assert rel(res.beta_by_binary, res.beta) <= 1e-8


def test_criterion_07_witness_identities():
    with criterion(7, "witness: ||y0||_1 = beta (1e-9), osc(A y0) <= 1 "
                      "(1e-7), equality residual <= 1e-6 beta"):
        for space, res in strict_instances():
            a = mg.power_matrix(space, 1.0).A.a
            y0 = res.witness_y0
            l1 = float(np.sum(np.abs(y0)))
            assert rel(l1, res.beta) <= 1e-9
            assert rel(float(-y0 @ a @ y0), res.beta) <= 1e-9
            assert mg.oscillation(a @ y0, np.ones(space.n)) <= 1.0 + 1e-7
            residual = 0.5 * res.gamma * l1 * l1 + float(y0 @ a @ y0)
            assert abs(residual) <= 1e-6 * res.beta


def test_criterion_08_randomized_inequality():
    with criterion(8, "1000 seeded zero-sum trials per instance satisfy the "
                      "gap inequality; inflating gamma by 1.0001 breaks it "
                      "at the witness"):
        for idx, (space, res) in enumerate(strict_instances()):
            rep = mg.verify_gap_inequality(
                space, 1.0, res.gamma, trials=1000, seed=idx,
                witness=res.witness_y0,
            )
            assert rep.failures == 0
            assert rep.max_violation <= rep.tol
            assert rep.maximality_violated
        for space, n, _ in cycle_instances()[1]:
            rep = mg.verify_gap_inequality(space, 1.0, 0.0, trials=1000, seed=n)
            assert rep.failures == 0


def test_criterion_09_gray_equals_naive():
    with criterion(9, "gray scan equals plain enumeration exactly, "
                      "including the maximizer, on 20 seeded instances"):
        instances = []
        for i in range(10):
            tree = mg.gen_random_tree(4 + (i % 9), seed=900 + i)
            instances.append(mg.path_metric(tree))
        for i in range(10):
            instances.append(random_point_metric(4 + (i % 9), seed=950 + i))
        assert len(instances) == 20
        for space in instances:
            ntm = mg.power_matrix(space, 1.0)
            assert mg.classify(ntm).verdict == mg.STRICT_NEGATIVE_TYPE
            b = mg.build_B(ntm).B
            got_v, got_s = mg.beta_hypercube(b)
            exp_v, exp_s = beta_brute(b.a)
            assert got_v == exp_v
            assert np.array_equal(got_s, exp_s)


def test_criterion_10_branch_and_bound():
    with criterion(10, "branch-and-bound is certified and agrees with "
                       "enumeration up to n = 20 (rel 1e-9)"):
        targets = [mg.build_B(mg.power_matrix(mg.path_metric(mg.gen_cycle(n)), 1.0)).B
                   for n in (9, 11, 13, 15)]
        targets += [mg.build_B(mg.power_matrix(mg.gen_discrete(n), 1.0)).B
                    for n in (10, 12)]
        for n in (16, 18, 20):
            tree = mg.gen_random_tree(n, seed=1000 + n)
            targets.append(mg.build_B(mg.power_matrix(mg.path_metric(tree), 1.0)).B)
        for b in targets:
            r = mg.branch_and_bound(b)
            v, _ = mg.beta_hypercube(b)
            assert r.certified
            assert rel(r.beta, v) <= 1e-9
        seven = mg.build_B(mg.power_matrix(mg.path_metric(mg.gen_cycle(7)), 1.0)).B
        r7 = mg.branch_and_bound(seven)
        assert r7.certified
        assert rel(r7.beta, 136.0 / 7.0) <= 1e-9


def test_criterion_11_scale_covariance():
    with criterion(11, "scaling distances by c scales gamma by c (rel 1e-9) "
                       "with an identical maximizer, c in {0.5, 3}"):
        bases = []
        for i in range(5):
            bases.append(mg.path_metric(mg.gen_random_tree(6 + i, seed=1100 + i)))
        for i in range(5):
            bases.append(random_point_metric(5 + i, seed=1150 + i))
        for base in bases:
            res = mg.solve_gap(base)
            for c in (0.5, 3.0):
                scaled = mg.validate_metric(c * base.d.a)
                res_c = mg.solve_gap(scaled)
                assert rel(res_c.gamma, c * res.gamma) <= 1e-9
                assert np.array_equal(res_c.s_star, res.s_star)


def test_criterion_12_large_instance():
    with criterion(12, "n = 24 completes the full pipeline in < 120 s and "
                       "the maximizer is the tree's two-coloring"):
        tree = mg.gen_random_tree(24, weight_range=(0.1, 10.0), seed=4242)
        space = mg.path_metric(tree)
        t0 = time.perf_counter()
        res = mg.solve_gap(space)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"n = 24 pipeline took {elapsed:.1f} s"
        assert rel(res.gamma, mg.gamma_tree(tree).gamma) <= 1e-8
        assert rel(res.beta_by_opnorm, res.beta) <= 1e-8
        assert rel(res.beta_by_binary, res.beta) <= 1e-8

        b = mg.build_B(mg.power_matrix(space, 1.0)).B.a
        assert np.array_equal(res.s_star, tree_two_coloring(tree))
        assert res.beta == float(res.s_star @ b @ res.s_star)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
