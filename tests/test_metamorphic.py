"""Metamorphic relations: changes to an input that its exact answer does
not see, checked on every route against itself.

Hypothesis draws the inputs, 3-D point clouds, weighted trees and odd
cycles at p = 1, and the changes: a renaming of the points, or a scaling of
every distance by a power of two.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgap.gap import branch_and_bound, solve_gap
from metricgap.metric import gen_cycle, gen_random_tree, path_metric, power_matrix, validate_metric
from metricgap.negtype import STRICT_NEGATIVE_TYPE, _rounding_guard, classify

from oracles import random_point_metric

SETTINGS = dict(deadline=None, derandomize=True, database=None)


@st.composite
def spaces(draw, families, least, most):
    """A metric space of one of ``families`` on least..most points; a cycle
    takes the odd size at or below the one drawn."""
    family = draw(st.sampled_from(families))
    n = draw(st.integers(least, most))
    seed = draw(st.integers(0, 2**32 - 1))
    if family == "cloud":
        return random_point_metric(n, seed)
    if family == "tree":
        return path_metric(gen_random_tree(n, weight_range=(0.1, 10.0), seed=seed))
    return path_metric(gen_cycle(n - 1 + n % 2))


def relabelled(space, perm):
    """The same space with point perm[i] renamed i."""
    return validate_metric(space.d.a[np.ix_(perm, perm)])


@settings(max_examples=40, **SETTINGS)
@given(data=st.data())
def test_relabelling_keeps_verdict_and_beta(data):
    space = data.draw(spaces(["cloud", "tree", "cycle"], 4, 12))
    perm = np.array(data.draw(st.permutations(range(space.n))))
    report = classify(power_matrix(space, 1.0))
    other = classify(power_matrix(relabelled(space, perm), 1.0))
    assert other.verdict == report.verdict == STRICT_NEGATIVE_TYPE
    beta, other_beta = solve_gap(report).beta, solve_gap(other).beta
    assert abs(beta - other_beta) <= max(_rounding_guard(report.B.a), _rounding_guard(other.B.a))


@settings(max_examples=40, **SETTINGS)
@given(data=st.data())
def test_scaling_by_a_power_of_two_scales_gamma_exactly(data):
    # Every step scales exactly, and every threshold is relative, so the
    # spectrum follows 2^k and the margins stay put, bit for bit, as do
    # gamma and each cross-check, with the maximizer unchanged.
    space = data.draw(spaces(["cloud", "tree", "cycle"], 4, 12))
    k = data.draw(st.integers(-30, 30))
    report = classify(power_matrix(space, 1.0))
    scaled_report = classify(power_matrix(validate_metric(np.ldexp(space.d.a, k)), 1.0))
    assert np.array_equal(scaled_report.projected_spectrum,
                          np.ldexp(report.projected_spectrum, k))
    assert scaled_report.margins == report.margins
    r, scaled = solve_gap(report), solve_gap(scaled_report)
    assert scaled.gamma == math.ldexp(r.gamma, k)
    assert scaled.beta == math.ldexp(r.beta, -k)
    assert scaled.beta_by_opnorm == math.ldexp(r.beta_by_opnorm, -k)
    assert scaled.beta_by_binary == math.ldexp(r.beta_by_binary, -k)
    assert np.array_equal(scaled.s_star, r.s_star)


@settings(max_examples=8, **SETTINGS)
@given(data=st.data())
def test_relabelled_branch_and_bound_agrees_within_delta(data):
    # Past the enumeration of the root, renamed points change the greedy
    # incumbent, the heavy-first order and every pruning; each certified
    # beta is the canonical value of its own maximizer and lies within the
    # other's delta, a rounding allowance far below beta.  The deltas are
    # not compared with each other: the top eigenvalue solver is not
    # exactly scale- or order-covariant.
    space = data.draw(spaces(["cloud", "cycle"], 17, 25))
    perm = np.array(data.draw(st.permutations(range(space.n))))
    results = []
    for x in (space, relabelled(space, perm)):
        report = classify(power_matrix(x, 1.0))
        r = branch_and_bound(report, budget=3000)
        assert r.certified
        assert r.s_star[0] == 1.0
        assert r.beta == float(r.s_star @ report.B.a @ r.s_star)
        assert r.delta <= 1e-9 * r.beta
        results.append(r)
    a, b = results
    assert a.beta <= b.beta + b.delta
    assert b.beta <= a.beta + a.delta
