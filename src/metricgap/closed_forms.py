"""Closed-form gap constants for the three solved families: discrete
spaces, unweighted cycles, and weighted metric trees.

These are the independent oracles the generic pipeline is checked against.
Each returns gamma and beta only, evaluated directly from the family
parameters; none of it builds a matrix or goes through factorization or
enumeration.  The closed-form inverses, the tree's B and
the explicit maximizers, which only tests use, live in tests/oracles.py.

Family results at exponent 1:

  * discrete n-space      gamma = (1/floor(n/2) + 1/ceil(n/2)) / 2
  * cycle, odd n          gamma = n / (2 (n^2 - 2n - 1))
  * cycle, even n         gamma = 0 (non-strict; the distance matrix is
                          singular)
  * tree, weights w_e     gamma = 1 / sum(1/w_e)

The sign-vector maximum beta satisfies gamma * beta = 2 in the strict
cases.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .errors import InvalidSize, NotATree
from .metric import WeightedGraph, is_tree


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Closed-form gamma and beta for one instance; ``beta`` is None
    exactly when gamma is 0."""

    gamma: float
    beta: float | None


def _size(n, least: int, family: str) -> int:
    """``n`` as an int, raising InvalidSize unless it is an integer of at
    least ``least``.  NumPy's integers count, and bool does not."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise InvalidSize(f"{family} needs an integer n, got {n!r}")
    if n < least:
        raise InvalidSize(f"{family} needs n >= {least}, got {n}")
    return int(n)


def gamma_discrete(n: int) -> OracleResult:
    """Discrete n-space: all nonzero distances equal 1.

    The maximum of (B s | s) is attained at balanced sign vectors, giving
    beta = n for even n and n - 1/n for odd n.
    """
    n = _size(n, 2, "discrete space")
    return OracleResult(
        gamma=0.5 * (1.0 / (n // 2) + 1.0 / ((n + 1) // 2)),
        beta=float(n) if n % 2 == 0 else n - 1.0 / n,
    )


def gamma_cycle(n: int) -> OracleResult:
    """Unweighted cycle with the shortest-path metric.

    Odd n = 2k + 1: gamma = n / (2 (n^2 - 2n - 1)) and
    beta = 4 (4k^2 - 2) / (2k + 1), four times the maximum of (B x | x)
    over 0/1 vectors.  Even n: the space is non-strict and gamma = 0.
    """
    n = _size(n, 3, "cycle")
    if n % 2 == 0:
        return OracleResult(gamma=0.0, beta=None)
    k = (n - 1) // 2
    return OracleResult(
        gamma=0.5 * n / (n * n - 2.0 * n - 1.0),
        beta=4.0 * ((4.0 * k * k - 2.0) / n),
    )


def _require_tree(tree: WeightedGraph):
    if tree.n < 2:
        raise InvalidSize(f"tree needs n >= 2, got {tree.n}")
    if not is_tree(tree):
        raise NotATree(f"{len(tree.edges)} edges on {tree.n} vertices do not form a tree")


def gamma_tree(tree: WeightedGraph) -> OracleResult:
    """Weighted metric tree: gamma = 1 / sum(1/w_e), beta = 2 sum(1/w_e).

    B is half the reciprocal-weight Laplacian, and the tree's bipartition
    is a maximizing sign vector: every edge joins opposite signs.
    """
    _require_tree(tree)
    recip = sum(1.0 / w for _, _, w in tree.edges)
    return OracleResult(gamma=1.0 / recip, beta=2.0 * recip)
