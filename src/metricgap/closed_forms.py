"""Closed-form gap constants and inverses for the three solved families:
discrete spaces, unweighted cycles, and weighted metric trees.

These are the independent oracles the generic pipeline is checked against.
Every formula here is evaluated directly from the family parameters; none
of it goes through factorization or enumeration.

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

from dataclasses import dataclass

import numpy as np

from .errors import EvenCycle, InvalidSize, NotATree
from .linalg import SymMatrix
from .metric import WeightedGraph, is_tree


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Closed-form gamma and beta for one instance; ``beta`` is None
    exactly when gamma is 0."""

    gamma: float
    beta: float | None


def gamma_discrete(n: int) -> OracleResult:
    """Discrete n-space: all nonzero distances equal 1.

    The maximum of (B s | s) is attained at balanced sign vectors, giving
    beta = n for even n and n - 1/n for odd n.
    """
    if n < 2:
        raise InvalidSize(f"discrete space needs n >= 2, got {n}")
    return OracleResult(
        gamma=0.5 * (1.0 / (n // 2) + 1.0 / ((n + 1) // 2)),
        beta=float(n) if n % 2 == 0 else n - 1.0 / n,
    )


def _shift_matrix(n: int, k: int) -> np.ndarray:
    """Permutation matrix sending coordinate i to i + k mod n."""
    m = np.zeros((n, n))
    m[np.arange(n), (np.arange(n) + k) % n] = 1.0
    return m


def cycle_binary_maximizer(n: int) -> np.ndarray:
    """Explicit 0/1 vector attaining the binary maximum for an odd cycle.

    For n = 2k + 1 the support is two antipodal-as-possible runs: indices
    1..m and 2m+1..3m+1 when k = 2m, indices 1..m and 2m+2..3m+2 when
    k = 2m + 1 (1-based positions on the cycle).
    """
    if n < 3 or n % 2 == 0:
        raise EvenCycle(f"binary maximizer is defined for odd n >= 3, got {n}")
    k = (n - 1) // 2
    x = np.zeros(n)
    if k % 2 == 0:
        m = k // 2
        first = range(1, m + 1)
        second = range(2 * m + 1, 3 * m + 2)
    else:
        m = (k - 1) // 2
        first = range(1, m + 1)
        second = range(2 * m + 2, 3 * m + 3)
    for pos in first:
        x[pos - 1] = 1.0
    for pos in second:
        x[pos - 1] = 1.0
    return x


def inverse_cycle(n: int) -> SymMatrix:
    """Closed-form inverse of the distance matrix of an odd cycle.

    With n = 2k + 1 and C the one-step cyclic shift,
    A^{-1} = -2I - C^k - C^{k+1} + ((2k+1) / (k (k+1))) 1 1^T.
    Even cycles have singular distance matrices, hence EvenCycle.
    """
    if n < 3:
        raise InvalidSize(f"cycle needs n >= 3, got {n}")
    if n % 2 == 0:
        raise EvenCycle(f"the distance matrix of the {n}-cycle is singular")
    k = (n - 1) // 2
    a_inv = (
        -2.0 * np.eye(n)
        - _shift_matrix(n, k)
        - _shift_matrix(n, k + 1)
        + (n / (k * (k + 1.0))) * np.ones((n, n))
    )
    return SymMatrix(a_inv)


def gamma_cycle(n: int) -> OracleResult:
    """Unweighted cycle with the shortest-path metric.

    Odd n = 2k + 1: gamma = n / (2 (n^2 - 2n - 1)) and
    beta = 4 (4k^2 - 2) / (2k + 1), four times the binary maximum that
    cycle_binary_maximizer attains.  Even n: the space is non-strict and
    gamma = 0.
    """
    if n < 3:
        raise InvalidSize(f"cycle needs n >= 3, got {n}")
    if n % 2 == 0:
        return OracleResult(gamma=0.0, beta=None)
    k = (n - 1) // 2
    return OracleResult(
        gamma=0.5 * n / (n * n - 2.0 * n - 1.0),
        beta=4.0 * ((4.0 * k * k - 2.0) / n),
    )


def _reciprocal_laplacian(tree: WeightedGraph) -> np.ndarray:
    """Graph Laplacian built on reciprocal edge weights."""
    n = tree.n
    lap = np.zeros((n, n))
    for i, j, w in tree.edges:
        lap[i, j] -= 1.0 / w
        lap[j, i] -= 1.0 / w
        lap[i, i] += 1.0 / w
        lap[j, j] += 1.0 / w
    return lap


def _require_tree(tree: WeightedGraph):
    if tree.n < 2:
        raise InvalidSize(f"tree needs n >= 2, got {tree.n}")
    if not is_tree(tree):
        raise NotATree(f"{len(tree.edges)} edges on {tree.n} vertices do not form a tree")


def B_tree(tree: WeightedGraph) -> SymMatrix:
    """Corrected matrix of a weighted tree: half the reciprocal-weight
    Laplacian."""
    _require_tree(tree)
    return SymMatrix(0.5 * _reciprocal_laplacian(tree))


def inverse_tree(tree: WeightedGraph) -> SymMatrix:
    """Closed-form inverse of the path-distance matrix of a weighted tree.

    A^{-1} = -(1/2) L + (1 / (2 sum w)) delta delta^T, where L is the
    reciprocal-weight Laplacian and delta_i = 2 - deg(i).
    """
    _require_tree(tree)
    lap = _reciprocal_laplacian(tree)
    delta = 2.0 - tree.degree_sequence().astype(float)
    total = 2.0 * sum(w for _, _, w in tree.edges)
    return SymMatrix(-0.5 * lap + np.outer(delta, delta) / total)


def tree_two_coloring(tree: WeightedGraph) -> np.ndarray:
    """Sign vector from the bipartition of the tree, +1 on vertex 0's side.

    This is the maximizing sign vector of (B s | s) for trees: every edge
    then joins opposite signs, so the value is 2 sum(1/w), the closed-form
    beta.
    """
    _require_tree(tree)
    adj: list[list[int]] = [[] for _ in range(tree.n)]
    for i, j, _ in tree.edges:
        adj[i].append(j)
        adj[j].append(i)
    signs = np.zeros(tree.n)
    signs[0] = 1.0
    stack = [0]
    while stack:
        v = stack.pop()
        for w in sorted(adj[v]):
            if signs[w] == 0.0:
                signs[w] = -signs[v]
                stack.append(w)
    return signs


def gamma_tree(tree: WeightedGraph) -> OracleResult:
    """Weighted metric tree: gamma = 1 / sum(1/w_e), beta = 2 sum(1/w_e).

    B_tree, inverse_tree and tree_two_coloring give the tree's B, inverse
    and maximizing sign vector.
    """
    _require_tree(tree)
    recip = sum(1.0 / w for _, _, w in tree.edges)
    return OracleResult(gamma=1.0 / recip, beta=2.0 * recip)
