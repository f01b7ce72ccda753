"""Finite metric spaces, weighted graphs, and distance-power matrices.

Validation is strict: a distance matrix must be symmetric, zero on the
diagonal, nonnegative, and satisfy the triangle inequality to a relative
tolerance.  Distinct indices at distance zero are collapsed to a single
point with a warning rather than rejected, since they describe the same
metric space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraph,
    DuplicatePointsWarning,
    InvalidSize,
    NegativeDistance,
    NonzeroDiagonal,
    NotATree,
    TriangleViolation,
)
from .linalg import SymMatrix

# Relative slack for the triangle and diagonal checks; absorbs rounding from
# shortest-path accumulation without admitting genuine violations.
TRIANGLE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """A validated finite metric space.

    ``merged`` records groups of input indices that were collapsed because
    they sat at distance zero; empty when the input was already injective.
    """

    d: SymMatrix
    merged: tuple[tuple[int, ...], ...] = ()

    @property
    def n(self) -> int:
        return self.d.n


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with positive edge weights on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSize(f"graph needs at least one vertex, got {self.n}")
        seen = set()
        canonical = []
        for edge in self.edges:
            i, j, w = int(edge[0]), int(edge[1]), float(edge[2])
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InvalidSize(f"edge ({i},{j}) out of range for {self.n} vertices")
            if i == j:
                raise InvalidSize(f"self-loop at vertex {i}")
            if w <= 0.0 or not np.isfinite(w):
                raise NegativeDistance(f"edge ({i},{j}) has non-positive weight {w}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InvalidSize(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            canonical.append((key[0], key[1], w))
        object.__setattr__(self, "edges", tuple(canonical))


@dataclass(frozen=True, eq=False)
class NegTypeMatrix:
    """Entrywise p-th power of a validated metric's distance matrix.

    Coming from a metric, it has a direction of positive quadratic form
    whenever n >= 2.
    """

    A: SymMatrix
    p: float

    @property
    def n(self) -> int:
        return self.A.n


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        self.parent[self.find(i)] = self.find(j)


def validate_metric(raw) -> MetricSpace:
    """Check the metric axioms and build a MetricSpace.

    Accepts a SymMatrix or anything convertible to a square array; symmetry
    is enforced by the SymMatrix constructor, and the other axioms hold to
    the relative slack TRIANGLE_TOL.  Zero-distance pairs of
    distinct indices are collapsed (keeping the smallest index of each
    group) and reported through DuplicatePointsWarning and the ``merged``
    field.
    """
    d = raw if isinstance(raw, SymMatrix) else SymMatrix(raw)
    a = d.a
    n = d.n
    scale = d.max_abs
    tol = TRIANGLE_TOL * scale

    diag = np.abs(np.diag(a))
    if np.any(diag > tol):
        i = int(np.argmax(diag))
        raise NonzeroDiagonal(f"d({i},{i}) = {a[i, i]:.17g}")
    neg = a < -tol
    if np.any(neg):
        i, j = map(int, np.argwhere(neg)[0])
        raise NegativeDistance(f"d({i},{j}) = {a[i, j]:.17g}")

    # Full triangle check on the original matrix; this also catches
    # inconsistent rows among would-be duplicate points.  A sum that
    # overflows to inf is above every finite distance, as it should be.
    for k in range(n):
        lhs = a
        with np.errstate(over="ignore"):
            rhs = a[:, k, None] + a[None, k, :] + tol
        bad = lhs > rhs
        bad[k, :] = False
        bad[:, k] = False
        np.fill_diagonal(bad, False)
        if np.any(bad):
            i, j = map(int, np.argwhere(bad)[0])
            raise TriangleViolation(i, j, k, float(a[i, j]), float(a[i, k] + a[k, j]))

    # Collapse distance-zero pairs.
    close = (a <= tol) & ~np.eye(n, dtype=bool)
    if np.any(close):
        uf = _UnionFind(n)
        for i, j in np.argwhere(close):
            uf.union(int(i), int(j))
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(uf.find(i), []).append(i)
        keep = sorted(min(g) for g in groups.values())
        merged = tuple(tuple(sorted(g)) for g in sorted(groups.values()) if len(g) > 1)
        warnings.warn(
            f"collapsed {n - len(keep)} duplicate point(s) at distance zero",
            DuplicatePointsWarning,
            stacklevel=2,
        )
        a = a[np.ix_(keep, keep)].copy()
        np.fill_diagonal(a, 0.0)
        return MetricSpace(SymMatrix(a), merged=merged)

    return MetricSpace(d)


def power_matrix(x: MetricSpace, p: float) -> NegTypeMatrix:
    """Entrywise p-th power of the distance matrix.

    By the usual convention p = 0 sends every positive distance to 1, so
    the result is the all-ones matrix minus the identity regardless of the
    input geometry; IEEE's pow(x, 0) = 1, 0^0 included, gives it, and the
    diagonal is then zeroed.  A positive distance whose power overflows, or falls
    below the smallest normal float (where it would read as a zero or lose
    its precision), raises InvalidSize.  A negative or non-finite exponent
    raises ValueError.
    """
    if not (0 <= p < np.inf):
        raise ValueError(f"exponent must be a nonnegative finite number, got {p}")
    with np.errstate(over="ignore"):
        a = x.d.a ** p
    if not np.all(np.isfinite(a)):
        raise InvalidSize(f"distances to the power {p} overflow the float range")
    np.fill_diagonal(a, 0.0)
    under = (a < np.finfo(float).tiny) & (x.d.a > 0.0)
    np.fill_diagonal(under, False)
    if np.any(under):
        raise InvalidSize(f"distances to the power {p} underflow the float range")
    return NegTypeMatrix(SymMatrix(a), float(p))


def path_metric(g: WeightedGraph) -> MetricSpace:
    """Shortest-path metric of a connected weighted graph.

    Raises DisconnectedGraph when some pair has no path, and InvalidSize
    when the graph is connected but a shortest path is longer than the
    largest float.
    """
    n = g.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j, w in g.edges:
        if w < dist[i, j]:
            dist[i, j] = dist[j, i] = w
    # A path length that overflows reads as inf, no shorter than any path.
    with np.errstate(over="ignore"):
        for k in range(n):
            np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    if not np.all(np.isfinite(dist)):
        uf = _UnionFind(n)
        for i, j, _ in g.edges:
            uf.union(i, j)
        roots = np.array([uf.find(i) for i in range(n)])
        apart = np.argwhere(roots[:, None] != roots[None, :])
        if len(apart):
            i, j = map(int, apart[0])
            raise DisconnectedGraph(f"no path between vertices {i} and {j}")
        raise InvalidSize("shortest-path distances overflow the float range")
    return MetricSpace(SymMatrix(dist))


def is_tree(g: WeightedGraph) -> bool:
    """True when the graph is connected and acyclic."""
    if len(g.edges) != g.n - 1:
        return False
    uf = _UnionFind(g.n)
    for i, j, _ in g.edges:
        if uf.find(i) == uf.find(j):
            return False
        uf.union(i, j)
    return True


def gen_discrete(n: int) -> MetricSpace:
    """The discrete metric on n points: every nonzero distance is 1."""
    if n < 2:
        raise InvalidSize(f"discrete space needs n >= 2, got {n}")
    return MetricSpace(SymMatrix(np.ones((n, n)) - np.eye(n)))


def gen_cycle(n: int) -> WeightedGraph:
    """Unweighted cycle on n >= 3 vertices."""
    if n < 3:
        raise InvalidSize(f"cycle needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    return WeightedGraph(n, tuple(edges))


def gen_path(n: int, weights=None) -> WeightedGraph:
    """Path on n >= 2 vertices; weights default to all ones."""
    if n < 2:
        raise InvalidSize(f"path needs n >= 2, got {n}")
    if weights is None:
        weights = [1.0] * (n - 1)
    weights = [float(w) for w in weights]
    if len(weights) != n - 1:
        raise InvalidSize(f"path on {n} vertices needs {n - 1} weights, got {len(weights)}")
    return WeightedGraph(n, tuple((i, i + 1, w) for i, w in enumerate(weights)))


def gen_tree(edges, n: int | None = None) -> WeightedGraph:
    """Weighted tree from an edge list; vertex count is inferred if omitted."""
    edges = [(int(i), int(j), float(w)) for i, j, w in edges]
    if n is None:
        n = 1 + max((max(i, j) for i, j, _ in edges), default=0)
    g = WeightedGraph(n, tuple(edges))
    if not is_tree(g):
        raise NotATree(f"{len(g.edges)} edges on {n} vertices do not form a tree")
    return g


def gen_random_tree(n: int, weight_range=(0.1, 10.0), seed: int = 0) -> WeightedGraph:
    """Random tree: each vertex i >= 1 attaches to a uniform earlier vertex,
    with weights drawn uniformly from ``weight_range``."""
    if n < 2:
        raise InvalidSize(f"random tree needs n >= 2, got {n}")
    lo, hi = float(weight_range[0]), float(weight_range[1])
    if not (0.0 < lo <= hi):
        raise InvalidSize(f"bad weight range ({lo}, {hi})")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        w = float(rng.uniform(lo, hi))
        edges.append((parent, i, w))
    return WeightedGraph(n, tuple(edges))
