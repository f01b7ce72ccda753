"""Test-side reference implementations, deliberately primitive.

Nothing here shares code with the package: determinants come from cofactor
expansion, the sign-vector maximum from a plain product loop, the closed
forms of odd cycles and trees (inverses, B, maximizers) from loops over n
or the edges.  These are the oracles expected values are frozen against.
They assume valid input (an odd cycle, a tree), and import no test module,
so they also load by file path with only the package on the path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from metricgap import validate_metric


def det_cofactor(a) -> float:
    """Determinant by first-row cofactor expansion; fine for n <= 6."""
    a = [list(map(float, row)) for row in np.asarray(a)]
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1.0) ** j * a[0][j] * det_cofactor(minor)
    return total


def beta_brute(b) -> tuple[float, np.ndarray]:
    """Maximum of float(s @ b @ s) over sign vectors with s[0] = +1.

    Ties resolve to the lexicographically smallest sign tuple, matching the
    documented tie-break contract.  Uses itertools.product, so the visit
    order and bookkeeping share nothing with the package's sign-table kernel.
    """
    arr = np.asarray(b, dtype=float)
    n = arr.shape[0]
    best_v = -math.inf
    best_s: tuple | None = None
    for tail in itertools.product((-1.0, 1.0), repeat=n - 1):
        s = np.array((1.0,) + tail)
        v = float(s @ arr @ s)
        key = tuple(s)
        if v > best_v or (v == best_v and key < best_s):
            best_v = v
            best_s = key
    return best_v, np.array(best_s)


def opnorm_brute(b) -> float:
    """Maximum of ||b s||_1 over sign vectors with s[0] = +1, plain product loop."""
    arr = np.asarray(b, dtype=float)
    n = arr.shape[0]
    best = -math.inf
    for tail in itertools.product((-1.0, 1.0), repeat=n - 1):
        s = np.array((1.0,) + tail)
        best = max(best, float(np.abs(arr @ s).sum()))
    return best


def binary_brute(b) -> float:
    """Maximum of (b x | x) over all 0/1 vectors, full 2^n loop."""
    arr = np.asarray(b, dtype=float)
    n = arr.shape[0]
    best = -math.inf
    for bits in itertools.product((0.0, 1.0), repeat=n):
        x = np.array(bits)
        best = max(best, float(x @ arr @ x))
    return best


def random_point_metric(n: int, seed: int, dim: int = 3):
    """Euclidean distance matrix of a random point cloud; strict at p = 1."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    return validate_metric(d)


def cycle_binary_maximizer(n: int) -> np.ndarray:
    """0/1 vector attaining the maximum of (B x | x) on the odd n-cycle.

    For n = 2k + 1 the support is two antipodal-as-possible runs: 1-based
    positions 1..m and 2m+1..3m+1 when k = 2m, and 1..m and 2m+2..3m+2
    when k = 2m + 1.
    """
    k = (n - 1) // 2
    m = k // 2
    second = 2 * m + 1 + k % 2
    x = np.zeros(n)
    for pos in [*range(1, m + 1), *range(second, second + m + 1)]:
        x[pos - 1] = 1.0
    return x


def inverse_cycle(n: int) -> np.ndarray:
    """Inverse of the odd n = 2k + 1 cycle's distance matrix, indices mod n:
    n / (k (k + 1)) - 2 [j = i] - [j = i + k] - [j = i + k + 1]."""
    k = (n - 1) // 2
    inv = np.full((n, n), n / (k * (k + 1.0)))
    for i in range(n):
        inv[i, i] -= 2.0
        inv[i, (i + k) % n] -= 1.0
        inv[i, (i + k + 1) % n] -= 1.0
    return inv


def B_tree(tree) -> np.ndarray:
    """B of a weighted tree: half the Laplacian on reciprocal edge weights."""
    lap = np.zeros((tree.n, tree.n))
    for i, j, w in tree.edges:
        lap[i, j] -= 1.0 / w
        lap[j, i] -= 1.0 / w
        lap[i, i] += 1.0 / w
        lap[j, j] += 1.0 / w
    return 0.5 * lap


def inverse_tree(tree) -> np.ndarray:
    """Inverse of a weighted tree's path-distance matrix:
    -B + delta delta^T / (2 sum w), with delta_i = 2 - deg(i)."""
    delta = np.full(tree.n, 2.0)
    for i, j, _ in tree.edges:
        delta[i] -= 1.0
        delta[j] -= 1.0
    return -B_tree(tree) + np.outer(delta, delta) / (2.0 * sum(w for _, _, w in tree.edges))


def tree_two_coloring(tree) -> np.ndarray:
    """The tree's bipartition as a sign vector, +1 on vertex 0's side; every
    edge joins opposite signs, so (B s | s) = 2 sum(1/w), the closed-form beta."""
    signs = np.zeros(tree.n)
    signs[0] = 1.0
    while not signs.all():
        for i, j, _ in tree.edges:
            if signs[i] == 0.0:
                signs[i] = -signs[j]
            elif signs[j] == 0.0:
                signs[j] = -signs[i]
    return signs
