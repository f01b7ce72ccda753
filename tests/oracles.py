"""Test-side reference implementations, deliberately primitive.

Nothing here shares code with the package: determinants come from cofactor
expansion, the sign-vector maximum from a plain product loop.  These are
the oracles expected values are frozen against.
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
