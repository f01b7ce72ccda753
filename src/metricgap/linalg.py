"""Dense symmetric linear algebra sized for matrices up to a few hundred rows.

Distance-power matrices have a zero diagonal and are indefinite, so the
workhorse factorization is a pivoted LDL^T (Bunch-Kaufman with 1x1 and 2x2
diagonal blocks) rather than Cholesky.  It is kept as LAPACK's dsytrf
leaves it, L and D packed into one n x n array beside the pivot vector, and
solves and inverses hand that back to LAPACK (dsytrs, dsytri).  Singularity
is a reported state of the factorization, not an exception; it only becomes
an error when a solve is attempted.

The LAPACK wrappers, these four and the dsyevr of gap._top_eig, come from
scipy's compiled _flapack module, loaded from its file on its own:
importing scipy.linalg.lapack to reach it would import all of scipy.linalg.
The scipy package itself is imported first, since its light init (not
scipy.linalg's) makes the bundled BLAS and LAPACK libraries loadable on
some platforms.  The module is registered under its scipy name, so a
later scipy.linalg import reuses it and hands out the very same wrapper
objects.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import numpy as np
import scipy

from .errors import AsymmetricInput, DimensionMismatch, SingularSystem


def _load_flapack():
    """scipy.linalg._flapack, from sys.modules or else from its file."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    folder = Path(scipy.__file__).parent / "linalg"
    paths = [folder / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"no compiled _flapack module in {folder}")
    loader = ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
dsyevr, dsytrf, dsytrf_lwork, dsytri, dsytrs = (
    _flapack.dsyevr, _flapack.dsytrf, _flapack.dsytrf_lwork, _flapack.dsytri, _flapack.dsytrs)

# Pivot magnitudes below this fraction of the largest entry flag the matrix
# as numerically singular.
DEFAULT_PIVOT_TOL = 1e-10


class SymMatrix:
    """A real symmetric matrix, checked and frozen at construction.

    Entry pairs within ``1e-12 * max(1, max|a|)`` of each other are
    averaged; anything worse raises AsymmetricInput.  An exactly symmetric
    input is kept as it is, and another is averaged as a / 2 + a^T / 2,
    which cannot overflow.  The backing array is marked read-only so
    downstream code can share it without copying.
    """

    __slots__ = ("a",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionMismatch("matrix must have at least one row")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if not (a == a.T).all():
            scale = float(np.max(np.abs(a)))
            with np.errstate(over="ignore"):
                diff = np.abs(a - a.T)
            gap = float(np.max(diff))
            if gap > 1e-12 * max(scale, 1.0):
                i, j = np.unravel_index(int(np.argmax(diff)), a.shape)
                raise AsymmetricInput(
                    f"entries ({i},{j}) and ({j},{i}) differ by {gap:.3e}"
                )
            a = 0.5 * a + 0.5 * a.T
        a.setflags(write=False)
        self.a = a

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.a)))

    def __getitem__(self, idx):
        return self.a[idx]

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.a, dtype=dtype)
        return np.asarray(self.a, dtype=dtype)

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n}, max_abs={self.max_abs:.6g})"


@dataclass(frozen=True, eq=False)
class Factorization:
    """Pivoted LDL^T factorization of a symmetric matrix, as LAPACK's dsytrf
    leaves it for the lower triangle.

    ``packed`` holds the 1x1 and 2x2 blocks of D on its diagonal and first
    subdiagonal and the multipliers of the unit lower triangular L below
    them; its strict upper triangle is unused.  ``pivots`` is dsytrf's
    1-based ipiv: a positive entry k at row i means rows i and k were
    swapped for a 1x1 pivot, and the rows i, i+1 of a 2x2 block both carry
    -k, where rows i+1 and k were swapped.
    """

    packed: np.ndarray
    pivots: np.ndarray
    singular_flag: bool
    min_pivot_ratio: float

    @property
    def n(self) -> int:
        return self.packed.shape[0]


def factor(m: SymMatrix, tol: float = DEFAULT_PIVOT_TOL) -> Factorization:
    """Factor a symmetric matrix, reporting near-singularity instead of raising.

    The singular flag is set when the smallest pivot magnitude falls below
    ``tol * max|m|``.  A 2x2 block contributes the magnitudes of both its
    eigenvalues, so a nonsingular block with tiny diagonal (the usual shape
    for zero-diagonal inputs) is not mistaken for a near-zero pivot.  An
    all-zero matrix is singular by convention.
    """
    n = m.n
    packed, pivots, _ = dsytrf(m.a, lower=1, lwork=int(dsytrf_lwork(n, lower=1)[0]))
    scale = m.max_abs
    if scale == 0.0:
        return Factorization(packed, pivots, True, 0.0)
    # Both rows of a 2x2 block carry the same negative pivot, and so may two
    # adjacent blocks, so each run of negative pivots pairs up from its start.
    rows = np.arange(n)
    neg = pivots < 0
    run_start = np.maximum.accumulate(np.where(neg, 0, rows + 1))
    k = rows[neg & ((rows - run_start) % 2 == 0)]
    blocks = np.empty((k.shape[0], 2, 2))
    blocks[:, 0, 0] = packed[k, k]
    blocks[:, 1, 1] = packed[k + 1, k + 1]
    blocks[:, 0, 1] = blocks[:, 1, 0] = packed[k + 1, k]
    mags = np.abs(packed.diagonal())
    mags[neg] = np.abs(np.linalg.eigvalsh(blocks)).reshape(-1)
    ratio = float(mags.min()) / scale
    return Factorization(packed, pivots, bool(ratio < tol), ratio)


def _check_nonsingular(f: Factorization) -> None:
    if f.singular_flag:
        raise SingularSystem(
            f"matrix flagged singular (min pivot ratio {f.min_pivot_ratio:.3e})"
        )


def solve(f: Factorization, b) -> np.ndarray:
    """Solve ``a @ x = b`` through the factorization.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    _check_nonsingular(f)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != f.n:
        raise DimensionMismatch(f"right-hand side has {b.shape[0]} rows, expected {f.n}")
    return dsytrs(f.packed, f.pivots, b, lower=1)[0]


def invert(f: Factorization) -> SymMatrix:
    """Full inverse through the factorization.

    LAPACK's dsytri writes the lower triangle of the inverse, which is
    mirrored, so the result is exactly symmetric.
    """
    _check_nonsingular(f)
    x, info = dsytri(f.packed, f.pivots, lower=1)
    if info != 0:
        raise SingularSystem(f"zero pivot in row {info}")
    x = np.tril(x)
    x += np.tril(x, -1).T
    return SymMatrix(x)


def eigenvalues_sym(m: SymMatrix) -> np.ndarray:
    """All eigenvalues, ascending."""
    return np.linalg.eigvalsh(m.a)

