"""Dense symmetric matrices, and the LAPACK wrappers the package calls.

SymMatrix is a symmetric matrix checked and frozen once, so that later
steps share it without copying.  Of the wrappers, negtype.classify calls
dsytrf (sized by dsytrf_lwork), dsytri and dsytrs itself for the pivoted
LDL^T of A (Bunch-Kaufman, with 1x1 and 2x2 diagonal blocks), and
gap._top_eig calls dsyevr.

They come from scipy's compiled _flapack module, loaded from its file on
its own: importing scipy.linalg.lapack to reach it would import all of
scipy.linalg.  The scipy package itself is imported first, since its
light init (not scipy.linalg's) makes the bundled BLAS and LAPACK
libraries loadable on some platforms.  The module is registered under
its scipy name, so a later scipy.linalg import reuses it and hands out
the very same wrapper objects.
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import numpy as np
import scipy

from .errors import AsymmetricInput, DimensionMismatch


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


class SymMatrix:
    """A real symmetric matrix, checked and frozen at construction.

    Entry pairs within ``1e-12 * max|a|`` of each other are averaged;
    anything worse raises AsymmetricInput.  The slack is relative to the
    matrix's scale, so a matrix and any power-of-two multiple of it are
    accepted or refused alike.  An exactly symmetric
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
            if gap > 1e-12 * scale:
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
