"""Sign classification of the constrained quadratic form, and the matrices
that carry the gap computation.

Everything here works with a symmetric matrix A and a nonzero functional u.
The form (A x | x) is examined on the hyperplane F of vectors orthogonal to
u.  Three verdicts are possible:

  * NotNegativeType        the form is positive somewhere on F
  * NegativeTypeNonStrict  nonpositive on F, but vanishing on some x != 0
  * StrictNegativeType     negative on all of F except the origin

In the strict case, provided the form is positive somewhere off F, the
constrained maximum M = sup {(A x | x) : x in F_1} is finite and equals
1 / (A^{-1} u | u), attained up to sign at z = M A^{-1} u, where F_1 is the
set of x in F with unit-oscillation image A x.  The rank-one corrections

    C = M u u^T - A          (positive semidefinite, kernel spanned by z)
    B = (1/M) z z^T - A^{-1} (positive semidefinite, kernel spanned by u)

convert the constrained problem into an unconstrained maximum of (B x | x)
over sign vectors; that enumeration lives in the gap module.

A NegTypeMatrix is built from a validated metric and so is positive in
some direction whenever n >= 2; that hypothesis is only verified for raw
inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotStrict,
    PositiveDirectionMissing,
    ZeroFunctional,
)
from .linalg import (
    DEFAULT_PIVOT_TOL,
    Factorization,
    SymMatrix,
    eigenvalues_sym,
    factor,
    invert,
    solve,
)
from .metric import NegTypeMatrix

NOT_NEGATIVE_TYPE = "NotNegativeType"
NEGATIVE_TYPE_NON_STRICT = "NegativeTypeNonStrict"
STRICT_NEGATIVE_TYPE = "StrictNegativeType"

# Quantities within this factor of their tolerance set the marginal flag on
# the report.
MARGINAL_FACTOR = 10.0


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances for the zero tests in classification.

    Each is scaled by the natural magnitude of the quantity it guards:
    factorization pivots by max|A|, projected eigenvalues by max|A|, and
    the strictness test on (A^{-1} u | u) by max|A^{-1}| times the squared
    1-norm of u.
    """

    factor_pivot: float = DEFAULT_PIVOT_TOL
    eig: float = 1e-9
    strict: float = 1e-9


@dataclass(frozen=True, eq=False)
class NegTypeReport:
    """Outcome of classification, with the quantities that downstream steps
    reuse, so each input is analyzed once.

    ``A`` and ``u`` are the analyzed matrix and functional.  The later
    fields are None whenever the verdict makes them meaningless: the
    factorization exists once A is of negative type, and M, z and B only
    in the strict case.  B is built eagerly with its B u residual checked;
    C is built on first read, when its C z residual is checked.
    """

    verdict: str
    projected_spectrum: np.ndarray
    has_positive_direction: bool
    marginal: bool
    notes: tuple[str, ...]
    A: SymMatrix
    u: np.ndarray
    factorization: Factorization | None = None
    M: float | None = None
    z: np.ndarray | None = None
    B: SymMatrix | None = None

    @functools.cached_property
    def C(self) -> SymMatrix:
        """C = M u u^T - A, positive semidefinite with kernel spanned by z."""
        if self.verdict != STRICT_NEGATIVE_TYPE:
            raise NotStrict(f"verdict is {self.verdict}; C is defined only in the strict case")
        c = SymMatrix(self.M * np.outer(self.u, self.u) - self.A.a, sym_tol=1e-8)
        _check_kernel("C z", c, self.z)
        return c


def project_to_F(a: SymMatrix, u) -> SymMatrix:
    """Compress A to an orthonormal basis of the hyperplane orthogonal to u.

    The basis is the trailing n-1 columns of the Householder reflection
    sending u to a multiple of the first coordinate axis, so the output is
    (n-1) x (n-1) and its spectrum is the spectrum of A restricted to F.
    """
    u = np.asarray(u, dtype=float)
    n = a.n
    if u.shape != (n,):
        raise ZeroFunctional(f"functional of shape {u.shape} against matrix of size {n}")
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        raise ZeroFunctional("functional is identically zero")
    if n < 2:
        raise ValueError("projection needs n >= 2")
    unit = u / norm
    v = unit.copy()
    sign = 1.0 if unit[0] >= 0.0 else -1.0
    v[0] += sign
    v /= np.linalg.norm(v)
    h = np.eye(n) - 2.0 * np.outer(v, v)
    q = h[:, 1:]
    return SymMatrix(q.T @ a.a @ q, sym_tol=1e-10)


def oscillation(x, u) -> float:
    """Oscillation of x relative to u.

    On the support of u this is the largest normalized cross difference
    |u_i x_j - u_j x_i| / (|u_i| + |u_j|); off the support it is |x_i|.
    For the all-ones functional it reduces to half the spread of x.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != u.shape:
        raise ZeroFunctional(f"shapes {x.shape} and {u.shape} differ")
    supp = u != 0.0
    if not np.any(supp):
        raise ZeroFunctional("functional is identically zero")
    us, xs = u[supp], x[supp]
    num = np.abs(np.outer(us, xs) - np.outer(xs, us))
    den = np.abs(us)[:, None] + np.abs(us)[None, :]
    best = float(np.max(num / den))
    if np.any(~supp):
        best = max(best, float(np.max(np.abs(x[~supp]))))
    return best


def _check_kernel(label: str, m: SymMatrix, v: np.ndarray) -> None:
    # Construction guarantees m v = 0; a large residual indicates broken
    # numerics rather than bad input.
    res = float(np.max(np.abs(m.a @ v)))
    scale = max(m.max_abs * float(np.sum(np.abs(v))), 1e-300)
    if res > 1e-8 * scale:
        raise ArithmeticError(f"kernel residual too large: |{label}| = {res:.3e}")


def _analyze(a: SymMatrix, u: np.ndarray, from_metric: bool, tols: Tolerances) -> NegTypeReport:
    n = a.n
    if n < 2:
        raise PositiveDirectionMissing(
            "a single point admits no direction of positive quadratic form"
        )
    scale = max(a.max_abs, 0.0)
    eig_tol = tols.eig * max(scale, 1e-300)
    notes: list[str] = []

    spectrum = eigenvalues_sym(project_to_F(a, u))
    top = float(spectrum[-1])
    not_negative = top > eig_tol
    if abs(top) <= MARGINAL_FACTOR * eig_tol:
        notes.append("largest projected eigenvalue within marginal band of zero")

    if from_metric:
        has_positive = True
    else:
        full_top = float(eigenvalues_sym(a)[-1])
        has_positive = full_top > eig_tol
        if abs(full_top) <= MARGINAL_FACTOR * eig_tol:
            notes.append("largest unconstrained eigenvalue within marginal band of zero")

    verdict = NOT_NEGATIVE_TYPE if not_negative else NEGATIVE_TYPE_NON_STRICT
    f = m_val = z = b = None
    if verdict == NEGATIVE_TYPE_NON_STRICT:
        if not has_positive:
            raise PositiveDirectionMissing(
                "quadratic form is nonpositive in every direction; "
                "the constrained maximum is not defined"
            )
        f = factor(a, tols.factor_pivot)
        if not f.singular_flag and f.min_pivot_ratio <= MARGINAL_FACTOR * tols.factor_pivot:
            notes.append("smallest pivot within marginal band of the singularity cutoff")

    if f is not None and not f.singular_flag:
        a_inv = invert(f)
        ainv_u = solve(f, u)
        aud = float(ainv_u @ u)
        strict_tol = tols.strict * a_inv.max_abs * float(np.sum(np.abs(u))) ** 2
        if abs(aud) <= MARGINAL_FACTOR * strict_tol:
            notes.append("(A^-1 u | u) within marginal band of zero")
        if abs(aud) > strict_tol:
            verdict = STRICT_NEGATIVE_TYPE
            m_val = 1.0 / aud
            z = m_val * ainv_u
            b = SymMatrix(np.outer(z, z) / m_val - a_inv.a, sym_tol=1e-8)
            _check_kernel("B u", b, u)

    return NegTypeReport(
        verdict=verdict,
        projected_spectrum=spectrum,
        has_positive_direction=has_positive,
        marginal=bool(notes),
        notes=tuple(notes),
        A=a,
        u=u,
        factorization=f,
        M=m_val,
        z=z,
        B=b,
    )


def _dispatch(x, u) -> tuple[SymMatrix, np.ndarray, bool]:
    if isinstance(x, NegTypeMatrix):
        if u is not None:
            raise ValueError("functional is fixed by the NegTypeMatrix; do not pass u")
        return x.A, x.u, True
    a = x if isinstance(x, SymMatrix) else SymMatrix(x)
    u = np.ones(a.n) if u is None else np.asarray(u, dtype=float)
    return a, u, False


def classify(x, u=None, tols: Tolerances | None = None) -> NegTypeReport:
    """Classify the quadratic form of x on the hyperplane orthogonal to u.

    x may be a NegTypeMatrix (which carries its own functional) or a bare
    symmetric matrix, in which case u defaults to all ones and the
    existence of a positive direction is verified rather than assumed.
    """
    a, u, from_metric = _dispatch(x, u)
    return _analyze(a, u, from_metric, tols or Tolerances())


def build_B(x, u=None, tols: Tolerances | None = None) -> NegTypeReport:
    """Classify x and insist on the strict verdict, under which the report
    carries B, C, M, z and u; raises NotStrict otherwise."""
    report = classify(x, u, tols)
    if report.verdict != STRICT_NEGATIVE_TYPE:
        raise NotStrict(f"verdict is {report.verdict}; B is defined only in the strict case")
    return report
