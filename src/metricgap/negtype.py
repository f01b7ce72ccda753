"""Sign classification of the constrained quadratic form, and the matrices
that carry the gap computation.

Everything here works with a symmetric matrix A and the all-ones vector u.
The form (A x | x) is examined on the hyperplane F of zero-sum vectors, those
orthogonal to u.  Three verdicts are possible:

  * NotNegativeType        the form is positive somewhere on F
  * NegativeTypeNonStrict  nonpositive on F, but vanishing on some x != 0
  * StrictNegativeType     negative on all of F except the origin

One number decides among them: the top eigenvalue of A compressed to F,
against a tolerance relative to max|A|.  Only a strict verdict factors A,
by LAPACK's pivoted LDL^T.

In the strict case, provided the form is positive somewhere off F, the
constrained maximum M = sup {(A x | x) : x in F_1} is finite and equals
1 / (A^{-1} u | u), attained up to sign at z = M A^{-1} u, where F_1 is the
set of x in F with unit-oscillation image A x.  The rank-one corrections

    C = M - A                (positive semidefinite, kernel spanned by z)
    B = (1/M) z z^T - A^{-1} (positive semidefinite, kernel spanned by u)

convert the constrained problem into an unconstrained maximum of (B x | x)
over sign vectors; that enumeration lives in the gap module.

A NegTypeMatrix is built from a validated metric and so is positive in
some direction whenever n >= 2; that hypothesis is only verified for raw
inputs.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSize, NotStrict, PositiveDirectionMissing
from .linalg import SymMatrix, dsytrf, dsytrf_lwork, dsytri, dsytrs
from .metric import NegTypeMatrix

NOT_NEGATIVE_TYPE = "NotNegativeType"
NEGATIVE_TYPE_NON_STRICT = "NegativeTypeNonStrict"
STRICT_NEGATIVE_TYPE = "StrictNegativeType"

_EPS = float(np.finfo(float).eps)
# The smallest positive float, below which no threshold may underflow.
_TINIEST = 5e-324
# The top projected eigenvalue counts as zero when its magnitude is at most EIG_TOL * max|A|.
EIG_TOL = 1e-9


def _margin(quantity: float, threshold: float) -> float:
    """quantity / threshold, with the threshold raised to _TINIEST and the
    quotient saturated at +-sys.float_info.max: a threshold near _TINIEST
    overflows it, and a report must stay JSON."""
    ratio = quantity / max(threshold, _TINIEST)
    return min(max(ratio, -sys.float_info.max), sys.float_info.max)


@dataclass(frozen=True, eq=False)
class NegTypeReport:
    """Outcome of classification, with the quantities that downstream steps
    reuse, so each input is analyzed once.

    ``A`` is the analyzed matrix.  The later fields are set only in the
    strict case: M, z and B.  B is built eagerly with its B u residual
    checked, u the all-ones vector; C is built on first read, when its C z
    residual is checked.  The LDL^T factorization of A that gives A^{-1}
    and A^{-1} u is not kept: every later step, the witness included, needs
    only B.

    ``margins`` holds each test made, as its quantity over its threshold:
    ``eig`` (the top projected eigenvalue over EIG_TOL * max|A|; above 1 is
    NotNegativeType, below -1 StrictNegativeType, and in between
    NegativeTypeNonStrict, so it also tells what any other tolerance would
    decide),
    ``eig_full`` (the same for the whole of a bare matrix; at most 1 is
    refused) and, for a strict verdict, ``B_u`` (max|B u|; above 1 is
    refused as broken numerics).  A quotient past the largest float
    saturates at +-sys.float_info.max.
    """

    verdict: str
    projected_spectrum: np.ndarray
    margins: dict[str, float]
    A: SymMatrix
    M: float | None = None
    z: np.ndarray | None = None
    B: SymMatrix | None = None

    @functools.cached_property
    def C(self) -> SymMatrix:
        """C = M - A, positive semidefinite with kernel spanned by z."""
        if self.verdict != STRICT_NEGATIVE_TYPE:
            raise NotStrict(f"verdict is {self.verdict}; C is defined only in the strict case")
        c = SymMatrix(self.M - self.A.a)
        _check_kernel("C z", c, self.z)
        return c


def project_to_F(a: SymMatrix) -> SymMatrix:
    """Compress A to an orthonormal basis of the zero-sum hyperplane F.

    The basis is the trailing n-1 columns of the Householder reflection
    H = I - 2 v v^T sending the all-ones vector to a multiple of the first
    coordinate axis, so the output is (n-1) x (n-1) and its spectrum is the
    spectrum of A restricted to F.  The trailing block of H A H is formed
    in O(n^2) as the rank-two update A - (S + S^T), S = v y^T, with w = A v
    and y = 2 w - 2 (v | w) v; S + S^T, and so the result, is exactly
    symmetric.  The exact factor 2 is applied to S + S^T rather than to y,
    and H A H's leading entry is not formed, so that neither overflows
    where the result does not (distances near 1e308).  Where the result
    does overflow (six points at distance 1e308), raises InvalidSize.
    """
    n = a.n
    if n < 2:
        raise ValueError("projection needs n >= 2")
    u = np.ones(n)
    v = u / np.linalg.norm(u)
    v[0] += 1.0
    v /= np.linalg.norm(v)
    with np.errstate(over="ignore", invalid="ignore"):
        w = a.a @ v
        s = np.outer(v[1:], w[1:] - float(v @ w) * v[1:])
        s += s.T
        s *= 2.0
        s = a.a[1:, 1:] - s
    if not np.isfinite(s).all():
        raise InvalidSize(f"A reaches {a.max_abs:.3e}: its compression to F overflows "
                          "the largest float")
    return SymMatrix(s)


def oscillation(x) -> float:
    """Oscillation of x, half its spread: (max x - min x) / 2."""
    x = np.asarray(x, dtype=float)
    return float(x.max() - x.min()) / 2.0


def _check_kernel(label: str, m: SymMatrix, v: np.ndarray) -> float:
    # Construction guarantees m v = 0; a large residual indicates broken
    # numerics rather than bad input.  Returns the residual over its bound.
    res = float(np.max(np.abs(m.a @ v)))
    margin = res / (1e-8 * max(m.max_abs * float(np.sum(np.abs(v))), 1e-300))
    if margin > 1.0:
        raise ArithmeticError(f"kernel residual too large: |{label}| = {res:.3e}")
    return margin


def _rounding_guard(arr: np.ndarray) -> float:
    """Twice the most by which two evaluations of one sign vector's (B s | s)
    can differ."""
    # Both the split value and the canonical value of a sign vector sum the
    # n^2 terms +-B_ij through products of depth at most n (error at most
    # gamma_n (2 + gamma_n) sum|B_ij|, gamma_n = n u / (1 - n u), u = eps / 2)
    # and at most two further additions of magnitude at most sum|B_ij|.  The
    # two values therefore differ by at most about (2n + 1) eps sum|B_ij|;
    # g = 4 (n + 3) eps sum|B_ij| doubles that.
    # branch_and_bound values the completions of a sign prefix s_P of
    # length d as qf + split(Q), Q = [[0, h^T], [h, B_FF]] of order
    # k = n - d + 1.  With S_XY the sum of |B_ij| over rows X and columns
    # Y: qf is within gamma_2d S_PP; each of the 2 (k - 1) entries of h in
    # Q, a sequential sum of d terms, is within gamma_d of its row's sum
    # over P, 2 gamma_d S_FP in all; the split of Q adds gamma_k (2 +
    # gamma_k) and two roundings on S_FF + 2 S_FP (1 + gamma_d), and the
    # sum with qf one rounding of at most sum|B_ij|.  In units of u that is
    # at most (2d + 1) S_PP + (d + 2k + 3) 2 S_FP + (2k + 3) S_FF
    # <= (2n + 4) sum|B_ij| to first order, a rounding depth of n + 2 in
    # eps against the canonical value's n + 1, so g doubles this
    # difference too.
    return 4.0 * (arr.shape[0] + 3) * _EPS * float(np.abs(arr).sum())


def _analyze(a: SymMatrix, from_metric: bool) -> NegTypeReport:
    n = a.n
    if n < 2:
        raise PositiveDirectionMissing(
            "a single point admits no direction of positive quadratic form"
        )
    eig_tol = EIG_TOL * max(a.max_abs, 1e-300)
    spectrum = np.linalg.eigvalsh(project_to_F(a).a)
    margins = {"eig": _margin(float(spectrum[-1]), eig_tol)}
    if not from_metric:
        margins["eig_full"] = _margin(float(np.linalg.eigvalsh(a.a)[-1]), eig_tol)

    if margins["eig"] > 1.0:
        return NegTypeReport(NOT_NEGATIVE_TYPE, spectrum, margins, a)
    if not from_metric and margins["eig_full"] <= 1.0:
        raise PositiveDirectionMissing(
            "quadratic form is nonpositive in every direction; "
            "the constrained maximum is not defined"
        )
    if margins["eig"] >= -1.0:
        return NegTypeReport(NEGATIVE_TYPE_NON_STRICT, spectrum, margins, a)

    # The top projected eigenvalue alone decides strictness.  The form is
    # negative definite on F and positive in some direction: every metric
    # with n >= 2 is, and eig_full checks a bare matrix.  By Cauchy
    # interlacing A then has one positive eigenvalue and n - 1 negative
    # ones, so A is nonsingular and (A^-1 u | u) > 0, which makes M > 0;
    # no test on a pivot or on (A^-1 u | u) could overturn the verdict,
    # and a zero pivot in the LDL^T of A below is broken numerics.
    packed, pivots, info = dsytrf(a.a, lower=1, lwork=int(dsytrf_lwork(n, lower=1)[0]))
    if info == 0:
        a_inv, info = dsytri(packed, pivots, lower=1)
    if info != 0:
        raise ArithmeticError(f"zero pivot in row {info} of the LDL^T of A")
    # dsytri writes only the lower triangle of A^-1; mirroring it makes
    # A^-1 exactly symmetric.
    a_inv = np.tril(a_inv)
    a_inv += np.tril(a_inv, -1).T
    u = np.ones(n)
    ainv_u = dsytrs(packed, pivots, u, lower=1)[0]
    m_val = 1.0 / float(ainv_u @ u)
    z = m_val * ainv_u
    b = SymMatrix(np.outer(z, z) / m_val - a_inv)
    # Where eps max|B| is subnormal, B's entries have lost bits to
    # underflow and the rounding bounds of the gap routes, relative to
    # max|B|, fail (a triangle of side 1e308 gives beta 2.0e-308 against
    # 2.67e-308).
    if _EPS * b.max_abs < np.finfo(float).tiny:
        raise InvalidSize(f"B reaches only {b.max_abs:.3e}: its rounding falls "
                          "below the smallest normal float")
    # At the other end, S = sum|B_ij| bounds every split value, norm
    # ||B s||_1, canonical value and four times 0/1 value the enumeration
    # routes form, and each partial sum of their terms.  Each is computed
    # within g / 2 of its exact value, g = _rounding_guard(B), so none
    # overflows unless S + g does.
    # beta_opnorm's mu n, up to n S, may overflow; that only lowers its
    # threshold.  Where S overflows, the values can too: on the 20-point
    # path of weights 1e-307, whose maximum is S, every block value did and
    # the enumeration kept none; at 2e-307 it kept a finite value below the
    # maximum.  branch_and_bound needs more headroom and checks its own.
    with np.errstate(over="ignore"):
        reach = float(np.abs(b.a).sum()) + _rounding_guard(b.a)
    if not reach < np.finfo(float).max:
        raise InvalidSize(f"B reaches {b.max_abs:.3e}: the gap routes' sums over it "
                          "overflow the largest float")
    margins["B_u"] = _check_kernel("B u", b, u)
    return NegTypeReport(STRICT_NEGATIVE_TYPE, spectrum, margins, a, M=m_val, z=z, B=b)


def classify(x) -> NegTypeReport:
    """Classify the quadratic form of x on the zero-sum hyperplane F.

    x may be a NegTypeMatrix, which comes from a metric, or a bare
    symmetric matrix, for which the existence of a positive direction is
    verified rather than assumed.
    """
    if isinstance(x, NegTypeMatrix):
        return _analyze(x.A, True)
    return _analyze(x if isinstance(x, SymMatrix) else SymMatrix(x), False)


# Most elements automorphisms lists; a larger group, such as the n! of the
# discrete space on n >= 7 points, is reported as trivial.  The symmetry
# test of branch_and_bound runs over the whole group at every node, a few
# vectorized operations on at most this many rows.  The search for the
# group stops, and reports it trivial, once a level holds more than
# _GROUP_WORK partial maps.
_GROUP_CAP = 1024
_GROUP_WORK = 4 * _GROUP_CAP


def _labels(keys: np.ndarray) -> np.ndarray:
    """The rank of each row of ``keys`` among its distinct rows, in
    lexicographic order."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(len(order), dtype=np.intp)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    labels = np.empty_like(new)
    labels[order] = np.cumsum(new) - 1
    return labels


def _permuted(arr: np.ndarray, sigmas: np.ndarray):
    """Yield arr[sigma][:, sigma] for the rows sigma of ``sigmas``, in order,
    stacked in arrays of about 2^13 entries each."""
    n = arr.shape[0]
    rows = max(1, (1 << 13) // (n * n))
    for block in np.split(sigmas, range(rows, len(sigmas), rows)):
        yield arr[block[:, :, None], block[:, None, :]]


def automorphisms(a) -> np.ndarray:
    """Every permutation sigma of the points with A[sigma][:, sigma] == A
    exactly, one per row of an int array.

    The rows are in lexicographic order, so the identity comes first, and
    form a group.  A trivial group, and one with more than _GROUP_CAP
    elements, give an empty array of n columns.  Exact equality of A's
    entries is what counts: B's entries differ by rounding across an
    orbit, so a group of B is not looked for.
    """
    arr = a.a if isinstance(a, SymMatrix) else np.asarray(a, dtype=float)
    n = arr.shape[0]
    trivial = np.empty((0, n), dtype=np.intp)
    # Colour refinement.  Every sigma maps a point to one of its colour,
    # first the sorted entries of its row; a generic input ends after this
    # one sort with every colour distinct.
    colour = _labels(np.sort(arr, axis=1))
    if colour.max() == n - 1:
        return trivial
    # Then, until the classes stop splitting, a point's colour and the
    # sorted (colour, entry) pairs of its row, with equal entries sharing
    # an integer code; each point's own entry gets the code 0, so a base
    # point below is told apart from the rest.
    codes = np.unique(arr, return_inverse=True)[1].reshape(n, n) + 1
    np.fill_diagonal(codes, 0)
    width = int(codes.max()) + 1
    while True:
        pairs = np.sort(colour[None, :] * width + codes, axis=1)
        refined = _labels(np.column_stack((colour, pairs)))
        if refined.max() == colour.max():
            break
        colour = refined
    if colour.max() == n - 1:
        return trivial

    # Base points b_1, b_2, ..., each the first point of the smallest class
    # of two or more, refining the keys by the codes to it, until the keys
    # tell every point apart.  Level l keeps b_l's key before it, the
    # sorted refined keys and their distinct values.  (np.unique without
    # return_inverse would import numpy.ma, about 2 MB of resident memory.)
    levels = []
    key = colour
    while key.max() < n - 1:
        counts = np.bincount(key)
        counts[counts < 2] = n + 1
        base = int(np.flatnonzero(key == counts.argmin())[0])
        step = key * width + codes[base]
        ordered = np.sort(step)
        distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        levels.append((key[base], ordered, distinct))
        key = np.searchsorted(distinct, step)

    # The images sigma(b_1..b_l) are searched a level at a time, each row
    # of ``maps`` one choice with the keys it gives every point.  Any
    # sigma maps the key of each point under b_1..b_l to that of its image
    # under sigma(b_1)..sigma(b_l), so a choice whose keys differ from the
    # source's as a multiset extends to no sigma, and every element is
    # met at the last level, where the keys fix sigma.
    maps = colour[None, :]
    for base_key, sorted_step, distinct in levels:
        rows, images = np.nonzero(maps == base_key)
        if len(rows) > _GROUP_WORK:
            return trivial
        steps = maps[rows] * width + codes[images]
        steps = steps[(np.sort(steps, axis=1) == sorted_step).all(axis=1)]
        maps = np.searchsorted(distinct, steps)
    if len(maps) > _GROUP_CAP:
        return trivial
    # Row r of sigmas maps point i to the point whose key is key[i].
    sigmas = np.argsort(maps, axis=1)[:, key]
    fixed = np.concatenate([(images == arr).all(axis=(1, 2))
                            for images in _permuted(arr, sigmas)])
    sigmas = sigmas[fixed]
    if len(sigmas) < 2:
        return trivial
    return sigmas[np.lexsort(sigmas.T[::-1])]


def build_B(x) -> NegTypeReport:
    """Classify x and insist on the strict verdict, under which the report
    carries B, C, M and z; raises NotStrict otherwise."""
    report = classify(x)
    if report.verdict != STRICT_NEGATIVE_TYPE:
        raise NotStrict(f"verdict is {report.verdict}; B is defined only in the strict case")
    return report
