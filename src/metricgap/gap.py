"""Exact maximization of (B x | x) over sign vectors, and everything built
on top of it: the gap constant, extremal witnesses, randomized inequality
checks, and a certified branch-and-bound for sizes past the enumeration
cutoff.

Three independent routes to the same number are kept deliberately separate
so they can cross-check each other:

  * beta_hypercube   max of (B s | s) over sign vectors, with its maximizer;
                     the exact route of solve_gap up to the cutoff
  * beta_opnorm      max of ||B s||_1 over sign vectors, the operator norm
                     of B from the max-norm to the 1-norm (cross-check)
  * beta_binary      4 times the maximum of (B x | x) over 0/1 vectors
                     (cross-check, valid when B annihilates the all-ones
                     vector)

All three are formulas over one enumeration kernel, _sign_blocks.  It
splits each sign vector as s = (s_H, s_L) and yields blocks of prefix and
suffix sign tables, so a whole block is valued by a few matrix products:
(B s | s) = q_H + q_L + 2 (s_H B_HL) s_L^T, and B s = B_:H s_H + B_:L s_L.
Sign symmetry lets every route fix the first coordinate, halving the work.
Each route writes a block's values into two tables it allocates once per
call, and beta_opnorm skips the rows of a block whose rounding-sound bound
is below its best value so far.  With one BLAS thread at n = 23-24, the
maximum and the binary form take 4-5 ns per sign vector, and the operator
norm 2 ns on trees, where the bound skips most rows, to 22-46 ns on point
clouds and odd cycles, where it skips few.

Tie-breaking contract: every candidate that rounding could make maximal is
re-evaluated with the canonical expression float(s @ B @ s), maxima are
compared exactly on those values, and exact ties resolve to the
lexicographically smallest sign vector (-1 before +1).  The result is
therefore bit-identical whatever the block layout.  The contract covers
the enumeration routes only.  branch_and_bound prunes a node once its raw
bound falls to the incumbent, so it may discard a sign vector whose
canonical value is an ulp or two higher: its maximizer is a maximum up to
its delta and need not be the enumeration's.  On the 19-cycle it returns
67.7894736842107 where beta_hypercube returns 67.78947368421072, and on
the 22-point discrete space 22.0 where it returns 22.000000000000004.

Past the cutoff, branch_and_bound searches sign prefixes best first.  A
node's bound is the shifted-eigenvalue bound of Poljak and Rendl,
qf + (m+1) lmax(Q + Diag d) - sum d over the m free coordinates, tightened
by a few subgradient steps on the shifts d.  Its result carries delta, a
derived allowance for the rounding of every bound that pruned, and states
the certificate beta_true <= max(best_bound, beta) + delta.  Each bound
takes one LAPACK solve for the top eigenpair alone (_top_eig).  With one
BLAS thread on a 2-core Xeon, odd cycles with n = 29-45 certified in
0.13-0.77 s, and 3-D point clouds with n = 30-50 (three draws of each size)
in 0.04-1.9 s but for one draw at n = 50, which took 20.6k nodes and 9.4 s.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsyevr

from .errors import NotStrict, TooLarge
from .linalg import SymMatrix, solve
from .metric import NegTypeMatrix, power_matrix
from .negtype import STRICT_NEGATIVE_TYPE, NegTypeReport, Tolerances, classify

# Hard ceiling for exact enumeration: 2^(n-1) sign vectors at 4-5 ns each
# through the sign-table kernel of beta_hypercube, 0.03-0.04 s at n = 24;
# beta_opnorm, the slowest route, takes 2 ns each on trees and 22-46 ns on
# point clouds and odd cycles (measured at n = 23-24 on a 2-core Xeon with
# one BLAS thread, Python 3.11, NumPy 2.4).
MAX_ENUM_N = 24

# Most sign vectors in one block of the sign-table kernel; a block's table
# of values takes 512 KiB.
_BLOCK = 1 << 16


def _as_array(b) -> np.ndarray:
    if isinstance(b, SymMatrix):
        return b.a
    return SymMatrix(b).a


def _enumerable(b, max_enum_n: int) -> np.ndarray:
    arr = _as_array(b)
    n = arr.shape[0]
    if n > max_enum_n:
        raise TooLarge(f"n = {n} exceeds the enumeration cutoff {max_enum_n}")
    return arr


def _canonical(arr: np.ndarray, s: np.ndarray) -> float:
    """Canonical quadratic value used for all cross-strategy comparisons."""
    return float(s @ arr @ s)


def _sign_rows(start: int, stop: int, width: int) -> np.ndarray:
    """Rows t = start..stop-1 as sign vectors: bit k of t set puts -1 in column k."""
    t = np.arange(start, stop)[:, None]
    return 1.0 - 2.0 * ((t >> np.arange(width)) & 1)


def _sign_blocks(n: int):
    """Yield (H, L) sign tables that cover {+1} x {-1,+1}^(n-1) exactly once.

    Rows of H are prefixes [1, s_1..s_h] and rows of L are suffixes
    s_{h+1}..s_{n-1}; a block stands for the len(H) * len(L) sign vectors
    [H_i, L_j].  The split point h depends on n alone and both tables are
    sliced so that no block exceeds _BLOCK vectors, so every sign vector is
    valued by the same sums whatever the block size.  Both steps and both
    table lengths are powers of two, so every block has the shape of the
    first, and the same L tables recur, in the same order, for every H.
    """
    low_width = (n - 1) // 2
    high_width = n - 1 - low_width
    bits = _BLOCK.bit_length() - 1
    low_step = 1 << (bits // 2)
    high_step = 1 << (bits - bits // 2)
    lows = [
        _sign_rows(start, min(start + low_step, 1 << low_width), low_width)
        for start in range(0, 1 << low_width, low_step)
    ]
    for start in range(0, 1 << high_width, high_step):
        stop = min(start + high_step, 1 << high_width)
        high = np.ones((stop - start, high_width + 1))
        high[:, 1:] = _sign_rows(start, stop, high_width)
        for low in lows:
            yield high, low


def _blocks_with_tables(n: int):
    """The blocks of _sign_blocks(n), and two empty tables of a block's shape.

    A route writes each block's values into these tables, so a call
    allocates them once; a table read after the next block is overwritten.
    """
    blocks = _sign_blocks(n)
    high, low = next(blocks)
    shape = (len(high), len(low))
    return itertools.chain([(high, low)], blocks), np.empty(shape), np.empty(shape)


def _split_values(arr: np.ndarray, high: np.ndarray, low: np.ndarray, out: np.ndarray,
                  tmp: np.ndarray) -> np.ndarray:
    """(B x | x) for every x = [high_i, low_j], written into the table ``out``.

    With x = (x_H, x_L) the quadratic splits into q_H + q_L + 2 (x_H B_HL) x_L^T,
    where q_H and q_L are the quadratic forms of the diagonal blocks; the
    sums are taken in that order.  ``tmp`` is scratch of the same shape.
    """
    k = high.shape[1]
    q_high = np.einsum("ij,ij->i", high @ arr[:k, :k], high)
    q_low = np.einsum("ij,ij->i", low @ arr[k:, k:], low)
    np.add(q_high[:, None], q_low[None, :], out=out)
    np.matmul(high @ arr[:k, k:], low.T, out=tmp)
    tmp *= 2.0
    out += tmp
    return out


def beta_hypercube(b, *, max_enum_n: int = MAX_ENUM_N) -> tuple[float, np.ndarray]:
    """Exact maximum of (B s | s) over sign vectors, with its maximizer.

    The first coordinate is fixed to +1 by sign symmetry.  Each block of
    sign vectors is valued at once by the split quadratic, and every entry
    that rounding could lift to the maximum is re-evaluated canonically.
    """
    arr = _enumerable(b, max_enum_n)
    n = arr.shape[0]
    # Both the split value and the canonical value of a sign vector sum the
    # n^2 terms +-B_ij through products of depth at most n (error at most
    # gamma_n (2 + gamma_n) sum|B_ij|, gamma_n = n u / (1 - n u), u = eps / 2)
    # and at most two further additions of magnitude at most sum|B_ij|.  The
    # two values therefore differ by at most about (2n + 1) eps sum|B_ij|;
    # g doubles that.  If an entry's split value is below block_max - 2g,
    # its canonical value is below that of the block's argmax; below
    # best - g, below the best canonical value so far.  Neither can win or
    # tie, so only the remaining entries are re-evaluated.
    g = 4.0 * (n + 3) * np.finfo(float).eps * float(np.abs(arr).sum())
    best_val = -np.inf
    best_key = None
    blocks, vals, tmp = _blocks_with_tables(n)
    for high, low in blocks:
        _split_values(arr, high, low, vals, tmp)
        top = float(vals.max())
        if top < best_val - g:
            continue
        for i, j in zip(*np.nonzero(vals >= max(top - 2.0 * g, best_val - g))):
            s = np.concatenate((high[i], low[j]))
            v = _canonical(arr, s)
            if v > best_val or (v == best_val and tuple(s) < best_key):
                best_val = v
                best_key = tuple(s)
    return best_val, np.array(best_key)


def beta_opnorm(b, *, max_enum_n: int = MAX_ENUM_N) -> float:
    """Exact operator norm of B from the max-norm to the 1-norm.

    Equals max ||B s||_1 over sign vectors; over a block of sign tables,
    ||B s||_1 = sum_c |(H B_H:)_ic + (L B_L:)_jc|, accumulated one column c
    at a time, for the rows i whose bound can still reach the best value.
    Value only; no maximizer is tracked.
    """
    arr = _enumerable(b, max_enum_n)
    n = arr.shape[0]
    best = -np.inf
    blocks, norms, tmp = _blocks_with_tables(n)
    for high, low in blocks:
        k = high.shape[1]
        high_part, low_part = high @ arr[:k], low @ arr[k:]
        if best > -np.inf:
            # Row i's entries are fl-sums, from zero in column order, of
            # |fl(h_c + l_jc)|.  Rounded addition is monotone, so lmin_c <=
            # l_jc <= lmax_c gives |fl(h_c + l_jc)| <= max(fl(h_c + lmax_c),
            # -fl(h_c + lmin_c)), and the sums of these bounds, taken in the
            # same order (add.accumulate is sequential, unlike a pairwise
            # sum), bound every entry of the row.  A row whose bound is below
            # best holds no entry that can reach it and is skipped; its
            # absence cannot change the maximum, so the result is
            # bit-identical to the full table.  Before the first block there
            # is no best value to prune against.
            bound = np.add.accumulate(
                np.maximum(high_part + low_part.max(axis=0), -(high_part + low_part.min(axis=0))),
                axis=1,
            )[:, -1]
            high_part = high_part[bound >= best]
            if len(high_part) == 0:
                continue
        part, scratch = norms[: len(high_part)], tmp[: len(high_part)]
        part.fill(0.0)
        for c in range(n):
            np.add(high_part[:, c, None], low_part[:, c], out=scratch)
            np.abs(scratch, out=scratch)
            part += scratch
        best = max(best, float(part.max()))
    return best


def beta_binary(b, *, max_enum_n: int = MAX_ENUM_N) -> float:
    """Four times the exact maximum of (B x | x) over 0/1 vectors.

    Requires B u = 0 for the all-ones u; complementing x then leaves the
    value unchanged, which justifies fixing the first coordinate to 0.
    It equals the sign-vector maximum only then, so it is no cross-check
    for a B built from a non-constant functional.  The sign tables become
    0/1 tables by x = (s + 1) / 2; the suffix ones are made once per call.
    """
    arr = _enumerable(b, max_enum_n)
    best = 0.0
    blocks, vals, tmp = _blocks_with_tables(arr.shape[0])
    x_lows = {}
    for high, low in blocks:
        x_low = x_lows.get(id(low))
        if x_low is None:
            x_low = x_lows[id(low)] = (low + 1.0) / 2.0
        x_high = (high + 1.0) / 2.0
        x_high[:, 0] = 0.0
        best = max(best, float(_split_values(arr, x_high, x_low, vals, tmp).max()))
    return 4.0 * best


@dataclass(frozen=True, eq=False)
class BnbResult:
    """Outcome of branch_and_bound.

    ``beta`` is the canonical value float(s @ B @ s) of ``s_star``.  Every
    sign vector s has (B s | s) <= max(best_bound, beta) + delta, and so
    has float(s @ B @ s); ``certified`` means best_bound <= beta, so beta
    is the maximum up to ``delta``.  ``s_star`` is then a maximizer up to
    ``delta``; it need not follow the tie-break contract of the enumeration
    (module docstring), since a node is pruned on its raw bound.
    ``nodes_pruned`` counts the nodes discarded because their bound fell to
    the incumbent.
    """

    beta: float
    s_star: np.ndarray
    certified: bool
    nodes_expanded: int
    best_bound: float
    delta: float
    nodes_pruned: int


# Most subgradient steps on the shifts of one node's bound, each a top
# eigenpair (_top_eig) of order n - depth + 1.  Of 3-12 steps, 5-8 took the
# fewest eigen-solves and nodes to certify odd cycles and 3-D clouds with
# n = 29-41: fewer leave the bounds too loose, more rarely prune a node that
# fewer would not.
_SHIFT_STEPS = 6

# Nodes with fewer free coordinates (at most 128 completions) skip the
# eigen-solves and keep their cheap bound.  Of thresholds 3-11, tried on
# cycles 11-41 and 3-D clouds with n = 30-40, 8 took the least time: below
# it the steps cost more than the nodes they prune, above it clouds with
# n = 30 expanded up to twice the nodes.  With the cheaper top-eigenpair
# solve, 6-10 steps and thresholds 5-10 took times within the noise of
# each other on cycles 29-41 and clouds with n = 30-40.
_MIN_REFINED_FREE = 8


def _node_bound(arr: np.ndarray, lam: np.ndarray, signs: np.ndarray) -> float:
    """Cheap bound of a fixed sign prefix: its exact quadratic value, its
    worst-case coupling to the free coordinates, and a spectral cap on the
    free block."""
    d = signs.shape[0]
    n = arr.shape[0]
    qf = float(signs @ arr[:d, :d] @ signs)
    h = arr[d:, :d] @ signs
    return qf + 2.0 * float(np.sum(np.abs(h))) + lam[d] * (n - d)


def _bound_error(k: int, depth: int, prefix_abs: float, a_norm: float, shifts_abs: float) -> float:
    """Rounding error of a node bound of order k; derived in branch_and_bound."""
    return np.finfo(float).eps * (
        (k + 2) * (depth + 2) * prefix_abs + (k**3 + 4 * k) * a_norm + (k + 3) * shifts_abs
    )


def _top_eig(a: np.ndarray, vectors: bool = True):
    """Largest eigenvalue of the symmetric matrix ``a``, with its unit
    eigenvector when ``vectors`` is set.

    One LAPACK dsyevr call for the k-th of k eigenvalues: Householder
    tridiagonalization, bisection for that eigenvalue and inverse iteration
    for its vector.  When the top of the spectrum is tightly clustered the
    bisection can find no eigenvalue (the 24-point discrete space's root
    node, with a 24-fold top eigenvalue, is one case); a finite matrix then
    gets its top pair from one dsyevr call for the whole spectrum.  Raises
    LinAlgError unless that leaves exactly one finite eigenvalue.  On a NaN
    entry dsyevr reports success, but finds no eigenvalue by index and
    leaves 0 in its place, an unsound bound, while for the whole spectrum
    it can return finite values; at order 1 it returns the NaN itself.
    """
    k = a.shape[0]
    w, z, m, _, info = dsyevr(a, compute_v=int(vectors), range="I", il=k, iu=k)
    if (info != 0 or m != 1) and np.isfinite(a).all():
        w, z, m, _, info = dsyevr(a, compute_v=int(vectors), range="A")
        w, z, m = w[k - 1 :], z[:, k - 1 :], m - k + 1
    if info != 0 or m != 1 or not np.isfinite(w[0]):
        raise np.linalg.LinAlgError(f"dsyevr found {m} top eigenvalues (info {info})")
    return (float(w[0]), z[:, 0]) if vectors else float(w[0])


def _shifted_bound(q: np.ndarray, shifts: np.ndarray, qf: float, incumbent: float):
    """Polyak subgradient steps on f(shifts) = k lmax(Q + Diag shifts) - sum shifts.

    Stops once qf + f reaches ``incumbent``.  Returns the smallest f seen
    with its shifts, top eigenpair and the Frobenius norm of Q + Diag shifts.
    """
    k = q.shape[0]
    a = q.copy()
    diag = a.reshape(-1)[:: k + 1]
    q_diag = diag.copy()
    scale = 1.0
    best = None
    for _ in range(_SHIFT_STEPS):
        np.add(q_diag, shifts, out=diag)
        top, v = _top_eig(a)
        f = k * top - shifts.sum()
        if best is None or f < best[0]:
            best = (f, shifts, top, v)
        else:
            scale /= 2.0
        if qf + best[0] <= incumbent:
            break
        grad = k * v**2 - 1.0
        norm2 = float(grad @ grad)
        if norm2 == 0.0:
            break
        shifts = shifts - (scale * (f - (incumbent - qf)) / norm2) * grad
    f, shifts, top, v = best
    np.add(q_diag, shifts, out=diag)
    return f, shifts, top, v, float(np.linalg.norm(a))


def _local_search(arr: np.ndarray, val: float, key: tuple) -> tuple[float, tuple]:
    """1-flip ascent from sign vector ``key`` with canonical value ``val``.

    Flips any coordinate but the first while that raises the canonical
    value, or keeps it and gives a lexicographically smaller vector.
    """
    improved = True
    while improved:
        improved = False
        for i in range(1, len(key)):
            s = np.array(key)
            s[i] = -s[i]
            v = _canonical(arr, s)
            t = tuple(s)
            if v > val or (v == val and t < key):
                val, key, improved = v, t, True
    return val, key


def branch_and_bound(b, *, budget: int = 2_000_000) -> BnbResult:
    """Certified maximum of (B s | s) over sign vectors by best-first search.

    A node fixes a sign prefix s_P (the first coordinate is +1 by sign
    symmetry) and leaves the other m coordinates s_F free.  With
    qf = (B_PP s_P | s_P) and h = B_FP s_P, the node's best value is qf
    plus the maximum of x^T Q x over x in {-1, +1}^(m+1) with x_0 = 1, for
    Q = [[0, h^T], [h, B_FF]].  Its bound is the shifted-eigenvalue bound
    of Poljak and Rendl: for any shift vector d,
    qf + (m+1) lmax(Q + Diag d) - sum d.  A node popped from the queue
    takes a few subgradient steps on d, warm-started from its parent's,
    and the top eigenvector of its best shift is rounded to a sign vector
    that may raise the incumbent.  Children queue under the cheaper of
    their spectral bound qf + 2 ||h||_1 + m lmax(B_FF) and their parent's
    shifted bound.  The incumbent starts from a greedy descent and a 1-flip
    local search, so even a zero budget returns a valid (uncertified)
    candidate.

    The result certifies when the best outstanding bound falls to the
    incumbent; if the node budget runs out first the best-found answer is
    returned with ``certified`` false rather than raising.  Either way
    every sign vector s has (B s | s) <= max(best_bound, beta) + delta,
    where delta covers the rounding of every bound that discarded nodes
    and of the canonical incumbent (see BnbResult).
    """
    # The cheap bound is one of the shifted bounds: with L >= lmax(B_FF),
    # d_0 = -||h||_1 and d_i = -L - |h_i|, the inequality
    # 2 h_i x_0 x_i <= |h_i| (x_0^2 + x_i^2) gives Q + Diag d <= 0, so the
    # shifted bound at that d is at most qf + ||h||_1 + sum (L + |h_i|) =
    # qf + 2 ||h||_1 + m L.  The minimum over d, which by duality is the
    # semidefinite relaxation max {<Q, X> : X >= 0, diag X = 1}, is never
    # weaker.  The steps only approach that minimum, so a child keeps the
    # cheaper of the two.
    arr = _as_array(b)
    n = arr.shape[0]
    if n == 1:
        s = np.ones(1)
        v = _canonical(arr, s)
        return BnbResult(v, s, True, 0, v, 0.0, 0)

    lam = np.empty(n + 1)
    lam[n] = 0.0
    for d in range(n - 1, -1, -1):
        lam[d] = _top_eig(arr[d:, d:], vectors=False)
    tail_norm = [float(np.linalg.norm(arr[d:, d:])) for d in range(n + 1)]
    prefix_abs = np.concatenate(([0.0], np.cumsum(np.abs(arr).sum(axis=1))))

    # The bound of a node at depth d, with k = n - d + 1, is computed as
    # fl(qf^ + fl(fl(k lam^) - fl(sum d))), where lam^ is the top eigenvalue
    # that _top_eig computes of A^ = fl(Q^ + Diag d), and Q^ holds
    # h^ = fl(B_FP s_P).  Take the stored shifts d as exact; the bound is
    # valid for the exact qf and h at any d.  With u = eps / 2,
    # gamma_j = j u / (1 - j u) and S_P = sum over rows i in P of
    # sum_j |B_ij|:
    #   |qf^ - qf|           <= gamma_2d S_P  (two products of d terms);
    #   ||A^ - A||_2         <= gamma_d S_P + u max|A^_ii|  (row 0 of h^,
    #                           and one rounding of each diagonal entry);
    #   |lam^ - lmax(A^)|    <= p(k) u ||A^||_2  by backward stability of
    #                           the symmetric eigensolver.  _top_eig calls
    #                           LAPACK's dsyevr with a subset by index:
    #                           Householder tridiagonalization, bisection for
    #                           the one eigenvalue, inverse iteration for its
    #                           vector; where bisection finds none, the whole
    #                           spectrum.  The LAPACK Users' Guide (3rd ed.,
    #                           section 4.7) gives this bound for all its
    #                           symmetric drivers, xSYEVR among them, and
    #                           leaves p(k) a modestly growing function of
    #                           the order; p(k) = k^2 is assumed here, the
    #                           one constant of the certificate that is not
    #                           derived;
    #   |fl(sum d) - sum d|  <= gamma_k sum|d|;
    # and the three remaining operations add at most
    # u (|qf^| + 3k ||A^||_F + 2 sum|d|), with |qf^| <= (1 + gamma_2d) S_P.
    # With gamma_j <= 1.01 j u, k times the eigenvalue and matrix errors
    # plus the rest is at most
    # 1.01 u (((k + 2) d + 3) S_P + (k^3 + 4k) ||A^||_F + (k + 3) sum|d|),
    # and _bound_error, eps = 2u times the same terms with (k + 2)(d + 2)
    # for (k + 2) d + 3, exceeds that by a factor above 1.9.  The cheap
    # bound qf + 2 ||h||_1 + m lmax(B_FF), m = k - 1, has errors
    # gamma_2d S_P for qf, 2 gamma_d S_P for h, 2 gamma_m S_P for the sum
    # of |h_i|, m p(m) u ||B_FF||_F for the eigenvalue (the same dsyevr
    # solve through _top_eig, without the vector) and four roundings:
    # 1.01 u ((4d + 2m + 6) S_P + (m^3 + 2m) ||B_FF||_F) in all, which
    # _bound_error with B_FF for A^ and no shifts covers by the same
    # factor.  A child's prefix value qf + 2 sign h_0 + B_dd and its
    # h_rest + sign B_rest,d carry the errors of the direct sums at depth
    # d + 1.  Pruning and certification compare the raw floats; delta
    # adds the largest error of a bound that discarded nodes to the
    # rounding of a canonical value, at most gamma_2n sum|B_ij| <=
    # (n + 1) eps sum|B_ij|.  A discarded sign vector s then has
    # (B s | s) <= bound + err <= incumbent + delta, and the same holds for
    # its canonical value; an evaluated leaf is within the canonical
    # rounding of its value, which is at most the incumbent.
    def cheap_error(depth: int) -> float:
        return _bound_error(n - depth + 1, depth, prefix_abs[depth], tail_norm[depth], 0.0)

    def signs_of(bits: int, depth: int) -> np.ndarray:
        picked = (bits >> np.arange(depth)) & 1
        return np.where(picked == 1, 1.0, -1.0)

    # Greedy descent, then 1-flip local search, for the initial incumbent.
    g_signs = np.ones(1)
    for depth in range(1, n):
        cand = []
        for sign_bit, sign in ((1, 1.0), (0, -1.0)):
            ext = np.append(g_signs, sign)
            cand.append((_node_bound(arr, lam, ext), sign_bit, ext))
        cand.sort(key=lambda c: (-c[0], -c[1]))
        g_signs = cand[0][2]
    best_val, best_key = _local_search(arr, _canonical(arr, g_signs), tuple(g_signs))

    # A queue entry: (-bound, depth, prefix bits, bound error, the parent's
    # shifts, the first entry of this node's starting shifts).
    heap = [(-_node_bound(arr, lam, np.ones(1)), 1, 1, cheap_error(1), None, 0.0)]
    pops = 0
    pruned = 0
    delta = 0.0
    certified = False
    while heap:
        entry = heapq.heappop(heap)
        neg_bound, depth, bits, err, parent_shifts, first = entry
        top_bound = -neg_bound
        if top_bound <= best_val or pops >= budget:
            certified = bool(top_bound <= best_val)
            heap.append(entry)
            break
        pops += 1
        prefix = signs_of(bits, depth)
        qf = float(prefix @ arr[:depth, :depth] @ prefix)
        h = arr[depth:, :depth] @ prefix
        refined = n - depth >= _MIN_REFINED_FREE
        if refined:
            k = n - depth + 1
            q = np.zeros((k, k))
            q[0, 1:] = h
            q[1:, 0] = h
            q[1:, 1:] = arr[depth:, depth:]
            if parent_shifts is None:
                shifts = -np.diag(q)
            else:
                shifts = np.concatenate(([first], parent_shifts[2:]))
            f, shifts, top_eig, vec, a_norm = _shifted_bound(q, shifts, qf, best_val)
            tail = np.where(vec[1:] * vec[0] >= 0.0, 1.0, -1.0)
            s = np.concatenate((prefix, tail))
            v = _canonical(arr, s)
            if v > best_val or (v == best_val and tuple(s) < best_key):
                best_val, best_key = _local_search(arr, v, tuple(s))
            if qf + f < top_bound:
                top_bound = qf + f
                err = _bound_error(k, depth, prefix_abs[depth], a_norm, float(np.abs(shifts).sum()))
        if top_bound <= best_val:
            pruned += 1
            delta = max(delta, err)
            continue
        for sign_bit, sign in ((1, 1.0), (0, -1.0)):
            child_bits = bits | (sign_bit << depth)
            child_q = qf + 2.0 * sign * float(h[0]) + arr[depth, depth]
            if depth + 1 == n:
                s = np.append(prefix, sign)
                v = _canonical(arr, s)
                key = tuple(s)
                if v > best_val or (v == best_val and key < best_key):
                    best_val = v
                    best_key = key
                continue
            child_h = h[1:] + sign * arr[depth + 1 :, depth]
            bound = (child_q + 2.0 * float(np.sum(np.abs(child_h)))
                     + lam[depth + 1] * (n - depth - 1))
            if bound < top_bound:
                child_err = cheap_error(depth + 1)
            else:
                bound, child_err = top_bound, err
            if bound <= best_val:
                pruned += 1
                delta = max(delta, child_err)
                continue
            if not refined:
                heapq.heappush(heap, (-bound, depth + 1, child_bits, child_err, None, 0.0))
                continue
            # Fixing x_d = sign x_0 in x^T (Q + Diag d) x <= mu |x|^2, mu the
            # top eigenvalue, merges coordinates 0 and d: the child's
            # Q' + Diag d' <= mu I for d' = (d_0 + d_d + child_q - qf - mu,
            # d_rest), whose bound is exactly the parent's.  The child's
            # steps start there.
            start = shifts[0] + shifts[1] + (child_q - qf) - top_eig
            heapq.heappush(heap, (-bound, depth + 1, child_bits, child_err, shifts, start))
    else:
        certified = True
        top_bound = best_val

    if certified:
        pruned += len(heap)
    delta = max([delta] + [e[3] for e in heap])
    delta += float(np.finfo(float).eps) * (n + 1) * float(prefix_abs[n])
    return BnbResult(best_val, np.array(best_key), certified, pops, float(top_bound), float(delta),
                     pruned)


def make_witness(report: NegTypeReport, s_star) -> np.ndarray:
    """Unnormalized extremal direction built from a maximizing sign vector.

    ``report`` is a strict classification.  With x the projection of s_star
    onto the hyperplane orthogonal to u, returns
    y0 = ((x | z) / M) z - A^{-1} x, solved through the report's stored
    factorization.  Then ||y0||_1 equals the sign-vector maximum beta,
    (-A y0 | y0) equals the same value, and A y0 has oscillation at most 1,
    which together witness that the gap constant 2 / beta cannot be
    improved.
    """
    s = np.asarray(s_star, dtype=float)
    u = report.u
    x = s - (float(s @ u) / float(u @ u)) * u
    ainv_x = solve(report.factorization, x)
    return (float(x @ report.z) / report.M) * report.z - ainv_x


@dataclass(frozen=True, eq=False)
class GapInequalityReport:
    trials: int
    failures: int
    max_violation: float
    tol: float
    maximality_checked: bool
    maximality_violated: bool | None
    inflated_gamma: float | None


def verify_gap_inequality(
    x,
    p: float,
    gamma: float,
    *,
    trials: int = 1000,
    seed: int = 0,
    witness=None,
) -> GapInequalityReport:
    """Randomized check of the gap inequality.

    Draws zero-sum coefficient vectors and verifies
    (gamma / 2) (sum |a_i|)^2 + (A a | a) <= 0 up to a relative rounding
    allowance.  ``max_violation`` is the largest slack normalized by
    max|A| (sum |a_i|)^2; at most ``tol`` means every trial passed.  When a
    witness direction is supplied, the same inequality is retested at
    ``gamma * 1.0001`` with that vector, and a genuine extremal witness
    must violate it.
    """
    ntm = x if isinstance(x, NegTypeMatrix) else power_matrix(x, p)
    arr = ntm.A.a
    scale = max(ntm.A.max_abs, 1e-300)
    rng = np.random.default_rng(seed)
    tol = 1e-9
    failures = 0
    max_violation = -np.inf
    n = arr.shape[0]
    for _ in range(trials):
        alpha = rng.standard_normal(n)
        alpha -= alpha.mean()
        l1 = float(np.sum(np.abs(alpha)))
        if l1 == 0.0:
            continue
        slack = 0.5 * gamma * l1 * l1 + float(alpha @ arr @ alpha)
        violation = slack / (scale * l1 * l1)
        if violation > max_violation:
            max_violation = violation
        if violation > tol:
            failures += 1

    maximality_violated = None
    inflated = None
    if witness is not None:
        w = np.asarray(witness, dtype=float)
        inflated = gamma * 1.0001
        l1 = float(np.sum(np.abs(w)))
        slack = 0.5 * inflated * l1 * l1 + float(w @ arr @ w)
        maximality_violated = bool(slack / (scale * l1 * l1) > tol)

    return GapInequalityReport(
        trials=trials,
        failures=failures,
        max_violation=float(max_violation),
        tol=tol,
        maximality_checked=witness is not None,
        maximality_violated=maximality_violated,
        inflated_gamma=inflated,
    )


@dataclass(frozen=True, eq=False)
class GapResult:
    """Gap constant and everything produced on the way to it.

    ``gamma`` is always derived from ``beta`` as 2.0 / beta, so the two are
    consistent to the last bit.  Cross-check fields are None when the
    corresponding route was not run.  ``method`` names the exact route,
    "gray_scan" or "branch_and_bound"; the ``bnb_*`` fields and the node
    counts are set only for the latter.  ``bnb_gap`` is
    max(0, best_bound - beta) and ``bnb_delta`` the rounding allowance of
    its certificate (see BnbResult).
    """

    gamma: float
    beta: float
    s_star: np.ndarray
    witness_y0: np.ndarray | None
    beta_by_opnorm: float | None
    beta_by_binary: float | None
    method: str
    wall_time: float
    bnb_certified: bool | None = None
    nodes_expanded: int | None = None
    nodes_pruned: int | None = None
    bnb_gap: float | None = None
    bnb_delta: float | None = None


def solve_gap(
    x,
    p: float = 1.0,
    *,
    tols: Tolerances | None = None,
    cross_check: bool = True,
    max_enum_n: int = MAX_ENUM_N,
    use_bnb: bool = False,
    bnb_budget: int = 2_000_000,
    compute_witness: bool = True,
) -> GapResult:
    """Full pipeline from a metric space (or prepared power matrix) to the
    gap constant.  Strict verdict required; classify first if unsure.

    ``x`` may also be the NegTypeReport of an earlier ``classify``, which
    is then used as is; its tolerances were fixed when it was made, so
    passing ``tols`` alongside it is an error.

    n alone fixes the one exact route, which yields beta and a maximizer:
    the sign-vector enumeration beta_hypercube up to ``max_enum_n``, past
    it branch_and_bound when ``use_bnb`` is set (its result may be
    uncertified if the node budget is hit) and TooLarge otherwise.
    Within the cutoff ``use_bnb`` changes nothing, and ``cross_check``
    adds the value-only routes beta_opnorm and, when the report's
    functional u is constant, so that B annihilates the all-ones vector,
    beta_binary.
    """
    t0 = time.perf_counter()
    if isinstance(x, NegTypeReport):
        if tols is not None:
            raise ValueError("tolerances are fixed by the NegTypeReport; do not pass tols")
        report = x
    else:
        report = classify(x if isinstance(x, NegTypeMatrix) else power_matrix(x, p), tols=tols)
    if report.verdict != STRICT_NEGATIVE_TYPE:
        raise NotStrict(f"verdict is {report.verdict}; the gap constant requires strictness")
    b = report.B
    n = b.n

    beta_op = None
    beta_bin = None
    bnb = {}

    if n > max_enum_n:
        if not use_bnb:
            raise TooLarge(
                f"n = {n} exceeds the enumeration cutoff {max_enum_n}; "
                "enable branch-and-bound or raise the cutoff"
            )
        r = branch_and_bound(b, budget=bnb_budget)
        beta, s_star = r.beta, r.s_star
        method = "branch_and_bound"
        bnb = dict(bnb_certified=r.certified, nodes_expanded=r.nodes_expanded,
                   nodes_pruned=r.nodes_pruned, bnb_gap=max(0.0, r.best_bound - r.beta),
                   bnb_delta=r.delta)
    else:
        beta, s_star = beta_hypercube(b, max_enum_n=max_enum_n)
        method = "gray_scan"
        if cross_check:
            beta_op = beta_opnorm(b, max_enum_n=max_enum_n)
            if np.all(report.u == report.u[0]):
                beta_bin = beta_binary(b, max_enum_n=max_enum_n)

    gamma = 2.0 / beta
    y0 = make_witness(report, s_star) if compute_witness else None

    return GapResult(
        gamma=gamma,
        beta=beta,
        s_star=s_star,
        witness_y0=y0,
        beta_by_opnorm=beta_op,
        beta_by_binary=beta_bin,
        method=method,
        wall_time=time.perf_counter() - t0,
        **bnb,
    )
