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
Each route writes a block's values into tables it allocates once per call.
beta_opnorm values the quadratic first and takes ||B s||_1 only where
(B s | s) comes within a derived threshold of the maximum, since B is
positive semidefinite up to rounding.  With one BLAS thread at n = 23-24,
each route takes 3-6 ns per sign vector on trees, point clouds and odd
cycles.

Tie-breaking contract: every candidate that rounding could make maximal is
re-evaluated with the canonical expression float(s @ B @ s), maxima are
compared exactly on those values, and exact ties resolve to the
lexicographically smallest sign vector (-1 before +1).  The result is
therefore bit-identical whatever the block layout.  The contract covers
the enumeration routes, and branch_and_bound on at most _ENUM_FREE + 1
points, where it solves the root outright.  Past that, branch_and_bound
prunes a node once its raw bound falls to the incumbent, so it may discard
a sign vector whose canonical value is an ulp or two higher: its maximizer
is a maximum up to its delta and need not be the enumeration's.  On the
22-point discrete space it returns 22.0 where beta_hypercube returns
22.000000000000007, and on the 18-point one the same 18.0 with another
maximizer.

Past the cutoff, branch_and_bound searches sign prefixes best first.  Each
queued node carries its prefix, and the prefix's coupling to the free
coordinates, as its own arrays, made from its parent's when the node is
queued, so the search reaches any depth.  A node with at most _ENUM_FREE
free coordinates is solved outright: the sign-table kernel values all its
completions as one block, in the sign tables the three routes share
(_one_block), and the tie-break contract picks among them.  Any other
node's bound is the shifted-eigenvalue bound of Poljak and Rendl,
qf + (m+1) lmax(Q + Diag d) - sum d over the m free coordinates, tightened
by at most _SHIFT_STEPS over-relaxed subgradient steps on the shifts d
(the comment there says how both constants were chosen).  Its result
carries delta, a derived allowance for the rounding of every bound that
pruned, and states the certificate beta_true <= max(best_bound, beta) +
delta.  Each step takes one LAPACK solve for the top eigenpair alone
(_top_eig), and these solves take over half the search's time.  With one
BLAS thread on a 2-core Xeon, the odd cycles with n = 29, 31, 51, 61 and
71 certified in 0.04, 0.06, 0.53, 1.3 and 3.1 s, the random trees
gen_random_tree(n, seed=0) with n = 66 and 100 in 0.08 and 0.45 s, and
3-D clouds of 60 standard normal points (seeds 0-2) in 4.6-6.8 s; the
README gives node and eigen-solve counts.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import NotStrict, TooLarge
from .linalg import SymMatrix, dsyevr, solve
from .metric import NegTypeMatrix, power_matrix
from .negtype import STRICT_NEGATIVE_TYPE, NegTypeReport, Tolerances, classify

# Default cutoff for exact enumeration: 2^(n-1) sign vectors at 3-6 ns
# each through the sign-table kernel, for the maximum and for each
# cross-check, 0.03-0.05 s per route at n = 24 (measured at n = 23-24 on a
# 2-core Xeon with one BLAS thread, Python 3.11, NumPy 2.4).
MAX_ENUM_N = 24

# No cutoff enumerates past this n.  _sign_blocks builds its suffix tables,
# 2^((n-1)//2) rows of (n-1)//2 floats, before the first block is valued:
# 80 MB at n = 40, 1.5 GB at n = 48.  beta_opnorm also keeps one float
# per block of _BLOCK sign vectors, 64 MiB at n = 40 (so a peak near
# 150 MB there) and 16 GiB at n = 48.  At 3-6 ns per sign vector (see
# MAX_ENUM_N), one route over the 2^39 sign vectors of n = 40 takes 27-55
# minutes, and at n = 48 five to ten days; each further point doubles
# the time and the block maxima, and every second one the tables.
ENUM_CEILING = 40

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
    if n > ENUM_CEILING:
        raise TooLarge(f"n = {n} exceeds the hard enumeration ceiling {ENUM_CEILING}, "
                       "whatever the cutoff")
    return arr


def _canonical(arr: np.ndarray, s: np.ndarray) -> float:
    """Canonical quadratic value used for all cross-strategy comparisons."""
    return float(s @ arr @ s)


def _sign_rows(start: int, stop: int, width: int) -> np.ndarray:
    """Rows t = start..stop-1 as sign vectors: bit k of t set puts -1 in column k."""
    t = np.arange(start, stop)[:, None]
    return 1.0 - 2.0 * ((t >> np.arange(width)) & 1)


def _high_rows(start: int, stop: int, width: int) -> np.ndarray:
    """Prefix rows [1, s_1..s_width] for t = start..stop-1, as in _sign_rows."""
    high = np.ones((stop - start, width + 1))
    high[:, 1:] = _sign_rows(start, stop, width)
    return high


@functools.cache
def _one_block(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (H, L) sign tables of order n as one block, read-only.

    They are the one block _sign_blocks(n) yields when 2^(n-1) <= _BLOCK.
    Made on the first call for each n and kept; the orders n <= 17 that
    the default _BLOCK takes in one block need 34 KiB at n = 17 and
    104 KiB in all.
    """
    low_width = (n - 1) // 2
    high_width = n - 1 - low_width
    tables = _high_rows(0, 1 << high_width, high_width), _sign_rows(0, 1 << low_width, low_width)
    for table in tables:
        table.flags.writeable = False
    return tables


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
        high = _high_rows(start, min(start + high_step, 1 << high_width), high_width)
        for low in lows:
            yield high, low


def _blocks_with_tables(n: int):
    """The blocks of _sign_blocks(n), and two empty tables of a block's shape.

    A route writes each block's values into these tables, so a call
    allocates them once; a table read after the next block is overwritten.
    An order that fits one block takes its sign tables from _one_block.
    """
    if 1 << (n - 1) <= _BLOCK:
        blocks = iter([_one_block(n)])
    else:
        blocks = _sign_blocks(n)
    high, low = first = next(blocks)
    shape = (len(high), len(low))
    return itertools.chain([first], blocks), np.empty(shape), np.empty(shape)


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
    return 4.0 * (arr.shape[0] + 3) * np.finfo(float).eps * float(np.abs(arr).sum())


def _best_in_block(arr: np.ndarray, vals: np.ndarray, high: np.ndarray, low: np.ndarray,
                   prefix: np.ndarray, g: float, best_val: float, best_key):
    """Fold a valued block into the best canonical value and its sign vector.

    ``vals[i, j]`` is a computed (B s | s) of s = [prefix, high_i[1:], low_j]
    that differs from its canonical value by at most ``g``.  Returns the
    larger of (best_val, best_key) and the block's best under the tie-break
    contract; best_key is None while best_val is -inf.
    """
    # If an entry's value is below the block's maximum - 2g, its canonical
    # value is below that of the block's argmax; below best_val - g, below
    # best_val.  Neither can win or tie, so only the remaining entries are
    # re-evaluated.
    top = float(vals.max())
    if top < best_val - g:
        return best_val, best_key
    for i, j in zip(*np.nonzero(vals >= max(top - 2.0 * g, best_val - g))):
        s = np.concatenate((prefix, high[i, 1:], low[j]))
        v = _canonical(arr, s)
        key = tuple(s)
        if v > best_val or (v == best_val and key < best_key):
            best_val, best_key = v, key
    return best_val, best_key


def beta_hypercube(b, *, max_enum_n: int = MAX_ENUM_N) -> tuple[float, np.ndarray]:
    """Exact maximum of (B s | s) over sign vectors, with its maximizer.

    The first coordinate is fixed to +1 by sign symmetry.  Each block of
    sign vectors is valued at once by the split quadratic, and every entry
    that rounding could lift to the maximum is re-evaluated canonically.
    """
    arr = _enumerable(b, max_enum_n)
    g = _rounding_guard(arr)
    best_val, best_key = -np.inf, None
    first = np.ones(1)
    blocks, vals, tmp = _blocks_with_tables(arr.shape[0])
    for high, low in blocks:
        best_val, best_key = _best_in_block(arr, _split_values(arr, high, low, vals, tmp),
                                            high, low, first, g, best_val, best_key)
    return best_val, np.array(best_key)


def beta_opnorm(b, *, max_enum_n: int = MAX_ENUM_N) -> float:
    """Exact operator norm of B from the max-norm to the 1-norm.

    Equals max ||B s||_1 over sign vectors.  Only a sign vector whose value
    (B s | s) comes near the maximum can reach it, so a first pass values
    the split quadratic over every block, and a second takes
    ||B s||_1 = sum_c |(H B_H:)_ic + (L B_L:)_jc|, from zero in column
    order, only for the entries (i, j) whose value reaches the threshold
    derived below.  Value only; no maximizer is tracked.
    """
    arr = _enumerable(b, max_enum_n)
    n = arr.shape[0]
    blocks, vals, tmp = _blocks_with_tables(n)
    # Each block's maximum, one float per block: every block has the shape
    # of the first (see _sign_blocks), so there are 2^(n-1) / vals.size.
    tops = np.empty((1 << (n - 1)) // vals.size)
    for index, (high, low) in enumerate(blocks):
        tops[index] = _split_values(arr, high, low, vals, tmp).max()
    last = (high, low)
    beta_hat = float(tops.max())
    # Let e = 1.01 (n + 1) eps sum|B_ij|.  A computed split value q^(s) and
    # a computed norm N^(s) are each within e of the exact (B s | s) and
    # ||B s||_1: each sums the terms +-B_ij through products of depth at
    # most n and then at most n further terms of total at most sum|B_ij|
    # (see _rounding_guard).  With B + mu I positive semidefinite,
    # Cauchy-Schwarz in its inner product gives for sign vectors s and t
    #   (t | B s) = (t | (B + mu I) s) - mu (t | s)
    #             <= sqrt(((B t | t) + mu n) ((B s | s) + mu n)) + mu n,
    # so ||B s||_1 = max_t (t | B s) <= sqrt((beta + mu n)((B s | s) + mu n))
    # + mu n with beta = max (B t | t) <= beta^ + e.  And t = s gives
    # ||B s||_1 >= (B s | s), so the table's maximum is at least
    # beta^ - 2e, the bound at the entry of beta^.  An entry s holding the
    # maximum therefore has
    #   beta^ - 3e - mu n <= sqrt((beta^ + e + mu n) (q^(s) + e + mu n)),
    # and, if the left side a(e) is positive, q^(s) >= T(e) with
    #   T(x) = a(x) (a(x) / (beta^ + x + mu n)) - mu n - x,
    #   a(x) = beta^ - 3x - mu n.
    # T falls as x grows while a(x) > 0, so T(e) - T(g) >= g - e >=
    # 13 eps sum|B_ij| for g = _rounding_guard(B).  A positive computed
    # a(g) means mu n < beta^ <= 1.01 sum|B_ij| and leaves a(e) positive.
    # Evaluating T(g) in the order written takes ten roundings, each of a
    # quantity of magnitude at most 1.01 sum|B_ij| (the quotient is below 1
    # and is multiplied by a).  T grows with a at slope
    # 2 a / (beta^ + g + mu n) < 2, so the four roundings that reach a count
    # twice, and mu n's twice more, in the divisor and in the last
    # subtraction: at most 16 u 1.01 sum|B_ij| < 9 eps sum|B_ij| in all,
    # inside the 13.  So every entry that can hold the maximum has
    # q^ >= fl(T(g)); skipping the others leaves the full table's maximum
    # bit for bit.  Otherwise, as for an indefinite B, nothing is skipped.
    # No step overflows where the squares of the exact formula would: the
    # quotient is below 1, and an overflowed sum or bound only lowers the
    # threshold (to -inf, or to NaN, which skips nothing either).
    # mu: the top eigenvalue dsyevr computes of -B is within p(n) u ||B||_2
    # of -lmin(B), with p(n) = n^2 assumed as in branch_and_bound.  For a
    # symmetric B, ||B||_2 is at most its largest row sum of |B_ij|, so
    # n^2 eps max_i sum_j |B_ij| is at least twice that, and the spare half
    # covers the roundings of the row sums and of the sum.
    g = _rounding_guard(arr)
    eps = np.finfo(float).eps
    row_sum = float(np.abs(arr).sum(axis=1).max())
    mu = max(0.0, _top_eig(-arr, vectors=False)) + n * n * eps * row_sum
    a = beta_hat - 3.0 * g - mu * n
    threshold = a * (a / (beta_hat + g + mu * n)) - mu * n - g if a > 0.0 else -np.inf

    def top_norm(high, low, table):
        """Largest ||B s||_1 over the entries of ``table`` that reach the threshold."""
        # "Not below", so that a value that overflowed to NaN is kept.
        rows, cols = np.nonzero(~(table < threshold))
        # The same full-block products as an unfiltered table, and the same
        # sequential sum over columns (accumulate, unlike a reduction, adds
        # in order), so each norm is the same float as its entry there.
        k = high.shape[1]
        terms = (high @ arr[:k])[rows]
        terms += (low @ arr[k:])[cols]
        np.abs(terms, out=terms)
        return float(np.add.accumulate(terms, axis=1, out=terms)[:, -1].max())

    # The first pass let go of its sign tables, so the blocks before the
    # last come from a fresh walk (none at all for a one-block call); the
    # last block and its values in ``vals`` are still at hand.
    best = -np.inf
    spare = np.empty_like(vals)
    for index, (high, low) in enumerate(itertools.islice(_sign_blocks(n), len(tops) - 1)):
        if not tops[index] < threshold:
            best = max(best, top_norm(high, low, _split_values(arr, high, low, spare, tmp)))
    if not tops[-1] < threshold:
        best = max(best, top_norm(*last, vals))
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
    ``delta``; past n = _ENUM_FREE + 1 it need not follow the tie-break
    contract of the enumeration (module docstring), since a node is pruned
    on its raw bound.  ``nodes_pruned`` counts the nodes discarded because
    their bound fell to the incumbent, ``nodes_enumerated`` the expanded
    nodes that were solved outright by enumerating their completions, and
    ``eigen_solves`` the top-eigenvalue solves (_top_eig) of the search,
    the root's one per depth included.
    """

    beta: float
    s_star: np.ndarray
    certified: bool
    nodes_expanded: int
    best_bound: float
    delta: float
    nodes_pruned: int
    nodes_enumerated: int
    eigen_solves: int


# Most subgradient steps on the shifts of one node's bound, each a top
# eigenpair (_top_eig) of order n - depth + 1, and the over-relaxation mu of
# each step (_shifted_bound).  The Polyak step moves the shifts to where the
# linear model f(d) + g.(d' - d) of the bound reaches the prune level.  f is
# convex, so it lies above that model, and at the point aimed at it is
# still above the level: the plain step (mu = 1) falls short, and the node
# takes further solves or is branched on.  Both were chosen by one sweep,
# mu = 1.0-1.3 with 5-7 steps, over the odd cycles 29-61,
# gen_random_tree(n, seed) with n = 40-100 and seeds 0-1, and 3-D clouds
# with n = 30-60 and seeds 0-2.  Against the plain step with 6 steps,
# mu = 1.2 with 6 steps took 26-44 % fewer eigen-solves on each family, with
# beta unchanged bit for bit and every run certified.  mu = 1.15-1.25 with
# 6-7 steps came within 13 % of it on every family, and 5 steps took more
# nodes on every family.  The safe range is narrow: longer steps overshoot
# on random trees (mu = 1.3 took half again as many solves as 1.2 on them,
# 1.35 took gen_random_tree(60, seed=0) from 137 nodes to 2,077, and 1.5
# left it uncertified after 5,000), and mu = 0.95 took cycle29 from 1,419
# solves to 1,701.
_SHIFT_STEPS = 6
_SHIFT_RELAX = 1.2

# Nodes with at most this many free coordinates are solved outright: the
# sign-table kernel values all 2^m completions of one as a single block
# (_one_block of order m + 1, which must stay within _BLOCK), instead of
# reaching them one queued node at a time; on the odd cycles 29 and 31 a
# third of all nodes lay in such subtrees.  Of 12-18, tried with one BLAS
# thread on the odd cycles 29, 31, 41 and 51 and on 3-D clouds with n = 30,
# 14-16 took times within the noise of each other; 12 and 13 took 5-10 %
# longer, and 17 and 18, whose orders no longer fit one block, 15-50 %
# longer on the n = 29-31 instances.
_ENUM_FREE = 14

_EPS = float(np.finfo(float).eps)


def _children(arr: np.ndarray, diag: list, cheap_lam: list, depth: int, qf: float, h):
    """Both children, s_d = +1 first, of the node at depth d with prefix value
    qf and coupling h: their prefix values qf + 2 s_d h_0 + B_dd, couplings
    h_rest + s_d B_rest,d (rows of one array) and cheap bounds."""
    twice_h0 = 2.0 * float(h[0])
    child_h = np.empty((2, h.shape[0] - 1))
    col = arr[depth + 1 :, depth]
    np.add(h[1:], col, out=child_h[0])
    np.subtract(h[1:], col, out=child_h[1])
    abs_sums = np.add.reduce(np.abs(child_h), axis=1).tolist()
    child_q = (qf + twice_h0 + diag[depth], qf - twice_h0 + diag[depth])
    lam = cheap_lam[depth + 1]
    bounds = (child_q[0] + 2.0 * abs_sums[0] + lam, child_q[1] + 2.0 * abs_sums[1] + lam)
    return child_q, child_h, bounds


def _bound_error(k: int, depth: int, prefix_abs: float, a_norm: float, shifts_abs: float) -> float:
    """Rounding error of a node bound of order k; derived in branch_and_bound."""
    return _EPS * (
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
    # compute_v, range, lower, vl, vu, il and iu, passed by position: f2py
    # takes about a microsecond longer to match keywords.
    w, z, m, _, info = dsyevr(a, vectors, "I", 0, 0.0, 1.0, k, k)
    if (info != 0 or m != 1) and np.isfinite(a).all():
        w, z, m, _, info = dsyevr(a, compute_v=vectors, range="A")
        w, z, m = w[k - 1 :], z[:, k - 1 :], m - k + 1
    top = float(w[0])
    if info != 0 or m != 1 or not math.isfinite(top):
        raise np.linalg.LinAlgError(f"dsyevr found {m} top eigenvalues (info {info})")
    return (top, z[:, 0]) if vectors else top


def _shifted_bound(a: np.ndarray, shifts: np.ndarray, qf: float, incumbent: float):
    """Over-relaxed Polyak subgradient steps on
    f(shifts) = k lmax(Q + Diag shifts) - sum shifts.

    ``a`` holds Q on entry and Q + Diag shifts, for the returned shifts, on
    exit.  Stops once qf + f reaches ``incumbent``.  Returns the smallest f
    seen with its shifts, top eigenpair, the Frobenius norm of
    Q + Diag shifts and the number of eigen-solves taken.
    """
    k = a.shape[0]
    flat = a.reshape(-1)
    diag = flat[:: k + 1]
    q_diag = diag.copy()
    scale = 1.0
    best = None
    for step in range(_SHIFT_STEPS):
        np.add(q_diag, shifts, out=diag)
        top, v = _top_eig(a)
        f = k * top - float(np.add.reduce(shifts))
        if best is None or f < best[0]:
            best = (f, shifts, top, v)
        else:
            scale /= 2.0
        if qf + best[0] <= incumbent or step == _SHIFT_STEPS - 1:
            break
        # The subgradient k v^2 - 1 and the over-relaxed Polyak step along
        # it, which the break above skips after the last solve.
        grad = v * v
        grad *= k
        grad -= 1.0
        norm2 = float(grad @ grad)
        if norm2 == 0.0:
            break
        grad *= _SHIFT_RELAX * scale * (f - (incumbent - qf)) / norm2
        shifts = shifts - grad
    f, shifts, top, v = best
    np.add(q_diag, shifts, out=diag)
    # The Frobenius norm, as np.linalg.norm computes it.
    return f, shifts, top, v, math.sqrt(flat @ flat), step + 1


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


def _node_buffers(arr: np.ndarray, k: int):
    """A buffer for the node matrices Q of order k, its block B_FF filled
    in, and, for an order solved outright, two tables of its block's shape.

    Every node of order k has the same free coordinates, so only Q's first
    row and column and its diagonal change from node to node.
    """
    depth = arr.shape[0] - k + 1
    q = np.empty((k, k))
    q[1:, 1:] = arr[depth:, depth:]
    if k > _ENUM_FREE + 1:
        return q, None, None
    high, low = _one_block(k)
    return q, np.empty((len(high), len(low))), np.empty((len(high), len(low)))


def branch_and_bound(b, *, budget: int = 2_000_000) -> BnbResult:
    """Certified maximum of (B s | s) over sign vectors by best-first search.

    A node fixes a sign prefix s_P (the first coordinate is +1 by sign
    symmetry) and leaves the other m coordinates s_F free.  With
    qf = (B_PP s_P | s_P) and h = B_FP s_P, the node's best value is qf
    plus the maximum of x^T Q x over x in {-1, +1}^(m+1) with x_0 = 1, for
    Q = [[0, h^T], [h, B_FF]].  A popped node with m <= _ENUM_FREE is solved
    outright: the sign-table kernel values qf + x^T Q x for every
    completion, and each one that rounding could make maximal is
    re-evaluated canonically under the enumeration's tie-break.  Any other
    popped node takes the shifted-eigenvalue bound of Poljak and Rendl: for
    any shift vector d, qf + (m+1) lmax(Q + Diag d) - sum d.  It takes a few
    subgradient steps on d, warm-started from its parent's, and the top
    eigenvector of its best shift is rounded to a sign vector that may raise
    the incumbent.  Children queue under the cheaper of their spectral
    bound qf + 2 ||h||_1 + m lmax(B_FF) and their parent's shifted bound.
    The incumbent starts from a greedy descent and a 1-flip local search,
    so even a zero budget returns a valid (uncertified) candidate.  Any
    other budget expands the root, so for n <= _ENUM_FREE + 1 the result is
    beta_hypercube's, maximizer included.

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
        return BnbResult(v, s, True, 0, v, 0.0, 0, 0, 0)

    lam = np.empty(n + 1)
    lam[n] = 0.0
    for d in range(n - 1, -1, -1):
        lam[d] = _top_eig(arr[d:, d:], vectors=False)
    solves = n
    tail_norm = [float(np.linalg.norm(arr[d:, d:])) for d in range(n + 1)]
    prefix_abs = np.concatenate(([0.0], np.cumsum(np.abs(arr).sum(axis=1))))

    # The bound of a node at depth d, with k = n - d + 1, is computed as
    # fl(qf^ + fl(fl(k lam^) - fl(sum d))), where lam^ is the top eigenvalue
    # that _top_eig computes of A^ = fl(Q^ + Diag d), and Q^ holds h^, the
    # running sum B_F0 s_0 + ... + B_F,d-1 s_d-1 in that order.  Take the
    # stored shifts d as exact; the bound is valid for the exact qf and h at
    # any d.  With u = eps / 2, gamma_j = j u / (1 - j u) and S_P = sum
    # over rows i in P of sum_j |B_ij|:
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
    # factor.  A child's prefix value qf + 2 sign h_0 + B_dd carries the
    # error of the direct sum at depth d + 1, and its h_rest + sign B_rest,d
    # is the running sum one term longer.  Pruning and certification
    # compare the raw floats; delta adds the largest error of a bound that
    # discarded nodes to the rounding of a canonical value, at most
    # gamma_2n sum|B_ij| <= (n + 1) eps sum|B_ij|.  A discarded sign vector
    # s then has (B s | s) <= bound + err <= incumbent + delta, and the same
    # holds for its canonical value; an evaluated sign vector is within the
    # canonical rounding of its value, which is at most the incumbent.
    # A node solved outright re-evaluates every completion whose computed
    # value comes within the guard g of the incumbent (see _rounding_guard),
    # so the completions it passes over have canonical values below the
    # incumbent, and it adds nothing to delta.
    # The cheap bound's eigenvalue term m lmax(B_FF) and its error, by depth.
    cheap_lam = [float(lam[d] * (n - d)) for d in range(n + 1)]
    cheap_err = [_bound_error(n - d + 1, d, prefix_abs[d], tail_norm[d], 0.0)
                 for d in range(n + 1)]
    diag = arr.diagonal()
    diag_list = diag.tolist()
    g = _rounding_guard(arr)

    # Greedy descent to the child of the larger cheap bound, +1 on a tie,
    # then 1-flip local search, for the initial incumbent.
    g_signs = np.ones(n)
    g_q, g_h = diag_list[0], arr[1:, 0]
    for depth in range(1, n):
        child_q, child_h, bounds = _children(arr, diag_list, cheap_lam, depth, g_q, g_h)
        pick = 0 if bounds[0] >= bounds[1] else 1
        g_signs[depth] = 1.0 - 2.0 * pick
        g_q, g_h = child_q[pick], child_h[pick]
    best_val, best_key = _local_search(arr, _canonical(arr, g_signs), tuple(g_signs))

    # A queue entry: (-bound, depth, prefix bits, bound error, the parent's
    # shifts, the first entry of this node's starting shifts, sign prefix,
    # coupling h = B_FP s_P).  The node's sign prefix and h are its own
    # arrays, made from its parent's when it is queued; h is the running
    # sum of its columns, in prefix order.  Bit i of the prefix bits is set
    # where s_i = +1; an int of any size, it only breaks ties of bound and
    # depth in the queue's order, so no entry compares past it.
    h = arr[1:, 0].copy()
    heap = [(-(diag_list[0] + 2.0 * float(np.sum(np.abs(h))) + cheap_lam[1]), 1, 1,
             cheap_err[1], None, 0.0, np.ones(1), h)]
    buffers = {}
    pops = 0
    pruned = 0
    enumerated = 0
    delta = 0.0
    certified = False
    while heap:
        entry = heapq.heappop(heap)
        neg_bound, depth, bits, err, parent_shifts, first, prefix, h = entry
        top_bound = -neg_bound
        # The root is expanded whatever its bound, so that up to
        # _ENUM_FREE + 1 points the tie-break, not the greedy incumbent,
        # picks the maximizer.
        if pops >= budget or (pops and top_bound <= best_val):
            certified = bool(top_bound <= best_val)
            heap.append(entry)
            break
        pops += 1
        k = n - depth + 1
        buffer = buffers.get(k)
        if buffer is None:
            buffer = buffers[k] = _node_buffers(arr, k)
        q, vals, tmp = buffer
        q[0, 1:] = h
        q[1:, 0] = h
        q_diag = q.reshape(-1)[:: k + 1]
        q_diag[0] = 0.0
        q_diag[1:] = diag[depth:]
        qf = float(prefix @ arr[:depth, :depth] @ prefix)
        if vals is not None:
            enumerated += 1
            high, low = _one_block(k)
            _split_values(q, high, low, vals, tmp)
            vals += qf
            best_val, best_key = _best_in_block(arr, vals, high, low, prefix, g, best_val,
                                                best_key)
            continue
        if parent_shifts is None:
            shifts = -q_diag
        else:
            shifts = np.concatenate(([first], parent_shifts[2:]))
        f, shifts, top_eig, vec, a_norm, steps = _shifted_bound(q, shifts, qf, best_val)
        solves += steps
        tail = np.where(vec[1:] * vec[0] >= 0.0, 1.0, -1.0)
        s = np.concatenate((prefix, tail))
        v = _canonical(arr, s)
        if v > best_val or (v == best_val and tuple(s) < best_key):
            best_val, best_key = _local_search(arr, v, tuple(s))
        if qf + f < top_bound:
            top_bound = qf + f
            err = _bound_error(k, depth, prefix_abs[depth], a_norm,
                               float(np.add.reduce(np.abs(shifts))))
        if top_bound <= best_val:
            pruned += 1
            delta = max(delta, err)
            continue
        child_qs, child_h, bounds = _children(arr, diag_list, cheap_lam, depth, qf, h)
        for child_bits, sign, child_q, child_h_row, bound in zip(
                (bits | (1 << depth), bits), (1.0, -1.0), child_qs, child_h, bounds):
            if bound < top_bound:
                child_err = cheap_err[depth + 1]
            else:
                bound, child_err = top_bound, err
            if bound <= best_val:
                pruned += 1
                delta = max(delta, child_err)
                continue
            child = np.empty(depth + 1)
            child[:depth] = prefix
            child[depth] = sign
            # Fixing x_d = sign x_0 in x^T (Q + Diag d) x <= mu |x|^2, mu the
            # top eigenvalue, merges coordinates 0 and d: the child's
            # Q' + Diag d' <= mu I for d' = (d_0 + d_d + child_q - qf - mu,
            # d_rest), whose bound is exactly the parent's.  The child's
            # steps start there.
            start = shifts[0] + shifts[1] + (child_q - qf) - top_eig
            heapq.heappush(heap, (-bound, depth + 1, child_bits, child_err, shifts, start, child,
                                  child_h_row))
    else:
        certified = True
        top_bound = best_val

    if certified:
        pruned += len(heap)
    delta = max([delta] + [e[3] for e in heap])
    delta += _EPS * (n + 1) * float(prefix_abs[n])
    return BnbResult(best_val, np.array(best_key), certified, pops, float(top_bound), float(delta),
                     pruned, enumerated, solves)


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
    its certificate (see BnbResult); ``bnb_enumerated`` and
    ``bnb_eigen_solves`` are BnbResult.nodes_enumerated and
    BnbResult.eigen_solves.
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
    bnb_enumerated: int | None = None
    bnb_eigen_solves: int | None = None


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
    the sign-vector enumeration beta_hypercube up to the cutoff
    min(``max_enum_n``, ENUM_CEILING), past it branch_and_bound when
    ``use_bnb`` is set (its result may be uncertified if the node budget
    is hit) and TooLarge otherwise.  Within the cutoff ``use_bnb`` changes
    nothing, and ``cross_check`` adds the value-only routes beta_opnorm
    and, when the report's functional u is constant, so that B annihilates
    the all-ones vector, beta_binary.
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

    if n > min(max_enum_n, ENUM_CEILING):
        if not use_bnb:
            if n > max_enum_n:
                raise TooLarge(f"n = {n} exceeds the enumeration cutoff {max_enum_n}; "
                               "enable branch-and-bound or raise the cutoff")
            raise TooLarge(f"n = {n} exceeds the hard enumeration ceiling {ENUM_CEILING}, "
                           "whatever the cutoff; enable branch-and-bound")
        r = branch_and_bound(b, budget=bnb_budget)
        beta, s_star = r.beta, r.s_star
        method = "branch_and_bound"
        bnb = dict(bnb_certified=r.certified, nodes_expanded=r.nodes_expanded,
                   nodes_pruned=r.nodes_pruned, bnb_gap=max(0.0, r.best_bound - r.beta),
                   bnb_delta=r.delta, bnb_enumerated=r.nodes_enumerated,
                   bnb_eigen_solves=r.eigen_solves)
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
