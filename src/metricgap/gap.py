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

All three are reductions over one walk, _valued_blocks, of one
enumeration kernel, _sign_blocks.  It splits each sign vector as
s = (s_H, s_L) and yields blocks of prefix and suffix sign tables (or
their 0/1 tables, for beta_binary), so a whole block is valued by a few
matrix products: (B s | s) = q_H + q_L + 2 (s_H B_HL) s_L^T, and
B s = B_:H s_H + B_:L s_L.  The tables of each order up to MAX_ENUM_N are
built on its first walk and kept, and a walk takes q_H once per prefix
table and q_L once per suffix table.  Sign symmetry lets every route fix
the first coordinate, halving the work.  beta_opnorm takes ||B s||_1 only
where (B s | s) comes within a derived threshold of the largest value met
so far, since B is positive semidefinite up to rounding.  With one BLAS
thread at n = 23-24, each route takes 1.3-2.2 ns per sign vector on
trees, point clouds and odd cycles.

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
maximizer.  Handed the input's automorphism group, as solve_gap does,
branch_and_bound also drops every node whose completions a symmetry maps
onto larger sign vectors, so its maximizer may be another member of the
orbit of the enumeration's, again a maximum up to its delta.  Of the
members of that orbit whose canonical values are within the rounding
guard of the one it met, it returns the best under the tie-break, so
which member the search met does not show in its result.

Past the cutoff, branch_and_bound first tries the root test: an incumbent
from a greedy descent and a 1-flip local search, in index order, that
comes within a root bound's rounding allowance of the trivial bound
sum |B_ij| certifies with no node expanded.  It does on a sign-balanced B,
whose beta is sum |B_ij|, such as a tree's (Harary 1953).  Any other B is
searched with its coordinates in descending order of B_ii, values within
rounding of each other kept in index order, and the result is mapped back
to the caller's order; odd cycles and discrete spaces, whose B_ii are all
equal up to rounding, are searched in index order.  The search takes sign
prefixes best first.  Each queued node carries its prefix, and the
prefix's coupling to the free coordinates, as its own arrays, made from
its parent's when the node is queued, so the search reaches any depth,
and a popped node builds its matrix Q in a new array of its own.  A node
with at most _ENUM_FREE free coordinates is solved outright: the walk the
three routes reduce, _valued_blocks, values all its completions, as one
block of the cached sign tables of its order, into value tables of its
own, and the tie-break contract picks among them (_best_in_block).  Any
other node's bound is the shifted-eigenvalue bound of Poljak and Rendl,
qf + (m+1) lmax(Q + Diag d) - sum d over the m free coordinates, tightened
by at most _SHIFT_STEPS over-relaxed subgradient steps on the shifts d
(the comment there says how both constants were chosen).  A step that
would undo part of the node's previous step is deflected off it, and a
child's first step is taken without a solve, from its parent's top
eigenvector.  It is the one node bound: a node is queued under its
parent's, the root under the trivial sum |B_ij|.  No bound can prune a
node that holds a maximizer, so once the search has met a second one (a
sign vector other than the incumbent's whose canonical value is within
the rounding guard of it), a node also stops stepping when the completion
that rounds its top eigenvector is such a vector.  It keeps its best
bound and is branched on as before, and the nodes below it on the path
to that vector are branched on without a solve.  The incumbent's own
path keeps stepping: the shifts its nodes refine, inherited by their
children, are what prune its siblings.
Given the input's automorphism group, it drops each child whose
completions are none of them the lexicographic leader of their orbit; on
an odd n-cycle, whose n tied maximizers form one orbit of its dihedral
group of order 2n, that walks one path where the plain search walks n.
Its result carries delta, a derived allowance for the rounding of every
bound that pruned, and states the certificate
beta_true <= max(best_bound, beta) + delta.  Each solved step takes one
LAPACK solve for the top eigenpair alone (_top_eig), and these solves
take two fifths to a half of the search's time.  With one BLAS thread on
a busy 2-core Xeon, the odd cycles with n = 29, 31, 51, 71 and 101
certified with their group in 0.02, 0.02, 0.14, 0.6 and 6 s, 3-D clouds
of 60 standard normal points (seeds 0-2) in 1.0-2.0 s, and random trees
gen_random_tree(n, seed) at the root; the README gives node and
eigen-solve counts.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSize, NotStrict, TooLarge
from .linalg import SymMatrix, dsyevr
from .metric import NegTypeMatrix, power_matrix
from .negtype import (
    STRICT_NEGATIVE_TYPE,
    NegTypeReport,
    _permuted,
    _rounding_guard,
    automorphisms,
    classify,
)

# solve_gap's default cutoff for exact enumeration: 2^(n-1) sign vectors
# at 1.3-2.2 ns each through the sign-table kernel, for the maximum and for
# each cross-check, 0.011-0.016 s per route at n = 24 (the best of 4 calls
# at n = 23-24, in three runs on a 2-core Xeon whose load sets the spread,
# with one BLAS thread, Python 3.11, NumPy 2.4).  The sign tables of every
# order up to this n are cached (_sign_blocks), 3.4 MiB in all.
MAX_ENUM_N = 24

# No route enumerates past this n, whatever the cutoff.  Past MAX_ENUM_N,
# _sign_blocks builds its suffix tables, 2^((n-1)//2) rows of (n-1)//2
# floats, before the first block is valued: 80 MB at n = 40, 1.5 GB at
# n = 48.  At 1.3-2.2 ns per sign vector (see MAX_ENUM_N), one route over
# the 2^39 sign vectors of n = 40 takes 12-20 minutes, and at n = 48 two to
# four days; each further point doubles the time, and every second one the
# tables.
ENUM_CEILING = 40

# Default node budget of branch_and_bound, solve_gap and the CLI's --bnb-budget.
BNB_BUDGET = 2_000_000

# Most sign vectors in one block of the sign-table kernel; a block's table
# of values takes 512 KiB.
_BLOCK = 1 << 16


def _as_array(b) -> np.ndarray:
    if isinstance(b, SymMatrix):
        return b.a
    return SymMatrix(b).a


def _enumerable(b) -> np.ndarray:
    arr = _as_array(b)
    n = arr.shape[0]
    if n > ENUM_CEILING:
        raise TooLarge(f"n = {n} exceeds the hard enumeration ceiling {ENUM_CEILING}, "
                       "whatever the cutoff")
    return arr


def _canonical(arr: np.ndarray, s: np.ndarray) -> float:
    """Canonical quadratic value used for all cross-strategy comparisons."""
    return float(s @ arr @ s)


def _sign_rows(start: int, stop: int, width: int, binary: bool = False) -> np.ndarray:
    """Rows t = start..stop-1 as sign vectors: bit k of t set puts -1 in
    column k, or 0 in the 0/1 vectors x = (s + 1) / 2 with ``binary``."""
    bits = (np.arange(start, stop)[:, None] >> np.arange(width)) & 1
    return 1.0 - (bits if binary else 2.0 * bits)


def _high_rows(start: int, stop: int, width: int, binary: bool) -> np.ndarray:
    """Prefix rows [1, s_1..s_width] for t = start..stop-1, as in _sign_rows;
    [0, x_1..x_width] with ``binary``."""
    high = np.empty((stop - start, width + 1))
    high[:, 0] = 0.0 if binary else 1.0
    high[:, 1:] = _sign_rows(start, stop, width, binary)
    return high


def _sign_tables(n: int, binary: bool, block: int):
    """The H tables, lazily, and the list of L tables of _sign_blocks(n,
    binary) at block size ``block``."""
    low_width = (n - 1) // 2
    high_width = n - 1 - low_width
    bits = block.bit_length() - 1
    low_step = 1 << (bits // 2)
    high_step = 1 << (bits - bits // 2)
    lows = [
        _sign_rows(start, min(start + low_step, 1 << low_width), low_width, binary)
        for start in range(0, 1 << low_width, low_step)
    ]
    highs = (_high_rows(start, min(start + high_step, 1 << high_width), high_width, binary)
             for start in range(0, 1 << high_width, high_step))
    return highs, lows


@functools.cache
def _cached_tables(n: int, binary: bool, block: int) -> tuple[tuple, tuple]:
    """_sign_tables(n, binary, block) made whole and read-only, on the
    first call for each key, and kept."""
    highs, lows = _sign_tables(n, binary, block)
    tables = tuple(highs), tuple(lows)
    for table in tables[0] + tables[1]:
        table.flags.writeable = False
    return tables


def _sign_blocks(n: int, binary: bool = False):
    """Yield (H, L) sign tables that cover {+1} x {-1,+1}^(n-1) exactly once.

    Rows of H are prefixes [1, s_1..s_h] and rows of L are suffixes
    s_{h+1}..s_{n-1}; a block stands for the len(H) * len(L) sign vectors
    [H_i, L_j].  The split point h depends on n alone and both tables are
    sliced so that no block exceeds _BLOCK vectors, so every sign vector is
    valued by the same sums whatever the block size.  Both steps and both
    table lengths are powers of two, so every block has the shape of the
    first, and the same L tables recur, in the same order, for every H.
    With ``binary``, the tables hold x = (s + 1) / 2 with x_0 = 0 in place
    of s, block for block.

    Up to MAX_ENUM_N the tables come from one read-only cache keyed on
    (n, binary, _BLOCK), filled on an order's first walk, so every later
    walk of that order, and every branch-and-bound leaf, builds none; only
    these read-only tables are shared, as each walk values its blocks into
    tables of its own (_valued_blocks).  An
    order takes 2^h rows of h + 1 floats and 2^(n-1-h) of n - 1 - h: at the
    default _BLOCK, 592 KiB per value of ``binary`` at n = 24, and 3.4 MiB
    for every order up to 24 with both.  Past MAX_ENUM_N the L tables are
    built before the first block and each H table as it is walked.
    """
    if n <= MAX_ENUM_N:
        highs, lows = _cached_tables(n, binary, _BLOCK)
    else:
        highs, lows = _sign_tables(n, binary, _BLOCK)
    for high in highs:
        for low in lows:
            yield high, low


def _valued_blocks(arr: np.ndarray, binary: bool = False):
    """Yield (H, L, values) for the blocks of _sign_blocks(n, binary), with
    values[i, j] the split (B x | x) of x = [H_i, L_j].

    Each walk allocates its own pair of value tables of a block's shape on
    its first block, and writes every block's values into them, so a table
    read after the next block is overwritten.  _sign_blocks yields every L
    table of one H table before the next H table, and the same L tables for
    every H, so the walk takes the prefix terms once per H table and the
    suffix row [1; q_L] once per L table.
    """
    terms = last_high = vals = tmp = None
    rights = []
    for high, low in _sign_blocks(arr.shape[0], binary):
        if vals is None:
            vals, tmp = np.empty((len(high), len(low))), np.empty((len(high), len(low)))
        if high is not last_high:
            terms, last_high, j = _prefix_terms(arr, high), high, 0
        if j == len(rights):
            rights.append(_suffix_row(arr, low))
        yield high, low, _split_values(terms, rights[j], low, vals, tmp)
        j += 1


def _prefix_terms(arr: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The terms of _split_values that depend on the prefix table alone:
    [q_H, 1], q_H the quadratic form of the leading diagonal block, and the
    doubled coupling 2 (x_H B_HL)."""
    k = high.shape[1]
    left = np.empty((len(high), 2))
    np.einsum("ij,ij->i", high @ arr[:k, :k], high, out=left[:, 0])
    left[:, 1] = 1.0
    coupling = high @ arr[:k, k:]
    coupling *= 2.0
    return left, coupling


def _suffix_row(arr: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The term of _split_values that depends on the suffix table alone:
    [1; q_L], q_L the quadratic form of the trailing diagonal block."""
    k = arr.shape[0] - low.shape[1]
    right = np.empty((2, len(low)))
    right[0] = 1.0
    np.einsum("ij,ij->i", low @ arr[k:, k:], low, out=right[1])
    return right


def _split_values(terms: tuple[np.ndarray, np.ndarray], right: np.ndarray, low: np.ndarray,
                  out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """(B x | x) for every x = [high_i, low_j], written into the table ``out``.

    ``terms`` is _prefix_terms(arr, high) and ``right`` is _suffix_row(arr,
    low).  With x = (x_H, x_L) the quadratic splits into
    q_H + q_L + 2 (x_H B_HL) x_L^T, where q_H and q_L are the quadratic
    forms of the diagonal blocks; every entry is the float
    (q_H + q_L) + 2 (x_H B_HL) x_L^T, summed in that order.  ``tmp`` is
    scratch of the same shape.

    Two matrix products and one add give those floats wherever
    sum|B_ij| + g (_rounding_guard) is finite.  Each entry of
    [q_H, 1] [1; q_L] is the sum of two exact products, rounded once, so it
    is fl(q_H + q_L) in whatever order the GEMM adds them.  Doubling is
    exact, so each product and partial sum of (2 x_H B_HL) x_L^T is exactly
    twice that of (x_H B_HL) x_L^T, and the table needs no doubling pass.
    Each |2 (x_H B_HL)_j|, and each partial sum, is at most sum|B_ij|, so
    nothing overflows that the documented order keeps finite.
    """
    left, coupling = terms
    np.matmul(left, right, out=out)
    np.matmul(coupling, low.T, out=tmp)
    out += tmp
    return out


def _fold(v: float, key: tuple, best_val: float, best_key, second: float):
    """Meet sign vector ``key`` of canonical value ``v``.

    Returns the best (best_val, best_key) under the tie-break contract, and
    ``second`` raised to the canonical value of every other vector met,
    a former best included; best_key is None while best_val is -inf.
    """
    if v > best_val or (v == best_val and key < best_key):
        return v, key, max(second, best_val)
    if key != best_key:
        second = max(second, v)
    return best_val, best_key, second


def _best_in_block(arr: np.ndarray, vals: np.ndarray, high: np.ndarray, low: np.ndarray,
                   prefix: np.ndarray, g: float, best_val: float, best_key,
                   second: float = -np.inf):
    """Fold a valued block into the best canonical value and its sign vector.

    ``vals[i, j]`` is a computed (B s | s) of s = [prefix, high_i[1:], low_j]
    that differs from its canonical value by at most ``g``.  Returns
    (best_val, best_key, second) after _fold has met every entry that is
    re-evaluated.
    """
    # If an entry's value is below the block's maximum - 2g, its canonical
    # value is below that of the block's argmax; below best_val - g, below
    # best_val.  Neither can win or tie, so only the remaining entries are
    # re-evaluated.
    top = float(vals.max())
    if top < best_val - g:
        return best_val, best_key, second
    # The flat scan and divmod give the 2-D np.nonzero's (i, j) pairs in the
    # same row-major order, at a tenth of its cost on a full block.
    hits = np.flatnonzero(vals >= max(top - 2.0 * g, best_val - g))
    for i, j in zip(*np.divmod(hits, vals.shape[1])):
        s = np.concatenate((prefix, high[i, 1:], low[j]))
        best_val, best_key, second = _fold(_canonical(arr, s), tuple(s), best_val, best_key,
                                           second)
    return best_val, best_key, second


def beta_hypercube(b) -> tuple[float, np.ndarray]:
    """Exact maximum of (B s | s) over sign vectors, with its maximizer.

    The first coordinate is fixed to +1 by sign symmetry.  Each block of
    sign vectors is valued at once by the split quadratic, and every entry
    that rounding could lift to the maximum is re-evaluated canonically.
    Like beta_opnorm and beta_binary it raises TooLarge only past
    ENUM_CEILING; the cutoff MAX_ENUM_N is solve_gap's.
    """
    arr = _enumerable(b)
    g = _rounding_guard(arr)
    best_val, best_key = -np.inf, None
    first = np.ones(1)
    for high, low, vals in _valued_blocks(arr):
        best_val, best_key, _ = _best_in_block(arr, vals, high, low, first, g, best_val,
                                               best_key)
    return best_val, np.array(best_key)


def beta_opnorm(b) -> float:
    """Exact operator norm of B from the max-norm to the 1-norm.

    Equals max ||B s||_1 over sign vectors.  Only a sign vector whose value
    (B s | s) comes near the maximum can reach it, so the walk values the
    split quadratic over each block and takes
    ||B s||_1 = sum_c |(H B_H:)_ic + (L B_L:)_jc|, from zero in column
    order, only for the entries (i, j) whose value reaches the threshold
    derived below, at the largest value met so far.  Value only; no
    maximizer is tracked.
    """
    arr = _enumerable(b)
    n = arr.shape[0]
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
    # The walk takes fl(T(g)) at the largest block maximum met so far.
    # Where a(g) > 0, T rises with beta^ (a^2 / c, c = beta^ + g + mu n > a,
    # has slope a (2c - a) / c^2 > 0), and the rounding bound above holds
    # at any such beta^.  A threshold taken at a running beta^ that is at
    # most the final one is therefore never above the final threshold: a
    # block seen early evaluates more entries, never fewer, so the maximum
    # is kept bit for bit.  A NaN block maximum leaves beta^ NaN for the
    # rest of the walk, and the threshold -inf.
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
    mu = max(0.0, _top_eig(-arr)[0]) + n * n * eps * row_sum
    beta_hat = best = -np.inf
    for high, low, vals in _valued_blocks(arr):
        top = float(vals.max())
        # np.maximum, unlike max, keeps a NaN.
        beta_hat = float(np.maximum(beta_hat, top))
        a = beta_hat - 3.0 * g - mu * n
        threshold = a * (a / (beta_hat + g + mu * n)) - mu * n - g if a > 0.0 else -np.inf
        if top < threshold:
            continue
        # "Not below", so that a value that overflowed to NaN is kept.
        rows, cols = np.divmod(np.flatnonzero(~(vals < threshold)), vals.shape[1])
        # The same full-block products as an unfiltered table, and the same
        # sequential sum over columns (accumulate, unlike a reduction, adds
        # in order), so each norm is the same float as its entry there.
        k = high.shape[1]
        terms = (high @ arr[:k])[rows]
        terms += (low @ arr[k:])[cols]
        np.abs(terms, out=terms)
        best = max(best, float(np.add.accumulate(terms, axis=1, out=terms)[:, -1].max()))
    return best


def beta_binary(b) -> float:
    """Four times the exact maximum of (B x | x) over 0/1 vectors.

    Requires B u = 0 for the all-ones u; complementing x then leaves the
    value unchanged, which justifies fixing the first coordinate to 0.
    It equals the sign-vector maximum only then, so it is no cross-check
    for a B built from a non-constant functional.  The walk values the
    0/1 tables x = (s + 1) / 2 of the sign tables.
    """
    arr = _enumerable(b)
    best = 0.0
    for _, _, vals in _valued_blocks(arr, binary=True):
        best = max(best, float(vals.max()))
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
    on its raw bound and the coordinates may be searched in another order.
    A result the root test certifies (branch_and_bound) has no node
    expanded, no eigen-solve and best_bound = beta.  With an automorphism
    group, ``s_star`` may also be another member of the maximizer's orbit,
    and ``delta`` then adds the asymmetry of the computed B under the
    group, max over sigma of sum |B_ij - B_sigma(i)sigma(j)| with its
    rounding, which covers the sign vectors of the nodes the group dropped.
    ``nodes_pruned`` counts
    the expanded nodes whose bound, after their subgradient steps, fell to
    the incumbent and, when the result certifies, the nodes still queued,
    whose bounds all have; ``nodes_enumerated`` counts the expanded nodes
    that were solved outright by enumerating their completions,
    ``eigen_solves`` the top-eigenvalue solves (_top_eig) of the search,
    a zero budget's one solve for the root's bound included,
    ``nodes_tied`` the bounded nodes that stopped their subgradient steps
    early because they hold another maximizer, together with the nodes on
    the path to such a maximizer that were branched on without a solve,
    and ``nodes_symmetric`` the
    nodes dropped because a sigma of the group maps each of their
    completions onto a larger one (branch_and_bound), and ``group_order``
    the order of the group the search was handed, 1 when there was none.
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
    nodes_tied: int
    nodes_symmetric: int
    group_order: int


# Most subgradient steps on the shifts of one node's bound, each a top
# eigenpair (_top_eig) of order n - depth + 1, and the over-relaxation mu of
# each step (_shifted_bound).  The Polyak step moves the shifts to where the
# linear model f(d) + g.(d' - d) of the bound reaches the prune level.  f is
# convex, so it lies above that model, and at the point aimed at it is
# still above the level: the plain step (mu = 1) falls short, and the node
# takes further solves or is branched on.  Every step keeps its full
# length: halving it after each solve that did not lower f took 18 % more
# solves on 54 inputs, with beta unchanged.  Both constants were chosen by
# one sweep, mu = 1.0-1.3 with 5-8 steps, over the odd cycles 29-61 with
# their group, gen_random_tree(n, seed) with n = 40-100 and seeds 0-1, and
# 3-D clouds with n = 30-50 and seeds 0-2, every run certified with beta
# unchanged bit for bit.  Against mu = 1.2
# with 6 steps, mu = 1.0 took 44-73 % more eigen-solves on each family.
# The safe range is narrow: on random trees longer steps overshoot
# (mu = 1.3 took 5.5 times the solves) and 5 steps took 2.8 times the
# solves.  7 steps took 2-20 % fewer on each family of the sweep but 6 %
# more on twelve 3-D clouds with n = 30 (seeds 0-11).
# A node that holds another maximizer stops stepping early (see
# branch_and_bound): stepping on to the end took 30 % more solves on the
# odd cycles 29-71 with their group, with beta unchanged bit for bit.
_SHIFT_STEPS = 6
_SHIFT_RELAX = 1.2

# Nodes with at most this many free coordinates are solved outright: the
# walk of the three routes, _valued_blocks, values all 2^m completions of
# one, as a single block while 2^m <= _BLOCK, instead of
# reaching them one queued node at a time; on the odd cycles 29 and 31 a
# third of all nodes lay in such subtrees.  Of 12-18, tried with one BLAS
# thread on the odd cycles 29, 31, 41 and 51 and on 3-D clouds with n = 30,
# 14-16 took times within the noise of each other; 12 and 13 took 5-10 %
# longer, and 17 and 18, whose orders no longer fit one block, 15-50 %
# longer on the n = 29-31 instances.
_ENUM_FREE = 14

_EPS = float(np.finfo(float).eps)


def _children(arr: np.ndarray, diag: list, depth: int, qf: float, h):
    """Both children, s_d = +1 first, of the node at depth d with prefix value
    qf and coupling h: their prefix values qf + 2 s_d h_0 + B_dd and
    couplings h_rest + s_d B_rest,d (rows of one array)."""
    twice_h0 = 2.0 * float(h[0])
    child_h = np.empty((2, h.shape[0] - 1))
    col = arr[depth + 1 :, depth]
    np.add(h[1:], col, out=child_h[0])
    np.subtract(h[1:], col, out=child_h[1])
    return (qf + twice_h0 + diag[depth], qf - twice_h0 + diag[depth]), child_h


def _bound_error(k: int, depth: int, prefix_abs: float, a_norm: float, shifts_abs: float) -> float:
    """Rounding error of a node bound of order k; derived in branch_and_bound."""
    # Each integer factor times eps is exact and below 1, so no product
    # overflows where the bound does not, and the sum is the same float as
    # eps times the sum of the unscaled terms wherever that stays normal.
    return (((k + 2) * (depth + 2) * _EPS) * prefix_abs + ((k**3 + 4 * k) * _EPS) * a_norm
            + ((k + 3) * _EPS) * shifts_abs)


def _top_eig(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the symmetric matrix ``a``, with its unit
    eigenvector.

    One LAPACK dsyevr call for the k-th of k eigenvalues: Householder
    tridiagonalization, bisection for that eigenvalue and inverse iteration
    for its vector.  When the top of the spectrum is tightly clustered the
    bisection can find no eigenvalue (with scipy 1.17.1's LAPACK,
    branch_and_bound on the 24-point discrete space at a budget of 20
    nodes meets this at two nodes of order 20, though not at the root,
    whose top eigenvalue is 24-fold); a finite matrix then gets its top
    pair from one dsyevr call for the whole spectrum.  Raises
    LinAlgError unless that leaves exactly one finite eigenvalue.  On a NaN
    entry dsyevr reports success, but finds no eigenvalue by index and
    leaves 0 in its place, an unsound bound, while for the whole spectrum
    it can return finite values; at order 1 it returns the NaN itself.
    """
    k = a.shape[0]
    # compute_v, range, lower, vl, vu, il and iu, passed by position: f2py
    # takes about a microsecond longer to match keywords.
    w, z, m, _, info = dsyevr(a, True, "I", 0, 0.0, 1.0, k, k)
    if (info != 0 or m != 1) and np.isfinite(a).all():
        w, z, m, _, info = dsyevr(a, range="A")
        w, z, m = w[k - 1 :], z[:, k - 1 :], m - k + 1
    top = float(w[0])
    if info != 0 or m != 1 or not math.isfinite(top):
        raise np.linalg.LinAlgError(f"dsyevr found {m} top eigenvalues (info {info})")
    return top, z[:, 0]


def _shifted_bound(a: np.ndarray, shifts: np.ndarray, qf: float, incumbent: float,
                   holds_tie=None, free=None):
    """Over-relaxed Polyak subgradient steps on
    f(shifts) = k lmax(Q + Diag shifts) - sum shifts.

    ``a`` holds Q on entry and Q + Diag shifts, for the returned shifts, on
    exit.  ``free``, when given, is a pair (f, vec): f at least that of
    ``shifts`` and a unit vector standing in for their top eigenvector,
    from which one step is taken before the first solve.  Stops once
    qf + f reaches ``incumbent``, or once ``holds_tie``, when given, is
    true of a top eigenvector.  Returns the smallest f solved for with its
    shifts, top eigenpair, the Frobenius norm of Q + Diag shifts, the
    number of eigen-solves taken and whether ``holds_tie`` stopped it.
    """
    k = a.shape[0]
    diag = a.reshape(-1)[:: k + 1]
    q_diag = diag.copy()
    target = incumbent - qf
    best = None
    tied = False
    last = None
    if free is not None:
        shifts, last = _shift_step(shifts, _SHIFT_RELAX * (free[0] - target), free[1], None)
    for step in range(_SHIFT_STEPS):
        np.add(q_diag, shifts, out=diag)
        top, v = _top_eig(a)
        f = k * top - float(np.add.reduce(shifts))
        if best is None or f < best[0]:
            best = (f, shifts, top, v)
        if qf + best[0] <= incumbent or step == _SHIFT_STEPS - 1:
            break
        if holds_tie is not None and holds_tie(v):
            tied = True
            break
        # The break above skips the step after the last solve.
        shifts, last = _shift_step(shifts, _SHIFT_RELAX * (f - target), v, last)
        if last is None:
            break
    f, shifts, top, v = best
    np.add(q_diag, shifts, out=diag)
    return f, shifts, top, v, _frobenius(a), step + 1, tied


def _frobenius(a: np.ndarray) -> float:
    """The Frobenius norm of ``a``, summed as np.linalg.norm sums it but over
    the entries scaled by 2^-m, m the exponent of the largest |entry|.

    Scaled, the largest square lies in [1/4, 1), so the sum cannot
    overflow, and a square underflows only below about 2^-1020 of the
    largest.  Scaling by a power of two and the root of a sum scaled by
    2^-2m are exact, so the result is np.linalg.norm's float wherever no
    square, scaled or not, overflows or underflows.
    """
    flat = a.reshape(-1)
    m = math.frexp(float(np.abs(flat).max()))[1]
    flat = np.ldexp(flat, -m)
    return float(np.ldexp(math.sqrt(flat @ flat), m))


def _shift_step(shifts: np.ndarray, excess: float, v: np.ndarray, last):
    """One Polyak step on the shifts of length ``excess`` over the squared
    norm of its direction, from the subgradient k v^2 - 1 deflected off the
    previous step's direction (Camerini, Fratta and Maffioli, 1975).
    ``last`` is the previous step's direction and its squared norm, or
    None.  Returns the new shifts and the same pair for this step, or
    ``shifts`` and None for a zero direction."""
    # Where the subgradient g opposes the previous direction p, the step
    # takes g less its projection on p, so that it does not undo the
    # previous step: the deflection with no coefficient to choose.
    direction = v * v
    direction *= v.shape[0]
    direction -= 1.0
    if last is not None:
        along = float(direction @ last[0])
        if along < 0.0:
            direction -= (along / last[1]) * last[0]
    norm2 = float(direction @ direction)
    if norm2 == 0.0:
        return shifts, None
    step = direction * (excess / norm2)
    return np.subtract(shifts, step, out=step), (direction, norm2)


def _node_matrix(arr: np.ndarray, h: np.ndarray) -> np.ndarray:
    """A node's Q = [[0, h^T], [h, B_FF]] as a new array, B_FF the trailing
    block of ``arr`` of the order of ``h``."""
    k = h.shape[0] + 1
    q = arr[-k:, -k:].copy()
    q[0, 1:] = h
    q[1:, 0] = h
    q[0, 0] = 0.0
    return q


def _merged(vec: np.ndarray, sign: float, f: float):
    """The pair (f, y) that _shifted_bound takes for a free first step:
    the parent's top eigenvector ``vec`` on the coordinates of its child
    with x_d = ``sign`` x_0, y = ((vec_0 + sign vec_1) / 2, vec_2, ...)
    normalized, or None if that is zero."""
    y = vec[1:].copy()
    y[0] = (vec[0] + sign * vec[1]) / 2.0
    norm = math.sqrt(float(y @ y))
    if norm == 0.0:
        return None
    y /= norm
    return f, y


def _completion(prefix: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The completion of a node's sign prefix by ``signs``, true for +1."""
    return np.concatenate((prefix, np.where(signs, 1.0, -1.0)))


def _rounder(arr: np.ndarray, prefix: np.ndarray):
    """The rounding of a node's top eigenvectors vec: the completion of
    ``prefix`` by the sign of vec_i vec_0, +1 on a zero, and its canonical
    value.  The node's steps and its rounding after them share it, and
    each distinct completion is built and valued once."""
    memo = {}

    def rounded(vec: np.ndarray) -> tuple[np.ndarray, float]:
        signs = vec[1:] * vec[0] >= 0.0
        key = signs.tobytes()
        found = memo.get(key)
        if found is None:
            s = _completion(prefix, signs)
            found = memo[key] = (s, _canonical(arr, s))
        return found

    return rounded


def _holds_tie(rounded, g: float, incumbent: float, incumbent_key: tuple,
               vec: np.ndarray) -> bool:
    """Whether the completion that rounds ``vec`` (by ``rounded``, a
    _rounder) is another maximizer: a sign vector other than the
    incumbent's whose canonical value is within ``g`` of it."""
    s, v = rounded(vec)
    return abs(v - incumbent) <= g and tuple(s) != incumbent_key


def _check_group(group, n: int) -> np.ndarray | None:
    """The rows of ``group`` other than the identity, or None if there are
    none.  Raises ValueError unless every row is a permutation of range(n)
    and the rows are closed under composition."""
    group = np.asarray(group, dtype=np.intp).reshape(-1, n)
    if not np.array_equal(np.sort(group, axis=1), np.broadcast_to(np.arange(n), group.shape)):
        raise ValueError("every automorphism must be a permutation of range(n)")
    if len(group) == 0:
        return None
    rows = group[np.lexsort(group.T[::-1])]
    rows = rows[np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))]
    count = len(rows)
    not_closed = ValueError("the automorphisms are not closed under composition")
    index = {row.tobytes(): k for k, row in enumerate(rows)}

    def index_of(perms):
        try:
            return np.array([index[perm.tobytes()] for perm in perms])
        except KeyError:
            raise not_closed from None

    # The rows are closed if they hold the identity, each row s o t is a row
    # for every t of a set T of rows, and the products of T reach every row
    # from the identity: then T generates no more than the rows, and the
    # rows no more than T.  T takes each row the products do not yet reach,
    # which at least doubles the group they generate, so it has at most
    # log2(count) + 1 rows, and a group costs O(count n log count).
    if not np.array_equal(rows[0], np.arange(n)):
        raise not_closed
    products = []
    reached = np.zeros(count, dtype=bool)
    reached[0] = True
    frontier = np.empty(0, dtype=np.intp)
    while True:
        while len(frontier):
            fresh = np.zeros(count, dtype=bool)
            for images in products:
                fresh[images[frontier]] = True
            fresh &= ~reached
            reached |= fresh
            frontier = np.flatnonzero(fresh)
        if reached.all():
            break
        products.append(index_of(rows[:, rows[reached.argmin()]]))
        frontier = np.flatnonzero(reached)
    return rows[1:] if count > 1 else None


def _asymmetry(arr: np.ndarray, group: np.ndarray) -> float:
    """The most by which (B s | s) and (B t | t) differ, t the image of a
    sign vector s under a sigma of ``group``: max over sigma of
    sum |B_ij - B_sigma(i)sigma(j)|, with the rounding of that sum."""
    # Each difference rounds by at most u of itself and the sum of the n^2
    # terms by at most gamma_(n^2) of the exact sum, so the exact maximum
    # is within (n^2 + 2) u (1.01) <= n^2 eps of the computed one for n >= 2.
    n = arr.shape[0]
    most = max(float(np.abs(images - arr).sum(axis=(1, 2)).max())
               for images in _permuted(arr, group))
    return most + n * n * _EPS * most


# 2^-i for i = 0..52, with 0 in place of 2^0: the weights of positions
# 1..52 in _non_leader.
_HALVES = np.concatenate(([0.0], 0.5 ** np.arange(1, 53)))


def _symmetry_tables(group: np.ndarray, length: int):
    """What _non_leader needs of ``group`` for sign prefixes of ``length``
    coordinates, or None if no sigma of it can tell a prefix from its image.

    Those are the sigma with sigma(0) and sigma(1) in the prefix.  For each,
    the image's coordinate i, x_sigma(0) x_sigma(i), is fixed by the prefix
    for i below the first i with sigma(i) outside it.  Positions 1 to at
    most 52 of that run are weighed by 2^-i (_HALVES).  Returns sigma(0)
    for each sigma, a matrix whose row sigma puts the weight of i on
    coordinate sigma(i), and the last position weighed.
    """
    head = group[:, :length]
    inside = head < length
    fixed = np.where(inside.all(axis=1), length, inside.argmin(axis=1))
    keep = fixed >= 2
    if not keep.any():
        return None
    head, fixed = head[keep], np.minimum(fixed[keep], len(_HALVES))
    count = len(head)
    position = np.arange(length)
    weighed = (position >= 1) & (position < fixed[:, None])
    # Coordinates off the run go to a spare last column, which is dropped.
    image = np.zeros((count, length + 1))
    image[np.arange(count)[:, None], np.where(weighed, head, length)] = np.where(
        weighed, 0.5**position, 0.0)
    return head[:, 0].copy(), image[:, :length], fixed - 1


def _non_leader(tables, prefix: np.ndarray) -> bool:
    """Whether some sigma of the tables (_symmetry_tables) makes every
    completion x of ``prefix`` lexicographically smaller, +1 above -1, than
    its image x_sigma(0) x o sigma."""
    # Over positions 1..r-1 of a run where both are fixed, the image and
    # the prefix differ by -2, 0 or 2 at each, and the weights 2^-i make
    # the sign of sum (image_i - x_i) 2^-i that of the first difference:
    # the later terms add up to less than 2^(1-i).  The sums of at most 52
    # signed powers of two from 2^-1 to 2^-52 are exact, in any order.  An
    # image above the prefix on the run is above every completion's image.
    first, image, last = tables
    width = min(len(prefix), len(_HALVES))
    weighed = np.cumsum(prefix[:width] * _HALVES[:width])
    return bool((prefix[first] * (image @ prefix) > weighed[last]).any())


def _local_search(arr: np.ndarray, val: float, key: tuple,
                  second: float = -np.inf) -> tuple[float, tuple, float]:
    """1-flip ascent from sign vector ``key`` with canonical value ``val``.

    Flips any coordinate but the first, in index order and pass after
    pass, while that raises the canonical value, or keeps it and gives a
    lexicographically smaller vector.  Returns the value reached, its
    vector and ``second`` raised to the value of every other vector
    evaluated on the way whose value is within _rounding_guard of the one
    reached: the others can neither win nor tie.
    """
    # Flipping s_i changes (B s | s) by the gain 4 (B_ii - s_i (B s)_i).
    # With S = sum |B_ij| and g = _rounding_guard(B), the computed gain is
    # within 4 (gamma_n S + 2.01 u S) <= (2.02 n + 4.02) eps S < g of the
    # exact one (the product B s, then one subtraction of magnitude at most
    # 2 S), and a canonical value within (n + 1) eps S < g / 4 of the exact
    # value (see _rounding_guard).  A flip of computed gain below -3 g
    # therefore has a canonical value below val - 1.5 g: it would neither be
    # taken nor raise ``second`` to within g of a value reached, so it is
    # not valued.  The flips that are valued are met in the order of
    # trying every one, with the same canonical values and choices.
    threshold = -3.0 * _rounding_guard(arr)
    s = np.array(key)
    diag = arr.diagonal()
    improved = True
    while improved:
        improved = False
        start = 1
        while start < len(key):
            gains = 4.0 * (diag - s * (arr @ s))
            # "Not below", so that a gain that overflowed to NaN is valued.
            for i in np.flatnonzero(~(gains[start:] < threshold)) + start:
                t = s.copy()
                t[i] = -t[i]
                t_key = tuple(t)
                val, key, second = _fold(_canonical(arr, t), t_key, val, key, second)
                if key is t_key:
                    s, start, improved = t, i + 1, True
                    break
            else:
                break
    return val, key, second


def _prefix_abs(arr: np.ndarray) -> np.ndarray:
    """0 and the running sums of the rows' sums of |B_ij|, in row order."""
    return np.concatenate(([0.0], np.cumsum(np.abs(arr).sum(axis=1))))


def _heavy_first(diag: np.ndarray) -> np.ndarray | None:
    """The coordinates in descending order of B_ii, or None where that is
    index order.  A run of values each within n^2 eps max|B_ii| of the
    next keeps index order, so rounding alone reorders nothing."""
    n = len(diag)
    by_value = np.argsort(-diag, kind="stable")
    apart = -np.diff(diag[by_value]) > n * n * _EPS * float(np.abs(diag).max())
    runs = np.concatenate(([0], np.cumsum(apart)))
    perm = by_value[np.lexsort((by_value, runs))]
    return None if np.array_equal(perm, np.arange(n)) else perm


def _root_start(arr: np.ndarray, prefix_abs: np.ndarray):
    """The root's Q + Diag d at its starting shifts d = -diag Q, whose
    diagonal is zero, with d and the rounding error (_bound_error) of a
    root bound taken there."""
    n = arr.shape[0]
    q = _node_matrix(arr, arr[1:, 0])
    shifts = -q.diagonal()
    np.fill_diagonal(q, 0.0)
    return q, shifts, _bound_error(n, 1, prefix_abs[1], _frobenius(q),
                                   float(np.add.reduce(np.abs(shifts))))


def branch_and_bound(b, *, budget: int = BNB_BUDGET, automorphisms=None) -> BnbResult:
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
    subgradient steps on d, warm-started from its parent's, the first from
    its parent's top eigenvector without a solve, and the top eigenvector
    of its best shift is rounded to a sign vector that may raise the
    incumbent.  Once the search has met a second maximizer, a node whose
    rounded top eigenvector is another one stops stepping early, but never
    on the incumbent's own path, and the nodes on the path to that
    maximizer are branched on without a solve.  Children queue under their
    parent's bound, and the root under the trivial bound sum |B_ij|.

    Past _ENUM_FREE + 1 points the search starts with the root test: the
    incumbent (below), found in the caller's order, certifies when
    sum |B_ij| exceeds it by at most the rounding allowance of a root bound
    at its starting shifts (_bound_error), with no node expanded, no
    eigen-solve and delta (sum |B_ij| - beta) plus the rounding of that sum
    and of beta.  Every sign vector has (B s | s) <= sum |B_ij|, so this
    certificate rests on no eigensolver constant.  It passes on a
    sign-balanced B, one whose off-diagonal signs are those of e_i e_j for
    some sign vector e, such as a tree's: there beta is sum |B_ij|.
    Otherwise B is searched with its coordinates in descending order of
    B_ii, a run of values each within n^2 eps max|B_ii| of the next in
    index order, and the automorphisms conjugated to match.  The maximizer
    is mapped back, and beta re-evaluated canonically on the caller's B,
    delta adding the difference; where the order is index order, as on odd
    cycles and discrete spaces, nothing is permuted.

    ``automorphisms``, when given, lists permutations sigma of the points,
    one per row, closed under composition (ValueError otherwise), such as
    negtype.automorphisms finds for the input B came from.  A child is then
    dropped before it is queued when some sigma makes every completion x
    of its prefix lexicographically smaller, +1 above -1, than the image
    x_sigma(0) x o sigma, which also has first coordinate +1.  Without
    it, or with no sigma but the identity, the search is the same float
    for float.  With it, the result is the best, under the tie-break, of
    the members of the maximizer's orbit whose values are within rounding
    of the one found.
    The incumbent starts from a greedy descent and a 1-flip local search,
    so even a zero budget returns a valid candidate: certified if the root
    test passes, and otherwise uncertified, with the root's bound at its
    starting shifts, one eigen-solve, as ``best_bound``.  Any other budget
    expands the root, so for n <= _ENUM_FREE + 1 the result is
    beta_hypercube's, maximizer included.

    The result certifies when the best outstanding bound falls to the
    incumbent; if the node budget runs out first the best-found answer is
    returned with ``certified`` false rather than raising.  Either way
    every sign vector s has (B s | s) <= max(best_bound, beta) + delta,
    where delta covers the rounding of every bound that discarded nodes
    and of the canonical incumbent (see BnbResult).  A B whose
    4 n sum |B_ij| overflows raises InvalidSize.
    """
    # Dropping by symmetry.  Under the group G the list generates, call the
    # largest image of a sign vector x with x_0 = +1 its leader.  The
    # leader's images are none of them larger, so no node on its path is
    # dropped: it is valued, or its node is pruned on a bound.  The list is
    # closed, so it is all of G, and a dropped x has a listed sigma with
    # leader x* = x_sigma(0) x o sigma.  (B x* | x*) = (B (x o sigma) | x o
    # sigma) = sum_kl B_sigma^-1(k)sigma^-1(l) x_k x_l, which differs from
    # (B x | x) by at most sum_ij |B_ij - B_sigma(i)sigma(j)|: nothing for a
    # symmetry of B, but B is computed, and its entries differ by rounding
    # across an orbit.  So delta adds the largest such sum over the group,
    # with its rounding (_asymmetry), once a node has been dropped.  The
    # test reads only the coordinates the prefix fixes: scanning i = 1, 2,
    # ..., image and prefix agree up to a position where the image is
    # larger, and so is every completion's image, or the scan stops
    # without dropping, at a smaller image or one that is not fixed.
    arr = _as_array(b)
    n = arr.shape[0]
    group = None if automorphisms is None else _check_group(automorphisms, n)
    order = 1 if group is None else len(group) + 1
    if n == 1:
        s = np.ones(1)
        v = _canonical(arr, s)
        return BnbResult(v, s, True, 0, v, 0.0, 0, 0, 0, 0, 0, order)

    prefix_abs = _prefix_abs(arr)
    # classify leaves B only the headroom of the enumeration, S + g with
    # S = sum|B_ij|.  A node bound k lmax(Q + Diag d) - sum d, for a node
    # matrix Q of order k <= n whose absolute row sums are at most S, is at
    # most n (S + 2 max|d|), and 1-flip gains reach 8 S.  The shifts d
    # start at -diag B_FF, within S; the subgradient steps kept them within
    # 0.35 S on odd cycles, random trees and point clouds, a measured bound
    # rather than a derived one.  delta applies eps to each term first
    # (_bound_error).  So the search refuses a B whose 4 n S overflows.
    with np.errstate(over="ignore"):
        reach = 4.0 * n * float(prefix_abs[n])
    if not reach < np.finfo(float).max:
        raise InvalidSize(f"B reaches {np.abs(arr).max():.3e}: branch-and-bound's bounds "
                          "over it overflow the largest float")

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
    # for (k + 2) d + 3, exceeds that by a factor above 1.9.  The root is
    # queued under the trivial bound S = sum|B_ij| >= (B s | s), computed
    # as S^ = prefix_abs[n], a running sum of n row sums of n terms, so
    # |S^ - S| <= gamma_2n S and S - S^ <= n eps S^ / (1 - 2n eps), which
    # (n + 1) eps S^ covers.  Every other node is queued under its parent's
    # bound and that bound's error.  A child's prefix value
    # qf + 2 sign h_0 + B_dd carries the error of the direct sum at depth
    # d + 1, and its h_rest + sign B_rest,d is the running sum one term
    # longer.  Pruning and certification compare the raw floats; delta
    # adds the largest error of a bound that discarded nodes to the
    # rounding of a canonical value, at most
    # gamma_2n sum|B_ij| <= (n + 1) eps sum|B_ij|.  A discarded sign vector
    # s then has (B s | s) <= bound + err <= incumbent + delta, and the same
    # holds for its canonical value; an evaluated sign vector is within the
    # canonical rounding of its value, which is at most the incumbent.
    # A node solved outright re-evaluates every completion whose computed
    # value comes within the guard g of the incumbent (see _rounding_guard),
    # so the completions it passes over have canonical values below the
    # incumbent, and it adds nothing to delta.
    diag = arr.diagonal()
    diag_list = diag.tolist()
    g = _rounding_guard(arr)

    # Greedy descent to the child of the larger qf + 2 ||h||_1, +1 on a
    # tie, then 1-flip local search, for the initial incumbent.
    g_signs = np.ones(n)
    g_q, g_h = diag_list[0], arr[1:, 0]
    for depth in range(1, n):
        child_q, child_h = _children(arr, diag_list, depth, g_q, g_h)
        abs_sums = np.add.reduce(np.abs(child_h), axis=1).tolist()
        pick = 0 if child_q[0] + 2.0 * abs_sums[0] >= child_q[1] + 2.0 * abs_sums[1] else 1
        g_signs[depth] = 1.0 - 2.0 * pick
        g_q, g_h = child_q[pick], child_h[pick]
    best_val, best_key, second = _local_search(arr, _canonical(arr, g_signs), tuple(g_signs))

    total_abs = float(prefix_abs[n])
    delta = 0.0
    at_root = False
    perm = caller = None
    if n > _ENUM_FREE + 1:
        # The root test.  Every sign vector has (B s | s) <= S <= S^ plus
        # the root's error (n + 1) eps S^ (above), so an incumbent within a
        # root bound's rounding allowance of S^ certifies, with delta
        # (S^ - beta^) plus that error: the root is discarded on its key.
        # The allowance only decides when to stop, and delta carries the
        # whole gap.  S^ - beta^ is exact where beta^ >= S^ / 2 (Sterbenz),
        # and the error's spare eps S^ covers its rounding elsewhere.  A
        # sign-balanced B (a tree's, say) has beta = S.  The test runs
        # before the budget is read, as it expands no node, and in the
        # caller's order: on gen_random_tree(n, seed) with n = 150, 300 and
        # 500 (seeds 0-1) the greedy descent in index order comes within
        # 2e-12 S of S, and in heavy-first order it stops 0.5-1 % short.
        at_root = total_abs - best_val <= _root_start(arr, prefix_abs)[2]
        if at_root:
            delta = total_abs - best_val + (n + 1) * _EPS * total_abs
        else:
            perm = _heavy_first(diag)
    if perm is not None:
        # The search runs on B with its coordinates in heavy-first order,
        # the group conjugated to match, from the incumbent carried over
        # and valued on the permuted B; the result is mapped back at the
        # end.  sigma' = perm^-1 o sigma o perm is an automorphism of
        # B[perm][:, perm] exactly when sigma is one of B.  ``second`` keeps
        # its value from the caller's order, which rounding may move by an
        # ulp or two; it only decides when nodes look for another maximizer.
        # On 3-D clouds this order took cloud50 seed 1 from 7,015 nodes to
        # 1,631, and cloud80 seed 0, not certified after 60,000 nodes in
        # index order, certifies in 25,687.
        caller = arr, group, g
        arr = arr[np.ix_(perm, perm)]
        if group is not None:
            group = np.argsort(perm)[group[:, perm]]
        prefix_abs = _prefix_abs(arr)
        total_abs = float(prefix_abs[n])
        diag = arr.diagonal()
        diag_list = diag.tolist()
        g = _rounding_guard(arr)
        s = np.array(best_key)[perm]
        s *= s[0]
        best_val, best_key = _canonical(arr, s), tuple(s)

    # A queue entry: (-bound, depth, prefix bits, bound error, the parent's
    # shifts, the first entry of this node's starting shifts, sign prefix,
    # coupling h = B_FP s_P, the parent's top eigenvalue and eigenvector,
    # and the key and value of a tied maximizer the node holds, or None).
    # The node's sign prefix and h are its own arrays, made from its
    # parent's when it is queued; h is the running sum of its columns, in
    # prefix order.  Bit i of the prefix bits is set where s_i = +1; an
    # int of any size, it only breaks ties of bound and depth in the
    # queue's order, so no entry compares past it.
    heap = [] if at_root else [(-total_abs, 1, 1, (n + 1) * _EPS * total_abs, None, 0.0,
                                np.ones(1), arr[1:, 0].copy(), None, None)]
    pops = 0
    pruned = 0
    solves = 0
    enumerated = 0
    tied = 0
    symmetric = 0
    sym_tables = {}
    certified = False
    while heap:
        entry = heapq.heappop(heap)
        neg_bound, depth, bits, err, parent_shifts, first, prefix, h, parent_top, tie = entry
        top_bound = -neg_bound
        # The root is expanded whatever its bound, so that up to
        # _ENUM_FREE + 1 points the tie-break, not the greedy incumbent,
        # picks the maximizer.
        if pops >= budget or (pops and top_bound <= best_val):
            if not pops:
                # The budget stops the search before the root is expanded:
                # the root takes the bound at its starting shifts, one solve,
                # where that is below the trivial one.
                q, shifts, root_err = _root_start(arr, prefix_abs)
                f = n * _top_eig(q)[0] - float(np.add.reduce(shifts))
                solves += 1
                if diag_list[0] + f < top_bound:
                    top_bound = diag_list[0] + f
                    entry = (-top_bound, 1, bits, root_err) + entry[4:]
            certified = bool(top_bound <= best_val)
            heap.append(entry)
            break
        pops += 1
        k = n - depth + 1
        q = _node_matrix(arr, h)
        qf = float(prefix @ arr[:depth, :depth] @ prefix)
        if k <= _ENUM_FREE + 1:
            enumerated += 1
            for high, low, vals in _valued_blocks(q):
                vals += qf
                best_val, best_key, second = _best_in_block(arr, vals, high, low, prefix, g,
                                                            best_val, best_key, second)
            continue
        if parent_shifts is None:
            shifts = -q.diagonal()
        else:
            shifts = np.concatenate(([first], parent_shifts[2:]))
        if tie is not None and abs(tie[1] - best_val) <= g and tie[0] != best_key:
            # The node holds a tied maximizer that is not the incumbent, so
            # no bound can prune it: it is branched on without a solve.  It
            # keeps its queued bound, its error and its starting shifts, at
            # which its Q + Diag d <= mu I for its parent's top eigenvalue
            # mu (see the merge below), so mu stands in for its own.
            tied += 1
            top_eig, vec = parent_top[0], None
        else:
            # ``second`` is the best canonical value met of a sign vector
            # other than the incumbent's.  Only once it is within g of the
            # incumbent does a node check its roundings for another
            # maximizer, about a fifth of a solve each; the checks and the
            # rounding after the steps value each distinct completion once.
            # Outside that tie mode a child's first step takes no solve: it
            # starts from its parent's top eigenvector on its own
            # coordinates, and from its queued bound, which is at least that
            # of its starting shifts.
            rounded = _rounder(arr, prefix)
            holds_tie = free = None
            if second >= best_val - g:
                holds_tie = functools.partial(_holds_tie, rounded, g, best_val, best_key)
            elif parent_top is not None and parent_top[1] is not None:
                free = _merged(parent_top[1], prefix[-1], top_bound - qf)
            f, shifts, top_eig, vec, a_norm, steps, stopped = _shifted_bound(
                q, shifts, qf, best_val, holds_tie, free)
            solves += steps
            tied += stopped
            s, v = rounded(vec)
            key = tuple(s)
            # A node stopped on a tied maximizer marks the rounding of its
            # top eigenvector: the nodes below it on the path to that sign
            # vector take no solve while it is another maximizer.
            tie = (key, v) if stopped else None
            best_val, best_key, second = _fold(v, key, best_val, best_key, second)
            if best_key is key:
                best_val, best_key, second = _local_search(arr, v, key, second)
            if qf + f < top_bound:
                top_bound = qf + f
                err = _bound_error(k, depth, prefix_abs[depth], a_norm,
                                   float(np.add.reduce(np.abs(shifts))))
            if top_bound <= best_val:
                pruned += 1
                delta = max(delta, err)
                continue
        # Both children queue under the node's bound, which is above the
        # incumbent.
        child_qs, child_h = _children(arr, diag_list, depth, qf, h)
        for child_bits, sign, child_q, child_h_row in zip(
                (bits | (1 << depth), bits), (1.0, -1.0), child_qs, child_h):
            child = np.empty(depth + 1)
            child[:depth] = prefix
            child[depth] = sign
            if group is not None:
                if depth + 1 not in sym_tables:
                    sym_tables[depth + 1] = _symmetry_tables(group, depth + 1)
                tables = sym_tables[depth + 1]
                if tables is not None and _non_leader(tables, child):
                    symmetric += 1
                    continue
            # Fixing x_d = sign x_0 in x^T (Q + Diag d) x <= mu |x|^2, mu the
            # top eigenvalue, merges coordinates 0 and d: the child's
            # Q' + Diag d' <= mu I for d' = (d_0 + d_d + child_q - qf - mu,
            # d_rest), whose bound is exactly the parent's.  The child's
            # steps start there.
            start = shifts[0] + shifts[1] + (child_q - qf) - top_eig
            heapq.heappush(heap, (-top_bound, depth + 1, child_bits, err, shifts, start, child,
                                  child_h_row, (top_eig, vec),
                                  tie if tie is not None and tie[0][depth] == sign else None))
    else:
        certified = True
        top_bound = best_val

    if certified:
        pruned += len(heap)
    delta = max([delta] + [e[3] for e in heap])
    delta += _EPS * (n + 1) * total_abs
    if symmetric:
        delta += _asymmetry(arr, group)
    if caller is not None:
        # Back in the caller's order, beta is the canonical value on the
        # caller's B.  It differs from the search's by the rounding of the
        # two sums, which delta adds, so the certificate still holds at
        # the new beta, and certified still means best_bound <= beta.
        arr, group, g = caller
        s = np.empty(n)
        s[perm] = best_key
        s *= s[0]
        v = _canonical(arr, s)
        delta += abs(best_val - v)
        best_val, best_key = v, tuple(s)
        if certified:
            top_bound = min(top_bound, v)
        certified = bool(top_bound <= v)
    if group is not None:
        # The search may meet any member of the maximizer's orbit, whose
        # canonical values differ by rounding alone under a symmetry of B.
        # The result is the best, under the tie-break, of the members within
        # g of the one met, so it does not depend on which one that was.
        s = np.array(best_key)
        found = best_val
        images = s[group]
        images *= images[:, :1]
        for t in images:
            v = _canonical(arr, t)
            if best_val <= v <= found + g:
                best_val, best_key, _ = _fold(v, tuple(t), best_val, best_key, -np.inf)
    return BnbResult(best_val, np.array(best_key), certified, pops, float(top_bound), float(delta),
                     pruned, enumerated, solves, tied, symmetric, order)


def make_witness(report: NegTypeReport, s_star) -> np.ndarray:
    """Unnormalized extremal direction built from a maximizing sign vector.

    ``report`` is a strict classification.  With x the projection of s_star
    onto the hyperplane orthogonal to u, the paper's witness
    y0 = ((x | z) / M) z - A^{-1} x is B x, since B = z z^T / M - A^{-1}.
    Then ||y0||_1 equals the sign-vector maximum beta, (-A y0 | y0) equals
    the same value, and A y0 has oscillation at most 1, which together
    witness that the gap constant 2 / beta cannot be improved.  Raises
    NotStrict for any other verdict, which carries no B.
    """
    if report.verdict != STRICT_NEGATIVE_TYPE:
        raise NotStrict(f"verdict is {report.verdict}; the witness requires strictness")
    s = np.asarray(s_star, dtype=float)
    u = report.u
    x = s - (float(s @ u) / float(u @ u)) * u
    return report.B.a @ x


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
    consistent to the last bit.  ``witness_y0`` is make_witness's B x for
    ``s_star``.  ``beta_by_opnorm`` and ``beta_by_binary`` are None after
    branch_and_bound, and ``beta_by_binary`` also when the functional u is
    not constant.  ``method`` names the exact route, "gray_scan" or
    "branch_and_bound"; ``bnb`` is the latter's BnbResult, as
    branch_and_bound returned it, and None for the former.
    """

    gamma: float
    beta: float
    s_star: np.ndarray
    witness_y0: np.ndarray
    beta_by_opnorm: float | None
    beta_by_binary: float | None
    method: str
    bnb: BnbResult | None = None

    @property
    def bnb_certified(self) -> bool | None:
        """``bnb.certified``, None when branch_and_bound did not run."""
        return None if self.bnb is None else self.bnb.certified


def solve_gap(
    x,
    p: float = 1.0,
    *,
    max_enum_n: int = MAX_ENUM_N,
    use_bnb: bool = False,
    bnb_budget: int = BNB_BUDGET,
) -> GapResult:
    """Full pipeline from a metric space (or prepared power matrix) to the
    gap constant.  Strict verdict required; classify first if unsure.

    ``x`` may also be the NegTypeReport of an earlier ``classify``, which
    is then used as is.

    n alone fixes the one exact route, which yields beta and a maximizer:
    the sign-vector enumeration beta_hypercube up to the cutoff
    min(``max_enum_n``, ENUM_CEILING), past it branch_and_bound when
    ``use_bnb`` is set (its result may be uncertified if the node budget
    is hit) and TooLarge otherwise.  Within the cutoff ``use_bnb`` changes
    nothing.  Enumeration adds the value-only cross-checks beta_opnorm
    and, when the report's functional u is constant, so that B annihilates
    the all-ones vector, beta_binary.  branch_and_bound is handed the
    automorphism group of the report's A and u.  The witness is always
    built: one matrix-vector product, small beside the classification.
    """
    if isinstance(x, NegTypeReport):
        report = x
    else:
        report = classify(x if isinstance(x, NegTypeMatrix) else power_matrix(x, p))
    if report.verdict != STRICT_NEGATIVE_TYPE:
        raise NotStrict(f"verdict is {report.verdict}; the gap constant requires strictness")
    b = report.B
    n = b.n

    beta_op = None
    beta_bin = None
    bnb = None

    if n > min(max_enum_n, ENUM_CEILING):
        if not use_bnb:
            if n > max_enum_n:
                raise TooLarge(f"n = {n} exceeds the enumeration cutoff {max_enum_n}; "
                               "enable branch-and-bound or raise the cutoff")
            raise TooLarge(f"n = {n} exceeds the hard enumeration ceiling {ENUM_CEILING}, "
                           "whatever the cutoff; enable branch-and-bound")
        bnb = branch_and_bound(b, budget=bnb_budget,
                               automorphisms=automorphisms(report.A, report.u))
        beta, s_star = bnb.beta, bnb.s_star
        method = "branch_and_bound"
    else:
        beta, s_star = beta_hypercube(b)
        method = "gray_scan"
        beta_op = beta_opnorm(b)
        if np.all(report.u == report.u[0]):
            beta_bin = beta_binary(b)

    return GapResult(
        gamma=2.0 / beta,
        beta=beta,
        s_star=s_star,
        witness_y0=make_witness(report, s_star),
        beta_by_opnorm=beta_op,
        beta_by_binary=beta_bin,
        method=method,
        bnb=bnb,
    )
