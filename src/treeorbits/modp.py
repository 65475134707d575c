"""Exact linear algebra over a prime field, vectorized with int64 numpy.

Entries stay in [0, p); p must be below 2^31 so products of two residues
fit in int64 without overflow.  Every rank and left kernel comes from
one of two elimination kernels.

Every array is reduced mod p by ``_reduce``, in place: x -= (x // p) * p.
For p > 0 floor division makes this x mod p in [0, p), the value of
``x % p``, negative x included, and (x // p) * p lies between x - p and
x, so it fits int64 wherever x does: the bounds below do not depend on
how a residue is computed.  Each array is reduced once: the public
functions (``matmul_mod``, ``rank_mod``, ``ranks_mod``) copy and reduce
what they are given, and the private kernels (``_matmul_residues``,
``_eliminate``, ``_nested_annihilators`` and ``_left_annihilators``)
take residues in [0, p) and read them as they are; a value outside
[0, p) there can overflow int64 or give wrong pivots.  With numpy 2.4
on one thread of a Xeon host, over 10^5 int64 entries in (-p^2, p^2),
``%`` takes 9.1-9.5 ns an entry and the reduction 1.8-2.2 ns, for p = 3
and 2^31 - 1; over 10^3 entries the reduction's three ufunc calls bring
it to 3.6-4.9 ns, against 4.5-4.8 ns.

``rank_mod`` ranks one large matrix: forward elimination with the shorter
side in the columns, in panels of ``_PANEL`` columns whose trailing update
is one product of residues (the blocked, delayed reduction of FFLAS-FFPACK;
Dumas, Giorgi, Pernet, ACM TOMS 35(3), 2008).  It serves the stabilizer
systems whose short side is above ``oracle._STACKED_SIDE``.  Its int64
bounds: an update ``(a + g * row) % p`` of residues stays below p^2 <
2^62, so one reduction suffices; ``matmul_mod`` splits its right factor
into 16-bit halves, so inner dimension b sums b terms below 2^47 and fits
while b <= 2^16, and a panel's trailing update has b <= ``_PANEL``.
``matmul_mod`` copies and reduces its arguments, then multiplies them as
``_matmul_residues``, which takes residues as they are; the panel update
and the certificate's lift call that directly.

``_eliminate`` forward-eliminates a stack of small matrices, one Python
iteration per column for the whole stack, as batched BLAS does for many
small problems (Dongarra et al., Procedia CS 108, 2017).  Its update
``pivot * row - entry * pivot_row`` of residues stays in (-p^2, p^2),
inside int64, with one reduction.  ``ranks_mod`` reads ranks off it.
``_nested_annihilators`` runs it block by block on [M_0 | M_1 | ... |
I_n] for nested bases M_0 < M_1 < ..., copying the I_n part after each
block: the copies of the rows that pivot in block i + 1 span ann(M_i)
modulo ann(M_i+1), and the rows that never pivot the last left kernel.
A block stops once every matrix of the stack has its own target of
pivots.  Its output also gives every block's rank: the rows of its
entries i, i + 1, ... span ann(M_i), n - rank(M_i) of them, and it
returns each entry's row count per matrix with them.
``_left_annihilators`` is its case of one block.  They serve everything
else: the certificate's condition rows, smaller systems, point check and
factor check (run only in a chunk where some lifted basis falls short),
and ``oracle.cross_ratio``, whose rank checks of a pencil are one stack
and whose quotient by the lower flag is a left kernel in a stack of one.
Measured with numpy 2.4 on one thread of a Xeon host, ``rank_mod`` one
matrix at a time is about 11x slower on stacks of tiny matrices: 18
matrices of 10 x 9 take 2.5 ms against 0.22 ms, 12 of 6 x 6 take 1.0 ms
against 0.09 ms.

The certificate ranks a chunk of trials (``oracle._TRIAL_CHUNK``) with
the stacked kernel: the condition rows of every vertex on neither chain,
and the stabilizer systems whose short side is at most
``oracle._STACKED_SIDE``, 79.  Above that ``rank_mod``'s panels rank one
system at a time.  Measured with numpy 2.4.6 on the same host, the system
rank alone at p = 2^31 - 1 over a chunk of 3 draws (best of 10): a
55 x 86 system (F(6,7;14)^3) takes 2.8 ms stacked against 3.5 ms one at
a time, 60 x 76 (F(6,8;14)^3) 2.6 against 3.8 ms, 90 x 76
(F(3,6,9;16)^3) 4.5 against 6.6 ms, 96 x 80 (G(4;12)^5) 5.2 against
7.3 ms, and 225 x 250 (G(5;20)^5, best of 3) 87 against 44 ms.  Over a
chunk of 8 stacking gains more, 6.5 against 9.6 ms at 55 x 86 and 11.6
against 18.9 ms at 96 x 80.  The cut stays at 79 for memory, not time:
it stacks every system of the certificate ladder, the largest 90 x 76,
and leaves the 96 x 80 systems of G(4;12)^5 and larger to ``rank_mod``
(see ``oracle._STACKED_SIDE``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BadRange, NotPrime

MAX_PRIME = 2**31 - 1

# trial divisors, and the Miller-Rabin bases that make the test exact below 3.3e24
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_PANEL = 64


# a certificate checks its prime on every chunk; the rounds take 0.1 ms at 2^31 - 1
@lru_cache(maxsize=16)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for everything below 3.3e24."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p!r} is not prime")
    if p > MAX_PRIME:
        raise BadRange(f"prime {p} exceeds the int64-safe cap {MAX_PRIME}")
    return p


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place, for an int64 array x (a view too) and p > 0; returns x."""
    x -= x // p * p
    return x


def matmul_mod(a, b, p: int) -> np.ndarray:
    """a @ b mod p without int64 overflow (split b into 16-bit halves)."""
    a = _reduce(np.array(a, dtype=np.int64), p)
    return _matmul_residues(a, _reduce(np.array(b, dtype=np.int64), p), p)


def _matmul_residues(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``matmul_mod`` of int64 arrays of residues in [0, p), which are read as they are."""
    product = _reduce(a @ (b >> 16), p)
    product <<= 16
    product += a @ (b & 0xFFFF)
    return _reduce(product, p)


def rank_mod(a, p: int) -> int:
    """Rank of a mod p by blocked forward elimination (no reduced form is built)."""
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    a = _reduce(np.array(a.T if a.shape[0] < a.shape[1] else a, order="C"), p)
    cols = a.shape[1]
    r = 0
    for c0 in range(0, cols, _PANEL):
        c1 = min(c0 + _PANEL, cols)
        r0 = r
        pivots: list[int] = []
        for c in range(c0, c1):
            nz = np.flatnonzero(a[r:, c])
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            # multipliers -a[i,c]/a[r,c], kept in the eliminated column
            g = _reduce((p - a[r + 1 :, c]) * pow(int(a[r, c]), -1, p), p)
            a[r + 1 :, c] = g
            update = g[:, None] * a[r, c + 1 : c1]
            update += a[r + 1 :, c + 1 : c1]
            a[r + 1 :, c + 1 : c1] = _reduce(update, p)
            pivots.append(c)
            r += 1
        if not pivots or c1 == cols:
            continue
        # replay the panel's row operations right of it: the pivot rows by
        # substitution, the rows below by one product
        top = a[r0:r, c1:]
        mult = a[r0:r, pivots]
        for j in range(len(pivots) - 1):
            update = mult[j + 1 :, j : j + 1] * top[j]
            update += top[j + 1 :]
            top[j + 1 :] = _reduce(update, p)
        update = _matmul_residues(a[r:, pivots], top, p)
        update += a[r:, c1:]
        a[r:, c1:] = _reduce(update, p)
    return r


def _eliminate(a: np.ndarray, p: int, stop: int, start: int = 0, need=None) -> np.ndarray:
    """Forward-eliminate columns ``start`` to ``stop`` - 1 of each matrix of a residue stack, in place.

    Each matrix takes its own pivot in every column, the first row with a
    nonzero entry there, and every row becomes pivot * row - entry *
    pivot row right of the column.  That needs no inverse, and it zeroes
    the pivot row right of the column, which retires it without a swap: a
    zero row is never a pivot again.  A matrix whose column is zero is
    left unchanged.  The columns right of ``stop`` take the same row
    operations.  With ``need``, one count per matrix, the elimination
    stops before a column once every matrix s has ``need[s]`` pivots.
    Returns the number of pivots of each matrix.
    """
    count = a.shape[0]
    at = np.arange(count)
    ranks = np.zeros(count, dtype=np.intp)
    for c in range(start, stop):
        if need is not None and not np.count_nonzero(ranks < need):
            break
        col = a[:, :, c]
        r = (col != 0).argmax(axis=1)
        pivot = col[at, r]
        found = pivot != 0
        ranks += found
        pivot[~found] = 1
        rest = a[:, :, c + 1 :]
        update = pivot[:, None, None] * rest
        update -= col[:, :, None] * a[at, r, None, c + 1 :]
        rest[:] = _reduce(update, p)
    return ranks


def ranks_mod(stack, p: int) -> np.ndarray:
    """Rank mod p of each matrix of a (count, m, k) stack, by one forward elimination.

    The shorter side of the matrices is put in the columns and eliminated
    by ``_eliminate``.
    """
    a = np.asarray(stack, dtype=np.int64)
    if a.ndim != 3:
        raise ValueError("expected a stack of matrices")
    if a.shape[1] < a.shape[2]:
        a = a.transpose(0, 2, 1)
    a = _reduce(np.array(a, order="C"), p)
    return _eliminate(a, p, a.shape[2])


def _left_annihilators(stack, p: int) -> np.ndarray:
    """Rows spanning {c : c M = 0 mod p} for each M of a (count, n, k) stack of residues in [0, p).

    ``_eliminate`` runs on [M | I_n] over M's columns.  A row that never
    pivots ends with a zero M part, and its I_n part records the
    combination of M's rows that it became; a pivot row ends all zero.
    The n - rank(M) rows that never pivot stay independent, because each
    step adds to them a multiple of the retiring pivot row and scales them
    by a nonzero pivot, so their I_n parts span the left kernel.  They
    are moved to the top in row order, zero-padded to the stack's largest
    kernel dimension: a (count, q, n) stack.
    """
    return _nested_annihilators([stack], p)[0][0]


def _nested_annihilators(blocks: list, p: int, ranks=None) -> tuple[list[np.ndarray], np.ndarray]:
    """For nested bases M_0 < M_1 < ... of each matrix of a stack, ann(M_i) modulo ann(M_i+1).

    ``blocks`` holds the (count, n, k_i) stacks of the M_i, residues in
    [0, p), which are read as they are and not changed.  ``_eliminate``
    runs on [M_0 | M_1 | ... | I_n] block by block, and the I_n part is
    copied after each block, when the rows that never pivoted span
    ann(M_i) (see ``_left_annihilators``).  The rows that then pivot in
    block i + 1 are those whose I_n part goes to zero there; their copies
    span ann(M_i) modulo ann(M_i+1), because every row that never pivots
    takes on only multiples of them besides a nonzero multiple of itself.
    Entry i of the list returned holds those rows and the last entry
    ann(M_last) itself, each moved to the top in row order and zero-padded
    to the stack's largest count: a (count, q_i, n) stack.  So for M_0 <
    M_1 the first entry has rank(M_1) - rank(M_0) rows, not the n -
    rank(M_0) of ann(M_0), and entries i, i + 1, ... hold n - rank(M_i)
    nonzero rows of each matrix in all.  With the list it returns the
    counts, a (len(blocks), count) array: counts[i, s] is the number of
    nonzero rows of matrix s in entry i, and q_i the largest of counts[i].

    With ``ranks``, a (count, len(blocks)) array, block i stops once every
    matrix s has ranks[s, i] pivots in all.  When that is the rank of
    M_i, which holds the earlier blocks, its remaining columns lie in the
    pivot columns' span and would find no pivot.
    """
    count, n, _ = np.shape(blocks[0])
    stops = np.cumsum([0] + [np.shape(m)[2] for m in blocks]).tolist()
    a = np.zeros((count, n, stops[-1] + n), dtype=np.int64)
    for m, start, stop in zip(blocks, stops, stops[1:]):
        a[:, :, start:stop] = m
    idx = np.arange(n)
    a[:, idx, stops[-1] + idx] = 1
    kernels = []
    pivots = np.zeros(count, dtype=np.intp)
    for i, (start, stop) in enumerate(zip(stops, stops[1:])):
        pivots += _eliminate(a, p, stop, start, None if ranks is None else ranks[:, i] - pivots)
        kernels.append(a[:, :, -n:].copy())
    held = [k.any(axis=2) for k in kernels]
    out, counts = [], np.zeros((len(blocks), count), dtype=np.intp)
    for i, kernel in enumerate(kernels):
        rows = held[i] & ~held[i + 1] if i + 1 < len(held) else held[i]
        kernel[~rows] = 0
        counts[i] = rows.sum(axis=1)
        order = np.argsort(~rows, axis=1, kind="stable")[:, : int(counts[i].max(initial=0))]
        out.append(kernel[np.arange(count)[:, None], order])
    return out, counts
