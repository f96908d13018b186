"""The kernel of `counting.scan_skew`, the only module that imports numpy.

Matrices are enumerated by a mixed-radix integer index over the n(2n-1) free
upper-triangle entries in row-major order, so row 0 is the 2n-1 fastest
digits.  The index h L + r splits into a tail h and a row-0 value r, one
of L = p^(2n-1): each block of L consecutive indices shares one tail, the
odd skew matrix B without row and column 0.  `_scan` scans every tail,
each with all L of its row-0 values, in the calling thread.

By the first-row expansion Pf = sum_j (-1)^(j-1) a_0j Pf(A without 0, j),
the Pfaffian of a block is a linear form c . x in its row-0 digits x, whose
coefficient vector c in F_p^(2n-1) is made of Pfaffians of the tail.

The rank of a block follows from its tail.  Write A = [[0, x^T], [-x, B]]
with x the row-0 digits; then rank A = rank B when x lies in Im B, and
rank B + 2 otherwise.  If x = B y, then y^T x = y^T B y = 0, as B is
alternating (so in characteristic 2 too): row 0 of A is minus the sum of
y_i times row i, and the other rows' column 0, -x = B (-y), lies in the
span of B's columns.  If not, [-x | B] has rank B + 1, so rank A is
rank B + 1 or rank B + 2, and the rank of a skew matrix is even.  So a
tail of rank 2r, the largest 2k with a nonzero principal 2k-sub-Pfaffian,
heads p^(2r) matrices of rank 2r and p^(2n-1) - p^(2r) of rank 2r + 2.

A scan makes two passes.  The tail pass walks the tails in runs of at
most `_CHUNK // 16`, decoding each tail's digits once, reduces every tail
to the base-p id of its Pfaffian coefficient vector and, for a rank scan,
tallies the tails by rank.  Each run reduces its ids to a tally of
(distinct id, count), merged into the scan's, so a scan never holds one
id per tail; everything else a run builds is freed before the next run.
Many tails share a vector (the 3^10 tails of the 6x6 scan over F_3 share
3^5), so the class pass then multiplies each distinct vector once by
every row-0 value, brute force, in tables of at most `_CHUNK` row-0 values
and `_CHUNK` entries.  The products are tallied unreduced, scaled by the
number of blocks with that vector (vectors of equal multiplicity share one
bincount), and the short histogram is folded onto the residues mod p.
Coefficients and digits lie in [0, p), so every product is a small
non-negative integer; there is no float.

Two checks re-derive the Pfaffians from determinants, which share no code
with the Pfaffian path.  The tail check covers every matrix of the scan:
since det(A) = x^T adj(B) x and Pf(A) = c . x, Pf^2 = det holds on a whole
block when adj(B) = c c^T, an identity over Z that is checked mod p on all
(2n-1)^2 entries once per tail, one column of adj(B) at a time, each from
the maximal minors of B without one row.  The pointwise sample re-checks
the decode and product path: each matrix whose global index is a multiple
of `spot_stride` is decoded afresh from its index, its Pfaffian is its
block's vector, decoded from its id, times its row-0 digits, and its
determinant comes from the same batched, division-free cofactor expansion.

A run's arrays (tail digits, sub-Pfaffians, coefficient rows, the
expansions of both checks) are in the narrowest of int16, int32 and int64
that holds the Hadamard bound of the scan (`_lane`).  The ids, the class
pass's products and tallies and the index tables stay int64 or intp.
"""

import os
import time
from functools import lru_cache
from itertools import combinations

# Nothing here calls BLAS: every matrix product is int64, which numpy runs
# in its own loops.  Its bundled OpenBLAS still starts one thread per extra
# core when loaded, and each spins idle for about 0.1 s of CPU.  One thread
# is enough; a value the caller set wins.  If the caller loaded numpy
# first, the pool already exists and this changes nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .counting import PHASES
from .skew import _pair_index

_CHUNK = 1 << 17
_SAMPLE_BATCH = 2048


def _lane(n, p):
    """The integer dtype of the cofactor expansions of a 2n x 2n scan over
    F_p: the narrowest of int16, int32 and int64 whose range holds twice
    the Hadamard bound ((p-1) sqrt(2n))^(2n), which bounds every term and
    partial sum (`counting._check_int64`; the tail's minors are smaller)."""
    bound = 2 * (p - 1) ** (2 * n) * (2 * n) ** n
    for lane in (np.int16, np.int32):
        if bound <= np.iinfo(lane).max:
            return lane
    return np.int64


@lru_cache(maxsize=None)
def _plan(n):
    """Index recipes of the first-row factoring for size 2n.

    Returns (pairs, avoid, pfaffian): `pairs` maps (i, j), 1 <= i < j, to
    its tail digit; for 1 <= k < n, `avoid[k]` lists the 2k-subsets of
    {1, ..., 2n-1}; `pfaffian` has, for j = 1, ..., 2n-1, the term
    (sign, {1, ..., 2n-1} without j) of Pf = sum_j sign a_0j Pf(without j).
    """
    size = 2 * n
    rest = tuple(range(1, size))
    pairs = {(i, j): _pair_index(i, j, size) - (size - 1)
             for i, j in combinations(rest, 2)}
    avoid = {k: tuple(combinations(rest, 2 * k)) for k in range(1, n)}
    pfaffian = tuple((1 if pos % 2 == 0 else -1, rest[:pos] + rest[pos + 1:])
                     for pos in range(size - 1))
    return pairs, avoid, pfaffian


def _mod(a, p):
    """a mod p for an integer array and p > 0, in a's dtype.  a - (a // p) p
    equals a % p in every lane: the quotient cannot overflow, and the
    result, in [0, p), survives a wrap of (a // p) p below the lane's
    minimum.  numpy's integer % by a scalar is several times slower than
    its floor division."""
    return a - a // p * p


def _digits(values, p, count, dtype=np.int64):
    """The `count` least significant base-p digits of an int64 array, a
    row per digit, as a (count, values.size) array of `dtype`."""
    out = np.empty((count, values.size), dtype=dtype)
    for row in out:
        high = values // p
        np.subtract(values, high * p, out=row)  # `_mod`, reusing the quotient
        values = high
    return out


class _TailMemo(dict):
    """The memo of `_tail_pfaffians`, which fills its own missing keys."""

    def __init__(self, tail, pairs, p):
        super().__init__({(): np.ones(tail.shape[1], dtype=tail.dtype)})
        self.tail, self.pairs, self.p = tail, pairs, p

    def __missing__(self, s):
        # in the tail's lane: fewer than 2n - 1 terms, each a digit times
        # a reduced sub-Pfaffian, so below (2n - 1)(p - 1)^2, which the
        # lane's bound covers
        acc = 0
        for pos, j in enumerate(s[1:]):
            term = (self.tail[self.pairs[s[0], j]]
                    * self[s[1:pos + 1] + s[pos + 2:]])
            acc = acc - term if pos % 2 else acc + term
        value = self[s] = _mod(acc, self.p)
        return value


def _tail_pfaffians(tail, pairs, p):
    """Sub-Pfaffians mod p of the tail (the matrix without row and column
    0), as a function of the index subset returning one value per block, in
    the dtype of the (digits, blocks) array `tail`; the first-row
    recursion, memoised.  The memo is a dict, not a closure that calls
    itself, so it is freed with its run rather than left to the cyclic
    garbage collector."""
    return _TailMemo(tail, pairs, p).__getitem__


def _coefficients(form, pf, p):
    """Row-0 coefficients mod p of the Pfaffian form, a row per coefficient
    and a column per block."""
    return np.stack([pf(sub) if sign > 0 else _mod(-pf(sub), p)
                     for sign, sub in form])


def _ids(coeff, p):
    """The base-p ids of the columns of `coeff`, coefficient k the digit of
    p^k, as int64."""
    ids = np.zeros(coeff.shape[1], dtype=np.int64)
    for row in coeff[::-1]:
        ids *= p
        ids += row
    return ids


def _vectors(ids, p, width0):
    """The coefficient vectors with these base-p ids, one per row."""
    return _digits(ids, p, width0).T


def _merge_tally(ids, counts, more_ids, more_counts):
    """The union of two tallies of sorted distinct ids, counts summed."""
    # np.unique without an index or count output would import numpy.ma
    union, where = np.unique(np.concatenate((ids, more_ids)),
                             return_inverse=True)
    total = np.zeros(union.size, dtype=np.int64)
    total[where[:ids.size]] += counts
    total[where[ids.size:]] += more_counts
    return union, total


def _products(vectors, row0):
    """The unreduced row-0 products of coefficient vectors and row-0 digit
    columns (a matrix product, or a stack of them)."""
    return vectors @ row0


def _skew_stack(digits, size, dtype, count):
    """The (size, size, count) integer lifts of upper-triangle digit arrays,
    batch axis innermost: upper entries as stored, lower entries negated."""
    M = np.zeros((size, size, count), dtype=dtype)
    for (i, j), d in zip(combinations(range(size), 2), digits):
        M[i, j] = d
        M[j, i] = -d
    return M


@lru_cache(maxsize=None)
def _laplace_plan(r, cols):
    """Index recipes of one level of the cofactor expansion of maximal
    minors over `cols` columns: the minors of r rows from those of the r - 1
    rows beneath their top row.

    For the r-subsets S of columns in lexicographic order, returns for each
    position pos < r the pair (column S[pos] of every S, index of S without
    S[pos] among the (r-1)-subsets), so that minor(S) = sum_pos (-1)^pos
    a[top, S[pos]] minor(S without S[pos]).
    """
    prev = {S: i for i, S in enumerate(combinations(range(cols), r - 1))}
    subsets = tuple(combinations(range(cols), r))
    return tuple((np.array([S[pos] for S in subsets], dtype=np.intp),
                  np.array([prev[S[:pos] + S[pos + 1:]] for S in subsets],
                           dtype=np.intp))
                 for pos in range(r))


def _extend(M, minors, row, r):
    """The maximal minors of row `row` of a (s, cols, N) stack, batch axis
    innermost, put on top of r - 1 rows whose maximal minors are `minors`:
    one per r-subset of columns in lexicographic order, as a (subsets, N)
    array of M's dtype, by cofactor expansion along that row.  No division
    and no pivot search, so every matrix takes the same steps."""
    a = M[row]
    if r == 1:
        return a
    acc = None
    for pos, (cols, subs) in enumerate(_laplace_plan(r, M.shape[1])):
        term = a[cols]
        term *= minors[subs]
        if acc is None:
            acc = term
        elif pos % 2:
            acc -= term
        else:
            acc += term
    return acc


def _batched_det(M):
    """Exact determinants of an (N, s, s) integer stack, in its dtype: the
    minors of the last r rows from those of the last r - 1, bottom up, only
    two levels alive at a time."""
    s = M.shape[1]
    M = np.ascontiguousarray(M.transpose(1, 2, 0))  # batch axis innermost
    minors = None
    for r in range(1, s + 1):
        minors = _extend(M, minors, s - r, r)
    return minors[0]


def _adjugate_columns(B):
    """Yield (j, adj(B)[:, j]) for j = w-1, ..., 0 of a (w, w, N) stack,
    batch axis innermost: adj(B)[i, j] = (-1)^(i+j) det(B without row j and
    column i).

    Column j comes from the maximal minors of B without row j, rows
    0, ..., j-1 put on top of rows j+1, ..., w-1.  The minors of that
    suffix of rows are kept from column to column, one row longer each
    time, so each column expands only the rows above its own: 2170
    products per 7x7 matrix and 280 per 5x5, against 3038 and 350 with
    every column from scratch.
    """
    w, _, count = B.shape
    suffix = np.ones((1, count), dtype=B.dtype)  # minors of rows j+1, ...
    for j in range(w - 1, -1, -1):
        minors = suffix
        for row in range(j - 1, -1, -1):
            minors = _extend(B, minors, row, w - 1 - row)
        # the (w-1)-subset of columns at lexicographic position k omits
        # column w-1-k
        column = minors[::-1].copy()
        column[(j + 1) % 2::2] *= -1
        yield j, column
        if j:
            suffix = _extend(B, suffix, j, w - j)


def _tail_check(tail, coeff, p):
    """Check adj(B) = c c^T mod p for each block, B its odd skew tail from
    the tail digits and c its column of the coefficient rows `coeff`, one
    column of adj(B) at a time, in coeff's dtype.  Returns the number of
    failing blocks and, for the first, (its index among the blocks, i, j,
    adj(B)[i, j], c_i c_j mod p) at its first failing entry in row-major
    order."""
    w, count = coeff.shape
    failing = np.zeros(count, dtype=bool)
    first = None
    for j, column in _adjugate_columns(
            _skew_stack(tail, w, coeff.dtype, count)):
        bad = _mod(column - coeff * coeff[j], p)
        hit = bad.any(axis=0)
        if not hit.any():
            continue
        failing |= hit
        t = int(hit.argmax())
        i = int(np.flatnonzero(bad[:, t])[0])
        if first is None or (t, i, j) < first[:3]:
            first = (t, i, j, int(column[i, t]),
                     int(coeff[i, t]) * int(coeff[j, t]) % p)
    return int(np.count_nonzero(failing)), first


def _spot_check(n, p, ids, lo, hi, spot_stride):
    """Pf^2 = det on every matrix of the tails lo <= h < hi whose global
    index is a multiple of `spot_stride`, with Pf by the class pass's route:
    the tail's vector, decoded from its id in `ids`, times the sample's
    row-0 digits.  Returns (matrices checked, failures, the lowest failing
    index or None)."""
    size = 2 * n
    width0 = size - 1
    block = p ** width0
    m = n * width0
    lane = _lane(n, p)
    checked = violations = 0
    first_bad = None
    end = hi * block
    step = spot_stride * _SAMPLE_BATCH
    for b0 in range(-(-lo * block // spot_stride) * spot_stride, end, step):
        sel = np.arange(b0, min(b0 + step, end), spot_stride, dtype=np.int64)
        digits = _digits(sel, p, m)
        vec = _vectors(ids[sel // block - lo], p, width0)
        row0 = digits[:width0].T
        pfv = _mod(_products(vec[:, None], row0[:, :, None]).ravel(), p)
        det = _batched_det(
            _skew_stack(digits, size, lane, sel.size).transpose(2, 0, 1))
        bad = np.flatnonzero(_mod(det - pfv * pfv, p))
        if bad.size and first_bad is None:
            first_bad = int(sel[bad[0]])
        violations += int(bad.size)
        checked += int(sel.size)
    return checked, violations, first_bad


def _tail_run(n, p, lo, hi, want_rank, spot_stride, phases):
    """The tail pass over the tails lo <= h < hi, with both checks: returns
    (distinct ids, their counts), the tail rank tally (or None), the tail
    check's (failures, first) with the first's block index within the run,
    and the spot check's (checked, failures, first).  Adds the seconds of
    each check to `phases`.  Every per-tail array is local, so it is freed
    on return."""
    width0 = 2 * n - 1
    pairs, avoid, pfaffian = _plan(n)
    tail = _digits(np.arange(lo, hi, dtype=np.int64), p, (n - 1) * width0,
                   _lane(n, p))
    pf = _tail_pfaffians(tail, pairs, p)
    coeff = _coefficients(pfaffian, pf, p)
    ids = _ids(coeff, p)
    ranks = None
    if want_rank:
        # the largest k with a nonzero 2k-sub-Pfaffian, or 0
        rank = np.zeros(hi - lo, dtype=np.intp)
        for k in range(1, n):
            for s in avoid[k]:
                rank[pf(s) != 0] = k
        ranks = np.bincount(rank, minlength=n)
    t = time.perf_counter()
    tail_bad = _tail_check(tail, coeff, p)
    u = time.perf_counter()
    phases["tail_check"] += u - t
    spot = (0, 0, None)
    if spot_stride:
        spot = _spot_check(n, p, ids, lo, hi, spot_stride)
    phases["spot_check"] += time.perf_counter() - u
    return np.unique(ids, return_counts=True), ranks, tail_bad, spot


def _fold(hist, tally, low, p):
    """Add `tally`, counts of the raw values low, low + 1, ..., onto their
    residues mod p, one run of p values at a time."""
    pos = 0
    while pos < tally.size:
        r = (low + pos) % p
        take = min(p - r, tally.size - pos)
        hist[r:r + take] += tally[pos:pos + take]
        pos += take


def _scan(n, p, want_rank, spot_stride):
    """Scan every tail, each with all its row-0 values."""
    t0 = time.perf_counter()
    # Allocated and freed at once, never touched: freeing one block of
    # about 4 MiB raises glibc's dynamic mmap and trim thresholds above a
    # run's scratch, so the heap is not trimmed and faulted in again every
    # run (about 5 900 page faults in the 3^15 scan otherwise, 0.02 s of its
    # 0.055 s).  Other allocators are unaffected.  It is a page short of
    # 4 MiB because numpy advises huge pages for arrays from 4 MiB on: from
    # a process's second scan the block comes from the heap, and that
    # advice would fault the later runs' scratch in 2 MiB pages.
    np.empty((1 << 22) - 4096, dtype=np.uint8)
    width0 = 2 * n - 1
    block = p ** width0
    tails = p ** ((n - 1) * width0)

    # tail pass: the tally of the tails' Pfaffian coefficient vectors, by
    # base-p id, and the number of tails of each rank 2r
    ids = mult = np.zeros(0, dtype=np.int64)
    tail_ranks = np.zeros(n, dtype=np.int64)
    phases = dict.fromkeys(PHASES, 0.0)
    checked = violations = 0
    first_bad = None
    tails_checked = tail_violations = 0
    first_tail_bad = None
    run = max(1, _CHUNK // 16)
    for lo in range(0, tails, run):
        hi = min(lo + run, tails)
        classes, ranks, (bad, first), spot = _tail_run(
            n, p, lo, hi, want_rank, spot_stride, phases)
        ids, mult = _merge_tally(ids, mult, *classes)
        if ranks is not None:
            tail_ranks += ranks
        if bad and first_tail_bad is None:
            first_tail_bad = (lo + first[0],) + first[1:]
        tail_violations += bad
        tails_checked += hi - lo
        checked += spot[0]
        violations += spot[1]
        if first_bad is None:
            first_bad = spot[2]
    t = time.perf_counter()
    phases["tail_pass"] = (t - t0 - phases["tail_check"]
                           - phases["spot_check"])

    # class pass: each distinct vector times every row-0 value, in tables of
    # at most _CHUNK row-0 values and _CHUNK entries
    hist = np.zeros(p, dtype=np.int64)
    groups = [(mu, ids[mult == mu]) for mu in sorted(set(mult.tolist()))]
    for c in range(0, block, _CHUNK):
        row0 = _digits(np.arange(c, min(c + _CHUNK, block), dtype=np.int64),
                       p, width0)
        rows = max(1, _CHUNK // row0.shape[1])
        for mu, group in groups:
            for i in range(0, group.size, rows):
                # tallied unreduced over the products' own value range
                raw = _products(_vectors(group[i:i + rows], p, width0),
                                row0).ravel()
                low = int(raw.min())
                tally = np.bincount(raw - low if low else raw)
                tally *= mu
                _fold(hist, tally, low, p)
    phases["pfaffian_classes"] = time.perf_counter() - t
    return {"hist": hist, "tail_ranks": tail_ranks, "checked": checked,
            "violations": violations, "first_bad": first_bad,
            "tails_checked": tails_checked,
            "tail_violations": tail_violations,
            "first_tail_bad": first_tail_bad,
            "phases": phases}
