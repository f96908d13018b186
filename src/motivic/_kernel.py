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
most `_CHUNK // 16`, decoding each run once into its stack of odd skew
tails B, reduces every tail to the base-p id of its Pfaffian coefficient
vector and tallies the tails by rank.  Each run bincounts its ids into
one count array, which grows to the largest id seen and so never past
p^(2n-1) entries; the class pass takes the distinct ids, ascending, from
`np.flatnonzero` and their multiplicities from the array.  A scan never
holds one id per tail, and everything else a run builds is freed before
the next run.
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

A run's arrays (its skew stack, which is its only copy of the tails,
sub-Pfaffians, coefficient rows, the expansions of both checks) are in the
narrowest of int16, int32 and int64 that holds the Hadamard bound of the
scan (`_lane`).  The ids, the class pass's products and tallies and the
index tables stay int64 or intp.
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

_CHUNK = 1 << 17
_SAMPLE_BATCH = 2048


def _lane(n, p):
    """The integer dtype of the cofactor expansions of a 2n x 2n scan over
    F_p: the narrowest of int16, int32 and int64 whose range holds twice
    the Hadamard bound ((p-1) sqrt(2n))^(2n), which bounds every term and
    partial sum (the tail's minors are smaller); under `counting.SCAN_MAX`
    it always fits int64."""
    bound = 2 * (p - 1) ** (2 * n) * (2 * n) ** n
    for lane in (np.int16, np.int32):
        if bound <= np.iinfo(lane).max:
            return lane
    return np.int64


@lru_cache(maxsize=None)
def _plan(n):
    """Index recipes of the first-row factoring for size 2n, over the rows
    0, ..., 2n-2 of the tail B (rows 1, ..., 2n-1 of the matrix).

    Returns (avoid, pfaffian): for 1 <= k < n, `avoid[k]` lists the
    2k-subsets of the tail's rows; `pfaffian` has, for j = 0, ..., 2n-2,
    the term (sign, the tail's rows without j) of
    Pf = sum_j sign a_0,j+1 Pf(B without j).
    """
    rest = tuple(range(2 * n - 1))
    avoid = {k: tuple(combinations(rest, 2 * k)) for k in range(1, n)}
    pfaffian = tuple((1 if pos % 2 == 0 else -1, rest[:pos] + rest[pos + 1:])
                     for pos in rest)
    return avoid, pfaffian


def _mod(a, p):
    """a mod p for an integer array and p > 0, in a's dtype.  a - (a // p) p
    equals a % p in every lane: the quotient cannot overflow, and the
    result, in [0, p), survives a wrap of (a // p) p below the lane's
    minimum.  numpy's integer % by a scalar is several times slower than
    its floor division."""
    return a - a // p * p


def _digits(values, p, count):
    """The `count` least significant base-p digits of an int64 array, a
    row per digit, as a (count, values.size) int64 array."""
    out = np.empty((count, values.size), dtype=np.int64)
    for row in out:
        high = values // p
        np.subtract(values, high * p, out=row)  # `_mod`, reusing the quotient
        values = high
    return out


def _skew_stack(values, p, size, dtype):
    """The (size, size, values.size) skew matrices whose upper triangles, in
    row-major order, are the least significant base-p digits of an int64
    array, batch axis innermost, in `dtype`: upper entries the digits,
    lower entries their negatives."""
    M = np.zeros((size, size, values.size), dtype=dtype)
    for i, j in combinations(range(size), 2):
        high = values // p
        np.subtract(values, high * p, out=M[i, j])  # `_mod`, as in `_digits`
        np.negative(M[i, j], out=M[j, i])
        values = high
    return M


class _TailMemo(dict):
    """Sub-Pfaffians mod p of a (w, w, N) stack of tails B (the matrices
    without row and column 0), keyed by the tuple of B's rows, one value
    per tail, in B's dtype; the first-row recursion, memoised.  The memo
    is a dict that fills its own missing keys, not a closure that calls
    itself, so it is freed with its run rather than left to the cyclic
    garbage collector."""

    def __init__(self, B, p):
        super().__init__({(): np.ones(B.shape[2], dtype=B.dtype)})
        self.B, self.p = B, p

    def __missing__(self, s):
        # in B's lane: fewer than 2n - 1 terms, each an entry times a
        # reduced sub-Pfaffian, so below (2n - 1)(p - 1)^2, which the
        # lane's bound covers
        acc = 0
        for pos, j in enumerate(s[1:]):
            term = self.B[s[0], j] * self[s[1:pos + 1] + s[pos + 2:]]
            acc = acc - term if pos % 2 else acc + term
        value = self[s] = _mod(acc, self.p)
        return value


def _coefficients(form, pf, p):
    """Row-0 coefficients mod p of the Pfaffian form, from the memo `pf`, a
    row per coefficient and a column per block."""
    return np.stack([pf[sub] if sign > 0 else _mod(-pf[sub], p)
                     for sign, sub in form])


def _ids(coeff, p):
    """The base-p ids of the columns of `coeff`, coefficient k the digit of
    p^k, as int64: the layout `_digits` decodes."""
    return p ** np.arange(coeff.shape[0], dtype=np.int64) @ coeff


def _vectors(ids, p, width0):
    """The coefficient vectors with these base-p ids, one per row."""
    return _digits(ids, p, width0).T


def _products(vectors, row0):
    """The unreduced row-0 products of coefficient vectors and row-0 digit
    columns (a matrix product, or a stack of them)."""
    return vectors @ row0


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
    """Exact determinants of an (s, s, N) integer stack, batch axis
    innermost, in its dtype: the minors of the last r rows from those of the
    last r - 1, bottom up, only two levels alive at a time."""
    s = M.shape[0]
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


def _tail_check(B, coeff, p):
    """Check adj(B) = c c^T mod p for each block, B its odd skew tail in the
    run's (w, w, N) stack and c its column of the coefficient rows `coeff`,
    one column of adj(B) at a time, in B's dtype.  Returns the number of
    failing blocks and, for the first, (its index among the blocks, i, j,
    adj(B)[i, j], c_i c_j mod p) at its first failing entry in row-major
    order."""
    failing = np.zeros(coeff.shape[1], dtype=bool)
    first = None
    for j, column in _adjugate_columns(B):
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
    lane = _lane(n, p)
    checked = violations = 0
    first_bad = None
    end = hi * block
    step = spot_stride * _SAMPLE_BATCH
    for b0 in range(-(-lo * block // spot_stride) * spot_stride, end, step):
        sel = np.arange(b0, min(b0 + step, end), spot_stride, dtype=np.int64)
        M = _skew_stack(sel, p, size, lane)
        vec = _vectors(ids[sel // block - lo], p, width0)
        row0 = M[0, 1:].T
        pfv = _mod(_products(vec[:, None], row0[:, :, None]).ravel(), p)
        det = _batched_det(M)
        bad = np.flatnonzero(_mod(det - pfv * pfv, p))
        if bad.size and first_bad is None:
            first_bad = int(sel[bad[0]])
        violations += int(bad.size)
        checked += int(sel.size)
    return checked, violations, first_bad


def _tail_run(n, p, lo, hi, spot_stride, phases):
    """The tail pass over the tails lo <= h < hi, with both checks: returns
    the run's ids, one per tail, the tail rank tally, the tail check's
    (failures, first) with the first's block index within the run, and the
    spot check's (checked, failures, first).  Adds the seconds of each
    check to `phases`.  Every other per-tail array is local, so it is freed
    on return."""
    avoid, pfaffian = _plan(n)
    B = _skew_stack(np.arange(lo, hi, dtype=np.int64), p, 2 * n - 1,
                    _lane(n, p))
    pf = _TailMemo(B, p)
    coeff = _coefficients(pfaffian, pf, p)
    ids = _ids(coeff, p)
    # the largest k with a nonzero 2k-sub-Pfaffian, or 0
    rank = np.zeros(hi - lo, dtype=np.intp)
    for k in range(1, n):
        for s in avoid[k]:
            rank[pf[s] != 0] = k
    ranks = np.bincount(rank, minlength=n)
    t = time.perf_counter()
    tail_bad = _tail_check(B, coeff, p)
    u = time.perf_counter()
    phases["tail_check"] += u - t
    spot = (0, 0, None)
    if spot_stride:
        spot = _spot_check(n, p, ids, lo, hi, spot_stride)
    phases["spot_check"] += time.perf_counter() - u
    return ids, ranks, tail_bad, spot


def _fold(hist, tally, low, p):
    """Add `tally`, counts of the raw values low, low + 1, ..., onto their
    residues mod p, one run of p values at a time."""
    pos = 0
    while pos < tally.size:
        r = (low + pos) % p
        take = min(p - r, tally.size - pos)
        hist[r:r + take] += tally[pos:pos + take]
        pos += take


def _scan(n, p, spot_stride):
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
    run = max(1, _CHUNK // 16)
    counts = np.zeros(0, dtype=np.int64)
    tail_ranks = np.zeros(n, dtype=np.int64)
    phases = dict.fromkeys(PHASES, 0.0)
    checked = violations = 0
    first_bad = None
    tail_violations = 0
    first_tail_bad = None
    for lo in range(0, tails, run):
        hi = min(lo + run, tails)
        run_ids, ranks, (bad, first), spot = _tail_run(
            n, p, lo, hi, spot_stride, phases)
        # the count array grows to the largest id seen, never past block
        more = np.bincount(run_ids)
        del run_ids
        if more.size > counts.size:
            more[:counts.size] += counts
            counts = more
        else:
            counts[:more.size] += more
        tail_ranks += ranks
        if bad and first_tail_bad is None:
            first_tail_bad = (lo + first[0],) + first[1:]
        tail_violations += bad
        checked += spot[0]
        violations += spot[1]
        if first_bad is None:
            first_bad = spot[2]
    ids = np.flatnonzero(counts)
    mult = counts[ids]
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
            "tail_violations": tail_violations,
            "first_tail_bad": first_tail_bad,
            "phases": phases}
