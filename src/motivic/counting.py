"""Exhaustive finite-field point counts of skew-matrix loci, used as ground
truth against E-polynomial predictions evaluated at xy = p.

Matrices are enumerated by a mixed-radix integer index over the n(2n-1) free
upper-triangle entries in row-major order, so row 0 is the 2n-1 fastest
digits.  The index h L + r splits into a tail h and a row-0 value r, one
of L = p^(2n-1): each block of L consecutive indices shares one tail, the
odd skew matrix B without row and column 0.  A worker scans a range of
whole tails h0 <= h < h1, each with all L of its row-0 values.

By the first-row expansion Pf = sum_j (-1)^(j-1) a_0j Pf(A without 0, j),
the Pfaffian of a block is a linear form c . x in its row-0 digits x, whose
coefficient vector c in F_p^(2n-1) is made of Pfaffians of the tail.  Ranks
are read off from principal sub-Pfaffians (the rank of a skew matrix is the
largest size of a nonzero one): a 2k-minor through index 0 is again a
linear form in row 0, and one that avoids index 0 is a per-block boolean.

A scan of a tail range makes two passes.  The tail pass walks its tails in
runs of at most `_CHUNK // 16`, decoding each tail's digits once, and
reduces every tail to the base-p id of its Pfaffian coefficient vector.
For each rank level k < n, the tails with a nonzero 2k-minor count all
L of their matrices; for the others it keeps the ids of their 2k-forms
through index 0.  Many tails share a vector (the 3^10 tails of the 6x6
scan over F_3 share 3^5), so the class pass then multiplies each distinct
vector once by every row-0 value, brute force, in tables of at most
`_CHUNK` row-0 values and `_CHUNK` entries:
  - the Pfaffian products are tallied unreduced, scaled by the number of
    blocks with that vector (vectors of equal multiplicity share one
    bincount), and the short histogram is folded onto the residues mod p;
  - a block is of rank >= 2k at row-0 value x when any of its 2k-forms is
    nonzero at x, read from a bit table of each distinct form.
Coefficients and digits lie in [0, p), so every product is a small
non-negative integer; there is no float.

Two checks re-derive the Pfaffians from determinants, which share no code
with the Pfaffian path.  The tail check covers every matrix of the scan:
since det(A) = x^T adj(B) x and Pf(A) = c . x, Pf^2 = det holds on a whole
block when adj(B) = c c^T, an identity over Z that is checked mod p on all
(2n-1)^2 entries once per tail, adj(B) from the maximal minors of B
without each row.  The pointwise sample re-checks the decode and product
path: each matrix whose global index is a multiple of `SPOT_STRIDE` is
decoded afresh from its index, its Pfaffian is its block's vector, decoded
from its id, times its row-0 digits, and its determinant comes from the
same batched, division-free cofactor expansion.  Both expansions run in
the narrowest of int16, int32 and int64 that holds their bound (`_lane`).

Scans parallelise over ranges of whole tails, so each tail is checked once
at any worker count, and n = 1, which has one tail, always runs in one
thread.  The calling thread starts one worker thread per tail range after
the first and scans the first itself; numpy releases the GIL in its array
loops.  The Pfaffian histograms of the ranges are added in range order, so
the tallies merge by summation, bit-identically for any worker count.
These histograms are short: `_check_int64` admits p <= 743 at n = 2 and
p <= 17 at n = 3.  Only n = 1 holds a long one, in one thread, and
`HIST_MAX` bounds it.  `ScanResult.phases` holds the seconds of each phase
(`PHASES`), summed over workers, and `ScanResult.workers` each worker's
index range and seconds.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

# Nothing here calls BLAS: every matrix product is int64, which numpy runs
# in its own loops.  Its bundled OpenBLAS still starts one thread per extra
# core when loaded, and each spins idle for about 0.1 s of CPU.  One thread
# is enough; a value the caller set wins.  numpy is imported only by the
# functions that use it, so only a scan loads it, after this line; if the
# caller loaded numpy first, the pool already exists and this changes
# nothing.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import CapExceededError, ConsistencyError
from .skew import SkewMatrix, _is_prime, _pair_index

DEFAULT_CAP = 10 ** 8
# a prime: a stride divisible by p would leave the lowest row-0 digits of
# every sample zero
SPOT_STRIDE = 1009
_CHUNK = 1 << 17
_SAMPLE_BATCH = 2048
_INT64_MAX = (1 << 63) - 1
# the most entries of a scan's p-long Pfaffian histogram, 128 MiB of int64
HIST_MAX = 1 << 24
PHASES = ("tail_pass", "tail_check", "pfaffian_classes", "rank_classes",
          "spot_check", "merge")


class PfCounts(Mapping):
    """Read-only map from each value v in [0, p) to #{Pf = v}, held as one
    int64 array of counts and read as Python ints; it compares equal to the
    dict with the same items."""

    __slots__ = ("_counts",)

    def __init__(self, counts):
        self._counts = counts

    def __getitem__(self, v):
        if isinstance(v, int) and 0 <= v < len(self._counts):
            return int(self._counts[v])
        raise KeyError(v)

    def __iter__(self):
        return iter(range(len(self._counts)))

    def __len__(self):
        return len(self._counts)

    def __repr__(self):
        return repr(dict(self))


@dataclass
class ScanResult:
    n: int
    p: int
    total: int
    pf_counts: PfCounts
    rank_counts: dict | None
    spot_checked: int
    tails_checked: int
    elapsed: float
    phases: dict   # seconds per phase (PHASES), summed over workers
    workers: list  # (lo, hi, elapsed) of each worker's index range


def _check_int64(n, p, total):
    """Refuse a scan whose int64 arithmetic could overflow.  The largest
    quantities are the matrix index, below p^(n(2n-1)), and the cofactor
    expansions of the two checks.  Each of their terms and partial sums
    is the determinant of an r x r matrix with entries at most p-1 in
    size (a minor with part of its top row zeroed), so it is at most the
    Hadamard bound ((p-1) sqrt(r))^r <= ((p-1) sqrt(2n))^(2n).  The test
    below, twice the square of the order-(2n-1) bound, exceeds that bound
    for every n and p and is kept as a margin.  The row-0 forms, at most
    (2n-1)(p-1)^2, are smaller."""
    r = 2 * n - 1
    if total - 1 > _INT64_MAX or 2 * (p - 1) ** (2 * r) * r ** r > _INT64_MAX:
        raise CapExceededError(
            f"a scan of {2 * n}x{2 * n} matrices over F_{p} would overflow "
            f"int64 arithmetic")


def _lane(n, p):
    """The integer dtype of the cofactor expansions of a 2n x 2n scan over
    F_p: the narrowest of int16, int32 and int64 whose range holds twice
    the Hadamard bound ((p-1) sqrt(2n))^(2n), which bounds every term and
    partial sum (see `_check_int64`; the tail's minors are smaller)."""
    import numpy as np
    bound = 2 * (p - 1) ** (2 * n) * (2 * n) ** n
    for lane in (np.int16, np.int32):
        if bound <= np.iinfo(lane).max:
            return lane
    return np.int64


@lru_cache(maxsize=None)
def _plan(n):
    """Index recipes of the first-row factoring for size 2n.

    Returns (pairs, avoid, forms): `pairs` maps (i, j), 1 <= i < j, to its
    tail digit; for 1 <= k < n, `avoid[k]` lists the 2k-subsets of
    {1, ..., 2n-1}; for 1 <= k <= n, `forms[k]` has, for each
    (2k-1)-subset S, the terms (row-0 digit, sign, S without j) of
    Pf({0} + S) = sum_j sign a_0j Pf(S without j).  `forms[n]` is the
    Pfaffian itself.
    """
    size = 2 * n
    rest = range(1, size)
    pairs = {(i, j): _pair_index(i, j, size) - (size - 1)
             for i, j in combinations(rest, 2)}
    avoid = {k: tuple(combinations(rest, 2 * k)) for k in range(1, n)}
    forms = {k: tuple(tuple((j - 1, 1 if pos % 2 == 0 else -1,
                             s[:pos] + s[pos + 1:])
                            for pos, j in enumerate(s))
                      for s in combinations(rest, 2 * k - 1))
             for k in range(1, n + 1)}
    return pairs, avoid, forms


def _mod(a, p):
    """a mod p for an integer array and p > 0, in a's dtype.  a - (a // p) p
    equals a % p in every lane: the quotient cannot overflow, and the
    result, in [0, p), survives a wrap of (a // p) p below the lane's
    minimum.  numpy's integer % by a scalar is several times slower than
    its floor division."""
    return a - a // p * p


def _digits(values, p, count):
    """The `count` least significant base-p digits of an int64 array."""
    out = []
    for _ in range(count):
        high = values // p
        out.append(values - high * p)  # `_mod`, reusing the quotient
        values = high
    return out


class _TailMemo(dict):
    """The memo of `_tail_pfaffians`, which fills its own missing keys."""

    def __init__(self, tail, pairs, p, blocks):
        import numpy as np
        super().__init__({(): np.ones(blocks, dtype=np.int64)})
        self.tail, self.pairs, self.p = tail, pairs, p

    def __missing__(self, s):
        acc = 0
        for pos, j in enumerate(s[1:]):
            term = (self.tail[self.pairs[s[0], j]]
                    * self[s[1:pos + 1] + s[pos + 2:]])
            acc = acc - term if pos % 2 else acc + term
        value = self[s] = _mod(acc, self.p)
        return value


def _tail_pfaffians(tail, pairs, p, blocks):
    """Sub-Pfaffians mod p of the tail (the matrix without row and column
    0), as a function of the index subset returning one value per block;
    the first-row recursion, memoised.  The memo is a dict, not a closure
    that calls itself, so it is freed with its run rather than left to the
    cyclic garbage collector."""
    return _TailMemo(tail, pairs, p, blocks).__getitem__


def _coefficients(form, pf, p, blocks, width0):
    """Row-0 coefficients mod p of one form, a row per selected block."""
    import numpy as np
    out = np.zeros((blocks.size, width0), dtype=np.int64)
    for digit, sign, sub in form:
        c = pf(sub)[blocks]
        out[:, digit] = c if sign > 0 else _mod(-c, p)
    return out


def _vectors(ids, p, width0):
    """The coefficient vectors with these base-p ids, one per row."""
    import numpy as np
    return np.array(_digits(ids, p, width0)).T


def _products(vectors, row0):
    """The unreduced row-0 products of coefficient vectors and row-0 digit
    columns (a matrix product, or a stack of them)."""
    return vectors @ row0


def _row0_tables(block, p, width0):
    """The row-0 digit columns of all block = p^width0 row-0 values, in
    tables of at most _CHUNK columns."""
    import numpy as np
    for c in range(0, block, _CHUNK):
        yield np.array(_digits(np.arange(c, min(c + _CHUNK, block),
                                         dtype=np.int64), p, width0))


def _skew_stack(digits, size, dtype, count):
    """The (size, size, count) integer lifts of upper-triangle digit arrays,
    batch axis innermost: upper entries as stored, lower entries negated."""
    import numpy as np
    M = np.zeros((size, size, count), dtype=dtype)
    for (i, j), d in zip(combinations(range(size), 2), digits):
        M[i, j] = d
        M[j, i] = -d
    return M


@lru_cache(maxsize=None)
def _laplace_plan(rows, cols):
    """Index recipes of the cofactor expansion of the maximal minors of a
    rows x cols matrix, rows <= cols.

    Level r = 2, ..., rows expands the minors of the last r rows along
    their top row, rows - r.  Returns, per level, (rows - r, terms): the
    r-subsets S of columns in lexicographic order, and for each position
    pos < r the pair (column S[pos] of every S, index of S without S[pos]
    among the (r-1)-subsets), so that minor(S) = sum_pos (-1)^pos
    a[rows-r, S[pos]] minor(S without S[pos]).
    """
    import numpy as np
    levels = []
    prev = {(c,): c for c in range(cols)}
    for r in range(2, rows + 1):
        subsets = tuple(combinations(range(cols), r))
        terms = tuple((np.array([S[pos] for S in subsets], dtype=np.intp),
                       np.array([prev[S[:pos] + S[pos + 1:]] for S in subsets],
                                dtype=np.intp))
                      for pos in range(r))
        levels.append((rows - r, terms))
        prev = {S: i for i, S in enumerate(subsets)}
    return tuple(levels)


def _minors(M, rows):
    """The maximal minors of the rows `rows` of a (s, cols, N) stack, batch
    axis innermost: one per len(rows)-subset of columns in lexicographic
    order, as a (subsets, N) array of M's dtype.  Cofactor expansion along
    the rows from the bottom up, the minors of the last r rows from those
    of the last r-1; no division and no pivot search, so every matrix
    takes the same steps, and only two levels of minors are alive at a
    time."""
    import numpy as np
    if not rows:
        return np.ones((1, M.shape[2]), dtype=M.dtype)
    minors = M[rows[-1]]
    for level, terms in _laplace_plan(len(rows), M.shape[1]):
        a = M[rows[level]]
        acc = None
        for pos, (cols, subs) in enumerate(terms):
            term = a[cols] * minors[subs]
            if acc is None:
                acc = term
            elif pos % 2:
                acc -= term
            else:
                acc += term
        minors = acc
    return minors


def _batched_det(M):
    """Exact determinants of an (N, s, s) integer stack, in its dtype."""
    import numpy as np
    s = M.shape[1]
    M = np.ascontiguousarray(M.transpose(1, 2, 0))  # batch axis innermost
    return _minors(M, tuple(range(s)))[0]


def _adjugate(B):
    """adj(B) of a (w, w, N) stack, batch axis innermost:
    adj(B)[i, j] = (-1)^(i+j) det(B without row j and column i), column j
    from the maximal minors of B without row j."""
    import numpy as np
    w = B.shape[0]
    adj = np.empty_like(B)
    for j in range(w):
        # the (w-1)-subset of columns at lexicographic position k omits
        # column w-1-k
        adj[:, j] = _minors(B, tuple(r for r in range(w) if r != j))[::-1]
        adj[(j + 1) % 2::2, j] *= -1
    return adj


def _tail_check(tail, coeff, p, lane):
    """Check adj(B) = c c^T mod p for each block, B its odd skew tail from
    the tail digits and c its row of `coeff`.  Returns the number of failing
    blocks and, for the first, (its row, i, j, adj(B)[i, j], c_i c_j mod p)
    at its first failing entry."""
    import numpy as np
    count, w = coeff.shape
    adj = _adjugate(_skew_stack(tail, w, lane, count))
    c = coeff.T.astype(lane)
    bad = _mod(adj - c[:, None] * c[None], p).reshape(w * w, count)
    hit = np.flatnonzero(bad.any(axis=0))
    if not hit.size:
        return 0, None
    t = int(hit[0])
    i, j = divmod(int(np.flatnonzero(bad[:, t])[0]), w)
    return int(hit.size), (t, i, j, int(adj[i, j, t]),
                           int(c[i, t]) * int(c[j, t]) % p)


def _fold(hist, tally, low, p):
    """Add `tally`, counts of the raw values low, low + 1, ..., onto their
    residues mod p, one run of p values at a time."""
    pos = 0
    while pos < tally.size:
        r = (low + pos) % p
        take = min(p - r, tally.size - pos)
        hist[r:r + take] += tally[pos:pos + take]
        pos += take


def _scan_range(n, p, h0, h1, want_rank, spot_stride, stop):
    """Scan the tails h0 <= h < h1, each with all its row-0 values.
    Returns None, having scanned part of the range, if `stop` is set
    before a run of tails."""
    import numpy as np
    t0 = time.perf_counter()
    # Allocated and freed at once, never touched: freeing one 4 MiB block
    # raises glibc's dynamic mmap and trim thresholds above a run's
    # scratch, so the heap is not trimmed and faulted in again every run
    # (about 5 900 page faults in the 3^15 scan otherwise, 0.02 s of its
    # 0.055 s).  Other allocators are unaffected.
    np.empty(1 << 22, dtype=np.uint8)
    size = 2 * n
    width0 = size - 1
    block = p ** width0
    m = n * width0
    pairs, avoid, forms = _plan(n)
    powers = p ** np.arange(width0, dtype=np.int64)
    lane = _lane(n, p)

    # tail pass: each tail's Pfaffian coefficient vector, as its base-p id;
    # for k < n, the ids of the 2k-forms through index 0 of the tails with
    # no nonzero 2k-minor
    pf_ids = []
    form_ids = {}
    # ck[k-1] = #matrices with some nonzero 2k-sub-Pfaffian
    ck = np.zeros(n, dtype=np.int64)
    phases = dict.fromkeys(PHASES, 0.0)
    checked = violations = 0
    first_bad = None
    tails_checked = tail_violations = 0
    first_tail_bad = None
    run = max(1, _CHUNK // 16)
    for lo in range(h0, h1, run):
        if stop.is_set():
            return None
        hi = min(lo + run, h1)
        blocks = np.arange(hi - lo)
        tail = _digits(np.arange(lo, hi, dtype=np.int64), p, m - width0)
        pf = _tail_pfaffians(tail, pairs, p, blocks.size)
        coeff = _coefficients(forms[n][0], pf, p, blocks, width0)
        ids = coeff @ powers
        pf_ids.append(ids)
        if want_rank:
            for k in range(1, n):
                tail_hit = np.zeros(blocks.size, dtype=bool)
                for s in avoid[k]:
                    tail_hit |= pf(s) != 0
                ck[k - 1] += int(tail_hit.sum()) * block
                rest = np.flatnonzero(~tail_hit)
                if rest.size:
                    form_ids.setdefault(k, []).append(np.stack(
                        [_coefficients(form, pf, p, rest, width0) @ powers
                         for form in forms[k]], axis=1))
        t = time.perf_counter()
        bad, first = _tail_check(tail, coeff, p, lane)
        if bad and first_tail_bad is None:
            first_tail_bad = (lo + first[0],) + first[1:]
        tail_violations += bad
        tails_checked += hi - lo
        u = time.perf_counter()
        phases["tail_check"] += u - t
        if spot_stride:
            end = hi * block
            step = spot_stride * _SAMPLE_BATCH
            for b0 in range(-(-lo * block // spot_stride) * spot_stride, end,
                            step):
                sel = np.arange(b0, min(b0 + step, end), spot_stride,
                                dtype=np.int64)
                digits = _digits(sel, p, m)
                # Pf by the class pass's route: the tail's vector, decoded
                # from its id, times the sample's row-0 digits
                vec = _vectors(ids[sel // block - lo], p, width0)
                row0 = np.array(digits[:width0]).T
                pfv = _mod(_products(vec[:, None], row0[:, :, None]).ravel(),
                           p)
                det = _batched_det(
                    _skew_stack(digits, size, lane, sel.size)
                    .transpose(2, 0, 1))
                bad = np.flatnonzero(_mod(det - pfv * pfv, p))
                if bad.size and first_bad is None:
                    first_bad = int(sel[bad[0]])
                violations += int(bad.size)
                checked += int(sel.size)
        phases["spot_check"] += time.perf_counter() - u
    t = time.perf_counter()
    phases["tail_pass"] = (t - t0 - phases["tail_check"]
                           - phases["spot_check"])

    # class pass: each distinct vector times every row-0 value, in tables of
    # at most _CHUNK row-0 values and _CHUNK entries
    hist = np.zeros(p, dtype=np.int64)
    ids, mult = np.unique(np.concatenate(pf_ids), return_counts=True)
    groups = [(mu, ids[mult == mu]) for mu in sorted(set(mult.tolist()))]
    for row0 in _row0_tables(block, p, width0):
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
    u = time.perf_counter()
    phases["pfaffian_classes"] = u - t
    for k in sorted(form_ids):
        # x mod p != 0 for every value a row-0 form can take
        nonzero = _mod(np.arange(width0 * (p - 1) ** 2 + 1), p) != 0
        fids = np.concatenate(form_ids.pop(k))
        uniq, inv = np.unique(fids, return_inverse=True)
        inv = inv.reshape(fids.shape)
        for row0 in _row0_tables(block, p, width0):
            rows = max(1, _CHUNK // row0.shape[1])
            # the nonzero table of each distinct form, 8 row-0 values a byte
            bits = np.empty((uniq.size, -(-row0.shape[1] // 8)),
                            dtype=np.uint8)
            for i in range(0, uniq.size, rows):
                bits[i:i + rows] = np.packbits(nonzero[_products(
                    _vectors(uniq[i:i + rows], p, width0), row0)], axis=1)
            # a tail is hit where any of its forms is nonzero
            step = max(1, _CHUNK // (fids.shape[1] * bits.shape[1]))
            for i in range(0, fids.shape[0], step):
                hit = np.bitwise_or.reduce(bits[inv[i:i + step]], axis=1)
                ck[k - 1] += int(np.count_nonzero(np.unpackbits(hit)))
    phases["rank_classes"] = time.perf_counter() - u
    if want_rank:
        ck[n - 1] = (h1 - h0) * block - int(hist[0])
    return {"hist": hist, "ck": ck, "checked": checked,
            "violations": violations, "first_bad": first_bad,
            "tails_checked": tails_checked,
            "tail_violations": tail_violations,
            "first_tail_bad": first_tail_bad,
            "phases": phases, "elapsed": time.perf_counter() - t0}


def _scan_ranges(n, p, ranges, want_rank, spot_stride):
    """Scan the tail ranges: each after the first in a worker thread, the
    first in this one.  Returns the results in order.  An error or
    interrupt in any range sets one stop event, which every range checks
    before its next run of tails.  Every worker thread has ended before
    this returns or raises; then the first error is raised, with its type
    and message."""
    stop = threading.Event()
    parts = [None] * len(ranges)
    errors = []

    def scan(i):
        try:
            parts[i] = _scan_range(n, p, *ranges[i], want_rank, spot_stride,
                                   stop)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=scan, args=(i,))
               for i in range(1, len(ranges))]
    try:
        for thread in threads:
            thread.start()
        scan(0)
    except BaseException as exc:  # a worker not started, or an interrupt
        errors.append(exc)
        stop.set()
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:  # an interrupt while waiting
                errors.append(exc)
                stop.set()
    if errors:
        raise errors[0]
    return parts


def _power_text(p, m):
    """p^m for a message, expanded only when it is below 2^256, so that no
    huge power is built or converted to decimal."""
    if m * p.bit_length() > 256:
        return f"{p}^{m}"
    return f"{p ** m} = {p}^{m}"


def _split_ranges(total, parts):
    parts = max(1, min(parts, total))
    step, rem = divmod(total, parts)
    out = []
    lo = 0
    for i in range(parts):
        hi = lo + step + (1 if i < rem else 0)
        out.append((lo, hi))
        lo = hi
    return out


def scan_skew(n, p, mode="full", cap=None, workers=1, spot_stride=SPOT_STRIDE):
    """Scan all 2n x 2n skew matrices over F_p.

    mode "hist" tallies Pfaffian values only; mode "full" also buckets by
    rank.  Raises CapExceededError when p^(n(2n-1)) exceeds the cap, the
    scan's int64 arithmetic could overflow or p exceeds HIST_MAX, and
    ConsistencyError when a tail fails adj(B) = c c^T (naming the lowest
    such block) or a sampled matrix fails Pf^2 = det (naming the
    lowest-index offender).  The cap and HIST_MAX are tested before p is
    tested for primality.  At most min(workers, os.cpu_count(),
    ceil(p^(n(2n-1)) / _CHUNK), p^((n-1)(2n-1))) threads scan, the calling
    one and worker threads, each a range of whole tails.  So a scan of at
    most _CHUNK matrices, and every n = 1 scan (one tail), runs in the
    calling thread alone.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if mode not in ("hist", "full"):
        raise ValueError(f"unknown scan mode {mode!r}")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    m = n * (2 * n - 1)
    cap = DEFAULT_CAP if cap is None else cap
    # p^m >= 2^(m (bits(p) - 1)), so the first test refuses a scan without
    # building p^m whenever that power has more bits than the cap
    if m * (p.bit_length() - 1) >= cap.bit_length() or p ** m > cap:
        raise CapExceededError(
            f"enumeration of {_power_text(p, m)} matrices exceeds cap {cap}")
    if p > HIST_MAX:
        raise CapExceededError(
            f"a scan over F_{p} would hold a {p}-entry Pfaffian histogram, "
            f"above the limit of {HIST_MAX}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = p ** m
    _check_int64(n, p, total)
    want_rank = mode == "full"
    # loaded here, in the calling thread, so that no worker thread loads
    # it and the scan's clocks time the scan alone
    import numpy  # noqa: F401
    t0 = time.perf_counter()
    # built before any range allocates its scratch: the report peaked about
    # 0.2 MiB higher when the first range built it
    _plan(n)
    procs = min(workers, os.cpu_count() or 1, -(-total // _CHUNK))
    # each worker takes whole tails times all of row 0
    block = p ** (2 * n - 1)
    ranges = _split_ranges(total // block, procs)
    parts = _scan_ranges(n, p, ranges, want_rank, spot_stride)
    t_merge = time.perf_counter()
    hist = parts[0]["hist"]
    for part in parts[1:]:
        hist += part["hist"]
    ck = sum(part["ck"] for part in parts)
    tails = sum(part["tails_checked"] for part in parts)
    tail_violations = sum(part["tail_violations"] for part in parts)
    if tail_violations:
        h, i, j, a, b = min(part["first_tail_bad"] for part in parts
                            if part["first_tail_bad"] is not None)
        first = h * block
        A = SkewMatrix(2 * n, [first // p ** t % p for t in range(m)])
        raise ConsistencyError(
            f"adj(B) = c c^T failed on {tail_violations} of {tails} tails; "
            f"the first is the block at index {first} at (n, p) = "
            f"({n}, {p}), whose matrix B without row and column 0 has "
            f"adj(B)[{i}, {j}] = {a} but c_{i} c_{j} = {b} mod {p}: {A!r}")
    checked = sum(part["checked"] for part in parts)
    violations = sum(part["violations"] for part in parts)
    if violations:
        first = min(part["first_bad"] for part in parts
                    if part["first_bad"] is not None)
        A = SkewMatrix(2 * n, [first // p ** t % p for t in range(m)])
        raise ConsistencyError(
            f"Pf^2 = det failed on {violations} of {checked} sampled "
            f"matrices; the first is index {first} at (n, p) = ({n}, {p}): "
            f"{A!r}")
    if int(hist.sum()) != total:
        raise ConsistencyError("Pfaffian histogram does not sum to the scan size")
    pf_counts = PfCounts(hist)
    rank_counts = None
    if want_rank:
        ck = ck.tolist()
        rank_counts = {0: total - ck[0]}
        for k in range(1, n + 1):
            above = ck[k] if k < n else 0
            rank_counts[2 * k] = ck[k - 1] - above
        if sum(rank_counts.values()) != total:
            raise ConsistencyError("rank buckets do not sum to the scan size")
    phases = {name: sum(part["phases"][name] for part in parts)
              for name in PHASES}
    end = time.perf_counter()
    phases["merge"] += end - t_merge
    return ScanResult(n=n, p=p, total=total, pf_counts=pf_counts,
                      rank_counts=rank_counts, spot_checked=checked,
                      tails_checked=tails, elapsed=end - t0, phases=phases,
                      workers=[(h0 * block, h1 * block, part["elapsed"])
                               for (h0, h1), part in zip(ranges, parts)])
