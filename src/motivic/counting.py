"""Exhaustive finite-field point counts of skew-matrix loci, used as ground
truth against E-polynomial predictions evaluated at xy = p.

Matrices are enumerated by a mixed-radix integer index over the n(2n-1) free
upper-triangle entries in row-major order, so row 0 is the 2n-1 fastest
digits.  The index splits into a row-0 part, which takes L = p^(2n-1)
values, and a tail: each block of L consecutive indices shares one tail.
A slab of at most `_CHUNK` matrices is a run of whole blocks, or a piece of
one block at either end of a range or where L > `_CHUNK`.  Its row-0 digits
are decoded once as a (2n-1) x width table and its tail digits once per
block.

By the first-row expansion Pf = sum_j (-1)^(j-1) a_0j Pf(A without 0, j),
the Pfaffian is a linear form in row 0 whose coefficients are Pfaffians of
the tail, so the Pfaffians of a slab are one (blocks x (2n-1)) @
((2n-1) x width) integer product.  Ranks are read off from principal
sub-Pfaffians (the rank of a skew matrix is the largest size of a nonzero
one): a 2k-minor through index 0 is again a linear form in row 0, and one
that avoids index 0 is a per-block boolean, so the row-0 forms are only
evaluated in blocks whose tail has no nonzero 2k-minor.  Coefficients and
digits lie in [0, p), so every product is a small non-negative integer;
there is no float.

The Pfaffian products are tallied as they come, without reduction: a
slab's histogram spans only its own values, at most (2n-1)(p-1)^2, and is
then folded onto the residues mod p.

The matrices whose global index is a multiple of `SPOT_STRIDE` are
re-checked against an independent integer determinant (Pf^2 = det mod p):
they are decoded afresh from their indices, and their determinants come from
a batched, division-free cofactor expansion that shares no code with the
Pfaffian path.  Scans parallelise over disjoint index ranges and merge
tallies by summation, bit-identically for any worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import CapExceededError, ConsistencyError
from .laurent import LaurentPoly2, _u_div_exact, _u_mul
from .skew import SkewMatrix, _is_prime, _pair_index

DEFAULT_CAP = 10 ** 8
SPOT_STRIDE = 100
_CHUNK = 1 << 17
_INT64_MAX = (1 << 63) - 1


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
    elapsed: float


def _check_int64(n, p, total):
    """Refuse a scan whose int64 arithmetic could overflow.  The largest
    quantities are the matrix index, below p^(n(2n-1)), and the spot
    check's cofactor expansion.  Each of its terms and partial sums is the
    determinant of an r x r matrix with entries at most p-1 in size (a
    minor with part of its top row zeroed), so it is at most the Hadamard
    bound ((p-1) sqrt(r))^r <= ((p-1) sqrt(2n))^(2n).  The test below,
    twice the square of the order-(2n-1) bound, exceeds that bound for
    every n and p and is kept as a margin.  The row-0 forms, at most
    (2n-1)(p-1)^2, are smaller."""
    r = 2 * n - 1
    if total - 1 > _INT64_MAX or 2 * (p - 1) ** (2 * r) * r ** r > _INT64_MAX:
        raise CapExceededError(
            f"a scan of {2 * n}x{2 * n} matrices over F_{p} would overflow "
            f"int64 arithmetic")


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


def _digits(values, p, count):
    """The `count` least significant base-p digits of an int64 array."""
    out = []
    for _ in range(count):
        out.append(values % p)
        values = values // p
    return out


def _tail_pfaffians(tail, pairs, p, blocks):
    """Sub-Pfaffians mod p of the tail (the matrix without row and column
    0), as a function of the index subset returning one value per block;
    the first-row recursion, memoised."""
    memo = {(): np.ones(blocks, dtype=np.int64)}

    def pf(s):
        if s not in memo:
            acc = 0
            for pos, j in enumerate(s[1:]):
                term = tail[pairs[s[0], j]] * pf(s[1:pos + 1] + s[pos + 2:])
                acc = acc - term if pos % 2 else acc + term
            memo[s] = acc % p
        return memo[s]

    return pf


def _coefficients(form, pf, p, blocks, width0):
    """Row-0 coefficients mod p of one form, a row per selected block."""
    out = np.zeros((blocks.size, width0), dtype=np.int64)
    for digit, sign, sub in form:
        c = pf(sub)[blocks]
        out[:, digit] = c if sign > 0 else -c % p
    return out


def _slabs(lo, hi, width):
    """Cover [lo, hi) in index order by rectangles (h0, h1, r0, r1), tails
    h0 <= h < h1 times row-0 values r0 <= r < r1, of at most _CHUNK
    matrices each: runs of whole blocks, or one piece of a block."""
    pos = lo
    while pos < hi:
        h, r = divmod(pos, width)
        if r == 0 and width <= _CHUNK and hi - pos >= width:
            h1 = min(h + _CHUNK // width, hi // width)
            yield h, h1, 0, width
            pos = h1 * width
        else:
            r1 = min(width, r + _CHUNK, r + hi - pos)
            yield h, h + 1, r, r1
            pos += r1 - r


def _skew_stack(digits, size):
    """The (N, size, size) integer lifts of upper-triangle digit arrays:
    upper entries as stored, lower entries negated.  The stack is a view of
    a (size, size, N) array, the layout `_batched_det` works in."""
    M = np.zeros((size, size, digits[0].size), dtype=np.int64)
    for (i, j), d in zip(combinations(range(size), 2), digits):
        M[i, j] = d
        M[j, i] = -d
    return M.transpose(2, 0, 1)


@lru_cache(maxsize=None)
def _laplace_plan(s):
    """Index recipes of the cofactor expansion of an s x s determinant.

    Level r = 2, ..., s expands the minors of the last r rows along their
    top row, s - r.  Returns, per level, (s - r, terms): the r-subsets S of
    columns in lexicographic order, and for each position pos < r the pair
    (column S[pos] of every S, index of S without S[pos] among the
    (r-1)-subsets), so that minor(S) = sum_pos (-1)^pos a[s-r, S[pos]]
    minor(S without S[pos]).
    """
    levels = []
    prev = {(c,): c for c in range(s)}
    for r in range(2, s + 1):
        subsets = tuple(combinations(range(s), r))
        terms = tuple((np.array([S[pos] for S in subsets], dtype=np.intp),
                       np.array([prev[S[:pos] + S[pos + 1:]] for S in subsets],
                                dtype=np.intp))
                      for pos in range(r))
        levels.append((s - r, terms))
        prev = {S: i for i, S in enumerate(subsets)}
    return tuple(levels)


def _batched_det(M):
    """Exact determinants of an (N, s, s) int64 stack by cofactor expansion
    along rows from the bottom up: the minors of the last r rows on every
    r-subset of columns, from those of the last r-1 rows.  No division and
    no pivot search, so every matrix takes the same steps; only two levels
    of minors are alive at a time."""
    s = M.shape[1]
    M = np.ascontiguousarray(M.transpose(1, 2, 0))  # batch axis innermost
    minors = M[s - 1]
    for row, terms in _laplace_plan(s):
        a = M[row]
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
    return minors[0]


def _scan_range(args):
    n, p, lo, hi, want_rank, spot_stride = args
    size = 2 * n
    width0 = size - 1
    block = p ** width0
    m = n * width0
    pairs, avoid, forms = _plan(n)
    if want_rank and n > 1:
        # x % p != 0 for every value a row-0 form can take
        nonzero = np.arange(width0 * (p - 1) ** 2 + 1) % p != 0
    hist = np.zeros(p, dtype=np.int64)
    # ck[k-1] = #matrices with some nonzero 2k-sub-Pfaffian
    ck = np.zeros(n, dtype=np.int64)
    checked = 0
    violations = 0
    first_bad = None
    for h0, h1, r0, r1 in _slabs(lo, hi, block):
        row0 = np.array(_digits(np.arange(r0, r1, dtype=np.int64), p, width0))
        width = r1 - r0
        blocks = np.arange(h1 - h0)
        pf = _tail_pfaffians(
            _digits(np.arange(h0, h1, dtype=np.int64), p, m - width0),
            pairs, p, blocks.size)
        pf_raw = (_coefficients(forms[n][0], pf, p, blocks, width0)
                  @ row0).ravel()
        # counted over the slab's own value range, not all of [0, p), and
        # folded onto residues one run of p values at a time
        low = int(pf_raw.min())
        tally = np.bincount(pf_raw - low if low else pf_raw)
        pos = 0
        while pos < tally.size:
            r = (low + pos) % p
            take = min(p - r, tally.size - pos)
            hist[r:r + take] += tally[pos:pos + take]
            pos += take
        if want_rank:
            for k in range(1, n):
                tail_hit = np.zeros(blocks.size, dtype=bool)
                for s in avoid[k]:
                    tail_hit |= pf(s) != 0
                ck[k - 1] += int(tail_hit.sum()) * width
                rest = np.flatnonzero(~tail_hit)
                if rest.size:
                    hit = np.zeros((rest.size, width), dtype=bool)
                    for form in forms[k]:
                        hit |= nonzero[
                            _coefficients(form, pf, p, rest, width0) @ row0]
                    ck[k - 1] += int(hit.sum())
        if spot_stride:
            start = h0 * block + r0
            sel = np.arange(-(-start // spot_stride) * spot_stride,
                            start + pf_raw.size, spot_stride, dtype=np.int64)
            if sel.size:
                pfv = pf_raw[sel - start] % p
                det = _batched_det(_skew_stack(_digits(sel, p, m), size))
                bad = np.flatnonzero((det - pfv * pfv) % p)
                if bad.size and first_bad is None:
                    first_bad = int(sel[bad[0]])
                violations += int(bad.size)
                checked += int(sel.size)
    if want_rank:
        ck[n - 1] = hi - lo - int(hist[0])
    return {"hist": hist, "ck": ck, "checked": checked,
            "violations": violations, "first_bad": first_bad}


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
    rank.  Raises CapExceededError when p^(n(2n-1)) exceeds the cap or the
    scan's int64 arithmetic could overflow, and ConsistencyError, naming the
    lowest-index offender, when a sampled matrix fails Pf^2 = det.  At most
    min(workers, os.cpu_count(), ceil(p^(n(2n-1)) / _CHUNK)) worker
    processes are forked, so a scan that fits in one slab runs in-process.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if mode not in ("hist", "full"):
        raise ValueError(f"unknown scan mode {mode!r}")
    m = n * (2 * n - 1)
    total = p ** m
    cap = DEFAULT_CAP if cap is None else cap
    if total > cap:
        raise CapExceededError(
            f"enumeration of {total} = {p}^{m} matrices exceeds cap {cap}")
    _check_int64(n, p, total)
    want_rank = mode == "full"
    t0 = time.perf_counter()
    _plan(n)  # built before forking so workers inherit it
    procs = min(workers, os.cpu_count() or 1, -(-total // _CHUNK))
    args = [(n, p, lo, hi, want_rank, spot_stride)
            for lo, hi in _split_ranges(total, procs)]
    if len(args) == 1:
        parts = [_scan_range(args[0])]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(len(args)) as pool:
            parts = pool.map(_scan_range, args)
    hist = parts[0]["hist"]  # each histogram is O(p): merged in place
    for part in parts[1:]:
        hist += part.pop("hist")  # and freed as merged
    ck = sum(part["ck"] for part in parts)
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
    return ScanResult(n=n, p=p, total=total, pf_counts=pf_counts,
                      rank_counts=rank_counts, spot_checked=checked,
                      elapsed=time.perf_counter() - t0)


def gaussian_binomial(n, k):
    """The q-binomial coefficient [n choose k]_q as a polynomial in q = xy,
    computed by exact division of cyclotomic-style products."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = {0: 1}
    den = {0: 1}
    for i in range(1, k + 1):
        num = _u_mul(num, {0: 1, n - k + i: -1})
        den = _u_mul(den, {0: 1, i: -1})
    quot = _u_div_exact(num, den)
    return LaurentPoly2({(d, d): c for d, c in quot.items()})
