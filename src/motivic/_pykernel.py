"""The pure-Python kernel of `counting.scan_skew`, for small scans.

It runs the algorithm of `_kernel` (its docstring gives the index layout,
the two passes and the two checks) over Python lists and ints, with the
same contract: `_scan(n, p, spot_stride)` returns the same keys, the same
first failures and the same phases, with the histogram and the tail rank
tally as lists.  A scan of at most `counting.PURE_MAX` matrices takes it
while `_kernel` is not loaded, so a short `count` never imports numpy,
whose import takes several times such a scan.

It imports neither numpy nor `motivic.skew`: like `_kernel`, it is a
route apart from `skew.pfaffian` and `skew.bareiss_det`.  It reads the
index recipes `counting._plan` and `counting._laplace_plan` that
`_kernel` reads too.

A scan it takes has at most 1024 tails (2^10 at (3, 2), 7^3 at (2, 7)),
so it holds them all at once, as `_kernel` holds a run: a stack is a
square list of rows whose entries are lists, one value per tail, and each
step is a list comprehension over the tails.  The tail pass decodes the
tails into one stack, memoises their sub-Pfaffians mod p, tallies their
Pfaffian coefficient vectors by base-p id and their ranks by their
principal sub-Pfaffians.  The tail check compares adj(B) with c c^T mod p
on all (2n-1)^2 entries, one column of adj(B) at a time, from the
division-free maximal minors of B without one row; the pointwise sample
decodes each matrix at a multiple of `spot_stride` afresh, takes its
Pfaffian as its tail's vector, decoded from the id, times its row-0
digits, and its determinant by the same cofactor expansion.  The class
pass multiplies each distinct vector by every row-0 value, brute force,
in tables that cut the top row-0 digit into ranges, each of at most
max(`_TABLE`, p^(2n-2)) row-0 values, tallies the unreduced products
of vectors of equal multiplicity together and folds the tally onto the
residues mod p.  Ints are exact, so there is no lane to choose.
"""

import time
from collections import Counter
from itertools import combinations, repeat
from operator import add, mod, mul, sub

from .counting import PHASES, _laplace_plan, _plan

# row-0 values per class table, where p^(2n-2) allows: an n = 1 scan's one
# vector meets all p of them, so the tables, not p, bound its temporaries
_TABLE = 1 << 12
_SAMPLE_BATCH = 2048


def _skew_stack(values, p, size):
    """The size x size skew matrices whose upper triangles, in row-major
    order, are the least significant base-p digits of the ints `values`,
    as a stack: upper entries the digits, lower entries their negatives."""
    zero = [0] * len(values)
    M = [[zero] * size for _ in range(size)]
    for i, j in combinations(range(size), 2):
        M[i][j] = [v % p for v in values]
        M[j][i] = [-d for d in M[i][j]]
        values = [v // p for v in values]
    return M


class _TailMemo(dict):
    """Sub-Pfaffians mod p of a stack of tails B, keyed by the tuple of B's
    rows, one value per tail; the first-row recursion, memoised, as in
    `_kernel`."""

    def __init__(self, B, p):
        super().__init__({(): [1] * len(B[0][0])})
        self.B, self.p = B, p

    def __missing__(self, s):
        row = self.B[s[0]]
        acc = None
        for pos, j in enumerate(s[1:]):
            term = list(map(mul, row[j], self[s[1:pos + 1] + s[pos + 2:]]))
            acc = term if acc is None else list(
                map(sub if pos % 2 else add, acc, term))
        p = self.p
        value = self[s] = [x % p for x in acc]
        return value


def _coefficients(form, pf, p):
    """Row-0 coefficients mod p of the Pfaffian form, from the memo `pf`, a
    list per coefficient with one value per tail."""
    return [pf[s] if sign > 0 else [-x % p for x in pf[s]]
            for sign, s in form]


def _ids(coeff, p):
    """The base-p ids of the tails' coefficient vectors, coefficient k the
    digit of p^k: the layout `_vector` decodes."""
    ids = [0] * len(coeff[0])
    for c in reversed(coeff):
        ids = [v * p + x for v, x in zip(ids, c)]
    return ids


def _vector(value, p, width0):
    """The coefficient vector with this base-p id."""
    out = []
    for _ in range(width0):
        value, digit = divmod(value, p)
        out.append(digit)
    return out


def _products(vector, row0):
    """The unreduced products c . x of a coefficient vector with every row-0
    digit vector x whose k-th digit is drawn from `row0[k]`, the lowest
    digit fastest."""
    out = [0]
    for c, digits in zip(vector, row0):
        terms = [c * d for d in digits]
        out = [t + v for t in terms for v in out]
    return out


def _extend(a, minors, r):
    """The maximal minors of the stack row `a` put on top of r - 1 rows
    whose maximal minors are `minors`, one per r-subset of columns in
    lexicographic order, by cofactor expansion along `a`: no division and
    no pivot search, as `_kernel._extend`."""
    if r == 1:
        return a
    # each minor as a chain of lazy maps over the tails, listed once
    (cols, subs), *rest = _laplace_plan(r, len(a))
    acc = [map(mul, a[c], minors[s]) for c, s in zip(cols, subs)]
    for pos, (cols, subs) in enumerate(rest, 1):
        op = sub if pos % 2 else add
        acc = [map(op, x, map(mul, a[c], minors[s]))
               for x, c, s in zip(acc, cols, subs)]
    return [list(x) for x in acc]


def _batched_det(M):
    """Exact determinants of a stack, one per matrix: the minors of the
    last r rows from those of the last r - 1, bottom up."""
    s = len(M)
    minors = None
    for r in range(1, s + 1):
        minors = _extend(M[s - r], minors, r)
    return minors[0]


def _adjugate_columns(B):
    """Yield (j, adj(B)[:, j]) for j = w-1, ..., 0 of a w x w stack: column
    j from the maximal minors of B without row j, the minors of the rows
    below j kept from column to column, as `_kernel._adjugate_columns`."""
    w = len(B)
    suffix = [[1] * len(B[0][0])]  # minors of rows j+1, ...
    for j in range(w - 1, -1, -1):
        minors = suffix
        for row in range(j - 1, -1, -1):
            minors = _extend(B[row], minors, w - 1 - row)
        # the (w-1)-subset of columns at lexicographic position k omits
        # column w-1-k
        column = minors[::-1]
        for i in range((j + 1) % 2, w, 2):
            column[i] = [-x for x in column[i]]
        yield j, column
        if j:
            suffix = _extend(B[j], suffix, w - j)


def _tail_check(B, coeff, p):
    """Check adj(B) = c c^T mod p for each tail of the stack B, c its
    coefficients, one column of adj(B) at a time.  Returns the number of
    failing tails and, for the first, (its index, i, j, adj(B)[i, j],
    c_i c_j mod p) at its first failing entry in row-major order."""
    failing = set()
    first = None
    for j, column in _adjugate_columns(B):
        cj = coeff[j]
        for i, (a, ci) in enumerate(zip(column, coeff)):
            bad = [t for t, x in enumerate(
                map(mod, map(sub, a, map(mul, ci, cj)), repeat(p))) if x]
            if not bad:
                continue
            failing.update(bad)
            t = bad[0]
            if first is None or (t, i, j) < first[:3]:
                first = (t, i, j, a[t], ci[t] * cj[t] % p)
    return len(failing), first


def _spot_check(n, p, ids, spot_stride):
    """Pf^2 = det on every matrix whose index is a multiple of
    `spot_stride`, with Pf by the class pass's route: the tail's vector,
    decoded from its id in `ids`, times the sample's row-0 digits.  Returns
    (matrices checked, failures, the lowest failing index or None)."""
    size = 2 * n
    width0 = size - 1
    block = p ** width0
    end = len(ids) * block
    checked = violations = 0
    first_bad = None
    step = spot_stride * _SAMPLE_BATCH
    for b0 in range(0, end, step):
        sel = range(b0, min(b0 + step, end), spot_stride)
        M = _skew_stack(sel, p, size)
        det = _batched_det(M)
        for k, index in enumerate(sel):
            row0 = [[x[k]] for x in M[0][1:]]
            pf = _products(_vector(ids[index // block], p, width0),
                           row0)[0] % p
            if (det[k] - pf * pf) % p:
                violations += 1
                if first_bad is None:
                    first_bad = index
        checked += len(sel)
    return checked, violations, first_bad


def _scan(n, p, spot_stride):
    """Scan every tail, each with all its row-0 values."""
    t0 = time.perf_counter()
    width0 = 2 * n - 1
    tails = p ** ((n - 1) * width0)
    avoid, pfaffian = _plan(n)
    phases = dict.fromkeys(PHASES, 0.0)

    # tail pass: the tally of the tails' Pfaffian coefficient vectors, by
    # base-p id, and the number of tails of each rank 2r
    B = _skew_stack(range(tails), p, width0)
    pf = _TailMemo(B, p)
    coeff = _coefficients(pfaffian, pf, p)
    ids = _ids(coeff, p)
    # the largest k with a nonzero 2k-sub-Pfaffian, or 0
    rank = [0] * tails
    for k in range(1, n):
        for s in avoid[k]:
            for t, x in enumerate(pf[s]):
                if x:
                    rank[t] = k
    tail_ranks = [rank.count(k) for k in range(n)]
    t = time.perf_counter()
    tail_violations, first_tail_bad = _tail_check(B, coeff, p)
    u = time.perf_counter()
    phases["tail_check"] = u - t
    checked, violations, first_bad = (
        _spot_check(n, p, ids, spot_stride) if spot_stride else (0, 0, None))
    t = time.perf_counter()
    phases["spot_check"] = t - u
    phases["tail_pass"] = (t - t0 - phases["tail_check"]
                           - phases["spot_check"])

    # class pass: each distinct vector times every row-0 value, in tables of
    # p^(2n-2) row-0 values times a range of the top digit
    groups = {}
    for tail_id, mu in Counter(ids).items():
        groups.setdefault(mu, []).append(tail_id)
    hist = [0] * p
    lower = [range(p)] * (width0 - 1)
    step = max(1, _TABLE // p ** (width0 - 1))
    for top in range(0, p, step):
        row0 = lower + [range(top, min(top + step, p))]
        for mu, group in groups.items():
            # tallied unreduced, then folded onto the residues mod p
            tally = Counter()
            for tail_id in group:
                tally.update(_products(_vector(tail_id, p, width0), row0))
            for value, count in tally.items():
                hist[value % p] += count * mu
    phases["pfaffian_classes"] = time.perf_counter() - t
    return {"hist": hist, "tail_ranks": tail_ranks, "checked": checked,
            "violations": violations, "first_bad": first_bad,
            "tail_violations": tail_violations,
            "first_tail_bad": first_tail_bad,
            "phases": phases}
