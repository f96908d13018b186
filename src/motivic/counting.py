"""Exhaustive finite-field point counts of skew-matrix loci, used as ground
truth against E-polynomial predictions evaluated at xy = p.

Matrices are enumerated by a mixed-radix integer index over the n(2n-1) free
upper-triangle entries; decoding an index range is the unit of work, so
scans parallelise over disjoint ranges and merge tallies by summation,
bit-identically for any worker count.  Ranks are read off from principal
Pfaffian minors (the rank of a skew matrix is the largest size of a nonzero
principal sub-Pfaffian), evaluated vectorially with numpy; a 1% stride
sample of every scan is re-checked against an independent integer
determinant (Pf^2 = det).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import CapExceededError, ConsistencyError
from .laurent import LaurentPoly2, _u_div_exact, _u_mul
from .skew import _is_prime, _pair_index, _pairings, bareiss_det

DEFAULT_CAP = 10 ** 8
SPOT_STRIDE = 100
_CHUNK = 1 << 17


@dataclass
class ScanResult:
    n: int
    p: int
    total: int
    pf_counts: dict
    rank_counts: dict | None
    spot_checked: int
    elapsed: float


@lru_cache(maxsize=None)
def _tables(n):
    """Pfaffian term tables for size 2n, as entry-index tuples."""
    size = 2 * n

    def terms_for(subset):
        return tuple(
            (sign, tuple(_pair_index(i, j, size) for (i, j) in pairs))
            for sign, pairs in _pairings(subset))

    pf_terms = terms_for(tuple(range(size)))
    minors = {k: tuple(terms_for(s) for s in combinations(range(size), 2 * k))
              for k in range(2, n)}
    return pf_terms, minors


def _eval_terms(E, terms):
    acc = None
    for sign, ts in terms:
        prod = E[ts[0]]
        for t in ts[1:]:
            prod = prod * E[t]
        if acc is None:
            acc = prod if sign > 0 else -prod
        elif sign > 0:
            acc = acc + prod
        else:
            acc = acc - prod
    return acc


def _lifted_det(digits, size):
    # signed integer lift: upper entries as stored, lower negated
    M = [[0] * size for _ in range(size)]
    t = 0
    for i in range(size):
        for j in range(i + 1, size):
            M[i][j] = digits[t]
            M[j][i] = -digits[t]
            t += 1
    return bareiss_det(M)


def _scan_range(args):
    n, p, lo, hi, want_rank, spot_stride = args
    size = 2 * n
    m = n * (2 * n - 1)
    pf_terms, minors = _tables(n)
    hist = np.zeros(p, dtype=np.int64)
    ck = [0] * n  # ck[k-1] = #matrices with some nonzero 2k-sub-Pfaffian
    checked = 0
    violations = 0
    pos = lo
    while pos < hi:
        top = min(pos + _CHUNK, hi)
        idx = np.arange(pos, top, dtype=np.int64)
        E = []
        rest = idx
        for _ in range(m):
            E.append(rest % p)
            rest = rest // p
        pf_mod = _eval_terms(E, pf_terms) % p
        hist += np.bincount(pf_mod, minlength=p)
        if want_rank:
            if n > 1:
                nz = E[0] != 0
                for t in range(1, m):
                    nz = nz | (E[t] != 0)
                ck[0] += int(nz.sum())
            for k in range(2, n):
                any_k = None
                for terms in minors[k]:
                    b = (_eval_terms(E, terms) % p) != 0
                    any_k = b if any_k is None else (any_k | b)
                ck[k - 1] += int(any_k.sum())
            ck[n - 1] += int((pf_mod != 0).sum())
        if spot_stride:
            sel = np.nonzero(idx % spot_stride == 0)[0]
            if sel.size:
                digs = np.stack([E[t][sel] for t in range(m)], axis=1).tolist()
                pfs = pf_mod[sel].tolist()
                for row, pfv in zip(digs, pfs):
                    det = _lifted_det(row, size)
                    if (det - pfv * pfv) % p:
                        violations += 1
                checked += int(sel.size)
        pos = top
    return {"hist": hist.tolist(), "ck": ck,
            "checked": checked, "violations": violations}


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
    rank.  Raises CapExceededError when p^(n(2n-1)) exceeds the cap.  At
    most os.cpu_count() worker processes are forked.
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
    want_rank = mode == "full"
    t0 = time.perf_counter()
    _tables(n)  # built before forking so workers inherit it
    args = [(n, p, lo, hi, want_rank, spot_stride)
            for lo, hi in _split_ranges(total,
                                        min(workers, os.cpu_count() or 1))]
    if len(args) == 1:
        parts = [_scan_range(args[0])]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(len(args)) as pool:
            parts = pool.map(_scan_range, args)
    hist = [0] * p
    ck = [0] * n
    checked = 0
    violations = 0
    for part in parts:
        hist = [a + b for a, b in zip(hist, part["hist"])]
        ck = [a + b for a, b in zip(ck, part["ck"])]
        checked += part["checked"]
        violations += part["violations"]
    if violations:
        raise ConsistencyError(
            f"Pf^2 = det failed on {violations} of {checked} sampled matrices")
    if sum(hist) != total:
        raise ConsistencyError("Pfaffian histogram does not sum to the scan size")
    pf_counts = {v: hist[v] for v in range(p)}
    rank_counts = None
    if want_rank:
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
