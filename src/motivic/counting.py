"""Exhaustive finite-field point counts of skew-matrix loci, used as ground
truth against E-polynomial predictions evaluated at xy = p.

This module admits a scan, makes one call of one of two kernels, which
walks every tail in the calling thread, and checks what it returns; the
scan's phases are the kernel's.  The two kernels run one algorithm (the
`_kernel` docstring gives it and its two checks) and return the same
fields: `_kernel._scan` over numpy arrays, and `_pykernel._scan` over
Python lists and ints, which imports no numpy.  A scan of at most
`PURE_MAX` matrices takes the pure kernel unless `_kernel` is already
loaded: there the import of numpy, about 60 ms, costs more than the scan.
Larger scans, and every scan once numpy's kernel is loaded, take
`_kernel`.  Both read the index recipes `_plan` and `_laplace_plan` from
here.  Every scan counts both the Pfaffian values and the ranks.  The
kernel returns a tally of the tails by rank, and the rank buckets are
built here, in Python ints, from that tally: a tail of rank 2r heads
p^(2r) matrices of rank 2r and the other p^(2n-1) - p^(2r) of its block
have rank 2r + 2.

A scan runs in the calling thread alone, whatever `workers` bound its
caller passes: the kernel's many short numpy calls hold the GIL, and no
measured shape gained from a second thread.

Admission takes one rule per resource: the cap, at most `SCAN_MAX`, for
the work, `HIST_MAX` for memory, primality for the field.  No scan can
overflow int64 in the numpy kernel (the pure kernel's ints are exact):
its index is below SCAN_MAX, and each term and partial sum of the checks'
cofactor expansions, an r x r minor with entries at most p-1 in size, is
within twice the square of the order-(2n-1) Hadamard bound, which first
passes int64 at (n, p) = (2, 751), as the index does at (3, 19);
SCAN_MAX admits p <= 53, 5 and 2 at n = 2, 3, 4 (a test checks).
"""

from __future__ import annotations

import sys
import time
from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations

from ._record import Record
from .errors import CapExceededError, ConsistencyError
from .skew import SkewMatrix, _is_prime

DEFAULT_CAP = 10 ** 8
# a prime: a stride divisible by p would leave the lowest row-0 digits of
# every sample zero
SPOT_STRIDE = 1009
# the hard maximum cap, in matrices: the slowest shape it admits, (2, 53),
# scanned its 53^6 matrices in 145 s on one core of a 2-core x86 host
SCAN_MAX = 1 << 35
# the most entries of a scan's p-long Pfaffian histogram, 128 MiB of int64
HIST_MAX = 1 << 24
# the most matrices of a scan that the pure-Python kernel takes, when numpy's
# is not loaded: on a 2-core x86 host every such scan took at most 30 ms in
# pure Python ((3, 2) 20 ms, p = 2^17 - 1 at n = 1 27 ms), and `import numpy`
# 55-65 ms; above it (2, 11) took 0.14 s, against 9 ms in numpy
PURE_MAX = 1 << 17
PHASES = ("tail_pass", "tail_check", "pfaffian_classes", "spot_check")


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


@lru_cache(maxsize=None)
def _laplace_plan(r, cols):
    """Index recipes of one level of the cofactor expansion of maximal
    minors over `cols` columns: the minors of r rows from those of the r - 1
    rows beneath their top row.

    For the r-subsets S of columns in lexicographic order, returns for each
    position pos < r the pair (column S[pos] of every S, index of S without
    S[pos] among the (r-1)-subsets), two tuples, so that minor(S) =
    sum_pos (-1)^pos a[top, S[pos]] minor(S without S[pos]).
    """
    prev = {S: i for i, S in enumerate(combinations(range(cols), r - 1))}
    subsets = tuple(combinations(range(cols), r))
    return tuple((tuple(S[pos] for S in subsets),
                  tuple(prev[S[:pos] + S[pos + 1:]] for S in subsets))
                 for pos in range(r))


class PfCounts(Mapping):
    """Read-only map from each value v in [0, p) to #{Pf = v}, held as the
    kernel's counts, an int64 array from `_kernel` or a list from
    `_pykernel`, and read as Python ints; it compares equal to the dict
    with the same items."""

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


class ScanResult(Record):
    __slots__ = ("n", "p", "total", "pf_counts", "rank_counts",
                 "spot_checked", "tails_checked", "elapsed", "phases")

    def __init__(self, n, p, total, pf_counts, rank_counts, spot_checked,
                 tails_checked, elapsed, phases):
        self.n = n
        self.p = p
        self.total = total
        self.pf_counts = pf_counts          # a PfCounts
        self.rank_counts = rank_counts
        self.spot_checked = spot_checked
        self.tails_checked = tails_checked
        self.elapsed = elapsed
        self.phases = phases                # seconds per phase (PHASES)


def check_cap(cap):
    """Refuse a scan cap above SCAN_MAX with CapExceededError."""
    if cap > SCAN_MAX:
        raise CapExceededError(
            f"scan cap {cap} exceeds the hard maximum of {SCAN_MAX} matrices")


def _exceeds_cap(p, m, cap):
    """Whether an enumeration of p^m matrices exceeds the cap.  p^m >=
    2^(m (bits(p) - 1)), so the first test answers without building p^m
    whenever that power has more bits than the cap."""
    return m * (p.bit_length() - 1) >= cap.bit_length() or p ** m > cap


def _matrix_at(n, p, index):
    """The 2n x 2n skew matrix over F_p at a scan index."""
    return SkewMatrix(2 * n, [index // p ** t % p
                              for t in range(n * (2 * n - 1))])


def _power_text(p, m):
    """p^m for a message, expanded only when it is below 2^256, so that no
    huge power is built or converted to decimal."""
    if m * p.bit_length() > 256:
        return f"{p}^{m}"
    return f"{p ** m} = {p}^{m}"


def _kernel_for(total):
    """The kernel module of a scan of `total` matrices: `_pykernel` up to
    PURE_MAX unless `_kernel` is already loaded, else `_kernel`, imported
    here (and numpy with it) at its first use."""
    if total <= PURE_MAX and f"{__package__}._kernel" not in sys.modules:
        from . import _pykernel
        return _pykernel
    from . import _kernel
    return _kernel


def scan_skew(n, p, mode="full", cap=DEFAULT_CAP, workers=1,
              spot_stride=SPOT_STRIDE):
    """Scan all 2n x 2n skew matrices over F_p, tallying them by Pfaffian
    value and bucketing them by rank.

    Raises CapExceededError when `cap`, an int count of matrices that
    defaults to DEFAULT_CAP = 10^8, exceeds SCAN_MAX, when p^(n(2n-1))
    exceeds `cap` or when p exceeds HIST_MAX, and ConsistencyError when a
    tail fails adj(B) = c c^T (naming the lowest such block), a sampled
    matrix fails Pf^2 = det (naming the lowest-index offender), the tail
    rank tally does not count each of the p^((n-1)(2n-1)) tails once, or
    the rank-2n bucket differs from #{Pf != 0}.  The cap and HIST_MAX are
    tested before p is tested for primality.  `mode` must be "hist" or
    "full" and `workers` is any bound, but neither changes the scan, which
    runs every count and check in the calling thread: both are kept
    because `perfbench/probe.py` passes them, and `perfbench/tracer.py`
    binds `workers` by name.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if mode not in ("hist", "full"):
        raise ValueError(f"unknown scan mode {mode!r}")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    check_cap(cap)
    m = n * (2 * n - 1)
    if _exceeds_cap(p, m, cap):
        raise CapExceededError(
            f"enumeration of {_power_text(p, m)} matrices exceeds cap {cap}")
    if p > HIST_MAX:
        raise CapExceededError(
            f"a scan over F_{p} would hold a {p}-entry Pfaffian histogram, "
            f"above the limit of {HIST_MAX}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = p ** m
    # the kernel (and numpy with `_kernel`) loads here, before the clock
    # starts, so that the scan's clocks time the scan alone
    kernel = _kernel_for(total)
    t0 = time.perf_counter()
    part = kernel._scan(n, p, spot_stride)
    block = p ** (2 * n - 1)
    tails = p ** ((n - 1) * (2 * n - 1))
    hist = part["hist"]
    tail_violations = part["tail_violations"]
    if tail_violations:
        h, i, j, a, b = part["first_tail_bad"]
        first = h * block
        raise ConsistencyError(
            f"adj(B) = c c^T failed on {tail_violations} of {tails} tails; "
            f"the first is the block at index {first} at (n, p) = "
            f"({n}, {p}), whose matrix B without row and column 0 has "
            f"adj(B)[{i}, {j}] = {a} but c_{i} c_{j} = {b} mod {p}: "
            f"{_matrix_at(n, p, first)!r}")
    checked = part["checked"]
    violations = part["violations"]
    if violations:
        first = part["first_bad"]
        raise ConsistencyError(
            f"Pf^2 = det failed on {violations} of {checked} sampled "
            f"matrices; the first is index {first} at (n, p) = ({n}, {p}): "
            f"{_matrix_at(n, p, first)!r}")
    # an int64 array from `_kernel`, a list from `_pykernel`
    seen = sum(hist) if isinstance(hist, list) else int(hist.sum())
    if seen != total:
        raise ConsistencyError("Pfaffian histogram does not sum to the scan size")
    tail_ranks = [int(count) for count in part["tail_ranks"]]
    if sum(tail_ranks) != tails:
        raise ConsistencyError(
            f"the tail rank tally {tail_ranks} sums to {sum(tail_ranks)}, "
            f"not to the {tails} tails checked at (n, p) = ({n}, {p})")
    # a tail of rank 2r heads p^(2r) matrices of rank 2r and the rest of its
    # block has rank 2r + 2 (the lemma in `_kernel`)
    rank_counts = dict.fromkeys(range(0, 2 * n + 1, 2), 0)
    for r, count in enumerate(tail_ranks):
        rank_counts[2 * r] += count * p ** (2 * r)
        rank_counts[2 * r + 2] += count * (block - p ** (2 * r))
    # Both sides read the tail's (2n-2)-sub-Pfaffians, the Pfaffian's
    # coefficients: the tally counts the tails where one is nonzero, the
    # histogram multiplies them by row 0.  So this checks the class pass
    # (products, unreduced tally, `_fold`), not the memo that both read,
    # which the tail check covers.
    nonzero = total - int(hist[0])
    if rank_counts[2 * n] != nonzero:
        raise ConsistencyError(
            f"the rank-{2 * n} bucket holds {rank_counts[2 * n]} matrices "
            f"but #{{Pf != 0}} = {nonzero} at (n, p) = ({n}, {p})")
    return ScanResult(n=n, p=p, total=total, pf_counts=PfCounts(hist),
                      rank_counts=rank_counts, spot_checked=checked,
                      tails_checked=tails,
                      elapsed=time.perf_counter() - t0,
                      phases=part["phases"])
