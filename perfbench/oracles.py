"""Correctness oracles the benchmark computes on its own, independently of
the `motivic` code under test.

Everything here is exact integer arithmetic written from the
textbook formulas; none of it imports `motivic`.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

# sha256 of `motivic report --format json --workers 1` (all six suites,
# p in {2, 3}) at the commit that introduced this benchmark.
GOLDEN_REPORT_SHA256 = (
    "a299071cc34c4a9f590cb191ff23c2a6d0f03d20ac83543d3bac65350cb510b7")


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# -- skew matrices over F_q (Carlitz) ----------------------------------------------

def carlitz_rank_count(size, rank, q):
    """Number of size x size alternating matrices of rank `rank` over F_q:

        q^(k(k-1)) * prod_{i<2k} (q^(size-i) - 1) / prod_{i=1..k} (q^(2i) - 1)

    with rank = 2k (Carlitz 1954).  Odd ranks do not occur.
    """
    if rank % 2 or not 0 <= rank <= size:
        return 0
    k = rank // 2
    num = q ** (k * (k - 1))
    for i in range(2 * k):
        num *= q ** (size - i) - 1
    den = 1
    for i in range(1, k + 1):
        den *= q ** (2 * i) - 1
    assert num % den == 0
    return num // den


def skew_space_size(n, q):
    """q^m with m = n(2n-1), the number of 2n x 2n skew matrices over F_q."""
    return q ** (n * (2 * n - 1))


def pf_fibre_count(n, q, c):
    """#{A : Pf(A) = c}: the full-rank matrices split evenly over the q-1
    nonzero values, and Pf = 0 is everything else."""
    full = carlitz_rank_count(2 * n, 2 * n, q)
    if c % q:
        return full // (q - 1)
    return skew_space_size(n, q) - full


# -- plane partitions and partition statistics ------------------------------------

@lru_cache(maxsize=None)
def macmahon_count(m):
    """Number of plane partitions of m, by the MacMahon recurrence
    m * PL(m) = sum_{k=1..m} PL(m-k) * sigma_2(k)."""
    if m == 0:
        return 1
    total = 0
    for k in range(1, m + 1):
        sigma2 = sum(d * d for d in range(1, k + 1) if k % d == 0)
        total += macmahon_count(m - k) * sigma2
    assert total % m == 0
    return total // m


@lru_cache(maxsize=None)
def partitions_by_length(n, k):
    """Number of partitions of n into exactly k parts."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    # either a part equals 1 (remove it), or subtract 1 from every part
    return partitions_by_length(n - 1, k - 1) + partitions_by_length(n - k, k)


def goettsche_terms(n):
    """sum over partitions lambda of n of q^(n + len(lambda)), as a map
    {q-exponent: coefficient}."""
    if n == 0:
        return {0: 1}
    return {n + k: partitions_by_length(n, k) for k in range(1, n + 1)
            if partitions_by_length(n, k)}


# -- point counts of space-expression leaves ---------------------------------------

def gaussian_binomial_at(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gl_count(m, q):
    out = 1
    for i in range(m):
        out *= q ** m - q ** i
    return out


def sp_count(m, q):
    n = m // 2
    out = q ** (n * n)
    for i in range(1, n + 1):
        out *= q ** (2 * i) - 1
    return out


def leaf_count(name, args, q):
    """#X(F_q) for a catalog leaf; equals E_c(X) at xy = q because every
    leaf is polynomial-count."""
    if name == "point":
        return 1
    if name == "torus":
        return q - 1
    if name == "affine":
        return q ** args[0]
    if name == "proj":
        return sum(q ** i for i in range(args[0] + 1))
    if name == "grass":
        return gaussian_binomial_at(args[1], args[0], q)
    if name == "gl":
        return gl_count(args[0], q)
    if name == "sp":
        return sp_count(args[0], q)
    if name == "homM":
        return carlitz_rank_count(2 * args[0], 2 * args[0], q)
    if name == "milnorF":
        return carlitz_rank_count(2 * args[0], 2 * args[0], q) // (q - 1)
    if name == "pfhyp":
        n = args[0]
        return skew_space_size(n, q) - carlitz_rank_count(2 * n, 2 * n, q)
    if name == "cone":
        k, n = args
        return 1 + (q - 1) * gaussian_binomial_at(n, k, q)
    raise KeyError(name)
