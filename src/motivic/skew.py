"""Skew-symmetric matrix algebra over the integers or a prime field:
Pfaffians by first-row expansion, exact rank by Gaussian elimination,
rank-stratum dimensions and the determinant equivariance identity.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from ._record import FrozenRecord
from .errors import ParseError


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class CoeffDomain(FrozenRecord):
    """Coefficient domain: a prime field F_p, or the integers when p is None."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    @property
    def is_field(self):
        return self.p is not None

    def normalize(self, v):
        return v % self.p if self.p is not None else v

    def normalize_all(self, values):
        """`normalize` of each value, as a list."""
        p = self.p
        return [v % p for v in values] if p is not None else list(values)


INTEGERS = CoeffDomain()


def GF(p):
    return CoeffDomain(p)


class SkewMatrix:
    """Skew-symmetric matrix of even size, stored as its strict upper
    triangle in row-major order; the lower triangle is implied by
    antisymmetry and the diagonal is zero."""

    __slots__ = ("size", "upper", "domain")

    def __init__(self, size, upper, domain=INTEGERS):
        if size < 2 or size % 2:
            raise ValueError(f"size must be even and >= 2, got {size}")
        upper = tuple(domain.normalize_all(map(operator.index, upper)))
        want = size * (size - 1) // 2
        if len(upper) != want:
            raise ValueError(
                f"expected {want} upper-triangle entries, got {len(upper)}")
        self.size = size
        self.upper = upper
        self.domain = domain

    @classmethod
    def from_full(cls, rows, domain=INTEGERS):
        size = len(rows)
        for i in range(size):
            if len(rows[i]) != size:
                raise ValueError("matrix is not square")
            if domain.normalize(rows[i][i]) != 0:
                raise ValueError("diagonal entry is nonzero")
            for j in range(i):
                if domain.normalize(rows[i][j] + rows[j][i]) != 0:
                    raise ValueError("matrix is not skew-symmetric")
        upper = [rows[i][j] for i in range(size) for j in range(i + 1, size)]
        return cls(size, upper, domain)

    @classmethod
    def zero(cls, size, domain=INTEGERS):
        return cls(size, [0] * (size * (size - 1) // 2), domain)

    @classmethod
    def standard_rank(cls, n, k, domain=INTEGERS):
        """The standard 2n x 2n matrix of rank 2k: identity blocks in the
        (i, n+i) positions for i < k, zero elsewhere."""
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        size = 2 * n
        rows = [[0] * size for _ in range(size)]
        for i in range(k):
            rows[i][n + i] = 1
            rows[n + i][i] = -1
        return cls.from_full(rows, domain)

    def entry(self, i, j):
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError(f"entry ({i}, {j}) of a {self.size}x{self.size} "
                             f"matrix")
        if i == j:
            return 0
        if i < j:
            return self.upper[_pair_index(i, j, self.size)]
        return self.domain.normalize(-self.upper[_pair_index(j, i, self.size)])

    def full(self):
        size = self.size
        rows = [[0] * size for _ in range(size)]
        upper = iter(self.upper)
        lower = iter(self.domain.normalize_all([-v for v in self.upper]))
        for i, row in enumerate(rows):
            for j in range(i + 1, size):
                row[j] = next(upper)
                rows[j][i] = next(lower)
        return rows

    def __eq__(self, other):
        if isinstance(other, SkewMatrix):
            return (self.size == other.size and self.upper == other.upper
                    and self.domain == other.domain)
        return NotImplemented

    def __repr__(self):
        return f"skew{self.size} [{','.join(str(v) for v in self.upper)}]"


def _pair_index(i, j, size):
    # row-major position of (i, j), i < j, in the strict upper triangle
    return i * (2 * size - i - 3) // 2 + j - 1


def parse_skew_literal(text, domain=INTEGERS):
    """Parse the test literal format, e.g. ``skew6 [0,1,0,1,0, 1,0,0,0, 1,0,0, 0,1, 0]``."""
    s = text.strip()
    if not s.startswith("skew"):
        raise ParseError("expected 'skew<size>' prefix", 1, 1)
    head, _, rest = s.partition("[")
    if not rest.endswith("]"):
        raise ParseError("expected closing ']'", 1, len(s))
    try:
        size = int(head[4:].strip())
    except ValueError:
        raise ParseError("bad size in 'skew<size>'", 1, 5) from None
    body = rest[:-1].strip()
    entries = [int(v) for v in body.split(",")] if body else []
    return SkewMatrix(size, entries, domain)


# -- Pfaffian ------------------------------------------------------------------

def pfaffian(A):
    """Pfaffian as the sum over the pairings of {0, ..., size-1}:

        Pf(A) = sum over pairings P of sign(P) * prod_{(i, j) in P} a_ij

    with i < j in each pair, normalised so that the 4x4 matrix with upper
    entries (a,b,c,d,e,f) yields a*f - b*e + c*d.
    """
    upper = A.upper
    total = 0
    for sign, slots in _upper_terms(A.size):
        term = sign
        for s in slots:
            term *= upper[s]
        total += term
    return A.domain.normalize(total)


@lru_cache(maxsize=None)
def _upper_terms(size):
    # each pairing as (sign, positions of its pairs in the upper triangle)
    return tuple((sign, tuple(_pair_index(i, j, size) for i, j in pairs))
                 for sign, pairs in pfaffian_pairings(size))


@lru_cache(maxsize=None)
def pfaffian_pairings(size):
    """All (sign, pairing) terms of the size x size Pfaffian, by the
    first-row recursion Pf = sum_j (-1)^(j-1) a_0j Pf(without 0, j); each
    pair (i, j) has i < j.  There are (size-1)!! terms for even size."""
    return _pairings(tuple(range(size)))


def _pairings(idx):
    if not idx:
        return ((1, ()),)
    i0 = idx[0]
    rest = idx[1:]
    out = []
    for pos, j in enumerate(rest):
        sign = 1 if pos % 2 == 0 else -1
        sub = rest[:pos] + rest[pos + 1:]
        for s2, pairs in _pairings(sub):
            out.append((sign * s2, ((i0, j),) + pairs))
    return tuple(out)


# -- rank and dimensions ---------------------------------------------------------

def skew_rank(A):
    """Rank over a prime field, by Gaussian elimination.  Always even for a
    skew-symmetric matrix."""
    if not A.domain.is_field:
        raise ValueError("rank requires a field domain")
    p = A.domain.p
    M = A.full()
    size = A.size
    rank = 0
    for col in range(size):
        pivot = None
        for r in range(rank, size):
            if M[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = pow(M[rank][col], -1, p)
        M[rank] = [(v * inv) % p for v in M[rank]]
        for r in range(rank + 1, size):
            f = M[r][col] % p
            if f:
                M[r] = [(v - f * w) % p for v, w in zip(M[r], M[rank])]
        rank += 1
    return rank


def stratum_dim(n, k):
    """Dimension of the closure of the rank-2k stratum in the space of
    2n x 2n skew matrices: k*(4n - 2k - 1)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return k * (4 * n - 2 * k - 1)


# -- determinants and equivariance ------------------------------------------------

def bareiss_det(rows):
    """Exact integer determinant by fraction-free Gaussian elimination;
    the empty matrix has determinant 1."""
    n = len(rows)
    M = [list(map(operator.index, r)) for r in rows]
    if any(len(r) != n for r in M):
        raise ValueError("matrix is not square")
    if not n:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = None
            for r in range(k + 1, n):
                if M[r][k]:
                    swap = r
                    break
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        top = M[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = M[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * top[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * M[n - 1][n - 1]


def mat_det(rows, domain=INTEGERS):
    """Determinant over the domain: the exact integer determinant, reduced
    mod p over F_p."""
    return domain.normalize(bareiss_det(rows))


def _mat_mul(A, B, domain):
    cols = list(zip(*B))
    return [[domain.normalize(sum(map(operator.mul, row, col)))
             for col in cols] for row in A]


def check_equivariance(A, g):
    """True iff Pf(g A g^t) = det(g) * Pf(A) exactly over A's domain."""
    size = A.size
    if len(g) != size or any(len(row) != size for row in g):
        raise ValueError(f"g must be {size} x {size}")
    domain = A.domain
    dg = mat_det(g, domain)
    if dg == 0:
        raise ValueError("g is not invertible over the domain")
    gt = [[g[j][i] for j in range(size)] for i in range(size)]
    B = _mat_mul(_mat_mul(g, A.full(), domain), gt, domain)
    conj = SkewMatrix.from_full(B, domain)
    return pfaffian(conj) == domain.normalize(dg * pfaffian(A))
