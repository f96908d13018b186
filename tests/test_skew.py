import random
from fractions import Fraction
from itertools import product

import pytest

from motivic.errors import ParseError
from motivic.skew import (GF, INTEGERS, CoeffDomain, SkewMatrix, bareiss_det,
                          check_equivariance, mat_det, parse_skew_literal,
                          pfaffian, pfaffian_pairings, skew_rank, stratum_dim)

rng = random.Random(55721)


def random_skew(size, lo=-3, hi=3, domain=INTEGERS):
    m = size * (size - 1) // 2
    return SkewMatrix(size, [rng.randint(lo, hi) for _ in range(m)], domain)


def test_domain_validation():
    with pytest.raises(ValueError):
        CoeffDomain(4)
    assert GF(5).normalize(-1) == 4
    assert INTEGERS.normalize(-1) == -1
    assert GF(5).normalize_all((-1, 7, 0)) == [4, 2, 0]
    assert INTEGERS.normalize_all((-1, 7)) == [-1, 7]


def test_matrix_construction():
    A = SkewMatrix(4, (1, 2, 3, 4, 5, 6))
    assert A.entry(0, 1) == 1 and A.entry(1, 0) == -1
    assert A.entry(2, 3) == 6 and A.entry(3, 3) == 0
    full = A.full()
    assert all(full[i][j] == -full[j][i] for i in range(4) for j in range(4))
    assert SkewMatrix.from_full(full) == A
    B = SkewMatrix(4, (1, -2, 3, 0, 9, 4), GF(5))
    assert B.full() == [[B.entry(i, j) for j in range(4)] for i in range(4)]
    assert B.full()[1][0] == 4 and B.full()[2][0] == 2
    with pytest.raises(ValueError):
        SkewMatrix(3, (1, 2, 3))
    with pytest.raises(ValueError):
        SkewMatrix(4, (1, 2, 3))
    with pytest.raises(ValueError):
        SkewMatrix.from_full([[0, 1], [1, 0]])


def test_entry_count_matches_dimension_formula():
    for n in (1, 2, 3, 4):
        A = SkewMatrix.zero(2 * n)
        assert len(A.upper) == n * (2 * n - 1) == sum(range(1, 2 * n))


def test_pfaffian_4x4_symbol_pattern():
    # af - be + cd on every assignment over F_3
    for a, b, c, d, e, f in product(range(3), repeat=6):
        A = SkewMatrix(4, (a, b, c, d, e, f), GF(3))
        assert pfaffian(A) == (a * f - b * e + c * d) % 3
    # and over the integers on random entries
    for _ in range(50):
        a, b, c, d, e, f = (rng.randint(-9, 9) for _ in range(6))
        A = SkewMatrix(4, (a, b, c, d, e, f))
        assert pfaffian(A) == a * f - b * e + c * d


def test_pfaffian_trivial_cases():
    for size in (2, 4, 6, 8):
        assert pfaffian(SkewMatrix.zero(size)) == 0
    assert pfaffian(SkewMatrix(2, (7,))) == 7


def test_pfaffian_standard_matrices():
    # sign of the full-rank standard matrix is a regression constant
    vals = [pfaffian(SkewMatrix.standard_rank(3, k)) for k in range(4)]
    assert vals == [0, 0, 0, -1]
    assert pfaffian(SkewMatrix.standard_rank(1, 1)) == 1
    assert pfaffian(SkewMatrix.standard_rank(2, 2)) == -1


def test_pfaffian_squares_to_det_exhaustive_4x4():
    for p in (2, 3):
        dom = GF(p)
        for entries in product(range(p), repeat=6):
            A = SkewMatrix(4, entries, dom)
            assert pfaffian(A) ** 2 % p == mat_det(A.full(), dom)


def test_pfaffian_squares_to_det_random_integers():
    for size in (6, 8):
        for _ in range(60):
            A = random_skew(size)
            assert pfaffian(A) ** 2 == bareiss_det(A.full())


def test_pairing_counts_are_double_factorials():
    assert [len(pfaffian_pairings(s)) for s in (2, 4, 6, 8)] == [1, 3, 15, 105]
    # terms are the first-row expansion: evaluating them reproduces pfaffian
    for _ in range(20):
        A = random_skew(6)
        total = 0
        for sign, pairs in pfaffian_pairings(6):
            prod = sign
            for i, j in pairs:
                prod *= A.entry(i, j)
            total += prod
        assert total == pfaffian(A)


def test_skew_rank_standard_matrices():
    for p in (2, 3):
        for k in range(4):
            A = SkewMatrix.standard_rank(3, k, GF(p))
            assert skew_rank(A) == 2 * k


def test_skew_rank_requires_field():
    with pytest.raises(ValueError):
        skew_rank(SkewMatrix.zero(4))


def test_skew_rank_even_and_full_iff_pf_nonzero():
    for _ in range(300):
        A = random_skew(6, 0, 2, GF(3))
        r = skew_rank(A)
        assert r % 2 == 0 and r <= 6
        assert (r == 6) == (pfaffian(A) != 0)


def test_rank_vs_pfaffian_exhaustive_f2():
    # every 6x6 over F_2: full rank iff Pf != 0
    for bits in range(2 ** 15):
        entries = [(bits >> t) & 1 for t in range(15)]
        A = SkewMatrix(6, entries, GF(2))
        assert (skew_rank(A) == 6) == (pfaffian(A) != 0)


def test_stratum_dim():
    assert stratum_dim(3, 1) == 9
    assert stratum_dim(3, 2) == 14
    assert stratum_dim(2, 2) == 6
    for n in (2, 3, 4, 5):
        full = n * (2 * n - 1)
        assert stratum_dim(n, n) == full
        assert stratum_dim(n, n - 1) == full - 1
        assert stratum_dim(n, n - 2) == full - 6
    with pytest.raises(ValueError):
        stratum_dim(3, 4)
    with pytest.raises(ValueError):
        stratum_dim(3, -1)


def test_equivariance_identity_and_diagonal():
    A = random_skew(6, 0, 2, GF(3))
    eye = [[int(i == j) for j in range(6)] for i in range(6)]
    assert check_equivariance(A, eye)
    for t in (1, 2):
        g = [[t if i == j == 0 else int(i == j) for j in range(6)]
             for i in range(6)]
        assert check_equivariance(A, g)


def test_equivariance_random_pairs_f3():
    dom = GF(3)
    hits = 0
    while hits < 100:
        A = random_skew(6, 0, 2, dom)
        g = [[rng.randrange(3) for _ in range(6)] for _ in range(6)]
        if mat_det(g, dom) == 0:
            continue
        assert check_equivariance(A, g)
        hits += 1


def test_equivariance_integer_domain():
    for _ in range(20):
        A = random_skew(4)
        g = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        if bareiss_det(g) == 0:
            continue
        assert check_equivariance(A, g)


def test_equivariance_errors():
    A = random_skew(6, 0, 2, GF(3))
    with pytest.raises(ValueError):
        check_equivariance(A, [[0] * 4 for _ in range(4)])
    singular = [[0] * 6 for _ in range(6)]
    with pytest.raises(ValueError):
        check_equivariance(A, singular)


@pytest.mark.parametrize("i,j", [(1, 4), (4, 1), (-1, 2), (0, -1), (4, 4),
                                 (-1, -1)])
def test_entry_outside_the_matrix_is_refused(i, j):
    # a flat upper-triangle index would read some other entry: (1, 4) read
    # a_23, (-1, 2) a_23 and (0, -1) -a_03
    with pytest.raises(IndexError):
        SkewMatrix(4, (1, 2, 3, 4, 5, 6)).entry(i, j)


def test_bareiss_det_refuses_non_square_input():
    assert bareiss_det([]) == 1
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]],
                 [[1, 2], [3]], [[1], [2, 3]], [[]]):
        with pytest.raises(ValueError, match="not square"):
            bareiss_det(rows)


def test_bareiss_det():
    assert bareiss_det([[2, 0], [0, 3]]) == 6
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    M = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)]
    MT = [[M[j][i] for j in range(5)] for i in range(5)]
    assert bareiss_det(M) == bareiss_det(MT)


@pytest.mark.parametrize("bad", [1.9, "3", Fraction(5, 2), Fraction(2)],
                         ids=["float", "str", "fraction", "whole_fraction"])
def test_non_integer_entries_are_refused(bad):
    # int() truncated them: [1.9, 0, 0, 0, 0, 2.5] was stored as
    # [1, 0, 0, 0, 0, 2] with Pf 2, and [[1.5, 0], [0, 2.7]] had det 2
    with pytest.raises(TypeError):
        SkewMatrix(4, [bad, 0, 0, 0, 0, 1])
    with pytest.raises(TypeError):
        bareiss_det([[bad, 0], [0, 1]])


def test_integer_like_entries_are_taken_as_ints():
    import numpy as np
    A = SkewMatrix(4, np.array([1, 0, 0, 0, 0, 2], dtype=np.int64), GF(3))
    assert A.upper == (1, 0, 0, 0, 0, 2)
    assert all(type(v) is int for v in A.upper)
    assert pfaffian(A) == 2
    assert bareiss_det(np.array([[2, 1], [1, 3]], dtype=np.int16)) == 5
    assert bareiss_det([[True, False], [False, True]]) == 1


def test_parse_skew_literal():
    A = parse_skew_literal("skew6 [0,1,0,1,0, 1,0,0,0, 1,0,0, 0,1, 0]")
    assert A.size == 6
    assert A.entry(0, 1) == 0 and A.entry(0, 2) == 1 and A.entry(0, 4) == 1
    assert A.entry(1, 2) == 1 and A.entry(3, 5) == 1 and A.entry(4, 5) == 0
    assert parse_skew_literal(repr(A)) == A
    with pytest.raises(ParseError):
        parse_skew_literal("mat6 [1]")
    with pytest.raises(ParseError):
        parse_skew_literal("skew6 [1,2")
