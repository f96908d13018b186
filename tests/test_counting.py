import random
from itertools import product

import pytest

from motivic import counting
from motivic.counting import DEFAULT_CAP, gaussian_binomial, scan_skew
from motivic.errors import CapExceededError
from motivic.laurent import ONE, q_power
from motivic.skew import GF, SkewMatrix, pfaffian, skew_rank
from motivic.spaces import ConeOverPlucker, Grass, MilnorFibreF, ec

rng = random.Random(33190)


def test_gaussian_binomial_golden():
    gb = gaussian_binomial(6, 2)
    want = [1, 1, 2, 2, 3, 2, 2, 1, 1]
    assert gb == sum((c * q_power(d) for d, c in enumerate(want)), ONE * 0)
    assert gb.eval_q(2) == 651
    assert gb.eval_q(1) == 15


def test_gaussian_binomial_basics():
    for n in range(7):
        assert gaussian_binomial(n, 0) == ONE
        for k in range(n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4)


def test_count_by_rank_2x2():
    # smallest case: a single free entry, rank 2 iff it is nonzero
    assert scan_skew(1, 5).rank_counts == {0: 1, 2: 4}
    assert scan_skew(1, 3, "hist").pf_counts == {0: 1, 1: 1, 2: 1}


def test_count_by_rank_4x4():
    counts2 = scan_skew(2, 2).rank_counts
    assert counts2 == {0: 1, 2: 35, 4: 28}
    counts3 = scan_skew(2, 3).rank_counts
    assert counts3 == {0: 1, 2: 260, 4: 468}
    assert sum(counts3.values()) == 3 ** 6
    # rank <= 2 locus is the cone over Gr(2,4)
    for p, counts in ((2, counts2), (3, counts3)):
        assert counts[0] + counts[2] == \
            1 + (p - 1) * gaussian_binomial(4, 2).eval_q(p)


def test_count_by_rank_6x6_f2():
    counts = scan_skew(3, 2).rank_counts
    assert sum(counts.values()) == 2 ** 15 == 32768
    assert counts[0] == 1
    assert counts[0] + counts[2] == 652
    assert counts[6] == 13888


def test_count_pf_values():
    assert scan_skew(2, 2, "hist").pf_counts == {0: 36, 1: 28}
    assert scan_skew(2, 3, "hist").pf_counts == {0: 261, 1: 234, 2: 234}
    assert scan_skew(3, 2, "hist").pf_counts == {0: 18880, 1: 13888}


def test_count_pf_fibre():
    assert scan_skew(2, 2, "hist").pf_counts[1] == 28
    assert scan_skew(2, 3, "hist").pf_counts[1] == 234
    assert scan_skew(3, 2, "hist").pf_counts[1] == 13888


def test_fibration_triviality_identity():
    for n, p in ((2, 2), (2, 3), (2, 5)):
        v = scan_skew(n, p, "hist").pf_counts
        total = p ** (n * (2 * n - 1))
        nonzero = total - v[0]
        assert nonzero == (p - 1) * v[1]
        assert all(v[c] == v[1] for c in range(1, p))


def test_scan_matches_predictions_small():
    # double-entry bookkeeping: closed form at q = p vs exhaustive scan
    for p in (2, 3):
        v = scan_skew(2, p, "hist").pf_counts
        assert v[1] == (q_power(5) - q_power(2)).eval_q(p)
    assert scan_skew(3, 2, "hist").pf_counts[1] == \
        (q_power(14) - q_power(11) - q_power(9) + q_power(6)).eval_q(2)


def test_rank_buckets_agree_with_gaussian_elimination():
    # pointwise on all 4x4 over F_2 and F_3
    for p in (2, 3):
        got = {0: 0, 2: 0, 4: 0}
        for entries in product(range(p), repeat=6):
            got[skew_rank(SkewMatrix(4, entries, GF(p)))] += 1
        assert got == scan_skew(2, p).rank_counts
    # bucket totals plus a random sample pointwise on 6x6 over F_3
    counts = scan_skew(3, 3).rank_counts
    assert sum(counts.values()) == 3 ** 15
    for _ in range(200):
        entries = [rng.randrange(3) for _ in range(15)]
        A = SkewMatrix(6, entries, GF(3))
        r = skew_rank(A)
        assert (r == 6) == (pfaffian(A) != 0)


def test_cap_refusal():
    assert DEFAULT_CAP == 10 ** 8
    with pytest.raises(CapExceededError) as exc:
        scan_skew(3, 5)
    assert "30517578125" in str(exc.value)
    with pytest.raises(CapExceededError):
        scan_skew(2, 2, "hist", cap=10)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        scan_skew(2, 4)
    with pytest.raises(ValueError):
        scan_skew(0, 2)
    with pytest.raises(ValueError):
        scan_skew(2, 2, mode="bogus")


def test_worker_counts_merge_identically():
    base = scan_skew(3, 2, "full", workers=1)
    for w in (2, 3, 8):
        s = scan_skew(3, 2, "full", workers=w)
        assert s.pf_counts == base.pf_counts
        assert s.rank_counts == base.rank_counts
        assert s.total == base.total


def test_workers_capped_at_cpu_count(monkeypatch):
    # n = 1, p = 5 has five matrices, so even an uncapped scan forks at most
    # five processes
    parts = []
    split = counting._split_ranges
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(counting, "_split_ranges",
                        lambda total, n: parts.append(n) or split(total, n))
    s = scan_skew(1, 5, "hist", workers=64)
    assert parts == [1]
    assert s.pf_counts == {v: 1 for v in range(5)}


def test_spot_check_runs():
    s = scan_skew(2, 3, "hist", workers=1)
    assert s.spot_checked == (3 ** 6 + 99) // 100


def test_scan_counts_match_ec_predictions():
    scan = scan_skew(3, 2, "full")
    assert scan.total == 32768 == q_power(15).eval_q(2)
    cone = ec(ConeOverPlucker(Grass(2, 6)))
    assert scan.rank_counts[0] + scan.rank_counts[2] == 652 == cone.eval_q(2)
    assert scan.pf_counts[1] == 13888 == ec(MilnorFibreF(3)).eval_q(2)
    assert scan.pf_counts[1] != q_power(15).eval_q(2)


def test_one_scan_serves_every_count():
    scan = scan_skew(3, 2, "full")
    predicted = (ec(MilnorFibreF(3)) * (q_power(1) - ONE)).eval_q(2)
    nonzero = scan.total - scan.pf_counts[0]
    assert nonzero == scan.rank_counts[6] == predicted == 13888
