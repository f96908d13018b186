import ast
import os
import random
import re
import threading
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_python

from motivic import _kernel, counting
from motivic.counting import DEFAULT_CAP, scan_skew
from motivic.errors import CapExceededError, ConsistencyError
from motivic.laurent import ONE, gaussian_binomial, q_power
from motivic.skew import (GF, SkewMatrix, _is_prime, bareiss_det,
                          parse_skew_literal, pfaffian, skew_rank)
from motivic.spaces import ConeOverPlucker, Grass, MilnorFibreF, ec

rng = random.Random(33190)


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


def _carlitz(size, rank, q):
    # Carlitz (Duke Math. J. 21, 1954): the number of size x size
    # alternating matrices over F_q of rank 2r is
    # q^(r(r-1)) prod_{i<2r} (q^(size-i) - 1) / prod_{i=1..r} (q^(2i) - 1)
    r = rank // 2
    top = bottom = 1
    for i in range(2 * r):
        top *= q ** (size - i) - 1
    for i in range(1, r + 1):
        bottom *= q ** (2 * i) - 1
    return q ** (r * (r - 1)) * top // bottom


@pytest.mark.parametrize("workers", [1, 2])
def test_rank_buckets_match_carlitz(workers):
    # every bucket, the middle ones of (3, 3) and all of (2, 11) and
    # (2, 13) among them; the scan runs in one thread at any worker count
    cases = [(1, 7), *((2, p) for p in (2, 3, 5, 7, 11, 13)), (3, 2), (3, 3)]
    for n, p in cases:
        want = {rank: _carlitz(2 * n, rank, p)
                for rank in range(0, 2 * n + 1, 2)}
        assert sum(want.values()) == p ** (n * (2 * n - 1))
        assert scan_skew(n, p, "full", workers=workers).rank_counts == \
            want, (n, p)
    assert _carlitz(6, 2, 3) == 22022 and _carlitz(6, 4, 3) == 5153148


def test_cap_refusal():
    assert DEFAULT_CAP == 10 ** 8
    with pytest.raises(CapExceededError) as exc:
        scan_skew(3, 5)
    assert "30517578125" in str(exc.value)
    with pytest.raises(CapExceededError):
        scan_skew(2, 2, "hist", cap=10)


def test_cap_rule_matches_the_power():
    # the bit-length shortcut answers as p^m > cap does, at the cap's edges
    for p in (2, 3, 5, 7, 13, 751, 16777213):
        for m in (1, 3, 6, 15, 28):
            power = p ** m
            for cap in (0, 1, power - 1, power, power + 1, 2 * power,
                        1 << power.bit_length() - 1, 1 << power.bit_length(),
                        DEFAULT_CAP):
                assert counting._exceeds_cap(p, m, cap) == (power > cap), \
                    (p, m, cap)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        scan_skew(2, 4)
    with pytest.raises(ValueError):
        scan_skew(0, 2)
    with pytest.raises(ValueError):
        scan_skew(2, 2, mode="bogus")


@pytest.mark.parametrize("workers", [1, 2])
def test_n1_scan_above_chunk(workers):
    # the smallest prime above _CHUNK: row 0 is multiplied out in two
    # tables, in the calling thread at any worker count
    p = 131101
    assert p > _kernel._CHUNK
    s = scan_skew(1, p, workers=workers)
    assert s.pf_counts == dict.fromkeys(range(p), 1) == s.pf_counts
    assert s.pf_counts[p - 1] == 1
    assert type(s.pf_counts[0]) is int
    assert s.pf_counts.get(p) is None and s.pf_counts.get(-1) is None
    assert s.rank_counts == {0: 1, 2: p - 1}


def test_spot_check_runs():
    assert counting.SPOT_STRIDE == 1009 and _is_prime(counting.SPOT_STRIDE)
    # the 729 matrices of (2, 3) sample only index 0
    assert scan_skew(2, 3, "hist").spot_checked == 1
    assert scan_skew(3, 3, "hist").spot_checked == \
        -(-3 ** 15 // counting.SPOT_STRIDE) == 14221


def test_spot_sample_sets_every_row0_digit(monkeypatch):
    # a stride divisible by p would leave the lowest row-0 digits of every
    # sample zero (at a stride of 100 = 2^2 5^2, entries a_01 and a_02 at
    # p = 2 and p = 5)
    seen = []
    det = _kernel._batched_det
    monkeypatch.setattr(_kernel, "_batched_det",
                        lambda M: seen.append(M[0, 1:].T.copy()) or det(M))
    for n, p in ((3, 2), (2, 5), (3, 3)):
        seen.clear()
        scan_skew(n, p, "hist")
        row0 = np.concatenate(seen)
        assert row0.shape == (-(-p ** (n * (2 * n - 1))
                                // counting.SPOT_STRIDE), 2 * n - 1)
        assert (row0 != 0).any(axis=0).all(), (n, p)


@pytest.mark.parametrize("chunk", [1000, _kernel._CHUNK])
@pytest.mark.parametrize("workers", [1, 2])
def test_spot_sample_survives_range_cuts(monkeypatch, workers, chunk):
    # every index that is a multiple of SPOT_STRIDE is checked once, however
    # the scan's range of tails is cut into tail runs and row-0 tables, at
    # any worker count
    monkeypatch.setattr(_kernel, "_CHUNK", chunk)
    for n, p in ((3, 2), (2, 5), (1, 131101)):
        total = p ** (n * (2 * n - 1))
        s = scan_skew(n, p, "hist", workers=workers)
        assert s.spot_checked == -(-total // counting.SPOT_STRIDE)


def _kernel_scan(n, p):
    # every field of `_kernel._scan` but its phase seconds, as plain values
    got = _kernel._scan(n, p, counting.SPOT_STRIDE)
    del got["phases"]
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in got.items()}


@pytest.mark.parametrize("n, p", [(2, 5), (3, 2), (2, 13), (1, 8191),
                                  (1, 8209)])
@pytest.mark.parametrize("fault", [None, "determinant", "coefficient sign"])
def test_count_array_grows_across_runs(monkeypatch, n, p, fault):
    # a scan bincounts each run's Pfaffian ids into one count array that
    # grows to the largest id seen.  Runs of 8 tails grow it run by run
    # (one run at n = 1, which has one tail); one run of 8209 tails
    # counts every shape here at once.  Both give the same histogram, tail
    # ranks and spot count, and with a fault the same failures, first ones
    # included; the array never passes p^(2n-1) entries
    if fault == "determinant":
        det = _kernel._batched_det
        monkeypatch.setattr(_kernel, "_batched_det",
                            lambda M: det(M) + M[0, 1] % 2)
    elif fault == "coefficient sign":
        plan = _kernel._plan

        def flipped(n):
            avoid, pfaffian = plan(n)
            (sign, sub), *rest = pfaffian
            return avoid, ((-sign, sub), *rest)

        monkeypatch.setattr(_kernel, "_plan", flipped)
    # a scan's last np.flatnonzero reads its count array
    seen = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(_kernel.np, "flatnonzero",
                        lambda a: seen.append(a.size) or flatnonzero(a))
    scans, sizes = [], []
    for run in (8, 8209):
        monkeypatch.setattr(_kernel, "_CHUNK", 16 * run)
        scans.append(_kernel_scan(n, p))
        sizes.append(seen[-1])
    short_runs, one_run = scans
    assert short_runs == one_run
    assert sizes[0] == sizes[1] <= p ** (2 * n - 1)
    if n == 1:
        # the one tail's id is 1, or p - 1 with its sign flipped
        assert sizes == ([p, p] if fault == "coefficient sign" else [2, 2])
    if fault == "determinant":
        # the first sample whose entry (0, 1), its lowest digit, is odd
        assert one_run["violations"]
        assert one_run["first_bad"] == next(
            i for i in range(0, p ** (n * (2 * n - 1)),
                             counting.SPOT_STRIDE) if i % p % 2)
    elif fault == "coefficient sign" and n > 1 and p > 2:
        assert one_run["tail_violations"]
        assert one_run["first_tail_bad"] is not None


def test_scans_never_sort_their_ids(monkeypatch):
    # every scan counts its ids in an array, so none calls numpy's sort:
    # not the report's 4x4 and 6x6 scans over F_2 and F_3, nor an n = 1
    # scan at a prime above 8192
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(_kernel.np, "unique", refuse)
    assert scan_skew(3, 2).pf_counts[1] == 13888
    for n, p in ((2, 2), (2, 3), (3, 3), (1, 8209)):
        assert sum(scan_skew(n, p).pf_counts.values()) == \
            p ** (n * (2 * n - 1))


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
    # a "hist" scan buckets by rank too
    assert scan_skew(3, 2, "hist").rank_counts == scan.rank_counts


def test_scan_matches_pointwise_oracle():
    # every matrix through skew.pfaffian and skew.skew_rank, tallied; at
    # (2, 5) the raw row-0 products reach 48 and fold over ten residue runs;
    # at (3, 2) 1024 tails share 32 Pfaffian coefficient vectors, and the
    # rank-4 bucket of 6x6 matrices is checked pointwise
    for n, p in ((2, 3), (1, 7), (2, 5), (3, 2)):
        pf = dict.fromkeys(range(p), 0)
        rank = dict.fromkeys(range(0, 2 * n + 1, 2), 0)
        for entries in product(range(p), repeat=n * (2 * n - 1)):
            A = SkewMatrix(2 * n, entries, GF(p))
            pf[pfaffian(A)] += 1
            rank[skew_rank(A)] += 1
        s = scan_skew(n, p)
        assert s.pf_counts == pf
        assert s.rank_counts == rank


@pytest.mark.parametrize("chunk", [20, 40, 100])
def test_class_tables_split_into_chunks(monkeypatch, chunk):
    # a class table holds at most _CHUNK row-0 values and _CHUNK // width
    # vectors: at (3, 2) row 0 takes 32 values, so the 32 distinct
    # Pfaffian vectors lie in several tables; at (2, 3) and (2, 5) the 27
    # and 125 row-0 values are split into tables of at most `chunk`.  The
    # tail pass walks runs of _CHUNK // 16 tails, one tail at a chunk of
    # 20, so each run samples from its own first tail on; every tail is
    # checked once, and the counts are those of the default chunk
    def counts(n, p):
        s = scan_skew(n, p, "full")
        return dict(s.pf_counts), s.rank_counts, s.spot_checked, \
            s.tails_checked

    whole = {(n, p): counts(n, p) for n, p in ((2, 3), (3, 2), (2, 5))}
    tables = []
    products = _kernel._products
    monkeypatch.setattr(_kernel, "_products", lambda v, x: (
        x.ndim == 2 and tables.append(v.shape[0] * x.shape[1])
        or products(v, x)))
    monkeypatch.setattr(_kernel, "_CHUNK", chunk)
    for (n, p), want in whole.items():
        assert want[3] == p ** ((2 * n - 1) * (n - 1))
        tables.clear()
        assert counts(n, p) == want
        assert 0 < max(tables) <= chunk


def test_scan_reports_phase_seconds():
    # the tail ranks are counted in the tail pass, with no phase of their own
    assert counting.PHASES == ("tail_pass", "tail_check", "pfaffian_classes",
                               "spot_check")
    s = scan_skew(3, 3, "full")
    assert tuple(s.phases) == counting.PHASES
    assert all(t >= 0 for t in s.phases.values())
    # the phases are disjoint parts of the scan, and nearly all of it
    assert 0.8 * s.elapsed <= sum(s.phases.values()) <= s.elapsed


def test_batched_det_matches_bareiss():
    np_rng = np.random.default_rng(33190)
    for size in (2, 4, 6, 8):
        M = np_rng.integers(-3, 4, (300, size, size))
        M[:40, :, 0] = 0                      # singular: zero column
        M[40:80, 1] = M[40:80, 0]             # singular: equal rows
        M[80:160, 0, 0] = 0                   # zero corner entry
        M[160:200, :2, :2] = 0                # zero leading 2x2 block
        upper = np.triu(M[200:], 1)           # skew: zero diagonal
        M[200:] = upper - upper.transpose(0, 2, 1)
        got = _kernel._batched_det(np.moveaxis(M, 0, -1)).tolist()
        assert got == [bareiss_det(A.tolist()) for A in M]
        assert got.count(0) >= 80


def test_spot_stride_zero_skips_the_spot_check():
    s = scan_skew(2, 3, "full", spot_stride=0)
    assert s.spot_checked == 0
    base = scan_skew(2, 3, "full")
    assert (s.pf_counts, s.rank_counts) == (base.pf_counts, base.rank_counts)


def test_spot_check_failure_names_first_offender(monkeypatch):
    # a determinant off by one wherever entry (0, 1) is 2; sampled indices
    # are multiples of 1009, and entry (0, 1) is the lowest base-5 digit
    det = _kernel._batched_det
    monkeypatch.setattr(_kernel, "_batched_det",
                        lambda M: det(M) + (M[0, 1] == 2))
    monkeypatch.setattr(_kernel, "_CHUNK", 1000)  # three runs of 62 tails
    sampled = range(0, 5 ** 6, counting.SPOT_STRIDE)
    bad = [i for i in sampled if i % 5 == 2]
    assert len(bad) == 3
    with pytest.raises(ConsistencyError) as exc:
        scan_skew(2, 5, "hist")
    message = str(exc.value)
    assert f"failed on {len(bad)} of {len(sampled)} sampled" in message
    assert f"index {bad[0]} at (n, p) = (2, 5)" in message
    literal = re.search(r"skew\d+ \[[^\]]*\]", message).group()
    A = parse_skew_literal(literal, GF(5))
    assert A.upper == tuple(bad[0] // 5 ** t % 5 for t in range(6))
    assert A.entry(0, 1) == 2


def _row0_coefficients(A):
    # c_j, the coefficient of a_0j in Pf(A), by skew.pfaffian with row 0
    # set to the unit vector e_j
    size = A.size
    return [pfaffian(SkewMatrix(size, [int(t == j) for t in range(size - 1)]
                                + list(A.upper[size - 1:]), A.domain))
            for j in range(size - 1)]


def test_tail_check_catches_a_coefficient_sign(monkeypatch):
    # the Pfaffian's a_01 term with its sign flipped: c_0 becomes -c_0, so
    # adj(B) = c c^T fails in row and column 0 of every tail where c_0 and
    # some other c_j are nonzero; with no pointwise sample, only the tail
    # check can see it
    plan = _kernel._plan

    def flipped(n):
        avoid, pfaffian = plan(n)
        (sign, sub), *rest = pfaffian
        return avoid, ((-sign, sub), *rest)

    monkeypatch.setattr(_kernel, "_plan", flipped)
    for n, p in ((2, 3), (2, 5)):
        width0 = 2 * n - 1
        with pytest.raises(ConsistencyError) as exc:
            scan_skew(n, p, "hist", spot_stride=0)
        message = str(exc.value)
        # the failing tails, found through skew.pfaffian
        fails = []
        for h in range(p ** ((n - 1) * width0)):
            A = SkewMatrix(2 * n, [0] * width0 + [h // p ** t % p for t in
                                                 range((n - 1) * width0)],
                           GF(p))
            c = _row0_coefficients(A)
            if c[0] and any(c[1:]):
                fails.append(h)
        tails = p ** ((n - 1) * width0)
        assert f"failed on {len(fails)} of {tails} tails" in message
        first = fails[0] * p ** width0
        assert f"the block at index {first} at (n, p) = ({n}, {p})" in message
        # the literal, read as an integer matrix (lower entries -a_ij)
        A = parse_skew_literal(
            re.search(r"skew\d+ \[[^\]]*\]", message).group())
        assert A.upper == tuple(first // p ** t % p
                                for t in range(n * width0))
        # the named entry: adj(B)[i, j] from the cofactor of B by Bareiss
        i, j, adj, cc = map(int, re.search(
            r"adj\(B\)\[(\d+), (\d+)\] = (-?\d+) but c_\d+ c_\d+ = (\d+)",
            message).groups())
        B = [row[1:] for row in A.full()[1:]]
        minor = [row[:i] + row[i + 1:] for r, row in enumerate(B) if r != j]
        assert adj == (-1) ** (i + j) * bareiss_det(minor)
        c = _row0_coefficients(SkewMatrix(2 * n, A.upper, GF(p)))
        assert 0 in (i, j) and i != j
        assert cc == -c[i] * c[j] % p != adj % p


@pytest.mark.parametrize("fault", ["product", "vector decode"])
def test_class_pass_fault_is_caught_by_the_sample(monkeypatch, fault):
    # the tail check covers the coefficient vectors, not the class pass
    # that multiplies them by row 0; the pointwise sample takes the same
    # decode and product routines, so it catches a fault there.  Every
    # scan also compares the rank-4 bucket with #{Pf != 0}, which a product
    # off by one moves, so with no sample that check catches it in either
    # mode; a reversed vector is nonzero where the true one is, so only the
    # sample sees a decode fault
    if fault == "product":
        products = _kernel._products
        monkeypatch.setattr(_kernel, "_products",
                            lambda v, x: products(v, x) + 1)
    else:
        vectors = _kernel._vectors
        monkeypatch.setattr(_kernel, "_vectors",
                            lambda *args: vectors(*args)[:, ::-1])
    with pytest.raises(ConsistencyError, match=r"Pf\^2 = det failed on"):
        scan_skew(2, 5, "hist")
    for mode in ("hist", "full"):
        if fault == "product":
            with pytest.raises(ConsistencyError,
                               match=r"rank-4 bucket holds 12400 matrices "
                                     r"but #\{Pf != 0\} = \d+ at "
                                     r"\(n, p\) = \(2, 5\)"):
                scan_skew(2, 5, mode, spot_stride=0)
        else:
            s = scan_skew(2, 5, mode, spot_stride=0)
            assert s.tails_checked == 125


def test_tail_check_compares_every_entry(monkeypatch):
    # one adjugate entry off by one, in the column routine, is reported at
    # that entry
    for n, p in ((2, 3), (3, 2)):
        width0 = 2 * n - 1
        tails = p ** ((n - 1) * width0)
        B = _kernel._skew_stack(np.arange(tails), p, width0,
                                _kernel._lane(n, p))
        _, pfaffian = _kernel._plan(n)
        pf = _kernel._TailMemo(B, p)
        coeff = _kernel._coefficients(pfaffian, pf, p)
        assert _kernel._tail_check(B, coeff, p) == (0, None)
        columns = _kernel._adjugate_columns
        for i, j in product(range(width0), repeat=2):
            def shifted(B, i=i, j=j):
                for k, column in columns(B):
                    if k == j:
                        column[i, 1:] += 1
                    yield k, column
            monkeypatch.setattr(_kernel, "_adjugate_columns", shifted)
            bad, first = _kernel._tail_check(B, coeff, p)
            assert bad == tails - 1 and first[:3] == (1, i, j)
            monkeypatch.undo()


def test_tail_check_names_the_first_entry_in_row_major_order(monkeypatch):
    # the columns come last first, so the first failure is the lowest
    # failing block at its first entry in row-major order, wherever in the
    # sequence of columns it shows
    n, p = 3, 2
    width0 = 2 * n - 1
    tails = p ** ((n - 1) * width0)
    B = _kernel._skew_stack(np.arange(tails), p, width0, _kernel._lane(n, p))
    _, pfaffian = _kernel._plan(n)
    coeff = _kernel._coefficients(pfaffian, _kernel._TailMemo(B, p), p)
    columns = _kernel._adjugate_columns
    # faults as (block, i, j), and the one reported
    for faults, want in (({(3, 2, 4), (3, 1, 3), (3, 1, 1), (4, 0, 0)},
                          (3, 1, 1)),
                         ({(6, 0, 4), (5, 4, 0), (7, 0, 0)}, (5, 4, 0))):
        def shifted(B, faults=faults):
            for k, column in columns(B):
                for t, i, j in faults:
                    if j == k:
                        column[i, t] += 1
                yield k, column
        monkeypatch.setattr(_kernel, "_adjugate_columns", shifted)
        bad, first = _kernel._tail_check(B, coeff, p)
        assert bad == len({t for t, _, _ in faults})
        assert first[:3] == want
        monkeypatch.undo()


def _adjugate(B):
    # adj(B) of a (w, w, N) stack, assembled from the kernel's columns
    w = B.shape[0]
    adj = np.empty_like(B)
    seen = []
    for j, column in _kernel._adjugate_columns(B):
        adj[:, j] = column
        seen.append(j)
    assert sorted(seen) == list(range(w))
    return adj


def test_adjugate_matches_cofactors():
    np_rng = np.random.default_rng(33190)
    for w in (1, 3, 5, 7):
        M = np_rng.integers(-3, 4, (40, w, w))
        M[:10] = np.triu(M[:10], 1) - np.triu(M[:10], 1).transpose(0, 2, 1)
        got = _adjugate(np.ascontiguousarray(M.transpose(1, 2, 0)))
        for t, A in enumerate(M.tolist()):
            # the empty minor of a 1x1 matrix is 1
            want = [[(-1) ** (i + j) * bareiss_det(
                [row[:i] + row[i + 1:] for r, row in enumerate(A) if r != j]
                or [[1]]) for j in range(w)] for i in range(w)]
            assert got[:, :, t].tolist() == want


# the largest prime of each lane at n = 1, 2, 3; the int64 lane ends where
# _check_int64 refuses
LANE_EDGES = {(1, np.int16): 89, (1, np.int32): 23167,
              (1, np.int64): 2147483647, (2, np.int16): 5,
              (2, np.int32): 89, (2, np.int64): 743, (3, np.int16): 3,
              (3, np.int32): 13, (3, np.int64): 17}


@pytest.mark.parametrize("n, lane", sorted(LANE_EDGES, key=str))
def test_narrow_lane_matches_int64_at_its_edge(n, lane):
    # every entry +-(p-1): the determinants of the pointwise sample and the
    # adjugates of the tail check, in the scan's lane and in exact integers
    p = LANE_EDGES[n, lane]
    np_rng = np.random.default_rng(p)
    size = 2 * n
    signs = np_rng.choice([-1, 1], (64, size, size))
    upper = np.triu(signs * (p - 1), 1)
    M = upper - upper.transpose(0, 2, 1)
    det = _kernel._batched_det(
        np.moveaxis(M, 0, -1).astype(_kernel._lane(n, p)))
    assert det.tolist() == [bareiss_det(A) for A in M.tolist()]
    B = np.ascontiguousarray(M[:, 1:, 1:].transpose(1, 2, 0))
    assert (_adjugate(B.astype(_kernel._lane(n, p))) ==
            _adjugate(B.astype(object))).all()
    # p is the largest prime of its lane
    assert _kernel._lane(n, p) is lane and det.dtype == lane
    q = p + 1
    while not _is_prime(q):
        q += 1
    if lane is np.int64:
        with pytest.raises(CapExceededError):
            counting._check_int64(n, q, q ** (n * (2 * n - 1)))
    else:
        assert _kernel._lane(n, q) is not lane


@pytest.mark.parametrize("n, lane", sorted(
    (key for key in LANE_EDGES if key[0] >= 2), key=str))
def test_lane_tail_pass_matches_int64(monkeypatch, n, lane):
    # the last tails (every high digit p - 1) and a run from a random tail,
    # through the tail pass in the scan's lane and again in int64: the same
    # sub-Pfaffians, coefficient ids, tail ranks and tail check.  No sample:
    # at (2, 743) it would take 1.2e8 matrices
    p = LANE_EDGES[n, lane]
    tails = p ** ((n - 1) * (2 * n - 1))
    run = min(300, tails)  # (2, 5) has 125 tails
    lo = random.Random(p).randrange(tails - run + 1)
    memos = []
    tail_memo = _kernel._TailMemo
    monkeypatch.setattr(_kernel, "_TailMemo",
                        lambda *args: memos.append(tail_memo(*args))
                        or memos[-1])

    def tail_runs():
        return [_kernel._tail_run(n, p, h0, h0 + run, 0,
                                  dict.fromkeys(counting.PHASES, 0.0))
                for h0 in (tails - run, lo)]

    narrow = tail_runs()
    monkeypatch.setattr(_kernel, "_lane", lambda n, p: np.int64)
    wide = tail_runs()
    avoid, pfaffian = _kernel._plan(n)
    for memo, memo64 in zip(memos[:2], memos[2:]):
        subsets = [sub for _, sub in pfaffian] + [
            s for k in avoid for s in avoid[k]]
        for sub in subsets:
            assert memo[sub].dtype == lane and memo64[sub].dtype == np.int64
            assert (memo[sub] == memo64[sub]).all()
        assert memo.keys() == memo64.keys()
    for (ids, ranks, tail_bad, _), (ids64, ranks64, tail_bad64,
                                     _) in zip(narrow, wide):
        assert ids.tolist() == ids64.tolist()
        assert ranks.tolist() == ranks64.tolist()
        assert sum(ranks.tolist()) == run
        assert tail_bad == tail_bad64 == (0, None)


def test_scan_range_memory_is_bounded(monkeypatch):
    # the 3^10 tails of (3, 3), with ranks and the sample, under tracemalloc
    # (numpy reports its buffers to it).  The whole call peaks at the block
    # of about 4 MiB that `_scan` allocates and frees untouched,
    # which hides a smaller working set; so the peak is read again from
    # the first run of tails on.  Measured with numpy 2.4: 4.0 MiB in all,
    # 1.74 MiB from the first run (1.89 MiB while a run kept its tail
    # digits beside its skew stack); runs in int64 peak at 7.1 MiB, and a list
    # of every tail's id, held to the class pass, at 2.26 MiB from the
    # first run
    # fills the plan caches
    _kernel._tail_run(3, 3, 0, 3, counting.SPOT_STRIDE,
                      dict.fromkeys(counting.PHASES, 0.0))
    block_peak = []
    tail_run = _kernel._tail_run

    def first_run_resets(*args):
        if not block_peak:
            block_peak.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        return tail_run(*args)

    monkeypatch.setattr(_kernel, "_tail_run", first_run_resets)
    tracemalloc.start()
    try:
        part = _kernel._scan(3, 3, counting.SPOT_STRIDE)
        runs_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part["tail_ranks"].sum() == 3 ** 10
    mib = 1 << 20
    assert 4 * mib - 4096 <= block_peak[0] < 4.25 * mib
    assert max(block_peak[0], runs_peak) < 4.25 * mib
    assert runs_peak < 2.1 * mib


def test_tail_runs_are_capped(monkeypatch):
    # the tail pass walks runs of at most _CHUNK // 16 = 8192 tails: eight
    # runs of the 3^10 tails of (3, 3)
    # (entry (0, 1) of B, the lowest tail digit, of the run's first tail;
    # the run's length)
    runs = []
    tail_memo = _kernel._TailMemo
    monkeypatch.setattr(_kernel, "_TailMemo",
                        lambda B, p: runs.append((int(B[0, 1, 0]), B.shape[2]))
                        or tail_memo(B, p))
    assert _kernel._CHUNK // 16 == 8192
    s = scan_skew(3, 3, "hist")
    assert s.tails_checked == 3 ** 10
    assert [blocks for _, blocks in runs] == [8192] * 7 + [3 ** 10 - 7 * 8192]
    # the lowest tail digit of each run's first tail
    assert [d for d, _ in runs] == [8192 * i % 3 for i in range(8)]


def test_kernel_imports_nothing_from_skew():
    # the scan is checked against skew's Pfaffian and rank routes, so the
    # kernel keeps its own recursion and its own coding of the index layout
    tree = ast.parse(Path(_kernel.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module or ''}.{alias.name}"
                       for alias in node.names]
        else:
            continue
        for module in modules:
            assert "skew" not in module.split("."), ast.unparse(node)


@pytest.mark.parametrize("n, p", [(2, 5), (3, 3), (4, 2)])
def test_skew_stack_matches_skew_layout(n, p):
    # random scan indices decoded into a stack of matrices and their tails
    # into a stack of tails, each against skew's own decode of the index
    width0 = 2 * n - 1
    indices = [random.Random(p).randrange(p ** (n * width0))
               for _ in range(40)]
    A = _kernel._skew_stack(np.array(indices, dtype=np.int64), p, 2 * n,
                            np.int64)
    B = _kernel._skew_stack(np.array(indices, dtype=np.int64) // p ** width0,
                            p, width0, np.int64)
    assert A.shape == (2 * n, 2 * n, 40) and B.shape == (width0, width0, 40)
    for k, index in enumerate(indices):
        full = counting._matrix_at(n, p, index).full()
        assert A[:, :, k].tolist() == full
        assert B[:, :, k].tolist() == [row[1:] for row in full[1:]]


@pytest.mark.parametrize("chunk", [20, _kernel._CHUNK])
def test_every_tail_checked_once(monkeypatch, chunk):
    # each tail is checked once, and n = 1 has one tail; a chunk of 20 is
    # below every block of (2, 3) and (2, 5), so row 0 is multiplied out in
    # several tables
    monkeypatch.setattr(_kernel, "_CHUNK", chunk)
    for n, p in ((1, 7), (1, 131101), (2, 3), (2, 5), (3, 2)):
        tails = p ** ((2 * n - 1) * (n - 1))
        s = scan_skew(n, p, "hist")
        assert s.tails_checked == tails, (n, p)


def test_tail_check_on_7x7_tails():
    # the (4, 2) tails 5..24, each with all 2^7 row-0 values: the 20 tails
    # are checked, the sample re-checked, and the 8x8 Pfaffians of their
    # coefficient vectors tallied against skew.pfaffian
    lo, hi = 5 * 128, 25 * 128
    run_ids, ranks, tail_bad, spot = _kernel._tail_run(
        4, 2, 5, 25, 7, dict.fromkeys(counting.PHASES, 0.0))
    ids, mult = np.unique(run_ids, return_counts=True)
    assert int(mult.sum()) == sum(ranks.tolist()) == 20
    assert tail_bad == (0, None)
    assert spot == (len(range(-(-lo // 7) * 7, hi, 7)), 0, None)
    row0 = _kernel._digits(np.arange(128), 2, 7)
    values = _kernel._vectors(ids, 2, 7) @ row0 % 2
    pf = [0, 0]
    for index in range(lo, hi):
        pf[pfaffian(SkewMatrix(8, [index >> t & 1 for t in range(28)],
                               GF(2)))] += 1
    assert [int(mult @ (values == v).sum(axis=1)) for v in (0, 1)] == pf


def test_import_does_not_load_multiprocessing():
    # a scan runs in the calling thread, with no pool, whether it has one
    # tail or many
    code = ("import sys, motivic.cli\n"
            "from motivic.counting import scan_skew\n"
            "for n, p in ((3, 2), (2, 11), (1, 131101)):\n"
            "    scan_skew(n, p, workers=2)\n"
            "print('multiprocessing' in sys.modules)")
    out = fresh_python("-c", code)
    assert out.stdout.decode().strip() == "False"


def test_n1_scans_in_process(monkeypatch):
    # 10007 matrices make eleven chunks of 1000, and (3, 2), (2, 5), (2, 13)
    # and (3, 3) many runs of tails; with eight CPUs on offer and any worker
    # bound, no scan starts a thread, and each checks every tail once
    def no_thread(self):
        raise AssertionError("a scan started a thread")

    monkeypatch.setattr(_kernel, "_CHUNK", 1000)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    threads = threading.active_count()
    p = 10007
    for workers in (1, 2, 3):
        s = scan_skew(1, p, "full", workers=workers)
        assert s.pf_counts == dict.fromkeys(range(p), 1)
        assert s.rank_counts == {0: 1, 2: p - 1}
        assert s.tails_checked == 1
        assert s.spot_checked == -(-p // counting.SPOT_STRIDE)
    for n, p, mode, bounds in ((3, 2, "full", (2, 3)), (2, 5, "full", (2, 3)),
                               (3, 3, "full", (8,)), (2, 13, "hist", (2,))):
        base = scan_skew(n, p, mode, workers=1)
        for workers in bounds:
            s = scan_skew(n, p, mode, workers=workers)
            assert (s.pf_counts, s.rank_counts, s.total, s.spot_checked) == \
                (base.pf_counts, base.rank_counts, base.total,
                 base.spot_checked), (n, p, workers)
            assert s.tails_checked == base.tails_checked == \
                p ** ((2 * n - 1) * (n - 1))
    assert threading.active_count() == threads


@pytest.mark.parametrize("exc_type", [ConsistencyError, ValueError])
def test_error_in_a_later_run_reraised_with_type_and_message(monkeypatch,
                                                             exc_type):
    # the tails of (3, 2) from 512 on, from the middle of the ninth run of
    # 62 tails: their top tail digit is 1
    monkeypatch.setattr(_kernel, "_CHUNK", 1000)
    check = _kernel._tail_check

    def faulty(B, coeff, p):
        if B[3, 4].any():  # a_45, the top tail digit
            raise exc_type("a tail with a_45 = 1 at (n, p) = (3, 2)")
        return check(B, coeff, p)

    monkeypatch.setattr(_kernel, "_tail_check", faulty)
    with pytest.raises(exc_type) as exc:
        scan_skew(3, 2, "hist")
    assert type(exc.value) is exc_type
    assert str(exc.value) == "a tail with a_45 = 1 at (n, p) = (3, 2)"


def test_sample_fault_in_a_later_run_names_first_offender(monkeypatch):
    # a determinant off by one on the matrices of (3, 2) whose top tail
    # entry a_45 is 1, all from the middle of the ninth run of 62 tails on
    monkeypatch.setattr(_kernel, "_CHUNK", 1000)
    det = _kernel._batched_det
    monkeypatch.setattr(_kernel, "_batched_det",
                        lambda M: det(M) + (M[4, 5] == 1))
    with pytest.raises(ConsistencyError) as exc:
        scan_skew(3, 2, "hist")
    message = str(exc.value)
    # the first sampled index from 2^14 on, where a_45 becomes 1
    first = -(-2 ** 14 // counting.SPOT_STRIDE) * counting.SPOT_STRIDE
    assert f"the first is index {first} at (n, p) = (3, 2)" in message


@pytest.mark.parametrize("shift, message", [
    (lambda ranks: ranks + [1, 0],
     "the tail rank tally [2, 26] sums to 28, not to the 27 tails checked "
     "at (n, p) = (2, 3)"),
    (lambda ranks: ranks[::-1],
     "the rank-4 bucket holds 18 matrices but #{Pf != 0} = 468 at "
     "(n, p) = (2, 3)")], ids=["extra tail", "swapped ranks"])
@pytest.mark.parametrize("mode", ["hist", "full"])
def test_shifted_tail_rank_tally_is_refused(monkeypatch, shift, message,
                                            mode):
    # the 27 tails of (2, 3) are the zero tail and 26 of rank 2: a faulty
    # tally that counts a tail twice, or swaps the ranks, is refused in
    # either mode
    scan = _kernel._scan

    def faulty(*args):
        part = scan(*args)
        assert part["tail_ranks"].tolist() == [1, 26]
        part["tail_ranks"] = shift(part["tail_ranks"])
        return part

    monkeypatch.setattr(_kernel, "_scan", faulty)
    with pytest.raises(ConsistencyError) as exc:
        scan_skew(2, 3, mode)
    assert str(exc.value) == message


# records OPENBLAS_NUM_THREADS as numpy starts to load, and then runs a scan,
# which loads numpy if nothing has
_WATCH_NUMPY = ("import os, sys\n"
                "loaded_under = []\n"
                "class Watch:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name == 'numpy':\n"
                "            loaded_under.append("
                "os.environ.get('OPENBLAS_NUM_THREADS'))\n"
                "sys.meta_path.insert(0, Watch())\n")
_SCAN = ("from motivic.counting import scan_skew\n"
         "scan_skew(2, 3)\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_import_runs_on_one_thread():
    # nothing calls BLAS, so numpy's OpenBLAS pool would only spin idle;
    # the scan is what loads numpy
    code = (_WATCH_NUMPY
            + "import motivic\n"
            "print(len(os.listdir('/proc/self/task')))\n"
            "import motivic.cli\n"
            "print(len(os.listdir('/proc/self/task')))\n"
            + _SCAN
            + "print(len(os.listdir('/proc/self/task')), *loaded_under)")
    out = fresh_python("-c", code, unset=["OPENBLAS_NUM_THREADS"])
    assert out.stdout.decode().split() == ["1", "1", "1", "1"]


def test_import_keeps_callers_openblas_thread_count():
    code = (_WATCH_NUMPY + "import motivic.cli\n" + _SCAN
            + "print(os.environ['OPENBLAS_NUM_THREADS'], *loaded_under)")
    out = fresh_python("-c", code, OPENBLAS_NUM_THREADS="2")
    assert out.stdout.decode().split() == ["2", "2"]


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
def test_mod_by_floor_division_matches_remainder(dtype):
    info = np.iinfo(dtype)
    draw = random.Random(info.bits)
    a = np.concatenate([
        np.arange(info.min, info.min + 1000),
        np.arange(-1000, 1000),
        np.arange(info.max - 999, info.max + 1, dtype=np.int64),
        np.array([draw.randrange(info.min, info.max + 1)
                  for _ in range(1000)])]).astype(dtype)
    for p in (2, 3, 5, 13, 743, 1009, 32749):
        got = _kernel._mod(a, p)
        assert got.dtype == dtype
        assert np.array_equal(got, a % p), p


def test_int64_overflow_refused_before_scanning(monkeypatch):
    monkeypatch.setattr(_kernel, "_scan",
                        lambda *args: pytest.fail("the scan started"))
    # the cap admits 751^6 and 19^15 matrices; int64 could overflow in the
    # spot check's cofactor expansion (n = 2) or in the matrix index (n = 3)
    with pytest.raises(CapExceededError, match="overflow int64"):
        scan_skew(2, 751, "hist", cap=10 ** 18)
    with pytest.raises(CapExceededError, match="overflow int64"):
        scan_skew(3, 19, "hist", cap=10 ** 20)
    # the largest admitted primes; at n = 1 HIST_MAX refuses first
    for n, p in ((1, 2147483647), (2, 743), (3, 17), (1, 99999989)):
        counting._check_int64(n, p, p ** (n * (2 * n - 1)))
