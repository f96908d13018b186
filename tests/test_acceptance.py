"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  All comparisons are exact (integer or polynomial equality); runtime
budgets are asserted where stated."""

import json
import random
import time
from contextlib import contextmanager
from itertools import product

from conftest import ACCEPTANCE_LINES

from motivic import _kernel
from motivic.cli import main
from motivic.counting import scan_skew
from motivic.hilb4 import (dt_invariant, ec_hilb4_total, goettsche_coeff,
                           goettsche_series, macmahon_series,
                           singular_fixed_point_residual,
                           smooth_fixed_point_poly)
from motivic.laurent import (LaurentPoly2, ONE, dualize, gaussian_binomial,
                             parse_poly, q_power, self_dual_convert)
from motivic.skew import (GF, SkewMatrix, bareiss_det, check_equivariance,
                          mat_det, pfaffian)
from motivic.spaces import (ConeOverPlucker, Grass, MilnorFibreF,
                            betti_grassmannian, catalog_betti_F,
                            catalog_betti_M1, catalog_e_F, catalog_e_GL,
                            catalog_e_M, catalog_e_Sp, ec)
from motivic.weights import ec_vanishing_cycles

rng = random.Random(624001)


@contextmanager
def criterion(number, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        line = f"[FAIL] criterion {number}: {description}"
        print(line, flush=True)
        ACCEPTANCE_LINES.append(line)
        raise
    dt = time.perf_counter() - t0
    line = f"[PASS] criterion {number}: {description} ({dt:.2f}s)"
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)


def cli_json(argv):
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def random_skew(size, lo, hi, domain=None):
    m = size * (size - 1) // 2
    entries = [rng.randint(lo, hi) for _ in range(m)]
    return SkewMatrix(size, entries, domain) if domain \
        else SkewMatrix(size, entries)


def test_criterion_1_hilb4_total():
    with criterion(1, "Hilbert-scheme total and strata intermediates"):
        t0 = time.perf_counter()
        code, out = cli_json(["hilb4", "strata", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        want = {
            "V4": "(x*y)^7 * ((x*y)^5 + (x*y)^3 - 1)",
            "L4": "(x*y)^6 * (1 + x*y + (x*y)^2)",
            "P4minusL4": "(x*y)^7 * (1 + x*y + (x*y)^2)^2",
        }
        for row in payload["strata"]:
            assert parse_poly(row["contribution"]) == \
                parse_poly(want[row["label"]])
        total = parse_poly(payload["total"])
        assert total == parse_poly(
            "(x*y)^6 * ((x*y)^6 + (x*y)^5 + 3*(x*y)^4 + 3*(x*y)^3 "
            "+ 3*(x*y)^2 + (x*y) + 1)")
        assert total == sum(
            (parse_poly(r["contribution"]) for r in payload["strata"]),
            ONE * 0)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_two_route_vanishing_cycles():
    with criterion(2, "vanishing-cycle E-polynomials by two routes"):
        t0 = time.perf_counter()
        results = [ec_vanishing_cycles(r)
                   for r in ("stalk-stratum", "weight-filtration")]
        assert results[0] == results[1]  # bit-exact route agreement
        e, e_c = results[0]
        assert e == parse_poly("(x*y)^3 * ((x*y)^5 - (x*y)^2 - 1)")
        assert e_c == parse_poly("(x*y)^7 * (1 - (x*y)^3 - (x*y)^5)")
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_dt_categorification():
    with criterion(3, "Euler value = plane-partition count = series "
                      "coefficient; all m <= 10"):
        t0 = time.perf_counter()
        coeffs = macmahon_series(10).integer_coefficients()
        assert int(ec_hilb4_total().eval_at(1, 1)) == 13
        assert dt_invariant(4) == 13 == coeffs[4]
        for m in range(11):
            assert dt_invariant(m) == coeffs[m]
        assert time.perf_counter() - t0 < 5.0


def test_criterion_4_pfaffian_correctness():
    with criterion(4, "Pf^2 = det exhaustively and on randoms; 4x4 "
                      "pattern on all 729 F_3 instances"):
        t0 = time.perf_counter()
        for p in (2, 3):
            dom = GF(p)
            for entries in product(range(p), repeat=6):
                A = SkewMatrix(4, entries, dom)
                assert pfaffian(A) ** 2 % p == mat_det(A.full(), dom)
        for size in (6, 8):
            for _ in range(100):
                A = random_skew(size, -3, 3)
                assert pfaffian(A) ** 2 == bareiss_det(A.full())
        for entries in product(range(3), repeat=6):
            a, b, c, d, e, f = entries
            A = SkewMatrix(4, entries, GF(3))
            assert pfaffian(A) == (a * f - b * e + c * d) % 3
        assert time.perf_counter() - t0 < 5.0


def test_criterion_5_equivariance():
    with criterion(5, "Pf(g A g^t) = det(g) Pf(A) on 100 random pairs "
                      "over F_3"):
        dom = GF(3)
        done = 0
        while done < 100:
            A = random_skew(6, 0, 2, dom)
            g = [[rng.randrange(3) for _ in range(6)] for _ in range(6)]
            if mat_det(g, dom) == 0:
                continue
            assert check_equivariance(A, g)
            done += 1


def test_criterion_6_finite_field_oracle():
    with criterion(6, "finite-field oracle agreement (Katz checks)"):
        t0 = time.perf_counter()
        s22 = scan_skew(2, 2, "hist", workers=1)
        s23 = scan_skew(2, 3, "hist", workers=1)
        s32 = scan_skew(3, 2, "full", workers=1)
        f2_elapsed = time.perf_counter() - t0

        assert s32.rank_counts[0] + s32.rank_counts[2] == 652
        assert ec(ConeOverPlucker(Grass(2, 6))).eval_q(2) == 652
        assert s22.pf_counts[1] == 28 == ec(MilnorFibreF(2)).eval_q(2)
        assert s32.pf_counts[1] == 13888 == ec(MilnorFibreF(3)).eval_q(2)
        assert s23.pf_counts[1] == 234 == ec(MilnorFibreF(2)).eval_q(3)
        assert sum(s32.rank_counts.values()) == 2 ** 15 == 32768
        for s, p in ((s22, 2), (s23, 3), (s32, 2)):
            nonzero = s.total - s.pf_counts[0]
            assert nonzero == (p - 1) * s.pf_counts[1]
        assert f2_elapsed < 1.0  # both F_2 scans (and the tiny F_3 n=2)

        t1 = time.perf_counter()
        s33 = scan_skew(3, 3, "full", workers=4)
        f3_elapsed = time.perf_counter() - t1
        assert sum(s33.rank_counts.values()) == 3 ** 15
        assert s33.total - s33.pf_counts[0] == 2 * s33.pf_counts[1]
        assert s33.pf_counts[1] == ec(MilnorFibreF(3)).eval_q(3)
        assert s33.rank_counts[0] + s33.rank_counts[2] == \
            1 + 2 * gaussian_binomial(6, 2).eval_q(3)
        assert f3_elapsed < 60.0


def test_criterion_7_formula_family_identities():
    with criterion(7, "group/fibre formula identities and Betti data"):
        for n in (2, 3):
            assert catalog_e_GL(2 * n) == catalog_e_Sp(n) * catalog_e_M(n)
            assert catalog_e_M(n) == (ONE - q_power(1)) * catalog_e_F(n)
            assert catalog_betti_M1(n).coeffs == \
                (catalog_betti_F(n) *
                 catalog_betti_F(2).__class__({0: 1, 1: 1})).coeffs
        assert catalog_betti_F(3).coeff(5) == 1
        for n in (2, 3, 4):
            assert catalog_betti_F(n).coeff(2 * n * n - n - 1) == 1
        gb = gaussian_binomial(6, 2)
        by = betti_grassmannian(2, 6)
        assert all(by.coeff(2 * a) == c for (a, _), c in gb.terms.items())
        assert gb.eval_q(1) == by.total()
        link = [by.coeff(k) - by.coeff(k - 2) for k in range(10)]
        assert [k for k, v in enumerate(link) if v == 1] == [0, 4, 8]
        assert all(v in (0, 1) for v in link)


def test_criterion_8_duality_laws():
    with criterion(8, "duality involutions on 1000 random polynomials; "
                      "E(F,3) to E_c(F,3)"):
        def rand_poly():
            terms = {}
            for _ in range(rng.randint(0, 6)):
                e = (rng.randint(-6, 6), rng.randint(-6, 6))
                terms[e] = rng.randint(-5, 5)
            return LaurentPoly2(terms)

        for _ in range(1000):
            p = rand_poly()
            n = rng.randint(-6, 6)
            assert dualize(dualize(p)) == p
            assert self_dual_convert(self_dual_convert(p, n), n) == p
        ec_f3 = self_dual_convert(catalog_e_F(3), 14)
        assert ec_f3 == parse_poly("(x*y)^14 - (x*y)^11 - (x*y)^9 + (x*y)^6")
        assert ec_f3.eval_q(2) == 13888


def test_criterion_9_goettsche_pin():
    with criterion(9, "four-point plane coefficient pinned; routes agree "
                      "for n <= 10"):
        assert goettsche_coeff(4) == \
            parse_poly("(x*y)^5 + 2*(x*y)^6 + (x*y)^7 + (x*y)^8")
        series = goettsche_series(10)
        for n in range(11):
            assert goettsche_coeff(n) == series.coeff(n)


def test_criterion_10_fixed_point_residual():
    with criterion(10, "singular fixed-point residual"):
        residual = singular_fixed_point_residual()
        assert residual == parse_poly("2*(x*y)^9 - (x*y)^11")
        assert ec_hilb4_total() - smooth_fixed_point_poly() == residual
        assert int(residual.eval_at(1, 1)) == 1


def test_criterion_11_determinism(monkeypatch):
    # every scan runs in one thread at any worker count; chunks of 2^14
    # also cut the 2^15-matrix scan's tails into runs of 1024 and its
    # row-0 tables smaller, and the bytes must not move
    monkeypatch.setattr(_kernel, "_CHUNK", 1 << 14)
    with criterion(11, "byte-identical suite JSON across runs and worker "
                      "counts 1, 2, 8"):
        fast = ["pfaffian", "milnor", "mhm", "hilb4", "dt"]
        for name in fast:
            outs = set()
            for w in ("1", "2", "8"):
                code, out = cli_json(["verify", name, "--workers", w,
                                      "--format", "json"])
                assert code == 0
                outs.add(out)
            assert len(outs) == 1
        outs = set()
        for w in ("1", "2", "8"):
            code, out = cli_json(["verify", "katz", "--workers", w,
                                  "--format", "json"])
            assert code == 0
            outs.add(out)
        assert len(outs) == 1
