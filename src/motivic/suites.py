"""Named verification suites: ordered checks with expected values pinned to
quoted results, run deterministically and emitted as stable reports.
"""

from __future__ import annotations

import json
import random
from itertools import product as iproduct

from . import hilb4 as h4
from ._record import Record
from .counting import (DEFAULT_CAP, _exceeds_cap, _power_text, check_cap,
                       scan_skew)
from .errors import CapExceededError
from .laurent import (BettiPoly, LaurentPoly2, ONE, divide_exact, format_poly,
                      gaussian_binomial, parse_poly, q_power,
                      self_dual_convert)
from .skew import (GF, SkewMatrix, bareiss_det, check_equivariance, mat_det,
                   pfaffian, pfaffian_pairings, skew_rank, stratum_dim)
from .spaces import (ConeOverPlucker, Grass, HomSpaceM, MilnorFibreF,
                     PfaffianHypersurface, betti_grassmannian,
                     catalog_betti_F, catalog_betti_M1, catalog_e_F,
                     catalog_e_GL, catalog_e_M, catalog_e_Sp, dimension, ec)
from .weights import (SKEW6_DIM, FilteredHodgeObject, e_ic_X, ec_ic_X,
                      ec_of_object, ec_vanishing_cycles,
                      phi4_restricted_object, twist_bookkeeping_check,
                      vanishing_cycle_object)

_SEED = 741501


def _canon(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_canon(x) for x in v) + "]"
    if isinstance(v, dict):
        inner = ", ".join(f"{k}: {_canon(v[k])}" for k in sorted(v, key=str))
        return "{" + inner + "}"
    return str(v)


class CheckResult(Record):
    __slots__ = ("description", "citation", "expected", "observed")

    def __init__(self, description, citation, expected, observed):
        self.description = description
        self.citation = citation
        self.expected = expected
        self.observed = observed

    @property
    def passed(self):
        return self.expected == self.observed

    def to_json_dict(self):
        return {"description": self.description, "citation": self.citation,
                "expected": self.expected, "observed": self.observed,
                "pass": self.passed}


def _check(description, citation, expected, observed):
    return CheckResult(description, citation, _canon(expected),
                       _canon(observed))


class SuiteResult(Record):
    __slots__ = ("suite", "checks")

    def __init__(self, suite, checks):
        self.suite = suite
        self.checks = checks

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json_dict(self):
        return {"suite": self.suite,
                "checks": [c.to_json_dict() for c in self.checks],
                "summary": {"total": len(self.checks),
                            "passed": sum(c.passed for c in self.checks)}}


class SuiteContext(Record):
    __slots__ = ("p_list", "cap")

    def __init__(self, p_list=(2, 3), cap=DEFAULT_CAP):
        check_cap(cap)  # before any suite runs, whatever suites run
        self.p_list = p_list
        self.cap = cap


# -- pfaffian ---------------------------------------------------------------------

def _random_skew(rng, size):
    m = size * (size - 1) // 2
    return SkewMatrix(size, [rng.randint(-3, 3) for _ in range(m)])


def _suite_pfaffian(ctx):
    rng = random.Random(_SEED)
    checks = []

    good = 0
    f3 = GF(3)
    for entries in iproduct(range(3), repeat=6):
        a, b, c, d, e, f = entries
        A = SkewMatrix(4, entries, f3)
        if pfaffian(A) == (a * f - b * e + c * d) % 3:
            good += 1
    checks.append(_check(
        "first-row expansion reproduces a*f - b*e + c*d on all 729 "
        "4x4 matrices over F_3", "Ex 2.2", 729, good))

    for p in (2, 3):
        dom = GF(p)
        good = 0
        for entries in iproduct(range(p), repeat=6):
            A = SkewMatrix(4, entries, dom)
            if pfaffian(A) ** 2 % p == mat_det(A.full(), dom):
                good += 1
        checks.append(_check(
            f"Pf(A)^2 = det(A) for all {p ** 6} 4x4 matrices over F_{p}",
            "§2.2", p ** 6, good))

    good = 0
    for size in (6, 8):
        for _ in range(60):
            A = _random_skew(rng, size)
            if pfaffian(A) ** 2 == bareiss_det(A.full()):
                good += 1
    checks.append(_check(
        "Pf(A)^2 = det(A) on 120 random integer 6x6 and 8x8 matrices "
        "with entries in [-3, 3]", "§2.2", 120, good))

    checks.append(_check(
        "Pfaffian term count is (2n-1)!! for 2n = 2, 4, 6", "§2.2",
        [1, 3, 15], [len(pfaffian_pairings(s)) for s in (2, 4, 6)]))

    checks.append(_check(
        "Pfaffian of the standard rank-2k 6x6 matrices, k = 0..3 "
        "(sign is a pinned regression constant)", "eq (3)",
        [0, 0, 0, -1],
        [pfaffian(SkewMatrix.standard_rank(3, k)) for k in range(4)]))

    checks.append(_check(
        "rank of the standard rank-2k 6x6 matrices over F_2", "eq (3)",
        [0, 2, 4, 6],
        [skew_rank(SkewMatrix.standard_rank(3, k, GF(2))) for k in range(4)]))

    good = 0
    for _ in range(100):
        A = _random_skew(rng, 6)
        A = SkewMatrix(6, A.upper, f3)
        while True:
            g = [[rng.randrange(3) for _ in range(6)] for _ in range(6)]
            if mat_det(g, f3):
                break
        if check_equivariance(A, g):
            good += 1
    checks.append(_check(
        "Pf(g A g^t) = det(g) Pf(A) on 100 random invertible pairs "
        "over F_3, 6x6", "eq (4)", 100, good))

    diag_ok = []
    for t in (1, 2):
        g = [[t if i == j == 0 else (1 if i == j else 0) for j in range(6)]
             for i in range(6)]
        A = SkewMatrix(6, _random_skew(rng, 6).upper, f3)
        diag_ok.append(check_equivariance(A, g))
    checks.append(_check(
        "equivariance under diag(t, 1, ..., 1) for t = 1, 2 over F_3",
        "Prop 2.3(i) proof", [True, True], diag_ok))

    checks.append(_check(
        "stratum dimensions k(4n - 2k - 1) for n = 3, k = 1, 2, 3",
        "Prop 2.1", [9, 14, 15], [stratum_dim(3, k) for k in (1, 2, 3)]))

    codims = []
    for n in (2, 3, 4):
        full = n * (2 * n - 1)
        codims.append([full - stratum_dim(n, n),
                       full - stratum_dim(n, n - 1),
                       full - stratum_dim(n, n - 2)])
    checks.append(_check(
        "codimensions of the top three strata are 0, 1, 6 for n = 2, 3, 4",
        "Ex 2.1", [[0, 1, 6]] * 3, codims))

    return checks


# -- milnor -----------------------------------------------------------------------

def _suite_milnor(ctx):
    checks = []

    for n in (2, 3):
        checks.append(_check(
            f"E(GL({2 * n})) = E(Sp({2 * n})) * E(M) for n = {n}",
            "Prop 2.3(iii) proof", catalog_e_GL(2 * n),
            catalog_e_Sp(n) * catalog_e_M(n)))
        checks.append(_check(
            f"E(M) = (1 - xy) * E(F) for n = {n}", "Prop 2.3(i)",
            catalog_e_M(n), (ONE - q_power(1)) * catalog_e_F(n)))

    checks.append(_check(
        "E(GL(6)) / E(Sp(6)) divides exactly to the odd product",
        "Prop 2.3(iii) proof", catalog_e_M(3),
        divide_exact(catalog_e_GL(6), catalog_e_Sp(3))))

    one_plus_t = BettiPoly({0: 1, 1: 1})
    for n in (2, 3):
        checks.append(_check(
            f"B(M1, t) = (1 + t) * B(F, t) for n = {n}",
            "Prop 2.3(ii) proof", catalog_betti_M1(n),
            one_plus_t * catalog_betti_F(n)))

    checks.append(_check("b_5(F) = 1 for n = 3", "Prop 2.3(ii) proof",
                         1, catalog_betti_F(3).coeff(5)))
    checks.append(_check(
        "top Betti number b_(2n^2-n-1)(F) = 1 for n = 2, 3, 4",
        "Prop 2.3(ii)", [1, 1, 1],
        [catalog_betti_F(n).coeff(2 * n * n - n - 1) for n in (2, 3, 4)]))

    checks.append(_check("B(F, t) for n = 3", "Ex 2.5",
                         BettiPoly({0: 1, 5: 1, 9: 1, 14: 1}),
                         catalog_betti_F(3)))
    checks.append(_check(
        "E(F) for n = 3", "Prop 2.3(iii)",
        parse_poly("(1 - x^3*y^3) * (1 - x^5*y^5)"), catalog_e_F(3)))
    ec_f3 = self_dual_convert(catalog_e_F(3), dimension(MilnorFibreF(3)))
    checks.append(_check(
        "E_c(F) for n = 3 by smooth duality in dimension 14", "(VD2)",
        parse_poly("(x*y)^14 - (x*y)^11 - (x*y)^9 + (x*y)^6"), ec_f3))

    twists = {0: 0, 5: 3, 9: 5, 14: 8}
    rebuilt = sum(((-1) ** k * catalog_betti_F(3).coeff(k) * q_power(w)
                   for k, w in twists.items()), LaurentPoly2())
    checks.append(_check(
        "E(F, n=3) matches the Betti numbers weighted by their Tate twists",
        "Ex 2.5", catalog_e_F(3), rebuilt))

    gb = gaussian_binomial(6, 2)
    by = betti_grassmannian(2, 6)
    checks.append(_check(
        "[6 choose 2]_q coefficients equal B(Gr(2,6), t) under t^2 = q",
        "Prop 2.7(iii) proof", True,
        all(by.coeff(2 * a) == c for (a, _), c in gb.terms.items())
        and by.total() == gb.eval_q(1)))
    checks.append(_check("B(Gr(2,6), 1) = 15", "derived", 15, by.total()))

    link = [by.coeff(k) - by.coeff(k - 2) for k in range(10)]
    checks.append(_check(
        "nonzero b_k(U), k <= 9, via b_k(Y) - b_(k-2)(Y) are "
        "b_0 = b_4 = b_8 = 1", "Prop 2.7(iii) proof",
        [1 if k in (0, 4, 8) else 0 for k in range(10)], link))

    ec_m3 = self_dual_convert(catalog_e_M(3), dimension(HomSpaceM(3)))
    checks.append(_check(
        "E_c(M) = (xy - 1) * E_c(F) for n = 3", "Prop 2.3(i)",
        ec_m3, (q_power(1) - ONE) * ec_f3))

    checks.append(_check(
        "affine n-space converts between E = 1 and E_c = q^n, n = 0..4",
        "derived", [True] * 5,
        [self_dual_convert(q_power(n), n) == ONE
         and self_dual_convert(ONE, n) == q_power(n)
         for n in range(5)]))
    checks.append(_check(
        "(xy)^k is a conversion fixed point in dimension 2k, k = 0..4",
        "derived", [True] * 5,
        [self_dual_convert(q_power(k), 2 * k) == q_power(k)
         for k in range(5)]))

    checks.append(_check(
        "Euler characteristics: E(F)(1,1) = 0 and B(F,1) = 4 for n = 3",
        "derived", [0, 4],
        [catalog_e_F(3).eval_q(1), catalog_betti_F(3).total()]))

    return checks


# -- mhm --------------------------------------------------------------------------

def _suite_mhm(ctx):
    checks = []
    obj = vanishing_cycle_object()

    checks.append(_check("weights of the filtration quotients", "Thm main1",
                         [14, 15, 16], obj.weights()))
    checks.append(_check("composition-factor kinds are palindromic",
                         "Thm 2.8", True, obj.kinds_palindromic()))

    e_vc, ec_vc = ec_vanishing_cycles("stalk-stratum")
    e_wt, ec_wt = ec_vanishing_cycles("weight-filtration")
    checks.append(_check(
        "ordinary E: stalk-stratum route equals weight-filtration route",
        "Thm 2.10", e_vc, e_wt))
    checks.append(_check(
        "E_c: stalk-stratum route equals weight-filtration route",
        "Thm 2.10", ec_vc, ec_wt))

    checks.append(_check(
        "E of the vanishing-cycle module", "Thm 2.10",
        parse_poly("(x*y)^3 * ((x*y)^5 - (x*y)^2 - 1)"), e_vc))
    checks.append(_check(
        "E_c of the vanishing-cycle module", "Thm 2.10",
        parse_poly("(x*y)^7 * (1 - (x*y)^3 - (x*y)^5)"), ec_vc))

    checks.append(_check(
        "E(X, IC_X) from the stalk table", "Prop 2.7(iii) + Rmk 2.9",
        parse_poly("-(1 + (x*y)^2 + (x*y)^4)"), e_ic_X()))
    checks.append(_check(
        "E_c(X, IC_X) by self-duality in dimension 9", "Rmk 2.10",
        parse_poly("-((x*y)^5 + (x*y)^7 + (x*y)^9)"), ec_ic_X()))
    checks.append(_check(
        "Euler specialisations E(1,1): vanishing cycles -1, IC -3",
        "Ex 2.5", [-1, -3],
        [e_vc.eval_q(1), e_ic_X().eval_q(1)]))

    checks.append(_check(
        "self-duality with n = 15 swaps E and E_c", "(VD2)",
        [True, True], [self_dual_convert(e_vc, SKEW6_DIM) == ec_vc,
                       self_dual_convert(ec_vc, SKEW6_DIM) == e_vc]))

    phi4 = phi4_restricted_object()
    checks.append(_check(
        "restricted Hilbert-scheme filtration weights", "Cor to Prop 3.4",
        [11, 12, 13], phi4.weights()))
    consts = [f for f in phi4.factors if f.kind == "constant"]
    vals = [ec_of_object(FilteredHodgeObject(factors=(f,)))
            for f in consts]
    checks.append(_check(
        "constant factors on S4 contribute -(xy)^7 and -(xy)^8",
        "Cor to Prop 3.4",
        [parse_poly("-(x*y)^7"), parse_poly("-(x*y)^8")], vals))

    checks.append(_check(
        "shift/twist ledger for m = 4", "§3.1-3.3",
        {"m": 4, "dim": 36, "twist": 12, "lemma13_l": 9, "embed_dim": 18,
         "residual_shift": 3, "residual_twist": 3, "residual": "[3](3)",
         "trivial": False},
        twist_bookkeeping_check(4)))
    checks.append(_check(
        "shift/twist ledger for m = 1 and m = 3 (trivial module cases)",
        "§3.2", [[3, 0, True, 3], [21, 6, True, 9]],
        [[r["dim"], r["twist"], r["trivial"], r["hilb_dim"]]
         for r in (twist_bookkeeping_check(1), twist_bookkeeping_check(3))]))

    return checks


# -- hilb4 ------------------------------------------------------------------------

# Quoted closed forms of the three strata contributions and of their sum
# (Thm 3.7 and its proof).  The library only computes; these rows and
# `motivic hilb4` compare against them.
HILB4_STRATA_QUOTED = {
    "V4": "(x*y)^7 * ((x*y)^5 + (x*y)^3 - 1)",
    "L4": "(x*y)^6 * (1 + x*y + (x*y)^2)",
    "P4minusL4": "(x*y)^7 * (1 + x*y + (x*y)^2)^2",
}
HILB4_TOTAL_QUOTED = ("(x*y)^6 * ((x*y)^6 + (x*y)^5 + 3*(x*y)^4 + 3*(x*y)^3 "
                      "+ 3*(x*y)^2 + (x*y) + 1)")


def _suite_hilb4(ctx):
    checks = []

    checks.append(_check(
        "open-stratum contribution", "Thm 3.7 proof",
        parse_poly(HILB4_STRATA_QUOTED["V4"]), h4.ec_V4_contribution()))
    checks.append(_check(
        "E_c of the collinear stratum L4", "Thm 3.7 proof",
        parse_poly("(x*y)^4 * (x*y)^2 * (1 + x*y + (x*y)^2)"), h4.ec_L4()))
    checks.append(_check(
        "module contribution of L4", "Thm 3.7 proof",
        parse_poly(HILB4_STRATA_QUOTED["L4"]), h4.contribution_L4()))
    checks.append(_check(
        "collinear locus inside a plane", "Thm 3.7 proof",
        parse_poly("(x*y)^4 * (x*y) * (1 + x*y)"), h4.collinear_in_plane()))
    checks.append(_check(
        "strictly planar contribution", "Thm 3.7 proof",
        parse_poly(HILB4_STRATA_QUOTED["P4minusL4"]), h4.ec_P4_minus_L4()))

    total = h4.ec_hilb4_total()
    checks.append(_check(
        "total E_c of the four-point module", "Thm 3.7",
        parse_poly(HILB4_TOTAL_QUOTED), total))
    checks.append(_check(
        "strata contributions sum to the total", "Prop 1.1", total,
        h4.ec_V4_contribution() + h4.contribution_L4()
        + h4.ec_P4_minus_L4()))
    checks.append(_check("Euler specialisation of the total", "Rmk 3.8",
                         13, total.eval_q(1)))
    coeffs = [total.coeff(a, a) for a in range(6, 13)]
    checks.append(_check("coefficient list is palindromic", "derived",
                         [1, 1, 3, 3, 3, 1, 1], coeffs))
    checks.append(_check("palindrome reads the same reversed", "derived",
                         coeffs, coeffs[::-1]))

    checks.append(_check(
        "four points on the affine plane (stored in the point-count "
        "normalisation, though also quoted as an ordinary E)",
        "Thm 3.7 proof",
        parse_poly("(x*y)^5 + 2*(x*y)^6 + (x*y)^7 + (x*y)^8"),
        h4.goettsche_coeff(4)))
    series = h4.goettsche_series(10)
    agree = sum(h4.goettsche_coeff(n) == series.coeff(n) for n in range(11))
    checks.append(_check(
        "generating-function and partition-statistic routes agree, n <= 10",
        "derived", 11, agree))

    checks.append(_check(
        "smooth torus-fixed points contribute the cited constant",
        "Rmk 3.8",
        "(x*y)^6 + (x*y)^7 + 3*(x*y)^8 + (x*y)^9 + 3*(x*y)^10 + 2*(x*y)^11 "
        "+ (x*y)^12", format_poly(h4.smooth_fixed_point_poly())))
    residual = h4.singular_fixed_point_residual()
    checks.append(_check("singular fixed-point residual", "Rmk 3.8",
                         parse_poly("2*(x*y)^9 - (x*y)^11"), residual))
    checks.append(_check(
        "Euler values: residual 1, smooth constant 12", "Rmk 3.8",
        [1, 12], [residual.eval_q(1),
                  h4.smooth_fixed_point_poly().eval_q(1)]))

    return checks


# -- dt ---------------------------------------------------------------------------

def _suite_dt(ctx):
    checks = []
    counts = [len(h4.plane_partitions(m)) for m in range(11)]
    macmahon = h4.macmahon_series(10).integer_coefficients()
    checks.append(_check(
        "plane partitions of weight 4", "Rmk 3.8", 13, counts[4]))
    checks.append(_check(
        "plane-partition counts match the generating function, m <= 10",
        "Introduction", macmahon, counts))
    checks.append(_check("generating-function coefficient at z^6",
                         "derived", 48, macmahon[6]))
    checks.append(_check(
        "Euler value of the four-point total equals the weight-4 count",
        "Rmk 3.8", counts[4], h4.ec_hilb4_total().eval_q(1)))
    checks.append(_check(
        "four points on the affine line contribute q^n, n = 0, 2, 4",
        "Thm 3.7 proof", [ONE, q_power(2), q_power(4)],
        [h4.hilb_line(n) for n in (0, 2, 4)]))
    return checks


# -- katz -------------------------------------------------------------------------

def _katz_rows(n, p, scan):
    """The 11 katz rows of the 2n x 2n scan over F_p, in the order that
    `_suite_katz` gives."""
    rows = []
    m = n * (2 * n - 1)
    total = p ** m
    size = 2 * n
    tag = f"{size}x{size} over F_{p}"
    pf0 = scan.pf_counts[0]
    nonzero = total - pf0
    fibre1 = scan.pf_counts.get(1, 0)
    rk = scan.rank_counts

    rows.append(_check(
        f"whole skew space {tag}", "eq (1)",
        q_power(m).eval_q(p), scan.total))
    ec_f = ec(MilnorFibreF(n))
    rows.append(_check(
        f"Milnor fibre {{Pf = 1}} {tag} matches E_c(F) at "
        f"xy = {p}", "Prop 2.3(iii) + (VD2)",
        ec_f.eval_q(p), fibre1))
    rows.append(_check(
        f"nondegenerate locus {{Pf != 0}} {tag} matches E_c(M)",
        "Prop 2.3(iii)", ec(HomSpaceM(n)).eval_q(p), nonzero))
    rows.append(_check(
        f"hypersurface {{Pf = 0}} {tag} matches E_c(Z)",
        "Prop 1.1", ec(PfaffianHypersurface(n)).eval_q(p), pf0))
    rows.append(_check(
        f"triviality: #{{Pf != 0}} = (p-1) #{{Pf = 1}} {tag}",
        "Prop 2.3(i)", (p - 1) * fibre1, nonzero))
    rows.append(_check(
        f"all nonzero fibres have equal size {tag}",
        "Prop 2.3(i)", True,
        all(scan.pf_counts[c] == fibre1 for c in range(1, p))))
    rows.append(_check(
        f"rank buckets sum to p^{m} {tag}", "Prop 2.1",
        total, sum(rk.values())))
    rows.append(_check(
        f"only the zero matrix has rank 0 {tag}", "eq (3)",
        1, rk[0]))
    cone = ConeOverPlucker(Grass(2, size))
    rows.append(_check(
        f"rank <= 2 locus {tag} matches E_c of the cone over "
        f"Gr(2,{size})", "§2.4", ec(cone).eval_q(p),
        rk[0] + rk[2]))
    rows.append(_check(
        f"rank <= 2 locus {tag} equals 1 + (p-1) * "
        f"[{size} choose 2]_q at q = {p}", "§2.4",
        1 + (p - 1) * gaussian_binomial(size, 2).eval_q(p),
        rk[0] + rk[2]))
    rows.append(_check(
        f"full-rank bucket {tag} equals #{{Pf != 0}}", "derived",
        nonzero, rk[size]))
    return rows


def _suite_katz(ctx):
    """Prop 1.1, Prop 2.3 and §2.4 by counting.  For each p in `ctx.p_list`
    and n = 2, 3 it scans the p^m skew 2n x 2n matrices over F_p, m =
    n(2n-1), and gives 11 rows, in order: (1) the whole space has p^m
    matrices; #{Pf = 1}, #{Pf != 0} and #{Pf = 0} are (2) E_c(F), (3)
    E_c(M) and (4) E_c(Z) at xy = p; (5) #{Pf != 0} = (p-1) #{Pf = 1};
    (6) each fibre {Pf = c}, c != 0, has the size of {Pf = 1}; (7) the
    rank buckets sum to p^m; (8) only the zero matrix has rank 0; the
    rank <= 2 locus is (9) E_c of the cone over Gr(2, 2n) and (10)
    1 + (p-1) [2n choose 2]_q at q = p; (11) the full-rank bucket is
    #{Pf != 0}.

    The shapes are scanned largest first, each once, and their rows built
    in the order above.  A shape whose p^m exceeds `ctx.cap` is skipped and
    gives no row.  The suite refuses with CapExceededError (exit 3) when it
    skips every shape; `SuiteContext` has already refused a cap above
    SCAN_MAX, which admits no shape past p = 53 at n = 2 and p = 5 at
    n = 3.
    """
    # largest first: a scan above PURE_MAX matrices loads numpy's kernel,
    # which the smaller scans after it then take instead of pure Python;
    # each shape's rows are built right after its scan, as before
    shapes = {(n, p) for p in ctx.p_list for n in (2, 3)
              if not _exceeds_cap(p, n * (2 * n - 1), ctx.cap)}
    rows = {(n, p): _katz_rows(n, p, scan_skew(n, p, cap=ctx.cap))
            for n, p in sorted(shapes, key=lambda shape: shape[1] ** (
                shape[0] * (2 * shape[0] - 1)), reverse=True)}
    checks = [row for p in ctx.p_list for n in (2, 3)
              for row in rows.get((n, p), ())]
    if not checks:
        sizes = ", ".join(_power_text(p, n * (2 * n - 1))
                          for p in ctx.p_list for n in (2, 3))
        raise CapExceededError(
            f"every requested enumeration exceeds the cap {ctx.cap}: "
            f"{sizes}")
    return checks


# -- registry and reports -----------------------------------------------------------

SUITES = {
    "pfaffian": _suite_pfaffian,
    "milnor": _suite_milnor,
    "mhm": _suite_mhm,
    "hilb4": _suite_hilb4,
    "dt": _suite_dt,
    "katz": _suite_katz,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name, ctx=None):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; "
                       f"choose from {', '.join(SUITE_NAMES)}")
    ctx = ctx or SuiteContext()
    return SuiteResult(suite=name, checks=SUITES[name](ctx))


def canonical_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit_report(results, fmt="text"):
    """Stable report for a list of suite results; canonical JSON or text."""
    if fmt == "json":
        if not results:
            return canonical_json({"summary": {"total": 0, "passed": 0}})
        if len(results) == 1:
            return canonical_json(results[0].to_json_dict())
        dicts = [r.to_json_dict() for r in results]
        return canonical_json({
            "suites": dicts,
            "summary": {
                "total": sum(d["summary"]["total"] for d in dicts),
                "passed": sum(d["summary"]["passed"] for d in dicts)}})
    lines = []
    total = passed = 0
    for r in results:
        for c in r.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {r.suite}: {c.description} ({c.citation})")
            if not c.passed:
                lines.append(f"       expected: {c.expected}")
                lines.append(f"       observed: {c.observed}")
        total += len(r.checks)
        passed += sum(c.passed for c in r.checks)
        lines.append(f"suite {r.suite}: {sum(c.passed for c in r.checks)}"
                     f"/{len(r.checks)} passed")
    lines.append(f"total: {passed}/{total} passed")
    return "\n".join(lines) + "\n"
