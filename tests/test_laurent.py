import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from motivic.errors import ConsistencyError, ParseError
from motivic.laurent import (BettiPoly, LaurentPoly2, ONE, Q, X, Y, ZERO,
                             const, divide_exact, dualize, euler_product,
                             format_poly, gaussian_binomial, monomial,
                             one_minus_q_product, parse_poly, q_power,
                             self_dual_convert, shift_apply, twist_apply)

rng = random.Random(98141)


def random_poly(max_terms=6, max_exp=6, max_coeff=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = (rng.randint(-max_exp, max_exp), rng.randint(-max_exp, max_exp))
        terms[e] = rng.randint(-max_coeff, max_coeff)
    return LaurentPoly2(terms)


def test_zero_coefficients_never_stored():
    p = LaurentPoly2({(1, 1): 0, (2, 2): 3})
    assert p.terms == {(2, 2): 3}
    assert (q_power(7) + (-q_power(7))).terms == {}


def test_add_cancellation():
    assert q_power(7) + (-1) * q_power(7) == ZERO
    assert (ONE + q_power(3)) + q_power(3) == ONE + 2 * q_power(3)


def test_mul_examples():
    lhs = (ONE - q_power(3)) * (ONE - q_power(5))
    assert lhs == ONE - q_power(3) - q_power(5) + q_power(8)
    p = random_poly()
    assert p * ONE == p
    chain = q_power(4) * q_power(2) * (ONE + Q + q_power(2))
    assert chain == q_power(6) + q_power(7) + q_power(8)


def test_shift_apply():
    assert shift_apply(q_power(3), 3) == -q_power(3)
    p = random_poly()
    assert shift_apply(p, 0) == p
    assert shift_apply(shift_apply(p, 9), 9) == p
    for k in range(-4, 5):
        assert shift_apply(p, k) == shift_apply(p, k % 2)


def test_twist_apply():
    assert twist_apply(ONE, -3) == q_power(3)
    p = random_poly()
    assert twist_apply(p, 0) == p
    assert twist_apply(twist_apply(p, 5), -5) == p
    assert twist_apply(twist_apply(p, 2), 3) == twist_apply(p, 5)


def test_dualize():
    assert dualize(ONE - q_power(3)) == ONE - q_power(-3)
    for _ in range(50):
        p = random_poly()
        assert dualize(dualize(p)) == p


def test_dualize_to_compact_milnor_fibre():
    e = (ONE - q_power(3)) * (ONE - q_power(5))
    e_c = q_power(14) * dualize(e)
    assert e_c == q_power(14) - q_power(11) - q_power(9) + q_power(6)
    assert e_c.eval_q(2) == 13888


def test_self_dual_convert():
    e = q_power(3) * (q_power(5) - q_power(2) - ONE)
    assert self_dual_convert(e, 15) == \
        q_power(7) * (ONE - q_power(3) - q_power(5))
    for k in range(5):
        assert self_dual_convert(q_power(k), 2 * k) == q_power(k)
    ic = -(ONE + q_power(2) + q_power(4))
    assert self_dual_convert(ic, 9) == -(q_power(5) + q_power(7) + q_power(9))
    for _ in range(50):
        p = random_poly()
        n = rng.randint(-5, 5)
        assert self_dual_convert(self_dual_convert(p, n), n) == p


def test_eval_at():
    p = q_power(9) + q_power(7) + q_power(5) - q_power(4) - q_power(2)
    assert p.eval_at(2, 1) == 652
    assert ZERO.eval_at(3, 7) == 0
    assert (X * Y ** 2).eval_at(Fraction(1, 2), 3) == Fraction(9, 2)


def test_eval_at_zero_division():
    with pytest.raises(ZeroDivisionError):
        q_power(-1).eval_at(0, 1)


def test_eval_at_matches_plain_powers():
    # the value is the sum of c x^a y^b, and a zero argument under a
    # negative exponent divides by zero
    points = [(Fraction(2), Fraction(-3, 7)), (Fraction(10) ** 40,
              Fraction(3, 10 ** 40)), (Fraction(-5, 3), Fraction(1, 2))]
    for _ in range(200):
        p = random_poly()
        for x0, y0 in points:
            assert p.eval_at(x0, y0) == sum(
                (c * x0 ** a * y0 ** b for (a, b), c in p.terms.items()),
                Fraction(0))
    for a, b in ((-1, -2), (-2, 3), (2, -1)):
        for x0, y0 in ((0, 1), (1, 0), (0, 0)):
            if (a < 0 and x0 == 0) or (b < 0 and y0 == 0):
                with pytest.raises(ZeroDivisionError):
                    monomial(a, b).eval_at(x0, y0)
            else:
                assert monomial(a, b).eval_at(x0, y0) == \
                    Fraction(x0) ** a * Fraction(y0) ** b


def test_eval_q():
    assert q_power(5).eval_q(2) == 32
    assert (q_power(2) - q_power(-1)).eval_q(2) == Fraction(7, 2)
    with pytest.raises(ValueError):
        (X + Y).eval_q(2)


def test_is_tate():
    assert q_power(3).is_tate()
    assert ZERO.is_tate()
    assert not (X + Y).is_tate()


def test_ring_laws():
    for _ in range(200):
        p, q, r = random_poly(), random_poly(), random_poly()
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_eval_multiplicative():
    for _ in range(50):
        p, q = random_poly(), random_poly()
        a, b = Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5), 2)
        assert (p * q).eval_at(a, b) == p.eval_at(a, b) * q.eval_at(a, b)


def test_pow():
    p = ONE + Q
    assert p ** 2 == ONE + 2 * Q + q_power(2)
    assert p ** 0 == ONE
    assert q_power(3) ** -2 == q_power(-6)
    assert (-X) ** -3 == monomial(-3, 0, -1)
    with pytest.raises(ValueError):
        (ONE + Q) ** -1
    with pytest.raises(ValueError):
        (2 * Q) ** -1
    assert (-2 * X) ** 3 == monomial(3, 0, -8)
    assert ZERO ** 3 == ZERO
    with pytest.raises(ValueError):
        ZERO ** -1


def test_monomial_and_zero_powers_are_immediate():
    assert parse_poly("x^2000000") == monomial(2000000, 0)
    assert parse_poly("x^99999999999999") == monomial(99999999999999, 0)
    assert parse_poly("0^99999999999999") == ZERO


@pytest.mark.parametrize("text, col, words", [
    # a two-term base: k + 1 terms
    ("(1+x)^3000", 7, "512 terms"),
    # the multisets of 50 of three terms, 1326
    ("(1+x+y)^50", 9, "512 terms"),
    # a 1D base of 8 terms: 7 k + 1 = 519 exponents
    ("(" + "+".join(f"x^{i}" for i in range(8)) + ")^74", None, "512 terms"),
    # the coefficients of (1 + x)^k reach 2^k
    ("(1+x)^200000", 7, "2^200000"),
    ("(1+x)^99999999999999", 7, "2^99999999999999"),
    # a monomial's coefficient, and a large coefficient in a short power
    ("2^300000000", 3, "2^300000000"),
    ("(-3*x)^5000", 8, "2^10000"),
    ("(2^100+x)^100", 11, "2^10100"),
])
def test_power_budget_refused_at_the_exponent(text, col, words):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert words in str(exc.value)
    assert exc.value.col == (col or len(text) - 1)


def test_power_budget_admits_its_edges():
    # 7 k + 1 = 512 exponents
    base = "(" + "+".join(f"x^{i}" for i in range(8)) + ")"
    assert len(parse_poly(base + "^73").terms) == 512
    with pytest.raises(ValueError, match="more than 512 terms"):
        (ONE + X) ** 512
    assert parse_poly("2^8192") == const(2 ** 8192)
    assert parse_poly("(-1)^99999999999999") == const(-1)
    assert len(parse_poly("(1+x+y)^30").terms) == 496
    # the benchmark's algebra shape: a two-term base with |c| <= 3, k <= 60
    assert len(parse_poly("(3*x^2*y^-2 - 3*x^-2*y^2)^60").terms) == 61
    with pytest.raises(ValueError, match="terms"):
        (ONE + X + Y) ** 31


def test_format_canonical():
    assert format_poly(ZERO) == "0"
    assert format_poly(const(-1)) == "-1"
    p = q_power(7) - q_power(10) - q_power(12)
    assert format_poly(p) == "(x*y)^7 - (x*y)^10 - (x*y)^12"
    assert format_poly(ONE - 2 * Q) == "1 - 2*(x*y)"
    assert format_poly(monomial(2, -1, 3)) == "3*x^2*y^-1"
    assert format_poly(monomial(0, 2) + X) == "y^2 + x"


def test_parse_examples():
    assert parse_poly("(x*y)^7 - (x*y)^10 - (x*y)^12") == \
        q_power(7) - q_power(10) - q_power(12)
    assert parse_poly("1 - x^3*y^3") == ONE - q_power(3)
    assert parse_poly("(1 - x^3*y^3) * (1 - x^5*y^5)") == \
        (ONE - q_power(3)) * (ONE - q_power(5))
    assert parse_poly("-2*x^-1*y") == monomial(-1, 1, -2)
    assert parse_poly("0") == ZERO
    assert parse_poly("(x*y)^-3") == q_power(-3)


def test_parse_format_round_trip():
    for _ in range(300):
        p = random_poly()
        assert parse_poly(format_poly(p)) == p


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("1 + z")
    assert exc.value.line == 1 and exc.value.col == 5
    with pytest.raises(ParseError):
        parse_poly("(1 + x")
    with pytest.raises(ParseError):
        parse_poly("1 +")
    with pytest.raises(ParseError) as exc:
        parse_poly("x^")
    assert "expected" in str(exc.value)
    with pytest.raises(ParseError):
        parse_poly("(1 + x*y)^-2")


def test_parse_error_survives_copy_and_pickle():
    error = ParseError("unexpected end of input", 1, 2)
    for clone in (copy.copy(error), copy.deepcopy(error),
                  pickle.loads(pickle.dumps(error))):
        assert type(clone) is ParseError
        assert clone.args == ("line 1, column 2: unexpected end of input",)
        assert (clone.message, clone.line, clone.col) == (
            "unexpected end of input", 1, 2)


@pytest.mark.parametrize("other, name", [("a", "str"), (None, "NoneType"),
                                         (1.5, "float")])
def test_unconvertible_left_operand_is_refused_by_python(other, name):
    # the operand's own method decides, as for any pair of unrelated types
    with pytest.raises(TypeError) as exc:
        other - const(1)
    assert str(exc.value) == (f"unsupported operand type(s) for -: "
                              f"'{name}' and 'LaurentPoly2'")
    with pytest.raises(TypeError) as exc:
        other + const(1)
    assert str(exc.value) == (
        'can only concatenate str (not "LaurentPoly2") to str'
        if other == "a" else
        f"unsupported operand type(s) for +: '{name}' and 'LaurentPoly2'")


def test_lexer_reads_only_decimal_digits():
    # '²' is a digit to str.isdigit but not to int(); Arabic-Indic and
    # fullwidth digits are decimal, and int() reads them
    with pytest.raises(ParseError) as exc:
        parse_poly("x^²")
    assert (exc.value.line, exc.value.col) == (1, 3)
    assert "unexpected character '²'" in str(exc.value)
    assert parse_poly("x^٣") == X ** 3
    assert parse_poly("(x*y)^１２") == q_power(12)


def test_parse_input_cap():
    with pytest.raises(ParseError):
        parse_poly("1 + " * 30000 + "1")


def test_betti_poly():
    b = BettiPoly.from_one_plus_powers([5, 9])
    assert b.coeffs == {0: 1, 5: 1, 9: 1, 14: 1}
    assert b.total() == 4
    assert b.degree() == 14
    assert b.euler() == 0
    assert str(b) == "1 + t^5 + t^9 + t^14"
    with pytest.raises(ValueError):
        BettiPoly({3: -1})


@pytest.mark.parametrize("other", [2, ONE, None])
def test_betti_poly_multiplies_only_betti_polys(other):
    with pytest.raises(TypeError, match="unsupported operand"):
        BettiPoly({0: 1}) * other
    with pytest.raises(TypeError, match="unsupported operand"):
        other * BettiPoly({0: 1})


def test_bad_exponents_refused_like_bad_coefficients():
    for terms in ({(1.5, 0): 1}, {(True, 2): 3}, {(0, "1"): 1}):
        with pytest.raises(TypeError, match="not integers"):
            LaurentPoly2(terms)


@pytest.mark.parametrize("make,message", [
    (lambda: q_power(3.0), "exponents (3.0, 3.0) are not integers"),
    (lambda: q_power(True), "exponents (True, True) are not integers"),
    (lambda: monomial(1, 2.0), "exponents (1, 2.0) are not integers"),
    (lambda: monomial(1, 2, 0.5), "coefficient 0.5 is not an integer"),
    (lambda: monomial(1, 2, False), "coefficient False is not an integer"),
    (lambda: const(1.0), "coefficient 1.0 is not an integer"),
    (lambda: const(True), "coefficient True is not an integer"),
])
def test_constructors_refuse_what_the_class_refuses(make, message):
    # monomial, const and q_power check as LaurentPoly2 does, so no float
    # or bool enters the exact arithmetic through them
    with pytest.raises(TypeError) as exc:
        make()
    assert str(exc.value) == message


def test_bad_betti_degrees_refused():
    for coeffs in ({1.5: 1}, {True: 1}, {-1: 1}):
        with pytest.raises(ValueError, match="bad Betti entry"):
            BettiPoly(coeffs)


def _betti_convolution(a, b):
    out = {}
    for i, c in a.coeffs.items():
        for j, d in b.coeffs.items():
            out[i + j] = out.get(i + j, 0) + c * d
    return out


def _betti_text(b):
    if not b.coeffs:
        return "0"
    chunks = []
    for k in sorted(b.coeffs):
        c = b.coeffs[k]
        mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if not mono:
            chunks.append(str(c))
        elif c == 1:
            chunks.append(mono)
        else:
            chunks.append(f"{c}*{mono}")
    return " + ".join(chunks)


_betti = st.dictionaries(st.integers(0, 20), st.integers(0, 5),
                         max_size=8).map(BettiPoly)


@settings(max_examples=200, deadline=None)
@given(_betti, _betti)
def test_betti_product_and_text_match_own_convolution(a, b):
    # the Betti product and text go through LaurentPoly2; the direct
    # convolution and the t-printer are the reference
    assert (a * b).coeffs == _betti_convolution(a, b)
    assert str(a) == _betti_text(a)


def test_divide_exact():
    num = one_minus_q_product([10, 12])
    den = one_minus_q_product([2, 4])
    quot = divide_exact(num, den)
    want = [1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 2, 0, 2, 0, 1, 0, 1]
    assert quot.terms == {(k, k): c for k, c in enumerate(want) if c}
    # a Laurent quotient may have negative degrees
    assert divide_exact(q_power(-1) + q_power(2), Q) == q_power(-2) + Q
    with pytest.raises(ConsistencyError, match="remainder"):
        divide_exact(ONE - q_power(3), ONE - q_power(2))
    with pytest.raises(ConsistencyError, match="leading term"):
        divide_exact(ONE + Q, 2 * Q)


_tate = st.dictionaries(st.integers(-4, 6), st.integers(-5, 5),
                        max_size=5).map(
    lambda coeffs: LaurentPoly2({(d, d): c for d, c in coeffs.items()}))


@settings(max_examples=200, deadline=None)
@given(_tate, _tate.filter(bool))
def test_divide_exact_inverts_multiplication(a, b):
    assert divide_exact(a * b, b) == a


@settings(max_examples=60, deadline=None)
@given(_tate, st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 5))
def test_divide_exact_refuses_non_tate_and_zero(a, i, j, c):
    assume(i != j)
    other = a + monomial(i, j, c)
    for num, den in ((other, ONE), (ONE, other), (a, other)):
        with pytest.raises(ValueError, match="Tate-type"):
            divide_exact(num, den)
    with pytest.raises(ZeroDivisionError):
        divide_exact(a, ZERO)


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


def test_gaussian_binomial_q_pascal():
    # [n, k] = [n - 1, k - 1] + q^k [n - 1, k], a route with no division,
    # on every 1 <= k < n <= 20
    for n in range(2, 21):
        for k in range(1, n):
            assert gaussian_binomial(n, k) == (
                gaussian_binomial(n - 1, k - 1)
                + q_power(k) * gaussian_binomial(n - 1, k))


@settings(max_examples=200, deadline=None)
@given(_tate, st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))))
def test_eval_q_is_eval_at_q_and_one(p, q):
    # an int q with no negative exponent sums in ints, any other q or
    # exponent through `eval_at`'s Fractions
    try:
        want = p.eval_at(q, 1)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            p.eval_q(q)
        return
    got = p.eval_q(q)
    assert got == want
    assert isinstance(got, int) == (want.denominator == 1)


def test_euler_product_geometric():
    s = euler_product([(q_power(2), 1)], 4)
    assert s.coeff(3) == q_power(6)
    t = euler_product([(ONE, 2)], 4)
    assert t.coeff(2) == ONE and t.coeff(3) == ZERO
    assert euler_product([], 0).coeffs == [ONE]
    with pytest.raises(IndexError):
        t.coeff(5)


def test_series_coeff_rejects_negative_degree():
    # a negative degree must not index the coefficient list from the end
    s = euler_product([(q_power(1), 1)], 3)
    assert s.coeff(0) == ONE and s.coeff(3) == q_power(3)
    for n in (-1, -4, -5):
        with pytest.raises(IndexError):
            s.coeff(n)
    with pytest.raises(IndexError):
        euler_product([], 0).coeff(-1)


def test_euler_product_integer_coefficients():
    s = euler_product([(ONE, 1), (ONE, 1)], 3)
    assert s.integer_coefficients() == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        euler_product([(Q, 1)], 1).integer_coefficients()


def test_euler_product_rejects_bad_steps_and_orders():
    for k in (0, -1):
        with pytest.raises(ValueError):
            euler_product([(ONE, 1), (ONE, k)], 3)
    with pytest.raises(ValueError):
        euler_product([], -1)


def _geometric_reference(factors, order):
    """The product of the truncated geometric series sum_j c^j z^(jk),
    multiplied term by term."""
    acc = [ONE] + [ZERO] * order
    for c, k in factors:
        geometric = [ZERO] * (order + 1)
        power = ONE
        for d in range(0, order + 1, k):
            geometric[d] = power
            power = power * c
        acc = [sum((acc[i] * geometric[n - i] for i in range(n + 1)), ZERO)
               for n in range(order + 1)]
    return acc


_coefficients = st.one_of(
    st.builds(q_power, st.integers(-3, 3)),
    st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                    st.integers(-3, 3), max_size=3).map(LaurentPoly2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coefficients, st.integers(1, 6)), max_size=5),
       st.integers(0, 12))
def test_euler_product_matches_geometric_convolution(factors, order):
    assert euler_product(factors, order).coeffs == \
        _geometric_reference(factors, order)
