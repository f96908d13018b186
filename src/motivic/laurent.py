"""Exact sparse bivariate Laurent polynomials and the transformation rules
used throughout the E-polynomial bookkeeping: shift, Tate twist, duality and
self-dual conversion; also Betti polynomials, exact division in q = xy,
Gaussian binomials and Euler products.  No floating point is used anywhere
in this module.
"""

from __future__ import annotations

from .errors import ConsistencyError, ParseError

# the most terms of a power, and the size 2^POW_MAX_BITS of its coefficients
POW_MAX_TERMS = 1 << 9
POW_MAX_BITS = 1 << 13


class LaurentPoly2:
    """Bivariate Laurent polynomial with integer coefficients.

    Terms are stored sparsely as a map from exponent pairs to nonzero
    coefficients, e.g.

        {(0, 0): 1, (3, 3): -2}   <->   1 - 2*(x*y)^3

    Exponents may be negative.  Zero coefficients are never stored, so two
    polynomials are equal iff their term maps are equal.  All arithmetic is
    exact arbitrary-precision integer arithmetic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for (a, b), c in terms.items():
                if not _is_int(c):
                    raise TypeError(f"coefficient {c!r} is not an integer")
                if not (_is_int(a) and _is_int(b)):
                    raise TypeError(f"exponents {(a, b)!r} are not integers")
                if c:
                    cleaned[(a, b)] = c
        self.terms = cleaned

    # -- queries -----------------------------------------------------------

    def is_tate(self):
        """True iff every exponent pair has equal components (type (a, a))."""
        return all(a == b for (a, b) in self.terms)

    def coeff(self, a, b):
        return self.terms.get((a, b), 0)

    # -- arithmetic ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if _is_int(other):
            other = const(other)
        if isinstance(other, LaurentPoly2):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not _is_int(k):
            raise TypeError("exponent must be an integer")
        if k == 0:
            return ONE
        if len(self.terms) == 1:
            ((a, b), c), = self.terms.items()
            if k < 0 and abs(c) != 1:
                raise ValueError(
                    "negative power of a monomial with non-unit coefficient")
            _check_power_bits(self.terms, abs(k))
            return monomial(a * k, b * k, c ** abs(k))
        if k < 0:
            raise ValueError("negative power of a non-monomial")
        if not self.terms:
            return ZERO
        _check_power_bits(self.terms, k)
        # repeated squaring was measured slower on small sparse bases; a
        # base of t >= 2 terms has at least i + 1 in its i-th power, so this
        # stops within POW_MAX_TERMS steps
        acc = ONE
        for _ in range(k):
            acc = acc * self
            if len(acc.terms) > POW_MAX_TERMS:
                raise ValueError(f"a power of more than {POW_MAX_TERMS} terms")
        return acc

    # -- evaluation ---------------------------------------------------------

    def eval_at(self, x0, y0):
        """Exact value at (x0, y0) as a Fraction.

        Raises ZeroDivisionError when a negative exponent meets a zero
        argument.
        """
        from fractions import Fraction  # here: it loads decimal
        x0 = Fraction(x0)
        y0 = Fraction(y0)
        xy = x0 * y0
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            # through xy, so that x0 = 1e4000 and y0 = 3e-4000 never meet
            # as 400th powers
            m = common_exponent(a, b)
            total += c * xy ** m * x0 ** (a - m) * y0 ** (b - m)
        return total

    def eval_q(self, q0):
        """Value at xy = q0 for a Tate-type polynomial; int when integral."""
        if not self.is_tate():
            raise ValueError("eval_q requires a Tate-type polynomial")
        total = self.eval_at(q0, 1)
        return int(total) if total.denominator == 1 else total

    def __str__(self):
        return format_poly(self)

    __repr__ = __str__


def common_exponent(a, b):
    """The m with x^a y^b = (xy)^m x^(a-m) y^(b-m) that leaves the smallest
    powers of x and y: the one of a and b nearer zero when both have one
    sign, else 0."""
    if a > 0 and b > 0:
        return min(a, b)
    if a < 0 and b < 0:
        return max(a, b)
    return 0


def _check_power_bits(terms, k):
    """Refuse with ValueError a k-th power whose coefficients could pass
    2^POW_MAX_BITS in size: they are at most S^k <= 2^(k bits(S - 1)), S
    the sum of the base's |c|."""
    bits = k * (sum(map(abs, terms.values())) - 1).bit_length()
    if bits > POW_MAX_BITS:
        raise ValueError(f"a power whose coefficients could reach 2^{bits}, "
                         f"above 2^{POW_MAX_BITS}")


def _raw(terms):
    p = LaurentPoly2.__new__(LaurentPoly2)
    p.terms = terms
    return p


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _as_poly(v):
    if isinstance(v, LaurentPoly2):
        return v
    if _is_int(v):
        return const(v)
    return NotImplemented


def const(c):
    return _raw({(0, 0): c}) if c else _raw({})


def monomial(a, b, c=1):
    return _raw({(a, b): c}) if c else _raw({})


def q_power(k):
    """The monomial (x*y)^k."""
    return monomial(k, k)


ZERO = const(0)
ONE = const(1)
X = monomial(1, 0)
Y = monomial(0, 1)
Q = q_power(1)


# -- the four transformation rules ------------------------------------------

def shift_apply(p, k):
    """Shift rule: multiply by (-1)^k."""
    return -p if k % 2 else p


def twist_apply(p, k):
    """Tate twist rule: multiply by (x*y)^(-k)."""
    return p * q_power(-k)


def dualize(p):
    """Substitute (x, y) -> (1/x, 1/y) term by term."""
    return _raw({(-a, -b): c for (a, b), c in p.terms.items()})


def self_dual_convert(p, n):
    """Self-dual conversion: (x*y)^n * p(1/x, 1/y); involutive for fixed n."""
    return q_power(n) * dualize(p)


# -- textual form -------------------------------------------------------------
#
# Canonical syntax, shared with the command line: signed integer
# coefficients, variables x and y, caret exponents, explicit '*', Tate-type
# monomials rendered as powers of (x*y).  Examples:
#
#     (x*y)^7 - (x*y)^10 - (x*y)^12
#     1 - x^3*y^3
#     -2*x^-1*y

def _mono_text(a, b):
    if a == b:
        if a == 0:
            return ""
        if a == 1:
            return "(x*y)"
        return f"(x*y)^{a}"
    parts = []
    if a:
        parts.append("x" if a == 1 else f"x^{a}")
    if b:
        parts.append("y" if b == 1 else f"y^{b}")
    return "*".join(parts)


def format_poly(p):
    """Canonical text: terms sorted by (a, then b) ascending."""
    if not p.terms:
        return "0"
    chunks = []
    for e in sorted(p.terms):
        c = p.terms[e]
        mono = _mono_text(*e)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


MAX_INPUT_BYTES = 64 * 1024


class Lexer:
    """Tokenizer shared by the polynomial and space-expression grammars.

    Tokens are (kind, text, line, column) tuples: each character of
    `symbols` as its own kind, INT for digit runs, NAME for identifiers, and
    a final EOF.  Inputs over MAX_INPUT_BYTES are refused before scanning.
    """

    def __init__(self, text, symbols):
        if len(text.encode()) > MAX_INPUT_BYTES:
            raise ParseError("input exceeds 64 KiB", 1, 1)
        self.tokens = []
        line, col = 1, 1
        pos = 0
        n = len(text)
        while pos < n:
            ch = text[pos]
            if ch == "\n":
                pos += 1
                line += 1
                col = 1
                continue
            if ch in " \t\r":
                pos += 1
                col += 1
                continue
            if ch in symbols:
                self.tokens.append((ch, ch, line, col))
                pos += 1
                col += 1
                continue
            # isdecimal, not isdigit: exactly the digits int() reads
            if ch.isdecimal():
                start = pos
                while pos < n and text[pos].isdecimal():
                    pos += 1
                self.tokens.append(("INT", text[start:pos], line, col))
                col += pos - start
                continue
            if ch.isalpha():
                start = pos
                while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                    pos += 1
                self.tokens.append(("NAME", text[start:pos], line, col))
                col += pos - start
                continue
            raise ParseError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(("EOF", "", line, col))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}",
                             tok[2], tok[3])
        return tok

    def expect_eof(self):
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])


def parse_poly(text):
    """Parse the canonical polynomial syntax into a LaurentPoly2.

    Grammar (whitespace insensitive):

        poly   := ['-'] term (('+'|'-') term)*
        term   := factor ('*' factor)*
        factor := base ['^' ['-'] INT]
        base   := INT | 'x' | 'y' | '(' poly ')'
    """
    sc = Lexer(text, "+-*^()xy")
    p = _parse_sum(sc)
    sc.expect_eof()
    return p


def _parse_sum(sc):
    negate = False
    if sc.peek()[0] == "-":
        sc.next()
        negate = True
    acc = _parse_term(sc)
    if negate:
        acc = -acc
    while sc.peek()[0] in ("+", "-"):
        op = sc.next()[0]
        t = _parse_term(sc)
        acc = acc + t if op == "+" else acc - t
    return acc


def _parse_term(sc):
    acc = _parse_factor(sc)
    while sc.peek()[0] == "*":
        sc.next()
        acc = acc * _parse_factor(sc)
    return acc


def _parse_factor(sc):
    base = _parse_base(sc)
    if sc.peek()[0] != "^":
        return base
    sc.next()
    sign = 1
    if sc.peek()[0] == "-":
        sc.next()
        sign = -1
    tok = sc.expect("INT")
    k = sign * int(tok[1])
    try:
        return base ** k
    except ValueError as exc:
        raise ParseError(str(exc), tok[2], tok[3]) from None


def _parse_base(sc):
    tok = sc.next()
    kind = tok[0]
    if kind == "INT":
        return const(int(tok[1]))
    if kind in ("x", "y"):
        return X if kind == "x" else Y
    if kind == "(":
        p = _parse_sum(sc)
        sc.expect(")")
        return p
    raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])


# -- Betti polynomials ---------------------------------------------------------

class BettiPoly:
    """Univariate polynomial with non-negative integer coefficients,
    indexed by cohomological degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        if coeffs:
            for k, c in coeffs.items():
                if not (_is_int(k) and k >= 0 and _is_int(c)):
                    raise ValueError(f"bad Betti entry {k!r}: {c!r}")
                if c < 0:
                    raise ValueError(f"negative Betti number b_{k} = {c}")
                if c:
                    cleaned[k] = c
        self.coeffs = cleaned

    @classmethod
    def from_one_plus_powers(cls, powers):
        """Product of (1 + t^k) over the given exponents."""
        acc = cls({0: 1})
        for k in powers:
            acc = acc * cls({0: 1, k: 1})
        return acc

    def coeff(self, k):
        return self.coeffs.get(k, 0)

    def degree(self):
        return max(self.coeffs) if self.coeffs else -1

    def total(self):
        """Sum of all Betti numbers, i.e. the value at t = 1."""
        return sum(self.coeffs.values())

    def euler(self):
        """Alternating sum of the coefficients."""
        return sum(c if k % 2 == 0 else -c for k, c in self.coeffs.items())

    def _in_x(self):
        """The same coefficients as a LaurentPoly2, degree k at x^k."""
        return _raw({(k, 0): c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, BettiPoly):
            return NotImplemented
        product = self._in_x() * other._in_x()
        return BettiPoly({k: c for (k, _), c in product.terms.items()})

    def __eq__(self, other):
        if isinstance(other, BettiPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __str__(self):
        return format_poly(self._in_x()).replace("x", "t")

    __repr__ = __str__


# -- polynomials in q = xy -----------------------------------------------------

def one_minus_q_product(exponents):
    """The product of (1 - q^e) over the exponents, in order."""
    acc = ONE
    for e in exponents:
        acc = acc * (ONE - q_power(e))
    return acc


def divide_exact(num, den):
    """The exact quotient num / den of two Tate-type polynomials, by long
    division in q from the top degree down; a nonzero remainder is fatal."""
    if not (num.is_tate() and den.is_tate()):
        raise ValueError("divide_exact requires Tate-type polynomials")
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    # coefficients by degree in q
    rest = {a: c for (a, _), c in num.terms.items()}
    by_degree = {b: d for (b, _), d in den.terms.items()}
    dd = max(by_degree)
    dl = by_degree[dd]
    out = {}
    if rest:
        # an exact quotient has no degree below low(num) - low(den); what
        # is left of num once those degrees are done is a remainder
        for e in range(max(rest) - dd, min(rest) - min(by_degree) - 1, -1):
            lead = rest.get(e + dd)
            if not lead:
                continue
            if lead % dl:
                raise ConsistencyError(
                    "non-exact polynomial division (leading term)")
            c = lead // dl
            out[(e, e)] = c
            for b, d in by_degree.items():
                rest[e + b] = rest.get(e + b, 0) - c * d
    if any(rest.values()):
        raise ConsistencyError("non-exact polynomial division (remainder)")
    return _raw(out)


def gaussian_binomial(n, k):
    """The q-binomial coefficient [n choose k]_q as a polynomial in q = xy:
    the product of (1 - q^i) for i = n-k+1..n divided by that for i = 1..k."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return divide_exact(one_minus_q_product(range(n - k + 1, n + 1)),
                        one_minus_q_product(range(1, k + 1)))


# -- Euler products ------------------------------------------------------------

class PowerSeries1:
    """Power series in a formal variable z with LaurentPoly2 coefficients,
    truncated at z^order; the result type of euler_product."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs):
        self.coeffs = coeffs
        self.order = len(coeffs) - 1

    def coeff(self, n):
        if not 0 <= n <= self.order:
            raise IndexError(
                f"degree {n} outside the truncated range 0..{self.order}")
        return self.coeffs[n]

    def integer_coefficients(self):
        """Coefficients as plain ints; fails if any is non-constant."""
        out = []
        for p in self.coeffs:
            extra = [e for e in p.terms if e != (0, 0)]
            if extra:
                raise ValueError("series coefficient is not a constant")
            out.append(p.coeff(0, 0))
        return out


def euler_product(factors, order):
    """The product of (1 - c*z^k)^(-1) over the (c, k) pairs, truncated at
    z^order.  Dividing a series b by 1 - c*z^k is the in-place recurrence
    b_i += c*b_(i-k) for ascending i, so each factor costs one pass."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    coeffs = [ONE] + [ZERO] * order
    for c, k in factors:
        if k < 1:
            raise ValueError("exponent step must be >= 1")
        for i in range(k, order + 1):
            if coeffs[i - k]:
                coeffs[i] = coeffs[i] + c * coeffs[i - k]
    return PowerSeries1(coeffs)
