"""Scissor calculus on spaces with known E-polynomials.

Expression trees of geometric spaces are evaluated to compactly supported
E-polynomials by structural recursion: catalog leaves, products and Zariski
locally trivial fibrations multiply, complements of recognized closed
inclusions subtract, disjoint unions add.  The catalog stores each entry in
the form its source states it (ordinary E for the group-theoretic spaces
and the Milnor fibre, Betti polynomials for the compact ones) together with
whether it is compact; the evaluator works internally with E_c and converts
an ordinary E at its leaf by smooth duality in the leaf's dimension.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import partial
from itertools import combinations_with_replacement

from ._record import FrozenRecord
from .errors import CapExceededError, MissingInclusionError, ParseError
from .laurent import (BettiPoly, Lexer, ONE, _is_int, const, format_poly,
                      gaussian_binomial, one_minus_q_product, q_power,
                      self_dual_convert)


class SpaceExpr(FrozenRecord):
    """Base class for space-expression nodes."""

    __slots__ = ()

    def __str__(self):
        return format_space_expr(self)


class Leaf(SpaceExpr):
    """A catalog leaf `name(args...)`, checked against its LEAVES row: the
    arguments of a cone are one Grassmannian, of every other leaf ints."""

    __slots__ = ("name", "args")

    def __init__(self, name, args=()):
        row = LEAVES.get(name)
        if row is None:
            raise ValueError(f"unknown space {name!r}")
        args = tuple(args)
        if len(args) != row.arity:
            raise TypeError(f"{name} takes {row.arity} argument(s), "
                            f"got {len(args)}")
        if name != "cone" and not all(map(_is_int, args)):
            raise TypeError(f"{name} takes integer arguments, got {args!r}")
        if not row.valid(*args):
            raise ValueError(row.error.format(*args))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)


class Product(SpaceExpr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class FibrationTotal(SpaceExpr):
    """Total space of a Zariski locally trivial fibration (asserted)."""

    __slots__ = ("base", "fibre")

    def __init__(self, base, fibre):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fibre", fibre)


class Complement(SpaceExpr):
    """whole minus closed.  It is built for any pair, but evaluated only
    when `closed_inclusion_note` recognizes the closed inclusion; there is
    no way to assert one."""

    __slots__ = ("whole", "closed")

    def __init__(self, whole, closed):
        object.__setattr__(self, "whole", whole)
        object.__setattr__(self, "closed", closed)


class Disjoint(SpaceExpr):
    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("disjoint union needs at least two parts")
        object.__setattr__(self, "parts", parts)


# -- dimensions ----------------------------------------------------------------

def dimension(e):
    if isinstance(e, Leaf):
        return LEAVES[e.name].dim(*e.args)
    if isinstance(e, (Product, FibrationTotal)):
        a, b = _children(e)
        return dimension(a) + dimension(b)
    if isinstance(e, Complement):
        return dimension(e.whole)
    if isinstance(e, Disjoint):
        return max(dimension(p) for p in e.parts)
    raise TypeError(f"not a space expression: {e!r}")


def _children(e):
    if isinstance(e, Product):
        return e.left, e.right
    return e.base, e.fibre


# -- the catalog -----------------------------------------------------------------

def catalog_e_GL(m):
    """Ordinary E of GL(m, C): product of (1 - q^i) for i = 1..m."""
    return one_minus_q_product(range(1, m + 1))


def catalog_e_Sp(n):
    """Ordinary E of Sp(2n, C): product of (1 - q^(2i)) for i = 1..n."""
    return one_minus_q_product(range(2, 2 * n + 1, 2))


def catalog_e_M(n):
    """Ordinary E of GL(2n)/Sp(2n): product of (1 - q^odd), odd = 1..2n-1."""
    return one_minus_q_product(range(1, 2 * n, 2))


def catalog_e_F(n):
    """Ordinary E of the Pfaffian Milnor fibre: product of (1 - q^(2i-1))
    for i = 2..n; equals catalog_e_M(n) divided by E(C^*)."""
    if n < 2:
        raise ValueError("catalog_e_F needs n >= 2")
    return one_minus_q_product(range(3, 2 * n, 2))


def catalog_betti_F(n):
    """Betti polynomial of the Milnor fibre: product of (1 + t^(4i-3)),
    i = 2..n."""
    if n < 2:
        raise ValueError("catalog_betti_F needs n >= 2")
    return BettiPoly.from_one_plus_powers([4 * i - 3 for i in range(2, n + 1)])


def catalog_betti_M1(n):
    """Betti polynomial of the compact model U(2n)/Q(n) of the open
    stratum: (1 + t) times the Milnor-fibre factors."""
    if n < 2:
        raise ValueError("catalog_betti_M1 needs n >= 2")
    return BettiPoly.from_one_plus_powers(
        [1] + [4 * i - 3 for i in range(2, n + 1)])


def betti_grassmannian(k=2, n=6):
    """Betti polynomial of Gr(k, n) by Schubert cells: one cell of real
    dimension 2d for each partition of d in a k x (n - k) box."""
    sizes = map(sum, combinations_with_replacement(range(n - k + 1), k))
    return BettiPoly({2 * d: c for d, c in Counter(sizes).items()})


class LeafRow(namedtuple("LeafRow",
                         "arity valid error dim stated compact rule",
                         defaults=(None, True, None))):
    """One leaf of the grammar, as functions of its arguments in grammar
    order: whether they are valid (if not, the ValueError text is `error`
    formatted with them), its smooth dimension and its catalog entry: the
    stated polynomial, which is E_c if `compact` and ordinary E of a smooth
    variety if not.  A leaf with no catalog entry has a `rule` instead: its
    trace note and its E_c as a function of its arguments and an evaluator
    of the spaces it is built from."""

    __slots__ = ()


LEAVES = {
    "point": LeafRow(0, lambda: True, "", lambda: 0, lambda: ONE),
    # the one-dimensional torus C^*
    "torus": LeafRow(0, lambda: True, "", lambda: 1,
                     lambda: q_power(1) - ONE),
    "affine": LeafRow(1, lambda n: n >= 0, "affine dimension must be >= 0",
                      lambda n: n, q_power),
    "proj": LeafRow(
        1, lambda n: n >= 0, "projective dimension must be >= 0", lambda n: n,
        # P^n = Gr(1, n + 1)
        lambda n: gaussian_binomial(n + 1, 1)),
    "grass": LeafRow(2, lambda k, n: 0 <= k <= n,
                     "need 0 <= k <= n, got grass({},{})",
                     lambda k, n: k * (n - k),
                     lambda k, n: gaussian_binomial(n, k)),
    "gl": LeafRow(1, lambda m: m >= 1, "gl(m) needs m >= 1", lambda m: m * m,
                  catalog_e_GL, compact=False),
    # Sp(m, C) with m even
    "sp": LeafRow(1, lambda m: m >= 2 and m % 2 == 0,
                  "sp(m) needs even m >= 2", lambda m: m // 2 * (m + 1),
                  lambda m: catalog_e_Sp(m // 2), compact=False),
    # GL(2n)/Sp(2n): the open locus of nondegenerate skew 2n x 2n matrices
    "homM": LeafRow(1, lambda n: n >= 1, "homM(n) needs n >= 1",
                    lambda n: n * (2 * n - 1), catalog_e_M, compact=False),
    # the global Milnor fibre {Pf = 1} of the 2n x 2n Pfaffian
    "milnorF": LeafRow(1, lambda n: n >= 2, "milnorF(n) needs n >= 2",
                       lambda n: 2 * n * n - n - 1, catalog_e_F,
                       compact=False),
    # {Pf = 0} inside the space of 2n x 2n skew matrices
    "pfhyp": LeafRow(
        1, lambda n: n >= 1, "pfhyp(n) needs n >= 1",
        lambda n: n * (2 * n - 1) - 1, rule=(
            "hypersurface: ambient affine space minus the open "
            "nondegenerate stratum",
            lambda n, ec: q_power(n * (2 * n - 1)) - ec(HomSpaceM(n)))),
    # the affine cone over a Grassmannian in its Pluecker embedding
    "cone": LeafRow(
        1, lambda g: isinstance(g, Leaf) and g.name == "grass",
        "cone(...) takes a Grassmannian", lambda g: dimension(g) + 1, rule=(
            "cone: vertex + torus bundle over the base",
            lambda g, ec: ONE + (q_power(1) - ONE) * ec(g))),
}


def leaf(name, *args):
    """The leaf `name(args...)`; the constructors below fix the name."""
    return Leaf(name, args)


Point = partial(leaf, "point")
Torus = partial(leaf, "torus")
Affine = partial(leaf, "affine")
Proj = partial(leaf, "proj")
Grass = partial(leaf, "grass")
GLGroup = partial(leaf, "gl")
SpGroup = partial(leaf, "sp")
HomSpaceM = partial(leaf, "homM")
MilnorFibreF = partial(leaf, "milnorF")
PfaffianHypersurface = partial(leaf, "pfhyp")
ConeOverPlucker = partial(leaf, "cone")


def catalog_entry(e):
    """The stated polynomial of a catalog leaf and whether it is E_c (if
    not, it is ordinary E)."""
    row = LEAVES[e.name] if isinstance(e, Leaf) else None
    if row is None or row.stated is None:
        raise KeyError(f"no catalog entry for {format_space_expr(e)}")
    return row.stated(*e.args), row.compact


# -- closed inclusions -------------------------------------------------------------

def closed_inclusion_note(whole, closed):
    """A note naming the recognized closed inclusion, or None."""
    if not (isinstance(whole, Leaf) and isinstance(closed, Leaf)):
        return None
    names = whole.name, closed.name
    if closed.name == "point":
        return "point in a variety"
    if names == ("affine", "pfhyp") and \
            whole.args[0] == closed.args[0] * (2 * closed.args[0] - 1):
        return "hypersurface in the skew-matrix space"
    if whole == PfaffianHypersurface(3) and \
            closed == ConeOverPlucker(Grass(2, 6)):
        return "singular locus of the 6x6 Pfaffian hypersurface"
    if names == ("affine", "affine") and closed.args < whole.args:
        return "coordinate subspace"
    if names == ("proj", "proj") and closed.args < whole.args:
        return "linear subspace"
    return None


# -- the evaluator ------------------------------------------------------------------

# Largest sum of leaf dimensions that ec evaluates.  Catalog polynomials grow
# with the leaf's dimension (gl(m) has dimension m^2 and takes m products
# of polynomials of degree up to m^2/2), so a bound on the sum also bounds a
# disjoint union of many mid-size leaves.
EC_DIMENSION_CAP = 400


def ec(e):
    """Compactly supported E-polynomial of a space expression."""
    _check_size(e)
    return _ec(e, None)


def ec_traced(e):
    """E_c together with the post-order derivation steps."""
    _check_size(e)
    steps = []
    value = _ec(e, steps)
    return value, steps


def _check_size(e):
    total = _leaf_dimension_sum(e)
    if total > EC_DIMENSION_CAP:
        raise CapExceededError(
            f"leaf dimensions sum to {total}, above the cap "
            f"{EC_DIMENSION_CAP} for evaluating a space expression")


def _leaf_dimension_sum(e):
    if isinstance(e, Leaf):
        return dimension(e)
    if isinstance(e, (Product, FibrationTotal)):
        return sum(map(_leaf_dimension_sum, _children(e)))
    if isinstance(e, Complement):
        return _leaf_dimension_sum(e.whole) + _leaf_dimension_sum(e.closed)
    if isinstance(e, Disjoint):
        return sum(map(_leaf_dimension_sum, e.parts))
    raise TypeError(f"not a space expression: {e!r}")


def _record(steps, e, rule, value):
    if steps is not None:
        steps.append({"space": format_space_expr(e), "rule": rule,
                      "ec": format_poly(value)})
    return value


def _ec(e, steps):
    rule = LEAVES[e.name].rule if isinstance(e, Leaf) else None
    if rule:
        note, expand = rule
        return _record(steps, e, note,
                       expand(*e.args, lambda part: _ec(part, steps)))
    if isinstance(e, Product):
        value = _ec(e.left, steps) * _ec(e.right, steps)
        return _record(steps, e, "product: multiply factors", value)
    if isinstance(e, FibrationTotal):
        value = _ec(e.base, steps) * _ec(e.fibre, steps)
        return _record(
            steps, e,
            "fibration (Zariski local triviality asserted): multiply", value)
    if isinstance(e, Complement):
        note = closed_inclusion_note(e.whole, e.closed)
        if note is None:
            raise MissingInclusionError(
                f"no recognized closed inclusion of "
                f"{format_space_expr(e.closed)} in "
                f"{format_space_expr(e.whole)}")
        value = _ec(e.whole, steps) - _ec(e.closed, steps)
        return _record(steps, e, f"complement ({note}): subtract", value)
    if isinstance(e, Disjoint):
        value = const(0)
        for part in e.parts:
            value = value + _ec(part, steps)
        return _record(steps, e, "disjoint union: add", value)
    stated, compact = catalog_entry(e)
    if compact:
        return _record(steps, e, "catalog leaf", stated)
    dim = dimension(e)
    return _record(steps, e, f"catalog leaf, converted from ordinary E "
                   f"(smooth dimension {dim})", self_dual_convert(stated, dim))


# -- textual grammar ----------------------------------------------------------------
#
#   expr := term (('+' | '\') term)*        consecutive '+' collect into one
#   term := atom ('*' atom)*                 disjoint union; left associative
#   atom := NAME '(' args ')' | NAME | '(' expr ')'
#
# Leaves: point, torus, affine(n), proj(n), grass(k,n), gl(m), sp(m),
# homM(n), milnorF(n), pfhyp(n), cone(grass(k,n)), fib(base; fibre).

def parse_space_expr(text):
    """Parse the space-expression grammar; round-trips with the printer."""
    sc = Lexer(text, "*+\\();,")
    e = _parse_expr(sc)
    sc.expect_eof()
    return e


def _parse_expr(sc):
    """One sum/complement chain, left associative: the consecutive '+' of
    this chain make one disjoint union, and a union in parentheses is one
    part of it, never merged into it.  The union is built once, when its
    chain ends or meets a '\\'."""
    union = [_parse_term(sc)]
    while sc.peek()[0] in ("+", "\\"):
        if sc.next()[0] == "+":
            union.append(_parse_term(sc))
        else:
            union = [Complement(_disjoint(union), _parse_term(sc))]
    return _disjoint(union)


def _disjoint(parts):
    return Disjoint(parts) if len(parts) > 1 else parts[0]


def _parse_term(sc):
    acc = _parse_atom(sc)
    while sc.peek()[0] == "*":
        sc.next()
        acc = Product(acc, _parse_atom(sc))
    return acc


def _parse_int(sc):
    tok = sc.expect("INT")
    return int(tok[1])


def _parse_atom(sc):
    tok = sc.next()
    if tok[0] == "(":
        e = _parse_expr(sc)
        sc.expect(")")
        return e
    if tok[0] != "NAME":
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
    name = tok[1]
    row = LEAVES.get(name)
    if row is None and name != "fib":
        raise ParseError(f"unknown space {name!r}", tok[2], tok[3])
    if row is not None and not row.arity:
        return Leaf(name)
    sc.expect("(")
    try:
        if name == "fib":
            base = _parse_expr(sc)
            sc.expect(";")
            e = FibrationTotal(base, _parse_expr(sc))
        elif name == "cone":  # checked before its closing parenthesis
            e = Leaf(name, (_parse_atom(sc),))
        else:
            args = [_parse_int(sc)]
            for _ in range(row.arity - 1):
                sc.expect(",")
                args.append(_parse_int(sc))
            sc.expect(")")
            return Leaf(name, tuple(args))
        sc.expect(")")
        return e
    except ParseError:  # already positioned at the inner token
        raise
    except ValueError as exc:
        raise ParseError(str(exc), tok[2], tok[3]) from None


def format_space_expr(e):
    """Canonical text for a space expression; parse(format(e)) == e."""
    return _fmt(e, 0)


# precedence levels: 0 sum/complement, 1 product, 2 atom
def _fmt(e, level):
    if isinstance(e, Leaf):
        args = ",".join(map(str, e.args))
        return f"{e.name}({args})" if args else e.name
    if isinstance(e, FibrationTotal):
        return f"fib({_fmt(e.base, 0)}; {_fmt(e.fibre, 0)})"
    if isinstance(e, Product):
        text = f"{_fmt(e.left, 1)} * {_fmt(e.right, 2)}"
        return f"({text})" if level > 1 else text
    if isinstance(e, Complement):
        text = f"{_fmt(e.whole, 0)} \\ {_fmt(e.closed, 1)}"
        return f"({text})" if level > 0 else text
    if isinstance(e, Disjoint):
        text = " + ".join(_fmt(p, 1) for p in e.parts)
        return f"({text})" if level > 0 else text
    raise TypeError(f"not a space expression: {e!r}")
