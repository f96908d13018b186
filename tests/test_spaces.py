import random

import pytest
from hypothesis import given, settings, strategies as st

from motivic.errors import (CapExceededError, MissingInclusionError,
                            ParseError)
from motivic.laurent import (ONE, BettiPoly, gaussian_binomial, parse_poly,
                             q_power, self_dual_convert)
from motivic.spaces import (EC_DIMENSION_CAP, LEAVES, Affine, Complement,
                            ConeOverPlucker, Disjoint, FibrationTotal,
                            GLGroup, Grass, HomSpaceM, MilnorFibreF,
                            PfaffianHypersurface, Point, Product, Proj,
                            SpGroup, Torus, betti_grassmannian,
                            catalog_betti_F, catalog_betti_M1, catalog_e_F,
                            catalog_e_GL, catalog_e_M, catalog_e_Sp,
                            catalog_entry, closed_inclusion_note, dimension,
                            ec, ec_traced, format_space_expr,
                            parse_space_expr)

rng = random.Random(77113)


def test_leaf_values():
    assert ec(Point()) == ONE
    assert ec(Affine(3)) == q_power(3)
    assert ec(Torus()) == q_power(1) - ONE
    assert ec(Proj(2)) == ONE + q_power(1) + q_power(2)
    assert ec(Grass(2, 6)) == gaussian_binomial(6, 2)


def test_cone_value():
    value = ec(ConeOverPlucker(Grass(2, 6)))
    assert value == parse_poly(
        "(x*y)^9 + (x*y)^7 + (x*y)^5 - (x*y)^4 - (x*y)^2")
    assert value.eval_q(2) == 652
    assert value == ONE + (q_power(1) - ONE) * ec(Grass(2, 6))


def test_catalog_products():
    assert catalog_e_GL(2) == parse_poly("(1 - x*y) * (1 - x^2*y^2)")
    assert catalog_e_GL(1) == ONE - q_power(1)
    assert catalog_e_Sp(1) == ONE - q_power(2)
    assert catalog_e_Sp(3) == \
        parse_poly("(1 - (x*y)^2) * (1 - (x*y)^4) * (1 - (x*y)^6)")
    assert catalog_e_F(2) == ONE - q_power(3)
    assert catalog_e_F(3) == parse_poly("(1 - (x*y)^3) * (1 - (x*y)^5)")
    assert catalog_e_M(3) == \
        parse_poly("(1 - x*y) * (1 - (x*y)^3) * (1 - (x*y)^5)")


def test_catalog_identities():
    for n in (2, 3):
        assert catalog_e_GL(2 * n) == catalog_e_Sp(n) * catalog_e_M(n)
        assert catalog_e_M(n) == (ONE - q_power(1)) * catalog_e_F(n)


def test_gl_evaluation():
    value = catalog_e_GL(6).eval_q(2)
    want = 1
    for i in range(1, 7):
        want *= 1 - 2 ** i
    assert value == want


def test_catalog_betti():
    assert catalog_betti_F(2).coeffs == {0: 1, 5: 1}
    assert catalog_betti_F(3).coeffs == {0: 1, 5: 1, 9: 1, 14: 1}
    assert catalog_betti_M1(3).coeffs == \
        {0: 1, 1: 1, 5: 1, 6: 1, 9: 1, 10: 1, 14: 1, 15: 1}
    for n in (2, 3, 4):
        assert catalog_betti_F(n).coeff(2 * n * n - n - 1) == 1
    assert catalog_betti_F(3).coeff(5) == 1


def test_betti_grassmannian():
    b = betti_grassmannian(2, 6)
    want = [1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 2, 0, 2, 0, 1, 0, 1]
    assert [b.coeff(k) for k in range(17)] == want
    assert b.coeff(8) == 3
    assert b.total() == 15
    link = [b.coeff(k) - b.coeff(k - 2) for k in range(10)]
    assert [k for k, v in enumerate(link) if v] == [0, 4, 8]
    assert all(v in (0, 1) for v in link)


def test_gaussian_binomial_is_grassmannian_betti_polynomial():
    # [n choose k]_q by exact division against the Schubert-cell count of
    # Gr(k, n), under t^2 = q
    for n in range(9):
        for k in range(n + 1):
            gb = gaussian_binomial(n, k)
            assert gb.is_tate()
            assert BettiPoly({2 * a: c for (a, _), c in gb.terms.items()}) \
                == betti_grassmannian(k, n), (n, k)


def test_milnor_fibre_compact_form():
    e_c = self_dual_convert(catalog_e_F(3), 14)
    assert e_c == parse_poly("(x*y)^14 - (x*y)^11 - (x*y)^9 + (x*y)^6")
    e_c2 = self_dual_convert(catalog_e_F(2), 5)
    assert e_c2 == q_power(5) - q_power(2)
    assert ec(MilnorFibreF(3)) == e_c


def test_homspace_compact_form():
    ec_m = ec(HomSpaceM(3))
    ec_f = ec(MilnorFibreF(3))
    assert ec_m == (q_power(1) - ONE) * ec_f
    assert ec_m.eval_q(2) == 13888


def test_pfaffian_hypersurface_additivity():
    for n in (2, 3):
        ambient = n * (2 * n - 1)
        assert ec(Affine(ambient)) == \
            ec(PfaffianHypersurface(n)) + ec(HomSpaceM(n))
    assert ec(PfaffianHypersurface(3)).eval_q(2) == 18880


def test_product_and_fibration():
    v4 = Product(Affine(3), ConeOverPlucker(Grass(2, 6)))
    assert ec(v4) == q_power(3) * ec(ConeOverPlucker(Grass(2, 6)))
    lines = FibrationTotal(Proj(2), Affine(2))
    assert ec(lines) == (ONE + q_power(1) + q_power(2)) * q_power(2)
    a, b, c = Affine(1), Proj(1), Torus()
    assert ec(Product(Product(a, b), c)) == ec(Product(a, Product(b, c)))


def test_complement_and_disjoint():
    torus = Complement(Affine(1), Point())
    assert ec(torus) == ec(Torus())
    m = Complement(Affine(15), PfaffianHypersurface(3))
    assert ec(m) == ec(HomSpaceM(3))
    u = Complement(ConeOverPlucker(Grass(2, 6)), Point())
    assert ec(u) == ec(ConeOverPlucker(Grass(2, 6))) - ONE
    both = Disjoint((Affine(2), Torus()))
    assert ec(both) == q_power(2) + q_power(1) - ONE


def test_complement_requires_recognized_inclusion():
    bad = Complement(Grass(2, 6), Proj(3))
    with pytest.raises(MissingInclusionError):
        ec(bad)
    assert closed_inclusion_note(Grass(2, 6), Proj(3)) is None
    # a subspace must be proper, and the hypersurface lives in its own space
    assert closed_inclusion_note(Proj(2), Proj(2)) is None
    assert closed_inclusion_note(Affine(2), Affine(2)) is None
    assert closed_inclusion_note(Affine(16), PfaffianHypersurface(3)) is None


def test_leaf_dimension_sum_is_capped():
    assert EC_DIMENSION_CAP == 400
    assert ec(Proj(400)) == ec_traced(Proj(400))[0]
    at_cap = Disjoint((Proj(1),) * 200 + (GLGroup(14),))
    assert ec(at_cap) == 200 * ec(Proj(1)) + ec(GLGroup(14))
    # many small leaves count as much as one large one
    over = [Disjoint((Proj(1),) * 401), Product(GLGroup(14), GLGroup(15)),
            Complement(Affine(400), Affine(1)),
            ConeOverPlucker(Grass(20, 40)), GLGroup(400)]
    for e in over:
        with pytest.raises(CapExceededError):
            ec(e)
        with pytest.raises(CapExceededError):
            ec_traced(e)


def test_dimensions():
    assert dimension(Point()) == 0
    assert dimension(Affine(5)) == 5
    assert dimension(Grass(2, 6)) == 8
    assert dimension(GLGroup(6)) == 36
    assert dimension(SpGroup(6)) == 21
    assert dimension(HomSpaceM(3)) == 15
    assert dimension(MilnorFibreF(3)) == 14
    assert dimension(PfaffianHypersurface(3)) == 14
    assert dimension(ConeOverPlucker(Grass(2, 6))) == 9
    assert dimension(Product(Affine(3), ConeOverPlucker(Grass(2, 6)))) == 12
    assert dimension(Disjoint((Affine(1), Affine(4)))) == 4


def test_euler_specialisations_match_betti():
    assert ec(Grass(2, 6)).eval_q(1) == betti_grassmannian(2, 6).total()
    assert int(catalog_e_F(3).eval_at(1, 1)) == catalog_betti_F(3).euler()
    assert int(catalog_e_M(3).eval_at(1, 1)) == 0


def test_invalid_leaves():
    with pytest.raises(ValueError):
        Affine(-1)
    with pytest.raises(ValueError):
        Grass(4, 2)
    with pytest.raises(ValueError):
        SpGroup(5)
    with pytest.raises(ValueError):
        MilnorFibreF(1)
    with pytest.raises(ValueError):
        ConeOverPlucker(Affine(2))
    with pytest.raises(ValueError):
        Disjoint((Affine(1),))
    with pytest.raises(KeyError):
        catalog_entry(Product(Point(), Point()))


def test_traces():
    expr = Product(Affine(3), ConeOverPlucker(Grass(2, 6)))
    value, steps = ec_traced(expr)
    assert value == ec(expr)
    spaces = [s["space"] for s in steps]
    assert format_space_expr(expr) in spaces
    assert "cone(grass(2,6))" in spaces
    cone_step = next(s for s in steps if s["space"] == "cone(grass(2,6))")
    assert "cone" in cone_step["rule"]
    comp_step, = (s for s in ec_traced(Complement(Affine(1), Point()))[1]
                  if "complement" in s["rule"])
    assert "point in a variety" in comp_step["rule"]


# -- grammar ------------------------------------------------------------------

def test_parse_examples():
    assert parse_space_expr("cone(grass(2,6))") == \
        ConeOverPlucker(Grass(2, 6))
    assert parse_space_expr("affine(3) * cone(grass(2,6))") == \
        Product(Affine(3), ConeOverPlucker(Grass(2, 6)))
    assert parse_space_expr("fib(proj(2); affine(2))") == \
        FibrationTotal(Proj(2), Affine(2))
    assert parse_space_expr("point") == Point()
    assert parse_space_expr("torus") == Torus()
    assert parse_space_expr("gl(6)") == GLGroup(6)
    assert parse_space_expr("sp(6)") == SpGroup(6)
    assert parse_space_expr("homM(3)") == HomSpaceM(3)
    assert parse_space_expr("milnorF(3)") == MilnorFibreF(3)
    assert parse_space_expr("pfhyp(3)") == PfaffianHypersurface(3)
    assert parse_space_expr("affine(15) \\ pfhyp(3)") == \
        Complement(Affine(15), PfaffianHypersurface(3))
    assert parse_space_expr("affine(2) + torus + point") == \
        Disjoint((Affine(2), Torus(), Point()))


def test_parse_precedence():
    e = parse_space_expr("affine(1) + affine(2) * torus")
    assert e == Disjoint((Affine(1), Product(Affine(2), Torus())))
    e = parse_space_expr("affine(3) \\ affine(1) + point")
    assert e == Disjoint((Complement(Affine(3), Affine(1)), Point()))
    e = parse_space_expr("affine(3) \\ (affine(1) + point)")
    assert e == Complement(Affine(3), Disjoint((Affine(1), Point())))
    # a union in parentheses stays one part of the union around it
    a, b, c = Affine(1), Proj(1), Point()
    nested = Disjoint((Disjoint((a, b)), c))
    assert parse_space_expr("(affine(1) + proj(1)) + point") == nested
    assert format_space_expr(nested) == "(affine(1) + proj(1)) + point"
    e = parse_space_expr("affine(1) + (proj(1) + point)")
    assert e == Disjoint((a, Disjoint((b, c))))
    e = parse_space_expr("(affine(1) + proj(1) \\ point) + point")
    assert e == Disjoint((Complement(Disjoint((a, b)), c), c))


# grammar name -> (constructor, valid arguments, dimension, catalog entry
# compact? or None when _ec expands the leaf by rule, invalid arguments,
# their ValueError text or None for a TypeError, invalid text, its
# ParseError column after the prefix "torus * " and message)
LEAF_TABLE = {
    "point": (Point, (), 0, True, (0,), None, "point(0)", 14,
              "trailing input '('"),
    "torus": (Torus, (), 1, True, (1,), None, "torus(1)", 14,
              "trailing input '('"),
    "affine": (Affine, (4,), 4, True, (-1,), "affine dimension must be >= 0",
               "affine(2,3)", 17, "expected ')', found ','"),
    "proj": (Proj, (3,), 3, True, (-1,), "projective dimension must be >= 0",
             "proj()", 14, "expected 'INT', found ')'"),
    "grass": (Grass, (2, 5), 6, True, (3, 2),
              "need 0 <= k <= n, got grass(3,2)", "grass(3,2)", 9,
              "need 0 <= k <= n, got grass(3,2)"),
    "gl": (GLGroup, (3,), 9, False, (0,), "gl(m) needs m >= 1", "gl(0)", 9,
           "gl(m) needs m >= 1"),
    "sp": (SpGroup, (4,), 10, False, (5,), "sp(m) needs even m >= 2",
           "sp(5)", 9, "sp(m) needs even m >= 2"),
    "homM": (HomSpaceM, (2,), 6, False, (0,), "homM(n) needs n >= 1",
             "homM(0)", 9, "homM(n) needs n >= 1"),
    "milnorF": (MilnorFibreF, (3,), 14, False, (1,),
                "milnorF(n) needs n >= 2", "milnorF(1)", 9,
                "milnorF(n) needs n >= 2"),
    "pfhyp": (PfaffianHypersurface, (2,), 5, None, (0,),
              "pfhyp(n) needs n >= 1", "pfhyp(0)", 9, "pfhyp(n) needs n >= 1"),
    "cone": (ConeOverPlucker, (Grass(2, 5),), 7, None, (Affine(2),),
             "cone(...) takes a Grassmannian", "cone(affine(2))", 9,
             "cone(...) takes a Grassmannian"),
}


def test_leaf_table_covers_every_row():
    assert list(LEAF_TABLE) == list(LEAVES)


@pytest.mark.parametrize("name", list(LEAF_TABLE))
def test_leaf_rows(name):
    (ctor, args, dim, compact, bad, message, bad_text, col,
     parse_message) = LEAF_TABLE[name]
    e = ctor(*args)
    text = f"{name}({','.join(map(str, args))})" if args else name
    assert parse_space_expr(text) == e
    assert parse_space_expr(format_space_expr(e)) == e
    assert dimension(e) == dim
    if compact is None:
        with pytest.raises(KeyError):
            catalog_entry(e)
    else:
        assert catalog_entry(e)[1] == compact
    with pytest.raises(TypeError if message is None else ValueError) as exc:
        ctor(*bad)
    if message is not None:
        assert str(exc.value) == message
    with pytest.raises(TypeError):
        ctor(*args, 1)
    with pytest.raises(ParseError) as exc:
        parse_space_expr("torus * " + bad_text)
    assert (exc.value.line, exc.value.col, exc.value.message) == \
        (1, col, parse_message)


def test_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse_space_expr("nosuch(3)")
    assert "unknown space" in str(exc.value)
    with pytest.raises(ParseError):
        parse_space_expr("grass(2)")
    with pytest.raises(ParseError):
        parse_space_expr("affine(2,3)")
    with pytest.raises(ParseError):
        parse_space_expr("cone(affine(2))")
    with pytest.raises(ParseError):
        parse_space_expr("affine(3) *")
    with pytest.raises(ParseError) as exc:
        parse_space_expr("affine(3) ? torus")
    assert exc.value.col == 11
    with pytest.raises(ParseError):
        parse_space_expr("grass(4,2)")
    with pytest.raises(ParseError):
        parse_space_expr("point point")
    with pytest.raises(ParseError):
        parse_space_expr("affine(" + "3" * 70000 + ")")


def random_expr(depth, rng=rng):
    leaves = [Point(), Torus(), Affine(rng.randint(0, 4)),
              Proj(rng.randint(0, 3)), Grass(2, rng.randint(2, 6)),
              GLGroup(rng.randint(1, 4)), SpGroup(2 * rng.randint(1, 3)),
              HomSpaceM(rng.randint(1, 3)), MilnorFibreF(rng.randint(2, 3)),
              PfaffianHypersurface(rng.randint(1, 3)),
              ConeOverPlucker(Grass(2, 6))]
    if depth <= 0:
        return rng.choice(leaves)
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return Product(random_expr(depth - 1, rng),
                       random_expr(depth - 1, rng))
    if kind == 2:
        return FibrationTotal(random_expr(depth - 1, rng),
                              random_expr(depth - 1, rng))
    if kind == 3:
        return Complement(random_expr(depth - 1, rng),
                          random_expr(depth - 1, rng))
    return Disjoint(tuple(random_expr(depth - 1, rng)
                          for _ in range(rng.randint(2, 3))))


def test_parser_round_trip_random_trees():
    nested = 0
    for _ in range(300):
        e = random_expr(rng.randint(0, 6))
        back = parse_space_expr(format_space_expr(e))
        assert back == e and hash(back) == hash(e)
        nested += "Disjoint(parts=(Disjoint(" in repr(e)
        try:
            value = ec(e)
        except (MissingInclusionError, CapExceededError):
            continue
        assert ec(back) == value
    assert nested  # the trees include unions directly inside unions


def random_tate_expr(depth):
    # products / fibrations / unions only, so ec() always evaluates
    if depth <= 0:
        return random_expr(0)
    kind = rng.randrange(4)
    if kind == 0:
        return random_expr(0)
    if kind == 1:
        return Product(random_tate_expr(depth - 1),
                       random_tate_expr(depth - 1))
    if kind == 2:
        return FibrationTotal(random_tate_expr(depth - 1),
                              random_tate_expr(depth - 1))
    return Disjoint((random_tate_expr(depth - 1),
                     random_tate_expr(depth - 1)))


def test_evaluator_image_is_tate():
    for _ in range(100):
        e = random_tate_expr(rng.randint(0, 4))
        assert ec(e).is_tate()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 6))
def test_every_value_is_a_polynomial_in_q(source, depth):
    # what `epoly --at` and every Euler value rest on: E_c of any expression
    # that evaluates is a polynomial in q = xy, which `eval_q` evaluates
    try:
        value = ec(random_expr(depth, source))
    except (MissingInclusionError, CapExceededError):
        return
    assert value.is_tate()
    assert all(a >= 0 for a, _ in value.terms)
