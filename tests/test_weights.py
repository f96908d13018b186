import pytest

from motivic.errors import MissingBasePolynomialError
from motivic.laurent import ONE, parse_poly, q_power, self_dual_convert
from motivic.spaces import Affine, ConeOverPlucker, Grass, Product
from motivic.weights import (V4, CompFactor, FilteredHodgeObject, e_ic_X,
                             e_of_object, ec_ic_X, ec_of_object,
                             ec_vanishing_cycles, ic_stalk_table,
                             milnor_fibre_stalk_table,
                             phi4_restricted_object, stalk_e,
                             twist_bookkeeping_check, vanishing_cycle_object)

CONE = ConeOverPlucker(Grass(2, 6))


def test_vanishing_cycle_object_shape():
    obj = vanishing_cycle_object()
    assert obj.weights() == [14, 15, 16]
    assert obj.kinds_palindromic()
    assert [f.kind for f in obj.factors] == ["point", "IC", "point"]
    assert [f.space for f in obj.factors] == [None, CONE, None]
    assert [f.twist for f in obj.factors] == [-7, -3, -8]


def test_factor_is_kind_shift_twist_and_space():
    # a record's fields are its slots, in constructor order
    assert CompFactor.__slots__ == ("kind", "shift", "twist", "space")
    f = CompFactor("IC", 1, -3, CONE)
    assert (f.kind, f.shift, f.twist, f.space) == ("IC", 1, -3, CONE)


def test_weight_rules():
    # point module: twist -k has weight 2k
    assert CompFactor("point", 0, -7).weight == 14
    # IC on a 9-dimensional space with twist -3 has weight 9 + 6
    assert CompFactor("IC", 0, -3, CONE).weight == 15
    # constant module on C^3 with twist -4 has weight 3 + 8, whatever
    # its shift
    assert CompFactor("constant", 3, -4, Affine(3)).weight == 11
    assert CompFactor("constant", 0, -4, Affine(3)).weight == 11
    # IC on V4 = C^3 x X, untwisted: weight 3 + 9
    assert CompFactor("IC", 0, 0, V4).weight == 12


def test_missing_base_polynomial_error_names_the_kind():
    missing = FilteredHodgeObject(factors=(CompFactor("IC", 0, 0, V4),))
    with pytest.raises(MissingBasePolynomialError) as info:
        ec_of_object(missing)
    assert str(info.value) == "no base polynomial registered for " \
        "IC(affine(3) * cone(grass(2,6)))"
    assert CompFactor("constant", 3, -4, Affine(3)).kind_text() \
        == "constant(affine(3))"
    assert CompFactor("point", 0, -7).kind_text() == "point"


@pytest.mark.parametrize("kind, space", [
    ("sheaf", None), ("sheaf", CONE), ("point", Affine(0)), ("IC", None),
    ("constant", None)])
def test_factor_kind_and_space_must_match(kind, space):
    with pytest.raises(TypeError):
        CompFactor(kind, 0, 0, space)


def test_weights_strictly_increasing():
    f1 = CompFactor("point", 0, -7)
    with pytest.raises(ValueError):
        FilteredHodgeObject(factors=(f1, f1))


def test_kinds_palindromic_reads_the_kinds():
    point = CompFactor("point", 0, -7)
    const = CompFactor("constant", 0, -6, Affine(3))
    assert not FilteredHodgeObject(factors=(point, const)).kinds_palindromic()


def test_stalk_tables():
    assert milnor_fibre_stalk_table() == {-9: -3, -5: -5, 0: -8}
    assert ic_stalk_table() == {-9: 0, -5: -2, -1: -4}
    assert stalk_e(milnor_fibre_stalk_table()) == \
        -q_power(3) - q_power(5) + q_power(8)
    assert stalk_e(ic_stalk_table()) == -(ONE + q_power(2) + q_power(4))
    assert stalk_e({}) == 0


def test_ic_polynomials():
    assert e_ic_X() == parse_poly("-(1 + (x*y)^2 + (x*y)^4)")
    assert ec_ic_X() == parse_poly("-((x*y)^5 + (x*y)^7 + (x*y)^9)")
    assert int(e_ic_X().eval_at(1, 1)) == -3


def test_routes_agree_and_match_quoted():
    for route in ("stalk-stratum", "weight-filtration"):
        e, e_c = ec_vanishing_cycles(route)
        assert e == parse_poly("(x*y)^3 * ((x*y)^5 - (x*y)^2 - 1)")
        assert e_c == parse_poly("(x*y)^7 * (1 - (x*y)^3 - (x*y)^5)")
    with pytest.raises(ValueError):
        ec_vanishing_cycles("nope")


def test_routes_are_computed_independently(monkeypatch):
    import motivic.weights as weights
    monkeypatch.setattr(weights, "milnor_fibre_stalk_table",
                        lambda: {0: -8})
    assert ec_vanishing_cycles("stalk-stratum")[0] == q_power(8)
    assert ec_vanishing_cycles("weight-filtration")[0] == \
        parse_poly("(x*y)^3 * ((x*y)^5 - (x*y)^2 - 1)")


def test_route_self_duality_and_euler():
    e, e_c = ec_vanishing_cycles("stalk-stratum")
    assert self_dual_convert(e, 15) == e_c
    assert self_dual_convert(e_c, 15) == e
    assert int(e.eval_at(1, 1)) == -1


def test_weight_filtration_route_decomposition():
    obj = vanishing_cycle_object()
    assert ec_of_object(obj) == \
        q_power(7) + q_power(3) * ec_ic_X() + q_power(8)
    assert e_of_object(obj) == \
        q_power(7) + q_power(3) * e_ic_X() + q_power(8)


def test_ec_of_object_pieces():
    single = FilteredHodgeObject(
        factors=(CompFactor("point", 0, -7),))
    assert ec_of_object(single) == q_power(7)
    shifted = FilteredHodgeObject(
        factors=(CompFactor("constant", 3, 0, Affine(3)),))
    assert ec_of_object(shifted) == -q_power(3)
    missing = FilteredHodgeObject(
        factors=(CompFactor("IC", 0, -3, Affine(9)),))
    with pytest.raises(MissingBasePolynomialError):
        ec_of_object(missing)


def test_phi4_restricted_object():
    obj = phi4_restricted_object()
    assert obj.weights() == [11, 12, 13]
    assert obj.kinds_palindromic()
    ic = obj.factors[1]
    assert (ic.kind, ic.space) == ("IC", Product(Affine(3), CONE))
    pieces = [ec_of_object(FilteredHodgeObject(factors=(f,)))
              for f in obj.factors if f.kind == "constant"]
    assert pieces == [-q_power(7), -q_power(8)]


def test_twist_bookkeeping():
    rec = twist_bookkeeping_check(4)
    assert rec["dim"] == 36 and rec["twist"] == 12
    assert rec["lemma13_l"] == 9 and rec["residual"] == "[3](3)"
    assert rec["embed_dim"] == 18
    rec1 = twist_bookkeeping_check(1)
    assert rec1["dim"] == 3 and rec1["twist"] == 0 and rec1["trivial"]
    rec3 = twist_bookkeeping_check(3)
    assert rec3["dim"] == 21 and rec3["twist"] == 6
    assert rec3["hilb_dim"] == 9 and rec3["trivial"]
    rec5 = twist_bookkeeping_check(5)
    assert rec5 == {"m": 5, "dim": 55, "twist": 20}
    with pytest.raises(ValueError):
        twist_bookkeeping_check(0)


def test_ordinary_e_of_constant_module_rejected():
    obj = FilteredHodgeObject(
        factors=(CompFactor("constant", 3, 0, Affine(3)),))
    with pytest.raises(ValueError):
        e_of_object(obj)
