import pytest

from motivic.errors import CapExceededError
from motivic.hilb4 import (GOETTSCHE_CAP, PlanePartition, collinear_in_plane,
                           contribution_L4, dt_invariant,
                           ec_L4, ec_P4_minus_L4, ec_V4_contribution,
                           ec_hilb4_total, goettsche_coeff, goettsche_series,
                           hilb4_strata, hilb_line, macmahon_series,
                           partitions, plane_partitions,
                           singular_fixed_point_residual,
                           smooth_fixed_point_poly)
from motivic.laurent import ONE, parse_poly, q_power
from motivic.suites import HILB4_TOTAL_QUOTED

MACMAHON = [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500]


def test_partitions():
    assert list(partitions(0)) == [()]
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                   (1, 1, 1, 1)]
    assert len(list(partitions(10))) == 42
    for n in range(8):
        for parts in partitions(n):
            assert sum(parts) == n and all(v > 0 for v in parts)
            assert list(parts) == sorted(parts, reverse=True)


def test_goettsche_pinned_coefficient():
    assert goettsche_coeff(4) == \
        parse_poly("(x*y)^5 + 2*(x*y)^6 + (x*y)^7 + (x*y)^8")
    assert goettsche_coeff(0) == ONE
    assert goettsche_coeff(1) == q_power(2)


def test_goettsche_routes_agree_up_to_ten():
    series = goettsche_series(10)
    for n in range(11):
        coeff = goettsche_coeff(n)  # the partition-statistic route
        assert coeff == series.coeff(n)
        # partition statistic: exponents run from n+1 to 2n for n >= 1
        if n:
            assert sorted(a for a, _ in coeff.terms) == \
                sorted(set(range(n + 1, 2 * n + 1)))
    with pytest.raises(IndexError):  # not the z^10 coefficient
        series.coeff(-1)


def test_goettsche_cap():
    assert GOETTSCHE_CAP == 40
    with pytest.raises(CapExceededError):
        goettsche_coeff(GOETTSCHE_CAP + 1)
    with pytest.raises(ValueError):
        goettsche_coeff(-1)


def test_hilb_line():
    assert hilb_line(0) == ONE
    assert hilb_line(2) == q_power(2)
    assert hilb_line(4) == q_power(4)
    with pytest.raises(ValueError):
        hilb_line(-1)


def test_stratum_polynomials():
    assert ec_L4() == parse_poly("(x*y)^4 * (x*y)^2 * (1 + x*y + (x*y)^2)")
    assert contribution_L4() == parse_poly("(x*y)^6 * (1 + x*y + (x*y)^2)")
    assert collinear_in_plane() == parse_poly("(x*y)^4 * (x*y) * (1 + x*y)")
    assert ec_P4_minus_L4() == \
        parse_poly("(x*y)^7 * (1 + x*y + (x*y)^2)^2")
    assert ec_P4_minus_L4() == parse_poly(
        "(x*y)^7 + 2*(x*y)^8 + 3*(x*y)^9 + 2*(x*y)^10 + (x*y)^11")
    assert ec_V4_contribution() == \
        parse_poly("(x*y)^7 * ((x*y)^5 + (x*y)^3 - 1)")
    assert int(ec_V4_contribution().eval_at(1, 1)) == 1
    assert int(contribution_L4().eval_at(1, 1)) == 3


def test_total():
    total = ec_hilb4_total()
    assert total == parse_poly(HILB4_TOTAL_QUOTED)
    assert total == parse_poly(
        "(x*y)^6 + (x*y)^7 + 3*(x*y)^8 + 3*(x*y)^9 + 3*(x*y)^10 "
        "+ (x*y)^11 + (x*y)^12")
    assert int(total.eval_at(1, 1)) == 13
    coeffs = [total.coeff(a, a) for a in range(6, 13)]
    assert coeffs == [1, 1, 3, 3, 3, 1, 1] == coeffs[::-1]
    assert total == ec_V4_contribution() + contribution_L4() \
        + ec_P4_minus_L4()


def test_residual():
    assert singular_fixed_point_residual() == \
        parse_poly("2*(x*y)^9 - (x*y)^11")
    assert int(singular_fixed_point_residual().eval_at(1, 1)) == 1
    assert int(smooth_fixed_point_poly().eval_at(1, 1)) == 12


def test_strata_records():
    strata = hilb4_strata()
    assert [s.label for s in strata] == ["V4", "L4", "P4minusL4"]
    total = sum((s.contribution for s in strata), ONE * 0)
    assert total == ec_hilb4_total()
    v4 = strata[0]
    assert "cone(grass(2,6))" in v4.geometry
    assert len(v4.derivation) == 7
    d = v4.to_json_dict()
    assert d["citation"] == "Prop 3.4(ii)"
    assert "derivation" in d


def test_plane_partition_type():
    pp = PlanePartition(((3, 1), (1, 1), (1,)))
    assert pp.weight == 7
    with pytest.raises(ValueError):
        PlanePartition(((1, 3),))          # row increasing
    with pytest.raises(ValueError):
        PlanePartition(((2, 2), (3, 1)))   # column increasing
    with pytest.raises(ValueError):
        PlanePartition(((1,), (1, 1)))     # row lengths increasing
    with pytest.raises(ValueError):
        PlanePartition(((2, 0),))          # zero entry stored


def test_plane_partition_counts():
    assert [len(plane_partitions(m)) for m in range(11)] == MACMAHON
    assert dt_invariant(4) == 13


def test_plane_partition_enumeration_m4():
    pps = plane_partitions(4)
    assert len(pps) == len(set(pps)) == 13
    assert pps[0] == PlanePartition(((4,),))
    assert pps[-1].weight == 4
    heights = sorted(len(pp.rows) for pp in pps)
    # shapes: one row (5 = partitions of 4), ..., four rows (column of 1s)
    assert heights.count(1) == 5 and heights.count(4) == 1
    assert all(pp.weight == 4 for pp in pps)


def test_plane_partition_determinism_and_cap():
    assert plane_partitions(5) == plane_partitions(5)
    assert len(plane_partitions(13)) == 2485
    with pytest.raises(CapExceededError, match="hard maximum weight 20"):
        plane_partitions(30)
    with pytest.raises(ValueError):
        plane_partitions(-1)


def test_macmahon_series():
    coeffs = macmahon_series(10).integer_coefficients()
    assert coeffs == MACMAHON
    assert macmahon_series(6).integer_coefficients()[6] == 48
    assert macmahon_series(0).integer_coefficients() == [1]


def test_contributions_are_tate_with_nonnegative_support():
    for s in hilb4_strata():
        p = s.contribution
        assert p.is_tate()
        assert min(a for a, _ in p.terms) >= 0
    total = ec_hilb4_total()
    assert total.is_tate() and min(a for a, _ in total.terms) >= 0


def test_total_euler_equals_dt_count():
    assert int(ec_hilb4_total().eval_at(1, 1)) == dt_invariant(4) == \
        macmahon_series(4).integer_coefficients()[4]
