"""Formal weight-filtration bookkeeping for the vanishing-cycle module on
the cone X over Gr(2,6).

Composition factors carry (support, kind, shift, twist, weight) with the
weight rules enforced at construction: a point module of twist -k is pure
of weight 2k; an IC or constant module on a d-dimensional space with twist
-t is pure of weight d + 2t.  Stalk tables at the cone point are entered as
cited constants; the conic structure identifies hypercohomology with the
stalk, which is what makes the E-polynomials computable by two independent
routes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MissingBasePolynomialError, WeightRuleError
from .laurent import const, q_power, self_dual_convert, shift_apply
from .spaces import (Affine, ConeOverPlucker, Grass, Product, SpaceExpr,
                     dimension, ec, format_space_expr)


class ModuleKind:
    __slots__ = ()


@dataclass(frozen=True)
class PointModule(ModuleKind):
    pass


@dataclass(frozen=True)
class ICModule(ModuleKind):
    space: SpaceExpr


@dataclass(frozen=True)
class ConstantModule(ModuleKind):
    space: SpaceExpr


def _kind_text(kind):
    if isinstance(kind, PointModule):
        return "point"
    if isinstance(kind, ICModule):
        return f"IC({format_space_expr(kind.space)})"
    if isinstance(kind, ConstantModule):
        return f"constant({format_space_expr(kind.space)})"
    raise TypeError(f"not a module kind: {kind!r}")


@dataclass(frozen=True)
class CompFactor:
    support: str
    kind: ModuleKind
    shift: int
    twist: int
    weight: int

    def __post_init__(self):
        if isinstance(self.kind, PointModule):
            expected = -2 * self.twist
        elif isinstance(self.kind, (ICModule, ConstantModule)):
            expected = dimension(self.kind.space) - 2 * self.twist
        else:
            raise TypeError(f"not a module kind: {self.kind!r}")
        if self.weight != expected:
            raise WeightRuleError(
                f"{_kind_text(self.kind)} with twist {self.twist} must have "
                f"weight {expected}, got {self.weight}")

    def to_json_dict(self):
        return {"support": self.support, "kind": _kind_text(self.kind),
                "shift": self.shift, "twist": self.twist,
                "weight": self.weight}


@dataclass(frozen=True)
class FilteredHodgeObject:
    """Ordered composition factors of a weight filtration, weights strictly
    increasing; E-polynomials are additive over the factors."""

    factors: tuple
    assumptions: tuple = ()

    def __post_init__(self):
        ws = [f.weight for f in self.factors]
        if any(a >= b for a, b in zip(ws, ws[1:])):
            raise ValueError(f"weights must be strictly increasing, got {ws}")

    def weights(self):
        return [f.weight for f in self.factors]

    def kinds_palindromic(self):
        """True iff the sequence of factor kinds reads the same reversed."""
        kinds = [type(f.kind) for f in self.factors]
        return kinds == kinds[::-1]

    def to_json_dict(self):
        return {"factors": [f.to_json_dict() for f in self.factors],
                "assumptions": list(self.assumptions)}


# -- stalk tables (cited constants) ---------------------------------------------

@dataclass(frozen=True)
class StalkTable:
    """Map from cohomological degree to ((multiplicity, Tate twist), ...)."""

    entries: tuple  # ((degree, ((mult, twist), ...)), ...)

    def __post_init__(self):
        for _, cells in self.entries:
            for mult, _ in cells:
                if mult <= 0:
                    raise ValueError("stalk multiplicities must be positive")

    @classmethod
    def of(cls, table):
        return cls(tuple(sorted(
            (k, tuple(cells)) for k, cells in table.items())))

    def degree_map(self):
        return {k: cells for k, cells in self.entries}

    def e_poly(self):
        """Alternating sum over degrees of mult * (xy)^(-twist)."""
        total = const(0)
        for k, cells in self.entries:
            sign = -1 if k % 2 else 1
            for mult, twist in cells:
                total = total + sign * mult * q_power(-twist)
        return total


def milnor_fibre_stalk_table():
    """Stalks at the cone point of the vanishing-cycle module: reduced
    Milnor-fibre cohomology in degrees 14 + k."""
    return StalkTable.of({-9: [(1, -3)], -5: [(1, -5)], 0: [(1, -8)]})


def ic_stalk_table():
    """Stalks at the cone point of the intersection complex of X."""
    return StalkTable.of({-9: [(1, 0)], -5: [(1, -2)], -1: [(1, -4)]})


def link_hodge_twists():
    """Tate twists of the nonzero cohomology of the punctured cone U."""
    return {0: 0, 4: -2, 8: -4, 9: -5, 13: -7, 17: -9}


# -- the vanishing-cycle object and its E-polynomials -----------------------------

MONODROMY_ASSUMPTION = ("semisimple monodromy acts trivially, so the module "
                        "is self-dual up to the Tate twist by 15")

CONE_X = ConeOverPlucker(Grass(2, 6))


def vanishing_cycle_object():
    """The three-step weight filtration of the vanishing-cycle module on X:
    point module in weight 14, twisted IC in weight 15, point module in
    weight 16."""
    return FilteredHodgeObject(
        factors=(
            CompFactor("origin", PointModule(), shift=0, twist=-7, weight=14),
            CompFactor("X", ICModule(CONE_X), shift=0, twist=-3, weight=15),
            CompFactor("origin", PointModule(), shift=0, twist=-8, weight=16),
        ),
        assumptions=(MONODROMY_ASSUMPTION,),
    )


def e_ic_X():
    """Ordinary E of (X, IC_X) from the stalk table via the conic
    structure: -(1 + q^2 + q^4)."""
    return ic_stalk_table().e_poly()


def ec_ic_X():
    """Compactly supported E of (X, IC_X): the IC module is self-dual up to
    the twist by dim X = 9."""
    return self_dual_convert(e_ic_X(), 9)


def ec_of_object(obj):
    """E_c additively over the factors: a point module contributes
    (-1)^shift (xy)^(-twist); a constant module additionally multiplies by
    E_c of its space; an IC module on X uses E_c of (X, IC_X)."""
    return _sum_factors(obj, {"X": ec_ic_X()}, compact=True)


def e_of_object(obj):
    """Ordinary E over the factors; only point and IC factors are
    meaningful here (constant modules on open strata are not)."""
    return _sum_factors(obj, {"X": e_ic_X()}, compact=False)


def _sum_factors(obj, base, compact):
    total = const(0)
    for f in obj.factors:
        unit = shift_apply(q_power(-f.twist), f.shift)
        if isinstance(f.kind, PointModule):
            total = total + unit
            continue
        if isinstance(f.kind, ConstantModule):
            if not compact:
                raise ValueError(
                    "ordinary E of a constant module on an open stratum is "
                    "not additive factor data here")
            total = total + unit * ec(f.kind.space)
            continue
        if f.support not in base:
            raise MissingBasePolynomialError(
                f"no base polynomial registered for support {f.support!r}")
        total = total + unit * base[f.support]
    return total


def ec_vanishing_cycles(route):
    """(E, E_c) of the vanishing-cycle module on X by the named route.

    Route "stalk-stratum": ordinary E from the Milnor-fibre stalk table via
    the conic structure, then E_c by the self-dual conversion with n = 15
    (monodromy-trivial self-duality).  Route "weight-filtration": sum the
    three composition factors.  The mhm suite compares the two.
    """
    if route == "stalk-stratum":
        e = milnor_fibre_stalk_table().e_poly()
        return e, self_dual_convert(e, 15)
    if route == "weight-filtration":
        obj = vanishing_cycle_object()
        return e_of_object(obj), ec_of_object(obj)
    raise ValueError(f"unknown route {route!r}")


def phi4_restricted_object():
    """The weight filtration of the Hilbert-scheme module restricted to the
    open stratum V4 = C^3 x X: constant modules on the singular locus
    S4 = C^3 in weights 11 and 13 around the IC of V4 in weight 12."""
    s4 = Affine(3)
    v4 = Product(Affine(3), CONE_X)
    return FilteredHodgeObject(
        factors=(
            CompFactor("S4", ConstantModule(s4), shift=3, twist=-4, weight=11),
            CompFactor("V4", ICModule(v4), shift=0, twist=0, weight=12),
            CompFactor("S4", ConstantModule(s4), shift=3, twist=-5, weight=13),
        ),
    )


def twist_bookkeeping_check(m):
    """The shift/twist ledger of the Hilbert-scheme module for small m, as
    a record.

    The ambient smooth space has dimension 2m^2 + m and the module carries
    the twist (m^2 - m).  For m <= 3 the quadratic-form reduction cancels
    the twist exactly and leaves the constant module on the smooth
    3m-dimensional Hilbert scheme.  For m = 4 the reduction by l = 9
    variables lands in an 18-dimensional space which splits off a C^3
    factor, leaving net shift [3] and twist (3).
    """
    if m < 1:
        raise ValueError("need m >= 1")
    dim = 2 * m * m + m
    twist = m * m - m
    record = {"m": m, "dim": dim, "twist": twist}
    if m <= 3:
        record.update({"hilb_dim": dim - 2 * twist, "trivial": True,
                       "lemma13_l": twist, "residual": "[0](0)"})
    if m == 4:
        l = 9
        reduced = dim - 2 * l
        shift = reduced - 15
        record.update({"lemma13_l": l, "embed_dim": reduced,
                       "residual_shift": shift, "residual_twist": twist - l,
                       "residual": f"[{shift}]({twist - l})",
                       "trivial": False})
    return record
