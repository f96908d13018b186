"""Formal weight-filtration bookkeeping for the vanishing-cycle module on
the cone X over Gr(2,6).

A composition factor is its (kind, shift, twist, space), and its weight
is derived from them: a module on a d-dimensional space with twist -t is
pure of weight d + 2t, a point module counting as d = 0.  Stalk tables at
the cone point are entered as cited constants; the conic structure
identifies hypercohomology with the stalk, which is what makes the
E-polynomials computable by two independent routes.
"""

from __future__ import annotations

from ._record import FrozenRecord
from .errors import MissingBasePolynomialError
from .laurent import const, q_power, self_dual_convert, shift_apply
from .skew import stratum_dim
from .spaces import (Affine, ConeOverPlucker, Grass, Product,
                     dimension, ec, format_space_expr)

KINDS = ("point", "IC", "constant")


class CompFactor(FrozenRecord):
    """A composition factor; `kind` is "point", "IC" or "constant" and
    `space`, a SpaceExpr, is None exactly for a point, which counts as
    dimension 0."""

    __slots__ = ("kind", "shift", "twist", "space")

    def __init__(self, kind, shift, twist, space=None):
        if kind not in KINDS or (space is None) != (kind == "point"):
            raise TypeError(f"not a module kind: {kind!r} on {space!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "space", space)

    @property
    def weight(self):
        dim = 0 if self.space is None else dimension(self.space)
        return dim - 2 * self.twist

    def kind_text(self):
        if self.space is None:
            return self.kind
        return f"{self.kind}({format_space_expr(self.space)})"


class FilteredHodgeObject(FrozenRecord):
    """Ordered composition factors of a weight filtration, weights strictly
    increasing; E-polynomials are additive over the factors."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        ws = [f.weight for f in factors]
        if any(a >= b for a, b in zip(ws, ws[1:])):
            raise ValueError(f"weights must be strictly increasing, got {ws}")
        object.__setattr__(self, "factors", factors)

    def weights(self):
        return [f.weight for f in self.factors]

    def kinds_palindromic(self):
        """True iff the sequence of factor kinds reads the same reversed."""
        kinds = [f.kind for f in self.factors]
        return kinds == kinds[::-1]


# -- stalk tables (cited constants) ---------------------------------------------
#
# A stalk table maps a cohomological degree to the Tate twist of the one
# class in that degree.

def stalk_e(table):
    """Alternating sum over degrees of (xy)^(-twist)."""
    total = const(0)
    for k, twist in table.items():
        sign = -1 if k % 2 else 1
        total = total + sign * q_power(-twist)
    return total


def milnor_fibre_stalk_table():
    """Stalks at the cone point of the vanishing-cycle module: reduced
    Milnor-fibre cohomology in degrees 14 + k."""
    return {-9: -3, -5: -5, 0: -8}


def ic_stalk_table():
    """Stalks at the cone point of the intersection complex of X."""
    return {-9: 0, -5: -2, -1: -4}


# -- the vanishing-cycle object and its E-polynomials -----------------------------

CONE_X = ConeOverPlucker(Grass(2, 6))
# the open stratum of the Hilbert scheme of four points
V4 = Product(Affine(3), CONE_X)
# the dimension of the space of 6x6 skew matrices, in which X is a cone
SKEW6_DIM = stratum_dim(3, 3)


def vanishing_cycle_object():
    """The three-step weight filtration of the vanishing-cycle module on X:
    point module in weight 14, twisted IC in weight 15, point module in
    weight 16.  It assumes that semisimple monodromy acts trivially, so the
    module is self-dual up to the Tate twist by 15."""
    return FilteredHodgeObject(factors=(
        CompFactor("point", shift=0, twist=-7),
        CompFactor("IC", shift=0, twist=-3, space=CONE_X),
        CompFactor("point", shift=0, twist=-8),
    ))


def e_ic_X():
    """Ordinary E of (X, IC_X) from the stalk table via the conic
    structure: -(1 + q^2 + q^4)."""
    return stalk_e(ic_stalk_table())


def ec_ic_X():
    """Compactly supported E of (X, IC_X): the IC module is self-dual up to
    the twist by dim X = 9."""
    return self_dual_convert(e_ic_X(), dimension(CONE_X))


def ec_of_object(obj):
    """E_c additively over the factors: a point module contributes
    (-1)^shift (xy)^(-twist); a constant module additionally multiplies by
    E_c of its space; an IC module on X uses E_c of (X, IC_X)."""
    return _sum_factors(obj, compact=True)


def e_of_object(obj):
    """Ordinary E over the factors; only point and IC factors are
    meaningful here (constant modules on open strata are not)."""
    return _sum_factors(obj, compact=False)


def _sum_factors(obj, compact):
    total = const(0)
    for f in obj.factors:
        unit = shift_apply(q_power(-f.twist), f.shift)
        if f.kind == "point":
            total = total + unit
        elif f.kind == "constant":
            if not compact:
                raise ValueError(
                    "ordinary E of a constant module on an open stratum is "
                    "not additive factor data here")
            total = total + unit * ec(f.space)
        elif f.space == CONE_X:
            total = total + unit * (ec_ic_X() if compact else e_ic_X())
        else:
            raise MissingBasePolynomialError(
                f"no base polynomial registered for {f.kind_text()}")
    return total


def ec_vanishing_cycles(route):
    """(E, E_c) of the vanishing-cycle module on X by the named route.

    Route "stalk-stratum": ordinary E from the Milnor-fibre stalk table via
    the conic structure, then E_c by the self-dual conversion with n = 15
    (monodromy-trivial self-duality).  Route "weight-filtration": sum the
    three composition factors.  The mhm suite compares the two.
    """
    if route == "stalk-stratum":
        e = stalk_e(milnor_fibre_stalk_table())
        return e, self_dual_convert(e, SKEW6_DIM)
    if route == "weight-filtration":
        obj = vanishing_cycle_object()
        return e_of_object(obj), ec_of_object(obj)
    raise ValueError(f"unknown route {route!r}")


def phi4_restricted_object():
    """The weight filtration of the Hilbert-scheme module restricted to the
    open stratum V4 = C^3 x X: constant modules on the singular locus
    S4 = C^3 in weights 11 and 13 around the IC of V4 in weight 12."""
    s4 = Affine(3)
    return FilteredHodgeObject(factors=(
        CompFactor("constant", shift=3, twist=-4, space=s4),
        CompFactor("IC", shift=0, twist=0, space=V4),
        CompFactor("constant", shift=3, twist=-5, space=s4),
    ))


def twist_bookkeeping_check(m):
    """The shift/twist ledger of the Hilbert-scheme module for small m, as
    a record.

    The ambient smooth space has dimension 2m^2 + m and the module carries
    the twist (m^2 - m).  For m <= 3 the quadratic-form reduction cancels
    the twist exactly and leaves the constant module on the smooth
    3m-dimensional Hilbert scheme.  For m = 4 the reduction by l = 9
    variables lands in the 18-dimensional space C^3 x (6x6 skew matrices),
    whose C^3 factor splits off, leaving net shift [3] and twist (3).
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
        shift = reduced - SKEW6_DIM
        record.update({"lemma13_l": l, "embed_dim": reduced,
                       "residual_shift": shift, "residual_twist": twist - l,
                       "residual": f"[{shift}]({twist - l})",
                       "trivial": False})
    return record
