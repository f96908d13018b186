"""Strata of the Hilbert scheme of four points on affine 3-space, assembly
of the E-polynomial of its vanishing-cycle module, and the plane-partition
count that it categorifies.
"""

from __future__ import annotations

from ._record import FrozenRecord
from .errors import CapExceededError
from .laurent import (ONE, const, euler_product, format_poly, parse_poly,
                      q_power, shift_apply, twist_apply)
from .spaces import Affine, FibrationTotal, Proj, ec, format_space_expr
from .weights import V4, ec_vanishing_cycles, phi4_restricted_object

# hard maximum weight: weight 20 has 75,278 plane partitions and takes
# about 1.5 s; the count grows about 1.6x per unit of weight
PLANE_PARTITION_MAX = 20
GOETTSCHE_CAP = 40


# -- partitions and plane partitions ----------------------------------------------

def partitions(n, max_part=None):
    """All partitions of n, first part descending, as tuples."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


class PlanePartition(FrozenRecord):
    """Finite array of positive integers, weakly decreasing along rows and
    down columns; trailing zeros are not stored."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        prev = None
        for row in rows:
            if not row:
                raise ValueError("rows must be nonempty")
            if any(v <= 0 for v in row):
                raise ValueError("entries must be positive")
            if any(a < b for a, b in zip(row, row[1:])):
                raise ValueError("rows must be weakly decreasing")
            if prev is not None:
                if len(row) > len(prev):
                    raise ValueError("row lengths must be weakly decreasing")
                if any(v > prev[i] for i, v in enumerate(row)):
                    raise ValueError("columns must be weakly decreasing")
            prev = row
        object.__setattr__(self, "rows", rows)

    @property
    def weight(self):
        return sum(sum(row) for row in self.rows)


def _rows_below(bound, budget):
    """Nonempty weakly decreasing rows pointwise <= bound with sum <= budget,
    in the same descending-lexicographic order as the partition generator."""
    out = []

    def rec(prefix, i, cap, left):
        if prefix:
            out.append(tuple(prefix))
        if i >= len(bound) or left == 0:
            return
        top = min(bound[i], cap, left)
        for v in range(top, 0, -1):
            prefix.append(v)
            rec(prefix, i + 1, v, left - v)
            prefix.pop()

    rec([], 0, budget, budget)
    return out


def plane_partitions(m):
    """Exhaustive, duplicate-free list of plane partitions of weight m,
    depth-first over rows: each row, the first under the bound (m,) * m, is
    taken in the descending-lexicographic order of `_rows_below`, so a
    shorter row comes before its extensions.  Refuses m above
    PLANE_PARTITION_MAX with CapExceededError."""
    if m < 0:
        raise ValueError("weight must be >= 0")
    if m > PLANE_PARTITION_MAX:
        raise CapExceededError(
            f"plane-partition enumeration of weight {m} exceeds the hard "
            f"maximum weight {PLANE_PARTITION_MAX}")
    out = []

    def rec(rows, prev, left):
        if left == 0:
            out.append(PlanePartition(tuple(rows)))
            return
        for row in _rows_below(prev, left):
            rows.append(row)
            rec(rows, row, left - sum(row))
            rows.pop()

    rec([], (m,) * m, m)
    return out


def macmahon_series(order):
    """Product over k of (1 - z^k)^(-k), truncated at the given order."""
    return euler_product(
        [(ONE, k) for k in range(1, order + 1) for _ in range(k)], order)


def dt_invariant(m):
    """Number of plane partitions of weight m."""
    return len(plane_partitions(m))


# -- Hilbert schemes of points on a line and a plane --------------------------------

def hilb_line(n):
    """E_c of the Hilbert scheme of n points on the affine line: q^n."""
    if n < 0:
        raise ValueError("need n >= 0")
    return q_power(n)


def goettsche_series(order):
    """Generating series for E_c of Hilbert schemes of points on the affine
    plane: product over k >= 1 of (1 - q^(k+1) z^k)^(-1)."""
    return euler_product(
        [(q_power(k + 1), k) for k in range(1, order + 1)], order)


def goettsche_coeff(n):
    """E_c of the Hilbert scheme of n points on the affine plane by the
    partition statistic: the sum over partitions of n of q^(n + length).
    The other route is goettsche_series(n).coeff(n)."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n > GOETTSCHE_CAP:
        raise CapExceededError(
            f"partition sum for n = {n} exceeds cap {GOETTSCHE_CAP}")
    total = const(0)
    for parts in partitions(n):
        total = total + q_power(n + len(parts))
    return total


# -- strata of the Hilbert scheme of four points -------------------------------------

LINES_IN_SPACE = FibrationTotal(Proj(2), Affine(2))
PLANES_IN_SPACE = FibrationTotal(Proj(2), Affine(1))
LINES_IN_PLANE = FibrationTotal(Proj(1), Affine(1))

# the six-step duality chain behind the open-stratum contribution, kept as
# trace documentation; vc denotes the vanishing-cycle module on X
V4_DUALITY_TRACE = (
    "E_c(V4, p2^*(vc)[3](3))",
    "= E(V4, D(p2^*(vc)[3](3)); 1/x, 1/y)",
    "= E(V4, p2^!(vc(15))[-3](-3); 1/x, 1/y)",
    "= -E(V4, p2^*(vc(15)); 1/x, 1/y)  using p2^! = p2^*(3)[6]",
    "= -E(X, vc(15); 1/x, 1/y)",
    "= -E_c(X, D(vc(15)))",
    "= -E_c(X, vc)",
)


def ec_V4_contribution():
    """Contribution of the open stratum V4 = C^3 x X, computed by the short
    Kuenneth route: shift [3], twist (3), and the E_c of the vanishing-cycle
    module on X."""
    _, ec_vc = ec_vanishing_cycles("stalk-stratum")
    return shift_apply(twist_apply(ec(Affine(3)) * ec_vc, 3), 3)


def ec_L4():
    """E_c of the stratum of four collinear points: four points on a line
    times the space of lines in C^3."""
    return hilb_line(4) * ec(LINES_IN_SPACE)


def contribution_L4():
    """Module contribution of L4: the restriction is the constant module
    with shift [12], so the sign is (+)."""
    return shift_apply(ec_L4(), 12)


def collinear_in_plane():
    """E_c of the locus of four collinear points inside a fixed plane."""
    return hilb_line(4) * ec(LINES_IN_PLANE)


def ec_P4_minus_L4():
    """Contribution of the strictly planar stratum: non-collinear four
    points on a plane, fibred over the planes in C^3."""
    in_plane = goettsche_coeff(4) - collinear_in_plane()
    return shift_apply(in_plane * ec(PLANES_IN_SPACE), 12)


def ec_hilb4_total():
    """E_c of the vanishing-cycle module on the Hilbert scheme of four
    points: the sum of the three strata contributions."""
    return ec_V4_contribution() + contribution_L4() + ec_P4_minus_L4()


def smooth_fixed_point_poly():
    """Cited constant: the contribution of the twelve planar torus-fixed
    points, computed elsewhere by localization."""
    return parse_poly("(x*y)^12 + 2*(x*y)^11 + 3*(x*y)^10 + (x*y)^9 "
                      "+ 3*(x*y)^8 + (x*y)^7 + (x*y)^6")


def singular_fixed_point_residual():
    """What the one non-planar fixed point must contribute: the total minus
    the smooth-fixed-point constant."""
    return ec_hilb4_total() - smooth_fixed_point_poly()


class HilbStratum(FrozenRecord):
    """A stratum with its module data and its contribution, a LaurentPoly2."""

    __slots__ = ("label", "geometry", "coefficient", "citation",
                 "contribution", "derivation")

    def __init__(self, label, geometry, coefficient, citation, contribution,
                 derivation=()):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "citation", citation)
        object.__setattr__(self, "contribution", contribution)
        object.__setattr__(self, "derivation", derivation)

    def to_json_dict(self):
        d = {"label": self.label, "geometry": self.geometry,
             "coefficient": self.coefficient, "citation": self.citation,
             "contribution": format_poly(self.contribution)}
        if self.derivation:
            d["derivation"] = list(self.derivation)
        return d


def hilb4_strata():
    """The three strata with their module data and contributions."""
    phi4 = phi4_restricted_object()
    return [
        HilbStratum(
            label="V4",
            geometry=format_space_expr(V4),
            coefficient="pullback of the vanishing-cycle module on X, "
                        "shifted [3], twisted (3); weight factors "
                        + str(phi4.weights()),
            citation="Prop 3.4(ii)",
            contribution=ec_V4_contribution(),
            derivation=V4_DUALITY_TRACE,
        ),
        HilbStratum(
            label="L4",
            geometry=format_space_expr(
                FibrationTotal(LINES_IN_SPACE, Affine(4))),
            coefficient="constant module, shift [12]",
            citation="Thm 3.7 proof",
            contribution=contribution_L4(),
        ),
        HilbStratum(
            label="P4minusL4",
            geometry="fib(" + format_space_expr(PLANES_IN_SPACE)
                     + "; non-collinear four points on a plane)",
            coefficient="constant module, shift [12]",
            citation="Thm 3.7 proof",
            contribution=ec_P4_minus_L4(),
        ),
    ]
