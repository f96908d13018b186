"""Exact E-polynomial calculus for skew-matrix rank strata, the Pfaffian
vanishing-cycle module, and the Hilbert scheme of four points on affine
3-space, cross-verified against exhaustive finite-field point counts."""

from .laurent import (BettiPoly, LaurentPoly2, PowerSeries1, dualize,
                      euler_product, format_poly, gaussian_binomial,
                      parse_poly, q_power, self_dual_convert, shift_apply,
                      twist_apply)
from .skew import (GF, INTEGERS, CoeffDomain, SkewMatrix, check_equivariance,
                   pfaffian, skew_rank, stratum_dim)
from .counting import scan_skew
from .spaces import (dimension, ec, ec_traced, format_space_expr,
                     parse_space_expr)
from .weights import (CompFactor, FilteredHodgeObject, ec_ic_X,
                      ec_of_object, ec_vanishing_cycles,
                      twist_bookkeeping_check, vanishing_cycle_object)
from .hilb4 import (PlanePartition, dt_invariant, ec_hilb4_total,
                    goettsche_coeff, hilb_line, macmahon_series,
                    plane_partitions, singular_fixed_point_residual)
from .suites import SuiteContext, emit_report, run_suite

__version__ = "0.1.0"
