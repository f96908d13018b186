"""Exact E-polynomial calculus for skew-matrix rank strata, the Pfaffian
vanishing-cycle module, and the Hilbert scheme of four points on affine
3-space, cross-verified against exhaustive finite-field point counts.

Import each name from the module that defines it: importing the package
itself loads none of its modules."""

__version__ = "0.1.0"
