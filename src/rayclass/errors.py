"""Exception types shared across the package.

Numerical errors (ImTooSmall, OnLattice, DegenerateIndex, NonFinite)
signal that an evaluation cannot proceed at the requested point/precision,
or produced a value that is not finite; input errors signal invalid
arithmetic data (bad discriminant, non-invertible matrix, duplicate
roots).  The CLI maps the two groups onto distinct exit codes.
"""


class RayclassError(Exception):
    """Base class for all package-specific errors."""


class NumericalError(RayclassError):
    """An evaluation hit a singular/ill-conditioned configuration."""


class ImTooSmall(NumericalError):
    """Im(tau) below the supported floor; |q| too close to 1."""


class OnLattice(NumericalError):
    """An argument too near the lattice: an index whose sum Ev - Od keeps
    fewer than bits + 8 significant bits (``qseries._LevelTable.triple``),
    or a complex z within sqrt(eps) of it (a pole of wp)."""


class DegenerateIndex(NumericalError):
    """A function index (r1, r2) landed in Z^2 where it must not."""


class NonFinite(NumericalError):
    """A value handed to the distinctness test or to an exact check
    residual has a component that is nan or infinite, so no distance or
    residual of it means anything."""


class InputError(RayclassError):
    """Invalid arithmetic input (validation failure, not a numerical one)."""


class NotFundamental(InputError):
    """Discriminant is not a fundamental discriminant."""


class NotImaginary(InputError):
    """Discriminant is not negative."""


class UnsupportedDiscriminant(InputError):
    """Operation requires d_K <= -7 (unit group {+1, -1})."""


class NonInvertible(InputError):
    """A lifted matrix is not invertible modulo N."""


class DuplicateValues(InputError):
    """``minpoly`` received values that coincide at the distinctness
    threshold."""
