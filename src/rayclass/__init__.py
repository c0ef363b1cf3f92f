"""rayclass: modular units, CM points and ray class invariants of imaginary
quadratic fields at arbitrary precision.

The package evaluates the classical q-expansions (eta, Eisenstein forms,
Siegel functions, Weierstrass wp), enumerates reduced quadratic forms and
explicit Galois conjugation labels for ray class fields, and ships a
verification harness that checks the underlying identities, inequalities and
generation statements numerically at controlled precision.

``__all__`` is the public surface (README, "Public API").  Everything else
lives in the submodules, which stay attributes of the package.
"""

__version__ = "0.1.0"

from .classfield import (
    check_hypothesis,
    ideal_factorization,
    make_field,
    ray_class_degree,
)
from .errors import (
    DegenerateIndex,
    DuplicateValues,
    ImTooSmall,
    InputError,
    NonFinite,
    NonInvertible,
    NotFundamental,
    NotImaginary,
    NumericalError,
    OnLattice,
    RayclassError,
    UnsupportedDiscriminant,
)
from .numerics import PrecisionContext
from .qseries import (
    FractionPair,
    ModularPoint,
    delta,
    eisenstein,
    eta,
    j_invariant,
    normalized,
    siegel,
    u_value,
    v_value,
    wp,
    wp_prime,
    x_value,
    y_value,
)
from .reciprocity import conjugate_values, w_group
from .verify import (
    CheckReport,
    check_T_bound,
    check_curve_point,
    check_elliptic_points,
    check_generation,
    check_lemma51,
    check_lemma52,
    check_surface_point,
    hilbert_class_poly,
    minpoly,
)

__all__ = [
    # points, indices and precision
    "PrecisionContext", "ModularPoint", "FractionPair",
    # evaluators at a point
    "eta", "eisenstein", "delta", "j_invariant", "siegel", "wp", "wp_prime",
    "u_value", "v_value", "x_value", "y_value", "normalized",
    # class field data and Galois orbits
    "make_field", "ray_class_degree", "ideal_factorization", "check_hypothesis",
    "w_group", "conjugate_values", "minpoly", "hilbert_class_poly",
    # checks
    "CheckReport", "check_curve_point", "check_surface_point", "check_lemma51",
    "check_lemma52", "check_T_bound", "check_generation", "check_elliptic_points",
    # errors
    "RayclassError", "InputError", "NotFundamental", "NotImaginary",
    "UnsupportedDiscriminant", "DegenerateIndex", "NonInvertible",
    "NumericalError", "ImTooSmall", "OnLattice", "NonFinite",
    "DuplicateValues",
]
