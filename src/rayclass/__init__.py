"""rayclass: modular units, CM points and ray class invariants of imaginary
quadratic fields at arbitrary precision.

The package evaluates the classical q-expansions (eta, Eisenstein forms,
Siegel functions, Weierstrass wp), enumerates reduced quadratic forms and
explicit Galois conjugation labels for ray class fields, and ships a
verification harness that checks the underlying identities, inequalities and
generation statements numerically at controlled precision.
"""

__version__ = "0.1.0"

from .classfield import (
    CMPoint,
    Field,
    IdealFactor,
    ReducedForm,
    beta_lift,
    beta_matrices,
    check_hypothesis,
    cm_point,
    ideal_factorization,
    is_fundamental,
    make_field,
    ray_class_degree,
    reduced_forms,
    splitting,
)
from .errors import (
    DegenerateIndex,
    DuplicateValues,
    ImTooSmall,
    InputError,
    NearZero,
    NonFinite,
    NonInvertible,
    NotFundamental,
    NotImaginary,
    NumericalError,
    OnLattice,
    RayclassError,
    UnsupportedDiscriminant,
)
from .numerics import PrecisionContext, truncation_terms
from .qseries import (
    CurveCoords,
    FractionPair,
    ModularPoint,
    bernoulli2,
    delta,
    eisenstein,
    eta,
    j_invariant,
    normalized,
    siegel,
    siegel_order,
    u_value,
    v_value,
    wp,
    wp_prime,
    x_value,
    y_value,
)
from .reciprocity import (
    DESCRIPTORS,
    GaloisLabel,
    WElement,
    act_index,
    conjugate_values,
    labels,
    siegel_ramachandra_unit,
    w_group,
)
from .verify import (
    CheckReport,
    Polynomial,
    check_T_bound,
    check_curve_point,
    check_elliptic_points,
    check_generation,
    check_lemma51,
    check_lemma52,
    check_surface_point,
    elliptic4_points,
    hilbert_class_poly,
    minpoly,
    t_majorant,
)
