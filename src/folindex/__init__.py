"""folindex: exact local indices of plane foliation germs and global checks on P^2.

The package computes, in exact arithmetic over Q or a simple algebraic
extension Q(theta), the classical local indices attached to a singular
point of a holomorphic foliation of a surface: the Poincare-Hopf index,
the Euler-obstruction pairing through the Nash transform of an invariant
curve, the GSV and Schwartz indices, the logarithmic index with respect
to a free divisor, and derived quantities (multiplicity along a curve,
polar intersection numbers, the chi-number of a deformation family).
On the global side it assembles foliations of the projective plane from
an affine chart, locates all singular points including those at infinity,
and verifies degree-theoretic identities equating Chern-class integrals
with sums of the local indices.

Everything is computed symbolically: no floats, no numerical root
finding.  Algebraic numbers are represented by their minimal polynomial
and the arithmetic stays inside one simple extension; inputs that would
force a tower raise ExtensionRequiredError instead of silently losing
exactness.
"""

from .exactcore import (
    DescriptorMismatchError,
    ExtensionRequiredError,
    FieldDescriptor,
    FieldElem,
    FolindexError,
    MissingInputError,
    MultiPoly,
    NonIsolatedError,
    NonReducedError,
    NonTangentError,
    NotLogarithmicError,
    NotSaturatedError,
    ParseError,
    PreconditionError,
    QQ,
    ResourceCapError,
    SaitoCheckError,
    parse_poly,
    resultant,
    substitute,
    translate_to_origin,
)
from .localmult import INFINITE, LocalMultiplicity, curve_multiplicity, intersection_multiplicity, milnor_number
from .puiseux import (
    Branch,
    InsufficientPrecisionError,
    ZERO_UP_TO_TRUNCATION,
    branches,
    nash_lift_order,
    ord_along_branch,
)
from .indices import (
    IndexReport,
    LogBasis,
    VectorFieldGerm,
    auto_saito_basis,
    chi_number,
    euler_obstruction_field,
    gsv_index,
    is_logarithmic,
    log_index,
    mu_along_curve,
    ph_index,
    polar_intersection,
    saito_check,
    schwartz_index,
)
from .confun import (
    ConstructibleFn,
    LagrangianCycle,
    cc,
    complement_of_divisor,
    index_pairing,
    indicator_curve,
    nearby_cycles,
    vanishing_cycles,
)
from .chern import (
    CSMClass,
    ChowClass,
    chern_virtual_quotient,
    chow_integral,
    chow_mul,
    csm_curve,
    csm_complement,
    log_chern_snc,
    top_chern_twist,
    twisted_index_sum,
)
from .foliation import (
    ProjFoliation,
    SingularPoint,
    divisor_in_charts,
    from_affine,
    is_log_along,
    localize,
    singular_points,
)
from .verify import (
    GlobalReport,
    verify_baum_bott,
    verify_isolated,
    verify_log_seh,
    verify_total_gsv,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "CSMClass",
    "ChowClass",
    "ConstructibleFn",
    "DescriptorMismatchError",
    "ExtensionRequiredError",
    "FieldDescriptor",
    "FieldElem",
    "FolindexError",
    "GlobalReport",
    "INFINITE",
    "IndexReport",
    "InsufficientPrecisionError",
    "LagrangianCycle",
    "LocalMultiplicity",
    "LogBasis",
    "MissingInputError",
    "MultiPoly",
    "NonIsolatedError",
    "NonReducedError",
    "NonTangentError",
    "NotLogarithmicError",
    "NotSaturatedError",
    "ParseError",
    "PreconditionError",
    "ProjFoliation",
    "QQ",
    "ResourceCapError",
    "SaitoCheckError",
    "SingularPoint",
    "VectorFieldGerm",
    "ZERO_UP_TO_TRUNCATION",
    "auto_saito_basis",
    "branches",
    "cc",
    "chern_virtual_quotient",
    "chi_number",
    "chow_integral",
    "chow_mul",
    "complement_of_divisor",
    "csm_complement",
    "csm_curve",
    "curve_multiplicity",
    "divisor_in_charts",
    "euler_obstruction_field",
    "from_affine",
    "gsv_index",
    "index_pairing",
    "indicator_curve",
    "intersection_multiplicity",
    "is_log_along",
    "is_logarithmic",
    "localize",
    "log_chern_snc",
    "log_index",
    "milnor_number",
    "mu_along_curve",
    "nash_lift_order",
    "nearby_cycles",
    "ord_along_branch",
    "parse_poly",
    "ph_index",
    "polar_intersection",
    "resultant",
    "saito_check",
    "schwartz_index",
    "singular_points",
    "substitute",
    "top_chern_twist",
    "translate_to_origin",
    "twisted_index_sum",
    "vanishing_cycles",
    "verify_baum_bott",
    "verify_isolated",
    "verify_log_seh",
    "verify_total_gsv",
]
