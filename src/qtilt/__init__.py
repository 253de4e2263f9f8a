"""qtilt: exact construction of Weyl and tilting modules for quantum groups
over local ground rings."""

from .forms import (
    FormError,
    GradedForm,
    build_smax_with_form,
    check_form,
    complete_nondegenerate,
    extend_form_minimal,
)
from .linalg import (
    LinAlgError,
    Mat,
    SmithDecomposition,
    free_complement,
    kernel_saturated,
    saturation_with_invariants,
    smith_normal_form,
    solve_in_span,
)
from .ring import (
    GroundRing,
    LaurentPoly,
    RingElem,
    RingError,
    cyclotomic_local,
    embed,
    generic_field,
    integer_local,
    parse_ring,
    qbinom,
    qfact,
    qint,
    rational_field,
    valuation,
)
from .rootsys import (
    RootSystem,
    RootSystemError,
    Weight,
    dominance_leq,
    pairing,
    root_system,
    weights_below,
    weyl_character,
    weyl_dimension,
)
from .xcat import (
    Obstructed,
    Report,
    XCatError,
    XObject,
    base_change_to_field,
    build_smax,
    build_smin,
    character,
    check_axioms,
    delta_space,
    extend_hom,
    extend_hom_down,
    hat_matrices,
    maximal_extend,
    maximality_certificate,
    minimal_extend,
    minimality_certificate,
    restrict,
    verify_frontier,
    verify_hom,
    verify_relations,
    weyl_multiplicities,
)

__version__ = "0.1.0"
