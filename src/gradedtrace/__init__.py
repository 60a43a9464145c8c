"""Exact trace calculus for endomorphisms of graded modules.

Everything is computed over Z, Z[x_1..x_n], or Laurent rings with exact
integer arithmetic; traces of module endomorphisms are taken through free
resolutions, and an independent tensor-categorical route computes the same
numbers for cross-checking.
"""

from .freemod import (
    GradedFreeModule,
    GradedMatrixHom,
    Vector,
    compose,
    determinant,
    direct_sum_homs,
    direct_sum_modules,
    hom_from_columns,
    identity_hom,
    is_invertible,
    map_matrix,
    zero_hom,
)
from .modules import (
    ModuleHom,
    PresentedModule,
    Resolution,
    ResolutionTooLong,
    add_redundant_generator,
    compose_module_homs,
    free_presentation,
    identity_module_hom,
    kernel_of_hom,
    lift_endomorphism,
    module_hom,
    perturb_lift,
    presented_module,
    relation_hom_from_columns,
    resolve,
    same_quotient,
    verify_lift,
    verify_resolution,
    with_extra_relations,
)
from .monoidal import (
    DualityData,
    braiding,
    categorical_trace,
    euler_characteristic,
    standard_duality,
    tensor_homs,
    tensor_modules,
    unit_module,
    zigzag_defects,
    zigzag_holds,
)
from .rings import (
    ANY_DEGREE,
    GRADING_Z,
    GRADING_Z2,
    INHOMOGENEOUS,
    HomogeneityError,
    RingElement,
    RingMap,
    RingMismatch,
    RingSpec,
    integers,
    laurent_ring,
    polynomial_ring,
)
from .solvers import (
    ColumnSpan,
    EngineError,
    SNFResult,
    int_determinant,
    prune_columns,
    smith_normal_form,
    syzygies,
)
from .lefschetz import (
    ExampleCase,
    RunReport,
    SuiteReport,
    builtin_catalog,
    run_case,
    run_suite,
)
from .oracles import ORACLES, OracleError
from .textio import (
    Document,
    GRAMMAR,
    ParseError,
    SequencePackage,
    document_source,
    parse_file,
    parse_source,
)
from .trace import (
    AdditivityReport,
    ShortExactSequence,
    TraceValue,
    additivity_defect,
    base_change_commutes,
    base_change_trace,
    free_trace,
    hs_trace,
    induced_quotient_endo,
    projective_trace,
    signed_rank,
)

__version__ = "0.1.0"
