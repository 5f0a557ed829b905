"""ordbench: a finite order-theory workbench.

Finite posets and lattices, connections (weakening relations) with their
left/right adjoints, the modular-connection and reciprocity law families
with exhaustive theorem verifiers, commutative quantales with principal
element detection, and a deterministic CLI.
"""

from .errors import (
    CycleDetected,
    DimensionMismatch,
    DuplicateLabel,
    IndexOutOfRange,
    InvalidModulus,
    MissingAdjoint,
    NotAdjoint,
    NotAnOrder,
    NotAssociative,
    NotBounded,
    NotCommutative,
    NotJoinPreserving,
    NotMonotone,
    OrdbenchError,
    ParseError,
    PredicateSyntaxError,
    SizeBoundExceeded,
    SourceTargetMismatch,
    UnknownLabel,
    UnknownLaw,
    UnknownSuite,
    UnsupportedLaw,
)
from .lattice import (
    ElementView,
    FiniteLattice,
    MonotoneMap,
    build_poset,
    catalog,
    catalog_named,
    compose_maps,
    divisor_lattice,
    down_set,
    dual,
    from_leq,
    iter_monotone_maps,
    monotone_maps,
    up_set,
)
from .connection import (
    AdjointConnection,
    Connection,
    compose,
    compose_adjoint,
    connection_of_monotone_left,
    connection_of_monotone_right,
    enumerate_adjoint_connections,
    find_left_adjoint,
    find_right_adjoint,
    find_weakening_violation,
    is_connection,
    left_adjoint_connection,
    make_adjoint,
    opposite,
    restrict_left,
    right_adjoint_connection,
)
from .laws import (
    LAW_IDS,
    SUITE_ORDER,
    THEOREMS,
    EquivalenceReport,
    ImplicationCheck,
    LawReport,
    Predicate,
    SearchResult,
    SuiteResult,
    Witness,
    eval_law,
    parse_predicate,
    recheck_witness,
    run_suite,
    search_counterexample,
    verify_composition_stability,
    verify_derivations,
    verify_modularity_refinements,
    verify_theorem,
)
from .posetgen import generated_lattices
from .quantale import (
    Quantale,
    build_quantale,
    element_connection,
    is_principal,
    is_weak_principal,
    residual,
    zn_ideal_quantale,
)
from .textio import Document, parse_file, parse_text

__version__ = "0.1.0"
