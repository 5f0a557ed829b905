"""ordbench: a finite order-theory workbench.

Finite posets and lattices, connections (weakening relations) with their
left/right adjoints, the modular-connection and reciprocity law families
with exhaustive verify suites, commutative quantales with principal
element detection, and a deterministic CLI.  The package holds what the
CLI's six verbs run, on order tables and value tables.  The object-level
constructors the tests check it against (a map's relation, composites,
restrictions, connections enumerated as objects) live in the test suite's
``tests/oracles.py``.
"""

from .errors import (
    CycleDetected,
    DimensionMismatch,
    DuplicateLabel,
    IndexOutOfRange,
    InvalidModulus,
    MissingAdjoint,
    MissingBlock,
    NotAdjoint,
    NotAnOrder,
    NotAssociative,
    NotBounded,
    NotCommutative,
    NotJoinPreserving,
    NotMonotone,
    NotUTF8,
    OrdbenchError,
    ParseError,
    PredicateSyntaxError,
    QuantaleAxiomError,
    SizeBoundExceeded,
    SourceTargetMismatch,
    UnknownLabel,
    UnknownLaw,
    UnknownSuite,
    UnreadableFile,
)
from .lattice import (
    FiniteLattice,
    MonotoneMap,
    build_poset,
    catalog,
    divisor_lattice,
    dual,
    from_leq,
    monotone_maps,
)
from .connection import (
    AdjointConnection,
    Connection,
    find_left_adjoint,
    find_right_adjoint,
    find_weakening_violation,
)
from .laws import (
    LAW_IDS,
    SUITE_ORDER,
    THEOREMS,
    LawReport,
    Predicate,
    SearchResult,
    SuiteResult,
    Witness,
    eval_law,
    parse_predicate,
    run_suite,
    search_counterexample,
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
