"""Generalized Cartan matrices, Dynkin diagrams, and the hyperbolic catalog.

The package decides the finite / affine / indefinite trichotomy exactly over
the integers, recognizes hyperbolic and compact hyperbolic diagrams, computes
symmetrizers and simple-root orbit structure, performs affine extension and
overextension, and enumerates every hyperbolic diagram class of rank 3 to 10
together with independent oracle routes that re-derive every rank 3 to 11.

Everything operates on immutable data with pure functions; results are
deterministic and all arithmetic is exact and in integers.
"""

from .canonical import CanonicalForm, canonical_form
from .catalog import (
    CatalogEntry,
    CatalogReport,
    PropertyCheck,
    catalog_from_lines,
    catalog_to_latex,
    catalog_to_lines,
    catalog_to_tsv,
    enumerate_hyperbolic,
    extend_finite_to_affine,
    overextend_affine,
    read_catalog,
    verify_catalog,
    write_catalog,
)
from .classify import (
    AFFINE,
    FINITE,
    INDEFINITE,
    CartanType,
    ComponentType,
    classify,
    classify_indecomposable,
    principal_minors,
)
from .enumeration import finite_affine_classes, search_rank
from .errors import (
    BudgetExceededError,
    CatalogFormatError,
    DecomposableError,
    DynkinError,
    MatrixParseError,
    MatrixValidationError,
    NotSymmetrizableError,
    RankBoundError,
    WrongTypeError,
)
from .gcm import (
    DynkinDiagram,
    EdgeLabel,
    GeneralizedCartanMatrix,
    is_indecomposable,
    matrix_to_diagram,
    validate_gcm,
)
from .oracles import search_rank_bruteforce, search_rank_oracle
from .parsing import (
    format_matrix_text,
    parse_matrix_input,
    parse_matrix_json,
    parse_matrix_text,
)
from .symmetrize import (
    Symmetrization,
    UnbalancedCycleWitness,
    bilinear_form,
    cycle_criterion_agreement,
    is_symmetrizable,
    kac_cycle_oracle,
    random_gcm,
    symmetrizer,
)
from .weyl import (
    OrbitPartition,
    RootVector,
    highest_root,
    orbit_partition,
    orbit_partition_bruteforce,
    orbit_partitions_agree,
    real_roots_up_to_height,
)

__version__ = "0.1.0"
