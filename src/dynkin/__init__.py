"""Generalized Cartan matrices, Dynkin diagrams, and the hyperbolic catalog.

The package decides the finite / affine / indefinite trichotomy exactly over
the integers, recognizes hyperbolic and compact hyperbolic diagrams, computes
symmetrizers and simple-root orbit structure, performs affine extension and
overextension, and enumerates every hyperbolic diagram class of rank 3 to 10.

This namespace holds the API the README documents, the symmetrized bilinear
form and real-root data, principal minors, and every exception class.  A GCM
is its diagram: ``matrix_to_diagram`` returns its argument and stays only
for the benchmark harness.  Each other public name has one import path, the
module that defines it:

* :mod:`dynkin.catalog` -- the catalog file format (``catalog_to_lines``,
  ``catalog_from_lines``, the TSV and LaTeX tables) and the verifier
  (``verify_catalog`` with its ``CatalogReport`` and ``PropertyCheck``);
* :mod:`dynkin.oracles`, :mod:`dynkin.symmetrize` and :mod:`dynkin.weyl`
  -- the independent cross-check routes: the unpruned searches of every
  rank 3 to 11, the cycle criterion for symmetrizability and the orbit
  reflection walk.  ``import dynkin`` does not load :mod:`dynkin.oracles`;
* :mod:`dynkin.classify` -- the kind constants and ``ComponentType``.  The
  attribute ``dynkin.classify`` is the function; ``from dynkin.classify
  import ...`` still reaches the module.

Everything operates on immutable data with pure functions; results are
deterministic and all arithmetic is exact and in integers.
"""

from .canonical import canonical_form
from .catalog import (
    CatalogEntry,
    enumerate_hyperbolic,
    extend_finite_to_affine,
    overextend_affine,
    read_catalog,
    write_catalog,
)
from .classify import CartanType, classify, classify_indecomposable, principal_minors
from .enumeration import search_rank
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
from .gcm import GeneralizedCartanMatrix, matrix_to_diagram, validate_gcm
from .parsing import parse_matrix_input
from .symmetrize import Symmetrization, bilinear_form, is_symmetrizable, symmetrizer
from .weyl import OrbitPartition, RootVector, highest_root, orbit_partition, real_roots_up_to_height

__version__ = "0.1.0"
