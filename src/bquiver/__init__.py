"""Exact invariants of basic algebras presented by acyclic bound quivers.

The package computes, over the rationals or a prime field:

* fundamental groups of presentations (spanning-tree group presentations,
  abelian invariants, additive character spaces),
* the first Hochschild cohomology as a Lie algebra of unitary derivations
  modulo inner ones, with canonical coset representatives,
* the embedding of character spaces into the cohomology, diagonalizability
  of classes and commuting families (decided on the arrow corridors),
  adapted presentations, and maximality of character images among
  diagonalizable subalgebras,
* the succession graph of homotopy relations under transvections, with
  certified arrows and source detection.

Everything is exact (rational or mod-p arithmetic) and deterministic.
"""

__version__ = "0.1.0"

from .fields import GF, QQ, Field, PrimeField, RationalField
from .linalg import (
    minimal_polynomial,
    nullspace,
    roots_in_field,
    smith_normal_form,
)
from .quiver import (
    Bypass,
    Path,
    Quiver,
    QuiverError,
    SpanningTree,
    enumerate_bypasses,
    has_double_bypass,
)
from .pathalg import (
    Automorphism,
    IdealData,
    dilatation,
    identity_automorphism,
    transvection,
    transvection_of,
)
from .homotopy import (
    AbelianInvariants,
    Decision,
    GroupPresentation,
    HomotopyOracle,
    NO,
    UNKNOWN,
    YES,
    abelian_invariants,
    homotopy_pairs,
)
from .hochschild import (
    ClassSpan,
    CohomologyClass,
    CohomologySpace,
    Derivation,
    FDAlgebra,
    conjugate_class,
    inner_derivation,
    inner_derivation_space,
    derivation_space,
)
from .presentations import (
    NotDiagonalizableError,
    Presentation,
    adapted_presentation,
    centralizer,
    common_eigenbasis,
    diagonalizability_witness,
    is_diagonalizable_class,
    is_diagonalizable_set,
    is_maximal_diagonalizable,
    realize_in_image,
)
from .relquiver import (
    RelationQuiver,
    build_relation_quiver,
    critical_taus,
    presentation_for_vertex,
    sources_report,
    verify_main_theorem,
)
from .dsl import InputDocument, InputError, parse_input, render_document
