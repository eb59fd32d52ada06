"""Exact engine for diagonal Bieberbach groups with holonomy Z2^(n-1).

Groups are presented by flip masks and half-step translation classes,
enumerated up to isomorphism per dimension, and compared through a
canonical key.  Invariants (Betti vectors, first cohomology, outer
automorphism orders) are computed with integer arithmetic only, and the
construction toolbox moves presentations between dimensions.
"""

from .automorphisms import OutReport, normalizer_stabilizer_order, out_order
from .cohomology import (
    SnfResult,
    h1_closed_form,
    h1_order,
    kernel_basis,
    smith_normal_form,
    solve_integer,
)
from .constructions import (
    AffineMap,
    DiagonalPresentation,
    DidicosmWitness,
    InvalidChoice,
    InvalidSpec,
    MonoEmbedding,
    NoExtension,
    NotGammaFamily,
    NotOriented,
    NoWitness,
    ReductionChoice,
    ReductionNotGhw,
    RepresentationSpec,
    didicosm_witness,
    embed_up_exist,
    embed_up_mono,
    extend_representation,
    gamma_group,
    klein_group,
    list_reductions,
    realize_representation,
    reduce,
    semidirect_minus_id,
)
from .core import (
    DependentGenerators,
    DimensionMismatch,
    GhwError,
    GhwPresentation,
    InvalidPresentation,
    MAX_DIM,
    ParseError,
    SignVector,
    TranslationClass,
    ValidationReport,
    apply_coboundary,
    expand_cocycle,
    find_distinguished_elements,
    find_torsion_element,
    first_betti,
    format_group,
    has_nontrivial_center,
    is_torsion_free,
    orientable,
    parse_group,
    permute_coordinates,
    validate_ghw,
)
from .enumerate import (
    BudgetExhausted,
    Census,
    CensusEntry,
    DimensionTooLarge,
    are_isomorphic,
    cached_census,
    canonical_key,
    census_from_jsonl,
    census_table,
    census_to_jsonl,
    enumerate_census,
    hyperplane_classes,
)
from .graph import (
    Disconnected,
    GhwGraph,
    UnknownVertex,
    build_graph,
    dot_export,
    edges_json,
)
from .homology import betti_vector, exterior_invariant_dim, is_rational_homology_sphere

__version__ = "0.1.0"

import types as _types

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
