"""Exact computation with the groupoid semialgebra of a finite group.

For a finite group G, the pairs (I, g) with I a subset of G containing the
identity and the inverse of g form a groupoid; its semialgebra over an
additively cancellative semiring carries a canonical partial representation
of G, factors partial representations of G through itself, and splits into
matrix blocks over subgroup algebras. Everything here is exact: scalars are
non-negative rationals, naturals, or their rings of differences, and every
structural claim ships with a verification routine.
"""

from .group import (
    FiniteGroup,
    GroupOrderBoundError,
    GroupSpecError,
    GroupTableError,
    Subgroup,
    conjugacy_classes_of_subgroups,
    from_table,
    generating_set,
    make_group,
    right_cosets,
    stabilizer_of_subset,
    subgroup_as_group,
    subgroups,
)
from .groupoid import (
    Gamma,
    GammaElement,
    StandardElement,
    StandardGroupoid,
    VerificationError,
    unit_components,
)
from .partial_rep import (
    AxiomCheck,
    AxiomReport,
    ExtensionMembershipError,
    GammaHom,
    PartialAction,
    PartialActionFormatError,
    PartialRepMap,
    epsilon,
    extend_to_gamma_hom,
    lambda_p,
    partial_action_from_json,
    regular_representation,
    span_generation,
    verify_factorization,
    verify_kpar_relations,
    verify_partial_action,
    verify_partial_rep,
)
from .semialgebra import (
    AlgebraElement,
    BasisMismatchError,
    DeltaPair,
    GammaAlgebra,
    GroupAlgebra,
    MatrixAlgebra,
    MatrixElement,
    StandardAlgebra,
    delta_extension,
    delta_extension_inverse,
    element_from_delta,
    element_from_json,
    element_to_delta,
    matrix_algebra_for,
    matrix_from_delta,
    matrix_to_delta,
    standard_to_matrix,
    tensor_phi,
    tensor_varphi,
)
from .semiring import (
    BOOL,
    NAT,
    QNN,
    DeltaElement,
    LawReport,
    SemiringPropertyError,
    SemiringSpec,
    check_semiring_laws,
    delta_embed,
    delta_of,
)
from .structure import (
    BlockDescriptor,
    DecompositionSummary,
    coset_count_identity,
    cross_component_orthogonality,
    decompose,
    decomposition_report,
    multiplicity_enumeration,
    multiplicity_recursion,
    recursion_diff,
    stabilizer_census,
    verify_component_isomorphisms,
    vertex_count_identity,
)

__version__ = "0.1.0"
