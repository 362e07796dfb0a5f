"""Exact computation with the groupoid semialgebra of a finite group.

For a finite group G, the pairs (I, g) with I a subset of G containing the
identity and the inverse of g form a groupoid; its semialgebra over an
additively cancellative semiring carries a canonical partial representation
of G, factors partial representations of G through itself, and splits into
matrix blocks over subgroup algebras. Everything here is exact: scalars are
non-negative rationals, naturals, or their rings of differences, and every
structural claim ships with a verification routine.

The names below, and the submodules themselves, are loaded on first use
(PEP 562): `import pargroupoid` compiles none of the submodules, and each
name imports only the module that defines it, so a command pays only for the
layers it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    name: module
    for module, names in {
        "group": (
            "FiniteGroup", "GroupOrderBoundError", "GroupSpecError",
            "GroupTableError", "PartialActionFormatError", "Subgroup",
            "conjugacy_classes_of_subgroups", "from_table", "generating_set",
            "make_group", "stabilizer_of_subset",
            "subgroup_as_group", "subgroups",
        ),
        "groupoid": (
            "Gamma", "GammaElement", "StandardElement", "StandardGroupoid",
            "VerificationError", "unit_components",
        ),
        "partial_rep": (
            "ExtensionMembershipError", "GammaHom", "PartialAction",
            "PartialRepMap", "epsilon", "extend_to_gamma_hom", "lambda_p",
            "partial_action_from_json", "regular_representation", "span_generation",
            "verify_factorization", "verify_kpar_relations", "verify_partial_action",
            "verify_partial_rep",
        ),
        "semialgebra": (
            "AlgebraElement", "BasisMismatchError", "DeltaPair", "GammaAlgebra",
            "GroupAlgebra", "MatrixAlgebra", "MatrixElement", "StandardAlgebra",
            "delta_extension", "delta_extension_inverse", "element_from_delta",
            "element_to_delta", "matrix_algebra_for",
            "matrix_from_delta", "matrix_to_delta", "standard_to_matrix",
            "tensor_phi", "tensor_varphi",
        ),
        "semiring": (
            "AxiomCheck", "AxiomReport", "BOOL", "NAT", "QNN", "DeltaElement",
            "LawReport", "SemiringPropertyError", "SemiringSpec",
            "check_semiring_laws", "delta_of",
        ),
        "structure": (
            "BlockDescriptor", "DecompositionSummary", "coset_count_identity",
            "cross_component_orthogonality", "decompose", "decomposition_report",
            "multiplicity_enumeration", "multiplicity_recursion", "recursion_diff",
            "stabilizer_census", "verify_component_isomorphisms",
            "vertex_count_identity",
        ),
    }.items()
    for name in names
}

_SUBMODULES = frozenset(_MODULE_OF.values()) | {"cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF) | _SUBMODULES)
