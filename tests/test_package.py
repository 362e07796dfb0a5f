"""The package namespace: every public name resolves lazily to its module's."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pargroupoid

# The public names and their defining modules, as exported when the package
# imported every module eagerly.
PUBLIC = {
    "group": (
        "FiniteGroup", "GroupOrderBoundError", "GroupSpecError", "GroupTableError",
        "Subgroup", "conjugacy_classes_of_subgroups", "from_table",
        "generating_set", "make_group", "stabilizer_of_subset",
        "subgroup_as_group", "subgroups",
    ),
    "groupoid": (
        "Gamma", "GammaElement", "StandardElement", "StandardGroupoid",
        "VerificationError", "unit_components",
    ),
    "partial_rep": (
        "AxiomCheck", "AxiomReport", "ExtensionMembershipError", "GammaHom",
        "PartialAction", "PartialActionFormatError", "PartialRepMap", "epsilon",
        "extend_to_gamma_hom", "lambda_p", "partial_action_from_json",
        "regular_representation", "span_generation", "verify_factorization",
        "verify_kpar_relations", "verify_partial_action", "verify_partial_rep",
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
        "BOOL", "NAT", "QNN", "DeltaElement", "LawReport",
        "SemiringPropertyError", "SemiringSpec", "check_semiring_laws",
        "delta_of",
    ),
    "structure": (
        "BlockDescriptor", "DecompositionSummary", "coset_count_identity",
        "cross_component_orthogonality", "decompose", "decomposition_report",
        "multiplicity_enumeration", "multiplicity_recursion", "recursion_diff",
        "stabilizer_census", "verify_component_isomorphisms",
        "vertex_count_identity",
    ),
}
SUBMODULES = ("cli", "group", "groupoid", "partial_rep", "semialgebra",
              "semiring", "structure")


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_their_modules_objects(module):
    defining = importlib.import_module(f"pargroupoid.{module}")
    for name in PUBLIC[module]:
        assert getattr(pargroupoid, name) is getattr(defining, name), name


def test_dir_lists_the_public_names_and_submodules():
    listed = set(dir(pargroupoid))
    assert listed >= {name for names in PUBLIC.values() for name in names}
    assert listed >= set(SUBMODULES)
    assert "__version__" in listed


def test_star_import_gives_the_public_names():
    namespace: dict = {}
    exec("from pargroupoid import *", namespace)
    assert set(namespace) - {"__builtins__"} == {
        name for names in PUBLIC.values() for name in names}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'decompse'"):
        pargroupoid.decompse
    with pytest.raises(ImportError):
        exec("from pargroupoid import decompse", {})


def test_moved_names_are_the_same_objects():
    # run() catches the format error and the parser offers the seed without
    # loading the algebra layers, so both live in group and are re-exported
    from pargroupoid import group, partial_rep, semiring
    assert partial_rep.PartialActionFormatError is group.PartialActionFormatError
    assert semiring.DEFAULT_SEED == group.DEFAULT_SEED == 0xC0FFEE
    # every layer's reports share one check record, defined with the laws
    for name in ("AxiomCheck", "AxiomReport"):
        assert getattr(partial_rep, name) is getattr(semiring, name)
        assert pargroupoid._MODULE_OF[name] == "semiring"
        assert getattr(pargroupoid, name).__module__ == "pargroupoid.semiring"


# Prints the pargroupoid modules loaded after running the given statement.
_PROBE = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "pargroupoid")))
"""


@pytest.mark.parametrize("statement, loaded", [
    ("import pargroupoid", []),
    ("import pargroupoid; pargroupoid.__version__", []),
    ("from pargroupoid import make_group", ["group"]),
    ("from pargroupoid import decompose", ["group", "groupoid", "structure"]),
    ("from pargroupoid import QNN", ["group", "semiring"]),
    # a submodule is an attribute of the package, as when it loaded them all
    ("import pargroupoid; pargroupoid.semiring.NAT", ["group", "semiring"]),
    ("from pargroupoid import structure", ["group", "groupoid", "structure"]),
])
def test_a_name_loads_only_its_module_and_imports(statement, loaded):
    src = Path(pargroupoid.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _PROBE, statement],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["pargroupoid"] + [
        f"pargroupoid.{name}" for name in loaded]
