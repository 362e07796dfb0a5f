"""Block decomposition: multiplicities, identities, verified matrix isos."""

import json
from fractions import Fraction

import pytest

from groups_util import build_roster
from pargroupoid import structure
from pargroupoid.group import (
    FiniteGroup,
    GroupOrderBoundError,
    Subgroup,
    conjugacy_classes_of_subgroups,
    make_group,
    subgroup_as_group,
)
from pargroupoid.groupoid import Gamma, StandardGroupoid, connected_components
from pargroupoid.semialgebra import StandardAlgebra, matrix_algebra_for
from pargroupoid.semiring import QNN, delta_of
from pargroupoid.structure import (
    ComponentMatrixIso,
    _verify_component_iso,
    component_to_matrix_iso,
    coset_count_identity,
    cross_component_orthogonality,
    decompose,
    decomposition_report,
    gamma_size_from_subsets,
    multiplicity_enumeration,
    multiplicity_recursion,
    recursion_diff,
    stabilizer_census,
    vertex_count_identity,
)

# Basis sizes by group order; 1 for the trivial group, (n+1) * 2^(n-2) after.
GAMMA_SIZES = {1: 1, 2: 3, 3: 8, 4: 20, 5: 48, 6: 112, 7: 256, 8: 576}


def test_gamma_size_closed_form():
    for n, expected in GAMMA_SIZES.items():
        assert gamma_size_from_subsets(make_group(f"cyclic:{n}")) == expected
        if n >= 2:
            assert expected == (n + 1) * 2 ** (n - 2)


def test_gamma_size_counts_the_built_basis(roster):
    for _, G in roster:
        if G.order <= 6:
            assert len(Gamma(G).elements) == gamma_size_from_subsets(G)


def test_enumeration_matches_component_reports(roster):
    # same table obtained through the groupoid's component reports rather
    # than directly from the mask-level finder
    for _, G in roster:
        if G.order > 6:
            continue
        classes = conjugacy_classes_of_subgroups(G)
        rep_of = {H.mask: cls[0].mask for cls in classes for H in cls}
        tally: dict[tuple[int, int], int] = {}
        for comp in connected_components(Gamma(G)):
            key = (rep_of[comp.isotropy.mask], len(comp.vertices))
            tally[key] = tally.get(key, 0) + 1
        assert tally == multiplicity_enumeration(G)


def test_golden_block_tables(roster_map):
    z2 = decompose(roster_map["Z2"])
    assert [(b.H_order, b.m, b.c) for b in z2.blocks] == [(1, 1, 1), (2, 1, 1)]
    assert z2.audit_lhs == z2.audit_rhs == 3

    z3 = decompose(roster_map["Z3"])
    assert [(b.H_order, b.m, b.c) for b in z3.blocks] == [
        (1, 1, 1), (1, 2, 1), (3, 1, 1)]
    assert z3.audit_lhs == z3.audit_rhs == 8

    v4 = decompose(roster_map["V4"])
    assert [(b.H_order, b.m, b.c) for b in v4.blocks] == [
        (1, 1, 1), (1, 3, 1), (2, 1, 1), (2, 1, 1), (2, 1, 1), (4, 1, 1)]
    # the three order-2 blocks sit at the three distinct subgroups
    gens = sorted(tuple(b.H_gens()) for b in v4.blocks if b.H_order == 2)
    assert gens == [(1,), (2,), (3,)]
    assert v4.audit_lhs == v4.audit_rhs == 20


def test_recursion_agrees_with_enumeration(roster):
    # the binomial recursion is diagnostic; on every desk-scale group it
    # lands exactly on the enumerated table, integrally
    for name, G in roster:
        enum = multiplicity_enumeration(G)
        rec = multiplicity_recursion(G)
        assert rec == {k: Fraction(v) for k, v in enum.items()}, name
        rows = recursion_diff(G)
        assert all(row["equal"] for row in rows), name
        assert sum(row["enumeration"] for row in rows) == sum(enum.values())


def test_counting_identities(roster):
    for name, G in roster:
        ok, witness = vertex_count_identity(G)
        assert ok, (name, witness)
        ok, witness = coset_count_identity(G)
        assert ok, (name, witness)


def test_dimension_audit(roster):
    for name, G in roster:
        summary = decompose(G)
        assert summary.audit_ok and summary.audit_lhs == GAMMA_SIZES[G.order], name


def test_stabilizer_census_partitions_the_subsets(roster):
    for _, G in roster:
        census = stabilizer_census(G)
        assert sum(census.values()) == 2 ** (G.order - 1)
        for stab_mask, m in census:
            H = Subgroup(G, stab_mask)  # raises unless genuinely a subgroup
            assert m >= 1 and H.order >= 1


def test_component_isomorphisms_verified(roster_map):
    for name in ("V4", "S3"):
        summary = decompose(roster_map[name], scalars=QNN)
        assert summary.components_verified == len(
            connected_components(Gamma(roster_map[name])))
        assert summary.scalars_name == "qnn"
        assert summary.audit_ok


def test_iso_verifier_rejects_wrong_shape():
    G = make_group("cyclic:2")
    comp = connected_components(Gamma(G))[-1]  # the full-subset component
    iso = component_to_matrix_iso(comp)
    H_group, _ = subgroup_as_group(G, comp.isotropy)
    std = StandardAlgebra(StandardGroupoid(H_group, 2), QNN)
    bad = ComponentMatrixIso(comp, iso.normal_form, std, matrix_algebra_for(std))
    with pytest.raises(AssertionError, match="arrows"):
        _verify_component_iso(bad)


def test_cross_component_orthogonality(roster):
    for name, G in roster:
        if G.order <= 4:
            ok, witness = cross_component_orthogonality(Gamma(G))
            assert ok, (name, witness)


def test_decompose_over_differences_gives_same_table(roster_map):
    for name in ("Z3", "V4"):
        plain = decompose(roster_map[name])
        delta = decompose(roster_map[name], scalars=delta_of(QNN))
        assert [b.to_json() for b in delta.blocks] == [
            b.to_json() for b in plain.blocks]
        assert delta.scalars_name == "qnn-delta"
        assert plain.components_verified is None
        assert delta.components_verified is not None


def test_decomposition_report_is_json_ready(roster_map):
    report = decomposition_report(roster_map["S3"], scalars=QNN)
    assert set(report) == {"group", "gamma_size", "blocks", "audit",
                           "recursion_diff"}
    assert report["audit"]["ok"] is True
    assert report["gamma_size"] == 112
    for block in report["blocks"]:
        assert set(block) == {"H_order", "H_gens", "m", "c"}
    for row in report["recursion_diff"]:
        assert set(row) == {"H_order", "H_gens", "m", "enumeration",
                            "recursion", "equal"}
        assert row["equal"] is True
    json.dumps(report)  # no stray Fractions or sets


def test_report_work_is_bounded(monkeypatch):
    # One mask walk per report: |I| translations for each component's orbit
    # and at most |I| for its stabilizer. The per-arrow union-find made
    # 692,800 translations and enumerated twice per report.
    calls = {"translate": 0, "enumerate": 0}
    translate = FiniteGroup.left_translate
    enumerate_ = structure.multiplicity_enumeration

    def counting_translate(self, g, mask):
        calls["translate"] += 1
        return translate(self, g, mask)

    def counting_enumerate(*args, **kwargs):
        calls["enumerate"] += 1
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "left_translate", counting_translate)
    monkeypatch.setattr(structure, "multiplicity_enumeration", counting_enumerate)
    decomposition_report(make_group("dihedral:8"))
    assert calls["translate"] <= 70_000
    assert calls["enumerate"] == 1


def test_order_bound_is_enforced():
    G = make_group("cyclic:9")
    with pytest.raises(GroupOrderBoundError):
        multiplicity_enumeration(G, bound=8)
    with pytest.raises(GroupOrderBoundError):
        decompose(G, bound=4)
