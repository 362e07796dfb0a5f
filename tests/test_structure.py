"""Block decomposition: multiplicities, identities, verified matrix isos."""

import dataclasses
import gc
import json
import tracemalloc
from fractions import Fraction

import pytest

from groups_util import build_roster
from pargroupoid import semialgebra, structure
from pargroupoid.group import (
    FiniteGroup,
    GroupOrderBoundError,
    Subgroup,
    conjugacy_classes_of_subgroups,
    make_group,
    subgroup_as_group,
)
from pargroupoid.groupoid import (
    ComponentIsomorphism,
    Gamma,
    StandardElement,
    StandardGroupoid,
    VerificationError,
    component_normal_form,
    connected_components,
)
from pargroupoid.semialgebra import (
    StandardAlgebra,
    matrix_algebra_for,
    standard_to_matrix,
)
from pargroupoid.semiring import NAT, QNN, delta_of
from pargroupoid.structure import (
    _verify_block_type,
    _verify_normal_form,
    coset_count_identity,
    cross_component_orthogonality,
    decompose,
    decomposition_report,
    gamma_size_from_subsets,
    multiplicity_enumeration,
    multiplicity_recursion,
    recursion_diff,
    stabilizer_census,
    verify_component_isomorphisms,
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


# ---------------------------------------------------------------------------
# Component isomorphisms: the two-step check and its all-pairs oracle.

def _block(nf: ComponentIsomorphism):
    """The triple algebra of a normal form over QNN and its matrix algebra."""
    standard = StandardAlgebra(nf.standard, QNN)
    return standard, matrix_algebra_for(standard)


# The check the two steps replaced, kept as the test-only oracle: every arrow
# pair of the component goes through a grid product and a grid comparison.
# An arrow with normal form (h, i, j) maps to h times the (i, j) matrix unit.
def _verify_component_iso(nf: ComponentIsomorphism) -> None:
    comp = nf.component
    gamma = comp.gamma
    standard, matrix = _block(nf)
    arrows = nf.arrows()
    if len(arrows) != standard.size:
        raise AssertionError(
            f"component at {gamma.group.subset_repr(comp.base_vertex)}: "
            f"{len(arrows)} arrows vs {standard.size} triples")
    images = [nf.to_standard(x) for x in arrows]
    if len(set(images)) != len(arrows):
        raise AssertionError("normal form is not injective on arrows")
    for x, s in zip(arrows, images):
        if nf.from_standard(s) != x:
            raise AssertionError(f"normal form round trip fails at {gamma.describe(x)}")
    mats = {x: standard_to_matrix(standard.basis_element(s), matrix)
            for x, s in zip(arrows, images)}
    zero = matrix.zero()
    for x in arrows:
        for y in arrows:
            p = gamma.product(x, y)
            expected = zero if p is None else mats[p]
            if mats[x] * mats[y] != expected:
                raise AssertionError(
                    f"matrix images fail multiplicativity at "
                    f"{gamma.describe(x)} * {gamma.describe(y)}")


def _isos(G, comp_filter=lambda comp: True):
    return [component_normal_form(comp)
            for comp in connected_components(Gamma(G)) if comp_filter(comp)]


def _block_types(G):
    return {(comp.m, subgroup_as_group(G, comp.isotropy)[0].cayley)
            for comp in connected_components(Gamma(G))}


@pytest.mark.parametrize("name", [name for name, _ in build_roster()])
def test_split_check_agrees_with_the_oracle(roster_map, name):
    for nf in _isos(roster_map[name]):
        _verify_component_iso(nf)
        _verify_normal_form(nf)
        _verify_block_type(*_block(nf))


def test_component_isomorphisms_verified(roster_map):
    for name in ("V4", "S3"):
        gamma = Gamma(roster_map[name])
        assert verify_component_isomorphisms(gamma, QNN) == len(
            connected_components(gamma))


def test_order_12_components_verified():
    assert verify_component_isomorphisms(Gamma(make_group("dihedral:6")), QNN) == 381
    assert decompose(make_group("dihedral:6")).audit_ok


def test_grid_products_once_per_block_type(monkeypatch):
    # (m^2 |H|)^2 grid products per block type, not per component; the
    # all-pairs check made 12,200 for D4
    calls = {"mul": 0}
    mul = semialgebra.MatrixElement.__mul__

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(semialgebra.MatrixElement, "__mul__", counting_mul)
    assert verify_component_isomorphisms(Gamma(make_group("dihedral:4")), QNN) == 42
    assert calls["mul"] <= 5_164


def test_each_block_type_is_checked_once(roster_map, monkeypatch):
    checked = []
    verify_block_type = structure._verify_block_type

    def recording(standard, matrix):
        checked.append((standard.groupoid.m, standard.groupoid.H.cayley))
        verify_block_type(standard, matrix)

    monkeypatch.setattr(structure, "_verify_block_type", recording)
    for name in ("S3", "D4", "Q8"):
        G = roster_map[name]
        checked.clear()
        verify_component_isomorphisms(Gamma(G), QNN)
        assert sorted(checked) == sorted(_block_types(G)), name


def test_algebras_are_built_once_per_block_type(roster_map, monkeypatch):
    # one triple algebra and one matrix algebra per block type; building
    # them per component made 42 of each on D4, which has 13 types
    built = {"standard": 0, "matrix": 0}

    def counting(name, build):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(structure, "StandardAlgebra",
                        counting("standard", structure.StandardAlgebra))
    monkeypatch.setattr(structure, "matrix_algebra_for",
                        counting("matrix", structure.matrix_algebra_for))
    for name in ("S3", "D4", "Q8"):
        G = roster_map[name]
        built.update(standard=0, matrix=0)
        verify_component_isomorphisms(Gamma(G), QNN)
        types = len(_block_types(G))
        assert built == {"standard": types, "matrix": types}, name


def test_iso_verifier_rejects_wrong_shape():
    G = make_group("cyclic:2")
    comp = connected_components(Gamma(G))[-1]  # the full-subset component
    H_group, _ = subgroup_as_group(G, comp.isotropy)
    nf = dataclasses.replace(component_normal_form(comp),
                             standard=StandardGroupoid(H_group, 2))
    with pytest.raises(AssertionError, match="arrows"):
        _verify_component_iso(nf)
    with pytest.raises(VerificationError, match="arrows"):
        _verify_normal_form(nf)


def _with_swapped_chosen_arrows(comp):
    arrows = comp.chosen_arrows
    return dataclasses.replace(
        comp, chosen_arrows=(arrows[1], arrows[0]) + arrows[2:])


def test_wrong_chosen_arrow_is_rejected(roster_map):
    for name in ("V4", "S3"):
        for comp in connected_components(Gamma(roster_map[name])):
            if comp.m < 2:
                continue
            nf = component_normal_form(_with_swapped_chosen_arrows(comp))
            # the oracle lets the normal form's lookup error escape
            with pytest.raises((AssertionError, KeyError)):
                _verify_component_iso(nf)
            with pytest.raises(VerificationError):
                _verify_normal_form(nf)


def test_wrong_chosen_arrow_fails_the_whole_check(roster_map, monkeypatch):
    # the first component with two vertices gets its chosen arrows swapped;
    # the check must stop there with the normal form's own message
    gamma = Gamma(roster_map["S3"])
    comps = connected_components(gamma)
    k = next(k for k, comp in enumerate(comps) if comp.m >= 2)
    comps[k] = _with_swapped_chosen_arrows(comps[k])
    with pytest.raises(VerificationError) as expected:
        _verify_normal_form(component_normal_form(comps[k]))
    monkeypatch.setattr(structure, "connected_components", lambda _: comps)
    with pytest.raises(VerificationError) as info:
        verify_component_isomorphisms(gamma, QNN)
    assert str(info.value) == str(expected.value)


class _SwappedNormalForm(ComponentIsomorphism):
    """A normal form with range and source numbers exchanged."""

    def to_standard(self, x):
        s = super().to_standard(x)
        return StandardElement(s.h, s.j, s.i)


def test_swapped_range_and_source_are_rejected(roster_map):
    for name in ("V4", "S3"):
        for nf in _isos(roster_map[name], lambda comp: comp.m >= 2):
            bad = _SwappedNormalForm(nf.component, nf.standard, nf.iso_elements)
            with pytest.raises(AssertionError, match="round trip"):
                _verify_component_iso(bad)
            with pytest.raises(VerificationError, match="source or range"):
                _verify_normal_form(bad)


class _TwistedNormalForm(ComponentIsomorphism):
    """A normal form followed by h -> h * c on H, for the element c = 1.

    That is a bijection of the triples that keeps sources and ranges, so only
    multiplicativity can catch it.
    """

    def to_standard(self, x):
        s = super().to_standard(x)
        return StandardElement(self.standard.H.mul(s.h, 1), s.i, s.j)

    def from_standard(self, s):
        H = self.standard.H
        return super().from_standard(
            StandardElement(H.mul(s.h, H.inverse(1)), s.i, s.j))


def test_twisted_normal_form_is_rejected(roster_map):
    for name in ("V4", "S3"):
        for nf in _isos(roster_map[name], lambda comp: comp.isotropy.order >= 2):
            bad = _TwistedNormalForm(nf.component, nf.standard, nf.iso_elements)
            with pytest.raises(AssertionError, match="multiplicativity"):
                _verify_component_iso(bad)
            with pytest.raises(VerificationError, match="multiplicativity"):
                _verify_normal_form(bad)


class _ShiftedNormalForm(ComponentIsomorphism):
    """A normal form whose group part runs past H: injective, not onto."""

    def to_standard(self, x):
        s = super().to_standard(x)
        return StandardElement(s.h + self.standard.H.order, s.i, s.j)

    def from_standard(self, s):
        return super().from_standard(
            StandardElement(s.h - self.standard.H.order, s.i, s.j))


def test_normal_form_outside_the_triples_is_rejected(roster_map):
    for nf in _isos(roster_map["S3"]):
        bad = _ShiftedNormalForm(nf.component, nf.standard, nf.iso_elements)
        # the oracle's basis lookup refuses a triple outside the algebra
        with pytest.raises(ValueError, match="not a basis element"):
            _verify_component_iso(bad)
        with pytest.raises(VerificationError, match="not a triple"):
            _verify_normal_form(bad)


def test_spoilt_grid_product_is_rejected(roster_map, monkeypatch):
    # drop the (1, 2) entry of every grid product
    mul = semialgebra.MatrixElement.__mul__

    def spoilt_mul(self, other):
        out = mul(self, other)
        if out.algebra.m < 2:
            return out
        cells = dict(out.cells)
        cells.pop((1, 2), None)
        return semialgebra.MatrixElement(out.algebra, cells)

    monkeypatch.setattr(semialgebra.MatrixElement, "__mul__", spoilt_mul)
    for name in ("V4", "S3"):
        for nf in _isos(roster_map[name], lambda comp: comp.m >= 2):
            with pytest.raises(AssertionError, match="multiplicativity"):
                _verify_component_iso(nf)
            _verify_normal_form(nf)  # no grids in this step
            with pytest.raises(VerificationError, match="multiplicativity"):
                _verify_block_type(*_block(nf))


# The |Gamma|^2 pair scan the per-arrow check replaced, kept as the
# test-only oracle.
def _orthogonality_oracle(gamma: Gamma, components) -> tuple[bool, tuple | None]:
    comp_of = {v: idx for idx, comp in enumerate(components)
               for v in comp.vertices}
    for x in gamma.elements:
        for y in gamma.elements:
            if comp_of[x.mask] != comp_of[y.mask] and gamma.product(x, y) is not None:
                return False, (gamma.describe(x), gamma.describe(y))
    return True, None


def test_cross_component_orthogonality(roster):
    for name, G in roster:
        if G.order <= 4:
            gamma = Gamma(G)
            ok, witness = cross_component_orthogonality(gamma)
            assert ok, (name, witness)
            assert _orthogonality_oracle(
                gamma, connected_components(gamma)) == (True, None)


def test_orthogonality_rejects_a_split_component(roster_map, monkeypatch):
    # report one multi-vertex component as two: both checks must object, and
    # the witness is a defined product across the two halves
    for name in ("Z3", "V4"):
        gamma = Gamma(roster_map[name])
        comps = connected_components(gamma)
        k, comp = next((k, c) for k, c in enumerate(comps) if c.m >= 2)
        split = (comps[:k]
                 + [dataclasses.replace(comp, vertices=comp.vertices[:1]),
                    dataclasses.replace(comp, vertices=comp.vertices[1:])]
                 + comps[k + 1:])
        monkeypatch.setattr(structure, "connected_components", lambda _: split)
        ok, (x_desc, y_desc) = cross_component_orthogonality(gamma)
        assert not ok
        assert _orthogonality_oracle(gamma, split)[0] is False
        by_desc = {gamma.describe(el): el for el in gamma.elements}
        x, y = by_desc[x_desc], by_desc[y_desc]
        assert gamma.is_unit(x) and gamma.product(x, y) == y
        halves = [set(comp.vertices[:1]), set(comp.vertices[1:])]
        assert any(x.mask in h and y.mask not in h for h in halves)


def test_decompose_over_differences_gives_same_table(roster_map):
    # the block table holds no scalars; the check passes over every scalar
    # choice of the command line and counts the same components
    for name in ("Z3", "V4"):
        gamma = Gamma(roster_map[name])
        counts = {verify_component_isomorphisms(gamma, S)
                  for S in (QNN, NAT, delta_of(QNN))}
        assert counts == {len(connected_components(gamma))}


def test_decomposition_report_is_json_ready(roster_map):
    report = decomposition_report(roster_map["S3"])
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
    # One mask walk per report: |I| translations for each component's base I,
    # which give its orbit and its isotropy together. A separate stabilizer
    # pass made 67,888, and the per-arrow union-find made 692,800
    # translations and enumerated twice per report.
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
    assert calls["translate"] == 33_944
    assert calls["enumerate"] == 1


def test_enumeration_holds_one_component_at_a_time():
    # the walk keeps one byte per mask and the orbit in hand; holding every
    # component's vertices peaked at 570 KB here, 35 times those bytes
    G = make_group("cyclic:14")
    multiplicity_enumeration(G)  # builds the group's cached tables
    gc.collect()
    tracemalloc.start()
    try:
        multiplicity_enumeration(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 << G.order, peak


def test_order_bound_is_enforced():
    G = make_group("cyclic:9")
    with pytest.raises(GroupOrderBoundError):
        multiplicity_enumeration(G, bound=8)
    with pytest.raises(GroupOrderBoundError):
        decompose(G, bound=4)
