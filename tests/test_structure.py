"""Block decomposition: multiplicities, identities, verified matrix isos."""

import gc
import json
import tracemalloc
from fractions import Fraction

import pytest

from groups_util import build_roster
from pargroupoid import groupoid, semialgebra, structure
from pargroupoid.group import (
    FiniteGroup,
    GroupOrderBoundError,
    Subgroup,
    conjugacy_classes_of_subgroups,
    make_group,
    subgroup_as_group,
    subgroups,
)
from pargroupoid.groupoid import (
    Gamma,
    GammaElement,
    StandardGroupoid,
    VerificationError,
    gamma_size,
    unit_components,
)
from pargroupoid.semialgebra import (
    StandardAlgebra,
    matrix_algebra_for,
    standard_to_matrix,
)
from pargroupoid.semiring import NAT, QNN, delta_of
from pargroupoid.structure import (
    _chosen_arrows,
    _normal_form,
    _verify_block_type,
    _verify_normal_form,
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

# Basis sizes by group order; 1 for the trivial group, (n+1) * 2^(n-2) after.
GAMMA_SIZES = {1: 1, 2: 3, 3: 8, 4: 20, 5: 48, 6: 112, 7: 256, 8: 576}


def _mask_walk_size(n: int) -> int:
    # the sum of |I| over the masks containing e, one mask at a time: the
    # walk that `gamma_size` replaced, kept as its oracle
    return sum(mask.bit_count() for mask in range(1, 1 << n, 2))


def test_gamma_size_closed_form():
    for n, expected in GAMMA_SIZES.items():
        assert _mask_walk_size(n) == gamma_size(n) == expected
        if n >= 2:
            assert expected == (n + 1) * 2 ** (n - 2)
    assert _mask_walk_size(16) == gamma_size(16) == 17 * 2 ** 14


def test_gamma_size_counts_the_built_basis(roster):
    groups = [G for _, G in roster] + [make_group("dihedral:8")]
    for G in groups:
        gamma = Gamma(G)
        size = gamma.size
        assert size == len(gamma.elements) == _mask_walk_size(G.order)
        assert size == gamma_size(G.order) == decompose(G).gamma_size, G.name


def test_enumeration_matches_component_reports(roster):
    # the same table read off the groupoid's arrows rather than from the
    # mask-level finder: a component is what the arrows reach from its least
    # vertex, and the isotropy at that base is the g of its loops
    for _, G in roster:
        if G.order > 6:
            continue
        gamma = Gamma(G)
        translate = G.left_translate
        classes = conjugacy_classes_of_subgroups(G)
        rep_of = {H.mask: cls[0].mask for cls in classes for H in cls}
        tally: dict[tuple[int, int], int] = {}
        seen: set[int] = set()
        for base in range(1, 1 << G.order, 2):
            if base in seen:
                continue
            reached, frontier = {base}, [base]
            while frontier:
                mask = frontier.pop()
                for g in gamma.gs_at(mask):
                    r = translate(g, mask)
                    if r not in reached:
                        reached.add(r)
                        frontier.append(r)
            seen |= reached
            loops = [g for g in gamma.gs_at(base) if translate(g, base) == base]
            key = (rep_of[sum(1 << g for g in loops)], len(reached))
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
        rows = recursion_diff(G, enum)
        assert all(row["equal"] for row in rows), name
        assert sum(row["enumeration"] for row in rows) == sum(enum.values())


def test_counting_identities(roster):
    for name, G in roster:
        census = stabilizer_census(G)
        ok, witness = vertex_count_identity(G, multiplicity_enumeration(G), census)
        assert ok, (name, witness)
        ok, witness = coset_count_identity(G, census)
        assert ok, (name, witness)


@pytest.mark.parametrize("spec", ["dihedral:9", "cyclic:18"])
def test_lattice_functions_run_past_the_default_bound(spec):
    # order 18 is past the default bound of 16: only the two subset walks
    # are given a bound, and the lattice side stops only at the ceiling
    G = make_group(spec)
    enum = multiplicity_enumeration(G, bound=18)
    census = stabilizer_census(G, bound=18)
    rows = recursion_diff(G, enum)
    assert len(rows) == 34 and all(row["equal"] for row in rows)
    assert vertex_count_identity(G, enum, census) == (True, None)
    assert coset_count_identity(G, census) == (True, None)


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

def _block(H, m):
    """The triple algebra of H on m points over QNN and its matrix algebra."""
    standard = StandardAlgebra(StandardGroupoid(H, m), QNN)
    return standard, matrix_algebra_for(standard)


# The check the two steps replaced, kept as the test-only oracle: every arrow
# pair of the component goes through a grid product and a grid comparison.
# An arrow whose normal form is the basis position t maps to standard.basis[t],
# the triple (h, i, j), and on to h times the (i, j) matrix unit.
def _verify_component_iso(gamma, vertices, H, images) -> None:
    standard, matrix = _block(H, len(vertices))
    arrows = [GammaElement(v, g) for v in vertices for g in gamma.gs_at(v)]
    if len(arrows) != standard.size:
        raise AssertionError(
            f"component at {gamma.group.subset_repr(vertices[0])}: "
            f"{len(arrows)} arrows vs {standard.size} triples")
    if len(set(images)) != len(arrows):
        raise AssertionError("normal form is not injective on arrows")
    mats = {x: standard_to_matrix(standard.basis_element(standard.basis[t]), matrix)
            for x, t in zip(arrows, images)}
    zero = matrix.zero()
    for x in arrows:
        for y in arrows:
            p = gamma.product(x, y)
            expected = zero if p is None else mats[p]
            if mats[x] * mats[y] != expected:
                raise AssertionError(
                    f"matrix images fail multiplicativity at "
                    f"{gamma.describe(x)} * {gamma.describe(y)}")


def _forms(G, keep=lambda vertices, H: True):
    """The groupoid, and each kept component's vertices, re-indexed isotropy
    and normal form."""
    gamma = Gamma(G)
    forms = []
    for vertices, isotropy in unit_components(G):
        H, elems = subgroup_as_group(G, isotropy)
        if keep(vertices, H):
            forms.append((vertices, H, _normal_form(
                gamma, vertices, elems, _chosen_arrows(G, vertices))))
    return gamma, forms


def _block_types(G):
    return {(len(vertices), subgroup_as_group(G, isotropy)[0].cayley)
            for vertices, isotropy in unit_components(G)}


def _map_triples(images, m, f):
    """The normal form followed by f on the 0-based triples (h, i, j)."""
    out = []
    for t in images:
        h, rem = divmod(t, m * m)
        h, i, j = f(h, *divmod(rem, m))
        out.append((h * m + i) * m + j)
    return out


@pytest.mark.parametrize("name", [name for name, _ in build_roster()])
def test_split_check_agrees_with_the_oracle(roster_map, name):
    gamma, forms = _forms(roster_map[name])
    for vertices, H, images in forms:
        _verify_component_iso(gamma, vertices, H, images)
        _verify_normal_form(gamma, vertices, H, images)
        _verify_block_type(*_block(H, len(vertices)))


def test_component_isomorphisms_verified(roster_map):
    for name in ("V4", "S3"):
        G = roster_map[name]
        assert verify_component_isomorphisms(Gamma(G), QNN) == len(
            list(unit_components(G)))


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

    # the check imports both when it runs, so they are patched where defined;
    # the class is counted at its constructor, as isinstance must still see it
    monkeypatch.setattr(semialgebra.StandardAlgebra, "__init__",
                        counting("standard", semialgebra.StandardAlgebra.__init__))
    monkeypatch.setattr(semialgebra, "matrix_algebra_for",
                        counting("matrix", semialgebra.matrix_algebra_for))
    for name in ("S3", "D4", "Q8"):
        G = roster_map[name]
        built.update(standard=0, matrix=0)
        verify_component_isomorphisms(Gamma(G), QNN)
        types = len(_block_types(G))
        assert built == {"standard": types, "matrix": types}, name


def test_iso_verifier_rejects_wrong_shape():
    # the full-subset component of Z2 has 2 arrows; a group of order 4 in
    # place of its isotropy asks for 4 triples
    gamma, forms = _forms(make_group("cyclic:2"))
    vertices, _, images = forms[-1]
    wrong = make_group("cyclic:4")
    with pytest.raises(AssertionError, match="arrows"):
        _verify_component_iso(gamma, vertices, wrong, images)
    with pytest.raises(VerificationError, match="arrows"):
        _verify_normal_form(gamma, vertices, wrong, images)


def _swapped(chosen):
    return [chosen[1], chosen[0], *chosen[2:]]


def test_wrong_chosen_arrow_is_rejected(roster_map):
    for name in ("V4", "S3"):
        G = roster_map[name]
        gamma = Gamma(G)
        for vertices, isotropy in unit_components(G):
            if len(vertices) < 2:
                continue
            H, elems = subgroup_as_group(G, isotropy)
            images = _normal_form(gamma, vertices, elems,
                                  _swapped(_chosen_arrows(G, vertices)))
            # the oracle's basis lookup fails on an entry outside the isotropy
            with pytest.raises((AssertionError, TypeError)):
                _verify_component_iso(gamma, vertices, H, images)
            with pytest.raises(VerificationError):
                _verify_normal_form(gamma, vertices, H, images)


def test_wrong_chosen_arrow_fails_the_whole_check(roster_map, monkeypatch):
    # the first component with two vertices gets its chosen arrows swapped;
    # the check must stop there with the normal form's own message
    G = roster_map["S3"]
    gamma = Gamma(G)
    vertices, isotropy = next(c for c in unit_components(G) if len(c[0]) >= 2)
    H, elems = subgroup_as_group(G, isotropy)
    with pytest.raises(VerificationError) as expected:
        _verify_normal_form(gamma, vertices, H, _normal_form(
            gamma, vertices, elems, _swapped(_chosen_arrows(G, vertices))))
    chosen_arrows = structure._chosen_arrows

    def swapped_at_one_component(group, vs):
        chosen = chosen_arrows(group, vs)
        return _swapped(chosen) if vs == vertices else chosen

    monkeypatch.setattr(structure, "_chosen_arrows", swapped_at_one_component)
    with pytest.raises(VerificationError) as info:
        verify_component_isomorphisms(gamma, QNN)
    assert str(info.value) == str(expected.value)


def test_swapped_range_and_source_are_rejected(roster_map):
    for name in ("V4", "S3"):
        gamma, forms = _forms(roster_map[name], lambda vertices, H: len(vertices) >= 2)
        for vertices, H, images in forms:
            bad = _map_triples(images, len(vertices), lambda h, i, j: (h, j, i))
            with pytest.raises(AssertionError, match="multiplicativity"):
                _verify_component_iso(gamma, vertices, H, bad)
            with pytest.raises(VerificationError, match="source or range"):
                _verify_normal_form(gamma, vertices, H, bad)


def test_twisted_normal_form_is_rejected(roster_map):
    # h -> h * c on H, for the element c = 1, is a bijection of the triples
    # that keeps sources and ranges, so only multiplicativity can catch it
    for name in ("V4", "S3"):
        gamma, forms = _forms(roster_map[name], lambda vertices, H: H.order >= 2)
        for vertices, H, images in forms:
            bad = _map_triples(images, len(vertices),
                               lambda h, i, j: (H.mul(h, 1), i, j))
            with pytest.raises(AssertionError, match="multiplicativity"):
                _verify_component_iso(gamma, vertices, H, bad)
            with pytest.raises(VerificationError, match="multiplicativity"):
                _verify_normal_form(gamma, vertices, H, bad)


def test_normal_form_outside_the_triples_is_rejected(roster_map):
    # the group part runs past H: injective, not onto
    gamma, forms = _forms(roster_map["S3"])
    for vertices, H, images in forms:
        bad = _map_triples(images, len(vertices),
                           lambda h, i, j: (h + H.order, i, j))
        # the oracle's basis lookup refuses a position outside the algebra
        with pytest.raises(IndexError):
            _verify_component_iso(gamma, vertices, H, bad)
        with pytest.raises(VerificationError, match="not a triple"):
            _verify_normal_form(gamma, vertices, H, bad)


def test_repeated_triple_is_rejected(roster_map):
    # two arrows sent to one triple: the right count, every entry a triple
    # with the arrow's own source and range, but not onto
    for name in ("V4", "S3"):
        gamma, forms = _forms(roster_map[name], lambda vertices, H: H.order >= 2)
        for vertices, H, images in forms:
            m = len(vertices)
            bad = _map_triples(images, m, lambda h, i, j: (0, i, j))
            with pytest.raises(AssertionError, match="not injective"):
                _verify_component_iso(gamma, vertices, H, bad)
            with pytest.raises(VerificationError, match="repeats a triple"):
                _verify_normal_form(gamma, vertices, H, bad)


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
        gamma, forms = _forms(roster_map[name], lambda vertices, H: len(vertices) >= 2)
        for vertices, H, images in forms:
            with pytest.raises(AssertionError, match="multiplicativity"):
                _verify_component_iso(gamma, vertices, H, images)
            _verify_normal_form(gamma, vertices, H, images)  # no grids in this step
            with pytest.raises(VerificationError, match="multiplicativity"):
                _verify_block_type(*_block(H, len(vertices)))


# The |Gamma|^2 pair scan the per-arrow check replaced, kept as the
# test-only oracle.
def _orthogonality_oracle(gamma: Gamma, components) -> tuple[bool, tuple | None]:
    comp_of = {v: idx for idx, (vertices, _) in enumerate(components)
               for v in vertices}
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
                gamma, list(unit_components(G))) == (True, None)


def test_orthogonality_rejects_a_split_component(roster_map, monkeypatch):
    # report one multi-vertex component as two: both checks must object, and
    # the witness is a defined product across the two halves
    for name in ("Z3", "V4"):
        G = roster_map[name]
        gamma = Gamma(G)
        comps = list(unit_components(G))
        k, (vertices, isotropy) = next(
            (k, c) for k, c in enumerate(comps) if len(c[0]) >= 2)
        split = (comps[:k]
                 + [(vertices[:1], isotropy), (vertices[1:], isotropy)]
                 + comps[k + 1:])
        monkeypatch.setattr(structure, "unit_components", lambda _: iter(split))
        ok, (x_desc, y_desc) = cross_component_orthogonality(gamma)
        assert not ok
        assert _orthogonality_oracle(gamma, split)[0] is False
        by_desc = {gamma.describe(el): el for el in gamma.elements}
        x, y = by_desc[x_desc], by_desc[y_desc]
        assert gamma.is_unit(x) and gamma.product(x, y) == y
        halves = [set(vertices[:1]), set(vertices[1:])]
        assert any(x.mask in h and y.mask not in h for h in halves)


def test_decompose_over_differences_gives_same_table(roster_map):
    # the block table holds no scalars; the check passes over every scalar
    # choice of the command line and counts the same components
    for name in ("Z3", "V4"):
        gamma = Gamma(roster_map[name])
        counts = {verify_component_isomorphisms(gamma, S)
                  for S in (QNN, NAT, delta_of(QNN))}
        assert counts == {len(list(unit_components(gamma.group)))}


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
    # translations and enumerated twice per report. The walk reads the byte
    # tables itself, one base at a time, so its translations are counted as
    # the elements of the bases it lists, and left_translate is never called.
    # Its isotropy groups, the conjugacy classes and the recursion rows take
    # their subgroups from the lattice, so each is built and validated once;
    # building one per component, conjugate and row made 4,366 here.
    # The subgroup closures and closure checks read the Cayley rows; through
    # mul they made 59,727 calls.
    calls = {"translate": 0, "walked": 0, "enumerate": 0, "subgroup": 0, "mul": 0}
    translate = FiniteGroup.left_translate
    mul = FiniteGroup.mul
    indices = groupoid.indices_of_mask
    enumerate_ = structure.multiplicity_enumeration
    subgroup_init = Subgroup.__init__

    def counting_translate(self, g, mask):
        calls["translate"] += 1
        return translate(self, g, mask)

    def counting_mul(self, a, b):
        calls["mul"] += 1
        return mul(self, a, b)

    def counting_indices(mask):
        out = indices(mask)
        calls["walked"] += len(out)
        return out

    def counting_enumerate(*args, **kwargs):
        calls["enumerate"] += 1
        return enumerate_(*args, **kwargs)

    def counting_subgroup(self, group, mask):
        calls["subgroup"] += 1
        subgroup_init(self, group, mask)

    G = make_group("dihedral:8")
    monkeypatch.setattr(FiniteGroup, "left_translate", counting_translate)
    monkeypatch.setattr(FiniteGroup, "mul", counting_mul)
    monkeypatch.setattr(groupoid, "indices_of_mask", counting_indices)
    monkeypatch.setattr(structure, "multiplicity_enumeration", counting_enumerate)
    monkeypatch.setattr(Subgroup, "__init__", counting_subgroup)
    decomposition_report(G)
    assert calls["walked"] == 33_944
    assert calls["translate"] == calls["mul"] == 0
    assert calls["enumerate"] == 1
    assert calls["subgroup"] == len(subgroups(G)) == 19


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
