"""The groupoid of subset-element pairs and its component structure."""

from array import array
from itertools import accumulate, chain, islice, repeat

import pytest

from groups_util import (
    bit_loop_indices,
    bit_loop_translate,
    build_roster,
    order_16_roster,
    q8,
)
from pargroupoid.group import (
    MAX_ORDER_BOUND,
    GroupOrderBoundError,
    Subgroup,
    indices_of_mask,
    make_group,
    mask_from_indices,
    subgroup_as_group,
    subgroups,
)
from pargroupoid.groupoid import (
    Gamma,
    GammaElement,
    StandardElement,
    StandardGroupoid,
    VerificationError,
    arrow_rows,
    gamma_size,
    unit_components,
)
from pargroupoid.structure import _chosen_arrows, _normal_form

SMALL = [item for item in build_roster() if item[1].order <= 6]


def test_z2_groupoid_by_hand():
    G = make_group("cyclic:2")
    gamma = Gamma(G)
    e, a = 0, 1
    assert set(gamma.elements) == {
        GammaElement(0b01, e),   # ({e}, e)
        GammaElement(0b11, e),   # ({e,a}, e)
        GammaElement(0b11, a),   # ({e,a}, a)
    }
    t = GammaElement(0b11, a)
    u1 = GammaElement(0b01, e)
    u2 = GammaElement(0b11, e)
    # t has source {e,a} and range a*{e,a} = {e,a}; both unit arrows are u2
    assert gamma.source(t) == u2 and gamma.range_of(t) == u2
    assert gamma.product(t, t) == u2
    assert gamma.product(u2, t) == t == gamma.product(t, u2)
    # ({e}, e) composes with nothing but itself
    assert gamma.product(u1, t) is None
    assert gamma.product(t, u1) is None
    assert gamma.product(u1, u1) == u1


def test_membership_requires_identity_and_inverse():
    G = make_group("cyclic:3")
    gamma = Gamma(G)
    for el in gamma.elements:
        assert el.mask & 1
        assert el.mask >> G.inverse(el.g) & 1
    # and nothing else qualifies
    total = sum(1 for mask in range(1, 1 << 3, 2)
                for g in range(3) if mask >> G.inverse(g) & 1)
    assert gamma.size == total == 8


@pytest.mark.parametrize("name,G", SMALL)
def test_product_defined_iff_masks_chain(name, G):
    gamma = Gamma(G)
    for x in gamma.elements:
        for y in gamma.elements:
            p = gamma.product(x, y)
            if x.mask == G.left_translate(y.g, y.mask):
                assert p == GammaElement(y.mask, G.mul(x.g, y.g))
            else:
                assert p is None


@pytest.mark.parametrize("name,G", [("Z3", make_group("cyclic:3")),
                                    ("V4", make_group("klein4"))])
def test_groupoid_associativity_exhaustive(name, G):
    gamma = Gamma(G)
    els = gamma.elements
    for x in els:
        for y in els:
            xy = gamma.product(x, y)
            for z in els:
                yz = gamma.product(y, z)
                lhs = None if xy is None else gamma.product(xy, z)
                rhs = None if yz is None else gamma.product(x, yz)
                assert lhs == rhs


def test_inverses_give_units_at_both_ends():
    G = make_group("sym:3")
    gamma = Gamma(G)
    for x in gamma.elements:
        xi = gamma.inverse(x)
        left = gamma.product(x, xi)
        right = gamma.product(xi, x)
        assert left == gamma.range_of(x)
        assert right == gamma.source(x)
        assert gamma.is_unit(left) and gamma.is_unit(right)


def test_units_are_identity_arrows():
    G = make_group("klein4")
    gamma = Gamma(G)
    units = [gamma.elements[i] for i in gamma.unit_indices]
    assert all(u.g == 0 for u in units)
    assert len(units) == 1 << (G.order - 1)


@pytest.mark.parametrize("name,G", SMALL)
def test_components_partition_vertices(name, G):
    comps = list(unit_components(G))
    seen = [v for vertices, _ in comps for v in vertices]
    assert sorted(seen) == list(range(1, 1 << G.order, 2))
    for vertices, isotropy in comps:
        base = vertices[0]
        assert base == min(vertices)
        assert len(vertices) * isotropy.order == base.bit_count()
        # chosen arrows carry the base to each vertex, the unit to the base
        chosen = _chosen_arrows(G, vertices)
        assert chosen[0] == 0
        for v, g in zip(vertices, chosen):
            assert base >> G.inverse(g) & 1
            assert G.left_translate(g, base) == v


def test_component_vertices_are_one_orbit():
    G = make_group("sym:3")
    for vertices, _ in unit_components(G):
        orbit = {vertices[0]}
        frontier = [vertices[0]]
        while frontier:
            mask = frontier.pop()
            for i in indices_of_mask(mask):
                nxt = G.left_translate(G.inverse(i), mask)
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        assert orbit == set(vertices)


class _UnionFind:
    """Test-only oracle: components by union over every arrow (I, g)."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _union_find_components(G):
    """Vertex tuples of every component, sorted by base mask."""
    masks = range(1, 1 << G.order, 2)
    uf = _UnionFind(masks)
    for mask in masks:
        for x in bit_loop_indices(mask):
            uf.union(mask, bit_loop_translate(G, G.inverse(x), mask))
    groups = {}
    for mask in masks:
        groups.setdefault(uf.find(mask), []).append(mask)
    return [tuple(sorted(groups[root])) for root in sorted(groups)]


@pytest.mark.parametrize("name,G", build_roster() + order_16_roster())
def test_unit_components_match_union_find_oracle(name, G):
    found = list(unit_components(G))
    assert [vertices for vertices, _ in found] == _union_find_components(G)
    for vertices, isotropy in found:
        base = vertices[0]
        assert isotropy.mask == mask_from_indices(
            g for g in G.elements() if bit_loop_translate(G, g, base) == base)


# The walk that unit_components replaced, kept as its test-only oracle: one
# left_translate call per element of each base, and one Subgroup, built and
# validated on its own, per component.
def _translate_walk_components(G):
    translate, inv = G.left_translate, G.inv
    seen = bytearray(1 << G.order)
    for base in range(1, 1 << G.order, 2):
        if seen[base]:
            continue
        orbit = set()
        stab = 0
        for x in indices_of_mask(base):
            v = translate(inv[x], base)
            if v == base:
                stab |= 1 << x
            orbit.add(v)
        vertices = tuple(sorted(orbit))
        for v in vertices:
            seen[v] = 1
        isotropy = Subgroup(G, stab)
        assert len(vertices) * isotropy.order == base.bit_count()
        yield vertices, isotropy


# dihedral:9 reads the third byte position of the tables
@pytest.mark.parametrize("name,G", build_roster() + order_16_roster()
                         + [("D9", make_group("dihedral:9"))])
def test_unit_components_match_the_translate_walk(name, G):
    found = list(unit_components(G))
    assert [(vertices, isotropy.mask) for vertices, isotropy in found] == [
        (vertices, isotropy.mask)
        for vertices, isotropy in _translate_walk_components(G)]
    # each isotropy group is the lattice's own object
    lattice = {H.mask: H for H in subgroups(G)}
    assert all(isotropy is lattice[isotropy.mask] for _, isotropy in found)


def _translate_as(monkeypatch, G, g, h):
    """Make the walk read the byte tables of h where it reads those of g."""
    tables = G.translate_tables
    monkeypatch.setattr(G, "translate_tables", lambda x: tables(h if x == g else x))


def test_walk_refuses_a_component_that_cannot_tile(monkeypatch):
    # with a2 translating as e, the base {e, a, a2} has isotropy {e, a2} and
    # the two vertices {e, a, a2} and {e, a, a3}: 2 * 2 elements for 3
    G = make_group("cyclic:4")
    _translate_as(monkeypatch, G, 2, 0)
    with pytest.raises(VerificationError, match=r"component at \{e,a,a2\}: "
                       "2 vertices with isotropy order 2 cannot tile"):
        list(unit_components(G))


def test_walk_builds_a_stabilizer_missing_from_the_lattice(monkeypatch):
    # with a3 translating as e, {e, a} reads as its own stabilizer; it is no
    # subgroup, so the lattice lacks it and its closure check refuses it
    G = make_group("cyclic:4")
    _translate_as(monkeypatch, G, 3, 0)
    with pytest.raises(ValueError, match=r"subset \{e,a\} not closed under inverse of a$"):
        list(unit_components(G))


def test_walk_builds_isotropy_the_lattice_lacks(monkeypatch):
    G = make_group("dihedral:4")
    expected = [(vertices, isotropy) for vertices, isotropy in unit_components(G)]
    kept = {m: H for m, H in G._subgroups.items() if m.bit_count() != 2}
    monkeypatch.setattr(G, "_subgroups", kept)
    found = list(unit_components(G))
    assert found == expected
    built = [isotropy for _, isotropy in found if isotropy.order == 2]
    assert built and all(isotropy.mask not in kept for isotropy in built)


@pytest.mark.parametrize("name,G", build_roster())
def test_connected_components_match_union_find_oracle(name, G):
    # the least g from the base to each vertex v_i, found by brute force, is
    # the chosen arrow and has the normal form (e, i, 0)
    gamma = Gamma(G)
    comps = list(unit_components(G))
    assert [vertices for vertices, _ in comps] == _union_find_components(G)
    for vertices, isotropy in comps:
        base = vertices[0]
        least = [next(g for g in G.elements() if bit_loop_translate(G, g, base) == v)
                 for v in vertices]
        chosen = _chosen_arrows(G, vertices)
        assert chosen == least
        m = len(vertices)
        images = _normal_form(gamma, vertices, subgroup_as_group(G, isotropy)[1],
                              chosen)
        for i, g in enumerate(least):
            # (base, g) is arrow |base & below[g]| of vertex 0
            assert images[(base & gamma.below[g]).bit_count()] == (0 * m + i) * m + 0


def test_standard_groupoid_products():
    H = make_group("cyclic:2")
    std = StandardGroupoid(H, 3)
    a = StandardElement(1, 1, 2)
    b = StandardElement(1, 2, 3)
    assert std.product(a, b) == StandardElement(0, 1, 3)
    assert std.product(b, a) is None  # indices do not chain
    assert len(std.elements) == 2 * 3 * 3
    assert set(std.units()) == {StandardElement(0, i, i) for i in (1, 2, 3)}


@pytest.mark.parametrize("name,G", [("V4", make_group("klein4")),
                                    ("S3", make_group("sym:3")),
                                    ("D4", make_group("dihedral:4")),
                                    ("Q8", q8())])
def test_normal_form_is_a_groupoid_isomorphism(name, G):
    # the integer normal form against the object-level products of both
    # groupoids, on every arrow pair of each component, composable or not
    gamma = Gamma(G)
    for vertices, isotropy in unit_components(G):
        H, elems = subgroup_as_group(G, isotropy)
        std = StandardGroupoid(H, len(vertices))
        images = _normal_form(gamma, vertices, elems, _chosen_arrows(G, vertices))
        arrows = [GammaElement(v, g) for v in vertices for g in gamma.gs_at(v)]
        assert len(arrows) == len(images) == std.size
        assert sorted(images) == list(range(std.size))
        # basis position t is the triple std.elements[t], 1-based in i and j
        image = {x: std.elements[t] for x, t in zip(arrows, images)}
        for x, s in image.items():
            assert vertices[s.j - 1] == x.mask
            assert vertices[s.i - 1] == gamma.range_of(x).mask
        for x in arrows:
            for y in arrows:
                p = gamma.product(x, y)
                q = std.product(image[x], image[y])
                if p is None:
                    assert q is None
                else:
                    assert q == image[p]


# The per-arrow dict the closed-form position replaced, rebuilt by brute force
# from the definition so it shares nothing with Gamma's storage, kept as the
# test-only oracle with the membership check the old Gamma.element ran on it.

def _enumerate_index(G) -> dict:
    n = G.order
    pairs = sorted((mask, g) for mask in range(1 << n) for g in range(n)
                   if mask & 1 and mask >> G.inverse(g) & 1)
    return {GammaElement(mask, g): i for i, (mask, g) in enumerate(pairs)}


def _element_oracle(gamma: Gamma, index: dict, mask: int, g: int) -> GammaElement:
    el = GammaElement(mask, g)
    if el not in index:
        raise ValueError(
            f"({gamma.group.subset_repr(mask)}, {gamma.group.label(g)}) is not "
            "a groupoid element: need e and the inverse of g inside I")
    return el


def _assert_indexes_like(view, arrows: tuple, keys) -> None:
    for k in keys:
        try:
            expected = arrows[k]
        except IndexError:
            with pytest.raises(IndexError):
                view[k]
        else:
            assert view[k] == expected


@pytest.mark.parametrize("name,G", build_roster() + order_16_roster())
def test_position_matches_enumerate_index(name, G):
    gamma = Gamma(G)
    index = _enumerate_index(G)
    arrows = tuple(index)
    assert tuple(gamma.elements) == arrows
    for el, i in index.items():
        assert gamma.position(el.mask, el.g) == i
    assert tuple(gamma.unit_indices) == tuple(i for el, i in index.items() if el.g == 0)
    assert tuple(GammaElement(mask, g) for mask in range(1, 1 << G.order, 2)
                 for g in gamma.gs_at(mask)) == arrows
    # the view indexes, slices and raises IndexError as the tuple does
    view = gamma.elements
    size = len(arrows)
    assert len(view) == gamma.size == size
    if G.order <= 8:
        keys = range(-size - 3, size + 3)
    else:
        keys = [0, 1, 2, size // 2, size - 1, size, size + 1, 1 << 40,
                -1, -2, -size, -size - 1, -(1 << 40)]
    _assert_indexes_like(view, arrows, keys)
    for sl in [slice(None), slice(3, 9), slice(-5, None), slice(None, None, -7),
               slice(size - 2, size + 5), slice(size + 1, None)]:
        assert view[sl] == arrows[sl]


# Gamma's tables as they were built before they became uint32 arrays and a
# streamed byte buffer: tuples of ints and one join over a list of rows. Kept
# as the test-only oracle of the arrays.

def _tuple_tables(G) -> tuple[tuple[int, ...], tuple[int, ...], bytes]:
    sources = range(1, 1 << G.order, 2)
    counts = list(map(int.bit_count, sources))
    masks = tuple(chain.from_iterable(map(repeat, sources, counts)))
    start = (0, *accumulate(counts[:-1]))
    return masks, start, b"".join(arrow_rows(G))


@pytest.mark.parametrize("name,G", build_roster() + order_16_roster())
def test_array_tables_match_tuple_tables(name, G):
    gamma = Gamma(G)
    masks, start, gs = _tuple_tables(G)
    assert gamma.masks.typecode == gamma.start.typecode == "I"
    assert tuple(gamma.masks) == masks and tuple(gamma.start) == start
    assert type(gamma.gs) is bytes and gamma.gs == gs
    assert gamma.unit_indices is gamma.start


def test_largest_mask_and_size_fit_the_array_items():
    # every mask is below 2^MAX_ORDER_BOUND and every start entry below the
    # size; an array raises OverflowError on an item it cannot hold
    bounds = [1 << MAX_ORDER_BOUND, gamma_size(MAX_ORDER_BOUND)]
    assert array("I", bounds).tolist() == bounds


# The rows of arrow_rows from the definition: the inverses of the elements of
# each mask, sorted, with no byte table. Kept as the test-only oracle of the
# row source that Gamma and the `gamma` command read.

def _sorted_inverses(G, masks) -> list[bytes]:
    inv, n = G.inv, G.order
    return [bytes(sorted(inv[x] for x in range(n) if mask >> x & 1))
            for mask in masks]


@pytest.mark.parametrize("name,G", build_roster() + order_16_roster())
def test_arrow_rows_match_sorted_inverses(name, G):
    assert list(arrow_rows(G)) == _sorted_inverses(G, range(1, 1 << G.order, 2))


# Orders 17 to 24 use three byte positions. A full walk there is up to 2^23
# rows, so only a walk prefix is compared: it passes bit 16, so the top
# position is walked, and the inverses of the low elements fill all three.
@pytest.mark.parametrize("spec", [f"cyclic:{n}" for n in range(17, 25)]
                         + [f"dihedral:{n}" for n in range(9, 13)])
def test_arrow_rows_walk_prefix_on_three_byte_positions(spec):
    G = make_group(spec)
    count = (1 << 15) + (1 << 8)
    assert (list(islice(arrow_rows(G), count))
            == _sorted_inverses(G, range(1, 2 * count, 2)))


@pytest.mark.parametrize("name,G", build_roster())
def test_element_rejects_what_the_dict_rejected(name, G):
    gamma = Gamma(G)
    index = _enumerate_index(G)
    n = G.order
    for mask in range(1 << n):
        for g in range(n):
            try:
                expected = _element_oracle(gamma, index, mask, g)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    gamma.element(mask, g)
                assert str(info.value) == str(exc)
            else:
                assert gamma.element(mask, g) == expected
    # Out of range: never keys of the dict, so rejected as before. The old
    # message could not be formed there: a label lookup past the end raised
    # IndexError, g = -1 named the last label, and a negative mask never
    # finished listing its bits.
    for mask, g in [(-1, 0), (1 << n, 0), (1 | 1 << n, 0),
                    (1, -1), (1, n), ((1 << n) - 1, n + 3)]:
        assert GammaElement(mask, g) not in index
        with pytest.raises(ValueError, match="out of range"):
            gamma.element(mask, g)


def test_order_bound_guard_and_override():
    # the default bound admits order 9; an explicit tighter one refuses it
    with pytest.raises(GroupOrderBoundError):
        Gamma(make_group("cyclic:9"), bound=8)
    gamma = Gamma(make_group("cyclic:9"))
    assert gamma.size == sum(
        mask.bit_count() for mask in range(1, 1 << 9, 2))


def test_describe_mentions_labels():
    G = make_group("cyclic:2")
    gamma = Gamma(G)
    text = gamma.describe(GammaElement(0b11, 1))
    assert "a" in text and "e" in text
