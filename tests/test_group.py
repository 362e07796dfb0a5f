"""Group construction, subset machinery, and the subgroup lattice."""

import functools
import json
import random
import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from groups_util import (
    bit_loop_indices,
    bit_loop_translate,
    build_roster,
    direct_product,
    order_16_roster,
    q8,
    q8_doc,
)
from pargroupoid.group import (
    MAX_TABLE_ORDER,
    FiniteGroup,
    GroupOrderBoundError,
    GroupSpecError,
    GroupTableError,
    Subgroup,
    conjugacy_classes_of_subgroups,
    from_table,
    generating_set,
    indices_of_mask,
    make_group,
    mask_from_indices,
    stabilizer_of_subset,
    subgroup_as_group,
    subgroups,
)
from pargroupoid.structure import multiplicity_enumeration


def test_spec_grammar_builds_expected_orders():
    assert make_group("cyclic:5").order == 5
    assert make_group("klein4").order == 4
    assert make_group("sym:3").order == 6
    assert make_group("dihedral:4").order == 8
    assert make_group("dihedral:1").order == 2
    assert make_group("cyclic:0007").order == 7
    # the table cap leaves room for cyclic:900 and dihedral:450
    assert MAX_TABLE_ORDER >= 900


@pytest.mark.parametrize("bad", ["nonsense", "cyclic", "cyclic:0", "sym:6",
                                 "cyclic:-2", "table:", "klein5",
                                 pytest.param("sym:" + "9" * 5000, id="sym:9*5000")])
def test_spec_grammar_rejections(bad):
    with pytest.raises(GroupSpecError):
        make_group(bad)


@pytest.mark.parametrize("spec", [
    f"cyclic:{MAX_TABLE_ORDER + 1}",
    f"dihedral:{MAX_TABLE_ORDER // 2 + 1}",
    # past int()'s 4,300-digit limit
    pytest.param("cyclic:" + "9" * 5000, id="cyclic:9*5000"),
    pytest.param("dihedral:" + "9" * 5000, id="dihedral:9*5000"),
])
def test_constructed_tables_are_capped(spec):
    # rejected from the digits, before int() or any table
    with pytest.raises(GroupOrderBoundError, match="cap on built Cayley tables") as info:
        make_group(spec)
    assert len(str(info.value)) < 100


def test_table_ingestion_via_spec(tmp_path):
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(q8_doc()))
    G = make_group(f"table:{path}")
    assert G.order == 8
    assert G.label(2) == "i"


@pytest.mark.parametrize("mangle, fragment", [
    (lambda d: d.pop("table"), "missing key"),
    (lambda d: d["table"][3].pop(), "row 3 has 7 entries"),
    (lambda d: d["table"][3].__setitem__(0, 99), "outside 0..7"),
    (lambda d: d["table"][3].__setitem__(5, -10**30),
     f"entry {-10**30} at row 3, col 5 is outside 0..7"),
    (lambda d: d["table"].__setitem__(0, [1, 0, 2, 3, 4, 5, 6, 7]),
     "identity must sit at index 0"),
    (lambda d: d["table"][2].__setitem__(3, d["table"][2][4]), "not a permutation"),
    (lambda d: d.__setitem__("labels", ["x"]), "labels for 8 elements"),
])
def test_table_validation_errors(mangle, fragment):
    doc = q8_doc()
    mangle(doc)
    with pytest.raises(GroupTableError, match=fragment):
        from_table(doc)


# JSON true/false pass isinstance(x, int); a string is a sequence of labels
MALFORMED_ORDER_TWO = [
    ({"order": 2, "table": [[False, 1], [1, 0]]}, "row 0, col 0 is not an integer"),
    ({"order": True, "table": [[0]]}, "order must be a positive integer"),
    ({"order": 2, "table": [[0, 1], [1, 0]], "labels": ["e", "e"]},
     "label 'e' names more than one element"),
    ({"order": 2, "table": [[0, 1], [1, 0]], "labels": "ea"},
     "labels must be a list, got str"),
]


@pytest.mark.parametrize("doc, fragment", MALFORMED_ORDER_TWO)
def test_table_rejects_bools_duplicate_and_string_labels(doc, fragment):
    with pytest.raises(GroupTableError, match=fragment):
        from_table(doc)


def test_associativity_validation():
    # every loop of order at most 4 is a group, so the smallest table that
    # fails the associativity check has order 5: this one is a Latin square
    # with the identity at 0 in which every element is its own inverse
    doc = {"order": 5, "table": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2],
                                 [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                                 [4, 3, 1, 2, 0]]}
    with pytest.raises(GroupTableError, match="associativity fails"):
        from_table(doc)


def test_associativity_witness_is_the_first_failing_triple():
    # a loop of order 5: identity at 0, Latin, two-sided inverses, and not
    # associative; the witness is the lexicographically least bad (i, j, k)
    table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
             [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    i, j, k = next((i, j, k) for i in range(5) for j in range(5)
                   for k in range(5)
                   if table[table[i][j]][k] != table[i][table[j][k]])
    with pytest.raises(GroupTableError) as info:
        FiniteGroup(table)
    assert str(info.value) == f"associativity fails at ({i}*{j})*{k} != {i}*({j}*{k})"
    assert (info.value.row, info.value.col) == (i, j)


def test_validation_memory_is_quadratic():
    # validation holds the table, its columns and one row getter per row,
    # all of size n^2; an n^3 sweep needed 138 MB at order 200
    tracemalloc.start()
    try:
        make_group("cyclic:200")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 1024 * 1024


def _brute_force_verdict(table):
    """The table checks as plain loops: None for a group, else (message, row, col).

    The test-only oracle for FiniteGroup's validation: the same checks in the
    same order, associativity by the full triple loop.
    """
    n = len(table)
    for i, j in product(range(n), repeat=2):
        if not 0 <= table[i][j] < n:
            return f"entry {table[i][j]} at row {i}, col {j} is outside 0..{n - 1}", i, j
    for j in range(n):
        if table[0][j] != j:
            return (f"identity must sit at index 0: row 0, col {j} holds "
                    f"{table[0][j]}, expected {j}", 0, j)
    for i in range(n):
        if table[i][0] != i:
            return (f"identity must sit at index 0: row {i}, col 0 holds "
                    f"{table[i][0]}, expected {i}", i, 0)
    for i in range(n):
        if sorted(table[i]) != list(range(n)):
            return f"row {i} is not a permutation", i, None
    for j in range(n):
        if sorted(table[i][j] for i in range(n)) != list(range(n)):
            return f"col {j} is not a permutation", None, j
    for i, j, k in product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return f"associativity fails at ({i}*{j})*{k} != {i}*({j}*{k})", i, j
    for i in range(n):
        inv = table[i].index(0)
        if table[inv][i] != 0:
            return f"element {i} has no two-sided inverse", inv, i
    return None


def _verdict(table):
    try:
        FiniteGroup(table)
    except GroupTableError as err:
        return str(err), err.row, err.col
    return None


def _random_loop(rng, n):
    """A random Latin square with the identity at 0, filled by backtracking."""
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = list(product(range(1, n), repeat=2))

    def fill(c):
        if c == len(cells):
            return True
        i, j = cells[c]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        options = [x for x in range(n) if x not in used]
        rng.shuffle(options)
        for table[i][j] in options:
            if fill(c + 1):
                return True
        table[i][j] = None
        return False

    fill(0)
    return table


def _relabel(rng, table):
    """The same table under a random relabelling that keeps 0 at 0."""
    n = len(table)
    perm = [0] + rng.sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for a, b in product(range(n), repeat=2):
        out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def _nucleus_loop():
    # (a, s) at index 3s + a with (a, s)(b, t) = (a + b + stb mod 3, s xor t):
    # a loop of order 6 whose elements with s = 0 associate on the left with
    # everything, so a check that stops after one passing generator misses it
    return [[(s ^ t) * 3 + (a + b + s * t * b) % 3
             for t in range(2) for b in range(3)]
            for s in range(2) for a in range(3)]


def _random_tables(count=2000):
    """Seeded tables of order 5-7: random loops, relabelled groups and loops
    with a large left nucleus, and loops with one entry or one row spoilt."""
    rng = random.Random(20231)
    bases = [_nucleus_loop()] + [list(map(list, make_group(spec).cayley))
                                 for spec in ("cyclic:5", "cyclic:6", "sym:3", "cyclic:7")]
    for case in range(count):
        kind = case % 4
        if kind == 1:
            yield _relabel(rng, rng.choice(bases))
            continue
        n = rng.randint(5, 7)
        table = _random_loop(rng, n)
        if kind == 2:
            table[rng.randrange(n)][rng.randrange(n)] = rng.randint(-1, n)
        elif kind == 3:
            row = table[rng.randrange(1, n)]
            row[1:] = rng.sample(row[1:], n - 1)
        yield table


def test_validation_matches_brute_force_on_random_tables():
    verdicts = Counter()
    for table in _random_tables():
        expected = _brute_force_verdict(table)
        assert _verdict(table) == expected, table
        verdicts[expected[0].split(" ")[0] if expected else "group"] += 1
    # every check is reached but the inverse check, which no loop that
    # passed associativity can fail, and groups are accepted
    assert set(verdicts) == {"entry", "identity", "row", "col", "associativity",
                             "group"}, verdicts


@pytest.mark.parametrize("name, G", build_roster() + order_16_roster()
                         + [("S5", make_group("sym:5"))])
def test_validation_matches_brute_force_on_groups(name, G):
    table = [list(row) for row in G.cayley]
    assert _brute_force_verdict(table) is None
    assert _verdict(table) is None
    assert _verdict(_relabel(random.Random(G.order), table)) is None


def test_q8_is_the_quaternion_group():
    G = q8()
    i, j = 2, 4
    assert G.mul(i, i) == 1  # i^2 = -1
    assert G.mul(i, j) == 6  # ij = k
    assert G.mul(j, i) == 7  # ji = -k
    # one subgroup of order 2 only (the center): distinguishes Q8 from D4
    orders = sorted(H.order for H in subgroups(G))
    assert orders == [1, 2, 4, 4, 4, 8]


def test_direct_product_structure():
    G = direct_product(make_group("cyclic:2"), make_group("cyclic:4"), "Z2xZ4")
    assert G.order == 8
    # element orders distinguish Z2 x Z4 from the other abelian order-8 groups
    def elt_order(x):
        k, y = 1, x
        while y != 0:
            y = G.mul(y, x)
            k += 1
        return k
    assert sorted(elt_order(x) for x in G.elements()) == [1, 2, 2, 2, 4, 4, 4, 4]


def test_mask_helpers_invert_each_other():
    assert indices_of_mask(0b101101) == [0, 2, 3, 5]
    assert mask_from_indices([5, 0, 3, 2]) == 0b101101


def test_left_translate_is_the_image_subset():
    G = make_group("sym:3")
    for g in G.elements():
        for mask in (0b1, 0b111, 0b101010, G.full_mask):
            expected = mask_from_indices(G.mul(g, x) for x in indices_of_mask(mask))
            assert G.left_translate(g, mask) == expected


def _check_translates(G, g, masks):
    assert [G.left_translate(g, m) for m in masks] == \
        [bit_loop_translate(G, g, m) for m in masks]


@pytest.mark.parametrize("name, G", build_roster())
def test_byte_tables_match_bit_loops_through_order_8(name, G):
    masks = range(1 << G.order)
    for g in G.elements():
        _check_translates(G, g, masks)


def test_indices_of_mask_matches_bit_loop_through_16_bits():
    masks = range(1 << 16)
    assert [indices_of_mask(m) for m in masks] == [bit_loop_indices(m) for m in masks]


@pytest.mark.parametrize("name, G", order_16_roster())
def test_byte_tables_match_bit_loops_at_order_16(name, G):
    rng = random.Random(name)
    masks = ([0, 0xFF, 0xFF00, G.full_mask] + [1 << x for x in G.elements()]
             + [rng.getrandbits(16) for _ in range(2000)])
    for g in G.elements():
        _check_translates(G, g, masks)


@functools.cache
def _spec_group(spec):
    return make_group(spec)


@st.composite
def _translate_cases(draw):
    # orders up to 80: several byte positions, and a partial last byte
    kind = draw(st.sampled_from(["cyclic", "dihedral"]))
    G = _spec_group(f"{kind}:{draw(st.integers(1, 40))}")
    return G, draw(st.integers(0, G.order - 1)), draw(st.integers(0, G.full_mask))


@given(_translate_cases())
def test_byte_tables_match_bit_loops_on_sampled_groups(case):
    G, g, mask = case
    assert G.left_translate(g, mask) == bit_loop_translate(G, g, mask)
    assert indices_of_mask(mask) == bit_loop_indices(mask)


@given(st.integers(0, 1 << 300))
def test_indices_of_wide_masks_match_bit_loop(mask):
    assert indices_of_mask(mask) == bit_loop_indices(mask)


def test_masks_outside_the_group_raise():
    G = make_group("cyclic:12")     # a partial last byte
    for bad in (-1, -(1 << 40), G.full_mask + 1, 1 << 15, 1 << 100):
        with pytest.raises(ValueError, match="not a subset"):
            G.left_translate(3, bad)
    with pytest.raises(ValueError, match="negative"):
        indices_of_mask(-1)


def test_translate_tables_are_built_per_element_on_first_use():
    # two full byte positions, padded by a one-entry table to the three that
    # a walk at MAX_ORDER_BOUND reads
    G = make_group("dihedral:8")
    assert G._translate_tables == [None] * 16
    G.left_translate(5, 0b1011)
    built = [t for t in G._translate_tables if t is not None]
    assert len(built) == 1 and [len(t) for t in built[0]] == [256, 256, 1]
    assert built[0] is G.translate_tables(5)
    for g in G.elements():
        G.left_translate(g, 1)
    assert sum(len(t) for ts in G._translate_tables for t in ts) == 16 * (2 * 256 + 1)


@pytest.mark.parametrize("spec, lengths", [
    ("cyclic:1", [2, 1, 1]), ("cyclic:12", [256, 16, 1]),
    ("sym:4", [256, 256, 256]), ("cyclic:30", [256, 256, 256, 64])])
def test_translate_tables_pad_to_three_byte_positions(spec, lengths):
    G = make_group(spec)
    for g in G.elements():
        tables = G.translate_tables(g)
        assert [len(t) for t in tables] == lengths
        for mask in (0, 1, G.full_mask, G.full_mask >> 1):
            out, rest = 0, mask
            for table in tables:
                out |= table[rest & 255]
                rest >>= 8
            assert out == G.left_translate(g, mask) == bit_loop_translate(G, g, mask)


def test_conjugate_mask_matches_elementwise():
    G = make_group("dihedral:4")
    for g in G.elements():
        mask = 0b1101
        expected = mask_from_indices(
            G.mul(G.mul(g, x), G.inverse(g)) for x in indices_of_mask(mask))
        assert G.conjugate_mask(g, mask) == expected


def _brute_force_subgroups(G):
    found = set()
    for mask in range(1, 1 << G.order, 2):
        elems = indices_of_mask(mask)
        closed = all(mask >> G.mul(a, b) & 1 for a in elems for b in elems)
        if closed and all(mask >> G.inverse(a) & 1 for a in elems):
            found.add(mask)
    return found


@pytest.mark.parametrize("name,G", build_roster())
def test_subgroups_against_brute_force(name, G):
    assert {H.mask for H in subgroups(G)} == _brute_force_subgroups(G)


def test_subgroups_are_kept_on_the_group():
    G = make_group("dihedral:4")
    first = subgroups(G)
    first.clear()
    second = subgroups(G)
    assert second == subgroups(G) and second is not subgroups(G)
    assert {H.mask for H in second} == _brute_force_subgroups(G)


def test_no_bound_lifts_a_walk_past_the_ceiling():
    # the lattice takes no bound and stops only at the ceiling; a subset
    # walk stops there whatever bound it is given
    G = make_group("cyclic:25")
    with pytest.raises(GroupOrderBoundError) as info:
        subgroups(G)
    assert str(info.value) == (
        "subgroup enumeration: order 25 exceeds the hard ceiling 24")
    with pytest.raises(GroupOrderBoundError, match="hard ceiling 24 on any bound$"):
        multiplicity_enumeration(G, bound=25)
    with pytest.raises(GroupOrderBoundError, match="order 25 exceeds the bound 24$"):
        multiplicity_enumeration(G, bound=24)
    assert len(subgroups(make_group("cyclic:24"))) == 8


def test_subgroup_rejects_non_closed_subsets():
    G = make_group("cyclic:4")
    with pytest.raises(ValueError):
        Subgroup(G, 0b0011)  # {e, g} with g of order 4
    with pytest.raises(ValueError):
        Subgroup(G, 0b0100)  # misses the identity


def test_stabilizer_is_the_fixing_subgroup():
    G = make_group("sym:3")
    for mask in range(1, 1 << G.order, 2):
        stab = stabilizer_of_subset(G, mask)
        expected = {g for g in G.elements() if G.left_translate(g, mask) == mask}
        assert set(stab.elements()) == expected


def test_subgroup_walks_take_the_lattice_entries():
    # stabilizers and conjugacy classes hand out the lattice's own objects,
    # each built and validated once per group
    G = make_group("dihedral:4")
    lattice = {H.mask: H for H in subgroups(G)}
    for mask in range(1, 1 << G.order, 2):
        stab = stabilizer_of_subset(G, mask)
        assert stab is lattice[stab.mask]
    for cls in conjugacy_classes_of_subgroups(G):
        assert all(H is lattice[H.mask] for H in cls)
    # a group above MAX_ORDER_BOUND has no lattice: its stabilizer is built
    # on its own, and equal to the subgroup of the same mask
    G = make_group("cyclic:30")
    stab = stabilizer_of_subset(G, mask_from_indices((0, 5, 10, 15, 20, 25, 1)))
    assert G._subgroups is None
    assert stab == Subgroup(G, 1) and hash(stab) == hash(Subgroup(G, 1))
    stab = stabilizer_of_subset(G, mask_from_indices(range(0, 30, 10)))
    assert stab.elements() == [0, 10, 20]
    assert stab != Subgroup(make_group("cyclic:30"), stab.mask)


def test_conjugacy_classes_partition_the_lattice():
    G = make_group("dihedral:4")
    classes = conjugacy_classes_of_subgroups(G)
    all_masks = {H.mask for H in subgroups(G)}
    seen = [H.mask for cls in classes for H in cls]
    assert sorted(seen) == sorted(all_masks)
    for cls in classes:
        rep = cls[0]
        orbit = {G.conjugate_mask(g, rep.mask) for g in G.elements()}
        assert {H.mask for H in cls} == orbit
        # representative is the least mask, and classes are sorted
        assert rep.mask == min(H.mask for H in cls)


def test_subgroup_as_group_is_isomorphic_embedding():
    G = make_group("sym:3")
    for H in subgroups(G):
        K, elems = subgroup_as_group(G, H)
        assert K.order == H.order
        for a in range(K.order):
            for b in range(K.order):
                assert elems[K.mul(a, b)] == G.mul(elems[a], elems[b])
        assert elems[0] == 0


def test_generating_set_generates():
    G = make_group("dihedral:4")
    for H in subgroups(G):
        gens = generating_set(H)
        grown = {0}
        frontier = True
        while frontier:
            frontier = False
            for x in list(grown):
                for g in gens:
                    y = G.mul(x, g)
                    if y not in grown:
                        grown.add(y)
                        frontier = True
        assert grown == set(H.elements())
        # a generating set of the trivial subgroup is empty
        if H.order == 1:
            assert gens == []
