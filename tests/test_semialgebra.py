"""Free-basis semialgebras: convolution, matrices, tensors, differences."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from groups_util import build_roster, direct_product, respec
from pargroupoid.cli import _suite_assoc
from pargroupoid.group import FiniteGroup, indices_of_mask, make_group
from pargroupoid.groupoid import Gamma, GammaElement, StandardElement, StandardGroupoid
from pargroupoid.semialgebra import (
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
    element_to_delta,
    matrix_algebra_for,
    matrix_from_delta,
    matrix_to_delta,
    standard_to_matrix,
    tensor_phi,
    tensor_varphi,
)
from pargroupoid.semiring import (
    NAT,
    QNN,
    DeltaElement,
    SemiringPropertyError,
    delta_of,
)

Z3 = make_group("cyclic:3")
Z3_NAT = GammaAlgebra(Gamma(Z3), NAT)

# elements of the order-3 groupoid algebra with small natural coefficients
nat_elements = st.dictionaries(
    st.integers(0, Z3_NAT.size - 1), st.integers(0, 9), max_size=4,
).map(lambda d: AlgebraElement(Z3_NAT, d))


def _brute_product(alg: GammaAlgebra, x: AlgebraElement, y: AlgebraElement):
    # independent convolution: walk all basis pairs through the groupoid
    gamma = alg.gamma
    S = alg.scalars
    out: dict[int, object] = {}
    for i, a in x.coeffs.items():
        for j, b in y.coeffs.items():
            p = gamma.product(gamma.elements[i], gamma.elements[j])
            if p is None:
                continue
            k = alg.index_of(p)
            c = S.mul(a, b)
            out[k] = S.add(out[k], c) if k in out else c
    return AlgebraElement(alg, out)


def _joined_pair(alg: GammaAlgebra, rng: random.Random, terms: int = 4):
    """Random x, y where half of y's terms have a defined product with a term
    of x: (I, g)(h^-1 I, h) is defined for every h in I. Uniform picks almost
    never meet at order 16, so the join would go untested there."""
    gamma = alg.gamma
    G = gamma.group
    S = alg.scalars
    x = alg.random_element(rng, terms)
    y = alg.random_element(rng, terms - terms // 2).coeffs
    for i in rng.sample(sorted(x.coeffs), min(terms // 2, len(x.coeffs))):
        mask = gamma.elements[i].mask
        h = rng.choice(indices_of_mask(mask))
        j = alg.index_of(gamma.element(G.left_translate(G.inverse(h), mask), h))
        y[j] = S.sample(rng)
    return x, AlgebraElement(alg, y)


def _probes_left(alg: GammaAlgebra, x: AlgebraElement, y: AlgebraElement) -> bool:
    masks = alg.gamma.masks
    return sum(masks[i].bit_count() for i in x.coeffs) < len(y.coeffs)


def _assert_same_product(alg, x, y):
    # The same coefficients, not just semantically equal ones: exact values
    # and unreduced pairs. The bucket path also keeps the double loop's key
    # order. The left probe inserts keys in h order instead, so it is held to
    # the mapping; each key still sums its terms in x order, so every value
    # is still pinned.
    got = x * y
    want = _brute_product(alg, x, y).coeffs
    if _probes_left(alg, x, y):
        assert got.coeffs == want
    else:
        assert list(got.coeffs.items()) == list(want.items())
    return got


def _check_against_brute_force(alg):
    rng = random.Random(11)
    defined = 0
    for _ in range(25):
        x = alg.random_element(rng, terms=4)
        y = alg.random_element(rng, terms=4)
        _assert_same_product(alg, x, y)
        x, y = _joined_pair(alg, rng)
        defined += len(_assert_same_product(alg, x, y).coeffs)
    _assert_same_product(alg, alg.one(), x)
    _assert_same_product(alg, x, alg.one())
    assert defined > 0


@pytest.mark.parametrize("spec", ["cyclic:3", "klein4", "sym:3"])
def test_convolution_matches_brute_force(spec):
    _check_against_brute_force(GammaAlgebra(Gamma(make_group(spec)), QNN))


@pytest.mark.parametrize("name", [name for name, _ in build_roster()])
@pytest.mark.parametrize("scalars", [QNN, delta_of(QNN)], ids=["qnn", "qnn-delta"])
def test_convolution_matches_brute_force_all_classes(algebra_of, name, scalars):
    _check_against_brute_force(algebra_of(name, scalars))


@pytest.mark.parametrize("G", [
    make_group("dihedral:8"),
    direct_product(make_group("cyclic:4"), make_group("cyclic:4"), "Z4xZ4"),
], ids=["dihedral:8", "Z4xZ4"])
def test_convolution_matches_brute_force_order_16(G):
    alg = GammaAlgebra(Gamma(G), QNN)
    rng = random.Random(16)
    defined = 0
    for _ in range(20):
        x, y = _joined_pair(alg, rng)
        defined += len(_assert_same_product(alg, x, y).coeffs)
    assert defined >= 20


def _probe_pairs(alg: GammaAlgebra, rng: random.Random):
    # general right factors: uniform, joined to x, and sums of units with
    # other terms, with y both shorter and longer than x's probe count
    for _ in range(10):
        x = alg.random_element(rng, terms=3)
        yield x, alg.random_element(rng, terms=rng.randrange(1, 12))
        x, y = _joined_pair(alg, rng, terms=6)
        yield x, y
        yield x, y + alg.one()
        yield y, x + alg.one()


def _assert_probe_matches(alg, x, y):
    want = _brute_product(alg, x, y).coeffs
    assert AlgebraElement(alg, alg._probe_left(x.coeffs, y.coeffs)).coeffs == want
    assert AlgebraElement(alg, alg._bucket_right(x.coeffs, y.coeffs)).coeffs == want
    return want


@pytest.mark.parametrize("name", [name for name, _ in build_roster()])
@pytest.mark.parametrize("scalars", [QNN, delta_of(QNN)], ids=["qnn", "qnn-delta"])
def test_left_probe_matches_brute_force_all_classes(algebra_of, name, scalars):
    alg = algebra_of(name, scalars)
    rng = random.Random(7)
    defined = sum(len(_assert_probe_matches(alg, x, y))
                  for x, y in _probe_pairs(alg, rng))
    assert defined > 0


@pytest.mark.parametrize("G", [
    make_group("dihedral:8"),
    direct_product(make_group("cyclic:4"), make_group("cyclic:4"), "Z4xZ4"),
], ids=["dihedral:8", "Z4xZ4"])
def test_left_probe_matches_brute_force_order_16(G):
    alg = GammaAlgebra(Gamma(G), QNN)
    rng = random.Random(16)
    defined = 0
    for _ in range(20):
        x, y = _joined_pair(alg, rng)
        defined += len(_assert_probe_matches(alg, x, y))
    assert defined >= 20


def test_products_with_one_probe_from_the_left(monkeypatch):
    # x * one probes |I| candidates per term of x instead of translating all
    # 2^(n-1) units of one; one * x buckets the terms of x
    alg = GammaAlgebra(Gamma(make_group("dihedral:4")), QNN)
    x = alg.random_element(random.Random(3), terms=3)
    assert _probes_left(alg, x, alg.one())
    assert not _probes_left(alg, alg.one(), x)
    calls = []
    translate = alg.gamma.group.left_translate
    monkeypatch.setattr(alg.gamma.group, "left_translate",
                        lambda g, mask: calls.append(g) or translate(g, mask))
    assert x * alg.one() == x
    assert len(calls) == sum(alg.gamma.masks[i].bit_count() for i in x.coeffs)
    calls.clear()
    assert alg.one() * x == x
    assert len(calls) == len(x.coeffs)


def test_assoc_suite_translate_count(monkeypatch):
    # the assoc suite on D4 made 77,311 translates when every product
    # bucketed its right factor, 27.3 M on cyclic:12
    calls = [0]
    translate = FiniteGroup.left_translate

    def counting_translate(self, g, mask):
        calls[0] += 1
        return translate(self, g, mask)

    monkeypatch.setattr(FiniteGroup, "left_translate", counting_translate)
    checks = _suite_assoc(make_group("dihedral:4"), QNN, 0, None)
    assert all(c["passed"] for c in checks)
    assert calls[0] <= 5_405


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4",
                                  "klein4"])
def test_gamma_algebra_product_matches_groupoid(spec):
    # the join on single basis pairs: one term where the groupoid product is
    # defined, none elsewhere
    alg = GammaAlgebra(Gamma(make_group(spec)), NAT)
    gamma = alg.gamma
    for i, a in enumerate(alg.basis):
        for j, b in enumerate(alg.basis):
            p = gamma.product(a, b)
            out = alg.convolve({i: 1}, {j: 1})
            assert out == ({} if p is None else {alg.index_of(p): 1})


@given(nat_elements, nat_elements, nat_elements)
def test_algebra_laws(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x + y == y + x


@given(nat_elements)
def test_one_is_two_sided_identity(x):
    one = Z3_NAT.one()
    assert one * x == x
    assert x * one == x
    assert (Z3_NAT.zero() * x).is_zero


def test_scale_commutes_with_product():
    alg = GammaAlgebra(Gamma(make_group("klein4")), QNN)
    rng = random.Random(3)
    c = Fraction(5, 7)
    for _ in range(20):
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        assert x.scale(c) * y == (x * y).scale(c)


def test_subtraction_needs_negation():
    x = Z3_NAT.basis_element(Z3_NAT.basis[0])
    with pytest.raises(SemiringPropertyError):
        x - x
    d = element_to_delta(x)
    assert (d - d).is_zero


def test_equality_is_semantic_over_unreduced_pairs():
    dalg = Z3_NAT.with_scalars(delta_of(NAT))
    b = dalg.basis[2]
    x = dalg.element([(b, DeltaElement(5, 3))])
    y = dalg.element([(b, DeltaElement(2, 0))])
    assert x == y
    assert not x == dalg.element([(b, DeltaElement(3, 5))])


def test_equality_compares_supports_then_pairs():
    dalg = GammaAlgebra(Gamma(make_group("sym:3")), delta_of(QNN))
    b, c = dalg.basis[3], dalg.basis[5]
    half, one = Fraction(1, 2), Fraction(1)
    x = dalg.element([(b, DeltaElement(one + half, half)), (c, DeltaElement(0, one))])
    y = dalg.element([(c, DeltaElement(half, one + half)), (b, DeltaElement(2 * one, one))])
    assert x.coeffs != y.coeffs and x == y and y == x
    # the same pairs on different supports, and one support inside the other
    moved = dalg.element([(dalg.basis[4], DeltaElement(one + half, half)),
                          (c, DeltaElement(0, one))])
    assert x != moved and moved != x
    assert x != dalg.element([(b, DeltaElement(one, 0))])
    assert dalg.element([(b, DeltaElement(one, 0))]) != x
    # a pair equal to zero leaves the support, so it cannot tip the key test
    assert dalg.element([(b, DeltaElement(one, 0)), (c, DeltaElement(half, half))]) \
        == dalg.element([(b, DeltaElement(2 * one, one))])
    assert not x == dalg.element([(b, DeltaElement(one, 0)), (c, DeltaElement(one, 0))])


def test_scalar_family_is_shared():
    D = delta_of(NAT)
    there = Z3_NAT.with_scalars(D)
    back = there.with_scalars(NAT)
    assert back is Z3_NAT
    assert there is Z3_NAT.with_scalars(D)
    # one basis serves the whole family
    assert there.basis is Z3_NAT.basis
    assert there.gamma is Z3_NAT.gamma and there.scalars is D


def test_scalar_lookups_hash_no_fractions(monkeypatch):
    # specs hash by identity; hashing the fields hashed QNN's Fraction
    # sample prefix, and the delta spec's nested base, on every lookup
    alg = GammaAlgebra(Gamma(Z3), QNN)
    D = delta_of(QNN)
    calls = []
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    assert alg.with_scalars(delta_of(QNN)) is alg.with_scalars(D)
    assert calls == []


def test_order_16_basis_is_flat():
    # a uint32 array of masks, a byte per g and closed-form lookups: one
    # frozen object per arrow took 29.0 MB and the algebra's index dict
    # 18.3 MB more; a tuple of masks and a joined list of rows held 4.86 MB
    # and peaked at 5.42 MB while built, against about 1.56 and 2.38 MB now
    G = make_group("cyclic:16")
    tracemalloc.start()
    try:
        gamma = Gamma(G)
        built, build_peak = tracemalloc.get_traced_memory()
        alg = GammaAlgebra(gamma, QNN)
        added = tracemalloc.get_traced_memory()[0] - built
    finally:
        tracemalloc.stop()
    assert built < 2_000_000 and build_peak < 3_000_000
    assert added < 100_000 and alg.size == gamma.size


def test_element_accumulates_duplicate_basis_keys():
    b = Z3_NAT.basis[1]
    x = Z3_NAT.element([(b, 2), (b, 3)])
    assert x.coeffs == {1: 5}


def _membership_cases():
    """Each algebra kind with near-misses of its basis objects."""
    G = make_group("sym:3")
    n = G.order
    # an element whose inverse lies outside {e, g1}
    g = next(g for g in range(n) if not 0b11 >> G.inverse(g) & 1)
    gamma_misses = [GammaElement(0b10, 0), GammaElement(0b110, 1),
                    GammaElement(0b11, g), GammaElement(1 << n | 1, 0),
                    GammaElement(-1, 0), GammaElement(1, n), GammaElement(1, -1),
                    (1, 0), StandardElement(0, 1, 1), 0]
    std_misses = [StandardElement(2, 1, 1), StandardElement(-1, 1, 1),
                  StandardElement(0, 0, 1), StandardElement(0, 4, 1),
                  StandardElement(0, 1, 0), StandardElement(0, 1, 4),
                  GammaElement(1, 0), 0]
    group_misses = [n, -1, 1 << 40, GammaElement(1, 0), StandardElement(0, 1, 1)]
    return [(GammaAlgebra(Gamma(G), NAT), gamma_misses),
            (StandardAlgebra(StandardGroupoid(make_group("cyclic:2"), 3), NAT),
             std_misses),
            (GroupAlgebra(G, NAT), group_misses)]


@pytest.mark.parametrize("alg,misses", _membership_cases(),
                         ids=["gamma", "standard", "group"])
def test_basis_membership(alg, misses):
    for i, b in enumerate(alg.basis):
        assert alg.index_of(b) == i
        assert alg.basis_element(b).coeffs == {i: 1}
    assert alg.element([(b, 1) for b in alg.basis]).coeffs == {
        i: 1 for i in range(alg.size)}
    for b in misses:
        message = f"{b!r} is not a basis element of {alg!r}"
        for lookup in (alg.index_of, alg.basis_element,
                       lambda b: alg.element([(b, 1)])):
            with pytest.raises(ValueError) as info:
                lookup(b)
            assert str(info.value) == message


def test_cross_algebra_operations_rejected():
    other = GammaAlgebra(Gamma(make_group("cyclic:2")), NAT)
    with pytest.raises(BasisMismatchError):
        Z3_NAT.one() + other.one()
    with pytest.raises(BasisMismatchError):
        GroupAlgebra(Z3, NAT).one() * Z3_NAT.one()


def test_group_algebra_convolution_by_hand():
    alg = GroupAlgebra(Z3, NAT)
    x = alg.element([(0, 1), (1, 1)])  # e + a
    sq = x * x
    assert sq.coeffs == {0: 1, 1: 2, 2: 1}  # e + 2a + a^2


def test_standard_algebra_product_matches_groupoid():
    # each product row in closed form: entry j is the position of the
    # groupoid product, None where it is undefined
    for spec, m in (("cyclic:1", 1), ("cyclic:2", 2), ("klein4", 3), ("sym:3", 2)):
        std = StandardAlgebra(StandardGroupoid(make_group(spec), m), NAT)
        g = std.groupoid
        for i, a in enumerate(std.basis):
            row = std._row(i)
            assert len(row) == std.size
            for j, b in enumerate(std.basis):
                p = g.product(a, b)
                assert row[j] == (None if p is None else std.index_of(p))


# The per-algebra loops that one convolution over product rows replaced,
# kept as test-only oracles: the group algebra's own loop over the Cayley
# table, and the generic loop over a basis product on index pairs.
def _group_convolve_oracle(alg: GroupAlgebra, x: dict, y: dict) -> dict:
    cayley = alg.group.cayley
    sadd = alg.scalars.add
    smul = alg.scalars.mul
    out: dict = {}
    for i, a in x.items():
        row = cayley[i]
        for j, b in y.items():
            k = row[j]
            c = smul(a, b)
            out[k] = sadd(out[k], c) if k in out else c
    return out


def _standard_basis_product(std: StandardAlgebra, i: int, j: int):
    m = std.groupoid.m
    ha, rem = divmod(i, m * m)
    ia, ja = divmod(rem, m)
    hb, rem = divmod(j, m * m)
    ib, jb = divmod(rem, m)
    if ja != ib:
        return None
    return (std.groupoid.H.mul(ha, hb) * m + ia) * m + jb


def _standard_convolve_oracle(std: StandardAlgebra, x: dict, y: dict) -> dict:
    sadd = std.scalars.add
    smul = std.scalars.mul
    out: dict = {}
    for i, a in x.items():
        for j, b in y.items():
            k = _standard_basis_product(std, i, j)
            if k is None:
                continue
            c = smul(a, b)
            out[k] = sadd(out[k], c) if k in out else c
    return out


def _exact(v):
    # a scalar with its type, through difference pairs, so that 1 and
    # Fraction(1), or an unreduced pair and its reduction, tell apart
    if isinstance(v, DeltaElement):
        return (DeltaElement, _exact(v.pos), _exact(v.neg))
    return (type(v), v)


def _exact_items(coeffs: dict) -> list:
    return [(k, _exact(v)) for k, v in coeffs.items()]


# coefficient pools that mix ints with Fractions and, over the ring of
# differences, hold unreduced pairs whose sums and products cancel
_POOLS = {
    "nat": (NAT, (1, 2, 3, 7)),
    "qnn": (QNN, (1, 2, Fraction(1, 2), Fraction(3), Fraction(2, 3))),
    "qnn-delta": (delta_of(QNN), (
        DeltaElement(1, 0), DeltaElement(0, 1), DeltaElement(Fraction(3), 1),
        DeltaElement(1, Fraction(3, 2)), DeltaElement(2, 1), DeltaElement(1, 2))),
}


def _pool_element(alg, pool, rng: random.Random) -> AlgebraElement:
    keys = rng.sample(range(alg.size), rng.randrange(1, min(5, alg.size) + 1))
    return AlgebraElement(alg, {k: rng.choice(pool) for k in keys})


@pytest.mark.parametrize("pool", sorted(_POOLS))
def test_group_algebra_products_match_the_old_loop(pool):
    scalars, coeffs = _POOLS[pool]
    rng = random.Random(43)
    for _, G in build_roster():
        alg = GroupAlgebra(G, scalars)
        for _ in range(30):
            x, y = _pool_element(alg, coeffs, rng), _pool_element(alg, coeffs, rng)
            want = _group_convolve_oracle(alg, x.coeffs, y.coeffs)
            assert _exact_items(alg.convolve(x.coeffs, y.coeffs)) == _exact_items(want)
            assert _exact_items((x * y).coeffs) == _exact_items(
                AlgebraElement(alg, want).coeffs)


@pytest.mark.parametrize("pool", sorted(_POOLS))
def test_standard_algebra_products_match_the_old_loop(pool):
    scalars, coeffs = _POOLS[pool]
    rng = random.Random(47)
    for spec, m in (("cyclic:1", 2), ("cyclic:2", 2), ("sym:3", 2), ("cyclic:3", 3)):
        std = StandardAlgebra(StandardGroupoid(make_group(spec), m), scalars)
        for _ in range(30):
            x, y = _pool_element(std, coeffs, rng), _pool_element(std, coeffs, rng)
            want = _standard_convolve_oracle(std, x.coeffs, y.coeffs)
            assert _exact_items(std.convolve(x.coeffs, y.coeffs)) == _exact_items(want)


def _sub_oracle(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    # the merge subtraction repeated before it went through addition
    S = x.algebra.scalars
    out = dict(x.coeffs)
    for i, c in y.coeffs.items():
        nc = S.neg(c)
        out[i] = S.add(out[i], nc) if i in out else nc
    return AlgebraElement(x.algebra, out)


@pytest.mark.parametrize("base", [NAT, QNN], ids=["nat-delta", "qnn-delta"])
def test_subtraction_matches_the_old_merge(base):
    # unreduced pairs stay as the merge left them, keys in its order, and
    # pairs that cancel leave the support
    S = delta_of(base)
    pool = (DeltaElement(1, 0), DeltaElement(0, 1), DeltaElement(3, 1),
            DeltaElement(1, 3), DeltaElement(2, 2), DeltaElement(base.one, 0))
    rng = random.Random(53)
    cancelled = 0
    for alg in (GammaAlgebra(Gamma(Z3), S), GroupAlgebra(make_group("sym:3"), S)):
        for _ in range(60):
            x, y = _pool_element(alg, pool, rng), _pool_element(alg, pool, rng)
            if rng.random() < 0.3:
                y = AlgebraElement(alg, dict(reversed(list(x.coeffs.items()))))
            want = _sub_oracle(x, y)
            assert _exact_items((x - y).coeffs) == _exact_items(want.coeffs)
            cancelled += len(x.coeffs.keys() | y.coeffs.keys()) - len(want.coeffs)
    assert cancelled


# ---------------------------------------------------------------------------
# Matrices and the triple-basis comparison.

def _grid(X):
    # the dense grid of entries, read through the 1-based entry accessor
    span = range(1, X.algebra.m + 1)
    return [[X.entry(r, c) for c in span] for r in span]


def _matrix_oracle(X, Y):
    alg = X.algebra
    span = range(1, alg.m + 1)
    rows = []
    for r in span:
        row = []
        for c in span:
            acc = alg.entries.zero()
            for k in span:
                acc = acc + X.entry(r, k) * Y.entry(k, c)
            row.append(acc)
        rows.append(tuple(row))
    return alg.element(rows)


def test_matrix_units_multiply_like_matrix_units():
    alg = MatrixAlgebra(GroupAlgebra(Z3, QNN), 3)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                for l in (1, 2, 3):
                    p = alg.matrix_unit(i, j) * alg.matrix_unit(k, l)
                    if j == k:
                        assert p == alg.matrix_unit(i, l)
                    else:
                        assert p.is_zero


def test_matrix_product_against_oracle():
    alg = MatrixAlgebra(GroupAlgebra(make_group("klein4"), QNN), 3)
    rng = random.Random(23)
    for _ in range(25):
        X = alg.random_element(rng)
        Y = alg.random_element(rng)
        assert X * Y == _matrix_oracle(X, Y)
        assert alg.one() * X == X and X * alg.one() == X


# The grid kernel that skipped zeros once per (r, c, k), kept as the
# test-only oracle for the per-(r, k) skip that replaced it.
def _cell_skip_product(X, Y):
    alg = X.algebra
    span = range(1, alg.m + 1)
    zero = alg.entries.zero()
    rows = []
    for r in span:
        row = []
        for c in span:
            acc = None
            for k in span:
                a = X.entry(r, k)
                if not a.coeffs:
                    continue
                b = Y.entry(k, c)
                if not b.coeffs:
                    continue
                term = a * b
                acc = term if acc is None else acc + term
            row.append(zero if acc is None else acc)
        rows.append(tuple(row))
    return rows


def _sparse_grid(alg, rng):
    # a random grid with about half of its cells empty
    X = alg.random_element(rng, terms=3)
    zero = alg.entries.zero()
    return alg.element([[zero if rng.random() < 0.5 else cell for cell in row]
                        for row in _grid(X)])


@pytest.mark.parametrize("scalars", [QNN, delta_of(QNN)], ids=["qnn", "delta"])
def test_matrix_product_gives_the_cell_skip_coefficients(scalars):
    # same coefficient dicts, in items and in key order, dense or sparse
    rng = random.Random(41)
    for H in (Z3, make_group("klein4"), make_group("sym:3")):
        for m in (1, 2, 3, 4):
            alg = MatrixAlgebra(GroupAlgebra(H, scalars), m)
            for trial in range(8):
                dense = trial % 2 == 0
                X = alg.random_element(rng, 3) if dense else _sparse_grid(alg, rng)
                Y = alg.random_element(rng, 3) if dense else _sparse_grid(alg, rng)
                got = [[list(cell.coeffs.items()) for cell in row]
                       for row in _grid(X * Y)]
                want = [[list(cell.coeffs.items()) for cell in row]
                        for row in _cell_skip_product(X, Y)]
                assert got == want


def _cancelling_grid(alg, rng):
    # entries on two elements of H with coefficients +-1 and +-2 as unreduced
    # pairs, so that products and partial sums often cancel
    zero = alg.entries.zero()
    H = alg.entries.group
    coeffs = [DeltaElement(Fraction(p), Fraction(n))
              for p, n in ((1, 0), (0, 1), (3, 1), (1, 3), (2, 1), (1, 2))]
    rows = []
    for _ in range(alg.m):
        row = []
        for _ in range(alg.m):
            if rng.random() < 0.3:
                row.append(zero)
                continue
            keys = rng.sample(range(min(2, H.order)), rng.randrange(1, min(2, H.order) + 1))
            row.append(AlgebraElement(alg.entries, {h: rng.choice(coeffs) for h in keys}))
        rows.append(row)
    return alg.element(rows)


def _cancellations(X, Y):
    # (product coefficients that are zero, partial sums that drop a key)
    entries = X.algebra.entries
    zero_products = dropped = 0
    span = range(1, X.algebra.m + 1)
    for r in span:
        for c in span:
            acc = entries.zero()
            for k in span:
                raw = entries.convolve(X.entry(r, k).coeffs, Y.entry(k, c).coeffs)
                zero_products += sum(map(entries.scalars.is_zero, raw.values()))
                nxt = acc + X.entry(r, k) * Y.entry(k, c)
                dropped += len(acc.coeffs.keys() - nxt.coeffs.keys())
                acc = nxt
    return zero_products, dropped


@pytest.mark.parametrize("scalars", [QNN, delta_of(QNN)], ids=["qnn", "qnn-delta"])
def test_fused_matrix_product_matches_oracle_in_order(scalars):
    # each cell accumulates in one dict; values, unreduced pairs and key
    # order must be those of the per-term elements summed with +
    rng = random.Random(59)
    zero_products = dropped = 0
    for H in (Z3, make_group("klein4"), make_group("sym:3")):
        for m in (1, 2, 3, 4):
            alg = MatrixAlgebra(GroupAlgebra(H, scalars), m)
            for trial in range(10):
                if scalars.is_delta and trial % 2:
                    X, Y = _cancelling_grid(alg, rng), _cancelling_grid(alg, rng)
                    zp, dr = _cancellations(X, Y)
                    zero_products += zp
                    dropped += dr
                else:
                    X, Y = _sparse_grid(alg, rng), alg.random_element(rng, 3)
                got = [[list(cell.coeffs.items()) for cell in row]
                       for row in _grid(X * Y)]
                want = [[list(cell.coeffs.items()) for cell in row]
                        for row in _grid(_matrix_oracle(X, Y))]
                assert got == want
    if scalars.is_delta:
        assert zero_products > 0 and dropped > 0


def _counting_qnn():
    # QNN whose dot records how many pairs each call is handed
    calls = []

    def dot(pairs):
        pairs = list(pairs)
        calls.append(len(pairs))
        return QNN.dot(pairs)

    return respec(QNN, name="qnn-counting", dot=dot), calls


def test_matrix_product_calls_dot_once_per_coefficient():
    S, calls = _counting_qnn()
    rng = random.Random(67)
    for H in (Z3, make_group("klein4"), make_group("sym:3")):
        for m in (1, 2, 3):
            alg = MatrixAlgebra(GroupAlgebra(H, S), m)
            span = range(1, m + 1)
            for trial in range(6):
                X, Y = _sparse_grid(alg, rng), alg.random_element(rng, 3)
                calls.clear()
                P = X * Y
                # one pair per (k, h1, h2) term of every cell
                terms = sum(len(X.entry(i, k).coeffs) * len(Y.entry(k, j).coeffs)
                            for i in span for j in span for k in span)
                assert len(calls) == sum(len(cell.coeffs) for cell in P.cells.values())
                assert sum(calls) == terms
                assert P == _matrix_oracle(X, Y)


@pytest.mark.parametrize("scalars", ["nat", "qnn-delta"])
def test_per_term_scalars_never_call_dot(monkeypatch, scalars):
    counting, calls = _counting_qnn()
    # the ring of differences of the counting spec: its products go through
    # the base's add and mul, never through the base's dot
    S = NAT if scalars == "nat" else delta_of(counting)
    taken = []
    gathered = MatrixElement._gathered_product

    def spy(self, *args):
        taken.append(self)
        return gathered(self, *args)

    monkeypatch.setattr(MatrixElement, "_gathered_product", spy)
    rng = random.Random(71)
    for H in (Z3, make_group("sym:3")):
        for m in (1, 2, 3):
            alg = MatrixAlgebra(GroupAlgebra(H, S), m)
            for trial in range(4):
                X, Y = _sparse_grid(alg, rng), alg.random_element(rng, 3)
                assert X * Y == _matrix_oracle(X, Y)
    assert taken == [] and calls == []
    # the spy sees the path that QNN takes
    alg = MatrixAlgebra(GroupAlgebra(Z3, counting), 2)
    X = alg.random_element(rng, 3)
    X * X
    assert taken and calls


def test_matrix_equality_over_empty_cells():
    alg = MatrixAlgebra(GroupAlgebra(Z3, QNN), 3)
    assert alg.zero() == alg.zero()
    assert alg.matrix_unit(1, 2) == alg.matrix_unit(1, 2)
    assert alg.matrix_unit(1, 2) != alg.matrix_unit(2, 1)
    assert alg.matrix_unit(1, 2) != alg.zero()
    assert alg.zero() != alg.matrix_unit(3, 3)


def test_matrix_entry_indexing_is_one_based():
    alg = MatrixAlgebra(GroupAlgebra(Z3, QNN), 2)
    X = alg.matrix_unit(1, 2)
    assert not X.entry(1, 2).is_zero
    assert X.entry(2, 1).is_zero
    with pytest.raises(ValueError):
        alg.matrix_unit(0, 1)
    # entry(0, 1) read the (2, 1) entry through a negative index, and
    # entry(3, 1) raised IndexError
    for i, j in ((0, 1), (3, 1), (1, 0), (1, 3), (-1, -1)):
        with pytest.raises(ValueError) as info:
            X.entry(i, j)
        assert str(info.value) == f"matrix position ({i},{j}) out of range for m=2"


def _assert_no_cells(X):
    assert X.is_zero and X.cells == {}


def test_zero_matrices_hold_no_cells():
    rng = random.Random(71)
    alg = MatrixAlgebra(GroupAlgebra(Z3, QNN), 3)
    X = alg.random_element(rng, 3)
    _assert_no_cells(X.scale(QNN.zero))
    _assert_no_cells(alg.matrix_unit(2, 3, alg.entries.zero()))
    _assert_no_cells(alg.zero())
    _assert_no_cells(alg.matrix_unit(1, 2) * alg.matrix_unit(1, 2))
    swap = alg.matrix_unit(2, 1) + alg.matrix_unit(1, 2)
    for Z in (X, X * X, swap, swap * X):
        assert list(Z.cells) == sorted(Z.cells)  # row-major

    dalg = alg.with_scalars(delta_of(QNN))
    Y = dalg.random_element(rng, 3)
    _assert_no_cells(Y - Y)
    # a partial sum that cancels: (E11 + E12)(E11 - E21) = E11 - E11, with
    # -1 held as the unreduced pair (2, 3)
    one = DeltaElement(Fraction(1), Fraction(0))
    minus = DeltaElement(Fraction(2), Fraction(3))
    e = dalg.entries.element([(0, one)])
    m = dalg.entries.element([(0, minus)])
    left = dalg.matrix_unit(1, 1, e) + dalg.matrix_unit(1, 2, e)
    right = dalg.matrix_unit(1, 1, e) + dalg.matrix_unit(2, 1, m)
    _assert_no_cells(left * right)


@pytest.mark.parametrize("scalars", [QNN, NAT], ids=["qnn", "nat"])
def test_matrix_subtraction_needs_negation_even_on_zero(scalars):
    alg = MatrixAlgebra(GroupAlgebra(Z3, scalars), 2)
    with pytest.raises(SemiringPropertyError):
        alg.zero() - alg.zero()
    with pytest.raises(SemiringPropertyError):
        alg.one() - alg.zero()


def test_standard_matrix_round_trip():
    std = StandardAlgebra(StandardGroupoid(Z3, 2), QNN)
    mat = matrix_algebra_for(std)
    rng = random.Random(5)
    for _ in range(100):
        x = std.random_element(rng, terms=5)
        assert tensor_varphi(standard_to_matrix(x, mat), std) == x
        X = mat.random_element(rng)
        assert standard_to_matrix(tensor_varphi(X, std), mat) == X


def test_expansion_agrees_with_pure_tensors_on_basis():
    # on the basis of pure tensors e_ij (x) h both maps must coincide; this
    # pins the linear extension as the unique one
    std = StandardAlgebra(StandardGroupoid(Z3, 2), QNN)
    mat = matrix_algebra_for(std)
    zero, one = QNN.zero, QNN.one
    for h in range(3):
        for i in (1, 2):
            for j in (1, 2):
                grid = [[one if (r, c) == (i, j) else zero for c in (1, 2)]
                        for r in (1, 2)]
                via_phi = tensor_phi(grid, mat.entries.basis_element(h), mat)
                via_basis = standard_to_matrix(
                    std.basis_element(StandardElement(h, i, j)), mat)
                assert via_phi == via_basis


def test_pure_tensor_products_factor():
    std = StandardAlgebra(StandardGroupoid(Z3, 2), QNN)
    mat = matrix_algebra_for(std)
    rng = random.Random(7)
    pool = QNN.values(8, seed=7)
    for _ in range(50):
        A = [[rng.choice(pool) for _ in range(2)] for _ in range(2)]
        B = [[rng.choice(pool) for _ in range(2)] for _ in range(2)]
        w = mat.entries.random_element(rng)
        v = mat.entries.random_element(rng)
        AB = [[sum((A[i][k] * B[k][j] for k in range(2)), QNN.zero)
               for j in range(2)] for i in range(2)]
        assert (tensor_phi(A, w, mat) * tensor_phi(B, v, mat)
                == tensor_phi(AB, w * v, mat))


# tensor_phi as it was before it scaled each scalar object once: one scale per
# cell. Kept as the test-only oracle of the shared products.

def _tensor_phi_per_cell(A, w: AlgebraElement, target: MatrixAlgebra) -> MatrixElement:
    return MatrixElement(target, {(r, c): w.scale(a) for r, row in enumerate(A, start=1)
                                  for c, a in enumerate(row, start=1)})


@pytest.mark.parametrize("scalars", [QNN, NAT, delta_of(QNN)],
                         ids=["qnn", "nat", "qnn-delta"])
def test_tensor_phi_matches_one_scale_per_cell(scalars):
    std = StandardAlgebra(StandardGroupoid(make_group("sym:3"), 3), scalars)
    mat = matrix_algebra_for(std)
    rng = random.Random(11)
    # a pool of five repeats entries in a 3x3 grid, and its zero fills cells
    pool = [scalars.zero, *scalars.values(4, seed=11)]
    for _ in range(40):
        A = [[rng.choice(pool) for _ in range(3)] for _ in range(3)]
        w = mat.entries.random_element(rng, terms=4)
        got, want = tensor_phi(A, w, mat), _tensor_phi_per_cell(A, w, mat)
        assert list(got.cells) == list(want.cells)
        for pos, entry in want.cells.items():
            assert got.cells[pos].coeffs == entry.coeffs


def test_tensor_shape_validation():
    std = StandardAlgebra(StandardGroupoid(Z3, 2), QNN)
    mat = matrix_algebra_for(std)
    with pytest.raises(ValueError):
        tensor_phi([[QNN.one]], mat.entries.basis_element(0), mat)
    foreign = GroupAlgebra(make_group("cyclic:2"), QNN)
    with pytest.raises(BasisMismatchError):
        tensor_phi([[QNN.one] * 2] * 2, foreign.basis_element(0), mat)


# ---------------------------------------------------------------------------
# Crossing the ring-of-differences bridge.

def test_delta_pair_equality_is_cross_sum():
    a = Z3_NAT.basis_element(Z3_NAT.basis[0])
    b = Z3_NAT.basis_element(Z3_NAT.basis[1])
    # (a + b) - b equals a - 0
    assert DeltaPair(a + b, b) == DeltaPair(a, Z3_NAT.zero())
    assert not DeltaPair(a, b) == DeltaPair(b, a)


def test_delta_extension_round_trips_and_multiplies():
    dalg = Z3_NAT.with_scalars(delta_of(NAT))
    rng = random.Random(13)
    for _ in range(200):
        x = dalg.random_element(rng, terms=4)
        y = dalg.random_element(rng, terms=4)
        fx, fy = delta_extension(x), delta_extension(y)
        assert delta_extension_inverse(fx) == x
        assert delta_extension(x * y) == fx * fy
        assert delta_extension(x + y) == fx + fy
        p = DeltaPair(Z3_NAT.random_element(rng), Z3_NAT.random_element(rng))
        assert delta_extension(delta_extension_inverse(p)) == p


def test_delta_extension_requires_difference_scalars():
    with pytest.raises(SemiringPropertyError):
        delta_extension(Z3_NAT.one())


def test_membership_pullback_reports_witnesses():
    dalg = Z3_NAT.with_scalars(delta_of(NAT))
    good = element_to_delta(Z3_NAT.element([(Z3_NAT.basis[2], 4)]))
    back, failures = element_from_delta(good, Z3_NAT)
    assert failures == [] and back.coeffs == {2: 4}

    bad = dalg.element([(dalg.basis[4], DeltaElement(1, 3)),
                        (dalg.basis[1], DeltaElement(0, 2))])
    back, failures = element_from_delta(bad, Z3_NAT)
    assert back is None
    # witnesses come back in basis order
    assert [Z3_NAT.index_of(b) for b, _ in failures] == [1, 4]


def test_matrix_membership_pullback():
    mat = MatrixAlgebra(GroupAlgebra(Z3, NAT), 2)
    X = mat.matrix_unit(1, 2)
    lifted = matrix_to_delta(X)
    back, failures = matrix_from_delta(lifted, mat)
    assert failures == [] and back == X

    bad = lifted - matrix_to_delta(mat.matrix_unit(1, 2, mat.entries.element([(0, 2)])))
    back, failures = matrix_from_delta(bad, mat)
    assert back is None
    assert failures[0][0] == (0, 1, 2)  # entry h=e at row 1, col 2
