"""Partial actions, partial representations, and the extension machinery."""

import pytest

import gc
import math
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

from groups_util import build_roster
from pargroupoid.group import indices_of_mask, make_group
from pargroupoid.groupoid import Gamma, GammaElement, VerificationError
from pargroupoid.semialgebra import (
    AlgebraElement,
    BasisMismatchError,
    GammaAlgebra,
    GroupAlgebra,
    MatrixAlgebra,
    MatrixElement,
)
import pargroupoid.partial_rep as partial_rep
from pargroupoid.partial_rep import (
    ExtensionMembershipError,
    _lift,
    _lower,
    _span_checks,
    GammaHom,
    PartialAction,
    PartialActionFormatError,
    PartialRepMap,
    epsilon,
    extend_to_gamma_hom,
    lambda_p,
    partial_action_from_json,
    regular_representation,
    SpanReport,
    span_generation,
    verify_factorization,
    verify_idempotents,
    verify_kpar_relations,
    verify_partial_action,
    verify_partial_rep,
)
from pargroupoid.semiring import (
    BOOL,
    NAT,
    QNN,
    DeltaElement,
    SemiringPropertyError,
    delta_of,
)

Z2 = make_group("cyclic:2")
Z3 = make_group("cyclic:3")


def translation_doc(n: int) -> dict:
    """The group acting on itself by left translation; every domain is full."""
    return {
        "group": f"cyclic:{n}",
        "X": n,
        "domains": {str(g): list(range(n)) for g in range(n)},
        "maps": {str(g): [[x, (g + x) % n] for x in range(n)] for g in range(n)},
    }


# ---------------------------------------------------------------------------
# Ingesting partial actions.

def test_from_json_reads_translation_action():
    pa = partial_action_from_json(translation_doc(3))
    assert pa.set_size == 3
    assert pa.group.order == 3
    assert pa.domains == (frozenset({0, 1, 2}),) * 3
    assert pa.maps[1] == {0: 1, 1: 2, 2: 0}


def test_group_argument_overrides_document():
    doc = translation_doc(2)
    del doc["group"]
    with pytest.raises(PartialActionFormatError):
        partial_action_from_json(doc)
    pa = partial_action_from_json(doc, group=Z2)
    assert pa.group is Z2


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("X"),
    lambda d: d.__setitem__("X", -1),
    lambda d: d.__setitem__("X", True),
    lambda d: d.__setitem__("domains", [[0, 1]]),
    lambda d: d["domains"].pop("1"),
    lambda d: d["maps"].pop("0"),
    lambda d: d["domains"].__setitem__("0", [0, 0]),
    lambda d: d["domains"].__setitem__("1", [0, 5]),
    lambda d: d["maps"].__setitem__("1", [[0, 1, 2]]),
    lambda d: d["maps"].__setitem__("1", [[0, 1], [0, 0]]),
    lambda d: d["maps"].__setitem__("1", [["a", 1], [1, 0]]),
    lambda d: d.__setitem__("group", 7),
    # a key that names no element
    lambda d: d["domains"].__setitem__("7", []),
    lambda d: d["maps"].__setitem__("01", []),
    lambda d: d["domains"].__setitem__("x", [5]),
])
def test_from_json_rejects_malformed_documents(mangle):
    doc = translation_doc(2)
    mangle(doc)
    with pytest.raises(PartialActionFormatError):
        partial_action_from_json(doc)


def test_from_json_rejects_map_off_its_domain():
    # alpha_a must be defined exactly on D_(a^-1); here D_a = {1} but the map
    # is given on {0}
    doc = {
        "group": "cyclic:2",
        "X": 2,
        "domains": {"0": [0, 1], "1": [1]},
        "maps": {"0": [[0, 0], [1, 1]], "1": [[0, 1]]},
    }
    with pytest.raises(PartialActionFormatError, match="defined on"):
        partial_action_from_json(doc)


def test_from_json_rejects_non_bijective_map():
    doc = translation_doc(2)
    doc["maps"]["1"] = [[0, 1], [1, 1]]
    with pytest.raises(PartialActionFormatError, match="bijection"):
        partial_action_from_json(doc)


# ---------------------------------------------------------------------------
# Verifying the axioms.

def test_global_action_satisfies_both_systems():
    report = verify_partial_action(partial_action_from_json(translation_doc(4)))
    assert report.passed
    assert report.failures == ()
    agree = report.check("formulations_agree")
    assert agree.passed and "overlap system: pass" in agree.note


def test_restriction_of_translation_is_a_partial_action():
    # Z4 translating itself, cut down to the window {0, 1}: the domains
    # shrink but every axiom survives the restriction
    doc = {
        "group": "cyclic:4",
        "X": 2,
        "domains": {"0": [0, 1], "1": [1], "2": [], "3": [0]},
        "maps": {"0": [[0, 0], [1, 1]], "1": [[0, 1]], "2": [], "3": [[1, 0]]},
    }
    report = verify_partial_action(partial_action_from_json(doc))
    assert report.passed
    assert {c.name for c in report.checks} == {
        "identity_domain", "identity_map", "domain_compatibility", "composition",
        "pa_identity", "pa_inverse", "pa_extension", "formulations_agree"}


def _random_partial_action(G, rng: random.Random) -> PartialAction:
    """A partial action of valid shape whose axioms hold or fail at random.

    D_g and D_(g^-1) are random subsets of one size and alpha_g a random
    bijection between them. Most of the time the identity acts trivially on
    the whole set, and half the time alpha_(g^-1) inverts alpha_g.
    """
    size = rng.randrange(5)
    domains: list = [None] * G.order
    maps: list = [None] * G.order
    for g in G.elements():
        gi = G.inverse(g)
        if domains[g] is not None:
            continue
        k = size if g == 0 and rng.random() < 0.7 else rng.randrange(size + 1)
        domains[g] = frozenset(rng.sample(range(size), k))
        domains[gi] = domains[g] if gi == g else frozenset(rng.sample(range(size), k))
        for a, b in ((g, gi), (gi, g))[:1 if gi == g else 2]:
            images = sorted(domains[a])
            rng.shuffle(images)
            maps[a] = dict(zip(sorted(domains[b]), images))
        if g == 0 and rng.random() < 0.6:
            maps[0] = {x: x for x in domains[0]}
        elif gi != g and rng.random() < 0.5:
            maps[gi] = {y: x for x, y in maps[g].items()}
    return PartialAction(G, size, tuple(domains), tuple(maps))


def _action_search_oracle(pa: PartialAction) -> dict:
    """The first witnesses of the four searches of verify_partial_action, as
    the nested loops with break flags found them before each became one
    generator."""
    G, D, A, inv = pa.group, pa.domains, pa.maps, pa.group.inverse
    overlap_w = None
    for g in G.elements():
        for h in G.elements():
            lhs = {A[g][x] for x in D[inv(g)] & D[h]}
            rhs = D[g] & D[G.mul(g, h)]
            if lhs != rhs:
                overlap_w = (G.label(g), G.label(h))
                break
        if overlap_w:
            break
    comp_w = None
    for g in G.elements():
        for h in G.elements():
            gh = G.mul(g, h)
            for x in sorted(D[inv(h)] & D[inv(gh)]):
                y = A[h][x]
                if y not in D[inv(g)] or A[g][y] != A[gh][x]:
                    comp_w = (G.label(g), G.label(h), x)
                    break
            if comp_w:
                break
        if comp_w:
            break
    inv_w = None
    for g in G.elements():
        for x in sorted(D[inv(g)]):
            if A[inv(g)].get(A[g][x]) != x:
                inv_w = (G.label(g), x)
                break
        if inv_w:
            break
    ext_w = None
    for g in G.elements():
        for h in G.elements():
            gh = G.mul(g, h)
            for x in sorted(D[inv(h)]):
                y = A[h][x]
                if y not in D[inv(g)]:
                    continue
                if x not in D[inv(gh)] or A[gh][x] != A[g][y]:
                    ext_w = (G.label(g), G.label(h), x)
                    break
            if ext_w:
                break
        if ext_w:
            break
    return {"domain_compatibility": overlap_w, "composition": comp_w,
            "pa_inverse": inv_w, "pa_extension": ext_w}


def test_action_searches_match_the_loop_oracle():
    rng = random.Random(2023)
    failed = set()
    for spec in ("cyclic:2", "cyclic:3", "cyclic:4", "klein4", "sym:3"):
        G = make_group(spec)
        for _ in range(200):
            pa = _random_partial_action(G, rng)
            report = verify_partial_action(pa)
            expected = _action_search_oracle(pa)
            assert {name: report.check(name).witness for name in expected} == expected
            failed.update(c.name for c in report.failures)
    # the draws reach a failure of every check that can fail
    assert failed == {c.name for c in report.checks} - {"formulations_agree"}


def test_shrunken_identity_domain_is_reported():
    doc = {
        "group": "cyclic:2",
        "X": 2,
        "domains": {"0": [0], "1": [0]},
        "maps": {"0": [[0, 0]], "1": [[0, 0]]},
    }
    report = verify_partial_action(partial_action_from_json(doc))
    assert not report.passed
    bad = report.check("identity_domain")
    assert not bad.passed and bad.witness == (1,)
    assert report.failures[0].name == "identity_domain"


def test_action_check_holds_no_list_of_cases():
    # each search makes its (g, h, gh) cases afresh; a list of all n^2 of
    # them peaked at about 4.6 MB on this group
    G = make_group("cyclic:256")
    pa = PartialAction(G, 0, (frozenset(),) * G.order, ({},) * G.order)
    gc.collect()
    tracemalloc.start()
    try:
        report = verify_partial_action(pa)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 500_000, peak


def test_broken_composition_is_caught_by_both_systems():
    doc = translation_doc(3)
    doc["maps"]["2"] = [[x, (x + 1) % 3] for x in range(3)]  # acts like 1
    report = verify_partial_action(partial_action_from_json(doc))
    assert not report.passed
    assert not report.check("composition").passed
    assert not report.check("pa_inverse").passed
    assert report.check("formulations_agree").passed  # both systems fail


# ---------------------------------------------------------------------------
# The canonical partial representation.

def test_lambda_p_images_for_order_two():
    alg = GammaAlgebra(Gamma(Z2), QNN)
    lam = lambda_p(alg)
    assert lam.image(0) == alg.one()
    assert lam.image(1) == alg.basis_element(GammaElement(0b11, 1))


def test_lambda_p_satisfies_relations():
    for spec in ("cyclic:2", "cyclic:4", "klein4", "sym:3"):
        alg = GammaAlgebra(Gamma(make_group(spec)), QNN)
        report = verify_partial_rep(lambda_p(alg))
        assert report.passed, (spec, report.failures)


def test_scaled_image_breaks_the_relations():
    galg = GroupAlgebra(Z2, QNN)
    pi = PartialRepMap(Z2, galg, [galg.one(), galg.basis_element(1).scale(2)])
    report = verify_partial_rep(pi)
    assert not report.passed
    assert report.check("unit").passed
    assert not report.check("right_relation").passed
    assert report.check("right_relation").witness is not None


def test_image_count_must_match_group_order():
    galg = GroupAlgebra(Z2, QNN)
    with pytest.raises(ValueError):
        PartialRepMap(Z2, galg, [galg.one()])


def test_epsilon_idempotents():
    alg = GammaAlgebra(Gamma(Z2), QNN)
    lam = lambda_p(alg)
    assert epsilon(lam, 0) == alg.one()
    # lambda(a) lambda(a) is the unit arrow at the full subset
    assert epsilon(lam, 1) == alg.basis_element(GammaElement(0b11, 0))

    report = verify_idempotents(
        lambda_p(GammaAlgebra(Gamma(make_group("sym:3")), QNN)))
    assert report.passed, report.failures


# ---------------------------------------------------------------------------
# Extension to the groupoid semialgebra.

@pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:3", "klein4"])
def test_extension_of_canonical_rep_is_identity(spec):
    alg = GammaAlgebra(Gamma(make_group(spec)), QNN)
    ext = extend_to_gamma_hom(lambda_p(alg))
    assert ext.domain is alg and ext.target is alg
    for el in alg.basis:
        assert ext.image_of(el) == alg.basis_element(el)


def test_extension_requires_unital_identity_image():
    galg = GroupAlgebra(Z2, QNN)
    pi = PartialRepMap(Z2, galg, [galg.one().scale(2), galg.basis_element(1)])
    with pytest.raises(ValueError, match="identity must map to 1"):
        extend_to_gamma_hom(pi)


def test_extension_membership_failure_is_reported():
    galg = GroupAlgebra(Z2, NAT)
    pi = PartialRepMap(Z2, galg, [galg.one(), galg.basis_element(1, coeff=2)])
    # epsilon(a) = 4e, so the image of ({e}, e) wants 1 - 4e
    with pytest.raises(ExtensionMembershipError) as exc:
        extend_to_gamma_hom(pi)
    err = exc.value
    assert err.element == GammaElement(0b1, 0)
    assert err.witnesses == [(0, DeltaElement(1, 4))]
    assert "difference pair" in str(err)


def test_extension_membership_failure_over_nonnegative_rationals():
    galg = GroupAlgebra(Z2, QNN)
    pi = PartialRepMap(Z2, galg, [galg.one(), galg.basis_element(1).scale(2)])
    with pytest.raises(ExtensionMembershipError):
        extend_to_gamma_hom(pi)


def _idempotent_rep(scalars):
    # pi(e) = 1 and pi(a) = E11 + E12 on cyclic:2, in M_2 built as
    # regular_representation builds its target. pi(a) is idempotent, so
    # every relation holds, but the bracket P({e}) = 1 - pi(a) has -1 at (1, 2).
    entries = GroupAlgebra(make_group("cyclic:1"), scalars)
    target = MatrixAlgebra(entries, 2)
    unit = entries.basis_element(0)
    return PartialRepMap(Z2, target, [target.one(),
                                      MatrixElement(target, {(1, 1): unit, (1, 2): unit})])


def test_a_failed_pullback_is_a_verification_error():
    # a counterexample to membership, which the command line reports with
    # exit 1 when no suite catches it first, not as an internal error
    assert issubclass(ExtensionMembershipError, VerificationError)
    with pytest.raises(VerificationError) as exc:
        extend_to_gamma_hom(_idempotent_rep(QNN))
    assert type(exc.value) is ExtensionMembershipError
    assert exc.value.witnesses == [((0, 1, 2), DeltaElement(pos=0, neg=1))]


@pytest.mark.parametrize("scalars", [QNN, NAT], ids=["qnn", "nat"])
def test_partial_representation_whose_extension_leaves_the_target(scalars):
    # the extension exists into the ring of differences and is unique, but
    # lies in the target only when every bracket pulls back; this one does not
    pi = _idempotent_rep(scalars)
    assert verify_partial_rep(pi).passed
    with pytest.raises(ExtensionMembershipError) as exc:
        extend_to_gamma_hom(pi)
    err = exc.value
    assert err.element == GammaElement(mask=1, g=0)
    assert err.witnesses == [((0, 1, 2), DeltaElement(pos=0, neg=1))]


def test_idempotent_rep_over_booleans_has_no_ring_of_differences():
    pi = _idempotent_rep(BOOL)
    assert verify_partial_rep(pi).passed
    with pytest.raises(SemiringPropertyError, match="additive cancellation"):
        extend_to_gamma_hom(pi)


def _extend_oracle(pi, domain, complement_idempotents=True):
    # the per-element extension, wholly in the ring of differences: every
    # image lifts pi(g), multiplies its own factors in element order, stopping
    # once the running product is zero, and is pulled back on its own.
    # complement_idempotents=False ranges the second product over s in I
    # instead, the reading that collapses to zero.
    S = pi.algebra.scalars
    one_d = pi.algebra.with_scalars(delta_of(S)).one()
    im_d = [_lift(x) for x in pi.images]
    eps_d = [_lift(epsilon(pi, r)) for r in pi.group.elements()]
    comp_d = [one_d - x for x in eps_d]
    n = pi.group.order
    images = []
    for el in domain.gamma.elements:
        acc = im_d[el.g]
        inside = indices_of_mask(el.mask)
        for r in inside:
            acc = acc * eps_d[r]
            if acc.is_zero:
                break
        if not acc.is_zero:
            if complement_idempotents:
                rest = (s for s in range(n) if not el.mask >> s & 1)
            else:
                rest = iter(inside)
            for s in rest:
                acc = acc * comp_d[s]
                if acc.is_zero:
                    break
        lowered, failures = _lower(acc, pi.algebra)
        if failures:
            raise ExtensionMembershipError(el, failures, repr(pi.algebra))
        images.append(lowered)
    return images


def _assert_matches_oracle(pi):
    ext = extend_to_gamma_hom(pi)
    assert list(ext.images) == _extend_oracle(pi, ext.domain)


def test_uncomplemented_idempotent_reading_collapses():
    # multiplying by 1 - epsilon(r) for r inside the subset hits the factor
    # 1 - epsilon(e) = 0, so every image vanishes; kept on the oracle as a
    # demonstration that the complement is load-bearing
    for G in (Z2, make_group("sym:3")):
        alg = GammaAlgebra(Gamma(G), QNN)
        images = _extend_oracle(lambda_p(alg), alg, complement_idempotents=False)
        assert len(images) == alg.size
        assert all(img.is_zero for img in images)


@pytest.mark.parametrize("name", [name for name, _ in build_roster()])
def test_extension_matches_oracle_on_all_classes(algebra_of, name):
    # over NAT the oracle's 4,616 products at order 8 stay cheap; c05 checks
    # the QNN extension against the identity
    _assert_matches_oracle(lambda_p(algebra_of(name, NAT)))


def test_extension_matches_oracle_on_regular_representations():
    for G in (Z2, Z3):
        _assert_matches_oracle(regular_representation(G, QNN))


def _outcome(extend):
    try:
        return "ok", extend()
    except ExtensionMembershipError as err:
        return "error", (err.element, err.witnesses, str(err))


@pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:3", "klein4", "sym:3"])
@pytest.mark.parametrize("scalars", [NAT, QNN, delta_of(NAT)],
                         ids=["nat", "qnn", "nat-delta"])
def test_extension_of_non_representations_matches_oracle(spec, scalars):
    # Random images are almost never partial representations. Over NAT and
    # QNN the extension then leaves the target, and both must name the same
    # first element with the same unreduced witness pairs. Over a ring of
    # differences every value lands, so the images are compared instead; in
    # the noncommutative group algebra of S3 that pins the factor order.
    G = make_group(spec)
    galg = GroupAlgebra(G, scalars)
    domain = GammaAlgebra(Gamma(G), scalars)
    errors = 0
    for seed in range(15):
        rng = random.Random(seed)
        images = [galg.one()] + [galg.random_element(rng, terms=rng.randint(1, 3))
                                 for _ in range(G.order - 1)]
        pi = PartialRepMap(G, galg, images)
        got = _outcome(lambda: list(extend_to_gamma_hom(pi, domain).images))
        want = _outcome(lambda: _extend_oracle(pi, domain))
        assert got == want
        errors += got[0] == "error"
    assert errors == 0 if scalars.is_delta else errors > 0


def test_extension_shares_products_per_mask(monkeypatch):
    # |Gamma| products for pi(g) P(I), fewer than 3 * 2^(n-1) for the brackets
    # P(I) and their prefixes, n for the idempotents; multiplying each image
    # out on its own took 4,616 for this group
    alg = GammaAlgebra(Gamma(make_group("dihedral:4")), QNN)
    lam = lambda_p(alg)
    calls = 0
    original = AlgebraElement.__mul__

    def counted(x, y):
        nonlocal calls
        calls += 1
        return original(x, y)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    extend_to_gamma_hom(lam)
    n = lam.group.order
    bound = alg.size + 3 * 2 ** (n - 1) + n
    assert bound == 576 + 384 + 8
    assert calls <= bound, calls


def test_extension_memory_stays_near_the_returned_map():
    # the walk keeps one bracket per mask and O(n) prefixes, so the traced
    # peak stays within twice what the returned map holds; a cache of every
    # prefix product would reach about five times it
    lam = lambda_p(GammaAlgebra(Gamma(make_group("cyclic:10")), NAT))
    gc.collect()
    tracemalloc.start()
    try:
        ext = extend_to_gamma_hom(lam)
        held, peak = tracemalloc.get_traced_memory()
        del ext
        gc.collect()
        rest, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (held - rest), (peak, held - rest)


@pytest.mark.parametrize("spec, scalars", [("klein4", QNN), ("cyclic:3", QNN), (None, NAT)],
                         ids=["same-order", "smaller", "other-scalars"])
def test_extension_rejects_a_foreign_domain(spec, scalars):
    # another group of the same order, a smaller group, and other scalars
    lam = lambda_p(GammaAlgebra(Gamma(make_group("cyclic:4")), QNN))
    group = lam.group if spec is None else make_group(spec)
    with pytest.raises(BasisMismatchError):
        extend_to_gamma_hom(lam, GammaAlgebra(Gamma(group), scalars))


def _left_fold_apply(hom, x):
    # the running sum, one term at a time in ascending basis order
    acc = hom.target.zero()
    for i in sorted(x.coeffs):
        acc = acc + hom.images[i].scale(x.coeffs[i])
    return acc


@pytest.mark.parametrize("make", [
    lambda: lambda_p(GammaAlgebra(Gamma(make_group("sym:3")), QNN)),
    lambda: lambda_p(GammaAlgebra(Gamma(make_group("sym:3")), delta_of(QNN))),
    lambda: regular_representation(Z3, QNN),
], ids=["qnn", "qnn-delta", "regular-z3"])
def test_apply_matches_left_fold(make):
    ext = extend_to_gamma_hom(make())
    dom = ext.domain
    rng = random.Random(5)
    for x in [dom.zero(), dom.one()] + [dom.random_element(rng) for _ in range(20)]:
        assert ext.apply(x) == _left_fold_apply(ext, x)


def test_apply_copies_each_term_logarithmically(monkeypatch):
    # summing in pairs copies each term once per level; a running sum would
    # copy itself once per term, 8,256 entries for the 128 units of cyclic:8
    alg = GammaAlgebra(Gamma(make_group("cyclic:8")), QNN)
    ext = extend_to_gamma_hom(lambda_p(alg))
    entries = 0
    original = AlgebraElement.__add__

    def counted(x, y):
        nonlocal entries
        entries += len(x.coeffs) + len(y.coeffs)
        return original(x, y)

    monkeypatch.setattr(AlgebraElement, "__add__", counted)
    everything = AlgebraElement(alg, {i: QNN.one for i in range(alg.size)})
    for x in (alg.one(), everything):
        n = len(x.coeffs)
        entries = 0
        assert ext.apply(x) == x
        assert entries <= n * math.ceil(math.log2(n)) + n, (n, entries)


def test_regular_representation_matrices():
    reg = regular_representation(Z3, QNN)
    assert verify_partial_rep(reg).passed
    for g in Z3.elements():
        M = reg.image(g)
        for r in range(3):
            for c in range(3):
                expected = Z3.mul(g, c) == r
                assert M.entry(r + 1, c + 1).is_zero != expected


def test_regular_representation_extends_and_factors():
    for G in (Z2, Z3):
        reg = regular_representation(G, QNN)
        ext = extend_to_gamma_hom(reg)
        report = verify_factorization(reg, ext)
        assert report.passed, report.failures
        span = report.check("uniqueness_span")
        assert span.passed and span.witness is None
        assert span.note.startswith(f"rank {ext.domain.size} of {ext.domain.size} ")


def test_mutated_extension_fails_multiplicativity():
    alg = GammaAlgebra(Gamma(Z3), QNN)
    ext = extend_to_gamma_hom(lambda_p(alg))
    victim = next(el for el in alg.basis if el.g != 0)
    broken = ext.with_image(victim, alg.zero())
    report = broken.multiplicative_report()
    assert not report.passed
    assert not verify_factorization(lambda_p(alg), broken).passed


def test_factorization_target_mismatch_is_rejected():
    alg = GammaAlgebra(Gamma(Z3), QNN)
    other = GammaAlgebra(Gamma(Z2), QNN)
    ext = extend_to_gamma_hom(lambda_p(alg))
    with pytest.raises(BasisMismatchError):
        verify_factorization(lambda_p(other), ext)


def test_apply_rejects_foreign_elements():
    alg = GammaAlgebra(Gamma(Z3), QNN)
    ext = extend_to_gamma_hom(lambda_p(alg))
    other = GammaAlgebra(Gamma(Z2), QNN)
    with pytest.raises(BasisMismatchError):
        ext.apply(other.one())


# ---------------------------------------------------------------------------
# Span generation and the packaged relation check.

def test_canonical_images_span_small_algebras():
    for spec in ("cyclic:2", "cyclic:4", "sym:3"):
        alg = GammaAlgebra(Gamma(make_group(spec)), QNN)
        sr = span_generation(alg)
        assert sr.complete and sr.rank == alg.size


def test_kpar_relations_bundle():
    report = verify_kpar_relations(GammaAlgebra(Gamma(Z3), QNN))
    assert report.passed
    assert report.check("span_generation").passed

    # no span check past order 6
    names = {c.name for c in verify_kpar_relations(
        GammaAlgebra(Gamma(make_group("dihedral:4")), QNN)).checks}
    assert "span_generation" not in names
    assert {"unit", "right_relation", "left_relation", "sandwich"} <= names


def _rank_exact_oracle(rows):
    """Fraction elimination as it was written before the span was certified
    by its leads."""
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        base = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / base[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], base)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _oracle_span_rank(gens, size):
    """Close gens under left products keyed on their supports, as the span
    check did before its certificate, and eliminate the 0/1 rows exactly,
    in the order the closure reached them."""
    supports, queue = [], []

    def admit(el):
        key = frozenset(el.coeffs)
        if key and key not in supports:
            supports.append(key)
            queue.append(el)

    for el in gens:
        admit(el)
    for cur in queue:
        for gen in gens:
            admit(gen * cur)
    return _rank_exact_oracle([[Fraction(int(i in sup)) for i in range(size)]
                               for sup in supports])


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:2", "cyclic:3", "klein4",
                                  "cyclic:4", "cyclic:5", "sym:3", "cyclic:6"])
def test_span_rank_matches_the_exact_elimination(spec):
    alg = GammaAlgebra(Gamma(make_group(spec)), QNN)
    sr = span_generation(alg)
    assert sr.rank == _oracle_span_rank(lambda_p(alg).images, alg.size) == alg.size
    assert sr.complete


def test_a_span_without_one_generator_is_short_by_the_exact_rank(monkeypatch):
    alg = GammaAlgebra(Gamma(make_group("cyclic:4")), QNN)
    lam = lambda_p(alg)
    fewer = lam.images[:1] + lam.images[2:]
    oracle = _oracle_span_rank(fewer, alg.size)
    assert 0 < oracle < alg.size
    monkeypatch.setattr(partial_rep, "lambda_p",
                        lambda algebra: SimpleNamespace(images=fewer))
    sr = span_generation(alg)
    assert not sr.complete and sr.rank == oracle
    (check,) = _span_checks("span_generation", alg)
    assert not check.passed
    assert check.witness == (oracle, alg.size)


def test_a_product_missing_one_term_fails_the_certificate(monkeypatch):
    multiply = AlgebraElement.__mul__
    calls = []

    def drop_last_term_of_first(self, other):
        product = multiply(self, other)
        calls.append(len(product.coeffs))
        if len(calls) == 1:
            product = AlgebraElement(product.algebra, dict(
                sorted(product.coeffs.items())[:-1]))
        return product

    monkeypatch.setattr(AlgebraElement, "__mul__", drop_last_term_of_first)
    alg = GammaAlgebra(Gamma(make_group("sym:3")), QNN)
    with pytest.raises(VerificationError,
                       match=r"with lead \(\{012\},012\) is not its superset sum"):
        span_generation(alg)
    assert calls[0] > 1


def test_a_short_span_fails_with_its_rank(monkeypatch):
    monkeypatch.setattr(partial_rep, "span_generation", lambda algebra: SpanReport(
        gamma_size=12, rank=11, complete=False, products=99))
    (check,) = _span_checks("uniqueness_span", GammaAlgebra(Gamma(Z3), QNN))
    assert not check.passed
    assert check.witness == (11, 12)
    assert check.note == "rank 11 of 12 via unitriangular leads"
