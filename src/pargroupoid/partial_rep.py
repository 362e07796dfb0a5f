"""Partial actions and partial representations of finite groups.

A partial representation sends group elements into a unital semialgebra so
that the defining relations hold:

    pi(e) = 1
    pi(g) pi(h) pi(h^-1) = pi(gh) pi(h^-1)
    pi(g^-1) pi(g) pi(h) = pi(g^-1) pi(gh)

The canonical example lambda_p lands in the groupoid semialgebra and sends g
to the sum of all pairs (I, g). A partial representation into an algebra A
over cancellative scalars extends uniquely to a unital homomorphism from the
whole groupoid semialgebra into A^D, the same algebra over the ring of
differences of the scalars. The extension lies in A exactly when every
bracket P(I) pulls back from A^D to A, and that is the restriction checked
here: the products that need negation are formed in the ring of differences,
and a bracket that does not pull back raises ExtensionMembershipError, even
for a genuine partial representation. The factorization (unitality,
multiplicativity, compatibility with lambda_p, uniqueness via span
generation) is verified rather than assumed.

Partial actions on finite sets are the set-level shadow of the same idea and
are verified against two equivalent axiom systems. Every verifier returns an
AxiomReport (from semiring) whose failing checks carry the first
counterexample in a fixed search order.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product
from random import Random
from typing import Any, NamedTuple

from .group import (
    DEFAULT_SEED,
    FiniteGroup,
    PartialActionFormatError,
    from_table,
    make_group,
)
from .groupoid import Gamma, GammaElement, VerificationError
from .semialgebra import (
    AlgebraElement,
    BasisMismatchError,
    GammaAlgebra,
    GroupAlgebra,
    MatrixAlgebra,
    MatrixElement,
    element_from_delta,
    element_to_delta,
    matrix_from_delta,
    matrix_to_delta,
)
from .semiring import AxiomCheck, AxiomReport, SemiringSpec, delta_of

# The homomorphism check is exhaustive up to _PAIR_BUDGET basis pairs and
# draws _SAMPLED_PAIRS seeded pairs above it; the span test that pins
# uniqueness of the factorization runs up to order _SPAN_LIMIT.
_PAIR_BUDGET = 2500
_SAMPLED_PAIRS = 300
_SPAN_LIMIT = 6


# ---------------------------------------------------------------------------
# Partial actions on finite sets.

class PartialAction:
    """Per-element domains D_g with bijections alpha_g: D_{g^-1} -> D_g.

    domains[g] is the subset of {0..set_size-1} named D_g; maps[g] is the
    mapping alpha_g as a dict keyed by points of D_{g^-1}. Whether the axioms
    hold is a separate question answered by verify_partial_action; this type
    only pins the shape.
    """

    def __init__(self, group: FiniteGroup, set_size: int,
                 domains: tuple[frozenset[int], ...], maps: tuple[dict[int, int], ...]):
        self.group = group
        self.set_size = set_size
        self.domains = domains
        self.maps = maps


def _structural_check(pa: PartialAction) -> None:
    G = pa.group
    n = G.order
    if pa.set_size < 0:
        raise PartialActionFormatError(f"ground set size must be >= 0, got {pa.set_size}")
    if len(pa.domains) != n or len(pa.maps) != n:
        raise PartialActionFormatError(
            f"need one domain and one map per group element; got "
            f"{len(pa.domains)} domains and {len(pa.maps)} maps for order {n}")
    for g in range(n):
        bad = [x for x in pa.domains[g] if not 0 <= x < pa.set_size]
        if bad:
            raise PartialActionFormatError(
                f"domain of {G.label(g)} contains {bad[0]}, outside the ground set "
                f"of size {pa.set_size}")
    for g in range(n):
        source = pa.domains[G.inverse(g)]
        target = pa.domains[g]
        mp = pa.maps[g]
        if set(mp) != source:
            raise PartialActionFormatError(
                f"map of {G.label(g)} is defined on {sorted(mp)} but its domain "
                f"D_({G.label(G.inverse(g))}) is {sorted(source)}")
        values = list(mp.values())
        if len(set(values)) != len(values) or set(values) != target:
            raise PartialActionFormatError(
                f"map of {G.label(g)} is not a bijection onto its declared "
                f"domain D_({G.label(g)}) = {sorted(target)}; images are {sorted(values)}")


def partial_action_from_json(doc: dict, group: FiniteGroup | None = None) -> PartialAction:
    """Ingest `{"X": n, "domains": {...}, "maps": {...}}`, validating shape.

    The group comes from the `group` argument when given, else from an
    optional "group" key in the document (a spec string such as "cyclic:2" or
    an inline Cayley-table object). Domains and maps are keyed by the decimal
    element index; every element must be present, and any other key is
    refused.
    """
    if not isinstance(doc, dict):
        raise PartialActionFormatError(f"expected an object, got {type(doc).__name__}")
    if group is None:
        inline = doc.get("group")
        if inline is None:
            raise PartialActionFormatError(
                'no group given: pass one explicitly or add a "group" key')
        if isinstance(inline, str):
            group = make_group(inline)
        elif isinstance(inline, dict):
            group = from_table(inline)
        else:
            raise PartialActionFormatError(
                f'"group" must be a spec string or a table object, '
                f"got {type(inline).__name__}")
    size = doc.get("X")
    if not isinstance(size, int) or isinstance(size, bool) or size < 0:
        raise PartialActionFormatError(f'"X" must be a non-negative integer, got {size!r}')
    raw_domains = doc.get("domains")
    raw_maps = doc.get("maps")
    if not isinstance(raw_domains, dict) or not isinstance(raw_maps, dict):
        raise PartialActionFormatError('"domains" and "maps" must both be objects')

    domains: list[frozenset[int]] = []
    maps: list[dict[int, int]] = []
    for g in range(group.order):
        key = str(g)
        if key not in raw_domains:
            raise PartialActionFormatError(
                f"missing domain for element {key} ({group.label(g)})")
        if key not in raw_maps:
            raise PartialActionFormatError(
                f"missing map for element {key} ({group.label(g)})")
        points = raw_domains[key]
        if (not isinstance(points, list)
                or any(not isinstance(x, int) or isinstance(x, bool) for x in points)):
            raise PartialActionFormatError(
                f"domain of element {key} must be a list of integers")
        if len(set(points)) != len(points):
            raise PartialActionFormatError(f"domain of element {key} has duplicates")
        pairs = raw_maps[key]
        if (not isinstance(pairs, list)
                or any(not isinstance(p, list) or len(p) != 2 for p in pairs)):
            raise PartialActionFormatError(
                f"map of element {key} must be a list of [from, to] pairs")
        mp: dict[int, int] = {}
        for src, dst in pairs:
            # bool is a subclass of int, but JSON true/false are not points
            if any(not isinstance(p, int) or isinstance(p, bool) for p in (src, dst)):
                raise PartialActionFormatError(
                    f"map of element {key} has a non-integer pair [{src!r}, {dst!r}]")
            if src in mp:
                raise PartialActionFormatError(
                    f"map of element {key} sends {src} to two different points")
            mp[src] = dst
        domains.append(frozenset(points))
        maps.append(mp)
    # every key "0".."n-1" is present, so a longer object holds a stray key
    for field, raw in (("domains", raw_domains), ("maps", raw_maps)):
        if len(raw) > group.order:
            names = {str(g) for g in range(group.order)}
            stray = next(key for key in raw if key not in names)
            raise PartialActionFormatError(
                f'"{field}" key {stray!r} names no element; element keys run '
                f"from 0 to {group.order - 1}")

    pa = PartialAction(group, size, tuple(domains), tuple(maps))
    _structural_check(pa)
    return pa


def verify_partial_action(pa: PartialAction) -> AxiomReport:
    """Check both axiom systems for a partial action, exhaustively.

    The first system is: the identity acts everywhere as the identity; the
    translated overlap of two domains matches the overlap law
    alpha_g(D_{g^-1} & D_h) = D_g & D_{gh}; and compositions agree wherever
    both sides are defined. The second replaces the overlap law by inverse
    compatibility and an extension property of composites. Both verdicts are
    reported along with whether they agree.
    """
    _structural_check(pa)
    G = pa.group
    D = pa.domains
    A = pa.maps
    inv = G.inverse
    checks: list[AxiomCheck] = []

    # D_e lies inside the ground set, so it is all of it exactly when the
    # sizes agree, and the least point it misses is at most |D_e|
    dom_ok = len(D[0]) == pa.set_size
    dom_w = None if dom_ok else (next(x for x in range(len(D[0]) + 1) if x not in D[0]),)
    checks.append(AxiomCheck("identity_domain", dom_ok, dom_w))

    id_w = next(((x,) for x in sorted(D[0]) if A[0].get(x) != x), None)
    checks.append(AxiomCheck("identity_map", id_w is None, id_w))

    def products():
        # every (g, h) with its product gh, g outermost, as the witnesses are
        # sought; made afresh for each search, so the n^2 cases are never held
        return ((g, h, gh) for g, row in enumerate(G.cayley) for h, gh in enumerate(row))

    overlap_w = next(((G.label(g), G.label(h)) for g, h, gh in products()
                      if {A[g][x] for x in D[inv(g)] & D[h]} != D[g] & D[gh]), None)
    checks.append(AxiomCheck("domain_compatibility", overlap_w is None, overlap_w))

    comp_w = next(((G.label(g), G.label(h), x) for g, h, gh in products()
                   for x in sorted(D[inv(h)] & D[inv(gh)])
                   if A[h][x] not in D[inv(g)] or A[g][A[h][x]] != A[gh][x]), None)
    checks.append(AxiomCheck("composition", comp_w is None, comp_w))

    pa1_ok = dom_ok and id_w is None
    checks.append(AxiomCheck("pa_identity", pa1_ok, dom_w or id_w))

    inv_w = next(((G.label(g), x) for g in G.elements() for x in sorted(D[inv(g)])
                  if A[inv(g)].get(A[g][x]) != x), None)
    checks.append(AxiomCheck("pa_inverse", inv_w is None, inv_w))

    ext_w = next(((G.label(g), G.label(h), x) for g, h, gh in products()
                  for x in sorted(D[inv(h)])
                  if A[h][x] in D[inv(g)]
                  and (x not in D[inv(gh)] or A[gh][x] != A[g][A[h][x]])), None)
    checks.append(AxiomCheck("pa_extension", ext_w is None, ext_w))

    first = overlap_w is None and comp_w is None and pa1_ok
    second = pa1_ok and inv_w is None and ext_w is None
    checks.append(AxiomCheck(
        "formulations_agree", first == second, None,
        note=f"overlap system: {'pass' if first else 'fail'}, "
             f"inverse system: {'pass' if second else 'fail'}"))

    return AxiomReport(subject=f"partial action of {G.name} on {pa.set_size} points",
                       checks=tuple(checks))


# ---------------------------------------------------------------------------
# Partial representations.

class PartialRepMap:
    """A map from group elements into a unital algebra, one image per element.

    Whether the partial-representation relations hold is decided by
    verify_partial_rep; extend_to_gamma_hom additionally insists on a unital
    image for the identity.
    """

    __slots__ = ("group", "algebra", "images")

    def __init__(self, group: FiniteGroup, algebra, images):
        images = tuple(images)
        if len(images) != group.order:
            raise ValueError(
                f"need {group.order} images for {group.name}, got {len(images)}")
        self.group = group
        self.algebra = algebra
        self.images = images

    def image(self, g: int):
        return self.images[g]

    def __repr__(self) -> str:
        return f"PartialRepMap({self.group.name} -> {self.algebra!r})"


def verify_partial_rep(pi: PartialRepMap) -> AxiomReport:
    """Check the defining relations on all (g, h) pairs, plus the sandwich
    identity pi(g) pi(g^-1) pi(g) = pi(g) they imply."""
    G = pi.group
    im = pi.images
    inv = G.inverse
    one = pi.algebra.one()

    cache: dict[tuple[int, int], Any] = {}

    def prod(a: int, b: int):
        key = (a, b)
        if key not in cache:
            cache[key] = im[a] * im[b]
        return cache[key]

    def first_pair(pred) -> tuple | None:
        return next(((G.label(g), G.label(h))
                     for g, h in product(G.elements(), repeat=2) if not pred(g, h)), None)

    checks = [AxiomCheck("unit", im[0] == one, None if im[0] == one else (G.label(0),))]
    right_w = first_pair(
        lambda g, h: prod(g, h) * im[inv(h)] == prod(G.mul(g, h), inv(h)))
    checks.append(AxiomCheck("right_relation", right_w is None, right_w))
    left_w = first_pair(
        lambda g, h: im[inv(g)] * prod(g, h) == prod(inv(g), G.mul(g, h)))
    checks.append(AxiomCheck("left_relation", left_w is None, left_w))
    sandwich_w = next(((G.label(g),) for g in G.elements()
                       if prod(g, inv(g)) * im[g] != im[g]), None)
    checks.append(AxiomCheck("sandwich", sandwich_w is None, sandwich_w))

    return AxiomReport(subject=f"partial representation of {G.name} "
                               f"over {pi.algebra.scalars.name}",
                       checks=tuple(checks))


def lambda_p(algebra: GammaAlgebra) -> PartialRepMap:
    """The canonical partial representation g -> sum over I of (I, g).

    The image of the identity is the sum of all units, which is the identity
    of the semialgebra.
    """
    gamma = algebra.gamma
    one = algebra.scalars.one
    coeffs: list[dict[int, Any]] = [{} for _ in range(gamma.group.order)]
    for i, g in enumerate(gamma.gs):
        coeffs[g][i] = one
    images = tuple(AlgebraElement(algebra, c) for c in coeffs)
    return PartialRepMap(gamma.group, algebra, images)


def epsilon(pi: PartialRepMap, r: int):
    """The idempotent pi(r) pi(r^-1) attached to a group element."""
    return pi.image(r) * pi.image(pi.group.inverse(r))


def verify_idempotents(pi: PartialRepMap) -> AxiomReport:
    """Check the idempotents epsilon(r) of pi: the unit, idempotency and
    pairwise commutation. All three follow from the partial-representation
    relations but are checked directly."""
    G = pi.group
    t = [epsilon(pi, r) for r in G.elements()]
    one = pi.algebra.one()
    checks = [AxiomCheck("epsilon_unit", t[0] == one,
                         None if t[0] == one else (G.label(0),))]
    idem_w = next(((G.label(r),) for r in G.elements() if t[r] * t[r] != t[r]), None)
    checks.append(AxiomCheck("epsilon_idempotent", idem_w is None, idem_w))
    comm_w = next(((G.label(r), G.label(s)) for r, s in combinations(G.elements(), 2)
                   if t[r] * t[s] != t[s] * t[r]), None)
    checks.append(AxiomCheck("epsilon_commuting", comm_w is None, comm_w))
    return AxiomReport(subject=f"idempotent table for {G.name}", checks=tuple(checks))


# ---------------------------------------------------------------------------
# Extension to a homomorphism on the groupoid semialgebra.

class ExtensionMembershipError(VerificationError):
    """A bracket of the extension does not pull back into the target.

    The extension exists uniquely into the target over the ring of
    differences and lies in the target exactly when every bracket pulls back,
    so a genuine partial representation can raise this too: pi(e) = 1 and
    pi(a) = E11 + E12 on cyclic:2 in M_2 over the non-negative rationals
    needs P({e}) = 1 - pi(a), whose (1, 2) entry is -1. A map that is not a
    partial representation can raise it as well. The witnesses are the
    bracket's unreduced difference pairs. Either way the failed pullback is a
    counterexample, not a bug, so it is a VerificationError.
    """

    def __init__(self, element: GammaElement, witnesses: list, target_name: str):
        self.element = element
        self.witnesses = list(witnesses)
        basis, pair = self.witnesses[0]
        super().__init__(
            f"extension value at {element} does not lie in {target_name}: "
            f"{len(self.witnesses)} coefficient(s) have no non-negative form, "
            f"first at {basis!r} with difference pair {pair!r}")


def _lift(x):
    if isinstance(x, MatrixElement):
        return matrix_to_delta(x)
    return element_to_delta(x)


def _lower(x, base):
    if isinstance(x, MatrixElement):
        return matrix_from_delta(x, base)
    return element_from_delta(x, base)


class GammaHom:
    """A linear map out of a groupoid semialgebra, fixed by its basis images."""

    __slots__ = ("domain", "target", "images")

    def __init__(self, domain: GammaAlgebra, target, images):
        images = tuple(images)
        if len(images) != domain.size:
            raise ValueError(f"need {domain.size} basis images, got {len(images)}")
        self.domain = domain
        self.target = target
        self.images = images

    def image_of(self, el: GammaElement):
        return self.images[self.domain.index_of(el)]

    def apply(self, x: AlgebraElement):
        if x.algebra is not self.domain:
            raise BasisMismatchError(f"element lives in {x.algebra!r}, not {self.domain!r}")
        # summed in pairs, level by level, so each term is copied about
        # log2(N) times rather than once per later term
        terms = ([self.images[i].scale(x.coeffs[i]) for i in sorted(x.coeffs)]
                 or [self.target.zero()])
        while len(terms) > 1:
            pairs = [a + b for a, b in zip(terms[::2], terms[1::2])]
            terms = pairs + terms[2 * len(pairs):]
        return terms[0]

    def with_image(self, el: GammaElement, value) -> "GammaHom":
        """A copy with one basis image replaced; used by mutation tests."""
        i = self.domain.index_of(el)
        images = self.images[:i] + (value,) + self.images[i + 1:]
        return GammaHom(self.domain, self.target, images)

    def is_unital(self) -> bool:
        return self.apply(self.domain.one()) == self.target.one()

    def multiplicative_report(self, *, seed: int = DEFAULT_SEED) -> AxiomReport:
        """Check image(x) image(y) = image(xy) on basis pairs, exhaustively
        when the pair count fits the budget and on seeded samples otherwise,
        plus on random linear combinations either way."""
        dom = self.domain
        gamma = dom.gamma
        zero = self.target.zero()

        def basis_ok(i: int, j: int) -> bool:
            p = gamma.product(dom.basis[i], dom.basis[j])
            expected = zero if p is None else self.images[gamma.position(p.mask, p.g)]
            return self.images[i] * self.images[j] == expected

        size = dom.size
        if size * size <= _PAIR_BUDGET:
            pairs = ((i, j) for i in range(size) for j in range(size))
            note = f"exhaustive over {size * size} basis pairs"
        else:
            rng = Random(seed)
            pairs = ((rng.randrange(size), rng.randrange(size))
                     for _ in range(_SAMPLED_PAIRS))
            note = f"sampled {_SAMPLED_PAIRS} basis pairs, seed {seed:#x}"
        basis_w = next(((dom.describe_basis(i), dom.describe_basis(j))
                        for i, j in pairs if not basis_ok(i, j)), None)
        checks = [AxiomCheck("multiplicative_basis", basis_w is None, basis_w, note)]

        rng = Random(seed + 1)
        rounds = max(1, _SAMPLED_PAIRS // 10)
        samples = ((dom.random_element(rng), dom.random_element(rng))
                   for _ in range(rounds))
        elem_w = next(((repr(x), repr(y)) for x, y in samples
                       if self.apply(x * y) != self.apply(x) * self.apply(y)), None)
        checks.append(AxiomCheck("multiplicative_elements", elem_w is None, elem_w,
                                 f"{rounds} random element pairs, seed {seed + 1:#x}"))
        return AxiomReport(subject="homomorphism property", checks=tuple(checks))


def extend_to_gamma_hom(pi: PartialRepMap,
                        domain: GammaAlgebra | None = None) -> GammaHom:
    """Extend a partial representation to a map on the whole basis (I, g).

    The image of (I, g) is pi(g) times the bracket P(I): the product of
    epsilon(r) over r in I times the product of (1 - epsilon(s)) over s
    outside I, each in ascending element order. Only the second product needs
    negation, so only it is built in the ring of differences of the target
    scalars; the first stays in the target and is lifted for the one product
    that forms the bracket. The bracket is then pulled back once per mask.
    That is enough: P(I) is the image of the unit (I, e), the first arrow of
    I in canonical order, and each pi(g) P(I) is a product in the target once
    P(I) is. A bracket that fails the pullback raises ExtensionMembershipError
    at (I, e), with its unreduced difference pairs as witnesses.

    P(I) depends on I only, so it is computed once per mask, by one
    depth-first walk that decides the elements 1 .. n-1 in ascending order
    and extends either the epsilon prefix or the (1 - epsilon) prefix by one
    factor per decision. Every product keeps its factor order and its
    ascending, left-nested grouping, so this relies on associativity alone,
    not on the idempotents commuting; at most two pairs of prefixes per
    element are live. The brackets are then emitted in ascending mask order.

    Without a domain, pi's own algebra serves when it is the groupoid
    semialgebra of pi's group; otherwise one is built under the default bound.
    """
    if domain is None:
        if isinstance(pi.algebra, GammaAlgebra) and pi.algebra.gamma.group is pi.group:
            domain = pi.algebra
        else:
            domain = GammaAlgebra(Gamma(pi.group), pi.algebra.scalars)
    elif domain.gamma.group is not pi.group or domain.scalars is not pi.algebra.scalars:
        raise BasisMismatchError(f"cannot extend a partial representation of "
                                 f"{pi.group.name} over {pi.algebra.scalars.name} "
                                 f"to {domain!r}")
    if pi.image(0) != pi.algebra.one():
        raise ValueError("the identity must map to 1 before extending")

    one_d = pi.algebra.with_scalars(delta_of(pi.algebra.scalars)).one()
    eps = [epsilon(pi, r) for r in pi.group.elements()]
    comp_d = [one_d - _lift(x) for x in eps]
    n = pi.group.order
    brackets: dict[int, tuple] = {}

    # each entry holds the ascending products of epsilon over the elements
    # below r in the mask and of 1 - epsilon over those not in it; the
    # second is None until an element is left out
    stack = [(1, 1, eps[0], None)]
    while stack:
        r, mask, inside, outside = stack.pop()
        if r == n:
            brackets[mask] = ((inside, ()) if outside is None
                              else _lower(_lift(inside) * outside, pi.algebra))
            continue
        stack.append((r + 1, mask, inside,
                      comp_d[r] if outside is None else outside * comp_d[r]))
        stack.append((r + 1, mask | 1 << r, inside * eps[r], outside))
    images = []
    for mask in range(1, pi.group.full_mask + 1, 2):
        bracket, failures = brackets.pop(mask)
        if failures:
            raise ExtensionMembershipError(GammaElement(mask, 0), failures,
                                           repr(pi.algebra))
        images.extend(pi.image(g) * bracket for g in domain.gamma.gs_at(mask))
    return GammaHom(domain, pi.algebra, tuple(images))


# ---------------------------------------------------------------------------
# Span generation: the canonical images generate the whole semialgebra.

class SpanReport(NamedTuple):
    """Outcome of closing the canonical images under left multiplication.

    Every product reached is a superset sum zeta(I, g), the sum of the
    arrows (J, g) over all J containing I, with coefficients 1: Exel's
    normal form eps_{g1}...eps_{gk} lambda(g) (R. Exel, "Partial actions of
    groups and actions of inverse semigroups", Proc. AMS 126, 1998). Its lead,
    the least basis index in its support, is the arrow (I, g). Superset sums
    with distinct leads are the rows of a unitriangular zeta matrix (G.-C.
    Rota, "On the foundations of combinatorial theory I", 1964), so `rank`,
    the number of distinct leads, is their exact rank over the rationals.
    `products` counts the left products formed.
    """

    gamma_size: int
    rank: int
    complete: bool
    products: int


def span_generation(algebra: GammaAlgebra) -> SpanReport:
    """Close {lambda_p(g)} under left multiplication and certify the span.

    Each product must have coefficients 1 and the superset-sum shape of
    SpanReport: one g throughout, every mask a superset of the lead's mask
    I, and 2^(n - |I|) terms, so the support is every superset of I. Any
    other product raises VerificationError. The closure is keyed on the
    leads, and a rank equal to the basis size shows any homomorphism is
    pinned down by its values on the canonical images. The certificate costs
    a few reads of each product's support, with no elimination.
    """
    gamma = algebra.gamma
    masks, gs = gamma.masks, gamma.gs
    n = gamma.group.order
    S = algebra.scalars
    gens = lambda_p(algebra).images
    leads: set[int] = set()
    queue: deque[AlgebraElement] = deque()
    products = 0

    def admit(el: AlgebraElement) -> None:
        coeffs = el.coeffs
        if not coeffs:
            return
        if not all(S.eq(c, S.one) for c in coeffs.values()):
            raise VerificationError(
                "left products of the canonical images left the 0/1 family")
        lead = min(coeffs)
        mask, g = masks[lead], gs[lead]
        if (len(coeffs) != 1 << n - mask.bit_count()
                or any(gs[i] != g or masks[i] & mask != mask for i in coeffs)):
            raise VerificationError(
                "a left product of the canonical images with lead "
                f"{gamma.describe(GammaElement(mask, g))} is not its superset sum")
        if lead not in leads:
            leads.add(lead)
            queue.append(el)

    for g in gens:
        admit(g)
    while queue:
        cur = queue.popleft()
        for gen in gens:
            products += 1
            admit(gen * cur)

    return SpanReport(gamma_size=algebra.size, rank=len(leads),
                      complete=len(leads) == algebra.size, products=products)


# ---------------------------------------------------------------------------
# Factorization through the groupoid semialgebra.

def _span_checks(name: str, algebra: GammaAlgebra) -> list[AxiomCheck]:
    """The span check named `name` for groups up to order _SPAN_LIMIT, else
    none."""
    if algebra.gamma.group.order > _SPAN_LIMIT:
        return []
    span = span_generation(algebra)
    note = f"rank {span.rank} of {span.gamma_size} via unitriangular leads"
    return [AxiomCheck(name, span.complete,
                       None if span.complete else (span.rank, span.gamma_size), note=note)]


def verify_factorization(pi: PartialRepMap, pi_tilde: GammaHom, *,
                         seed: int = DEFAULT_SEED) -> AxiomReport:
    """Confirm that the extension is the factorization it claims to be.

    Checks that the extension is unital, multiplicative (exhaustively or
    sampled, per the homomorphism report), and composes with the canonical
    representation back to the original map; for groups small enough the span
    test pins uniqueness.
    """
    if pi_tilde.target is not pi.algebra:
        raise BasisMismatchError(
            "the homomorphism's target is not the representation's algebra")
    G = pi.group
    checks = [AxiomCheck("unital", pi_tilde.is_unital())]
    hom = pi_tilde.multiplicative_report(seed=seed)
    checks.extend(hom.checks)

    lam = lambda_p(pi_tilde.domain)
    fact_w = next(((G.label(g),) for g in G.elements()
                   if pi_tilde.apply(lam.image(g)) != pi.image(g)), None)
    checks.append(AxiomCheck("factors_through_canonical", fact_w is None, fact_w))

    checks.extend(_span_checks("uniqueness_span", pi_tilde.domain))
    return AxiomReport(subject=f"factorization for {G.name}", checks=tuple(checks))


def verify_kpar_relations(algebra: GammaAlgebra) -> AxiomReport:
    """The canonical images satisfy the defining relations and span.

    Checks the partial-representation relations for the canonical images in
    the given groupoid semialgebra exhaustively and, up to order
    _SPAN_LIMIT, confirms that their products span the whole semialgebra.
    """
    G = algebra.gamma.group
    checks = list(verify_partial_rep(lambda_p(algebra)).checks)
    checks.extend(_span_checks("span_generation", algebra))
    return AxiomReport(subject=f"canonical relations for {G.name} "
                               f"over {algebra.scalars.name}",
                       checks=tuple(checks))


# ---------------------------------------------------------------------------
# Stock representations.

def regular_representation(G: FiniteGroup, scalars: SemiringSpec) -> PartialRepMap:
    """The left regular representation as permutation matrices over K.

    The target is the matrix algebra over the group algebra of the trivial
    group, so entries are plain scalars in disguise and all the matrix
    machinery applies unchanged. Global representations are partial
    representations, so this is a stock input for the extension.
    """
    trivial = make_group("cyclic:1")
    entries = GroupAlgebra(trivial, scalars)
    target = MatrixAlgebra(entries, G.order)
    unit = entries.basis_element(0)
    images = tuple(MatrixElement(target, {(G.mul(g, c) + 1, c + 1): unit
                                          for c in range(G.order)})
                   for g in G.elements())
    return PartialRepMap(G, target, images)
