"""Block structure of the groupoid semialgebra.

The unit graph splits into connected components: the translation orbits
{x^-1 * I : x in I}, found by the one finder `groupoid.unit_components`. A
component with m vertices and isotropy H spans a subalgebra isomorphic to the
m x m matrix semialgebra over KH. Grouping components by (conjugacy class
of isotropy, m) gives the block table

    KGamma(G) = direct sum over classes [H] and m of c_m([H]) copies of
    M_m(KH),

with the dimension audit sum of c * m^2 * |H| equal to the basis size, the
sum over subsets I containing e of |I|, taken in closed form.

The isomorphism of a component onto M_m(KH) is checked in the two steps of
its proof (Steinberg, Adv. Math. 2010; Dokuchaev-Exel-Piccione, J. Algebra
2000): the component is the groupoid H x (pair groupoid on m points), checked
in integers per component, and the algebra of that groupoid is M_m(KH),
checked with matrix products once per block type.

Multiplicities are indexed by conjugacy classes because the isotropy groups
of the vertices of one component are only conjugation-equivalent; attributing
a component to a single subgroup is not well-defined. The exhaustive
enumeration is authoritative. The binomial recursion implemented alongside is
diagnostic only: the report carries a side-by-side diff, and equality is
reported rather than assumed.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .group import (
    FiniteGroup,
    Subgroup,
    _check_bound,
    _lattice_subgroup,
    conjugacy_classes_of_subgroups,
    generating_set,
    indices_of_mask,
    stabilizer_of_subset,
    subgroup_as_group,
    subgroups,
)
from .groupoid import (
    Gamma,
    GammaElement,
    StandardElement,
    StandardGroupoid,
    VerificationError,
    gamma_size,
    unit_components,
)

# Only the component check over scalars builds algebras, so `decompose` and
# the enumerations load neither the algebras nor the scalars.
if TYPE_CHECKING:
    from fractions import Fraction

    from .semialgebra import MatrixAlgebra, StandardAlgebra
    from .semiring import SemiringSpec


def _class_lookup(G: FiniteGroup) -> dict[int, int]:
    """The mask of each subgroup's class representative, by subgroup mask."""
    return {H.mask: cls[0].mask
            for cls in conjugacy_classes_of_subgroups(G) for H in cls}


def _block_order(key: tuple[int, int]) -> tuple[int, int, int]:
    """Rows keyed (class mask, m) go by |H|, then m, then mask."""
    return key[0].bit_count(), key[1], key[0]


def multiplicity_enumeration(G: FiniteGroup,
                             bound: int | None = None) -> dict[tuple[int, int], int]:
    """Count components per (conjugacy class of isotropy, vertex count).

    Keys are (mask of the class representative, m); this is the authoritative
    multiplicity table. The components are the translation orbits of
    `unit_components`, so no groupoid is built.
    """
    _check_bound(G, bound, "multiplicity enumeration")
    rep_of = _class_lookup(G)
    counts: dict[tuple[int, int], int] = {}
    for vertices, iso in unit_components(G):
        key = (rep_of[iso.mask], len(vertices))
        counts[key] = counts.get(key, 0) + 1
    return counts


def stabilizer_census(G: FiniteGroup,
                      bound: int | None = None) -> dict[tuple[int, int], int]:
    """Count subsets I containing e by (exact stabilizer mask, |I| / |S(I)|).

    Every I is a union of right cosets of its stabilizer, so the quotient is
    integral; the census feeds both counting identities below.
    """
    _check_bound(G, bound, "stabilizer census")
    census: dict[tuple[int, int], int] = {}
    for mask in range(1, 1 << G.order, 2):
        stab = stabilizer_of_subset(G, mask)
        m, rem = divmod(mask.bit_count(), stab.order)
        if rem:
            raise VerificationError(
                f"{G.subset_repr(mask)} is not a union of cosets of its stabilizer")
        key = (stab.mask, m)
        census[key] = census.get(key, 0) + 1
    return census


def vertex_count_identity(G: FiniteGroup, counts: dict[tuple[int, int], int],
                          census: dict[tuple[int, int], int]) -> tuple[bool, tuple | None]:
    """c_m([H]) * m must equal the number of census subsets across the class.

    Each component contributes m vertices, and every subset with conjugate
    stabilizer and matching size is a vertex of exactly one such component.
    counts is the enumeration table and census the stabilizer census of G.
    """
    rep_of = _class_lookup(G)
    by_class: dict[tuple[int, int], int] = {}
    for (mask, m), cnt in census.items():
        key = (rep_of[mask], m)
        by_class[key] = by_class.get(key, 0) + cnt
    for key in sorted(counts.keys() | by_class.keys()):
        lhs = counts.get(key, 0) * key[1]
        rhs = by_class.get(key, 0)
        if lhs != rhs:
            return False, (G.subset_repr(key[0]), key[1], lhs, rhs)
    return True, None


# ---------------------------------------------------------------------------
# The recursion and its dissenting opinions.

def _coarser_steps(subs: list[Subgroup], H: Subgroup,
                   m: int) -> Iterator[tuple[int, int]]:
    """(B mask, m / (B:H)) for every subgroup B >= H with (B:H) dividing m."""
    for B in subs:
        if (H.mask & B.mask) == H.mask:
            step, rem = divmod(m, B.order // H.order)
            if not rem:
                yield B.mask, step


def multiplicity_recursion(G: FiniteGroup) -> dict[tuple[int, int], int | Fraction]:
    """Multiplicities from the binomial recursion; diagnostic, not trusted.

    Subsets containing e that are unions of m right H-cosets number
    binom((G:H)-1, m-1); removing those whose exact stabilizer is larger
    leaves N(H, m), computed top-down from the full group:

        N(H, m) = binom((G:H)-1, m-1)
                  - sum over H < B <= G with (B:H) | m of N(B, m / (B:H))

    and the class multiplicity is |class| * N(rep, m) / m, kept exact: an
    int when m divides it, else a Fraction, so a wrong reading shows up as a
    non-integral value instead of a crash.
    """
    subs = subgroups(G)
    n_table: dict[tuple[int, int], int] = {}
    for H in sorted(subs, key=lambda s: -s.order):
        index = G.order // H.order
        for m in range(1, index + 1):
            n_table[(H.mask, m)] = comb(index - 1, m - 1) - sum(
                n_table[key] for key in _coarser_steps(subs, H, m)
                if key[0] != H.mask)

    out: dict[tuple[int, int], int | Fraction] = {}
    for cls in conjugacy_classes_of_subgroups(G):
        rep = cls[0]
        index = G.order // rep.order
        for m in range(1, index + 1):
            total = len(cls) * n_table[(rep.mask, m)]
            value, rem = divmod(total, m)
            if rem:
                from fractions import Fraction

                value = Fraction(total, m)
            if value:
                out[(rep.mask, m)] = value
    return out


def coset_count_identity(G: FiniteGroup,
                         census: dict[tuple[int, int], int]) -> tuple[bool, tuple | None]:
    """Check the partition behind the recursion against the census.

    For every subgroup H and every m, the subsets containing e that are
    unions of m right H-cosets split by exact stabilizer B >= H into census
    classes of size N(B, m/(B:H)); their total must be binom((G:H)-1, m-1).
    census is the stabilizer census of G.
    """
    subs = subgroups(G)
    for H in subs:
        index = G.order // H.order
        for m in range(1, index + 1):
            lhs = sum(census.get(key, 0) for key in _coarser_steps(subs, H, m))
            rhs = comb(index - 1, m - 1)
            if lhs != rhs:
                return False, (G.subset_repr(H.mask), m, lhs, rhs)
    return True, None


def recursion_diff(G: FiniteGroup, enum: dict[tuple[int, int], int]) -> list[dict]:
    """Side-by-side rows comparing the enumeration table enum with the
    recursion multiplicities."""
    rec = multiplicity_recursion(G)
    rows = []
    for mask, m in sorted(enum.keys() | rec.keys(), key=_block_order):
        e = enum.get((mask, m), 0)
        r = rec.get((mask, m), 0)
        rows.append({
            "H_order": mask.bit_count(),
            "H_gens": generating_set(_lattice_subgroup(G, mask)),
            "m": m,
            "enumeration": e,
            "recursion": int(r) if r.denominator == 1 else str(r),
            "equal": r == e,
        })
    return rows


# ---------------------------------------------------------------------------
# Per-component matrix isomorphisms.

def _chosen_arrows(G: FiniteGroup, vertices: tuple[int, ...]) -> list[int]:
    """g_i for each vertex v_i: the least g with g * base = v_i.

    g * base contains e only when g^-1 is in base, so the |base| translates
    of the base are the only candidates; ascending order keeps the least one
    per vertex, and g_0 = e.
    """
    base = vertices[0]
    least: dict[int, int] = {}
    for g in sorted(G.inv[x] for x in indices_of_mask(base)):
        least.setdefault(G.left_translate(g, base), g)
    return [least[v] for v in vertices]


def _normal_form(gamma: Gamma, vertices: tuple[int, ...],
                 iso_elements: tuple[int, ...], chosen: list[int]) -> list[int | None]:
    """The normal form of a component as one int per arrow, None outside H.

    Arrows are read vertex by vertex, ascending in g, which is the gamma's
    own order. The arrow (v_j, g) with g * v_j = v_i goes to the triple
    (h, i, j) with h = g_i^-1 * g * g_j re-indexed in H (iso_elements[h] is
    its ambient index), written as its basis position (h m + i) m + j in the
    triple algebra, with i and j 0-based.
    """
    G = gamma.group
    m = len(vertices)
    mul, inv, translate = G.cayley, G.inv, G.left_translate
    to_iso: list[int | None] = [None] * G.order
    for k, x in enumerate(iso_elements):
        to_iso[x] = k
    number = {v: i for i, v in enumerate(vertices)}
    images: list[int | None] = []
    for j, v in enumerate(vertices):
        gj = chosen[j]
        for g in gamma.gs_at(v):
            i = number[translate(g, v)]
            h = to_iso[mul[inv[chosen[i]]][mul[g][gj]]]
            images.append(None if h is None else (h * m + i) * m + j)
    return images


def _verify_normal_form(gamma: Gamma, vertices: tuple[int, ...], H: FiniteGroup,
                        images: list[int | None]) -> None:
    """Check that a component's normal form is a groupoid isomorphism.

    images is `_normal_form`'s list: one basis position (h m + i) m + j of
    the triples over H on m points per arrow, in the component's arrow
    order. There must be m^2 |H| of them, each a triple, each arrow's source
    vertex number must be its triple's j and its range vertex number the
    triple's i, and no two may be equal: with the right count the map is
    then a bijection. Products are checked on composable pairs only: for
    each y, every x whose source is the range of y, m^3 |H|^2 pairs in all.
    Any other pair has source(x) != range(y), and as the map keeps sources
    and ranges its triples do not compose either. Every vertex has |base|
    arrows, so (v_j, g) sits at j |base| + |v_j & below[g]| in the list.
    """
    G = gamma.group
    m = len(vertices)
    mm = m * m
    size = mm * H.order
    if len(images) != size:
        raise VerificationError(
            f"component at {G.subset_repr(vertices[0])}: "
            f"{len(images)} arrows vs {size} triples")
    width = vertices[0].bit_count()
    rows = [gamma.gs_at(v) for v in vertices]
    number = {v: k for k, v in enumerate(vertices)}
    translate = G.left_translate

    def arrow(v: int, g: int) -> str:
        return gamma.describe(GammaElement(v, g))

    seen = bytearray(size)
    for k, t in enumerate(images):
        j, r = divmod(k, width)
        v, g = vertices[j], rows[j][r]
        if t is None:
            raise VerificationError(
                f"normal form sends {arrow(v, g)} outside the isotropy")
        if not 0 <= t < size:
            s = StandardElement(t // mm, t // m % m + 1, t % m + 1)
            raise VerificationError(
                f"normal form sends {arrow(v, g)} to {s}, not a triple")
        if t % m != j or number.get(translate(g, v)) != t // m % m:
            raise VerificationError(
                f"normal form moves the source or range of {arrow(v, g)}")
        if seen[t]:
            raise VerificationError(f"normal form repeats a triple at {arrow(v, g)}")
        seen[t] = 1
    gmul, hmul, below = G.cayley, H.cayley, gamma.below
    hs = [t // mm for t in images]
    ranges = [t // m % m for t in images]
    for ky, (hy, iy) in enumerate(zip(hs, ranges)):
        jy, r = divmod(ky, width)
        vy, gy = vertices[jy], rows[jy][r]
        lo = iy * width
        for kx, gx in enumerate(rows[iy], lo):
            kp = jy * width + (vy & below[gmul[gx][gy]]).bit_count()
            if images[kp] != (hmul[hs[kx]][hy] * m + ranges[kx]) * m + jy:
                raise VerificationError(
                    f"normal form fails multiplicativity at "
                    f"{arrow(vertices[iy], gx)} * {arrow(vy, gy)}")


def _verify_block_type(standard: StandardAlgebra, matrix: MatrixAlgebra) -> None:
    """Check that the triple-to-matrix map is multiplicative on the basis.

    All (m^2 |H|)^2 pairs of basis triples are multiplied as genuine grids
    and compared with the image of the triple product, or with zero when the
    triples do not compose.
    """
    from .semialgebra import standard_to_matrix

    groupoid = standard.groupoid
    basis = standard.basis
    mats = [standard_to_matrix(standard.basis_element(b), matrix) for b in basis]
    zero = matrix.zero()
    for i, (a, ma) in enumerate(zip(basis, mats)):
        for j, (b, mb) in enumerate(zip(basis, mats)):
            p = groupoid.product(a, b)
            if ma * mb != (zero if p is None else mats[standard.index_of(p)]):
                raise VerificationError(
                    f"matrix images fail multiplicativity at "
                    f"{standard.describe_basis(i)} * {standard.describe_basis(j)}")


def verify_component_isomorphisms(gamma: Gamma, scalars: SemiringSpec) -> int:
    """Check every component's isomorphism onto M_m(KH); return their number.

    The check follows the two steps of the proof (Steinberg, "A groupoid
    approach to discrete inverse semigroup algebras", Adv. Math. 2010; for
    KGamma(G), Dokuchaev-Exel-Piccione, J. Algebra 2000). First, each
    component's normal form is a groupoid isomorphism onto the triples over H
    on m points, checked in integers on the component's composable pairs.
    Second, the map (h, i, j) -> h E_ij from the algebra of the triples to the
    m x m matrices over KH is multiplicative, checked on all basis pairs with
    genuine matrix products. The composite sends the arrows bijectively onto
    the matrix units and is multiplicative on basis pairs, so it is an algebra
    isomorphism.

    The second step depends only on the block type (m, the re-indexed table
    of H): equal types build equal algebras, so each type met here builds one
    triple algebra and one matrix algebra and is checked once. The first
    failure raises VerificationError.
    """
    from .semialgebra import StandardAlgebra, matrix_algebra_for

    G = gamma.group
    count = 0
    checked: set = set()
    for vertices, isotropy in unit_components(G):
        H, elems = subgroup_as_group(G, isotropy)
        _verify_normal_form(gamma, vertices, H, _normal_form(
            gamma, vertices, elems, _chosen_arrows(G, vertices)))
        m = len(vertices)
        key = (m, H.cayley)
        if key not in checked:
            standard = StandardAlgebra(StandardGroupoid(H, m), scalars)
            _verify_block_type(standard, matrix_algebra_for(standard))
            checked.add(key)
        count += 1
    return count


def cross_component_orthogonality(gamma: Gamma) -> tuple[bool, tuple | None]:
    """No product is defined across two different components.

    x * y is defined exactly when the source of x is the range of y, so the
    claim is that each arrow's range lies in the arrow's own component. A
    failure is witnessed by the pair (the unit at the range of y, y).
    """
    comp_of: dict[int, int] = {}
    for idx, (vertices, _) in enumerate(unit_components(gamma.group)):
        for v in vertices:
            comp_of[v] = idx
    translate = gamma.group.left_translate
    for mask, g in zip(gamma.masks, gamma.gs):
        r = translate(g, mask)
        if comp_of[r] != comp_of[mask]:
            return False, (gamma.describe(GammaElement(r, 0)),
                           gamma.describe(GammaElement(mask, g)))
    return True, None


# ---------------------------------------------------------------------------
# The decomposition itself.

class BlockDescriptor(NamedTuple):
    """One block: c copies of the m x m matrix semialgebra over KH."""

    subgroup: Subgroup
    m: int
    c: int

    @property
    def H_order(self) -> int:
        return self.subgroup.order

    def H_gens(self) -> list[int]:
        return generating_set(self.subgroup)

    def to_json(self) -> dict:
        return {"H_order": self.H_order, "H_gens": self.H_gens(),
                "m": self.m, "c": self.c}


class DecompositionSummary(NamedTuple):
    """The block table of one group, with the dimension audit."""

    group: str
    blocks: tuple[BlockDescriptor, ...]
    gamma_size: int
    audit_lhs: int
    audit_rhs: int

    @property
    def audit_ok(self) -> bool:
        return self.audit_lhs == self.audit_rhs

    def multiplicities(self) -> dict[tuple[int, int], int]:
        """The enumeration table the blocks came from, keyed (class mask, m)."""
        return {(b.subgroup.mask, b.m): b.c for b in self.blocks}

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "gamma_size": self.gamma_size,
            "blocks": [b.to_json() for b in self.blocks],
            "audit": {"lhs": self.audit_lhs, "rhs": self.audit_rhs,
                      "ok": self.audit_ok},
        }


def decompose(G: FiniteGroup, bound: int | None = None) -> DecompositionSummary:
    """The block table of the groupoid semialgebra of G.

    This is purely combinatorial and never builds the groupoid;
    verify_component_isomorphisms checks the blocks as algebras.
    """
    _check_bound(G, bound, "decomposing")
    counts = multiplicity_enumeration(G, bound)
    blocks = tuple(BlockDescriptor(_lattice_subgroup(G, mask), m, counts[(mask, m)])
                   for mask, m in sorted(counts, key=_block_order))
    lhs = sum(b.c * b.m * b.m * b.H_order for b in blocks)
    rhs = gamma_size(G.order)
    return DecompositionSummary(
        group=G.name, blocks=blocks, gamma_size=rhs,
        audit_lhs=lhs, audit_rhs=rhs)


def decomposition_report(G: FiniteGroup, bound: int | None = None) -> dict:
    """The full report: block table, audit, and the recursion diff."""
    summary = decompose(G, bound)
    doc = summary.to_json()
    doc["recursion_diff"] = recursion_diff(G, summary.multiplicities())
    return doc
