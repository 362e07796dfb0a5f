"""The groupoid of subset-element pairs attached to a finite group.

Elements are pairs (I, g) where I is a subset of G containing both the
identity and g^-1. The partial product (I, g) * (J, h) is defined exactly when
I = h*J and then equals (J, g*h); units are the pairs (I, e). Connectivity of
the unit graph and isotropy are computed here, along with the standard
groupoid of triples (h, i, j) over a group.

The component of a unit I is the translation orbit {x^-1 * I : x in I}, so
one finder, `unit_components`, serves the block table and the component
checks in `structure`, which map each component onto the triples over its
isotropy in integer positions.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import accumulate, chain, repeat
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .group import (
    FiniteGroup,
    Subgroup,
    _byte_tables,
    _check_bound,
    _lattice_subgroup,
    _sums_over_masks_with_e,
    indices_of_mask,
    mask_from_indices,
)


class VerificationError(AssertionError):
    """A computed structure fails one of the paper's identities.

    Raised by the mathematical checks (component tiling, integrality, the
    normal form and the block type, the 0/1 span family) so that a
    counterexample can be told apart from a bug: the command line reports
    this error as a verification failure and any other exception as an
    internal error. It stays an AssertionError for callers that catch those.
    """


class GammaElement(NamedTuple):
    """A pair (I, g): the subset mask I and the group element index g."""

    mask: int
    g: int


class ArrowView:
    """Gamma's arrows as a read-only sequence that indexes like a tuple; each
    GammaElement is built from the flat sequences when it is read."""

    __slots__ = ("_masks", "_gs")

    def __init__(self, masks: Sequence[int], gs: bytes):
        self._masks = masks
        self._gs = gs

    def __len__(self) -> int:
        return len(self._gs)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(GammaElement, self._masks[k], self._gs[k]))
        return GammaElement(self._masks[k], self._gs[k])

    def __iter__(self) -> Iterator[GammaElement]:
        return map(GammaElement, self._masks, self._gs)


def gamma_size(n: int) -> int:
    """The number of arrows (I, g) of a group of order n, in closed form.

    It is the sum of |I| over the 2^(n-1) subsets I containing e: each of the
    n - 1 other elements lies in half of them, so the sum is
    2^(n-1) + (n - 1) 2^(n-2) = (n + 1) 2^n / 4, also for n = 1.
    """
    return (n + 1) * (1 << n) // 4


def arrow_rows(group: FiniteGroup) -> Iterator[bytes]:
    """The g of the arrows (I, g) of each mask I containing e, ascending in I.

    (I, g) is an arrow exactly when g is in I^-1, so a row is the elements of
    I^-1, ascending, one byte each (orders up to 255). The mask I^-1 is read
    from byte tables of the inverse map, built by the same doubling as the
    translate tables of a Cayley row, in one stream per byte k of I^-1. Byte
    k picks that part of the row from a table of element bytes, and the
    parts are joined in k. So no row is sorted and no element is visited on
    its own.
    """
    inverse = _byte_tables([1 << x for x in group.inv], 0)
    elements = _byte_tables([bytes((x,)) for x in group.elements()], b"")
    parts = [map(table.__getitem__,
                 _sums_over_masks_with_e([[t >> 8 * k & 255 for t in inv_table]
                                          for inv_table in inverse]))
             for k, table in enumerate(elements)]
    # concatenate the streams of parts, position by position
    return reduce(partial(map, add), parts)


class Gamma:
    """All pairs (I, g) of a group, in canonical (mask, g) order.

    Arrow k is (masks[k], gs[k]): masks is a uint32 array and the g are
    bytes, so an arrow takes five bytes and no object, and `elements` is a
    view that builds GammaElements when read. The arrows of one mask are
    contiguous and ascending in g, so an arrow's position is closed-form.
    start[I >> 1] arrows come before mask I; inside it, (I, g) follows one
    arrow for each x in I with x^-1 < g, and below[g] is the mask of all
    such x in G:

        position(I, g) = start[I >> 1] + (I & below[g]).bit_count()

    The first arrow of each mask is its unit (e^-1 = e is the least g), so
    the unit positions are start itself, a uint32 array too. gs is the rows
    of `arrow_rows` appended to one buffer as they are made, with no list of
    rows; mask I has |I| arrows, so masks and start follow from the
    popcounts with no Python step per mask or per arrow. The `gamma` command
    streams the same rows and builds no Gamma.
    """

    def __init__(self, group: FiniteGroup, bound: int | None = None):
        # a shared library, loaded here so that commands building no Gamma
        # do not map it
        from array import array

        _check_bound(group, bound, "building the groupoid")
        self.group = group
        n = group.order
        inv = group.inv
        self.below = tuple(mask_from_indices(x for x in range(n) if inv[x] < g)
                           for g in range(n))
        sources = range(1, 1 << n, 2)
        counts = list(map(int.bit_count, sources))
        gs = bytearray()
        for row in arrow_rows(group):
            gs += row
        self.gs = bytes(gs)
        self.masks = array("I", chain.from_iterable(map(repeat, sources, counts)))
        self.start = array("I", accumulate(counts[:-1], initial=0))
        self.unit_indices = self.start
        self.elements = ArrowView(self.masks, self.gs)

    @property
    def size(self) -> int:
        return len(self.gs)

    def __repr__(self) -> str:
        return f"Gamma({self.group.name}, size={self.size})"

    def position(self, mask: int, g: int) -> int:
        """The index of the arrow (I, g) in elements; (I, g) must be one."""
        return self.start[mask >> 1] + (mask & self.below[g]).bit_count()

    def gs_at(self, mask: int) -> bytes:
        """The g of the arrows (I, g) with source I, ascending; I must contain e."""
        lo = self.start[mask >> 1]
        return self.gs[lo:lo + mask.bit_count()]

    def element(self, mask: int, g: int) -> GammaElement:
        """The validated pair (I, g); raises when it is not in the groupoid."""
        n = self.group.order
        if not (0 <= mask < 1 << n and 0 <= g < n):
            raise ValueError(
                f"(mask {mask}, g {g}) is out of range for a group of order {n}")
        if not mask & 1 or not mask >> self.group.inverse(g) & 1:
            raise ValueError(
                f"({self.group.subset_repr(mask)}, {self.group.label(g)}) is not "
                "a groupoid element: need e and the inverse of g inside I")
        return GammaElement(mask, g)

    def is_unit(self, x: GammaElement) -> bool:
        return x.g == 0

    def product(self, x: GammaElement, y: GammaElement) -> GammaElement | None:
        """(I,g) * (J,h) = (J, g*h) when I = h*J; None when undefined."""
        if x.mask != self.group.left_translate(y.g, y.mask):
            return None
        return GammaElement(y.mask, self.group.mul(x.g, y.g))

    def source(self, x: GammaElement) -> GammaElement:
        return GammaElement(x.mask, 0)

    def range_of(self, x: GammaElement) -> GammaElement:
        return GammaElement(self.group.left_translate(x.g, x.mask), 0)

    def inverse(self, x: GammaElement) -> GammaElement:
        return GammaElement(self.group.left_translate(x.g, x.mask),
                            self.group.inverse(x.g))

    def describe(self, x: GammaElement) -> str:
        return f"({self.group.subset_repr(x.mask)},{self.group.label(x.g)})"


# ---------------------------------------------------------------------------
# Connectivity.

def unit_components(G: FiniteGroup) -> Iterator[tuple[tuple[int, ...], Subgroup]]:
    """The components of the unit graph with their isotropy, by base mask.

    An arrow (I, g) joins I to g*I exactly when g^-1 is in I, so the
    component of I is its translation orbit {x^-1 * I : x in I}; that set is
    closed under further moves. Walking the masks containing e in ascending
    order and skipping those already seen therefore meets every component
    first at its least mask, its base. Each entry is (vertices ascending,
    stabilizer of the base). The isotropy comes from the same |base|
    translates as the orbit: x^-1 * I = I exactly when x is in Stab(I), and
    Stab(I) lies inside I, so no second pass over the base is needed. Each
    translate ORs one entry of each of the three byte tables of x^-1
    (`FiniteGroup.translate_tables`). The isotropy is the Subgroup that
    `subgroups(G)` holds, as a few subgroups serve thousands of components;
    a stabilizer missing from that lattice is built, and so validated, on
    its own. The vertex count m must tile the base as m * |isotropy| =
    |base|; this is asserted because every later structure computation
    leans on it. All 2^(order-1) masks are walked, so callers check the
    order bound first. The components are yielded one at a time, so a
    caller that only counts them holds one orbit, not every vertex.
    """
    n = G.order
    # the tables of x^-1 at x
    tables = list(map(G.translate_tables, G.inv))
    seen = bytearray(1 << n)
    for base in range(1, 1 << n, 2):
        if seen[base]:
            continue
        low, mid, high = base & 255, base >> 8 & 255, base >> 16
        orbit = set()
        stab = 0
        for x in indices_of_mask(base):
            t0, t1, t2 = tables[x]
            v = t0[low] | t1[mid] | t2[high]
            if v == base:
                stab |= 1 << x
            orbit.add(v)
        vertices = tuple(sorted(orbit))
        for v in vertices:
            seen[v] = 1
        isotropy = _lattice_subgroup(G, stab)
        if len(vertices) * isotropy.order != base.bit_count():
            raise VerificationError(
                f"component at {G.subset_repr(base)}: {len(vertices)} vertices "
                f"with isotropy order {isotropy.order} cannot tile a subset of "
                f"size {base.bit_count()}")
        yield vertices, isotropy


# ---------------------------------------------------------------------------
# The standard groupoid of triples over a group.

class StandardElement(NamedTuple):
    """A triple (h, i, j): group element h, range vertex i, source vertex j."""

    h: int
    i: int
    j: int


class StandardGroupoid:
    """Triples (h, i, j) with h in H and 1-based vertex indices i, j <= m."""

    def __init__(self, H: FiniteGroup, m: int):
        if m < 1:
            raise ValueError(f"need at least one vertex, got m={m}")
        self.H = H
        self.m = m
        self.elements = tuple(StandardElement(h, i, j)
                              for h in H.elements()
                              for i in range(1, m + 1)
                              for j in range(1, m + 1))

    @property
    def size(self) -> int:
        return len(self.elements)

    def product(self, a: StandardElement, b: StandardElement) -> StandardElement | None:
        """(g,i,j) * (h,j,k) = (g*h, i, k); None when the middle indices differ."""
        if a.j != b.i:
            return None
        return StandardElement(self.H.mul(a.h, b.h), a.i, b.j)

    def units(self) -> list[StandardElement]:
        return [StandardElement(0, i, i) for i in range(1, self.m + 1)]
