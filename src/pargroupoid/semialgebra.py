"""Semialgebras over a scalar system: free semimodules with convolution.

A SparseAlgebra is a free semimodule on a finite basis together with a partial
product on basis indices; multiplication of elements is convolution, with
undefined basis products contributing nothing. Instances cover the groupoid of
subset-element pairs, a group, and the standard groupoid of triples. Matrix
semialgebras over a group semialgebra are kept as maps of their nonzero cells
and multiplied row by column, so that the triple-basis / matrix-unit
comparison is a real check rather than a tautology.

Every algebra is generic over its SemiringSpec; with_scalars produces the same
structure over different scalars (in particular over a ring of differences),
and the to/from difference helpers move elements across that bridge.
"""

from __future__ import annotations

import copy
from random import Random
from typing import Any, Callable, Iterable, Mapping, Sequence

from .group import FiniteGroup, indices_of_mask
from .groupoid import Gamma, GammaElement, StandardElement, StandardGroupoid
from .semiring import (
    DeltaElement,
    SemiringPropertyError,
    SemiringSpec,
    delta_canonical,
    delta_of,
)


class BasisMismatchError(ValueError):
    """Arguments live in different algebras (or over different scalars)."""


class AlgebraElement:
    """A finitely supported scalar combination of basis indices.

    Equality is semantic: coefficients are compared with the scalar system's
    own equality, so unreduced difference pairs compare correctly. A support
    never holds a zero, so equal elements have equal supports and only the
    shared keys need a scalar comparison. Elements of different algebra
    instances never mix.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "SparseAlgebra", coeffs: dict[int, Any]):
        is_zero = algebra.scalars.is_zero
        self.algebra = algebra
        self.coeffs = {i: c for i, c in coeffs.items() if not is_zero(c)}

    def _check_same(self, other: "AlgebraElement") -> None:
        if self.algebra is not other.algebra:
            raise BasisMismatchError(
                f"cannot combine elements of {self.algebra!r} and {other.algebra!r}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        add = self.algebra.scalars.add
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = add(out[i], c) if i in out else c
        return AlgebraElement(self.algebra, out)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        alg = self.algebra
        return AlgebraElement(alg, alg.convolve(self.coeffs, other.coeffs))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        neg = self.algebra.scalars.neg
        if neg is None:
            raise SemiringPropertyError(
                f"{self.algebra.scalars.name} has no negation; subtraction "
                "needs the ring of differences")
        return self + AlgebraElement(self.algebra,
                                     {i: neg(c) for i, c in other.coeffs.items()})

    def scale(self, c) -> "AlgebraElement":
        mul = self.algebra.scalars.mul
        return AlgebraElement(self.algebra, {i: mul(c, v) for i, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        a, b = self.coeffs, other.coeffs
        if a.keys() != b.keys():
            return False
        eq = self.algebra.scalars.eq
        return all(eq(c, b[i]) for i, c in a.items())

    __hash__ = None  # semantic equality over unreduced scalars

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        alg = self.algebra
        fmt = alg.scalars.fmt
        parts = [f"{fmt(self.coeffs[i])}*{alg.describe_basis(i)}"
                 for i in sorted(self.coeffs)]
        return " + ".join(parts)


class SparseAlgebra:
    """Shared machinery: basis indexing, element builders, scalar changes."""

    def __init__(self, scalars: SemiringSpec, basis: Sequence, unit_indices: Sequence[int]):
        self.scalars = scalars
        self.basis = basis
        self.unit_indices = unit_indices
        self._variants: dict[SemiringSpec, SparseAlgebra] = {scalars: self}

    @property
    def size(self) -> int:
        return len(self.basis)

    def index_of(self, b) -> int:
        """The position of the basis object b; ValueError when b is not one."""
        i = self._position(b)
        if i is None:
            raise ValueError(f"{b!r} is not a basis element of {self!r}")
        return i

    def _position(self, b) -> int | None:
        raise NotImplementedError

    def _row(self, i: int) -> Sequence[int | None]:
        """Entry j is the index of the basis product i * j, or None where
        that product is undefined."""
        raise NotImplementedError

    def convolve(self, x: dict[int, Any], y: dict[int, Any]) -> dict[int, Any]:
        """Coefficients of the product of two elements given by their
        coefficient dicts: every support pair, undefined products dropped."""
        row_of = self._row
        sadd = self.scalars.add
        smul = self.scalars.mul
        out: dict[int, Any] = {}
        for i, a in x.items():
            row = row_of(i)
            for j, b in y.items():
                k = row[j]
                if k is None:
                    continue
                c = smul(a, b)
                out[k] = sadd(out[k], c) if k in out else c
        return out

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def one(self) -> AlgebraElement:
        one = self.scalars.one
        return AlgebraElement(self, {i: one for i in self.unit_indices})

    def basis_element(self, b, coeff=None) -> AlgebraElement:
        return AlgebraElement(self, {self.index_of(b): self.scalars.one if coeff is None else coeff})

    def element(self, pairs: Mapping | Iterable[tuple[Any, Any]]) -> AlgebraElement:
        """Build an element from (basis object, coefficient) pairs."""
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        add = self.scalars.add
        out: dict[int, Any] = {}
        for b, c in items:
            i = self.index_of(b)
            out[i] = add(out[i], c) if i in out else c
        return AlgebraElement(self, out)

    def random_element(self, rng: Random, terms: int = 3) -> AlgebraElement:
        S = self.scalars
        k = min(terms, self.size)
        picks = rng.sample(range(self.size), k)
        if S.sample is not None:
            draw: Callable[[], Any] = lambda: S.sample(rng)
        else:
            draw = lambda: rng.choice(S.carrier)
        return AlgebraElement(self, {i: draw() for i in picks})

    def with_scalars(self, scalars: SemiringSpec) -> "SparseAlgebra":
        """The same algebra over different scalars, cached per scalar system.

        A variant is a shallow copy with only the scalars replaced, so the
        whole family shares one basis; hopping base -> delta -> base lands on
        the original instance and element equality keeps working.
        """
        if scalars not in self._variants:
            variant = copy.copy(self)
            variant.scalars = scalars
            self._variants[scalars] = variant
        return self._variants[scalars]

    def describe_basis(self, i: int) -> str:
        return repr(self.basis[i])


class GammaAlgebra(SparseAlgebra):
    """The semialgebra of the groupoid of subset-element pairs."""

    def __init__(self, gamma: Gamma, scalars: SemiringSpec):
        super().__init__(scalars, gamma.elements, gamma.unit_indices)
        self.gamma = gamma

    def __repr__(self) -> str:
        return f"GammaAlgebra({self.gamma.group.name}, {self.scalars.name})"

    def _position(self, b) -> int | None:
        if not isinstance(b, GammaElement):
            return None
        try:
            self.gamma.element(b.mask, b.g)
        except ValueError:
            return None
        return self.gamma.position(b.mask, b.g)

    def convolve(self, x: dict[int, Any], y: dict[int, Any]) -> dict[int, Any]:
        # (I, g)(J, h) is defined iff I = hJ. A left term (I, g) composes
        # with at most |I| right terms, so probe from the left when the sum
        # of |I| over x is below |y|; stop summing once it reaches |y|.
        budget = len(y)
        masks = self.gamma.masks
        for i in x:
            budget -= masks[i].bit_count()
            if budget <= 0:
                return self._bucket_right(x, y)
        return self._probe_left(x, y)

    def _probe_left(self, x: dict[int, Any], y: dict[int, Any]) -> dict[int, Any]:
        # The right terms that compose with (I, g) are (h^-1 I, h) for h in
        # I, and both their positions and that of (h^-1 I, gh) are closed
        # form. Keys come in h order, not y's; each key still sums its
        # contributions in x order, one per left term.
        gamma = self.gamma
        masks = gamma.masks
        gs = gamma.gs
        start = gamma.start
        below = gamma.below
        group = gamma.group
        translate = group.left_translate
        inv = group.inv
        cayley = group.cayley
        sadd = self.scalars.add
        smul = self.scalars.mul
        out: dict[int, Any] = {}
        for i, a in x.items():
            mask = masks[i]
            row = cayley[gs[i]]
            for h in indices_of_mask(mask):
                src = translate(inv[h], mask)
                offset = start[src >> 1]
                b = y.get(offset + (src & below[h]).bit_count())
                if b is None:
                    continue
                k = offset + (src & below[row[h]]).bit_count()
                c = smul(a, b)
                out[k] = sadd(out[k], c) if k in out else c
        return out

    def _bucket_right(self, x: dict[int, Any], y: dict[int, Any]) -> dict[int, Any]:
        # Bucket y by hJ. Buckets keep y's order, so sums accumulate as in
        # the double loop; each entry carries J's start so (J, gh) is found
        # in closed form.
        gamma = self.gamma
        masks = gamma.masks
        gs = gamma.gs
        start = gamma.start
        below = gamma.below
        translate = gamma.group.left_translate
        buckets: dict[int, list[tuple[int, int, int, Any]]] = {}
        for j, b in y.items():
            mask = masks[j]
            h = gs[j]
            buckets.setdefault(translate(h, mask), []).append(
                (start[mask >> 1], mask, h, b))
        cayley = gamma.group.cayley
        sadd = self.scalars.add
        smul = self.scalars.mul
        out: dict[int, Any] = {}
        for i, a in x.items():
            bucket = buckets.get(masks[i])
            if bucket is None:
                continue
            row = cayley[gs[i]]
            for offset, mask, h, b in bucket:
                k = offset + (mask & below[row[h]]).bit_count()
                c = smul(a, b)
                out[k] = sadd(out[k], c) if k in out else c
        return out

    def describe_basis(self, i: int) -> str:
        return self.gamma.describe(self.basis[i])


class GroupAlgebra(SparseAlgebra):
    """The semialgebra of a group; every basis product is defined."""

    def __init__(self, group: FiniteGroup, scalars: SemiringSpec):
        super().__init__(scalars, tuple(group.elements()), (0,))
        self.group = group

    def __repr__(self) -> str:
        return f"GroupAlgebra({self.group.name}, {self.scalars.name})"

    def _row(self, i: int) -> Sequence[int]:
        # every product is defined: the Cayley row of i
        return self.group.cayley[i]

    def _position(self, b) -> int | None:
        return b if isinstance(b, int) and 0 <= b < self.group.order else None

    def describe_basis(self, i: int) -> str:
        return self.group.label(i)


class StandardAlgebra(SparseAlgebra):
    """The semialgebra of the standard groupoid of triples (h, i, j).

    Basis order is h-major, then range index, then source index, so the index
    arithmetic in a product row and in a triple's position is closed-form.
    """

    def __init__(self, groupoid: StandardGroupoid, scalars: SemiringSpec):
        m = groupoid.m
        units = tuple((0 * m + (i - 1)) * m + (i - 1) for i in range(1, m + 1))
        super().__init__(scalars, groupoid.elements, units)
        self.groupoid = groupoid

    def __repr__(self) -> str:
        return (f"StandardAlgebra({self.groupoid.H.name}, "
                f"m={self.groupoid.m}, {self.scalars.name})")

    def _row(self, i: int) -> list[int | None]:
        # (ha, ia, ja)(hb, ib, jb) is (ha hb, ia, jb) when ja = ib: the m
        # triples (hb, ja, *) map in order onto (ha hb, ia, *)
        m = self.groupoid.m
        ha, rem = divmod(i, m * m)
        ia, ja = divmod(rem, m)
        row: list[int | None] = [None] * self.size
        for hb, h in enumerate(self.groupoid.H.cayley[ha]):
            j = (hb * m + ja) * m
            k = (h * m + ia) * m
            row[j:j + m] = range(k, k + m)
        return row

    def _position(self, b) -> int | None:
        m = self.groupoid.m
        if (isinstance(b, StandardElement) and 0 <= b.h < self.groupoid.H.order
                and 1 <= b.i <= m and 1 <= b.j <= m):
            return (b.h * m + b.i - 1) * m + b.j - 1
        return None

    def describe_basis(self, i: int) -> str:
        el = self.basis[i]
        return f"({self.groupoid.H.label(el.h)},{el.i},{el.j})"


# ---------------------------------------------------------------------------
# Matrix semialgebras, kept as maps of their nonzero group-algebra cells.

class MatrixAlgebra:
    """m x m matrices over a group semialgebra, multiplied the usual way."""

    def __init__(self, entries: GroupAlgebra, m: int):
        if m < 1:
            raise ValueError(f"need at least one row, got m={m}")
        self.entries = entries
        self.m = m
        self._variants: dict[SemiringSpec, MatrixAlgebra] = {entries.scalars: self}

    @property
    def scalars(self) -> SemiringSpec:
        return self.entries.scalars

    def __repr__(self) -> str:
        return f"MatrixAlgebra({self.entries.group.name}, m={self.m}, {self.scalars.name})"

    def with_scalars(self, scalars: SemiringSpec) -> "MatrixAlgebra":
        if scalars not in self._variants:
            variant = MatrixAlgebra(self.entries.with_scalars(scalars), self.m)
            variant._variants = self._variants
            self._variants[scalars] = variant
        return self._variants[scalars]

    def _check_position(self, i: int, j: int) -> None:
        if not (1 <= i <= self.m and 1 <= j <= self.m):
            raise ValueError(f"matrix position ({i},{j}) out of range for m={self.m}")

    def zero(self) -> "MatrixElement":
        return MatrixElement(self, {})

    def one(self) -> "MatrixElement":
        e = self.entries.basis_element(0)
        return MatrixElement(self, {(i, i): e for i in range(1, self.m + 1)})

    def matrix_unit(self, i: int, j: int, entry: AlgebraElement | None = None) -> "MatrixElement":
        """The matrix with one nonzero entry at 1-based position (i, j)."""
        self._check_position(i, j)
        if entry is None:
            entry = self.entries.basis_element(0)
        if entry.algebra is not self.entries:
            raise BasisMismatchError("entry belongs to a different group algebra")
        return MatrixElement(self, {(i, j): entry})

    def element(self, rows: Iterable[Iterable[AlgebraElement]]) -> "MatrixElement":
        """Build a matrix from a dense grid of entries, zeros included."""
        grid = tuple(tuple(row) for row in rows)
        if len(grid) != self.m or any(len(row) != self.m for row in grid):
            raise ValueError(f"need an {self.m}x{self.m} grid")
        for row in grid:
            for entry in row:
                if entry.algebra is not self.entries:
                    raise BasisMismatchError("entry belongs to a different group algebra")
        return MatrixElement(self, {(r, c): entry for r, row in enumerate(grid, start=1)
                                    for c, entry in enumerate(row, start=1)})

    def random_element(self, rng: Random, terms: int = 2) -> "MatrixElement":
        span = range(1, self.m + 1)
        return MatrixElement(self, {(r, c): self.entries.random_element(rng, terms)
                                    for r in span for c in span})


class MatrixElement:
    """A matrix over a group semialgebra with matrix addition and product.

    cells maps a 1-based position (i, j) to its entry. It holds only the
    nonzero entries, in row-major order, so equal matrices have equal key
    sets and a product visits only the pairs of cells that meet.
    """

    __slots__ = ("algebra", "cells")

    def __init__(self, algebra: MatrixAlgebra, cells: Mapping[tuple[int, int], AlgebraElement]):
        self.algebra = algebra
        self.cells = {pos: cells[pos] for pos in sorted(cells) if cells[pos].coeffs}

    def _check_same(self, other: "MatrixElement") -> None:
        if self.algebra is not other.algebra:
            raise BasisMismatchError(
                f"cannot combine elements of {self.algebra!r} and {other.algebra!r}")

    def entry(self, i: int, j: int) -> AlgebraElement:
        """The entry at 1-based position (i, j)."""
        self.algebra._check_position(i, j)
        cell = self.cells.get((i, j))
        return self.algebra.entries.zero() if cell is None else cell

    def __add__(self, other: "MatrixElement") -> "MatrixElement":
        self._check_same(other)
        out = dict(self.cells)
        for pos, b in other.cells.items():
            out[pos] = out[pos] + b if pos in out else b
        return MatrixElement(self.algebra, out)

    def __sub__(self, other: "MatrixElement") -> "MatrixElement":
        self._check_same(other)
        zero = self.algebra.entries.zero()
        # (1, 1) stands in when both sides are zero, so that scalars without
        # negation refuse the subtraction whatever the operands
        positions = self.cells.keys() | other.cells.keys() or {(1, 1)}
        return MatrixElement(self.algebra, {
            pos: self.cells.get(pos, zero) - other.cells.get(pos, zero)
            for pos in positions})

    def __mul__(self, other: "MatrixElement") -> "MatrixElement":
        self._check_same(other)
        entries = self.algebra.entries
        right_rows: dict[int, list[tuple[int, AlgebraElement]]] = {}
        for (k, j), b in other.cells.items():
            right_rows.setdefault(k, []).append((j, b))
        dot = entries.scalars.dot
        if dot is not None:
            return self._gathered_product(right_rows, dot)
        convolve = entries.convolve
        sadd = entries.scalars.add
        is_zero = entries.scalars.is_zero
        # The left cells come in row-major order, so each cell (i, j) sums
        # over k in ascending order in one dict. It drops a product
        # coefficient or a partial sum the moment it is zero, as a * b and +
        # would, so values and key order are theirs.
        sums: dict[tuple[int, int], dict[int, Any]] = {}
        for (i, k), a in self.cells.items():
            for j, b in right_rows.get(k, ()):
                acc = sums.setdefault((i, j), {})
                for key, c in convolve(a.coeffs, b.coeffs).items():
                    if is_zero(c):
                        continue
                    if key in acc:
                        c = sadd(acc[key], c)
                        if is_zero(c):
                            del acc[key]
                            continue
                    acc[key] = c
        return MatrixElement(self.algebra, {pos: AlgebraElement(entries, acc)
                                            for pos, acc in sums.items()})

    def _gathered_product(self, right_rows: dict[int, list[tuple[int, AlgebraElement]]],
                          dot: Callable[[list[tuple[Any, Any]]], Any]) -> "MatrixElement":
        # Each coefficient (i, j, h) gathers its (a, b) pairs in the order
        # the per-term loop adds them: k ascending, then the left entry's
        # keys, then the right entry's. Keys come in first-contribution
        # order, as there. Scalars with dot have no zero divisors and no
        # sums that cancel, so nothing the loop drops can arise here.
        entries = self.algebra.entries
        row_of = entries._row
        terms: dict[tuple[int, int], dict[int, list[tuple[Any, Any]]]] = {}
        for (i, k), a in self.cells.items():
            for j, b in right_rows.get(k, ()):
                cell = terms.setdefault((i, j), {})
                right = b.coeffs.items()
                for g, x in a.coeffs.items():
                    row = row_of(g)
                    for h, y in right:
                        gh = row[h]
                        if gh in cell:
                            cell[gh].append((x, y))
                        else:
                            cell[gh] = [(x, y)]
        return MatrixElement(self.algebra, {
            pos: AlgebraElement(entries, {gh: dot(pairs) for gh, pairs in cell.items()})
            for pos, cell in terms.items()})

    def scale(self, c) -> "MatrixElement":
        return MatrixElement(self.algebra, {pos: entry.scale(c)
                                            for pos, entry in self.cells.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixElement):
            return NotImplemented
        self._check_same(other)
        a, b = self.cells, other.cells
        return a.keys() == b.keys() and all(entry == b[pos] for pos, entry in a.items())

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return not self.cells

    def __repr__(self) -> str:
        span = range(1, self.algebra.m + 1)
        body = "; ".join(" ".join(f"[{self.entry(r, c)!r}]" for c in span) for r in span)
        return f"<{body}>"


# ---------------------------------------------------------------------------
# The triple-basis / matrix-unit comparison.

def standard_to_matrix(x: AlgebraElement, target: MatrixAlgebra) -> MatrixElement:
    """Send the triple (h, i, j) to h times the (i, j) matrix unit, linearly."""
    alg = x.algebra
    if not isinstance(alg, StandardAlgebra):
        raise BasisMismatchError(f"expected a triple-basis element, got {alg!r}")
    if target.m != alg.groupoid.m or target.entries.group is not alg.groupoid.H:
        raise BasisMismatchError(f"{target!r} does not match {alg!r}")
    cells: dict[tuple[int, int], dict[int, Any]] = {}
    add = target.scalars.add
    for i, c in x.coeffs.items():
        el = alg.basis[i]
        cell = cells.setdefault((el.i, el.j), {})
        cell[el.h] = add(cell[el.h], c) if el.h in cell else c
    return MatrixElement(target, {pos: AlgebraElement(target.entries, cell)
                                  for pos, cell in cells.items()})


def tensor_phi(A: Iterable[Iterable[Any]], w: AlgebraElement,
               target: MatrixAlgebra) -> MatrixElement:
    """The pure tensor of a scalar matrix with a group-algebra element.

    The (i, j) entry of the result is A[i][j] * w. Together with
    standard_to_matrix (its linear extension along the basis of pure tensors
    e_ij tensor h) this realizes the matrix algebra as a tensor product of
    the scalar matrix algebra with the group algebra. A scalar object that
    fills several cells is multiplied into w once; elements are never
    mutated, so those cells share the product. The grid holds every scalar
    until the result is built, so an id names one scalar throughout.
    """
    if w.algebra is not target.entries:
        raise BasisMismatchError("entry element belongs to a different group algebra")
    grid = tuple(tuple(row) for row in A)
    if len(grid) != target.m or any(len(row) != target.m for row in grid):
        raise ValueError(f"need an {target.m}x{target.m} scalar grid")
    scaled: dict[int, AlgebraElement] = {}
    for row in grid:
        for a in row:
            if id(a) not in scaled:
                scaled[id(a)] = w.scale(a)
    return MatrixElement(target, {(r, c): scaled[id(a)] for r, row in enumerate(grid, start=1)
                                  for c, a in enumerate(row, start=1)})


def tensor_varphi(X: MatrixElement, target: StandardAlgebra) -> AlgebraElement:
    """Expand a matrix into the triple basis: entry h at (i, j) -> (h, i, j)."""
    alg = X.algebra
    if target.groupoid.m != alg.m or target.groupoid.H is not alg.entries.group:
        raise BasisMismatchError(f"{target!r} does not match {alg!r}")
    return target.element([(StandardElement(h, r, c), coeff)
                           for (r, c), entry in X.cells.items()
                           for h, coeff in entry.coeffs.items()])


def matrix_algebra_for(standard: StandardAlgebra) -> MatrixAlgebra:
    """The matrix algebra a triple-basis algebra compares against."""
    entries = GroupAlgebra(standard.groupoid.H, standard.scalars)
    return MatrixAlgebra(entries, standard.groupoid.m)


# ---------------------------------------------------------------------------
# Moving across the ring-of-differences bridge.
#
# An element over the ring of differences has two equivalent representations:
# coefficients that are difference pairs, or a pair of elements over the base
# scalars. delta_extension converts the first into the second; DeltaPair
# carries the arithmetic of the second.

class DeltaPair:
    """A formal difference pos - neg of two elements over the base scalars.

    Equality is the cross-sum comparison pos + other.neg == other.pos + neg;
    the product expands the difference of products the usual way.
    """

    __slots__ = ("pos", "neg")

    def __init__(self, pos: AlgebraElement, neg: AlgebraElement):
        if pos.algebra is not neg.algebra:
            raise BasisMismatchError("both halves of a pair must share an algebra")
        self.pos = pos
        self.neg = neg

    def __add__(self, other: "DeltaPair") -> "DeltaPair":
        return DeltaPair(self.pos + other.pos, self.neg + other.neg)

    def __mul__(self, other: "DeltaPair") -> "DeltaPair":
        return DeltaPair(self.pos * other.pos + self.neg * other.neg,
                         self.pos * other.neg + self.neg * other.pos)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaPair):
            return NotImplemented
        return self.pos + other.neg == other.pos + self.neg

    __hash__ = None

    def __repr__(self) -> str:
        return f"({self.pos!r}) - ({self.neg!r})"


def delta_extension(x: AlgebraElement) -> DeltaPair:
    """Split pair-valued coefficients into a pair of base-scalar elements.

    The inverse direction is delta_extension_inverse; both are bijective up to
    the respective equalities and multiplicative, which the test suite checks
    on sampled elements.
    """
    S = x.algebra.scalars
    if not S.is_delta:
        raise SemiringPropertyError(
            f"{S.name} is not a ring of differences; nothing to split")
    base_alg = x.algebra.with_scalars(S.base)
    pos: dict[int, Any] = {}
    neg: dict[int, Any] = {}
    for i, c in x.coeffs.items():
        pos[i] = c.pos
        neg[i] = c.neg
    return DeltaPair(AlgebraElement(base_alg, pos), AlgebraElement(base_alg, neg))


def delta_extension_inverse(p: DeltaPair) -> AlgebraElement:
    """Merge a pair of base-scalar elements into pair-valued coefficients."""
    base_alg = p.pos.algebra
    S = base_alg.scalars
    dalg = base_alg.with_scalars(delta_of(S))
    out: dict[int, Any] = {}
    for i in p.pos.coeffs.keys() | p.neg.coeffs.keys():
        out[i] = DeltaElement(p.pos.coeffs.get(i, S.zero), p.neg.coeffs.get(i, S.zero))
    return AlgebraElement(dalg, out)


def element_to_delta(x: AlgebraElement) -> AlgebraElement:
    """The same element with coefficients embedded as difference pairs."""
    S = x.algebra.scalars
    dalg = x.algebra.with_scalars(delta_of(S))
    return AlgebraElement(dalg, {i: DeltaElement(c, S.zero) for i, c in x.coeffs.items()})


def _pull_back(S, coeffs):
    """Coefficients over delta_of(S) split into the values v - 0 of S, by
    key, and the (key, pair) of every other coefficient, in dict order."""
    out, outside = {}, []
    for i, c in coeffs.items():
        v = delta_canonical(S, c)
        if v is None:
            outside.append((i, c))
        else:
            out[i] = v
    return out, outside


def element_from_delta(x: AlgebraElement, base: SparseAlgebra
                       ) -> tuple[AlgebraElement | None, list[tuple[Any, DeltaElement]]]:
    """Pull an element over a ring of differences back to the base scalars.

    Returns (element, []) when every coefficient is a difference of the form
    v - 0, and (None, failures) otherwise; failures lists the offending
    (basis object, difference pair) witnesses by basis index.
    """
    S = base.scalars
    dalg = base.with_scalars(delta_of(S))
    if x.algebra is not dalg:
        raise BasisMismatchError(
            f"element lives in {x.algebra!r}, not the difference variant of {base!r}")
    out, outside = _pull_back(S, x.coeffs)
    if outside:
        # keys are distinct, so sorting never compares two pairs
        return None, [(base.basis[i], c) for i, c in sorted(outside)]
    return AlgebraElement(base, out), []


def matrix_to_delta(X: MatrixElement) -> MatrixElement:
    """The same matrix with every entry lifted by element_to_delta."""
    dalg = X.algebra.with_scalars(delta_of(X.algebra.scalars))
    return MatrixElement(dalg, {pos: element_to_delta(entry)
                                for pos, entry in X.cells.items()})


def matrix_from_delta(X: MatrixElement, base: MatrixAlgebra
                      ) -> tuple[MatrixElement | None, list[tuple[Any, DeltaElement]]]:
    """Entrywise version of element_from_delta; witnesses are ((h, i, j), pair)."""
    S = base.scalars
    dalg = base.with_scalars(delta_of(S))
    if X.algebra is not dalg:
        raise BasisMismatchError(
            f"matrix lives in {X.algebra!r}, not the difference variant of {base!r}")
    cells: dict[tuple[int, int], AlgebraElement] = {}
    failures: list[tuple[Any, DeltaElement]] = []
    for (r, c), entry in X.cells.items():
        out, outside = _pull_back(S, entry.coeffs)
        failures.extend(((h, r, c), pair) for h, pair in outside)
        cells[r, c] = AlgebraElement(base.entries, out)
    if failures:
        return None, failures
    return MatrixElement(base, cells), []
