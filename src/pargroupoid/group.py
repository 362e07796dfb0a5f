"""Finite groups as validated Cayley tables, with subsets held as bitmasks.

Element indices run 0..order-1 with the identity at index 0. A subset of the
group is an int whose bit x is set when element x belongs to the subset; all
subset operations (translation, stabilizers, cosets) work on these masks.
Subset walks refuse groups larger than a configurable bound, and any group
above MAX_ORDER_BOUND, because they visit all 2^(order-1) subsets containing
the identity. The subgroup lattice walks none; it stops only at MAX_ORDER_BOUND.
"""

from __future__ import annotations

import json
import os
import re
import stat
from functools import reduce
from itertools import permutations, product, repeat
from operator import add, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

# Orders above this make full subset enumeration infeasible on a desk machine.
DEFAULT_ORDER_BOUND = 16

# The seed of every sampled check unless one is given; it lives in this base
# module so that the command line can offer it without loading the scalars.
DEFAULT_SEED = 0xC0FFEE

# No bound lifts a subset walk past this order. It is the largest walk CI
# runs (the 2^23 subsets of S4, about 15 s); at orders 30 and 40 a walk runs
# out of memory instead of finishing. The subgroup lattice stops here too.
MAX_ORDER_BOUND = 24

# Byte positions in a mask of the largest group a subset walk takes.
_TABLE_POSITIONS = (MAX_ORDER_BOUND + 7) // 8

# cyclic:n and dihedral:n build and validate a full Cayley table, so their
# order is capped; order 1024 is a million entries.
MAX_TABLE_ORDER = 1024

_SPEC_RE = re.compile(r"^(cyclic|sym|dihedral):([0-9]+)$")


class GroupTableError(ValueError):
    """A Cayley table fails validation; row/col point at the offending entry."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class GroupSpecError(ValueError):
    """A group specification string does not match the grammar."""


class GroupOrderBoundError(ValueError):
    """The group is larger than the configured enumeration bound."""


# Raised by partial_rep's reader; defined here, and re-exported there, so
# that the command line catches it without loading the algebra layers.
class PartialActionFormatError(ValueError):
    """The description of a partial action is structurally malformed."""


def mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for x in indices:
        mask |= 1 << x
    return mask


def _byte_tables(parts: Sequence, empty) -> list[list]:
    """Per byte position c, the sums of parts over the bit patterns of a byte.

    Entry b of table c adds parts[8c + x] over the set bits x of b, in
    ascending x, starting from empty; a partial last byte gets 2^r entries.
    Each table is built by doubling, one part at a time. The parts may be
    ints with disjoint bits (so + is |), strings, bytes or tuples.
    """
    tables = []
    for lo in range(0, len(parts), 8):
        table = [empty]
        for part in parts[lo:lo + 8]:
            table += [t + part for t in table]
        tables.append(table)
    return tables


def _sums_over_masks_with_e(tables: list[list]) -> Iterator:
    """For each mask containing e (bit 0), ascending, the sum over its byte
    positions c, lowest first, of tables[c][byte c of the mask].

    Only the 2^7 odd entries of the lowest position are held as a list; the
    higher positions are walked as a product, the top one slowest.
    """
    low, *high = tables
    empty = low[0]
    low = low[1::2]
    for parts in product(*reversed(high)):
        yield from map(add, low, repeat(reduce(add, reversed(parts), empty)))


# _BYTE_BITS[c][b] lists the elements 8c + x for the set bits x of the byte
# value b, so a mask's elements are the entries of its bytes joined in order.
# A byte position is added when a mask first reaches it.
_BYTE_BITS: list[list[tuple[int, ...]]] = []


def _add_byte_positions(bit_length: int) -> None:
    while 8 * len(_BYTE_BITS) < bit_length:
        base = 8 * len(_BYTE_BITS)
        _BYTE_BITS.extend(_byte_tables([(base + x,) for x in range(8)], ()))


def indices_of_mask(mask: int) -> list[int]:
    """The elements of a subset mask, ascending, one byte table entry per byte."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    if mask >> 8 * len(_BYTE_BITS):
        _add_byte_positions(mask.bit_length())
    out: list[int] = []
    for table in _BYTE_BITS:
        if not mask:
            break
        out += table[mask & 255]
        mask >>= 8
    return out


def _check_associative(rows: tuple[tuple[int, ...], ...]) -> None:
    """Raise GroupTableError at the least (i, j, k) with (i*j)*k != i*(j*k).

    The slab of i checks (i*j)*k == i*(j*k) for all j, k. The elements whose
    slabs pass are closed under products (Light's associativity test, with
    the tested element on the left instead of in the middle; Clifford and
    Preston, The Algebraic Theory of Semigroups I, 1.2), so an element
    reached from the identity by right multiplication with passed elements
    needs no check. Candidates go in ascending order: an associative table
    costs one slab per greedy generator, and the first failing slab is that
    of the least witness.
    """
    n = len(rows)
    # compose[j](rows[i]) is the row k -> i*(j*k)
    compose = [itemgetter(*row) for row in rows]
    gens: list[int] = []
    reached = {0}
    for i in range(1, n):
        if i in reached:
            continue
        row_i = rows[i]
        for j, right in enumerate(compose):
            left, got = rows[row_i[j]], right(row_i)
            if left != got:
                k = next(k for k in range(n) if left[k] != got[k])
                raise GroupTableError(
                    f"associativity fails at ({i}*{j})*{k} != {i}*({j}*{k})",
                    row=i, col=j)
        gens.append(i)
        stack = list(reached)
        while stack:
            x = rows[stack.pop()]
            for g in gens:
                if x[g] not in reached:
                    reached.add(x[g])
                    stack.append(x[g])


class FiniteGroup:
    """A finite group on element indices 0..order-1 with the identity at 0.

    The constructor validates the full set of axioms, in this order: entry
    range, identity row/column, Latin square property, and associativity (see
    _check_associative). Two-sided inverses follow: an associative Latin
    square with an identity is a group.
    """

    def __init__(self, table: Sequence[Sequence[int]],
                 labels: Sequence[str] | None = None, name: str = "table"):
        n = len(table)
        if n == 0:
            raise GroupTableError("empty Cayley table")
        for i, row in enumerate(table):
            if len(row) != n:
                raise GroupTableError(
                    f"row {i} has {len(row)} entries, expected {n}", row=i)
        rows = tuple(tuple(map(int, row)) for row in table)
        for i, row in enumerate(rows):
            if min(row) < 0 or max(row) >= n:
                j = next(j for j, x in enumerate(row) if not 0 <= x < n)
                raise GroupTableError(
                    f"entry {row[j]} at row {i}, col {j} is outside 0..{n - 1}",
                    row=i, col=j)
        idx = tuple(range(n))
        cols = tuple(zip(*rows))
        if rows[0] != idx:
            j = next(j for j in idx if rows[0][j] != j)
            raise GroupTableError(
                f"identity must sit at index 0: row 0, col {j} holds "
                f"{rows[0][j]}, expected {j}", row=0, col=j)
        if cols[0] != idx:
            i = next(i for i in idx if cols[0][i] != i)
            raise GroupTableError(
                f"identity must sit at index 0: row {i}, col 0 holds "
                f"{cols[0][i]}, expected {i}", row=i, col=0)
        for i, row in enumerate(rows):
            if len(set(row)) != n:
                raise GroupTableError(f"row {i} is not a permutation", row=i)
        j = next((j for j, col in enumerate(cols) if len(set(col)) != n), None)
        if j is not None:
            raise GroupTableError(f"col {j} is not a permutation", col=j)
        _check_associative(rows)
        inv = tuple(row.index(0) for row in rows)

        self.order = n
        self.full_mask = (1 << n) - 1
        self.cayley = rows
        self.inv = inv
        self.name = name
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise GroupTableError(
                    f"{len(labels)} labels for {n} elements")
            if len(set(labels)) != n:
                dup = next(s for i, s in enumerate(labels) if s in labels[:i])
                raise GroupTableError(f"label {dup!r} names more than one element")
            self.labels = labels
        else:
            self.labels = ("e",) + tuple(f"g{i}" for i in range(1, n))
        self._subgroups: dict[int, Subgroup] | None = None
        self._translate_tables: list[tuple[Sequence[int], ...] | None] = [None] * n

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def label(self, a: int) -> str:
        return self.labels[a]

    def left_translate(self, g: int, mask: int) -> int:
        """The subset g*I as a mask, read from the byte tables of g.

        g*I is the OR of one entry of `translate_tables(g)` per byte of I.
        A mask outside 0..full_mask raises ValueError.
        """
        if mask < 0 or mask > self.full_mask:
            raise ValueError(
                f"mask {mask} is not a subset of a group of order {self.order}")
        out = 0
        for table in self._translate_tables[g] or self.translate_tables(g):
            out |= table[mask & 255]
            mask >>= 8
        return out

    def translate_tables(self, g: int) -> tuple[Sequence[int], ...]:
        """The byte tables of left translation by g, built on first use.

        Byte c of a mask I holds the elements 8c..8c+7, and tables[c][b] is
        the mask of g*x over the elements x of byte value b, so g*I is the OR
        of one entry per byte. A table has 2^8 entries (2^r for a partial
        last byte of r elements); a group holds at most n * ceil(n/8) * 256
        of these ints, 8,192 at order 16, and none until it translates.
        Tables past the last byte, up to the _TABLE_POSITIONS that a subset
        walk can reach, are (0,): a subset has a zero byte there. So a walk
        reads three entries at every order it allows.
        """
        tables = self._translate_tables[g]
        if tables is None:
            # entry b ORs the image bits of the set bits of b; they are disjoint
            tables = tuple(_byte_tables([1 << y for y in self.cayley[g]], 0))
            tables += ((0,),) * (_TABLE_POSITIONS - len(tables))
            self._translate_tables[g] = tables
        return tables

    def conjugate_mask(self, g: int, mask: int) -> int:
        """The subset g*I*g^-1 as a mask."""
        row, gi = self.cayley[g], self.inv[g]
        return mask_from_indices(self.cayley[row[x]][gi]
                                 for x in indices_of_mask(mask))

    def subset_repr(self, mask: int) -> str:
        return "{" + ",".join(self.labels[x] for x in indices_of_mask(mask)) + "}"


class Subgroup:
    """A subgroup given by its element mask; closure is validated on build.

    Two compare equal, and hash alike, when their group and mask are equal.
    """

    __slots__ = ("group", "mask")

    def __init__(self, group: FiniteGroup, mask: int):
        self.group = group
        self.mask = mask
        G = group
        if not mask & 1:
            raise ValueError(f"subgroup {G.subset_repr(mask)} misses the identity")
        elems = indices_of_mask(mask)
        rows, inv = G.cayley, G.inv
        for a in elems:
            if not mask >> inv[a] & 1:
                raise ValueError(
                    f"subset {G.subset_repr(mask)} not closed under inverse of "
                    f"{G.label(a)}")
            row = rows[a]
            for b in elems:
                if not mask >> row[b] & 1:
                    raise ValueError(
                        f"subset {G.subset_repr(mask)} not closed under "
                        f"{G.label(a)}*{G.label(b)}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.group == other.group and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.group, self.mask))

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def elements(self) -> list[int]:
        return indices_of_mask(self.mask)

    def __repr__(self) -> str:
        return f"Subgroup({self.group.subset_repr(self.mask)})"


# ---------------------------------------------------------------------------
# Constructors.

def _cyclic(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    return FiniteGroup(table, labels[:n], name=f"cyclic:{n}")


def _klein4() -> FiniteGroup:
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return FiniteGroup(table, ("e", "a", "b", "c"), name="klein4")


def _sym(n: int) -> FiniteGroup:
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    labels = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(table, labels, name=f"sym:{n}")


def _dihedral(n: int) -> FiniteGroup:
    # Element s*n + k acts on Z_n as x -> (-1)^s * x + k.
    def compose(s1, k1, s2, k2):
        s = s1 ^ s2
        k = (k1 + (k2 if s1 == 0 else -k2)) % n
        return s * n + k

    table = [[compose(i // n, i % n, j // n, j % n)
              for j in range(2 * n)] for i in range(2 * n)]
    labels = ["e" if k == 0 else f"r{k}" if k > 1 else "r" for k in range(n)]
    labels += ["s" if k == 0 else f"sr{k}" if k > 1 else "sr" for k in range(n)]
    return FiniteGroup(table, labels, name=f"dihedral:{n}")


def read_json(path: str, error: type[ValueError]):
    """Parse the JSON file at path.

    A path that is not a regular file (a device such as /dev/zero that never
    ends, or a FIFO that blocks the reader) raises `error` before it is
    opened. Malformed JSON raises json.JSONDecodeError; bytes that are not
    UTF-8, integers longer than the interpreter converts, and nesting too
    deep for the decoder raise `error` with a one-line message.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise error(f"{path} is not a regular file")
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:
        raise error(f"{path} is not a readable JSON document: {exc}") from None


def from_table(doc: dict, name: str = "table") -> FiniteGroup:
    """Build a group from a parsed {"order", "table", "labels"?} document."""
    if not isinstance(doc, dict):
        raise GroupTableError(f"expected a JSON object, got {type(doc).__name__}")
    for key in ("order", "table"):
        if key not in doc:
            raise GroupTableError(f"missing key {key!r}")
    n = doc["order"]
    table = doc["table"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GroupTableError(f"order must be a positive integer, got {n!r}")
    if not isinstance(table, list) or len(table) != n:
        raise GroupTableError(
            f"table must be a list of {n} rows, got {len(table) if isinstance(table, list) else type(table).__name__}")
    for i, row in enumerate(table):
        if not isinstance(row, list):
            raise GroupTableError(f"row {i} is not a list", row=i)
        for j, x in enumerate(row):
            # bool is a subclass of int, but JSON true/false are not entries
            if not isinstance(x, int) or isinstance(x, bool):
                raise GroupTableError(
                    f"entry at row {i}, col {j} is not an integer", row=i, col=j)
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise GroupTableError(f"labels must be a list, got {type(labels).__name__}")
    return FiniteGroup(table, labels, name=name)


def make_group(spec: str) -> FiniteGroup:
    """Build a group from a spec string.

    Grammar: cyclic:n (n>=1) | klein4 | sym:n (1<=n<=5) | dihedral:n (n>=1,
    order 2n) | table:<path to JSON {"order", "table", "labels"?}>.
    Grammar violations raise GroupSpecError; a bad table raises GroupTableError.
    A cyclic or dihedral order above MAX_TABLE_ORDER raises
    GroupOrderBoundError before any table is built.
    """
    if spec == "klein4":
        return _klein4()
    if spec.startswith("table:"):
        path = spec[len("table:"):]
        if not path:
            raise GroupSpecError("table: needs a file path")
        return from_table(read_json(path, GroupTableError), name=spec)
    m = _SPEC_RE.match(spec)
    if m is None:
        raise GroupSpecError(
            f"bad group spec {spec!r}; expected cyclic:n, klein4, sym:n, "
            "dihedral:n, or table:<path>")
    kind, digits = m.group(1), m.group(2).lstrip("0") or "0"
    shown = (f"{kind}:{digits}" if len(digits) <= 12
             else f"{kind}:{digits[:8]}... ({len(digits)} digits)")
    # A parameter with more digits than the cap is past every cap, so it is
    # never converted: int() refuses strings of more than 4,300 digits.
    n = int(digits) if len(digits) <= len(str(MAX_TABLE_ORDER)) else None
    if n == 0:
        raise GroupSpecError(f"{shown}: order parameter must be at least 1")
    if kind == "sym":
        if n is None or n > 5:
            raise GroupSpecError(f"{shown}: factorial growth; n is capped at 5")
        return _sym(n)
    if n is None or (n if kind == "cyclic" else 2 * n) > MAX_TABLE_ORDER:
        raise GroupOrderBoundError(
            f"{shown}: the order exceeds {MAX_TABLE_ORDER}, the cap on "
            "built Cayley tables")
    return _cyclic(n) if kind == "cyclic" else _dihedral(n)


# ---------------------------------------------------------------------------
# Subset machinery.

def stabilizer_of_subset(G: FiniteGroup, mask: int) -> Subgroup:
    """The subgroup {g : g*I = I} of a subset I containing the identity.

    Only g in I are tried: g*I = I puts g = g*e in I.
    """
    if not mask & 1:
        raise ValueError(f"subset {G.subset_repr(mask)} does not contain the identity")
    stab = 0
    for g in indices_of_mask(mask):
        if G.left_translate(g, mask) == mask:
            stab |= 1 << g
    return _lattice_subgroup(G, stab)


def _check_bound(G: FiniteGroup, bound: int | None, what: str) -> None:
    """Refuse a subset walk of G above the bound, or above MAX_ORDER_BOUND."""
    limit = DEFAULT_ORDER_BOUND if bound is None else bound
    if G.order > min(limit, MAX_ORDER_BOUND):
        cap = (f"the bound {limit}" if limit <= MAX_ORDER_BOUND
               else f"the hard ceiling {MAX_ORDER_BOUND} on any bound")
        raise GroupOrderBoundError(
            f"{what} walks all subsets of the group; order {G.order} exceeds {cap}")


def _closure_mask(G: FiniteGroup, mask: int) -> int:
    rows, inv = G.cayley, G.inv
    closed = 1
    frontier = mask | 1
    while frontier:
        new = 0
        for a in indices_of_mask(frontier):
            row = rows[a]
            new |= 1 << inv[a]
            for b in indices_of_mask(closed | frontier):
                new |= 1 << row[b] | 1 << rows[b][a]
        closed |= frontier
        frontier = new & ~closed
    return closed


def _lattice(G: FiniteGroup) -> dict[int, Subgroup]:
    """Every subgroup by mask, in (order, mask) order; built once per group.

    The lattice grows by incremental closure, with no bound; a group above
    MAX_ORDER_BOUND is refused.
    """
    if G._subgroups is not None:
        return G._subgroups
    if G.order > MAX_ORDER_BOUND:
        raise GroupOrderBoundError(f"subgroup enumeration: order {G.order} "
                                   f"exceeds the hard ceiling {MAX_ORDER_BOUND}")
    found = {1}
    frontier = {1}
    while frontier:
        nxt = set()
        for hmask in frontier:
            for g in range(1, G.order):
                if hmask >> g & 1:
                    continue
                c = _closure_mask(G, hmask | (1 << g))
                if c not in found:
                    found.add(c)
                    nxt.add(c)
        frontier = nxt
    G._subgroups = {m: Subgroup(G, m)
                    for m in sorted(found, key=lambda m: (m.bit_count(), m))}
    return G._subgroups


def subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All subgroups, by incremental closure; sorted by (order, mask).

    The lattice is walked once per group, with no bound, and kept on it; a
    group above MAX_ORDER_BOUND is refused. Each call returns a fresh list.
    """
    return list(_lattice(G).values())


def _lattice_subgroup(G: FiniteGroup, mask: int) -> Subgroup:
    """The Subgroup of mask as the lattice of G holds it.

    Walks that meet the same few subgroups many times take them from here,
    so each is built and validated once per group. A mask the lattice lacks,
    or any mask of a group above MAX_ORDER_BOUND, which has no lattice, is
    built as Subgroup(G, mask), whose closure check raises ValueError when
    it is no subgroup.
    """
    H = _lattice(G).get(mask) if G.order <= MAX_ORDER_BOUND else None
    return Subgroup(G, mask) if H is None else H


def conjugacy_classes_of_subgroups(G: FiniteGroup) -> list[list[Subgroup]]:
    """Subgroups grouped into conjugacy classes.

    Classes are sorted by (order, least mask); the first entry of each class,
    its least mask, is the canonical representative.
    """
    all_subs = subgroups(G)
    seen: set[int] = set()
    classes: list[list[Subgroup]] = []
    for H in all_subs:
        if H.mask in seen:
            continue
        orbit = sorted({G.conjugate_mask(g, H.mask) for g in G.elements()})
        seen.update(orbit)
        classes.append([_lattice_subgroup(G, m) for m in orbit])
    classes.sort(key=lambda cls: (cls[0].order, cls[0].mask))
    return classes


def subgroup_as_group(G: FiniteGroup, H: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Re-index a subgroup as a standalone group.

    Returns (K, elems) where elems[i] is the ambient index of K's element i;
    the ambient identity sits at 0 because masks list elements in index order.
    """
    elems = tuple(H.elements())
    pos = {x: i for i, x in enumerate(elems)}
    table = [[pos[G.mul(a, b)] for b in elems] for a in elems]
    labels = [G.label(x) for x in elems]
    name = f"{G.name}<{G.subset_repr(H.mask)}>"
    return FiniteGroup(table, labels, name=name), elems


def generating_set(H: Subgroup) -> list[int]:
    """A small generating set, chosen greedily by least element index."""
    G = H.group
    gens: list[int] = []
    closed = 1
    for x in H.elements():
        if closed >> x & 1:
            continue
        gens.append(x)
        closed = _closure_mask(G, closed | (1 << x))
        if closed == H.mask:
            break
    return gens
