"""Group builders, and a scalar-spec copier, shared across the tests.

The interesting desk-scale targets are every isomorphism class of order at
most 8. Fourteen classes exist: Z1..Z8, the Klein four-group, S3, D4, the
quaternion units, Z2 x Z4, and Z2 x Z2 x Z2. The last three are not covered
by the spec grammar, so they are built here as explicit Cayley tables.
"""

from pargroupoid import FiniteGroup, from_table, make_group

# Quaternion units 1, -1, i, -i, j, -j, k, -k: index 2*axis + (sign < 0),
# axes ordered 1, i, j, k.
_Q8_LABELS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
_AXIS_PRODUCTS = {
    (1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1),
    (2, 1): (3, -1), (3, 2): (1, -1), (1, 3): (2, -1),
}


def _axis_mul(a: int, b: int) -> tuple[int, int]:
    if a == 0:
        return b, 1
    if b == 0:
        return a, 1
    if a == b:
        return 0, -1
    return _AXIS_PRODUCTS[(a, b)]


def q8_doc() -> dict:
    table = []
    for x in range(8):
        row = []
        for y in range(8):
            axis, sign = _axis_mul(x // 2, y // 2)
            sign *= (-1) ** (x % 2) * (-1) ** (y % 2)
            row.append(2 * axis + (sign < 0))
        table.append(row)
    return {"order": 8, "table": table, "labels": list(_Q8_LABELS)}


def q8() -> FiniteGroup:
    return from_table(q8_doc(), name="Q8")


def bit_loop_translate(G: FiniteGroup, g: int, mask: int) -> int:
    """g*I one set bit at a time: the test-only oracle for the byte tables
    of FiniteGroup.left_translate."""
    row = G.cayley[g]
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << row[low.bit_length() - 1]
        mask ^= low
    return out


def bit_loop_indices(mask: int) -> list[int]:
    """The set bits of a mask one at a time: the test-only oracle for the
    byte tables of indices_of_mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def direct_product(G: FiniteGroup, H: FiniteGroup, name: str) -> FiniteGroup:
    n = H.order
    size = G.order * n
    table = [[G.mul(x // n, y // n) * n + H.mul(x % n, y % n)
              for y in range(size)] for x in range(size)]
    labels = [f"({G.label(x // n)},{H.label(x % n)})" for x in range(size)]
    return FiniteGroup(table, labels, name=name)


def build_roster() -> list[tuple[str, FiniteGroup]]:
    """Every isomorphism class of order <= 8, smallest first."""
    groups = [(f"Z{n}", make_group(f"cyclic:{n}")) for n in range(1, 9)]
    groups += [
        ("V4", make_group("klein4")),
        ("S3", make_group("sym:3")),
        ("D4", make_group("dihedral:4")),
        ("Q8", q8()),
        ("Z2xZ4", direct_product(make_group("cyclic:2"),
                                 make_group("cyclic:4"), "Z2xZ4")),
        ("Z2^3", direct_product(make_group("cyclic:2"),
                                make_group("klein4"), "Z2^3")),
    ]
    return sorted(groups, key=lambda item: (item[1].order, item[0]))


def order_16_roster() -> list[tuple[str, FiniteGroup]]:
    """Three groups of order 16: cyclic, dihedral and Z4 x Z4."""
    z4 = make_group("cyclic:4")
    return [("Z16", make_group("cyclic:16")), ("D8", make_group("dihedral:8")),
            ("Z4xZ4", direct_product(z4, z4, "Z4xZ4"))]


def respec(spec, **changes):
    """A new SemiringSpec with every attribute of spec, is_zero as already
    resolved included, except those named in changes."""
    return type(spec)(**{**vars(spec), **changes})
