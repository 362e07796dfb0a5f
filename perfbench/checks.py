"""Output checks that do not trust the program under test.

Each checker takes the job's exit code and stdout bytes and returns None when
the output is right, or a one-line reason when it is not. Expected values
are computed here from the group order and, for `table:` groups, from the
benchmark's own Cayley table.
"""

from __future__ import annotations

import json

SUITES_ALL = ("laws", "assoc", "partialrep", "extension", "tensor", "delta",
              "structure")


def gamma_size(n: int) -> int:
    """|Gamma(G)| = sum over subsets I containing e of |I| = (n + 1) * 2^(n - 2),
    for a group of order n >= 2."""
    return (n + 1) * 2 ** (n - 2)


def _load(stdout: bytes) -> dict | str:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    return doc if isinstance(doc, dict) else "stdout is not a JSON object"


def check_verify(returncode: int, stdout: bytes, suites: tuple[str, ...]) -> str | None:
    if returncode != 0:
        return f"exit {returncode}"
    doc = _load(stdout)
    if isinstance(doc, str):
        return doc
    if doc.get("passed") is not True:
        return "passed is not true"
    names = tuple(s.get("name") for s in doc.get("suites", ()))
    if names != suites:
        return f"suites {names}, expected {suites}"
    failed = [s["name"] for s in doc["suites"] if s.get("passed") is not True]
    return f"suites failed: {failed}" if failed else None


def check_decompose(returncode: int, stdout: bytes, order: int) -> str | None:
    if returncode != 0:
        return f"exit {returncode}"
    doc = _load(stdout)
    if isinstance(doc, str):
        return doc
    expected = gamma_size(order)
    if doc.get("gamma_size") != expected:
        return f"gamma_size {doc.get('gamma_size')}, expected {expected}"
    dim = sum(b["c"] * b["m"] ** 2 * b["H_order"] for b in doc.get("blocks", ()))
    if dim != expected:
        return f"sum c*m^2*|H| = {dim}, expected {expected}"
    rows = doc.get("recursion_diff", ())
    if not rows or not all(r.get("equal") is True for r in rows):
        return "recursion_diff has a row that is not equal"
    return None


def check_gamma(returncode: int, stdout: bytes, table: list[list[int]]) -> str | None:
    if returncode != 0:
        return f"exit {returncode}"
    doc = _load(stdout)
    if isinstance(doc, str):
        return doc
    n = len(table)
    inverse = [row.index(0) for row in table]
    size = gamma_size(n)
    if doc.get("order") != n:
        return f"order {doc.get('order')}, expected {n}"
    if doc.get("size") != size:
        return f"size {doc.get('size')}, expected {size}"
    if doc.get("unit_count") != 2 ** (n - 1):
        return f"unit_count {doc.get('unit_count')}, expected {2 ** (n - 1)}"
    elements = doc.get("elements", ())
    if len(elements) != size:
        return f"{len(elements)} arrows listed, expected {size}"
    previous = (-1, -1)
    units = 0
    for el in elements:
        members, g = el["I"], el["g"]
        if members != sorted(set(members)) or not all(0 <= x < n for x in members):
            return f"arrow ({members}, {g}) has a malformed subset"
        if not 0 <= g < n:
            return f"arrow ({members}, {g}) has an element out of range"
        mask = 0
        for x in members:
            mask |= 1 << x
        if not (mask & 1 and mask >> inverse[g] & 1):
            return f"arrow ({members}, {g}) misses e or the inverse of g"
        if (mask, g) <= previous:
            return f"arrow ({members}, {g}) is out of (mask, g) order"
        if el["unit"] is not (g == 0):
            return f"arrow ({members}, {g}) has a wrong unit flag"
        previous = (mask, g)
        units += g == 0
    if units != 2 ** (n - 1):
        return f"{units} unit arrows listed, expected {2 ** (n - 1)}"
    return None
