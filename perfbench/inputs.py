"""Seeded benchmark inputs: Cayley tables written as `table:` JSON documents.

Only the standard library is used, so the program under test never builds
its own inputs. Every table keeps the identity at index 0, as `from_table`
requires. A seed picks a relabelling of the non-identity elements; the same
seed always gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path


def product_of_cyclics(*orders: int) -> tuple[list[list[int]], list[str]]:
    """Z_{n1} x Z_{n2} x ..., elements in mixed radix with the last factor fastest."""
    elems = list(itertools.product(*(range(n) for n in orders)))
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[tuple((x + y) % n for x, y, n in zip(a, b, orders))]
              for b in elems] for a in elems]
    labels = ["e" if not any(a) else ".".join(map(str, a)) for a in elems]
    return table, labels


def quaternion8() -> tuple[list[list[int]], list[str]]:
    """Q8 as signed quaternion units; element 2u + s is (-1)^s times unit u."""
    # Unit products among 1, i, j, k as (sign bit, unit): i*j = k, j*i = -k, ...
    units = [[(0, 0), (0, 1), (0, 2), (0, 3)],
             [(0, 1), (1, 0), (0, 3), (1, 2)],
             [(0, 2), (1, 3), (1, 0), (0, 1)],
             [(0, 3), (0, 2), (1, 1), (1, 0)]]
    table = []
    for a in range(8):
        row = []
        for b in range(8):
            s, u = units[a // 2][b // 2]
            row.append(2 * u + (s ^ (a % 2) ^ (b % 2)))
        table.append(row)
    names = ["1", "i", "j", "k"]
    labels = [("-" if a % 2 else "") + names[a // 2] for a in range(8)]
    return table, labels


# Name -> constructor. The order-16 products are pairwise non-isomorphic, so
# their subgroup lattices, and with them the block tables, differ while
# |Gamma| stays (n + 1) * 2^(n - 2).
GROUPS = {
    "q8": quaternion8,
    "z4xz4": lambda: product_of_cyclics(4, 4),
    "z2xz8": lambda: product_of_cyclics(2, 8),
    "z2xz2xz4": lambda: product_of_cyclics(2, 2, 4),
}


def relabel(table: list[list[int]], labels: list[str],
            perm: list[int]) -> tuple[list[list[int]], list[str]]:
    """Move old element a to index perm[a]; perm[0] must be 0."""
    n = len(table)
    new = [[0] * n for _ in range(n)]
    new_labels = [""] * n
    for a in range(n):
        new_labels[perm[a]] = labels[a]
        for b in range(n):
            new[perm[a]][perm[b]] = perm[table[a][b]]
    return new, new_labels


def seeded_permutation(n: int, seed: int, name: str) -> list[int]:
    """A permutation of 0..n-1 fixing 0, drawn from (seed, name)."""
    rest = list(range(1, n))
    random.Random(f"{seed}:{name}").shuffle(rest)
    return [0] + rest


def group_doc(name: str, seed: int) -> dict:
    table, labels = GROUPS[name]()
    table, labels = relabel(table, labels, seeded_permutation(len(table), seed, name))
    return {"order": len(table), "table": table, "labels": labels}


def write_group(directory: Path, name: str, seed: int) -> Path:
    """Write the relabelled table of `name` and return its path."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(group_doc(name, seed), separators=(",", ":")) + "\n")
    return path


def cli_seed(seed: int) -> int:
    """The --seed handed to the program's sampled checks."""
    return random.Random(f"{seed}:cli").randrange(1 << 32)
