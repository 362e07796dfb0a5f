"""Walk through the groupoid of a small group.

Arrows are pairs (I, g) where I is a subset containing both the identity and
g^-1. The partial product (I, g)(J, h) is defined exactly when I = hJ, and
then equals (J, gh). Run with a group spec as the only argument, default
klein4.
"""

import sys

from pargroupoid import Gamma, make_group, unit_components


def main() -> None:
    spec = sys.argv[1] if len(sys.argv) > 1 else "klein4"
    G = make_group(spec)
    gamma = Gamma(G)
    print(f"{G.name}: order {G.order}, groupoid with {gamma.size} arrows")

    units = [el for el in gamma.elements if gamma.is_unit(el)]
    print(f"{len(units)} units, one per subset containing e:")
    for u in units:
        print(f"  {gamma.describe(u)}")

    x = gamma.elements[-1]
    xi = gamma.inverse(x)
    print(f"\nlast arrow       {gamma.describe(x)}")
    print(f"its inverse      {gamma.describe(xi)}")
    print(f"x * x^-1         {gamma.describe(gamma.product(x, xi))}")
    print(f"x^-1 * x         {gamma.describe(gamma.product(xi, x))}")

    defined = sum(1 for a in gamma.elements for b in gamma.elements
                  if gamma.product(a, b) is not None)
    print(f"\ndefined products: {defined} of {gamma.size ** 2} pairs")

    print("\ncomponents of the unit graph:")
    for vertices, isotropy in unit_components(G):
        print(f"  base {G.subset_repr(vertices[0])}: "
              f"{len(vertices)} vertices, isotropy of order "
              f"{isotropy.order}")


if __name__ == "__main__":
    main()
