"""Scalars: which semirings support subtraction, and what to do when not.

Additive cancellation is the price of admission for the ring of differences.
The non-negative rationals and the naturals pay it; saturating 0/1 arithmetic
does not, and the law gate pins the exact counterexample. On the algebra
side, subtraction of elements only exists after moving to difference
coefficients, and the move is reversible exactly when every coefficient
stays non-negative.
"""

from pargroupoid import (
    BOOL,
    DeltaElement,
    Gamma,
    GammaAlgebra,
    NAT,
    QNN,
    check_semiring_laws,
    delta_of,
    element_from_delta,
    element_to_delta,
    make_group,
)


def main() -> None:
    for S in (QNN, NAT, BOOL):
        report = check_semiring_laws(S)
        canc = report.check("additively_cancellative")
        verdict = "cancellative" if canc.passed else f"NOT cancellative, witness {canc.witness}"
        print(f"{S.name}: {verdict}")

    D = delta_of(NAT)
    print(f"\nring of differences over nat: {D.name}")
    a, b = DeltaElement(2, 0), DeltaElement(0, 5)
    print(f"  (2|0) + (0|5) = {D.fmt(D.add(a, b))}   (equals 2 - 5 = -3)")
    print(f"  (2|0) * (0|5) = {D.fmt(D.mul(a, b))}")

    alg = GammaAlgebra(Gamma(make_group("cyclic:2")), NAT)
    x = alg.basis_element(alg.basis[1])
    y = alg.basis_element(alg.basis[2])
    try:
        x - y
    except Exception as exc:
        print(f"\nsubtracting over nat fails: {exc}")

    dx, dy = element_to_delta(x), element_to_delta(y)
    diff = dx - dy
    print(f"over {diff.algebra.scalars.name}: x - y = {diff!r}")

    back, failures = element_from_delta(diff, alg)
    shown = [(alg.gamma.describe(b), D.fmt(p)) for b, p in failures]
    print(f"pull x - y back to nat: element={back}, failing coefficients={shown}")

    back, failures = element_from_delta(dx + dy - dy, alg)
    print(f"pull x + y - y back to nat: element={back!r}, failures={failures}")


if __name__ == "__main__":
    main()
