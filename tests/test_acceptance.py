"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test prints one ACCEPTANCE line on success; pytest -v adds the
per-criterion pass/fail listing. Nothing here is sampled below the stated
budget and nothing raises its tolerance above exact equality.
"""

import random
from fractions import Fraction
from math import comb

from groups_util import build_roster, q8
from pargroupoid.group import make_group
from pargroupoid.groupoid import Gamma, StandardGroupoid
from pargroupoid.partial_rep import (
    extend_to_gamma_hom,
    lambda_p,
    regular_representation,
    verify_factorization,
)
from pargroupoid.semialgebra import (
    DeltaPair,
    GammaAlgebra,
    StandardAlgebra,
    delta_extension,
    delta_extension_inverse,
    matrix_algebra_for,
    standard_to_matrix,
    tensor_phi,
    tensor_varphi,
)
from pargroupoid.semiring import (
    BOOL,
    NAT,
    QNN,
    check_semiring_laws,
    delta_of,
)
from pargroupoid.structure import (
    coset_count_identity,
    decompose,
    multiplicity_enumeration,
    recursion_diff,
    stabilizer_census,
)

SEED = 0xC0FFEE

# |Gamma(G)| by group order, frozen from the closed form (n+1) * 2^(n-2).
SIZES = {1: 1, 2: 3, 3: 8, 4: 20, 5: 48, 6: 112, 7: 256, 8: 576}


def test_c01_groupoid_size_two_ways():
    names = [f"cyclic:{n}" for n in range(1, 9)] + ["klein4", "sym:3",
                                                    "dihedral:4"]
    groups = [make_group(s) for s in names] + [q8()]
    assert len(groups) == 12
    for G in groups:
        n = G.order
        enumerated = len(Gamma(G).elements)
        binomial = sum(k * comb(n - 1, k - 1) for k in range(1, n + 1))
        assert enumerated == binomial == SIZES[n], G.name
    print("ACCEPTANCE C1 PASS groupoid size, 12 groups, two independent counts")


def test_c02_golden_decompositions():
    z2 = decompose(make_group("cyclic:2"))
    assert [(b.H_order, b.m, b.c) for b in z2.blocks] == [(1, 1, 1), (2, 1, 1)]
    assert z2.audit_lhs == z2.audit_rhs == 3

    z3 = decompose(make_group("cyclic:3"))
    assert [(b.H_order, b.m, b.c) for b in z3.blocks] == [
        (1, 1, 1), (1, 2, 1), (3, 1, 1)]
    assert z3.audit_lhs == z3.audit_rhs == 8

    v4 = decompose(make_group("klein4"))
    assert [(b.H_order, b.m, b.c) for b in v4.blocks] == [
        (1, 1, 1), (1, 3, 1), (2, 1, 1), (2, 1, 1), (2, 1, 1), (4, 1, 1)]
    assert sorted(tuple(b.H_gens()) for b in v4.blocks
                  if b.H_order == 2) == [(1,), (2,), (3,)]
    assert v4.audit_lhs == v4.audit_rhs == 20
    print("ACCEPTANCE C2 PASS golden block tables for Z2, Z3, klein4")


def test_c03_dimension_identity(roster):
    for name, G in roster:
        summary = decompose(G)
        assert summary.audit_ok and summary.audit_lhs == SIZES[G.order], name
    print("ACCEPTANCE C3 PASS dimension identity, all 14 classes of order <= 8")


def test_c04_canonical_rep_relations(kpar_reports):
    for name, report in kpar_reports.items():
        for check in ("unit", "right_relation", "left_relation", "sandwich"):
            assert report.check(check).passed, (name, check)
    print("ACCEPTANCE C4 PASS defining relations for lambda_p, exhaustive "
          "pairs, all 14 classes")


def test_c05_extension_round_trip(roster, algebra_of):
    for name, G in roster:
        alg = algebra_of(name)
        ext = extend_to_gamma_hom(lambda_p(alg))
        assert all(ext.image_of(el) == alg.basis_element(el)
                   for el in alg.basis), name

    for spec in ("cyclic:2", "cyclic:3"):
        G = make_group(spec)
        reg = regular_representation(G, QNN)
        ext = extend_to_gamma_hom(reg)
        report = verify_factorization(reg, ext)
        assert report.check("unital").passed, spec
        mult = report.check("multiplicative_basis")
        assert mult.passed and mult.note.startswith("exhaustive"), spec
        assert report.check("multiplicative_elements").passed, spec
        assert report.check("factors_through_canonical").passed, spec
    print("ACCEPTANCE C5 PASS extension is the identity on the basis (14 "
          "classes) and factors the regular representation of Z2, Z3")


def test_c06_span_uniqueness(roster, kpar_reports):
    small = [name for name, G in roster if G.order <= 6]
    assert len(small) == 8
    for name in small:
        check = kpar_reports[name].check("span_generation")
        assert check.passed, (name, check.witness)
    print("ACCEPTANCE C6 PASS canonical images span, all 8 classes of "
          "order <= 6")


def test_c07_bracket_relations(roster, algebra_of):
    # [e] = 1, [s^-1][s][t] = [s^-1][st], [s][t][t^-1] = [st][t^-1],
    # checked directly rather than through the packaged report
    for name, G in roster:
        alg = algebra_of(name)
        lam = lambda_p(alg)
        br = lam.images
        inv = G.inverse
        assert br[0] == alg.one(), name
        pair: dict = {}

        def mul(a: int, b: int):
            if (a, b) not in pair:
                pair[(a, b)] = br[a] * br[b]
            return pair[(a, b)]

        for s in G.elements():
            left = mul(inv(s), s)
            for t in G.elements():
                st = G.mul(s, t)
                assert left * br[t] == mul(inv(s), st), (name, s, t)
                assert mul(s, t) * br[inv(t)] == mul(st, inv(t)), (name, s, t)
    print("ACCEPTANCE C7 PASS bracket relations exhaustive, all 14 classes")


def test_c08_delta_extension_bijective_multiplicative(algebra_of):
    for gname in ("Z2", "Z3", "S3"):
        for S in (NAT, QNN):
            base = algebra_of(gname, S)
            dalg = algebra_of(gname, delta_of(S))
            rng = random.Random(f"{SEED}:{gname}:{S.name}")
            for _ in range(1000):
                x = dalg.random_element(rng, terms=4)
                y = dalg.random_element(rng, terms=4)
                fx, fy = delta_extension(x), delta_extension(y)
                assert delta_extension_inverse(fx) == x
                assert delta_extension(x * y) == fx * fy
                p = DeltaPair(base.random_element(rng), base.random_element(rng))
                assert delta_extension(delta_extension_inverse(p)) == p
    print("ACCEPTANCE C8 PASS difference-scalar bijection, 1000 pairs x "
          "{NAT, QNN} x {Z2, Z3, S3}")


def test_c09_tensor_round_trip_and_multiplicativity():
    combos = 0
    for spec in ("cyclic:1", "cyclic:2", "cyclic:3", "klein4"):
        H = make_group(spec)
        for m in (1, 2, 3):
            std = StandardAlgebra(StandardGroupoid(H, m), QNN)
            mat = matrix_algebra_for(std)
            rng = random.Random(SEED + 31 * m + H.order)
            pool = QNN.values(12, SEED)
            for _ in range(500):
                X = mat.random_element(rng)
                assert standard_to_matrix(tensor_varphi(X, std), mat) == X
                y = std.random_element(rng)
                assert tensor_varphi(standard_to_matrix(y, mat), std) == y
                A = [[rng.choice(pool) for _ in range(m)] for _ in range(m)]
                B = [[rng.choice(pool) for _ in range(m)] for _ in range(m)]
                w = mat.entries.random_element(rng)
                v = mat.entries.random_element(rng)
                AB = [[sum((A[i][k] * B[k][j] for k in range(m)), QNN.zero)
                       for j in range(m)] for i in range(m)]
                assert (tensor_phi(A, w, mat) * tensor_phi(B, v, mat)
                        == tensor_phi(AB, w * v, mat))
            combos += 1
    assert combos == 12
    print("ACCEPTANCE C9 PASS tensor comparison, 500 samples x m in {1,2,3} "
          "x H in {Z1, Z2, Z3, klein4}")


def test_c10_associativity(roster, algebra_of):
    for name, G in roster:
        if G.order > 4:
            continue
        alg = algebra_of(name)
        basis = [alg.basis_element(b) for b in alg.basis]
        for x in basis:
            for y in basis:
                xy = x * y
                for z in basis:
                    assert (xy * z) == x * (y * z), name
    for name, G in roster:
        if G.order not in (6, 8):
            continue
        alg = algebra_of(name)
        basis = [alg.basis_element(b) for b in alg.basis]
        rng = random.Random(SEED + G.order)
        n = alg.size
        for _ in range(1000):
            x, y, z = (basis[rng.randrange(n)] for _ in range(3))
            assert (x * y) * z == x * (y * z), name
    print("ACCEPTANCE C10 PASS associativity, exhaustive to order 4 and "
          "1000 seeded triples at orders 6 and 8")


def test_c11_semiring_law_gate():
    for S in (QNN, NAT):
        report = check_semiring_laws(S, seed=SEED)
        assert report.check("additively_cancellative").passed, S.name
    report = check_semiring_laws(BOOL, seed=SEED)
    law = report.check("additively_cancellative")
    assert not law.passed
    assert law.witness == (1, 0, 1)
    print("ACCEPTANCE C11 PASS cancellation gate; saturating two-value "
          "scalars fail with witness (1, 0, 1)")


def test_c12_coset_identity_and_recursion_diff(roster):
    mismatch_total = 0
    for name, G in roster:
        ok, witness = coset_count_identity(G, stabilizer_census(G))
        assert ok, (name, witness)
        rows = recursion_diff(G, multiplicity_enumeration(G))
        again = recursion_diff(G, multiplicity_enumeration(G))
        assert rows == again, name  # emitted report is stable
        mismatch_total += sum(1 for row in rows if not row["equal"])
        for row in rows:
            assert isinstance(row["enumeration"], int)
            assert Fraction(row["recursion"]) >= 0
    # the diff is informational by contract: report it, do not gate on it
    print(f"ACCEPTANCE C12 PASS coset-count identity, all 14 classes; "
          f"recursion diff emitted and stable ({mismatch_total} mismatched "
          f"rows, informational)")
