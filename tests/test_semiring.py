"""Scalar systems: measured laws, claim consistency, ring of differences."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pargroupoid.semiring import (
    BOOL,
    LAW_NAMES,
    NAT,
    QNN,
    DeltaElement,
    SemiringPropertyError,
    SemiringSpec,
    check_semiring_laws,
    delta_add,
    delta_canonical,
    delta_embed,
    delta_eq,
    delta_mul,
    delta_neg,
    delta_of,
)

nonneg = st.fractions(min_value=0, max_value=1000)


def test_qnn_all_laws_pass():
    report = check_semiring_laws(QNN)
    assert report.all_laws_pass
    assert report.claims_consistent
    assert report.mode == "sampled"


def test_nat_laws_pass_except_unclaimed_semifield():
    report = check_semiring_laws(NAT)
    for name in LAW_NAMES:
        if name == "semifield":
            continue
        assert report.law(name).passed, name
    assert not report.law("semifield").passed
    # NAT never claimed to be a semifield, so the report stays consistent
    assert report.claims_consistent


def test_bool_cancellation_fails_with_canonical_witness():
    report = check_semiring_laws(BOOL)
    assert report.mode == "exhaustive"
    check = report.law("additively_cancellative")
    assert not check.passed
    # 1 + 1 = 0 + 1 in the or-semiring but 1 != 0; the sweep order makes
    # (a, b, c) = (1, 0, 1) the first witness found
    assert check.witness == (1, 0, 1)
    assert report.claims_consistent


def test_bool_core_laws_hold():
    report = check_semiring_laws(BOOL)
    for name in LAW_NAMES:
        if name in ("additively_cancellative",):
            continue
        assert report.law(name).passed, name


# ---------------------------------------------------------------------------
# Formal differences over QNN, checked against genuine rational arithmetic.

def _value(d: DeltaElement) -> Fraction:
    return d.pos - d.neg


@given(nonneg, nonneg, nonneg, nonneg)
def test_delta_eq_is_cross_sum(a, b, c, d):
    x, y = DeltaElement(a, b), DeltaElement(c, d)
    assert delta_eq(QNN, x, y) == (_value(x) == _value(y))


@given(nonneg, nonneg, nonneg, nonneg)
def test_delta_add_mul_match_rationals(a, b, c, d):
    x, y = DeltaElement(a, b), DeltaElement(c, d)
    assert _value(delta_add(QNN, x, y)) == _value(x) + _value(y)
    assert _value(delta_mul(QNN, x, y)) == _value(x) * _value(y)
    assert _value(delta_neg(QNN, x)) == -_value(x)


@given(nonneg, nonneg)
def test_delta_canonical_is_membership(a, b):
    v = delta_canonical(QNN, DeltaElement(a, b))
    if a >= b:
        assert v == a - b
    else:
        assert v is None


@given(nonneg)
def test_delta_embed_round_trip(a):
    d = delta_embed(QNN, a)
    assert delta_canonical(QNN, d) == a


def test_delta_embed_needs_cancellation():
    with pytest.raises(SemiringPropertyError):
        delta_embed(BOOL, 1)


# ---------------------------------------------------------------------------
# The packaged ring of differences.

def test_delta_of_is_cached_and_named():
    D = delta_of(QNN)
    assert D is delta_of(QNN)
    assert D.name == "qnn-delta"
    assert D.is_delta and D.base is QNN


def test_delta_of_rejects_noncancellative():
    with pytest.raises(SemiringPropertyError):
        delta_of(BOOL)


def test_delta_of_qnn_is_a_field():
    D = delta_of(QNN)
    report = check_semiring_laws(D)
    assert report.all_laws_pass
    assert report.claims_consistent
    assert D.claims_semifield


def test_delta_of_nat_is_a_ring_not_a_field():
    D = delta_of(NAT)
    report = check_semiring_laws(D)
    assert report.law("additively_cancellative").passed
    assert not D.claims_semifield
    assert report.claims_consistent


def test_delta_mul_inverse():
    D = delta_of(QNN)
    two = DeltaElement(Fraction(5), Fraction(3))
    inv = D.mul_inverse(two)
    assert D.eq(D.mul(two, inv), D.one)
    minus_two = DeltaElement(Fraction(3), Fraction(5))
    inv = D.mul_inverse(minus_two)
    assert D.eq(D.mul(minus_two, inv), D.one)
    assert D.mul_inverse(D.zero) is None


def test_delta_try_sub_always_defined():
    D = delta_of(QNN)
    x = DeltaElement(Fraction(1), Fraction(4))
    y = DeltaElement(Fraction(7), Fraction(2))
    assert D.eq(D.add(D.try_sub(x, y), y), x)


@given(nonneg, nonneg)
def test_delta_fmt_parse_round_trip(a, b):
    D = delta_of(QNN)
    x = DeltaElement(a, b)
    assert D.eq(D.parse(D.fmt(x)), x)


def test_delta_fmt_shapes():
    D = delta_of(QNN)
    assert D.fmt(DeltaElement(Fraction(3, 2), Fraction(0))) == "3/2"
    assert D.fmt(DeltaElement(Fraction(0), Fraction(3, 2))) == "-3/2"
    # NAT cannot decide 1 - 2 inside the carrier, so the pair shape survives
    DN = delta_of(NAT)
    assert "|" in DN.fmt(DeltaElement(1, 2)) or DN.fmt(DeltaElement(1, 2)) == "-1"


def test_values_deterministic_with_fixed_prefix():
    xs = QNN.values(10, seed=7)
    ys = QNN.values(10, seed=7)
    assert xs == ys
    assert xs[0] == QNN.zero and xs[1] == QNN.one
    assert QNN.values(10, seed=8) != xs


def test_try_sub_on_base_scalars():
    assert QNN.try_sub(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)
    assert QNN.try_sub(Fraction(1, 3), Fraction(1, 2)) is None
    assert NAT.try_sub(5, 2) == 3
    assert NAT.try_sub(2, 5) is None


def test_parse_rejects_negative_values():
    with pytest.raises(ValueError):
        QNN.parse("-1/2")
    with pytest.raises(ValueError):
        NAT.parse("-3")


def _zero_test_values(S):
    values = S.values(len(S.sample_prefix) + 500)
    if S.is_delta:
        # unreduced pairs: (v, v) is zero, (v + w, w) is v
        B = S.base
        base = B.values(len(B.sample_prefix) + 50)
        values += [DeltaElement(v, v) for v in base]
        values += [DeltaElement(B.add(v, w), w) for v in base for w in base[:8]]
    return values


@pytest.mark.parametrize("S", [QNN, NAT, BOOL, delta_of(QNN), delta_of(NAT)],
                         ids=lambda S: S.name)
def test_is_zero_agrees_with_eq_to_zero(S):
    values = _zero_test_values(S)
    assert any(S.is_zero(x) for x in values)
    assert not all(S.is_zero(x) for x in values)
    for x in values:
        assert S.is_zero(x) == S.eq(x, S.zero), x


def test_is_zero_defaults_to_eq_with_zero():
    S = SemiringSpec(name="mod3", add=lambda a, b: (a + b) % 3,
                     mul=lambda a, b: a * b % 3, zero=3, one=1,
                     eq=lambda a, b: a % 3 == b % 3, carrier=(0, 1, 2))
    assert [S.is_zero(x) for x in (0, 1, 2, 3, 6)] == [True, False, False, True, True]


def test_law_checker_measures_zero_through_eq():
    # a spec's is_zero is a fast path, not a law: a wrong one must not turn
    # the zero of QNN into a missing inverse or an unannihilated product
    wrong = dataclasses.replace(QNN, name="qnn-wrong-zero", is_zero=lambda x: False)
    report = check_semiring_laws(wrong)
    assert report.laws == check_semiring_laws(QNN).laws


# ---------------------------------------------------------------------------
# The fused sum of products.

def _fold_dot(S, pairs):
    # the left fold that dot replaces, kept as its test-only oracle
    acc = S.zero
    for a, b in pairs:
        acc = S.add(acc, S.mul(a, b))
    return acc


def _rational(rng, kind):
    if kind == "int":
        return rng.randrange(0, 40)
    if kind == "zero":
        return rng.choice((0, Fraction(0)))
    if kind == "whole":
        return Fraction(rng.randrange(0, 40))
    if kind == "small":
        return Fraction(rng.randrange(0, 240), rng.randrange(1, 24))
    return Fraction(rng.randrange(0, 10 ** 6), rng.randrange(24, 10 ** 4))


def _dot_cases():
    rng = random.Random(73)
    kinds = ("int", "zero", "whole", "small", "large")
    for length in range(51):
        # ints alone, ints with Fraction zeros or whole Fractions, and mixes
        for pool in (("int",), ("int", "zero"), ("int", "whole"), ("whole", "small"),
                     kinds, kinds, kinds):
            yield [(_rational(rng, rng.choice(pool)), _rational(rng, rng.choice(pool)))
                   for _ in range(length)]


def test_qnn_dot_matches_the_fold_in_value_and_type():
    seen = set()
    for pairs in _dot_cases():
        want = _fold_dot(QNN, pairs)
        got = QNN.dot(pairs)
        assert got == want and type(got) is type(want), pairs
        # it takes any iterable of pairs, such as a zip
        got = QNN.dot(zip([a for a, _ in pairs], [b for _, b in pairs]))
        assert got == want and type(got) is type(want), pairs
        seen.add((type(want), want == int(want)))
    # int sums, whole Fraction sums and proper fractions all occur
    assert seen == {(int, True), (Fraction, True), (Fraction, False)}


rational = st.one_of(st.integers(min_value=0, max_value=10 ** 6),
                     st.fractions(min_value=0, max_value=1000))


@given(st.lists(st.tuples(rational, rational), max_size=50))
def test_qnn_dot_is_the_fold(pairs):
    got, want = QNN.dot(pairs), _fold_dot(QNN, pairs)
    assert got == want and type(got) is type(want)


def test_only_qnn_supplies_dot():
    assert QNN.dot is not None
    for S in (NAT, BOOL, delta_of(QNN), delta_of(NAT)):
        assert S.dot is None, S.name
