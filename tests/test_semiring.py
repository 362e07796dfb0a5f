"""Scalar systems: measured laws, claim consistency, ring of differences."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from groups_util import respec
from pargroupoid.semiring import (
    _fraction,
    BOOL,
    EXHAUSTIVE_CARRIER_LIMIT,
    LAW_NAMES,
    NAT,
    QNN,
    SAMPLE_BUDGET,
    DeltaElement,
    SemiringPropertyError,
    SemiringSpec,
    check_semiring_laws,
    delta_canonical,
    delta_of,
)

nonneg = st.fractions(min_value=0, max_value=1000)


def test_qnn_all_laws_pass():
    report = check_semiring_laws(QNN)
    assert report.passed
    assert report.subject == "qnn"
    assert [c.name for c in report.checks] == list(LAW_NAMES)
    assert report.claims_consistent
    assert report.mode == "sampled"


def test_nat_laws_pass_except_unclaimed_semifield():
    report = check_semiring_laws(NAT)
    for name in LAW_NAMES:
        if name == "semifield":
            continue
        assert report.check(name).passed, name
    assert not report.check("semifield").passed
    # NAT never claimed to be a semifield, so the report stays consistent
    assert report.claims_consistent


def test_bool_cancellation_fails_with_canonical_witness():
    report = check_semiring_laws(BOOL)
    assert report.mode == "exhaustive"
    check = report.check("additively_cancellative")
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
        assert report.check(name).passed, name


# The triple-law and cancellation searches of check_semiring_laws as they
# were before each became one next(): a predicate loop over the triple list,
# and a break loop per mode for cancellation, c outermost when exhaustive.
def _law_search_oracle(S: SemiringSpec, seed: int) -> dict:
    exhaustive = S.carrier is not None and len(S.carrier) <= EXHAUSTIVE_CARRIER_LIMIT
    if exhaustive:
        singles = list(S.carrier)
        triples = list(itertools.product(singles, repeat=3))
    else:
        stream = S.values(3 * SAMPLE_BUDGET, seed)
        triples = [tuple(stream[3 * i:3 * i + 3]) for i in range(len(stream) // 3)]
    add, mul, eq = S.add, S.mul, S.eq

    def first_triple(pred):
        for t in triples:
            if not pred(*t):
                return t
        return None

    found = {
        "add_associative": first_triple(
            lambda a, b, c: eq(add(add(a, b), c), add(a, add(b, c)))),
        "add_commutative": first_triple(lambda a, b, c: eq(add(a, b), add(b, a))),
        "mul_associative": first_triple(
            lambda a, b, c: eq(mul(mul(a, b), c), mul(a, mul(b, c)))),
        "left_distributive": first_triple(
            lambda a, b, c: eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))),
        "right_distributive": first_triple(
            lambda a, b, c: eq(mul(add(a, b), c), add(mul(a, c), mul(b, c)))),
    }
    witness = None
    if exhaustive:
        for c_, b_, a_ in itertools.product(singles, repeat=3):
            if eq(add(a_, c_), add(b_, c_)) and not eq(a_, b_):
                witness = (a_, b_, c_)
                break
    else:
        for a_, b_, c_ in triples:
            if eq(add(a_, c_), add(b_, c_)) and not eq(a_, b_):
                witness = (a_, b_, c_)
                break
    found["additively_cancellative"] = witness
    return found


# The sampled singles are the first SAMPLE_BUDGET values of the triple
# stream. Before they were sliced from it they were drawn a second time from
# the spec; this stream draws them again when sliced, so the report can be
# compared with one built both ways.
class _RedrawnSingles(list):
    def __init__(self, values: list, redraw):
        super().__init__(values)
        self.redraw = redraw

    def __getitem__(self, k):
        if k == slice(None, SAMPLE_BUDGET):
            return self.redraw()
        return super().__getitem__(k)


@pytest.mark.parametrize("S", [QNN, NAT, delta_of(QNN), delta_of(NAT),
                               delta_of(delta_of(QNN))], ids=lambda S: S.name)
@pytest.mark.parametrize("seed", [0, 1, 0xC0FFEE])
def test_sliced_singles_match_a_second_draw(monkeypatch, S, seed):
    assert S.values(SAMPLE_BUDGET, seed) == S.values(3 * SAMPLE_BUDGET, seed)[:SAMPLE_BUDGET]
    sliced = check_semiring_laws(S, seed=seed)
    values = SemiringSpec.values
    redraws = []

    def redrawing(spec, count, seed):
        def redraw():
            redraws.append(count)
            return values(spec, SAMPLE_BUDGET, seed)
        return _RedrawnSingles(values(spec, count, seed), redraw)

    monkeypatch.setattr(SemiringSpec, "values", redrawing)
    assert check_semiring_laws(S, seed=seed) == sliced
    assert redraws == [3 * SAMPLE_BUDGET]


# A three-element system that breaks every law, and its sampled twin, whose
# triples are all seeded draws: 1 and 2 square alike, so addition is not
# cancellative, and subtraction as product has no unit.
def _broken_add(a, b):
    return (a * a + 2 * b) % 3


def _broken_mul(a, b):
    return (a - b) % 3


BROKEN3 = SemiringSpec(name="broken3", add=_broken_add, mul=_broken_mul, zero=0,
                       one=1, eq=operator.eq, claims_additively_cancellative=True,
                       carrier=(0, 1, 2))
BROKEN3_SAMPLED = respec(BROKEN3, name="broken3-sampled", carrier=None,
                                      sample=lambda rng: rng.randrange(3))


@pytest.mark.parametrize("S", [QNN, NAT, BOOL, delta_of(QNN), delta_of(NAT),
                               BROKEN3, BROKEN3_SAMPLED], ids=lambda S: S.name)
@pytest.mark.parametrize("seed", [0, 1, 0xC0FFEE])
def test_law_searches_match_the_loop_oracle(S, seed):
    report = check_semiring_laws(S, seed=seed)
    expected = _law_search_oracle(S, seed)
    assert {name: report.check(name).witness for name in expected} == expected
    assert all(report.check(name).passed == (w is None) for name, w in expected.items())
    if S in (BROKEN3, BROKEN3_SAMPLED):
        # witnesses occur in both modes
        assert report.mode == ("exhaustive" if S is BROKEN3 else "sampled")
        assert {c.name for c in report.failures} == set(LAW_NAMES)
        assert report.claim_issues


# ---------------------------------------------------------------------------
# Formal differences over QNN, checked against genuine rational arithmetic.

def _value(d: DeltaElement) -> Fraction:
    return d.pos - d.neg


@given(nonneg, nonneg, nonneg, nonneg)
def test_delta_eq_is_cross_sum(a, b, c, d):
    D = delta_of(QNN)
    x, y = DeltaElement(a, b), DeltaElement(c, d)
    assert D.eq(x, y) == (_value(x) == _value(y))


@given(nonneg, nonneg, nonneg, nonneg)
def test_delta_add_mul_match_rationals(a, b, c, d):
    D = delta_of(QNN)
    x, y = DeltaElement(a, b), DeltaElement(c, d)
    assert _value(D.add(x, y)) == _value(x) + _value(y)
    assert _value(D.mul(x, y)) == _value(x) * _value(y)
    assert _value(D.neg(x)) == -_value(x)
    assert _value(D.try_sub(x, y)) == _value(x) - _value(y)


@given(nonneg, nonneg)
def test_delta_canonical_is_membership(a, b):
    v = delta_canonical(QNN, DeltaElement(a, b))
    if a >= b:
        assert v == a - b
    else:
        assert v is None


# ---------------------------------------------------------------------------
# The operations of delta_of(S) against the free functions they replaced,
# kept here as a test-only oracle: each closure must return the same pair,
# value for value and type for type, so no unreduced pair can change.

def oracle_add(S, x, y):
    return DeltaElement(S.add(x.pos, y.pos), S.add(x.neg, y.neg))


def oracle_mul(S, x, y):
    return DeltaElement(
        S.add(S.mul(x.pos, y.pos), S.mul(x.neg, y.neg)),
        S.add(S.mul(x.pos, y.neg), S.mul(x.neg, y.pos)))


def oracle_neg(S, x):
    return DeltaElement(x.neg, x.pos)


def oracle_eq(S, x, y):
    return S.eq(S.add(x.pos, y.neg), S.add(x.neg, y.pos))


def oracle_try_sub(S, x, y):
    return oracle_add(S, x, oracle_neg(S, y))


def oracle_fmt(S, d):
    if S.try_sub is not None:
        v = S.try_sub(d.pos, d.neg)
        if v is not None:
            return S.fmt(v)
        w = S.try_sub(d.neg, d.pos)
        if w is not None:
            return f"-{S.fmt(w)}"
    return f"({S.fmt(d.pos)}|{S.fmt(d.neg)})"


def oracle_mul_inverse(S, d):
    v = S.try_sub(d.pos, d.neg)
    if v is not None:
        if S.is_zero(v):
            return None
        inv = S.mul_inverse(v)
        return None if inv is None else DeltaElement(inv, S.zero)
    w = S.try_sub(d.neg, d.pos)
    if w is None or S.is_zero(w):
        return None
    inv = S.mul_inverse(w)
    return None if inv is None else DeltaElement(S.zero, inv)


def _same(a, b) -> bool:
    """Equal and of the same type, down through nested pairs."""
    if type(a) is not type(b):
        return False
    if isinstance(a, DeltaElement):
        return _same(a.pos, b.pos) and _same(a.neg, b.neg)
    return a == b


def _pairs(values):
    return st.builds(DeltaElement, values, values)


# QNN values mix ints, as the constants 0 and 1 are, with Fractions
qnn_values = st.one_of(st.integers(min_value=0, max_value=50),
                       st.fractions(min_value=0, max_value=50, max_denominator=12))
nat_values = st.integers(min_value=0, max_value=10 ** 6)
BASE_VALUES = [pytest.param(S, values, id=S.name)
               for S, values in ((QNN, qnn_values), (NAT, nat_values),
                                 (delta_of(QNN), _pairs(qnn_values)))]


@pytest.mark.parametrize("S, values", BASE_VALUES)
@given(data=st.data())
def test_delta_of_closures_match_the_oracle(S, values, data):
    D = delta_of(S)
    pairs = _pairs(values)
    x, y = data.draw(pairs), data.draw(pairs)
    # reduced shapes too: v - 0, 0 - v, v - v and -1
    z = data.draw(st.sampled_from([x, DeltaElement(x.pos, S.zero), DeltaElement(S.zero, x.pos),
                                   DeltaElement(x.pos, x.pos), DeltaElement(S.zero, S.one)]))
    assert _same(D.add(x, y), oracle_add(S, x, y))
    assert _same(D.mul(x, y), oracle_mul(S, x, y))
    assert _same(D.neg(x), oracle_neg(S, x))
    assert _same(D.try_sub(x, y), oracle_try_sub(S, x, y))
    assert _same(D.eq(x, y), oracle_eq(S, x, y))
    assert _same(D.eq(x, x), oracle_eq(S, x, x))
    for w in (x, z):
        text = D.fmt(w)
        assert _same(text, oracle_fmt(S, w))
        assert _same(D.mul_inverse(w), oracle_mul_inverse(S, w))


@pytest.mark.parametrize("S, values", BASE_VALUES)
@given(data=st.data())
def test_fmt_tells_values_apart_exactly_as_eq_does(S, values, data):
    # witnesses are printed through fmt, so their text pins the value: over S
    # and over its ring of differences, equal values print alike and unequal
    # ones differently; the shifted pair (x + c, y + c) equals (x, y)
    D = delta_of(S)
    x, y, c = data.draw(values), data.draw(values), data.draw(values)
    pair = DeltaElement(x, y)
    for T, a, b in ((S, x, y), (D, pair, DeltaElement(y, c)),
                    (D, pair, DeltaElement(S.add(x, c), S.add(y, c)))):
        assert (T.fmt(a) == T.fmt(b)) == T.eq(a, b)


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
    assert report.passed
    assert report.claims_consistent
    assert D.claims_semifield


def test_delta_of_nat_is_a_ring_not_a_field():
    D = delta_of(NAT)
    report = check_semiring_laws(D)
    assert report.check("additively_cancellative").passed
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
    wrong = respec(QNN, name="qnn-wrong-zero", is_zero=lambda x: False)
    report = check_semiring_laws(wrong)
    assert report.checks == check_semiring_laws(QNN).checks


# ---------------------------------------------------------------------------
# The fused sum of products.

def _fold_dot(pairs):
    # the left fold that dot replaces, kept as its test-only oracle; it adds
    # and multiplies with the stdlib operators, not with the QNN kernel
    acc = QNN.zero
    for a, b in pairs:
        acc = acc + a * b
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
        want = _fold_dot(pairs)
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
    got, want = QNN.dot(pairs), _fold_dot(pairs)
    assert got == want and type(got) is type(want)


def test_only_qnn_supplies_dot():
    assert QNN.dot is not None
    for S in (NAT, BOOL, delta_of(QNN), delta_of(NAT)):
        assert S.dot is None, S.name


# ---------------------------------------------------------------------------
# The int-pair kernel of QNN, against the stdlib operators it replaces.

def _assert_alike(got, want):
    # equal, of the same exact type, and alike in every way a value shows
    assert _same(got, want), (got, want)
    assert (str(got), repr(got), hash(got)) == (str(want), repr(want), hash(want))


def _kernel_operands():
    # ints, both zeros, whole Fractions, and denominators up to 10^4
    rng = random.Random(26)
    values = [0, 1, 2, -3, Fraction(0), Fraction(1), Fraction(7), Fraction(1, 2),
              Fraction(-5, 6), Fraction(9999, 10000)]
    for _ in range(120):
        values.append(_rational(rng, rng.choice(("int", "zero", "whole", "small",
                                                 "large"))))
    return values


_KERNEL_ORACLES = [(QNN.add, operator.add), (QNN.mul, operator.mul),
                   (QNN.eq, operator.eq)]


@pytest.mark.parametrize("kernel, oracle", _KERNEL_ORACLES,
                         ids=["add", "mul", "eq"])
def test_qnn_kernel_matches_the_stdlib_operators(kernel, oracle):
    values = _kernel_operands()
    for a in values:
        for b in values:
            _assert_alike(kernel(a, b), oracle(a, b))
    # every pairing of int and Fraction occurs
    assert {(type(a), type(b)) for a in values for b in values} == set(
        itertools.product((int, Fraction), repeat=2))


integer_or_fraction = st.one_of(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
                                st.fractions(max_denominator=10 ** 4),
                                st.fractions())


@given(integer_or_fraction, integer_or_fraction)
def test_qnn_kernel_matches_the_stdlib_operators_on_drawn_values(a, b):
    for kernel, oracle in _KERNEL_ORACLES:
        _assert_alike(kernel(a, b), oracle(a, b))


@given(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
       st.integers(min_value=1, max_value=10 ** 12))
def test_fraction_constructor_matches_fraction(n, d):
    g = math.gcd(n, d)
    _assert_alike(_fraction(n // g, d // g), Fraction(n, d))


def test_fraction_constructor_matches_fraction_on_seeded_pairs():
    rng = random.Random(2026)
    for _ in range(2000):
        n, d = rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 4)
        g = math.gcd(n, d)
        _assert_alike(_fraction(n // g, d // g), Fraction(n, d))


@pytest.mark.parametrize("seed", [0, 1, 0xC0FFEE])
def test_qnn_sample_draws_the_stdlib_fraction(seed):
    kernel, oracle = random.Random(seed), random.Random(seed)
    for _ in range(2000):
        _assert_alike(QNN.sample(kernel),
              Fraction(oracle.randrange(0, 240), oracle.randrange(1, 24)))
    assert kernel.getstate() == oracle.getstate()


class _TaggedFraction(Fraction):
    # a Fraction subclass whose operators say they ran
    def __add__(self, other):
        return "add"

    def __mul__(self, other):
        return "mul"

    def __eq__(self, other):
        return "eq"

    __radd__, __rmul__ = __add__, __mul__


def test_qnn_kernel_sends_other_classes_through_operator():
    # only the exact classes int and Fraction take the kernel: a bool or a
    # subclass gives what the stdlib operator gives
    tagged = _TaggedFraction(3, 4)
    others = (True, False, tagged)
    plain = (0, 2, Fraction(0), Fraction(1, 3), Fraction(5))
    for kernel, oracle in _KERNEL_ORACLES:
        for x in others:
            for y in plain + others:
                for a, b in ((x, y), (y, x)):
                    want = oracle(a, b)
                    if isinstance(want, str):
                        assert kernel(a, b) == want
                    else:
                        _assert_alike(kernel(a, b), want)
    assert (QNN.add(2, tagged), QNN.mul(Fraction(1, 3), tagged),
            QNN.eq(tagged, 1)) == ("add", "mul", "eq")
    _assert_alike(QNN.add(True, True), 2)
    _assert_alike(QNN.mul(True, Fraction(2, 3)), Fraction(2, 3))
    assert QNN.eq(True, Fraction(1)) is True


def _dot_outcome(dot, pairs):
    try:
        return dot(pairs)
    except TypeError as exc:
        return type(exc)


def test_qnn_dot_sends_other_classes_through_the_fold():
    # a pair with an operand outside the exact classes int and Fraction
    # leaves the kernel: from it on the sum is the fold's, in value and type
    _assert_alike(QNN.dot([(True, True)]), 1)
    _assert_alike(QNN.dot([(True, 2)]), 2)
    _assert_alike(QNN.dot([(Fraction(1, 2), 2), (3, False)]), Fraction(1))
    tagged = _TaggedFraction(3, 4)
    others = (True, False, tagged)
    plain = (0, 2, Fraction(0), Fraction(1, 3), Fraction(5))
    for x in others:
        for y in plain + others:
            for pair in ((x, y), (y, x)):
                for before in ((), ((2, 3),), ((Fraction(1, 3), 2),)):
                    for after in ((), ((5, 5),), ((Fraction(1, 2), 4),), ((True, 3),)):
                        pairs = [*before, pair, *after]
                        want = _dot_outcome(_fold_dot, pairs)
                        got = _dot_outcome(QNN.dot, pairs)
                        if isinstance(want, (str, type)):
                            assert got == want, pairs
                        else:
                            _assert_alike(got, want)
