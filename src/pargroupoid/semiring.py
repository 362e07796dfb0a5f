"""Scalar systems: cancellative semirings, semifields, and rings of differences.

A scalar system is described by a SemiringSpec: a carrier (possibly infinite),
the two operations, the constants, equality, and declared properties. The law
checker measures the usual semiring laws plus additive cancellation and the
semifield property, and reports claim/measurement mismatches instead of
trusting the declarations.

Every check in the package reports through the records defined here: an
AxiomCheck holds one verdict and its first counterexample, and an
AxiomReport holds the checks on one subject. A LawReport is the
AxiomReport of one scalar system, whose checks are its laws; read one law
with `report.check(name)` and the verdict on all of them with `.passed`.

The ring of differences of an additively cancellative semiring S is built from
unreduced pairs (pos, neg) standing for pos - neg; two pairs are equal when the
cross sums agree. delta_of(S) packages that ring as another SemiringSpec, so
every structure that is generic over a SemiringSpec works over S^D unchanged.
It is the one definition of the arithmetic of differences: its add, mul, eq,
neg, try_sub, fmt and mul_inverse are closures over the operations of S, and
delta_canonical is the one membership test back into S.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cache
from math import gcd
from random import Random
from typing import Any, Callable, Iterable, NamedTuple

from .group import DEFAULT_SEED

# Carriers at most this large are checked exhaustively instead of sampled;
# a larger or infinite carrier is checked on SAMPLE_BUDGET seeded triples.
EXHAUSTIVE_CARRIER_LIMIT = 64
SAMPLE_BUDGET = 1000

LAW_NAMES = (
    "add_associative",
    "add_commutative",
    "add_identity",
    "mul_associative",
    "mul_identity",
    "left_distributive",
    "right_distributive",
    "zero_annihilates",
    "additively_cancellative",
    "semifield",
)


class SemiringPropertyError(ValueError):
    """An operation needs a property the scalar system does not provide."""


class SemiringSpec:
    """A scalar system: carrier plus operations and declared properties.

    Carrier values are ordinary Python objects; all structure lives in the
    callables. A finite carrier is listed in `carrier`; infinite carriers
    instead provide `sample_prefix` (deterministic leading test values) and
    `sample` (a seeded pseudo-random draw). `try_sub` returns a - b when that
    difference exists inside the carrier and None otherwise; `neg` exists only
    on rings of differences, whose base system is kept in `base`. `is_zero`
    must agree with `eq(x, zero)`, which is its default; a spec may give a
    cheaper exact test, such as truthiness for numbers. `dot`, when given,
    sums the products of (a, b) pairs and must return what the left fold
    `add(...add(add(zero, mul(a0, b0)), mul(a1, b1))...)` returns, in value
    and in type; sums of products may call it once instead of folding.

    Specs are singletons (QNN, NAT, BOOL and the cached `delta_of` of each),
    so they compare and hash by identity: algebras key their scalar variants
    by spec, and hashing the fields would hash the Fraction sample prefix
    and the nested base on every lookup. The attributes are exactly the
    constructor's arguments, with is_zero resolved.
    """

    def __init__(self, name: str,
                 add: Callable[[Any, Any], Any],
                 mul: Callable[[Any, Any], Any],
                 zero: Any,
                 one: Any,
                 eq: Callable[[Any, Any], bool],
                 claims_additively_cancellative: bool = False,
                 claims_semifield: bool = False,
                 mul_inverse: Callable[[Any], Any] | None = None,
                 carrier: tuple[Any, ...] | None = None,
                 sample_prefix: tuple[Any, ...] = (),
                 sample: Callable[[Random], Any] | None = None,
                 try_sub: Callable[[Any, Any], Any] | None = None,
                 neg: Callable[[Any], Any] | None = None,
                 fmt: Callable[[Any], str] = str,
                 base: SemiringSpec | None = None,
                 is_zero: Callable[[Any], bool] | None = None,
                 dot: Callable[[Iterable[tuple[Any, Any]]], Any] | None = None):
        if is_zero is None:
            is_zero = lambda x: eq(x, zero)
        self.name = name
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self.eq = eq
        self.claims_additively_cancellative = claims_additively_cancellative
        self.claims_semifield = claims_semifield
        self.mul_inverse = mul_inverse
        self.carrier = carrier
        self.sample_prefix = sample_prefix
        self.sample = sample
        self.try_sub = try_sub
        self.neg = neg
        self.fmt = fmt
        self.base = base
        self.is_zero = is_zero
        self.dot = dot

    def __repr__(self) -> str:
        return (f"SemiringSpec(name={self.name!r}, claims_additively_cancellative="
                f"{self.claims_additively_cancellative!r}, claims_semifield="
                f"{self.claims_semifield!r})")

    @property
    def is_delta(self) -> bool:
        return self.base is not None

    def values(self, count: int, seed: int = DEFAULT_SEED) -> list:
        """Deterministic stream of carrier values for checks and sampling."""
        if self.carrier is not None:
            return list(self.carrier)
        out = list(self.sample_prefix)[:count]
        if self.sample is None:
            return out
        rng = Random(seed)
        while len(out) < count:
            out.append(self.sample(rng))
        return out


# ---------------------------------------------------------------------------
# Check reports, shared by every layer that verifies a law or an axiom.

class AxiomCheck(NamedTuple):
    """One universally quantified check: its verdict and first counterexample."""

    name: str
    passed: bool
    witness: tuple | None = None
    note: str = ""


class AxiomReport:
    """The checks run on one subject; it passes when every check passes.

    Reports are values: two of one class are equal, and hash alike, when
    their attributes are.
    """

    def __init__(self, subject: str, checks: tuple[AxiomCheck, ...]):
        self.subject = subject
        self.checks = checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in report for {self.subject}")

    @property
    def failures(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


class LawReport(AxiomReport):
    """Measured laws for one scalar system, plus claim consistency.

    The subject is the system's name and the checks are its laws; mode is
    "exhaustive" or "sampled".
    """

    def __init__(self, subject: str, checks: tuple[AxiomCheck, ...], mode: str,
                 claim_issues: tuple[str, ...]):
        super().__init__(subject, checks)
        self.mode = mode
        self.claim_issues = claim_issues

    @property
    def claims_consistent(self) -> bool:
        return not self.claim_issues


def check_semiring_laws(S: SemiringSpec, seed: int = DEFAULT_SEED) -> LawReport:
    """Measure the semiring laws of S on an exhaustive or sampled triple set.

    Finite carriers of at most EXHAUSTIVE_CARRIER_LIMIT elements are checked
    exhaustively; otherwise SAMPLE_BUDGET deterministic triples are drawn
    (a fixed prefix of canonical values followed by a seeded stream). Every
    law is measured regardless of what S claims; mismatches between claims
    and measurements are listed in the report.
    """
    exhaustive = S.carrier is not None and len(S.carrier) <= EXHAUSTIVE_CARRIER_LIMIT
    if exhaustive:
        singles = list(S.carrier)
        triples = list(itertools.product(singles, repeat=3))
    else:
        stream = S.values(3 * SAMPLE_BUDGET, seed)
        # values(n) is the first n values of one seeded stream; a carrier
        # comes whole whatever n is
        singles = stream if S.carrier is not None else stream[:SAMPLE_BUDGET]
        triples = [tuple(stream[3 * i:3 * i + 3]) for i in range(len(stream) // 3)]

    add, mul, eq = S.add, S.mul, S.eq
    checks: list[AxiomCheck] = []

    def record(law: str, witness: tuple | None) -> None:
        checks.append(AxiomCheck(law, witness is None, witness))

    record("add_associative",
           next(((a, b, c) for a, b, c in triples
                 if not eq(add(add(a, b), c), add(a, add(b, c)))), None))
    record("add_commutative",
           next(((a, b, c) for a, b, c in triples if not eq(add(a, b), add(b, a))), None))
    record("add_identity",
           next(((a,) for a in singles if not eq(add(a, S.zero), a)), None))
    record("mul_associative",
           next(((a, b, c) for a, b, c in triples
                 if not eq(mul(mul(a, b), c), mul(a, mul(b, c)))), None))
    record("mul_identity",
           next(((a,) for a in singles
                 if not (eq(mul(a, S.one), a) and eq(mul(S.one, a), a))), None))
    record("left_distributive",
           next(((a, b, c) for a, b, c in triples
                 if not eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))), None))
    record("right_distributive",
           next(((a, b, c) for a, b, c in triples
                 if not eq(mul(add(a, b), c), add(mul(a, c), mul(b, c)))), None))
    # zero tests go through eq, so a spec's own is_zero is not trusted here
    zero = S.zero
    record("zero_annihilates",
           next(((a,) for a in singles
                 if not (eq(mul(a, zero), zero) and eq(mul(zero, a), zero))), None))

    # Additive cancellation: a + c = b + c must force a = b. The exhaustive
    # sweep iterates c outermost and a innermost so the first witness found is
    # canonical for a fixed carrier order.
    cases = (((a, b, c) for c, b, a in itertools.product(singles, repeat=3))
             if exhaustive else triples)
    record("additively_cancellative",
           next(((a, b, c) for a, b, c in cases
                 if eq(add(a, c), add(b, c)) and not eq(a, b)), None))

    def semifield_witness() -> tuple | None:
        for a in singles:
            if eq(a, zero):
                continue
            if S.mul_inverse is not None:
                inv = S.mul_inverse(a)
            elif S.carrier is not None:
                inv = next((b for b in S.carrier
                            if eq(mul(a, b), S.one) and eq(mul(b, a), S.one)), None)
            else:
                inv = None
            if inv is None or not eq(mul(a, inv), S.one) or not eq(mul(inv, a), S.one):
                return (a,)
        return None

    record("semifield", semifield_witness())

    measured = {c.name: c.passed for c in checks}
    issues: list[str] = []
    if S.claims_additively_cancellative and not measured["additively_cancellative"]:
        issues.append("claims additive cancellation but a counterexample was found")
    if S.claims_semifield and not measured["semifield"]:
        issues.append("claims to be a semifield but a counterexample was found")

    return LawReport(subject=S.name, checks=tuple(checks),
                     mode="exhaustive" if exhaustive else "sampled",
                     claim_issues=tuple(issues))


# ---------------------------------------------------------------------------
# Concrete scalar systems.

# The QNN kernel. Values are ints and Fractions, always in lowest terms with a
# positive denominator, so a sum or product is worked on the numerator and
# denominator ints with the gcd steps of the stdlib's Fraction._add and
# Fraction._mul, and a non-int result is built by _fraction without the
# normalisation and type dispatch of Fraction.__new__. The type rules are the
# stdlib's: int op int gives an int, and a Fraction operand gives a Fraction,
# integral or not. Only the exact classes int and Fraction take the kernel;
# any other operand, such as a bool or a subclass, goes through operator.

_new_object = object.__new__


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d, for n and d already coprime with d > 0."""
    f = _new_object(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _qnn_add(a, b):
    """a + b, exactly as operator.add gives it."""
    if a.__class__ is int:
        if b.__class__ is int:
            return a + b
        if b.__class__ is Fraction:
            db = b._denominator
            return _fraction(a * db + b._numerator, db)
    elif a.__class__ is Fraction:
        na, da = a._numerator, a._denominator
        if b.__class__ is int:
            return _fraction(na + da * b, da)
        if b.__class__ is Fraction:
            nb, db = b._numerator, b._denominator
            g = gcd(da, db)
            if g == 1:
                return _fraction(na * db + da * nb, da * db)
            s = da // g
            t = na * (db // g) + nb * s
            g2 = gcd(t, g)
            if g2 == 1:
                return _fraction(t, s * db)
            return _fraction(t // g2, s * (db // g2))
    return a + b


def _qnn_mul(a, b):
    """a * b, exactly as operator.mul gives it."""
    if a.__class__ is int:
        if b.__class__ is int:
            return a * b
        if b.__class__ is Fraction:
            nb, db = b._numerator, b._denominator
            g = gcd(a, db)
            if g > 1:
                a //= g
                db //= g
            return _fraction(a * nb, db)
    elif a.__class__ is Fraction:
        na, da = a._numerator, a._denominator
        if b.__class__ is int:
            g = gcd(b, da)
            if g > 1:
                b //= g
                da //= g
            return _fraction(na * b, da)
        if b.__class__ is Fraction:
            nb, db = b._numerator, b._denominator
            g1 = gcd(na, db)
            if g1 > 1:
                na //= g1
                db //= g1
            g2 = gcd(nb, da)
            if g2 > 1:
                nb //= g2
                da //= g2
            return _fraction(na * nb, db * da)
    return a * b


def _qnn_eq(a, b) -> bool:
    """a == b, exactly as operator.eq gives it: lowest terms are unique."""
    if a.__class__ is int:
        if b.__class__ is int:
            return a == b
        if b.__class__ is Fraction:
            return b._denominator == 1 and b._numerator == a
    elif a.__class__ is Fraction:
        if b.__class__ is int:
            return a._denominator == 1 and a._numerator == b
        if b.__class__ is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
    return a == b


def _qnn_sample(rng: Random) -> Fraction:
    """Fraction(rng.randrange(0, 240), rng.randrange(1, 24)), in lowest terms."""
    n = rng.randrange(0, 240)
    d = rng.randrange(1, 24)
    g = gcd(n, d)
    return _fraction(n // g, d // g)


def _rational_dot(pairs: Iterable[tuple[Any, Any]]):
    """The exact sum of a * b over rational pairs, normalised once.

    One int numerator and one int denominator, the least common multiple of
    the product denominators so far, carry the sum; the Fraction is built at
    the end. Ints stay ints: the sum is an int when every operand is one,
    and a Fraction, integral or not, as soon as one operand is a Fraction,
    exactly as the fold of `*` and `+` would give it. From the first pair
    with an operand of another class, such as a bool, on, the sum is that
    fold itself, through _qnn_add and _qnn_mul.
    """
    num, den, ints = 0, 1, True
    pairs = iter(pairs)
    for a, b in pairs:
        if a.__class__ is int:
            if b.__class__ is int:
                num += a * b * den
                continue
            p, q = a, 1
        elif a.__class__ is Fraction:
            p, q = a._numerator, a._denominator
        else:
            break
        if b.__class__ is int:
            p *= b
        elif b.__class__ is Fraction:
            p *= b._numerator
            q *= b._denominator
        else:
            break
        ints = False
        if q == den:
            num += p
        else:
            g = gcd(den, q)
            num = num * (q // g) + p * (den // g)
            den = den // g * q
    else:
        return _dot_total(num, den, ints)
    total = _qnn_add(_dot_total(num, den, ints), _qnn_mul(a, b))
    for a, b in pairs:
        total = _qnn_add(total, _qnn_mul(a, b))
    return total


def _dot_total(num: int, den: int, ints: bool):
    """The sum num/den that _rational_dot carries, as the fold would type it."""
    if ints:
        return num
    g = gcd(num, den)
    return _fraction(num // g, den // g)


#: Non-negative rationals, exact. A semifield. The constants are the ints 0
#: and 1, which mix exactly with Fractions, compare and hash equal to them and
#: print alike, so 0/1 work such as the canonical partial representation stays
#: in int arithmetic; a non-integral value anywhere still yields Fractions.
#: add, mul, eq, sample and dot run on the kernel above.
QNN = SemiringSpec(
    name="qnn",
    add=_qnn_add,
    mul=_qnn_mul,
    zero=0,
    one=1,
    eq=_qnn_eq,
    is_zero=operator.not_,
    claims_additively_cancellative=True,
    claims_semifield=True,
    mul_inverse=lambda a: None if a == 0 else Fraction(1) / Fraction(a),
    sample_prefix=(Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2),
                   Fraction(2, 3), Fraction(5, 2)),
    sample=_qnn_sample,
    try_sub=lambda a, b: a - b if a >= b else None,
    dot=_rational_dot,
)

#: Natural numbers. Cancellative but not a semifield (2 has no inverse).
NAT = SemiringSpec(
    name="nat",
    add=operator.add,
    mul=operator.mul,
    zero=0,
    one=1,
    eq=operator.eq,
    is_zero=operator.not_,
    claims_additively_cancellative=True,
    claims_semifield=False,
    mul_inverse=lambda a: 1 if a == 1 else None,
    sample_prefix=(0, 1, 2, 3, 5, 8),
    sample=lambda rng: rng.randrange(0, 1000),
    try_sub=lambda a, b: a - b if a >= b else None,
)

#: Booleans with 1 + 1 = 1. The stock non-cancellative example: 1 + 1 = 0 + 1.
BOOL = SemiringSpec(
    name="bool",
    add=lambda a, b: 1 if (a or b) else 0,
    mul=lambda a, b: 1 if (a and b) else 0,
    zero=0,
    one=1,
    eq=operator.eq,
    is_zero=operator.not_,
    claims_additively_cancellative=False,
    claims_semifield=True,
    carrier=(0, 1),
)


# ---------------------------------------------------------------------------
# Rings of differences.

class DeltaElement(NamedTuple):
    """Formal difference pos - neg of two carrier values, kept unreduced.

    Structural equality of the pairs is finer than equality in the ring of
    differences; semantic equality goes through the eq of delta_of(S).
    """

    pos: Any
    neg: Any


def delta_canonical(S: SemiringSpec, x: DeltaElement):
    """The value v of S with x = (v, 0), or None when x lies outside S.

    Needs S.try_sub; this is the membership test used when results computed in
    the ring of differences are pulled back into S.
    """
    if S.try_sub is None:
        raise SemiringPropertyError(f"{S.name} has no try_sub; cannot test membership")
    return S.try_sub(x.pos, x.neg)


@cache
def delta_of(S: SemiringSpec) -> SemiringSpec:
    """The ring of differences of S, packaged as a SemiringSpec.

    Values are DeltaElement pairs over S, stored unreduced; equality is the
    cross-sum comparison. Requires S to declare additive cancellation. Each
    operation is a closure over the operations of S.
    """
    if not S.claims_additively_cancellative:
        raise SemiringPropertyError(
            f"{S.name} does not declare additive cancellation; "
            "its ring of differences would collapse")
    add, mul, eq, sub = S.add, S.mul, S.eq, S.try_sub
    zero = DeltaElement(S.zero, S.zero)
    one = DeltaElement(S.one, S.zero)

    def plus(x: DeltaElement, y: DeltaElement) -> DeltaElement:
        return DeltaElement(add(x.pos, y.pos), add(x.neg, y.neg))

    def times(x: DeltaElement, y: DeltaElement) -> DeltaElement:
        return DeltaElement(add(mul(x.pos, y.pos), mul(x.neg, y.neg)),
                            add(mul(x.pos, y.neg), mul(x.neg, y.pos)))

    def negate(x: DeltaElement) -> DeltaElement:
        return DeltaElement(x.neg, x.pos)

    def equal(x: DeltaElement, y: DeltaElement) -> bool:
        # (a, b) = (c, d) exactly when a + d = b + c in S
        return eq(add(x.pos, y.neg), add(x.neg, y.pos))

    def minus(x: DeltaElement, y: DeltaElement) -> DeltaElement:
        # x + (-y), defined for every pair
        return DeltaElement(add(x.pos, y.neg), add(x.neg, y.pos))

    def signed(x: DeltaElement) -> tuple[bool, Any] | None:
        """(False, v) when x = v and (True, v) when x = -v, for v in S; None
        when S decides neither difference."""
        if sub is not None:
            v = sub(x.pos, x.neg)
            if v is not None:
                return False, v
            v = sub(x.neg, x.pos)
            if v is not None:
                return True, v
        return None

    def fmt(x: DeltaElement) -> str:
        sv = signed(x)
        if sv is None:
            return f"({S.fmt(x.pos)}|{S.fmt(x.neg)})"
        negative, v = sv
        return f"-{S.fmt(v)}" if negative else S.fmt(v)

    def inverse(x: DeltaElement) -> DeltaElement | None:
        sv = signed(x)
        if sv is None or S.is_zero(sv[1]):
            return None
        negative, v = sv
        inv = S.mul_inverse(v)
        if inv is None:
            return None
        return DeltaElement(S.zero, inv) if negative else DeltaElement(inv, S.zero)

    prefix = (zero, one, DeltaElement(S.zero, S.one)) + tuple(
        DeltaElement(v, S.zero) for v in S.sample_prefix if not S.is_zero(v))
    sample = None
    if S.sample is not None:
        base_sample = S.sample
        sample = lambda rng: DeltaElement(base_sample(rng), base_sample(rng))
    return SemiringSpec(
        name=f"{S.name}-delta",
        add=plus,
        mul=times,
        zero=zero,
        one=one,
        eq=equal,
        # (p, n) = (0, 0) exactly when p + 0 = n + 0, that is when p = n
        is_zero=lambda x: eq(x.pos, x.neg),
        claims_additively_cancellative=True,
        claims_semifield=S.claims_semifield,
        mul_inverse=inverse if S.mul_inverse is not None and sub is not None else None,
        sample_prefix=prefix,
        sample=sample,
        try_sub=minus,
        neg=negate,
        fmt=fmt,
        base=S,
    )
