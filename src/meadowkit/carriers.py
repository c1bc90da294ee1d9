"""Exact arithmetic carriers with a totalized multiplicative inverse.

Three carriers are supported: the rational numbers, prime fields GF(p),
and finite probe sets of rationals (rational arithmetic restricted to a
finite enumeration, used to approximate quantifiers).  In every carrier
the inverse of zero is zero, which makes inverse and division total.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple


class CarrierMismatchError(TypeError):
    """An operand does not belong to the carrier it is used with."""


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse the `num/den` text form (`den` omitted when 1)."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_element(a) -> str:
    """Text form of a carrier element (`num/den`, `den` omitted when 1)."""
    if isinstance(a, Fraction):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"
    return str(a)


class Ops(NamedTuple):
    """A carrier's field operations without membership checks, for
    operands already checked where they entered (a binding, an
    enumerated element)."""

    add: Callable
    mul: Callable
    neg: Callable
    inv_total: Callable


class Carrier:
    """Base carrier: a set of elements with totalized field operations.

    A subclass defines the unchecked operations as `ops`; the public
    operations below check every operand and then call them.
    """

    enumerable: bool = False
    ops: Ops

    def contains(self, a) -> bool:
        raise NotImplementedError

    def check(self, a):
        if not self.contains(a):
            raise CarrierMismatchError(f"{a!r} is not an element of {self}")
        return a

    def from_int(self, n: int):
        raise NotImplementedError

    def elements(self):
        raise ValueError(f"{self} is not enumerable")

    def add(self, a, b):
        return self.ops.add(self.check(a), self.check(b))

    def mul(self, a, b):
        return self.ops.mul(self.check(a), self.check(b))

    def neg(self, a):
        return self.ops.neg(self.check(a))

    def inv_total(self, a):
        return self.ops.inv_total(self.check(a))

    def div_total(self, a, b):
        return self.ops.mul(self.check(a), self.ops.inv_total(self.check(b)))


def _inv_rational(a: Fraction) -> Fraction:
    return 1 / a if a else a


@dataclass(frozen=True)
class Rationals(Carrier):
    """The rational numbers with 0^-1 = 0."""

    enumerable = False
    ops = Ops(operator.add, operator.mul, operator.neg, _inv_rational)

    def __str__(self):
        return "rationals"

    def contains(self, a):
        return isinstance(a, Fraction)

    def from_int(self, n):
        return Fraction(n)


#: The first thirteen primes.  Miller-Rabin with these bases decides
#: primality exactly below PRIME_LIMIT, the least strong pseudoprime to
#: all of them (Sorenson & Webster, 2015).  Without 41 it would be exact
#: only below 318665857834031151167461, a strong pseudoprime to 2..37.
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < PRIME_LIMIT."""
    if p < 2:
        return False
    for q in _WITNESS_BASES:
        if p % q == 0:
            return p == q
    if p < 43 * 43:  # a composite this small has a prime factor up to 41
        return True
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESS_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField(Carrier):
    """GF(p), a finite field on 0..p-1 with 0^-1 = 0."""

    p: int
    enumerable = True

    def __post_init__(self):
        p = self.p
        if p >= PRIME_LIMIT:
            raise ValueError(f"modulus must be below {PRIME_LIMIT}, got {p}")
        if not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        ops = Ops(
            lambda a, b: (a + b) % p,
            lambda a, b: (a * b) % p,
            lambda a: (-a) % p,
            lambda a: pow(a, p - 2, p) if a else 0,
        )
        object.__setattr__(self, "ops", ops)  # not a field: frozen, and outside eq/hash

    def __str__(self):
        return f"gf{self.p}"

    def contains(self, a):
        return type(a) is int and 0 <= a < self.p

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)


@dataclass(frozen=True)
class FiniteProbeSet(Rationals):
    """Rational arithmetic with a finite enumeration of probe values.

    The probe values only feed quantifier enumeration; arithmetic is
    ordinary rational arithmetic and may leave the probe set.
    """

    values: tuple = ()
    enumerable = True

    def __post_init__(self):
        if not self.values:
            raise ValueError("probe set must be non-empty")
        if any(not isinstance(v, Fraction) for v in self.values):
            raise ValueError("probe values must be rationals")
        if len(set(self.values)) != len(self.values):
            raise ValueError("probe set must be duplicate-free")

    def __str__(self):
        return "probe{" + ",".join(format_element(v) for v in self.values) + "}"

    def elements(self):
        return self.values


RATIONALS = Rationals()
