"""Exact arithmetic carriers with a totalized multiplicative inverse.

Three carriers are supported: the rational numbers, prime fields GF(p),
and finite probe sets of rationals (rational arithmetic restricted to a
finite enumeration, used to approximate quantifiers).  In every carrier
the inverse of zero is zero, which makes inverse and division total.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


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


class Carrier:
    """Base carrier: a set of elements with totalized field operations."""

    enumerable: bool = False

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
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv_total(self, a):
        raise NotImplementedError

    def div_total(self, a, b):
        return self.mul(a, self.inv_total(b))


@dataclass(frozen=True)
class Rationals(Carrier):
    """The rational numbers with 0^-1 = 0."""

    enumerable = False

    def __str__(self):
        return "rationals"

    def contains(self, a):
        return isinstance(a, Fraction)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        self.check(a)
        self.check(b)
        return a + b

    def mul(self, a, b):
        self.check(a)
        self.check(b)
        return a * b

    def neg(self, a):
        self.check(a)
        return -a

    def inv_total(self, a):
        self.check(a)
        if a == 0:
            return Fraction(0)
        return 1 / a


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField(Carrier):
    """GF(p), a finite field on 0..p-1 with 0^-1 = 0."""

    p: int
    enumerable = True

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")

    def __str__(self):
        return f"gf{self.p}"

    def contains(self, a):
        return type(a) is int and 0 <= a < self.p

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)

    def add(self, a, b):
        self.check(a)
        self.check(b)
        return (a + b) % self.p

    def mul(self, a, b):
        self.check(a)
        self.check(b)
        return (a * b) % self.p

    def neg(self, a):
        self.check(a)
        return (-a) % self.p

    def inv_total(self, a):
        self.check(a)
        if a == 0:
            return 0
        return pow(a, self.p - 2, self.p)


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
