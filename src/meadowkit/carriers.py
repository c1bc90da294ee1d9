"""Exact arithmetic carriers with a totalized multiplicative inverse.

Three carriers are supported: the rational numbers, prime fields GF(p),
and finite probe sets of rationals (rational arithmetic restricted to a
finite enumeration, used to approximate quantifiers).  In every carrier
the inverse of zero is zero, which makes inverse and division total.

A carrier's operations work on columns (`Ops`).  A column holds one
element per row of a block, and its type is the carrier's (`Ops.column`):
over GF(p) with p below 256 it is a `bytes` object, one byte per row,
and otherwise a `list`.  An operation accepts any sequence of elements
(a `list`, `bytes` or a `range`) and returns a column of its carrier's
type.  Over GF(p) below 256, negation and the inverse map a column
through one `bytes.translate` table each.  Below LANE_LIMIT a sum and a
product are a few C-level passes over byte lanes, one byte per row: a
sum adds two columns read as little-endian integers, where no lane
carries into the next, and reduces each lane by one `translate`; a
product adds discrete logarithms the same way and maps each lane sum
back through an exponential table.  Every other operation, and a power
always, is computed row by row.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple


class CarrierMismatchError(TypeError):
    """An operand does not belong to the carrier it is used with."""


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def read_int(text: str) -> int:
    """The integer of ASCII decimal text (`-?[0-9]+`, already matched):
    a modulus, a binding, a literal or an exponent.  Text over the
    interpreter's limit on integer text (`sys.get_int_max_str_digits()`,
    4300 digits by default), which printing a value meets too, is
    refused with a ValueError."""
    try:
        return int(text)
    except ValueError:  # over the interpreter's text-to-integer limit
        digits = len(text) - text.startswith("-")
        raise ValueError(
            f"a number of {digits} digits is over the limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def parse_rational(text: str) -> Fraction:
    """Parse the `num/den` text form (`den` omitted when 1)."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = read_int(m.group(1))
    den = read_int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # over the interpreter's integer-to-text limit
        digits = int(n.bit_length() * math.log10(2)) + 1
        raise ValueError(
            f"the value has about {digits} digits, over the printing limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def format_element(a) -> str:
    """Text form of a carrier element (`num/den`, `den` omitted when 1)."""
    if isinstance(a, Fraction):
        if a.denominator == 1:
            return _int_text(a.numerator)
        return f"{_int_text(a.numerator)}/{_int_text(a.denominator)}"
    return str(a)


def format_env(env) -> str:
    """Text form of an environment: `x=1,y=-1/2` by name, `{}` when empty."""
    if not env:
        return "{}"
    return ",".join(f"{k}={format_element(v)}" for k, v in sorted(env.items()))


class Ops(NamedTuple):
    """A carrier's field operations over columns, and its column type.

    Each operation takes sequences of elements (`list`, `bytes` or
    `range`, mixed too), one per row of a block, and returns the column
    of results, built by `column`.  `power` refuses row i by setting
    errors[i], and skips the rows already in `errors`, whose values no
    longer matter (a GF(p) power refuses none, so it computes every row).
    `column` makes a column from a sequence of elements:
    `bytes` over GF(p) with p below 256, else `list`.  Operands are not
    checked: they were checked where they entered.  Over GF(p) with p
    below 256, negation and the inverse, and below LANE_LIMIT a sum and
    a product too, are a few C-level passes over the column, one byte
    lane per row (`_byte_ops`)."""

    add: Callable
    mul: Callable
    neg: Callable
    inv_total: Callable
    power: Callable  # (xs, n, errors) -> the column of x^n for x in xs, n a natural number
    column: Callable  # a sequence of elements -> the column of them


class Carrier:
    """Base carrier: a set of elements with totalized field operations.

    A subclass defines the operations, over columns, as `ops`.  They do
    not check their operands: membership is checked once, where a value
    enters (`check`).
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


def _inv_rational(a: Fraction) -> Fraction:
    return 1 / a if a else a


class PowerBoundError(ValueError):
    """A rational power would be over MAX_POWER_BITS."""


#: The most bits a rational power a^n may take, estimated before it is
#: computed as (bits of a's numerator + bits of its denominator) * n.
#: 3^(10^6), about 1.6 M bits, is within it; bases 0, 1 and -1 are exempt.
MAX_POWER_BITS = 2**22


def _power_rational(a: Fraction, n: int, errors: dict, i: int) -> Fraction:
    size = a.numerator.bit_length() + a.denominator.bit_length()
    bits = size * n
    if bits > MAX_POWER_BITS and a not in (0, 1, -1):
        base = format_element(a) if size <= 256 else f"a base of {size} bits"
        errors[i] = PowerBoundError(
            f"{base} to the power {n} would take about {bits} bits, "
            f"over the bound of {MAX_POWER_BITS}"
        )
        return a  # never read: the row is refused
    return a**n


@dataclass(frozen=True)
class Rationals(Carrier):
    """The rational numbers with 0^-1 = 0."""

    enumerable = False
    ops = Ops(
        lambda xs, ys: list(map(operator.add, xs, ys)),
        lambda xs, ys: list(map(operator.mul, xs, ys)),
        lambda xs: list(map(operator.neg, xs)),
        lambda xs: list(map(_inv_rational, xs)),
        lambda xs, n, errors: [x if i in errors else _power_rational(x, n, errors, i)
                               for i, x in enumerate(xs)],
        list,
    )

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

#: The logarithm that stands for 0 in a product's lanes: the most whose
#: double, 254, still fits a byte lane of 256 values, so a lane sum of
#: _ZERO_LOG or more has a zero factor.
_ZERO_LOG = (256 - 2) // 2

#: GF(p) below this modulus adds and multiplies in byte lanes (`_byte_ops`).
#: A product's lane holds the sum of two discrete logarithms; for two
#: units that is at most 2(p - 2), which stays below _ZERO_LOG when
#: p < 256 // 4.  A sum's lane holds at most 2(p - 1), well within it.
LANE_LIMIT = 256 // 4


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
        object.__setattr__(self, "ops", _field_ops(p))  # not a field: frozen, and outside eq/hash

    def __str__(self):
        return f"gf{self.p}"

    def contains(self, a):
        return type(a) is int and 0 <= a < self.p

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)


def _generator(p: int) -> int:
    """The least element that generates GF(p)'s multiplicative group."""
    factors = {q for q in range(2, p) if (p - 1) % q == 0 and _is_prime(q)}
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


@functools.cache
def _field_ops(p: int) -> Ops:
    """GF(p)'s column operations, built once per modulus: row by row on
    lists, or on bytes below 256 (`_byte_ops`)."""
    ops = Ops(
        lambda xs, ys: [(x + y) % p for x, y in zip(xs, ys)],
        lambda xs, ys: [x * y % p for x, y in zip(xs, ys)],
        lambda xs: [-x % p for x in xs],
        lambda xs: [pow(x, -1, p) if x else 0 for x in xs],
        lambda xs, n, errors: [pow(x, n, p) for x in xs],
        list,
    )
    if p < 256:  # an element is one byte, and a column a byte string
        ops = ops._replace(**_byte_ops(p, ops))
    return ops


def _byte_ops(p: int, rows: Ops) -> dict:
    """GF(p)'s column operations on bytes, for p < 256, by `Ops` name,
    from its row-by-row operations `rows`.

    A column of n elements is n bytes, and each translate table maps a
    lane through a function of its byte: negation and the inverse, and
    below LANE_LIMIT a sum and a product too.  Read as a little-endian
    integer, two columns add lane by lane in one C-level addition, as no
    lane sum carries.  The other operations run `rows` and pack the
    results into bytes."""
    neg = bytes(-x % p for x in range(256))
    inv = bytes(pow(x, -1, p) if 0 < x < p else 0 for x in range(256))
    ops = {
        "neg": lambda xs: bytes(xs).translate(neg),
        "inv_total": lambda xs: bytes(xs).translate(inv),
        "power": lambda xs, n, errors: bytes(rows.power(xs, n, errors)),
        "column": bytes,
    }
    if p >= LANE_LIMIT:
        return ops | {
            "add": lambda xs, ys: bytes(rows.add(xs, ys)),
            "mul": lambda xs, ys: bytes(rows.mul(xs, ys)),
        }
    g = _generator(p)
    powers = [pow(g, e, p) for e in range(p - 1)]
    logs = [_ZERO_LOG] * 256
    for e, x in enumerate(powers):
        logs[x] = e
    log = bytes(logs)
    # a lane sum of two logarithms: g^s for a product of units, else 0
    exp = bytes(powers[s % (p - 1)] if s < _ZERO_LOG else 0 for s in range(256))
    mod = bytes(x % p for x in range(256))

    def add(xs, ys):
        n = len(xs)
        lanes = int.from_bytes(xs, "little") + int.from_bytes(ys, "little")
        return lanes.to_bytes(n, "little").translate(mod)

    def mul(xs, ys):
        n = len(xs)
        lanes = (int.from_bytes(bytes(xs).translate(log), "little")
                 + int.from_bytes(bytes(ys).translate(log), "little"))
        return lanes.to_bytes(n, "little").translate(exp)

    return ops | {"add": add, "mul": mul}


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
