"""Evaluation of terms in total and punched structures.

A structure is a carrier plus a punching mode.  The total mode realizes
the Komori field (inverse and division totalized through 0).  The three
punched modes make selected applications undefined:

* ``PUNCH_INV0``        -- 0^-1 is undefined;
* ``PUNCH_DIV_ALL0``    -- q/0 is undefined for every q;
* ``PUNCH_DIV_NONZERO0`` -- q/0 is undefined for q != 0 (0/0 stays 0).

Undefinedness propagates strictly: a term with an undefined subterm is
undefined.  Total evaluation is partial evaluation in the total mode,
where nothing is punched.

A term is compiled once per structure into a closure that reads its
variables from a frame of slots (`compile_term`, `Scope`); carrier
membership is checked where a value enters a frame, not per operation.

An axiom is a name plus a quantifier-free formula whose free variables
are read universally; it is compiled once (`logic.compile_formula`,
which gives only T or F in a total structure) and run on each
environment of the enumeration.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .carriers import Carrier, format_env
from .parser import parse_formula
from .parser import parse_term  # unused here; bench/tracing.py wraps this module attribute
from .printer import print_formula
from .printer import print_term  # unused here; bench/tracing.py wraps this module attribute
from .terms import (
    Add,
    Div,
    Exists,
    Forall,
    Formula,
    Inv,
    Mul,
    Neg,
    NumLit,
    One,
    Pow,
    Term,
    Var,
    Zero,
    _contains,
    free_vars,
)


class UnboundVariableError(LookupError):
    pass


class Mode(Enum):
    TOTAL = "total"
    PUNCH_INV0 = "punch-inv"
    PUNCH_DIV_ALL0 = "punch-div-all"
    PUNCH_DIV_NONZERO0 = "punch-div-nonzero"


@dataclass(frozen=True)
class StructureSpec:
    carrier: Carrier
    mode: Mode = Mode.TOTAL


class _UndefinedType:
    __slots__ = ()

    def __repr__(self):
        return "UNDEFINED"


#: Out-of-band marker for non-denoting terms; never a carrier element.
UNDEFINED = _UndefinedType()


#: The most environments one enumeration may visit: p^k for a law with
#: k variables over GF(p), |carrier|^d for quantifiers nested d deep.
ENUMERATION_BUDGET = 10**7


def checked_elements(carrier: Carrier, depth: int) -> list:
    """The carrier's elements, each checked once, for an enumeration
    `depth` variables deep; refused before the list is built when the
    enumeration would exceed ENUMERATION_BUDGET.  At depth 0 the one
    (empty) environment needs no elements."""
    values = carrier.elements()
    # len() of a range overflows past sys.maxsize, and GF(p) goes further
    n = values.stop - values.start if isinstance(values, range) else len(values)
    if n**depth > ENUMERATION_BUDGET:
        raise ValueError(
            f"enumeration of {n}^{depth} environments is over "
            f"the budget of {ENUMERATION_BUDGET}"
        )
    return [carrier.check(v) for v in values] if depth else []


class _Punched(Exception):
    """A punched application was reached; caught where a term's value is read."""


class Scope:
    """Frame slots of one compiled term or formula.

    A compiled closure reads its variables from a frame, a sequence with
    one value per slot.  `names` get slots 0, 1, ... in order; with
    `grow`, any other free name gets the next slot when the compiler
    meets it, otherwise it is unbound.  A quantifier binds its variable
    to a fresh slot for the extent of its body.
    """

    def __init__(self, names=(), grow=True):
        self.slot = {name: i for i, name in enumerate(names)}
        self.free = dict(self.slot)
        self.size = len(self.slot)
        self.grow = grow
        self.depth = self.max_depth = 0

    def lookup(self, name: str) -> int:
        i = self.slot.get(name)
        if i is None:
            if not self.grow:
                raise UnboundVariableError(f"unbound variable {name!r}")
            i = self.slot[name] = self.free[name] = self.size
            self.size += 1
        return i

    def bind(self, name: str):
        """A fresh slot for a quantified name; pass the result to `unbind`."""
        outer = self.slot.get(name)
        self.slot[name] = self.size
        self.size += 1
        self.depth += 1
        self.max_depth = max(self.max_depth, self.depth)
        return self.slot[name], outer

    def unbind(self, name: str, outer):
        self.depth -= 1
        if outer is None:
            del self.slot[name]
        else:
            self.slot[name] = outer

    def frame(self, env, carrier: Carrier) -> list:
        """A frame holding env's value of every free name, each checked once."""
        frame = [None] * self.size
        for name, i in self.free.items():
            try:
                value = env[name]
            except KeyError:
                raise UnboundVariableError(f"unbound variable {name!r}") from None
            frame[i] = carrier.check(value)
        return frame


# Closure builders.  They live outside the compiler so that each closure
# captures only what it uses.


def _constant(value):
    return lambda f: value


def _unary(op, a):
    return lambda f: op(a(f))


def _binary(op, a, b):
    return lambda f: op(a(f), b(f))


def _inverse_punched(inv, zero, a):
    def inverse(f):
        x = a(f)
        if x == zero:
            raise _Punched
        return inv(x)

    return inverse


def _division(mul, inv, zero, a, b):
    return lambda f: mul(a(f), inv(b(f)))


def _division_punched_all(mul, inv, zero, a, b):
    def division(f):
        x, y = a(f), b(f)
        if y == zero:
            raise _Punched
        return mul(x, inv(y))

    return division


def _division_punched_nonzero(mul, inv, zero, a, b):
    def division(f):
        x, y = a(f), b(f)
        if y == zero and x != zero:
            raise _Punched
        return mul(x, inv(y))

    return division


def term_compiler(s: StructureSpec, scope: Scope):
    """A function compiling terms into closures that compute them in s
    from a frame laid out by `scope`.

    The punch tests of s's mode are chosen here and sit only in the Inv
    and Div closures; a punched application raises _Punched, which the
    caller turns into UNDEFINED.  Operands are not checked: every value
    in a frame was checked where it entered.
    """
    c = s.carrier
    add, mul, neg, inv, power = c.ops
    zero = c.from_int(0)
    punch_inverse = s.mode is Mode.PUNCH_INV0
    division = (
        _division_punched_all if s.mode is Mode.PUNCH_DIV_ALL0
        else _division_punched_nonzero if s.mode is Mode.PUNCH_DIV_NONZERO0
        else _division
    )

    def comp(t):
        cls = type(t)
        if cls is Var:
            return operator.itemgetter(scope.lookup(t.name))
        if cls is Add:
            return _binary(add, comp(t.left), comp(t.right))
        if cls is Mul:
            return _binary(mul, comp(t.left), comp(t.right))
        if cls is Div:
            return division(mul, inv, zero, comp(t.left), comp(t.right))
        if cls is Neg:
            return _unary(neg, comp(t.arg))
        if cls is Inv:
            a = comp(t.arg)
            return _inverse_punched(inv, zero, a) if punch_inverse else _unary(inv, a)
        if cls is Pow:
            a, n = comp(t.arg), t.n
            return lambda f: power(a(f), n)
        if cls is NumLit:
            return _constant(c.from_int(t.value))
        if cls is Zero or cls is One:
            return _constant(c.from_int(int(cls is One)))
        raise TypeError(f"not a term: {t!r}")

    return comp


def compile_term(t: Term, s: StructureSpec, scope: Scope):
    """A closure computing t in s from a frame laid out by `scope`."""
    return term_compiler(s, scope)(t)


def eval_partial(t: Term, env, s: StructureSpec):
    """Evaluate a term in a structure; UNDEFINED on a punched application.

    Every free name is looked up in env before anything runs, so an
    unbound variable is reported even next to an undefined subterm.
    """
    scope = Scope()
    fn = compile_term(t, s, scope)
    frame = scope.frame(env, s.carrier)
    try:
        return fn(frame)
    except _Punched:
        return UNDEFINED


def eval_total(t: Term, env, s: StructureSpec):
    """Evaluate a term in a total structure; never fails on zero."""
    if s.mode is not Mode.TOTAL:
        raise ValueError("eval_total requires a structure with total mode")
    return eval_partial(t, env, s)


def check_samples(samples: int) -> None:
    """Refuse a sample count outside 1..ENUMERATION_BUDGET."""
    if not 1 <= samples <= ENUMERATION_BUDGET:
        raise ValueError(f"samples must be between 1 and {ENUMERATION_BUDGET}, got {samples}")


def random_rational(rng: random.Random) -> Fraction:
    """Uniform numerator and nonzero denominator in [-9999, 9999]."""
    num = rng.randint(-9999, 9999)
    den = 0
    while den == 0:
        den = rng.randint(-9999, 9999)
    return Fraction(num, den)


def _environments(k: int, c: Carrier, samples: int, seed: int):
    """Environments of k variables as tuples: over an enumerable carrier
    all of them, in itertools.product order; otherwise `samples` seeded
    random ones, and the one empty environment of a closed law once."""
    if c.enumerable:
        return itertools.product(checked_elements(c, k), repeat=k)
    rng = random.Random(seed)
    return (
        tuple([c.check(random_rational(rng)) for _ in range(k)])
        for _ in range(samples if k else 1)
    )


@dataclass(frozen=True)
class AxiomSpec:
    """A named law: a quantifier-free formula whose free variables are
    read universally."""

    name: str
    formula: Formula

    def __post_init__(self):
        if _contains(self.formula, (Forall, Exists)):
            raise ValueError(
                f"law {print_formula(self.formula)!r} has a quantifier; "
                "write it quantifier-free, its free variables are read universally"
            )


@dataclass
class AxiomReport:
    name: str
    equation: str
    passed: bool
    samples: int
    witness: dict | None = None

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} axiom={self.equation} samples={self.samples}"
        if self.witness is not None:
            line += f" witness={format_env(self.witness)}"
        return line


def verify_axiom_spec(
    spec: AxiomSpec, s: StructureSpec, samples: int = 1000, seed: int = 0
) -> AxiomReport:
    """Check a law on every environment of an enumerable carrier, else on
    `samples` random environments drawn with `seed`."""
    from .logic import LPMD, T, compile_formula  # logic builds on this module

    check_samples(samples)
    if s.mode is not Mode.TOTAL:
        raise ValueError("axioms are verified in total structures")
    text = print_formula(spec.formula)
    names = sorted(free_vars(spec.formula))
    law = compile_formula(spec.formula, LPMD, s, Scope(names, grow=False))
    checked = 0
    for checked, env in enumerate(_environments(len(names), s.carrier, samples, seed), 1):
        if law(env) is not T:
            return AxiomReport(spec.name, text, False, checked, dict(zip(names, env)))
    return AxiomReport(spec.name, text, True, checked)


def _ax(name: str, text: str) -> AxiomSpec:
    return AxiomSpec(name, parse_formula(text))


def axiom_catalog() -> list[AxiomSpec]:
    """The 15-law catalog: ring, inversive, divisive, separation, general laws."""
    return [
        _ax("add-assoc", "(x + y) + z = x + (y + z)"),
        _ax("add-comm", "x + y = y + x"),
        _ax("add-unit", "x + 0 = x"),
        _ax("add-inverse", "x + (-x) = 0"),
        _ax("mul-assoc", "(x*y)*z = x*(y*z)"),
        _ax("mul-comm", "x*y = y*x"),
        _ax("mul-unit", "x*1 = x"),
        _ax("distributivity", "x*(y + z) = x*y + x*z"),
        _ax("inv-involution", "(x^-1)^-1 = x"),
        _ax("inv-restricted", "x*(x*x^-1) = x"),
        _ax("div-reflection", "1/(1/x) = x"),
        _ax("div-restricted", "(x*x)/x = x"),
        _ax("div-as-inverse", "x/y = x*(1/y)"),
        _ax("separation", "0 != 1"),
        _ax("general-inverse-division-law", "x != 0 => x*x^-1 = 1 & x/x = 1"),
    ]
