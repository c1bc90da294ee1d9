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

An axiom is a name plus a quantifier-free formula whose free variables
are read universally; it is verified environment by environment with
classical (two-valued) truth.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .carriers import Carrier, format_element
from .parser import parse_formula
from .parser import parse_term  # unused here; bench/tracing.py wraps this module attribute
from .printer import print_formula
from .printer import print_term  # unused here; bench/tracing.py wraps this module attribute
from .terms import (
    Add,
    And,
    Div,
    Eq,
    Exists,
    Forall,
    Formula,
    Gt,
    Implies,
    Inv,
    Lt,
    Mul,
    Neg,
    Not,
    NumLit,
    One,
    Or,
    Term,
    Var,
    Zero,
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


def _lookup(env, name, carrier):
    try:
        value = env[name]
    except KeyError:
        raise UnboundVariableError(f"unbound variable {name!r}") from None
    return carrier.check(value)


def eval_partial(t: Term, env, s: StructureSpec):
    """Evaluate a term in a structure; UNDEFINED on a punched application.

    Both operands of a node are evaluated before any punch test, so an
    unbound variable is reported even next to an undefined subterm.  The
    punch tests sit only in the Inv and Div branches, and each reads the
    mode before it compares with zero, so the total mode pays nothing
    per node for them.
    """
    c = s.carrier
    if isinstance(t, Var):
        return _lookup(env, t.name, c)
    if isinstance(t, (Add, Mul, Div)):
        a = eval_partial(t.left, env, s)
        b = eval_partial(t.right, env, s)
        if a is UNDEFINED or b is UNDEFINED:
            return UNDEFINED
        if isinstance(t, Add):
            return c.add(a, b)
        if isinstance(t, Mul):
            return c.mul(a, b)
        if s.mode is Mode.PUNCH_DIV_ALL0 and b == c.from_int(0):
            return UNDEFINED
        if s.mode is Mode.PUNCH_DIV_NONZERO0 and b == c.from_int(0) and a != c.from_int(0):
            return UNDEFINED
        return c.div_total(a, b)
    if isinstance(t, (Neg, Inv)):
        a = eval_partial(t.arg, env, s)
        if a is UNDEFINED:
            return UNDEFINED
        if isinstance(t, Neg):
            return c.neg(a)
        if s.mode is Mode.PUNCH_INV0 and a == c.from_int(0):
            return UNDEFINED
        return c.inv_total(a)
    if isinstance(t, Zero):
        return c.from_int(0)
    if isinstance(t, One):
        return c.from_int(1)
    if isinstance(t, NumLit):
        return c.from_int(t.value)
    raise TypeError(f"not a term: {t!r}")


def eval_total(t: Term, env, s: StructureSpec):
    """Evaluate a term in a total structure; never fails on zero."""
    if s.mode is not Mode.TOTAL:
        raise ValueError("eval_total requires a structure with total mode")
    return eval_partial(t, env, s)


def classical_truth(f, env, s: StructureSpec) -> bool:
    """Two-valued truth of a quantifier-free formula in a total structure."""
    if isinstance(f, Eq):
        return eval_total(f.left, env, s) == eval_total(f.right, env, s)
    if isinstance(f, Gt):
        return eval_total(f.left, env, s) > eval_total(f.right, env, s)
    if isinstance(f, Lt):
        return eval_total(f.left, env, s) < eval_total(f.right, env, s)
    if isinstance(f, Not):
        return not classical_truth(f.arg, env, s)
    if isinstance(f, And):
        return classical_truth(f.left, env, s) and classical_truth(f.right, env, s)
    if isinstance(f, Or):
        return classical_truth(f.left, env, s) or classical_truth(f.right, env, s)
    if isinstance(f, Implies):
        return (not classical_truth(f.left, env, s)) or classical_truth(f.right, env, s)
    raise TypeError(f"not a quantifier-free formula: {f!r}")


@dataclass(frozen=True)
class Exhaustive:
    pass


@dataclass(frozen=True)
class RandomSample:
    count: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"samples must be at least 1, got {self.count}")


def random_rational(rng: random.Random) -> Fraction:
    """Uniform numerator and nonzero denominator in [-9999, 9999]."""
    num = rng.randint(-9999, 9999)
    den = 0
    while den == 0:
        den = rng.randint(-9999, 9999)
    return Fraction(num, den)


def _environments(names, s: StructureSpec, strategy):
    names = sorted(names)
    if isinstance(strategy, Exhaustive):
        if not s.carrier.enumerable:
            raise ValueError("exhaustive verification needs an enumerable carrier")
        for combo in itertools.product(s.carrier.elements(), repeat=len(names)):
            yield dict(zip(names, combo))
    elif isinstance(strategy, RandomSample):
        # a closed law has one environment, the empty one: check it once
        rng = random.Random(strategy.seed)
        for _ in range(strategy.count if names else 1):
            yield {n: random_rational(rng) for n in names}
    else:
        raise TypeError(f"unknown strategy: {strategy!r}")


def _quantifier_free(f) -> bool:
    if isinstance(f, (Forall, Exists)):
        return False
    if isinstance(f, Not):
        return _quantifier_free(f.arg)
    if isinstance(f, (And, Or, Implies)):
        return _quantifier_free(f.left) and _quantifier_free(f.right)
    return True


@dataclass(frozen=True)
class AxiomSpec:
    """A named law: a quantifier-free formula whose free variables are
    read universally."""

    name: str
    formula: Formula

    def __post_init__(self):
        if not _quantifier_free(self.formula):
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
            bindings = ",".join(
                f"{k}={format_element(v)}" for k, v in sorted(self.witness.items())
            )
            line += f" witness={bindings}"
        return line


def verify_axiom_spec(spec: AxiomSpec, s: StructureSpec, strategy) -> AxiomReport:
    if s.mode is not Mode.TOTAL:
        raise ValueError("axioms are verified in total structures")
    text = print_formula(spec.formula)
    samples = 0
    for env in _environments(free_vars(spec.formula), s, strategy):
        samples += 1
        if not classical_truth(spec.formula, env, s):
            return AxiomReport(spec.name, text, False, samples, dict(env))
    return AxiomReport(spec.name, text, True, samples)


def verify_axiom(lhs: Term, rhs: Term, s: StructureSpec, strategy, guard=None) -> AxiomReport:
    """Verify lhs = rhs (optionally under a classical guard) in a total structure."""
    law = Eq(lhs, rhs) if guard is None else Implies(guard, Eq(lhs, rhs))
    return verify_axiom_spec(AxiomSpec("axiom", law), s, strategy)


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
