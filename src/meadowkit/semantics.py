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

A term is compiled once per structure into a closure over a frame
(`compile_term`).  A frame holds a block of rows as a dict from each
variable name to its column, and one closure call computes a whole
column; a single value (`eval`, a constant fold) is a block of one row.
Carrier membership is checked where a value enters a frame.  An
undefined-row map gives each row that does not denote its reason: None
for a punched application, which keeps the total value (exact, as
undefinedness is strict), or the PowerBoundError of a power over the
bound.  A power skips the rows in the map, so a row keeps its first
reason.

A sweep (an axiom's environments, a quantifier's instances, the lint
witness search) goes in itertools.product order, in blocks of at most
BLOCK rows; each consumer raises the error of the first row it meets.

An axiom is a name plus a quantifier-free formula whose free variables
are read universally; it is compiled once (`logic.compile_formula`:
T, F or a row's error in a total structure) and run on the blocks of
the enumeration.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .carriers import Carrier, PowerBoundError, format_env
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
)
from .terms import free_vars  # unused here; bench/tracing.py wraps this module attribute


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


#: The most rows of a block: a sweep's memory is bounded by it.
BLOCK = 4096


def checked_elements(carrier: Carrier, depth: int):
    """The carrier's elements (members by construction) for an
    enumeration `depth` variables deep; refused when the enumeration
    would exceed ENUMERATION_BUDGET.  At depth 0 the one (empty)
    environment needs no elements."""
    values = carrier.elements()
    # len() of a range overflows past sys.maxsize, and GF(p) goes further
    n = values.stop - values.start if isinstance(values, range) else len(values)
    if n**depth > ENUMERATION_BUDGET:
        raise ValueError(
            f"enumeration of {n}^{depth} environments is over "
            f"the budget of {ENUMERATION_BUDGET}"
        )
    return values if depth else ()


def block_sizes():
    """16, 32, ..., BLOCK, BLOCK, ... rows: a sweep that stops early
    computes at most about as many rows again, or 16."""
    size = min(16, BLOCK)
    while True:
        yield size
        size = min(2 * size, BLOCK)


def product_blocks(values, names):
    """The rows of itertools.product(values, repeat=len(names)) in blocks
    of `block_sizes`, each as (its frame, its number of rows): the j-th
    name's column is the j-th coordinate."""
    k = len(names)
    total, start = len(values) ** k, 0
    for size in block_sizes():
        if start == total:
            return
        stop = min(start + size, total)
        yield {name: _product_column(values, len(values) ** (k - 1 - j), start, stop)
               for j, name in enumerate(names)}, stop - start
        start = stop


def _product_column(values, run: int, start: int, stop: int) -> list:
    """Rows start..stop-1 of a product column whose value changes every
    `run` rows."""
    m, n = len(values), stop - start
    if m * run <= n:  # whole periods: tile one
        period = list(values) if run == 1 else [v for v in values for _ in range(run)]
        offset = start % len(period)
        return (period * (n // len(period) + 2))[offset:offset + n]
    if run == 1:  # fewer rows than values, each value one row
        return [values[q % m] for q in range(start, stop)]
    column = []
    for q in range(start // run, (stop - 1) // run + 1):
        column += [values[q % m]] * (min(stop, (q + 1) * run) - max(start, q * run))
    return column


def select_rows(frame, rows) -> dict:
    """The frame of the given rows of a frame."""
    return {name: [column[i] for i in rows] for name, column in frame.items()}


def first_hit(blocks, test):
    """(rows visited, the first hit row as an environment or None) of a
    sweep: `test(frame, n)` gives the index of a block's first hit row or
    None, or raises the error of a row before it."""
    visited = 0
    for frame, n in blocks:
        i = test(frame, n)
        if i is not None:
            return visited + i + 1, {name: column[i] for name, column in frame.items()}
        visited += n
    return visited, None


def row_frame(names, env, carrier: Carrier) -> dict:
    """A frame of one row: env's value of each name, checked; the first
    name env lacks is unbound."""
    frame = {}
    for name in names:
        try:
            value = env[name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {name!r}") from None
        frame[name] = [carrier.check(value)]
    return frame


# Closure builders.  They live outside the compiler so that each closure
# captures only what it uses.  A term closure maps (frame, rows,
# undefined-row map) to a column.


def zero_rows(xs):
    """The indices of the zero values of a column."""
    return itertools.compress(itertools.count(), map(operator.not_, xs))


def _variable(name):
    return lambda f, n, u: f[name]


def _constant(value):
    return lambda f, n, u: [value] * n


def _unary(op, a):
    return lambda f, n, u: op(a(f, n, u))


def _binary(op, a, b):
    return lambda f, n, u: op(a(f, n, u), b(f, n, u))


def _power(power, zero, a, e):
    def pw(f, n, u):
        xs = a(f, n, u)
        if u:  # never read, and 0^e is within any bound
            xs = [zero if i in u else x for i, x in enumerate(xs)]
        return power(xs, e, u)

    return pw


def _inverse_punched(inv, a):
    def inverse(f, n, u):
        xs = a(f, n, u)
        u.update({i: None for i in zero_rows(xs) if i not in u})  # a row keeps its first reason
        return inv(xs)

    return inverse


def _division(mul, inv, punched, a, b):
    def division(f, n, u):
        xs, ys = a(f, n, u), b(f, n, u)
        if punched:
            u.update({i: None for i in punched(xs, ys) if i not in u})
        return mul(xs, inv(ys))

    return division


#: The rows where a punching mode leaves x/y undefined.
_PUNCHED_DIVISIONS = {
    Mode.PUNCH_DIV_ALL0: lambda xs, ys: zero_rows(ys),
    Mode.PUNCH_DIV_NONZERO0: lambda xs, ys: (i for i in zero_rows(ys) if xs[i]),
}


def term_compiler(s: StructureSpec, free: dict, bound=()):
    """A function compiling terms into closures that compute them in s
    from a frame.  Each variable name not in `bound` is recorded in the
    dict `free` when first met, so `free` lists the free names in
    textual order.

    The punch tests of s's mode are chosen here and sit only in the Inv
    and Div closures; a punched row goes into the undefined-row map.
    Operands are not checked: every value in a frame was checked where
    it entered.
    """
    c = s.carrier
    add, mul, neg, inv, power = c.ops
    zero = c.from_int(0)
    punch_inverse = s.mode is Mode.PUNCH_INV0
    punched_division = _PUNCHED_DIVISIONS.get(s.mode)

    def comp(t):
        cls = type(t)
        if cls is Var:
            if t.name not in bound:
                free.setdefault(t.name)
            return _variable(t.name)
        if cls is Add:
            return _binary(add, comp(t.left), comp(t.right))
        if cls is Mul:
            return _binary(mul, comp(t.left), comp(t.right))
        if cls is Div:
            return _division(mul, inv, punched_division, comp(t.left), comp(t.right))
        if cls is Neg:
            return _unary(neg, comp(t.arg))
        if cls is Inv:
            a = comp(t.arg)
            return _inverse_punched(inv, a) if punch_inverse else _unary(inv, a)
        if cls is Pow:
            return _power(power, zero, comp(t.arg), t.n)
        if cls is NumLit:
            return _constant(c.from_int(t.value))
        if cls is Zero or cls is One:
            return _constant(c.from_int(int(cls is One)))
        raise TypeError(f"not a term: {t!r}")

    return comp


def compile_term(t: Term, s: StructureSpec):
    """A closure computing t in s from a frame that holds t's free names:
    `fn(frame, rows, undefined)` gives t's column and adds each row where
    t does not denote to the map `undefined`, with its reason."""
    return term_compiler(s, {})(t)


def eval_partial(t: Term, env, s: StructureSpec):
    """Evaluate a term in a structure; UNDEFINED on a punched application.

    Every free name is looked up in env before anything runs, so an
    unbound variable is reported even next to an undefined subterm.
    """
    free = {}
    fn = term_compiler(s, free)(t)
    undefined = {}
    (value,) = fn(row_frame(free, env, s.carrier), 1, undefined)
    if undefined.get(0):  # a power over the bound came first
        raise undefined[0]
    return UNDEFINED if undefined else value


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


def _environments(names, c: Carrier, samples: int, seed: int):
    """Blocks of environments of the names: over an enumerable carrier
    all of them, in itertools.product order; otherwise `samples` seeded
    random ones, drawn row by row, and the one empty environment of a
    closed law once."""
    k = len(names)
    if c.enumerable:
        yield from product_blocks(checked_elements(c, k), names)
        return
    rng, samples, sizes = random.Random(seed), samples if k else 1, block_sizes()
    while samples:
        n = min(next(sizes), samples)
        values = [c.check(random_rational(rng)) for _ in range(n * k)]
        yield {name: values[j::k] for j, name in enumerate(names)}, n
        samples -= n


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
    `samples` random environments drawn with `seed`; the report names the
    first environment where it is not T, or that row's error is raised."""
    from .logic import LPMD, T, compile_formula  # logic builds on this module

    check_samples(samples)
    if s.mode is not Mode.TOTAL:
        raise ValueError("axioms are verified in total structures")
    text = print_formula(spec.formula)
    free = {}
    law = compile_formula(spec.formula, LPMD, s, free)

    def failing(frame, n):
        values = law(frame, n)
        i = None if values.count(T) == n else next(i for i, v in enumerate(values) if v is not T)
        if i is not None and isinstance(values[i], PowerBoundError):
            raise values[i]
        return i

    checked, env = first_hit(_environments(sorted(free), s.carrier, samples, seed), failing)
    if env is not None:
        return AxiomReport(spec.name, text, False, checked, env)
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
