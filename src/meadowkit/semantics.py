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
A column is a sequence with one element per row, of the carrier's
column type (`carriers.Ops.column`): a byte string over GF(p) with p
below 256, where no sweep builds a list of elements, else a list.
Carrier membership is checked where a value enters a frame.  An
undefined-row map gives each row that does not denote its reason: None
for a punched application, which keeps the total value, or the
PowerBoundError of a power over the bound.  Undefinedness is strict, so
a row's value no longer matters once it is in the map, and the carrier's
power skips the rows that already have a reason: a row keeps its first.

A sweep (an axiom's environments, a quantifier's instances, the lint
witness search) goes in itertools.product order, in blocks of at most
BLOCK rows, and raises the error of the first row it meets.  Every
sweep, and every quantifier's groups, take the block sizes of one
schedule, `block_sizes(column)`, which follows the column type.

An axiom is a name plus a quantifier-free formula whose free variables
are read universally; it is compiled once per spec and arithmetic
(`AxiomSpec.law`, by `logic.compile_formula`: T, F or a row's error in a
total structure), and `verify_axiom_spec` runs it on the blocks of the
enumeration in one loop that stops at the first row that is not T.
Over GF(p), p < 256, an enumeration of at most BLOCK rows is one frame,
kept with the compiled law, so such a sweep builds no frame.  The
catalog lives for the process, so it compiles once per arithmetic:
in-process callers gain, and a one-shot process compiles each law once,
as before.  A spec keeps the laws of its last CACHE_BOUND arithmetics
(`carriers.keep`), so a caller that meets many primes stays bounded.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .carriers import Carrier, PowerBoundError, format_env, keep
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


def block_sizes(column):
    """The block sizes of every sweep of columns of the type `column`
    (`carriers.Ops.column`).  Byte columns take whole blocks, BLOCK,
    BLOCK, ... rows, since a row of byte columns costs far less than the
    call that computes a block.  List columns (the rationals, probe sets,
    GF(p) from 257 up, the lint residues) take 16, 32, ..., BLOCK, BLOCK,
    ... rows, so a sweep that stops early computes at most about as many
    rows again, or 16."""
    size = BLOCK if column is bytes else min(16, BLOCK)
    while True:
        yield size
        size = min(2 * size, BLOCK)


def product_blocks(values, names, column):
    """The rows of itertools.product(values, repeat=len(names)) in blocks,
    each as (its frame, its number of rows): the j-th name's column is
    the j-th coordinate.  Each frame column is made by the column type
    `column` (`carriers.Ops.column`) from slices of the sequence `values`
    and repeated, so no sweep over GF(p) below 256 builds a list of
    elements, and a range of more values than a block is never built
    whole.  The blocks take `block_sizes(column)`.  Nothing is cached
    here: a caller that sweeps one frame again keeps it, as
    `CompiledLaw.block` does."""
    k, m = len(names), len(values)
    total, start = m**k, 0
    if m <= BLOCK:
        values = column(values)
    runs = [m ** (k - 1 - j) for j in range(k)]  # the j-th coordinate changes every runs[j] rows
    periods = [stretch(values, run) if m * run <= BLOCK else None for run in runs]
    for size in block_sizes(column):
        if start == total:
            return
        stop = min(start + size, total)
        yield {name: _product_column(values, column, run, period, start, stop)
               for name, run, period in zip(names, runs, periods)}, stop - start
        start = stop


def stretch(values, run: int):
    """Each value of a column `run` times in a row, as a column of its type."""
    if run == 1:
        return values
    return functools.reduce(operator.iadd, [values[i:i + 1] * run for i in range(len(values))], values[:0])


def _product_column(values, column, run: int, period, start: int, stop: int):
    """Rows start..stop-1 of a product column whose value changes every
    `run` rows: cut from its period if that is given.  Else the period is
    over a block, so the rows take at most len(values) + 1 consecutive
    values, modulo len(values): taken in at most two slices of `values`,
    stretched by `run`, and cut from the offset of `start` in its run."""
    n = stop - start
    if period is not None:
        offset = start % len(period)
        if offset + n > len(period):
            period = period * (n // len(period) + 2)
        return period[offset:offset + n]
    q, offset = divmod(start, run)
    q, count = q % len(values), (offset + n - 1) // run + 1  # the first value the rows take, and how many
    taken = column(values[q:q + count]) + column(values[:max(0, q + count - len(values))])
    return stretch(taken, run)[offset:offset + n]


def select_rows(frame, rows) -> dict:
    """The frame of the given rows of a frame, ascending and distinct,
    each column of its type, so a byte column stays on the byte-column
    path: the frame itself when they are all its rows."""
    if all(len(rows) == len(column) for column in frame.values()):
        return frame
    return {name: type(column)(map(column.__getitem__, rows)) for name, column in frame.items()}


def row_frame(names, env, carrier: Carrier) -> dict:
    """A frame of one row: env's value of each name, checked; the first
    name env lacks is unbound."""
    frame = {}
    for name in names:
        try:
            value = env[name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {name!r}") from None
        frame[name] = carrier.ops.column((carrier.check(value),))
    return frame


# Closure builders.  They live outside the compiler so that each closure
# captures only what it uses.  A term closure maps (frame, rows,
# undefined-row map) to a column.


def zero_rows(xs):
    """The indices of the zero values of a column."""
    return itertools.compress(itertools.count(), map(operator.not_, xs))


def _variable(name):
    return lambda f, n, u: f[name]


def _constant(one_row):
    return lambda f, n, u: one_row * n


def _unary(op, a):
    return lambda f, n, u: op(a(f, n, u))


def _binary(op, a, b):
    return lambda f, n, u: op(a(f, n, u), b(f, n, u))


def _power(power, a, e):
    return lambda f, n, u: power(a(f, n, u), e, u)


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


class TermCompiler:
    """Compiles terms (`term`) into closures that compute them in s from a
    frame.  Each variable name not in `bound` is recorded in the dict
    `free` when first met, so `free` lists the free names in textual
    order.

    The punch tests of s's mode are chosen here and sit only in the Inv
    and Div closures; a punched row goes into the undefined-row map.
    Operands are not checked: every value in a frame was checked where
    it entered.  The compiler recurses through a method, not a closure
    that holds itself, so a compile leaves no reference cycle.
    """

    def __init__(self, s: StructureSpec, free: dict, bound=()):
        self.c, self.free, self.bound = s.carrier, free, bound
        self.punch_inverse = s.mode is Mode.PUNCH_INV0
        self.punched_division = _PUNCHED_DIVISIONS.get(s.mode)

    def term(self, t):
        c, comp = self.c, self.term
        add, mul, neg, inv, power, column = c.ops
        cls = type(t)
        if cls is Var:
            if t.name not in self.bound:
                self.free.setdefault(t.name)
            return _variable(t.name)
        if cls is Add:
            return _binary(add, comp(t.left), comp(t.right))
        if cls is Mul:
            return _binary(mul, comp(t.left), comp(t.right))
        if cls is Div:
            return _division(mul, inv, self.punched_division, comp(t.left), comp(t.right))
        if cls is Neg:
            return _unary(neg, comp(t.arg))
        if cls is Inv:
            a = comp(t.arg)
            return _inverse_punched(inv, a) if self.punch_inverse else _unary(inv, a)
        if cls is Pow:
            return _power(power, comp(t.arg), t.n)
        if cls is NumLit:
            return _constant(column((c.from_int(t.value),)))
        if cls is Zero or cls is One:
            return _constant(column((c.from_int(int(cls is One)),)))
        raise TypeError(f"not a term: {t!r}")


def compile_term(t: Term, s: StructureSpec):
    """A closure computing t in s from a frame that holds t's free names:
    `fn(frame, rows, undefined)` gives t's column and adds each row where
    t does not denote to the map `undefined`, with its reason."""
    return TermCompiler(s, {}).term(t)


def eval_partial(t: Term, env, s: StructureSpec):
    """Evaluate a term in a structure; UNDEFINED on a punched application.

    Every free name is looked up in env before anything runs, so an
    unbound variable is reported even next to an undefined subterm.
    """
    free = {}
    fn = TermCompiler(s, free).term(t)
    undefined = {}
    (value,) = fn(row_frame(free, env, s.carrier), 1, undefined)
    if undefined.get(0):  # a power over the bound came first
        raise undefined.pop(0)  # popped, so this frame does not keep it
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
        yield from product_blocks(checked_elements(c, k), names, c.ops.column)
        return
    rng, samples, sizes = random.Random(seed), samples if k else 1, block_sizes(list)
    while samples:
        n = min(next(sizes), samples)
        values = [random_rational(rng) for _ in range(n * k)]
        yield {name: values[j::k] for j, name in enumerate(names)}, n
        samples -= n


@dataclass(frozen=True)
class AxiomSpec:
    """A named law: a quantifier-free formula whose free variables are
    read universally."""

    name: str
    formula: Formula
    _laws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if _contains(self.formula, (Forall, Exists)):
            raise ValueError(
                f"law {self.text!r} has a quantifier; "
                "write it quantifier-free, its free variables are read universally"
            )

    @functools.cached_property
    def text(self) -> str:
        """The law as printed, once per spec: the catalog's laws are
        printed once per process."""
        return print_formula(self.formula)

    @functools.cached_property
    def names(self) -> list:
        """The law's free names, sorted, once per spec."""
        return sorted(free_vars(self.formula))

    def law(self, s: StructureSpec) -> CompiledLaw:
        """The law compiled for s (`CompiledLaw`), once per spec and
        arithmetic while it is among the spec's last CACHE_BOUND
        (`carriers.keep`).  The compile reads only s's mode and its
        carrier's `ops` and `from_int`, so it is keyed by (s.carrier.ops,
        s.mode): the rationals and every probe set share one law, and
        each GF(p) has its own.  The enumeration budget is checked first,
        so a refused carrier compiles nothing."""
        key = s.carrier.ops, s.mode
        law = self._laws.get(key)
        if law is None:
            from .logic import LPMD, T, compile_formula  # logic builds on this module

            c, names, block = s.carrier, self.names, None
            if c.enumerable:
                values = checked_elements(c, len(names))
                if c.ops.column is bytes and len(values) ** len(names) <= BLOCK:
                    block = next(product_blocks(values, names, bytes))
            law = CompiledLaw(compile_formula(self.formula, LPMD, s), T, block)
            keep(self._laws, key, law)
        return law


class CompiledLaw(NamedTuple):
    """An axiom compiled for one arithmetic (`AxiomSpec.law`)."""

    run: Callable  # (frame, rows) -> the law's column of truth values, or a row's error
    true: object  # logic.T, the value it takes on every row where it holds
    block: tuple | None  # over GF(p), p < 256, with p^k <= BLOCK at the compile: (its one frame, p^k)


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
    first environment where it is not T, or that row's error is raised.
    The law is compiled once per spec and arithmetic (`AxiomSpec.law`),
    and one loop runs it on the blocks of the sweep: over GF(p), p < 256,
    with p^k <= BLOCK, on the one frame kept with the compiled law, so an
    in-process caller that checks the catalog again builds no frame."""
    check_samples(samples)
    if s.mode is not Mode.TOTAL:
        raise ValueError("axioms are verified in total structures")
    run, true, block = spec.law(s)
    if block is not None and block[1] <= BLOCK:  # BLOCK may have shrunk since the compile
        blocks = (block,)
    else:
        blocks = _environments(spec.names, s.carrier, samples, seed)
    checked = 0
    for frame, n in blocks:
        values = run(frame, n)
        if values.count(true) != n:
            i = next(i for i, v in enumerate(values) if v is not true)
            if isinstance(values[i], PowerBoundError):
                raise values.pop(i)  # popped, so this frame does not keep it
            witness = {name: column[i] for name, column in frame.items()}
            return AxiomReport(spec.name, spec.text, False, checked + i + 1, witness)
        checked += n
    return AxiomReport(spec.name, spec.text, True, checked)


def _ax(name: str, text: str) -> AxiomSpec:
    return AxiomSpec(name, parse_formula(text))


@functools.cache
def axiom_catalog() -> tuple[AxiomSpec, ...]:
    """The 15-law catalog: ring, inversive, divisive, separation, general
    laws.  Its laws are constants, parsed once per process."""
    return (
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
    )
