"""Three-valued evaluation of formulas over partial structures.

The logic is configurable along three independent axes: the equality
kind (weak / strong / existential), the connective family (Bochvar /
Kleene / McCarthy left-sequential / McCarthy right-sequential), and the
quantifier family (Bochvar / Kleene).  The preset ``LPMD`` combines weak
equality, McCarthy's left-sequential connectives and Bochvar's
quantifiers.

A formula is compiled once (`compile_formula`) into a closure with the
three choices fixed, and then run on a frame, a dict from each free name
to its column over a block of rows (see `semantics`); it gives a column
of truth values.  An atom is U (or F) on the rows in its terms'
undefined-row map, or that row's error.

Every connective and quantifier folds its operands' values by one rule,
a pair (opens, unit) (`_rule`): a row stays open while its value is in
`opens`, and a later operand's value replaces it unless that is `unit`,
which starts a quantifier's fold.  A conjunction or `forall` has unit
T and opens (F, T) in Bochvar's family, (U, T) in Kleene's and (T,) in
McCarthy's; a disjunction or `exists` has unit F and opens (T, F),
(U, F) and (F,).  McCarthy-right is McCarthy-left with its operands
swapped.  An error is in no `opens`, so it decides its row as a
row-by-row evaluation would.  A connective computes its second operand
only on the rows that the first leaves open (`_fold`), and a quantifier
sweeps its elements in groups over the open rows (`_quantifier`), with
its own name's column in place of any outer one.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum

from .carriers import PowerBoundError
from .semantics import (
    StructureSpec,
    TermCompiler,
    block_sizes,
    checked_elements,
    row_frame,
    select_rows,
    stretch,
)
from .semantics import eval_partial  # unused here; bench/tracing.py wraps this module attribute
from .terms import (
    And,
    Eq,
    Exists,
    Forall,
    Gt,
    Implies,
    Lt,
    Not,
    Or,
)
from .terms import free_vars  # unused here; bench/tracing.py wraps this module attribute


class TruthValue(Enum):
    T = "T"
    F = "F"
    U = "U"

    def __str__(self):
        return self.value


T, F, U = TruthValue.T, TruthValue.F, TruthValue.U


class EqualityKind(Enum):
    WEAK = "weak"
    STRONG = "strong"
    EXISTENTIAL = "existential"


class ConnectiveFamily(Enum):
    BOCHVAR = "bochvar"
    KLEENE = "kleene"
    MCCARTHY_LEFT = "mccarthy-left"
    MCCARTHY_RIGHT = "mccarthy-right"


class QuantifierFamily(Enum):
    BOCHVAR = "bochvar"
    KLEENE = "kleene"


@dataclass(frozen=True)
class LogicConfig:
    equality: EqualityKind
    connectives: ConnectiveFamily
    quantifiers: QuantifierFamily


#: Logic of partial meadows: weak equality, McCarthy connectives,
#: Bochvar quantifiers.
LPMD = LogicConfig(
    EqualityKind.WEAK, ConnectiveFamily.MCCARTHY_LEFT, QuantifierFamily.BOCHVAR
)


def parse_logic_config(text: str) -> LogicConfig:
    """Parse `<equality>,<connectives>,<quantifiers>` or the alias `lpmd`."""
    if text.strip().lower() == "lpmd":
        return LPMD
    parts = [p.strip().lower() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated selectors, got {text!r}")
    selectors = []
    for axis, kind, part in zip(("equality", "connectives", "quantifiers"),
                                (EqualityKind, ConnectiveFamily, QuantifierFamily), parts):
        try:
            selectors.append(kind(part))
        except ValueError:
            choices = ", ".join(member.value for member in kind)
            raise ValueError(f"unknown {axis} {part!r}, expected one of {choices}") from None
    return LogicConfig(*selectors)


def _rows_of(xs, value, test=operator.is_):
    """The indices of the rows x of a column where test(value, x) holds."""
    return itertools.compress(itertools.count(), map(test, itertools.repeat(value), xs))


def _rule(family, conjunctive: bool):
    """The rule (opens, unit) of a conjunction or `forall` (or a disjunction
    or `exists`) in a connective or quantifier family."""
    unit, other = (T, F) if conjunctive else (F, T)
    return {"bochvar": (other, unit), "kleene": (U, unit)}.get(family.value, (unit,)), unit


def _fold(opens, unit, first, second):
    """A connective by its rule (`_rule`): the second operand is computed
    only on the rows that the first leaves open."""

    def fold(f, n):
        xs = first(f, n)
        rows = list(_rows_of(xs, opens, operator.contains))
        if not rows:
            return xs
        ys = second(select_rows(f, rows), len(rows))
        if xs.count(unit) == n:
            return ys
        for j in _rows_of(ys, unit, operator.is_not):
            xs[rows[j]] = ys[j]
        return xs

    return fold


def _connective(family: ConnectiveFamily, conjunctive: bool, a, b):
    """The closure of a & b (or a | b) in the family, from operand closures."""
    if family is ConnectiveFamily.MCCARTHY_RIGHT:  # McCarthy-left on swapped operands
        a, b = b, a
    return _fold(*_rule(family, conjunctive), a, b)


def _negation(a):
    return lambda f, n: [F if x is T else T if x is F else x for x in a(f, n)]  # U and errors stay


def connective_table(family: ConnectiveFamily) -> dict:
    """Full truth tables of a family: 'not', 'and', 'or', 'implies'.  Each
    is computed once, by the closure a compiled formula runs, on a block
    whose columns "a" and "b" hold the nine operand pairs."""
    pairs = list(itertools.product((T, F, U), repeat=2))
    frame = {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}
    # the operands' closures: a connective may write to the column it gets
    a, b = (lambda f, n: list(f["a"])), (lambda f, n: list(f["b"]))
    return {
        "not": dict(zip(frame["a"], _negation(a)(frame, 9))),
        "and": dict(zip(pairs, _connective(family, True, a, b)(frame, 9))),
        "or": dict(zip(pairs, _connective(family, False, a, b)(frame, 9))),
        "implies": dict(zip(pairs, _connective(family, False, _negation(a), b)(frame, 9))),
    }


#: The truth value of a comparison's result, indexed by it.
_TRUTH = (F, T)

#: The comparison each atom class makes between its two sides.
RELATIONS = {Eq: operator.eq, Gt: operator.gt, Lt: operator.lt}


def _atom(cls, kind: EqualityKind, a, b):
    """The closure of an equality or ordering atom over term closures a, b.

    A non-denoting side gives U under weak equality and F otherwise
    (strong equality holds when both are), or its error.  The sides share
    an undefined-row map, as a row-by-row evaluation stops at the first,
    except in strong equality.  An equation whose sides denote on every
    row and are equal columns holds on every row, found by one column
    comparison, of `bytes` or a list.
    """
    if cls is Eq and kind is EqualityKind.STRONG:
        def strong(f, n):
            left, right = {}, {}
            values = list(map(_TRUTH.__getitem__, map(operator.eq, a(f, n, left), b(f, n, right))))
            for i in left.keys() | right.keys():
                values[i] = left.get(i) or right.get(i) or (T if i in left and i in right else F)
            return values

        return strong
    rel = RELATIONS[cls]
    nondenoting = U if kind is EqualityKind.WEAK else F

    def atom(f, n):
        undefined = {}
        left, right = a(f, n, undefined), b(f, n, undefined)
        if cls is Eq and not undefined and left == right:
            return [T] * n
        values = list(map(_TRUTH.__getitem__, map(rel, left, right)))
        for i, error in undefined.items():
            values[i] = error or nondenoting
        return values

    return atom


class NonEnumerableCarrierError(ValueError):
    pass


def compile_formula(f, cfg: LogicConfig, s: StructureSpec, free=None):
    """A closure computing f's truth value in s from a frame that holds
    f's free names.  The equality kind, connective and quantifier families
    are resolved here.  A quantifier runs its body on frames where its
    name's column replaces the outer one, so a re-quantified or bound name
    follows lexical scope.  The dict `free`, if given, gets f's free names
    in textual order."""
    compiler = _FormulaCompiler(cfg, s, {} if free is None else free)
    fn = compiler.formula(f)
    if compiler.depth:  # the budget; a quantifier-free formula needs no elements, and the rationals have none
        checked_elements(s.carrier, compiler.depth)
    return fn


class _FormulaCompiler(TermCompiler):
    """The state of `compile_formula`, which compiles the atoms' terms too.
    It recurses through methods, not a closure that holds itself, so a
    compile leaves no reference cycle."""

    def __init__(self, cfg: LogicConfig, s: StructureSpec, free: dict):
        super().__init__(s, free, [])  # bound: the quantified names around the node being compiled
        self.cfg, self.depth = cfg, 0  # depth: the most quantifiers nested

    def formula(self, g):
        cfg, comp, term = self.cfg, self.formula, self.term
        cls = type(g)
        if cls in RELATIONS:
            return _atom(cls, cfg.equality, term(g.left), term(g.right))
        if cls is Not:
            return _negation(comp(g.arg))
        if cls is And or cls is Or:
            return _connective(cfg.connectives, cls is And, comp(g.left), comp(g.right))
        if cls is Implies:
            return _connective(cfg.connectives, False, _negation(comp(g.left)), comp(g.right))
        if cls is Forall or cls is Exists:
            c = self.c
            if not c.enumerable:
                raise NonEnumerableCarrierError(f"quantifier over non-enumerable carrier {c}")
            self.bound.append(g.var)
            self.depth = max(self.depth, len(self.bound))
            body = comp(g.body)
            self.bound.pop()
            rule = _rule(cfg.quantifiers, cls is Forall)
            return _quantifier(*rule, g.var, body, c.elements(), c.ops.column)
        raise TypeError(f"not a formula: {g!r}")


def _quantifier(opens, unit, var: str, body, elements, column):
    """Fold the body's value over the elements bound to `var`, in element
    order, by the rule (opens, unit) of its family (`_rule`): each row
    starts at `unit` and is open, an open row takes each value but
    `unit`, and it closes once its value leaves `opens`, at an error too.

    The body runs on groups of elements for the open rows: g elements for
    m open rows make a block of m * g rows, element-major (row j * m + i
    binds the j-th element to open row i), with g the most that fits the
    next of `block_sizes(column)` (at least one).  The bound name's
    column is made by the carrier's column type `column` from a slice of
    the elements, each repeated m times, so it is a byte string over
    GF(p) below 256; the other names' columns are the open rows'
    repeated g times.
    """

    def quantify(f, n):
        result = [unit] * n
        rows, frame = range(n), f  # the open rows, and their frame
        start = 0
        for size in block_sizes(column):
            m = len(rows)
            if not m or start >= len(elements):
                return result
            group = column(elements[start:start + max(1, size // m)])
            start += len(group)
            block = {name: xs * len(group) for name, xs in frame.items() if name != var}
            block[var] = stretch(group, m)
            values = body(block, m * len(group))
            closed = set()
            for j in _rows_of(values, unit, operator.is_not):  # element-major: each row in element order
                i = j % m
                if i not in closed:
                    result[rows[i]] = value = values[j]
                    if value not in opens:
                        closed.add(i)
            if closed:
                still = [i for i in range(m) if i not in closed]
                rows, frame = [rows[i] for i in still], select_rows(frame, still)

    return quantify


def eval_formula(f, cfg: LogicConfig, env, s: StructureSpec) -> TruthValue:
    free = {}
    fn = compile_formula(f, cfg, s, free)
    values = fn(row_frame(free, env, s.carrier), 1)
    if isinstance(values[0], PowerBoundError):
        raise values.pop()  # popped, so this frame does not keep it
    return values[0]


@dataclass(frozen=True)
class SentenceVerdict:
    usable: bool
    value: TruthValue | None

    def __str__(self):
        return f"USABLE({self.value})" if self.usable else "UNUSABLE"


def classify_sentence(f, cfg: LogicConfig, s: StructureSpec, env=None) -> SentenceVerdict:
    """Two-valued logic convention: a sentence is unusable when its value is U.

    A formula whose free names are all bound in `env` is a sentence; the
    first name that is not is unbound, as in `eval_formula`.
    """
    tv = eval_formula(f, cfg, {} if env is None else env, s)
    if tv is U:
        return SentenceVerdict(False, None)
    return SentenceVerdict(True, tv)
