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
undefined-row map, or that row's error, which decides a row at once.  A
connective computes its second operand only on the rows that the first
leaves open, and a quantifier sweeps its elements in groups
(`_quantifier`), so errors are those of row-by-row evaluation.  A
quantifier's body runs on the open rows' frame with its own name's
column in place of any outer one.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum

from .carriers import PowerBoundError
from .semantics import (
    StructureSpec,
    block_sizes,
    checked_elements,
    row_frame,
    select_rows,
    term_compiler,
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
    free_vars,
)


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
    return LogicConfig(
        EqualityKind(parts[0]), ConnectiveFamily(parts[1]), QuantifierFamily(parts[2])
    )


def not_tv(a: TruthValue) -> TruthValue:
    if a is T:
        return F
    if a is F:
        return T
    return U


def _rows_of(xs, value, test=operator.is_):
    """The indices of the rows x of a column where test(x, value) holds."""
    return itertools.compress(itertools.count(), map(test, xs, itertools.repeat(value)))


def _lattice(top: TruthValue, mid: TruthValue, unit: TruthValue, first, second):
    """Bochvar and Kleene connectives: `top` (or an error) decides at
    once, else `mid` wins over `unit`.  The second operand is computed
    only on the rows that the first leaves undecided."""

    def fold(f, n):
        xs = first(f, n)
        if xs.count(mid) + xs.count(unit) == n:
            rows, ys = range(n), second(f, n)
        else:
            rows = [i for i, x in enumerate(xs) if x is mid or x is unit]
            ys = second(select_rows(f, rows), len(rows)) if rows else []
        for j in _rows_of(ys, unit, operator.is_not):  # `unit` leaves x as it is
            xs[rows[j]] = ys[j]
        return xs

    return fold


def _sequential(passes: TruthValue, first, second):
    """McCarthy: the first operand decides (an error too) unless it is
    `passes`; the second is computed only on the rows where it is."""

    def fold(f, n):
        xs = first(f, n)
        rows = list(_rows_of(xs, passes))
        if len(rows) == n:
            return second(f, n)
        if rows:
            for i, y in zip(rows, second(select_rows(f, rows), len(rows))):
                xs[i] = y
        return xs

    return fold


def _rule(bochvar: bool, conjunctive: bool):
    """(top, mid, unit) of a Bochvar or Kleene conjunction (or universal
    quantifier) or disjunction (or existential quantifier)."""
    dominant, unit = (F, T) if conjunctive else (T, F)
    return (U, dominant, unit) if bochvar else (dominant, U, unit)


def _connective(family: ConnectiveFamily, conjunctive: bool, a, b):
    """The closure of a & b (or a | b) in the family, from operand closures."""
    if family is ConnectiveFamily.MCCARTHY_LEFT:
        return _sequential(T if conjunctive else F, a, b)
    if family is ConnectiveFamily.MCCARTHY_RIGHT:
        return _sequential(T if conjunctive else F, b, a)
    return _lattice(*_rule(family is ConnectiveFamily.BOCHVAR, conjunctive), a, b)


def _negation(a):
    return lambda f, n: [F if x is T else T if x is F else x for x in a(f, n)]  # U and errors stay


#: Operand closures reading a frame of columns "a" and "b" (a connective
#: may write to the column it gets).
_FIRST, _SECOND = (lambda f, n: list(f["a"])), (lambda f, n: list(f["b"]))


def or_tv(family: ConnectiveFamily, a: TruthValue, b: TruthValue) -> TruthValue:
    # the closure every compiled disjunction runs, on a block of one row
    return _connective(family, False, _FIRST, _SECOND)({"a": [a], "b": [b]}, 1)[0]


def and_tv(family: ConnectiveFamily, a: TruthValue, b: TruthValue) -> TruthValue:
    return _connective(family, True, _FIRST, _SECOND)({"a": [a], "b": [b]}, 1)[0]


def implies_tv(family: ConnectiveFamily, a: TruthValue, b: TruthValue) -> TruthValue:
    # a => b is read as (!a) | b within the family.
    return or_tv(family, not_tv(a), b)


def connective_table(family: ConnectiveFamily) -> dict:
    """Full truth tables of a family: 'not', 'and', 'or', 'implies'."""
    values = (T, F, U)
    return {
        "not": {a: not_tv(a) for a in values},
        "and": {(a, b): and_tv(family, a, b) for a in values for b in values},
        "or": {(a, b): or_tv(family, a, b) for a in values for b in values},
        "implies": {(a, b): implies_tv(family, a, b) for a in values for b in values},
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
    except in strong equality.
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
        values = list(map(_TRUTH.__getitem__, map(rel, a(f, n, undefined), b(f, n, undefined))))
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
    c = s.carrier
    bound = []  # the quantified names around the node being compiled
    term = term_compiler(s, {} if free is None else free, bound)
    domain = []  # the carrier's elements, once the quantifier nesting depth is known
    depth = 0

    def comp(g):
        nonlocal depth
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
            if not c.enumerable:
                raise NonEnumerableCarrierError(f"quantifier over non-enumerable carrier {c}")
            bound.append(g.var)
            depth = max(depth, len(bound))
            body = comp(g.body)
            bound.pop()
            rule = _rule(cfg.quantifiers is QuantifierFamily.BOCHVAR, cls is Forall)
            return _quantifier(*rule, g.var, body, domain)
        raise TypeError(f"not a formula: {g!r}")

    fn = comp(f)
    if depth:
        domain.append(checked_elements(c, depth))
    return fn


def _quantifier(top, mid, unit, var: str, body, domain):
    """Fold the body's value over the elements bound to `var`, by the
    same rule as a binary connective, stopping each row at `top` or error.

    The body runs on groups of elements for the rows with no `top` yet:
    g elements for m open rows make a block of m * g rows, element-major
    (row j * m + i binds the j-th element to open row i), with g the
    most that fits the next of `block_sizes` (at least one), so a row
    stops soon after its `top`.
    """

    def quantify(f, n):
        elements = domain[0]
        result = [unit] * n
        rows, frame = range(n), f  # the open rows, and their frame
        start = 0
        for size in block_sizes():
            m = len(rows)
            if not m or start >= len(elements):
                return result
            group = elements[start:start + max(1, size // m)]
            start += len(group)
            block = {name: column * len(group) for name, column in frame.items() if name != var}
            column = block[var] = []
            for value in group:
                column += [value] * m
            values = body(block, len(column))
            tops, mids = values.count(top), values.count(mid)
            if mids:
                for j in _rows_of(values, mid):
                    result[rows[j % m]] = mid
            if tops + mids + values.count(unit) == len(values):  # no error
                done = {j % m: top for j in _rows_of(values, top)} if tops else {}
            else:  # each open row stops at its first `top` or error
                done = {}
                for j, value in enumerate(values):  # element-major: each row in element order
                    if value is not mid and value is not unit:
                        done.setdefault(j % m, value)
            if done:
                for i, value in done.items():
                    result[rows[i]] = value
                still = [i for i in range(m) if i not in done]
                rows, frame = [rows[i] for i in still], select_rows(frame, still)

    return quantify


def eval_formula(f, cfg: LogicConfig, env, s: StructureSpec) -> TruthValue:
    free = {}
    fn = compile_formula(f, cfg, s, free)
    (value,) = fn(row_frame(free, env, s.carrier), 1)
    if isinstance(value, PowerBoundError):
        raise value
    return value


@dataclass(frozen=True)
class SentenceVerdict:
    usable: bool
    value: TruthValue | None

    def __str__(self):
        return f"USABLE({self.value})" if self.usable else "UNUSABLE"


def classify_sentence(f, cfg: LogicConfig, s: StructureSpec, env=None) -> SentenceVerdict:
    """Two-valued logic convention: a sentence is unusable when its value is U.

    A formula whose free names are all bound in `env` is a sentence.
    """
    env = {} if env is None else env
    if not free_vars(f) <= env.keys():
        raise ValueError("classify_sentence needs a closed formula")
    tv = eval_formula(f, cfg, env, s)
    if tv is U:
        return SentenceVerdict(False, None)
    return SentenceVerdict(True, tv)
