"""Three-valued evaluation of formulas over partial structures.

The logic is configurable along three independent axes: the equality
kind (weak / strong / existential), the connective family (Bochvar /
Kleene / McCarthy left-sequential / McCarthy right-sequential), and the
quantifier family (Bochvar / Kleene).  The preset ``LPMD`` combines weak
equality, McCarthy's left-sequential connectives and Bochvar's
quantifiers.

A formula is compiled once (`compile_formula`) into a closure with the
three choices fixed, and then run on a frame of variable slots.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

from .semantics import (
    UNDEFINED,
    Scope,
    StructureSpec,
    _Punched,
    checked_elements,
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


def _lattice(top: TruthValue, mid: TruthValue, first, second):
    """Bochvar and Kleene connectives: `top` decides at once, else `mid`
    wins over the third value.  Compiled evaluation cannot fail, so the
    second operand is skipped once `top` is seen."""

    def fold(e):
        x = first(e)
        if x is top:
            return top
        y = second(e)
        if y is top:
            return top
        return mid if (x is mid or y is mid) else x

    return fold


def _sequential(passes: TruthValue, first, second):
    """McCarthy: the first operand decides unless it is `passes`."""

    def fold(e):
        x = first(e)
        return second(e) if x is passes else x

    return fold


def _rule(bochvar: bool, conjunctive: bool):
    """(top, mid) of a Bochvar or Kleene conjunction (or universal
    quantifier) or disjunction (or existential quantifier)."""
    dominant = F if conjunctive else T
    return (U, dominant) if bochvar else (dominant, U)


def _connective(family: ConnectiveFamily, conjunctive: bool, a, b):
    """The closure of a & b (or a | b) in the family, from operand closures."""
    if family is ConnectiveFamily.MCCARTHY_LEFT:
        return _sequential(T if conjunctive else F, a, b)
    if family is ConnectiveFamily.MCCARTHY_RIGHT:
        return _sequential(T if conjunctive else F, b, a)
    return _lattice(*_rule(family is ConnectiveFamily.BOCHVAR, conjunctive), a, b)


def _negation(a):
    return lambda e: not_tv(a(e))


#: Operand closures reading a frame of two values.
_FIRST, _SECOND = operator.itemgetter(0), operator.itemgetter(1)


def or_tv(family: ConnectiveFamily, a: TruthValue, b: TruthValue) -> TruthValue:
    # the closure every compiled disjunction runs
    return _connective(family, False, _FIRST, _SECOND)((a, b))


def and_tv(family: ConnectiveFamily, a: TruthValue, b: TruthValue) -> TruthValue:
    return _connective(family, True, _FIRST, _SECOND)((a, b))


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


#: The comparison each atom class makes between its two sides.
RELATIONS = {Eq: operator.eq, Gt: operator.gt, Lt: operator.lt}


def _atom(cls, kind: EqualityKind, a, b):
    """The closure of an equality or ordering atom over term closures a, b.

    A non-denoting side gives U under weak equality and F otherwise,
    except that strong equality holds when both sides are non-denoting.
    """
    if cls is Eq and kind is EqualityKind.STRONG:
        def strong(e):
            try:
                x = a(e)
            except _Punched:
                x = UNDEFINED
            try:
                y = b(e)
            except _Punched:
                y = UNDEFINED
            if x is UNDEFINED or y is UNDEFINED:
                return T if x is y else F
            return T if x == y else F

        return strong
    rel = RELATIONS[cls]
    nondenoting = U if kind is EqualityKind.WEAK else F

    def atom(e):
        try:
            return T if rel(a(e), b(e)) else F
        except _Punched:
            return nondenoting

    return atom


class NonEnumerableCarrierError(ValueError):
    pass


def compile_formula(f, cfg: LogicConfig, s: StructureSpec, scope: Scope):
    """A closure computing f's truth value in s from a frame laid out by
    `scope`.  The equality kind, connective and quantifier families are
    resolved here; each quantifier gets its own slot, so a re-quantified
    or bound name follows lexical scope."""
    c = s.carrier
    term = term_compiler(s, scope)
    elements = []  # filled once the quantifier nesting depth is known

    def comp(g):
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
            slot, outer = scope.bind(g.var)
            body = comp(g.body)
            scope.unbind(g.var, outer)
            universal = cls is Forall
            rule = _rule(cfg.quantifiers is QuantifierFamily.BOCHVAR, universal)
            return _quantifier(*rule, universal, slot, body, elements)
        raise TypeError(f"not a formula: {g!r}")

    fn = comp(f)
    if scope.max_depth:
        elements.extend(checked_elements(c, scope.max_depth))
    return fn


def _quantifier(top, mid, universal: bool, slot: int, body, elements):
    """Fold the body's value over the elements bound to `slot`, by the
    same rule as a binary connective, stopping at `top`."""
    bottom = T if universal else F

    def quantify(e):
        result = bottom
        for value in elements:
            e[slot] = value
            x = body(e)
            if x is top:
                return top
            if x is mid:
                result = mid
        return result

    return quantify


def eval_formula(f, cfg: LogicConfig, env, s: StructureSpec) -> TruthValue:
    scope = Scope()
    fn = compile_formula(f, cfg, s, scope)
    return fn(scope.frame(env, s.carrier))


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
