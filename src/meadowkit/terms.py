"""ASTs for meadow terms and first-order formulas over them.

Terms cover the inversive notation (with a postfix inverse) and the
divisive notation (with binary division); mixed terms are allowed and
can be translated into either pure notation.
"""

from __future__ import annotations

from dataclasses import dataclass


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class NumLit(Term):
    value: int


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True)
class Inv(Term):
    arg: Term


@dataclass(frozen=True)
class Div(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Pow(Term):
    """`arg^n` for a natural number n (`arg^0` is 1)."""

    arg: Term
    n: int


ZERO = Zero()
ONE = One()


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Gt(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Lt(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


_LEAVES = frozenset({Zero, One, NumLit, Var})
_UNARY = frozenset({Neg, Inv, Not})
_BINARY = frozenset({Add, Mul, Div, Eq, Gt, Lt, And, Or, Implies})
_QUANTIFIERS = frozenset({Forall, Exists})


def children(node) -> tuple:
    """Direct subterms and subformulas of a node, in textual order."""
    cls = type(node)
    if cls in _BINARY:
        return (node.left, node.right)
    if cls in _UNARY or cls is Pow:
        return (node.arg,)
    if cls in _QUANTIFIERS:
        return (node.body,)
    if cls in _LEAVES:
        return ()
    raise TypeError(f"not a term or formula: {node!r}")


def rebuild(node, kids):
    """The same kind of node as `node` with children `kids`; a quantifier
    keeps its variable and a power its exponent."""
    cls = type(node)
    if cls in _BINARY or cls in _UNARY:
        return cls(*kids)
    if cls is Pow:
        return Pow(*kids, node.n)
    if cls in _QUANTIFIERS:
        return cls(node.var, *kids)
    if cls in _LEAVES:
        return node
    raise TypeError(f"not a term or formula: {node!r}")


# The walkers below recurse with plain loops: a generator or (before
# Python 3.12) a comprehension adds a frame per level, which halves the
# depth of term they can walk.


def free_vars(node) -> frozenset:
    """Free variable names of a term or formula."""
    if isinstance(node, Var):
        return frozenset({node.name})
    names = frozenset()
    for kid in children(node):
        names |= free_vars(kid)
    if type(node) in _QUANTIFIERS:
        names -= {node.var}
    return names


def same(a, b) -> bool:
    """True iff two terms or formulas are equal node by node, walked with
    an explicit stack: `==` of the frozen dataclasses recurses about 2.5
    frames a level, so it fails well below the parser's depth bound."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        cls = type(a)
        if cls is not type(b):
            return False
        kids = children(a)
        if not kids and a != b or cls is Pow and a.n != b.n or cls in _QUANTIFIERS and a.var != b.var:
            return False
        stack.extend(zip(kids, children(b)))
    return True


def _contains(node, kind) -> bool:
    """True iff the term or formula has a node of class `kind`."""
    if isinstance(node, kind):
        return True
    for kid in children(node):
        if _contains(kid, kind):
            return True
    return False


def to_inversive(t: Term) -> Term:
    """Replace every division x/y by x * y^-1."""
    kids = []
    for kid in children(t):
        kids.append(to_inversive(kid))
    if isinstance(t, Div):
        return Mul(kids[0], Inv(kids[1]))
    return rebuild(t, kids)


def to_divisive(t: Term) -> Term:
    """Replace every inverse x^-1 by 1/x."""
    kids = []
    for kid in children(t):
        kids.append(to_divisive(kid))
    if isinstance(t, Inv):
        return Div(ONE, kids[0])
    return rebuild(t, kids)
