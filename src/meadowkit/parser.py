"""Operator-precedence parser for the term and formula surface syntax.

Grammar (authoritative):

    term    := sum ;
    sum     := prod (("+"|"-") prod)* ;
    prod    := unary (("*"|"/") unary)* ;
    unary   := "-" unary | postfix ;
    postfix := atom ("^-1" | "^" nat)* ;
    atom    := "0" | "1" | nat | ident | "(" term ")" ;
    formula := quant | impl ;
    quant   := ("forall"|"exists") ident "." formula ;
    impl    := disj ("=>" impl)? ;
    disj    := conj ("|" conj)* ;
    conj    := neg ("&" neg)* ;
    neg     := "!" neg | fatom ;
    fatom   := term ("="|"!="|">"|"<") term | "(" formula ")" ;
    nat     := [0-9]+ ;    ASCII digits only, as every number the CLI reads,
                           and at most sys.get_int_max_str_digits() of
                           them (carriers.read_int)

`a - b` is sugar for `a + (-b)` and `t != u` for `!(t = u)`; `t^n` is a
`Pow` node for every natural n, 0 and 1 included.

The grammar is implemented by one table, `BINARY`, `PREFIX` and
`POSTFIX_PREC`, which the printer reads too: each operator's node
class, precedence (higher binds tighter), associativity and the sort of
its operands (`Term` or `Formula`).  The parser is one loop over the
tokens with an operand stack and an operator stack (operator-precedence
parsing; Pratt, "Top down operator precedence", POPL 1973), without
recursion.  An operator whose operand has the wrong sort, such as a
relation over a formula or `&` over a term, is a `ParseError`; so
relations do not chain (`x = y = z`).  A quantifier may start the input
or follow `(` or `.`, and its body extends as far right as possible.

Input nested deeper than `MAX_DEPTH` is refused with a `ValueError`
(not a `ParseError`) reading "input nested too deeply".  The depth of
a leaf is 0; each operator and each pair of parentheses adds 1 to the
depth of what it encloses, so `((1))` and `1 + 1 + 1` are both 2 deep.
The bound keeps every recursive walker of a parsed tree (printer,
compiler, linter) below Python's default recursion limit of 1000.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, NamedTuple

from .carriers import read_int
from .terms import (
    ONE,
    ZERO,
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
    Or,
    Pow,
    Term,
    Var,
)

#: The deepest input the parser accepts, counting operators and
#: parenthesis pairs on one root-to-leaf path.
MAX_DEPTH = 900


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Operator(NamedTuple):
    build: Callable  # the node class, or a function for sugar
    prec: int
    right: bool  # right-associative
    sort: type  # Term or Formula, the sort of the operands


BINARY = {
    "=>": Operator(Implies, 1, True, Formula),
    "|": Operator(Or, 2, False, Formula),
    "&": Operator(And, 3, False, Formula),
    "=": Operator(Eq, 5, False, Term),
    "!=": Operator(lambda a, b: Not(Eq(a, b)), 5, False, Term),
    ">": Operator(Gt, 5, False, Term),
    "<": Operator(Lt, 5, False, Term),
    "+": Operator(Add, 6, False, Term),
    "-": Operator(lambda a, b: Add(a, Neg(b)), 6, False, Term),
    "*": Operator(Mul, 7, False, Term),
    "/": Operator(Div, 7, False, Term),
}
PREFIX = {
    "forall": Operator(Forall, 0, True, Formula),
    "exists": Operator(Exists, 0, True, Formula),
    "!": Operator(Not, 4, True, Formula),
    "-": Operator(Neg, 8, True, Term),
}
#: `t^-1` and `t^n` bind tighter than every other operator.
POSTFIX_PREC = 9
#: An open parenthesis on the operator stack: no operator reduces past it.
_OPEN = Operator(None, -1, False, None)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<nat>[0-9]+)
  | (?P<ident>[a-zA-Z][a-zA-Z0-9_]*)
  | (?P<op>=>|!=|[-+*/^()=<>!&|.])
    """,
    re.VERBOSE | re.ASCII,  # `\s` is ASCII whitespace only
)

_KEYWORDS = {"forall", "exists"}


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            word = m.group()
            if kind == "ident" and word in _KEYWORDS:
                kind = word
            elif kind == "op":
                kind = word
            tokens.append(_Token(kind, word, i))
        i = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _found(tok: _Token) -> str:
    return repr(tok.text or "end of input")


def _check_sort(node, sort: type, pos: int):
    if not isinstance(node, sort):
        wanted, got = ("formula", "term") if sort is Formula else ("term", "formula")
        raise ParseError(f"expected a {wanted}, found a {got}", pos)


def _check_depth(depth: int) -> int:
    if depth > MAX_DEPTH:
        raise ValueError("input nested too deeply")
    return depth


def _parse(text: str, sort: type):
    tokens = _tokenize(text)
    operands: list = []  # (node, depth)
    ops: list = []  # pending (Operator, position, binary), _OPEN for "("

    def reduce(above: int):
        # build the pending operators that bind tighter than `above`
        while ops and ops[-1][0].prec > above:
            op, pos, binary = ops.pop()
            node, depth = operands.pop()
            _check_sort(node, op.sort, pos)
            if binary:
                left, left_depth = operands.pop()
                _check_sort(left, op.sort, pos)
                node, depth = op.build(left, node), max(left_depth, depth)
            else:
                node = op.build(node)
            operands.append((node, _check_depth(depth + 1)))

    i = 0
    while True:
        # an operand: prefix operators and "(" up to a leaf
        tok = tokens[i]
        i += 1
        kind = tok.kind
        if kind == "nat":
            n = read_int(tok.text)
            operands.append((ZERO if n == 0 else ONE if n == 1 else NumLit(n), 0))
        elif kind == "ident":
            operands.append((Var(tok.text), 0))
        elif kind == "(" or kind in PREFIX:
            op = PREFIX.get(kind, _OPEN)
            if kind in _KEYWORDS:
                if i > 1 and tokens[i - 2].kind not in ("(", "."):
                    raise ParseError(f"expected a term, found {_found(tok)}", tok.pos)
                for expected in ("ident", "."):
                    if tokens[i].kind != expected:
                        raise ParseError(
                            f"expected {expected!r}, found {_found(tokens[i])}", tokens[i].pos
                        )
                    i += 1
                op = op._replace(build=partial(op.build, tokens[i - 2].text))
            ops.append((op, tok.pos, False))
            # every pending operator and "(" encloses the next operand
            _check_depth(len(ops))
            continue
        else:
            raise ParseError(f"expected a term, found {_found(tok)}", tok.pos)

        # after an operand: postfix powers and ")", then a binary operator
        while True:
            tok = tokens[i]
            i += 1
            kind = tok.kind
            if kind == "^":
                node, depth = operands.pop()
                _check_sort(node, Term, tok.pos)
                minus = tokens[i].kind == "-"
                nat = tokens[i + minus]
                if nat.kind != "nat":
                    raise ParseError(f"expected 'nat', found {_found(nat)}", nat.pos)
                if minus and nat.text != "1":
                    raise ParseError("only ^-1 is a valid negative power", tokens[i].pos)
                i += 1 + minus
                node = Inv(node) if minus else Pow(node, read_int(nat.text))
                operands.append((node, _check_depth(depth + 1)))
            elif kind == ")":
                reduce(_OPEN.prec)
                if not ops:
                    raise ParseError(f"trailing input {tok.text!r}", tok.pos)
                ops.pop()
                node, depth = operands.pop()
                operands.append((node, _check_depth(depth + 1)))
            else:
                break

        op = BINARY.get(kind)
        if op is None:
            reduce(_OPEN.prec)
            if ops:
                raise ParseError(f"expected ')', found {_found(tok)}", tok.pos)
            if kind != "eof":
                raise ParseError(f"trailing input {tok.text!r}", tok.pos)
            node = operands.pop()[0]
            _check_sort(node, sort, tok.pos)
            return node
        reduce(op.prec if op.right else op.prec - 1)
        ops.append((op, tok.pos, True))
        _check_depth(len(ops))


def parse_term(text: str):
    return _parse(text, Term)


def parse_formula(text: str):
    return _parse(text, Formula)
