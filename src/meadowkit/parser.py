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

Tokens are read in one regex pass: each match skips the ASCII
whitespace (`[ \t\n\r\f\v]`) before a token, a name is the longest run
of `[a-zA-Z][a-zA-Z0-9_]*` (so `forallx` is a name, not a keyword), an
operator is `=>` or `!=` where one stands, else one character, and any
other character, other whitespace included, is refused at its position.

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


_TOKEN_RE = re.compile(
    r"""
    \s*  # whitespace before a token is skipped
    (?:
      (?P<nat>[0-9]+)
    | (?P<ident>[a-zA-Z][a-zA-Z0-9_]*)
    | (?P<op>=>|!=|[-+*/^()=<>!&|.])
    | (?P<eof>\Z)
    | (?P<bad>.)  # any other character
    )
    """,
    re.VERBOSE | re.ASCII,  # `\s` is ASCII whitespace only
)

_KEYWORDS = {"forall", "exists"}


def _tokenize(text: str) -> list[tuple]:
    """The tokens of text as (kind, text, position) tuples, the last of
    kind "eof"; an operator's or a keyword's kind is its text."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        word = m[kind]
        pos = m.start(kind)
        if kind == "op" or word in _KEYWORDS:
            kind = word
        elif kind == "bad":
            raise ParseError(f"unexpected character {word!r}", pos)
        tokens.append((kind, word, pos))
        if kind == "eof":  # every text ends in an eof match
            return tokens


def _found(word: str) -> str:
    return repr(word or "end of input")


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
        kind, word, pos = tokens[i]
        i += 1
        if kind == "nat":
            n = read_int(word)
            operands.append((ZERO if n == 0 else ONE if n == 1 else NumLit(n), 0))
        elif kind == "ident":
            operands.append((Var(word), 0))
        elif kind == "(" or kind in PREFIX:
            op = PREFIX.get(kind, _OPEN)
            if kind in _KEYWORDS:
                if i > 1 and tokens[i - 2][0] not in ("(", "."):
                    raise ParseError(f"expected a term, found {_found(word)}", pos)
                for expected in ("ident", "."):
                    if tokens[i][0] != expected:
                        _, found, at = tokens[i]
                        raise ParseError(f"expected {expected!r}, found {_found(found)}", at)
                    i += 1
                op = op._replace(build=partial(op.build, tokens[i - 2][1]))
            ops.append((op, pos, False))
            # every pending operator and "(" encloses the next operand
            _check_depth(len(ops))
            continue
        else:
            raise ParseError(f"expected a term, found {_found(word)}", pos)

        # after an operand: postfix powers and ")", then a binary operator
        while True:
            kind, word, pos = tokens[i]
            i += 1
            if kind == "^":
                node, depth = operands.pop()
                _check_sort(node, Term, pos)
                minus = tokens[i][0] == "-"
                nat, digits, at = tokens[i + minus]
                if nat != "nat":
                    raise ParseError(f"expected 'nat', found {_found(digits)}", at)
                if minus and digits != "1":
                    raise ParseError("only ^-1 is a valid negative power", tokens[i][2])
                i += 1 + minus
                node = Inv(node) if minus else Pow(node, read_int(digits))
                operands.append((node, _check_depth(depth + 1)))
            elif kind == ")":
                reduce(_OPEN.prec)
                if not ops:
                    raise ParseError(f"trailing input {word!r}", pos)
                ops.pop()
                node, depth = operands.pop()
                operands.append((node, _check_depth(depth + 1)))
            else:
                break

        op = BINARY.get(kind)
        if op is None:
            reduce(_OPEN.prec)
            if ops:
                raise ParseError(f"expected ')', found {_found(word)}", pos)
            if kind != "eof":
                raise ParseError(f"trailing input {word!r}", pos)
            node = operands.pop()[0]
            _check_sort(node, sort, pos)
            return node
        reduce(op.prec if op.right else op.prec - 1)
        ops.append((op, pos, True))
        _check_depth(len(ops))


def parse_term(text: str):
    return _parse(text, Term)


def parse_formula(text: str):
    return _parse(text, Formula)
