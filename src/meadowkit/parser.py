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

The text is read in two C-level regex passes.  The first checks it
whole, so a character that starts no token is refused at its position
before any other error; the second (`findall`) reads its tokens as
strings.  A name is the longest run of `[a-zA-Z][a-zA-Z0-9_]*` (so
`forallx` is a name, not a keyword), an operator is `=>` or `!=` where
one stands, else one character, and ASCII whitespace (`[ \t\n\r\f\v]`)
between tokens is skipped; other whitespace is refused.  A token's
position is computed only when an error names it.

The grammar is implemented by one table, `BINARY`, `PREFIX` and
`POSTFIX_PREC`, which the printer reads too: each operator's node
class, precedence (higher binds tighter), associativity and the sort of
its operands (`Term` or `Formula`).  The parser is one loop over the
token strings with an operand stack and an operator stack
(operator-precedence parsing; Pratt, "Top down operator precedence",
POPL 1973), without recursion.  An operator whose operand has the wrong
sort, such as a relation over a formula or `&` over a term, is a
`ParseError`; so relations do not chain (`x = y = z`).  A quantifier may
start the input or follow `(` or `.`, and its body extends as far right
as possible.

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


_TOKEN = r"[0-9]+|[a-zA-Z]\w*|=>|!=|[-+*/^()=<>!&|.]"
_TOKEN_RE = re.compile(_TOKEN, re.ASCII)  # `\w` and `\s` are ASCII only
#: Tokens and whitespace from the start of a text up to the first
#: character that starts no token, if there is one.
_TEXT_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*", re.ASCII)

_KEYWORDS = {"forall", "exists"}


def is_variable(text: str) -> bool:
    """Whether the parser reads text as one variable: one ident token, not
    a keyword, with nothing around it."""
    return _TOKEN_RE.fullmatch(text) is not None and text.isidentifier() and text not in _KEYWORDS


def _position(text: str, i: int) -> int:
    """The position of the i-th token of a checked text, or of its end."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return starts[i] if i < len(starts) else len(text)


def _found(word: str) -> str:
    return repr(word or "end of input")


def _check_sort(node, sort: type, text: str, i: int):
    if not isinstance(node, sort):
        wanted, got = ("formula", "term") if sort is Formula else ("term", "formula")
        raise ParseError(f"expected a {wanted}, found a {got}", _position(text, i))


def _check_depth(depth: int) -> int:
    if depth > MAX_DEPTH:
        raise ValueError("input nested too deeply")
    return depth


def _parse(text: str, sort: type):
    end = _TEXT_RE.match(text).end()
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", end)
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # the end of input
    operands: list = []  # (node, depth)
    ops: list = []  # pending (Operator, token index, binary), _OPEN for "("

    def reduce(above: int):
        # build the pending operators that bind tighter than `above`
        while ops and ops[-1][0].prec > above:
            op, at, binary = ops.pop()
            node, depth = operands.pop()
            _check_sort(node, op.sort, text, at)
            if binary:
                left, left_depth = operands.pop()
                _check_sort(left, op.sort, text, at)
                node, depth = op.build(left, node), max(left_depth, depth)
            else:
                node = op.build(node)
            operands.append((node, _check_depth(depth + 1)))

    i = 0
    while True:
        # an operand: prefix operators and "(" up to a leaf
        word = tokens[i]
        i += 1
        if word.isdigit():  # the text is ASCII: a nat
            n = read_int(word)
            operands.append((ZERO if n == 0 else ONE if n == 1 else NumLit(n), 0))
        elif word in PREFIX or word == "(":
            op, at = PREFIX.get(word, _OPEN), i - 1
            if word in _KEYWORDS:
                if i > 1 and tokens[i - 2] not in ("(", "."):
                    raise ParseError(f"expected a term, found {_found(word)}", _position(text, at))
                name = tokens[i]
                if not name.isidentifier() or name in _KEYWORDS:
                    raise ParseError(f"expected 'ident', found {_found(name)}", _position(text, i))
                if tokens[i + 1] != ".":
                    raise ParseError(f"expected '.', found {_found(tokens[i + 1])}", _position(text, i + 1))
                i += 2
                op = op._replace(build=partial(op.build, name))
            ops.append((op, at, False))
            # every pending operator and "(" encloses the next operand
            _check_depth(len(ops))
            continue
        elif word.isidentifier():
            operands.append((Var(word), 0))
        else:
            raise ParseError(f"expected a term, found {_found(word)}", _position(text, i - 1))

        # after an operand: postfix powers and ")", then a binary operator
        while True:
            word = tokens[i]
            i += 1
            if word == "^":
                node, depth = operands.pop()
                _check_sort(node, Term, text, i - 1)
                minus = tokens[i] == "-"
                digits = tokens[i + minus]
                if not digits.isdigit():
                    raise ParseError(f"expected 'nat', found {_found(digits)}", _position(text, i + minus))
                if minus and digits != "1":
                    raise ParseError("only ^-1 is a valid negative power", _position(text, i))
                i += 1 + minus
                node = Inv(node) if minus else Pow(node, read_int(digits))
                operands.append((node, _check_depth(depth + 1)))
            elif word == ")":
                reduce(_OPEN.prec)
                if not ops:
                    raise ParseError(f"trailing input {word!r}", _position(text, i - 1))
                ops.pop()
                node, depth = operands.pop()
                operands.append((node, _check_depth(depth + 1)))
            else:
                break

        op = BINARY.get(word)
        if op is None:
            reduce(_OPEN.prec)
            if ops:
                raise ParseError(f"expected ')', found {_found(word)}", _position(text, i - 1))
            if word:
                raise ParseError(f"trailing input {word!r}", _position(text, i - 1))
            node = operands.pop()[0]
            _check_sort(node, sort, text, i - 1)
            return node
        reduce(op.prec if op.right else op.prec - 1)
        ops.append((op, i - 1, True))
        _check_depth(len(ops))


def parse_term(text: str):
    return _parse(text, Term)


def parse_formula(text: str):
    return _parse(text, Formula)
