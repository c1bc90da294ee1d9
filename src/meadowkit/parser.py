"""Recursive-descent parser for the term and formula surface syntax.

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

`a - b` is sugar for `a + (-b)` and `t != u` for `!(t = u)`; `t^n` is a
`Pow` node for every natural n, 0 and 1 included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .terms import (
    ONE,
    ZERO,
    Add,
    And,
    Div,
    Eq,
    Exists,
    Forall,
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
    Var,
)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<nat>\d+)
  | (?P<ident>[a-zA-Z][a-zA-Z0-9_]*)
  | (?P<op>=>|!=|[-+*/^()=<>!&|.])
    """,
    re.VERBOSE,
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        if self.tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {self.tok.text or 'end of input'!r}",
                self.tok.pos,
            )
        return self.advance()

    def at_end(self) -> bool:
        return self.tok.kind == "eof"

    # terms

    def term(self):
        return self.sum()

    def sum(self):
        t = self.prod()
        while self.tok.kind in ("+", "-"):
            op = self.advance()
            rhs = self.prod()
            t = Add(t, Neg(rhs)) if op.kind == "-" else Add(t, rhs)
        return t

    def prod(self):
        t = self.unary()
        while self.tok.kind in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            t = Mul(t, rhs) if op.kind == "*" else Div(t, rhs)
        return t

    def unary(self):
        if self.tok.kind == "-":
            self.advance()
            return Neg(self.unary())
        return self.postfix()

    def postfix(self):
        t = self.atom()
        while self.tok.kind == "^":
            self.advance()
            if self.tok.kind == "-":
                pos = self.advance().pos
                one = self.expect("nat")
                if one.text != "1":
                    raise ParseError("only ^-1 is a valid negative power", pos)
                t = Inv(t)
            else:
                n = self.expect("nat")
                t = Pow(t, int(n.text))
        return t

    def atom(self):
        tok = self.tok
        if tok.kind == "nat":
            self.advance()
            n = int(tok.text)
            if n == 0:
                return ZERO
            if n == 1:
                return ONE
            return NumLit(n)
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text)
        if tok.kind == "(":
            self.advance()
            t = self.term()
            self.expect(")")
            return t
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.pos)

    # formulas

    def formula(self):
        if self.tok.kind in ("forall", "exists"):
            quant = self.advance()
            var = self.expect("ident")
            self.expect(".")
            body = self.formula()
            cls = Forall if quant.kind == "forall" else Exists
            return cls(var.text, body)
        return self.impl()

    def impl(self):
        f = self.disj()
        if self.tok.kind == "=>":
            self.advance()
            return Implies(f, self.impl())
        return f

    def disj(self):
        f = self.conj()
        while self.tok.kind == "|":
            self.advance()
            f = Or(f, self.conj())
        return f

    def conj(self):
        f = self.neg()
        while self.tok.kind == "&":
            self.advance()
            f = And(f, self.neg())
        return f

    def neg(self):
        if self.tok.kind == "!":
            self.advance()
            return Not(self.neg())
        return self.fatom()

    def fatom(self):
        if self.tok.kind == "(":
            # "(" may open a parenthesized formula or a parenthesized term;
            # try the formula reading first and backtrack on failure.
            mark = self.i
            try:
                self.advance()
                f = self.formula()
                self.expect(")")
                return f
            except ParseError:
                self.i = mark
        left = self.term()
        tok = self.tok
        if tok.kind == "=":
            self.advance()
            return Eq(left, self.term())
        if tok.kind == "!=":
            self.advance()
            return Not(Eq(left, self.term()))
        if tok.kind == ">":
            self.advance()
            return Gt(left, self.term())
        if tok.kind == "<":
            self.advance()
            return Lt(left, self.term())
        raise ParseError(
            f"expected a comparison, found {tok.text or 'end of input'!r}", tok.pos
        )


def parse_term(text: str):
    p = _Parser(text)
    t = p.term()
    if not p.at_end():
        raise ParseError(f"trailing input {p.tok.text!r}", p.tok.pos)
    return t


def parse_formula(text: str):
    p = _Parser(text)
    f = p.formula()
    if not p.at_end():
        raise ParseError(f"trailing input {p.tok.text!r}", p.tok.pos)
    return f
