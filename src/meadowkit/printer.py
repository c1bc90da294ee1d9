"""Pretty printers for terms and formulas.

Output is parenthesized only where the grammar requires it, and
re-parsing a printed AST yields a structurally equal AST.
"""

from __future__ import annotations

from .terms import (
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
    One,
    Or,
    Pow,
    Var,
    Zero,
)

# term precedence levels
_ADD, _MUL, _UNARY, _POSTFIX, _ATOM = 1, 2, 3, 4, 5


def _term_prec(t) -> int:
    if isinstance(t, Add):
        return _ADD
    if isinstance(t, (Mul, Div)):
        return _MUL
    if isinstance(t, Neg):
        return _UNARY
    if isinstance(t, (Inv, Pow)):
        return _POSTFIX
    return _ATOM


def _term(t, min_prec: int) -> str:
    prec = _term_prec(t)
    if isinstance(t, Zero):
        s = "0"
    elif isinstance(t, One):
        s = "1"
    elif isinstance(t, NumLit):
        s = str(t.value)
    elif isinstance(t, Var):
        s = t.name
    elif isinstance(t, Add):
        if isinstance(t.right, Neg):
            s = f"{_term(t.left, _ADD)} - {_term(t.right.arg, _MUL)}"
        else:
            s = f"{_term(t.left, _ADD)} + {_term(t.right, _MUL)}"
    elif isinstance(t, Mul):
        s = f"{_term(t.left, _MUL)}*{_term(t.right, _UNARY)}"
    elif isinstance(t, Div):
        s = f"{_term(t.left, _MUL)}/{_term(t.right, _UNARY)}"
    elif isinstance(t, Neg):
        s = f"-{_term(t.arg, _UNARY)}"
    elif isinstance(t, Inv):
        s = f"{_term(t.arg, _POSTFIX)}^-1"
    elif isinstance(t, Pow):
        s = f"{_term(t.arg, _POSTFIX)}^{t.n}"
    else:
        raise TypeError(f"not a term: {t!r}")
    if prec < min_prec:
        return f"({s})"
    return s


def print_term(t) -> str:
    return _term(t, _ADD)


# formula precedence levels
_QUANT, _IMPL, _OR, _AND, _NOT, _FATOM = 0, 1, 2, 3, 4, 5


def _formula_prec(f) -> int:
    if isinstance(f, (Forall, Exists)):
        return _QUANT
    if isinstance(f, Implies):
        return _IMPL
    if isinstance(f, Or):
        return _OR
    if isinstance(f, And):
        return _AND
    if isinstance(f, Not) and not isinstance(f.arg, Eq):
        return _NOT
    return _FATOM


def _formula(f, min_prec: int) -> str:
    prec = _formula_prec(f)
    if isinstance(f, Eq):
        s = f"{print_term(f.left)} = {print_term(f.right)}"
    elif isinstance(f, Not) and isinstance(f.arg, Eq):
        s = f"{print_term(f.arg.left)} != {print_term(f.arg.right)}"
    elif isinstance(f, Gt):
        s = f"{print_term(f.left)} > {print_term(f.right)}"
    elif isinstance(f, Lt):
        s = f"{print_term(f.left)} < {print_term(f.right)}"
    elif isinstance(f, Not):
        s = f"!{_formula(f.arg, _NOT)}"
    elif isinstance(f, And):
        s = f"{_formula(f.left, _AND)} & {_formula(f.right, _NOT)}"
    elif isinstance(f, Or):
        s = f"{_formula(f.left, _OR)} | {_formula(f.right, _AND)}"
    elif isinstance(f, Implies):
        s = f"{_formula(f.left, _OR)} => {_formula(f.right, _IMPL)}"
    elif isinstance(f, (Forall, Exists)):
        kw = "forall" if isinstance(f, Forall) else "exists"
        s = f"{kw} {f.var}. {_formula(f.body, _QUANT)}"
    else:
        raise TypeError(f"not a formula: {f!r}")
    if prec < min_prec:
        return f"({s})"
    return s


def print_formula(f) -> str:
    return _formula(f, _QUANT)
