"""Pretty printers for terms and formulas.

Output is parenthesized only where the parser's operator table requires
it, and re-parsing a printed AST yields a structurally equal AST.
"""

from __future__ import annotations

from .parser import BINARY, POSTFIX_PREC, PREFIX
from .terms import Add, Eq, Formula, Inv, Neg, Not, NumLit, One, Pow, Term, Var, Zero

#: Node class -> symbol of the operator that builds it; the sugar
#: `a - b` and `a != b` is recognised by its shape in `_print`.
_INFIX = {op.build: sym for sym, op in BINARY.items() if isinstance(op.build, type)}
_PREFIX = {op.build: sym for sym, op in PREFIX.items()}


def _print(node, min_prec: int) -> str:
    cls = type(node)
    if cls is Var:
        return node.name
    if cls is Zero or cls is One or cls is NumLit:
        return "0" if cls is Zero else "1" if cls is One else str(node.value)
    if cls is Add and type(node.right) is Neg:
        sym, left, right = "-", node.left, node.right.arg
    elif cls is Not and type(node.arg) is Eq:
        sym, left, right = "!=", node.arg.left, node.arg.right
    elif cls in _INFIX:
        sym, left, right = _INFIX[cls], node.left, node.right
    else:
        sym = None
    if sym is not None:
        op = BINARY[sym]
        prec = op.prec
        a = _print(left, prec + 1 if op.right else prec)
        b = _print(right, prec if op.right else prec + 1)
        s = f"{a}{sym}{b}" if sym in ("*", "/") else f"{a} {sym} {b}"
    elif cls is Inv or cls is Pow:
        prec = POSTFIX_PREC
        s = _print(node.arg, prec) + ("^-1" if cls is Inv else f"^{node.n}")
    elif cls in _PREFIX:
        sym = _PREFIX[cls]
        prec = PREFIX[sym].prec
        if cls is Neg or cls is Not:
            s = sym + _print(node.arg, prec)
        else:
            s = f"{sym} {node.var}. {_print(node.body, prec)}"
    else:
        raise TypeError(f"not a term or formula: {node!r}")
    return f"({s})" if prec < min_prec else s


def print_term(t) -> str:
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    return _print(t, 0)


def print_formula(f) -> str:
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return _print(f, 0)
