"""Independent brute-force evaluator used as the oracle in tests.

Deliberately shares no evaluation code with the package: terms are
evaluated by direct recursion on modular integers, connectives by
literal table lookup, and quantifiers by materializing the full
instance list.
"""

from __future__ import annotations

from meadowkit.terms import (
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

NOT_TABLE = {"T": "F", "F": "T", "U": "U"}

OR_TABLES = {
    "bochvar": {
        ("T", "T"): "T", ("T", "F"): "T", ("T", "U"): "U",
        ("F", "T"): "T", ("F", "F"): "F", ("F", "U"): "U",
        ("U", "T"): "U", ("U", "F"): "U", ("U", "U"): "U",
    },
    "kleene": {
        ("T", "T"): "T", ("T", "F"): "T", ("T", "U"): "T",
        ("F", "T"): "T", ("F", "F"): "F", ("F", "U"): "U",
        ("U", "T"): "T", ("U", "F"): "U", ("U", "U"): "U",
    },
    "mccarthy-left": {
        ("T", "T"): "T", ("T", "F"): "T", ("T", "U"): "T",
        ("F", "T"): "T", ("F", "F"): "F", ("F", "U"): "U",
        ("U", "T"): "U", ("U", "F"): "U", ("U", "U"): "U",
    },
    "mccarthy-right": {
        ("T", "T"): "T", ("T", "F"): "T", ("T", "U"): "U",
        ("F", "T"): "T", ("F", "F"): "F", ("F", "U"): "U",
        ("U", "T"): "T", ("U", "F"): "U", ("U", "U"): "U",
    },
}

AND_TABLES = {
    "bochvar": {
        ("T", "T"): "T", ("T", "F"): "F", ("T", "U"): "U",
        ("F", "T"): "F", ("F", "F"): "F", ("F", "U"): "U",
        ("U", "T"): "U", ("U", "F"): "U", ("U", "U"): "U",
    },
    "kleene": {
        ("T", "T"): "T", ("T", "F"): "F", ("T", "U"): "U",
        ("F", "T"): "F", ("F", "F"): "F", ("F", "U"): "F",
        ("U", "T"): "U", ("U", "F"): "F", ("U", "U"): "U",
    },
    "mccarthy-left": {
        ("T", "T"): "T", ("T", "F"): "F", ("T", "U"): "U",
        ("F", "T"): "F", ("F", "F"): "F", ("F", "U"): "F",
        ("U", "T"): "U", ("U", "F"): "U", ("U", "U"): "U",
    },
    "mccarthy-right": {
        ("T", "T"): "T", ("T", "F"): "F", ("T", "U"): "U",
        ("F", "T"): "F", ("F", "F"): "F", ("F", "U"): "U",
        ("U", "T"): "U", ("U", "F"): "F", ("U", "U"): "U",
    },
}


def oracle_term(t, env, p, mode):
    """Value of a term in GF(p) under a punching mode, or None if undefined."""
    if isinstance(t, Zero):
        return 0
    if isinstance(t, One):
        return 1 % p
    if isinstance(t, NumLit):
        return t.value % p
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Add):
        a = oracle_term(t.left, env, p, mode)
        b = oracle_term(t.right, env, p, mode)
        if a is None or b is None:
            return None
        return (a + b) % p
    if isinstance(t, Mul):
        a = oracle_term(t.left, env, p, mode)
        b = oracle_term(t.right, env, p, mode)
        if a is None or b is None:
            return None
        return (a * b) % p
    if isinstance(t, Neg):
        a = oracle_term(t.arg, env, p, mode)
        return None if a is None else (-a) % p
    if isinstance(t, Pow):
        a = oracle_term(t.arg, env, p, mode)
        if a is None:
            return None
        value = 1 % p
        for _ in range(t.n):
            value = (value * a) % p
        return value
    if isinstance(t, Inv):
        a = oracle_term(t.arg, env, p, mode)
        if a is None:
            return None
        if a == 0:
            return None if mode == "punch-inv" else 0
        return _modinv(a, p)
    if isinstance(t, Div):
        a = oracle_term(t.left, env, p, mode)
        b = oracle_term(t.right, env, p, mode)
        if a is None or b is None:
            return None
        if b == 0:
            if mode == "punch-div-all":
                return None
            if mode == "punch-div-nonzero" and a != 0:
                return None
            return 0
        return (a * _modinv(b, p)) % p
    raise TypeError(t)


def _modinv(a, p):
    for z in range(p):
        if (a * z) % p == 1:
            return z
    raise ValueError(f"{a} has no inverse mod {p}")


def _atom_truth(left, right, relation, env, p, mode, equality):
    a = oracle_term(left, env, p, mode)
    b = oracle_term(right, env, p, mode)
    if a is None or b is None:
        if relation == "=":
            if equality == "weak":
                return "U"
            if equality == "strong":
                return "T" if (a is None and b is None) else "F"
            return "F"
        return "U" if equality == "weak" else "F"
    if relation == "=":
        return "T" if a == b else "F"
    if relation == ">":
        return "T" if a > b else "F"
    return "T" if a < b else "F"


def oracle_formula(f, env, p, mode, equality, connectives, quantifiers):
    """Three-valued truth of a formula as a string 'T' / 'F' / 'U'."""

    def ev(g, e):
        if isinstance(g, Eq):
            return _atom_truth(g.left, g.right, "=", e, p, mode, equality)
        if isinstance(g, Gt):
            return _atom_truth(g.left, g.right, ">", e, p, mode, equality)
        if isinstance(g, Lt):
            return _atom_truth(g.left, g.right, "<", e, p, mode, equality)
        if isinstance(g, Not):
            return NOT_TABLE[ev(g.arg, e)]
        if isinstance(g, And):
            return AND_TABLES[connectives][(ev(g.left, e), ev(g.right, e))]
        if isinstance(g, Or):
            return OR_TABLES[connectives][(ev(g.left, e), ev(g.right, e))]
        if isinstance(g, Implies):
            return OR_TABLES[connectives][(NOT_TABLE[ev(g.left, e)], ev(g.right, e))]
        if isinstance(g, (Forall, Exists)):
            instances = []
            for value in range(p):
                inner = dict(e)
                inner[g.var] = value
                instances.append(ev(g.body, inner))
            if quantifiers == "bochvar":
                if "U" in instances:
                    return "U"
                if isinstance(g, Forall):
                    return "T" if all(v == "T" for v in instances) else "F"
                return "T" if any(v == "T" for v in instances) else "F"
            if isinstance(g, Forall):
                if "F" in instances:
                    return "F"
                return "U" if "U" in instances else "T"
            if "T" in instances:
                return "T"
            return "U" if "U" in instances else "F"
        raise TypeError(g)

    return ev(f, env)
