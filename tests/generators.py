"""Seeded random AST and value generators shared across tests."""

from __future__ import annotations

import random
from fractions import Fraction

from meadowkit.terms import (
    ONE,
    ZERO,
    Add,
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
    And,
    Var,
    _contains,
)

VAR_NAMES = ("x", "y", "z")


def random_rational(rng: random.Random, bound: int = 99) -> Fraction:
    num = rng.randint(-bound, bound)
    den = 0
    while den == 0:
        den = rng.randint(-bound, bound)
    return Fraction(num, den)


def random_term(rng: random.Random, depth: int = 4, names=VAR_NAMES):
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.randrange(4)
        if leaf == 0:
            return ZERO
        if leaf == 1:
            return ONE
        if leaf == 2:
            return NumLit(rng.randint(2, 9))
        return Var(rng.choice(names))
    node = rng.randrange(5)
    if node == 0:
        return Add(random_term(rng, depth - 1, names), random_term(rng, depth - 1, names))
    if node == 1:
        return Mul(random_term(rng, depth - 1, names), random_term(rng, depth - 1, names))
    if node == 2:
        return Neg(random_term(rng, depth - 1, names))
    if node == 3:
        return Inv(random_term(rng, depth - 1, names))
    return Div(random_term(rng, depth - 1, names), random_term(rng, depth - 1, names))


def random_division_free_term(rng: random.Random, depth: int = 4, names=VAR_NAMES):
    t = random_term(rng, depth, names)
    while _contains(t, (Div, Inv)):
        t = random_term(rng, depth, names)
    return t


def random_atom(rng: random.Random, names, depth: int = 2):
    left = random_term(rng, depth, names)
    right = random_term(rng, depth, names)
    pick = rng.randrange(4)
    if pick == 0:
        return Eq(left, right)
    if pick == 1:
        return Not(Eq(left, right))
    if pick == 2:
        return Gt(left, right)
    return Lt(left, right)


def random_formula(rng: random.Random, depth: int = 3, names=VAR_NAMES):
    """Open formula without quantifiers."""
    if depth == 0 or rng.random() < 0.35:
        return random_atom(rng, names)
    node = rng.randrange(4)
    if node == 0:
        return Not(random_formula(rng, depth - 1, names))
    if node == 1:
        return And(random_formula(rng, depth - 1, names), random_formula(rng, depth - 1, names))
    if node == 2:
        return Or(random_formula(rng, depth - 1, names), random_formula(rng, depth - 1, names))
    return Implies(random_formula(rng, depth - 1, names), random_formula(rng, depth - 1, names))


def random_closed_quantified_formula(rng: random.Random, depth: int = 3):
    """Closed formula whose variables are all quantifier-bound."""

    def build(d, bound):
        roll = rng.random()
        if (d == 0 or roll < 0.3) and bound:
            return random_atom(rng, tuple(bound), depth=2)
        if roll < 0.55 or not bound:
            name = f"v{len(bound)}"
            body = build(d - 1 if d else 0, bound + [name])
            return Forall(name, body) if rng.random() < 0.5 else Exists(name, body)
        node = rng.randrange(4)
        if node == 0:
            return Not(build(d - 1, bound))
        if node == 1:
            return And(build(d - 1, bound), build(d - 1, bound))
        if node == 2:
            return Or(build(d - 1, bound), build(d - 1, bound))
        return Implies(build(d - 1, bound), build(d - 1, bound))

    return build(depth, [])


def random_scoped_formula(rng: random.Random, depth: int = 3, names=("x", "y")):
    """Formula over a small pool of names whose quantifiers re-bind names
    that are already bound (shadowing) or free (bound by an environment)."""
    if depth == 0 or rng.random() < 0.25:
        return random_atom(rng, names, depth=2)
    node = rng.randrange(6)
    if node < 2:
        body = random_scoped_formula(rng, depth - 1, names)
        return (Forall if node == 0 else Exists)(rng.choice(names), body)
    if node == 2:
        return Not(random_scoped_formula(rng, depth - 1, names))
    cls = (And, Or, Implies)[node - 3]
    return cls(random_scoped_formula(rng, depth - 1, names), random_scoped_formula(rng, depth - 1, names))
