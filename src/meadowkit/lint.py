"""Linter for the relevant inversive/division conventions.

Statements are processed in document order.  Every inverse or division
occurrence gets exactly one verdict: Violation (with a concrete zero
witness for the guarded term), Compliant (with a nonzero certificate),
or Unknown.  Compliance with the conventions is undecidable in general,
so the linter is sound but incomplete in both directions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .carriers import RATIONALS, format_element
from .parser import ParseError, parse_formula
from .printer import print_term
from .semantics import Scope, StructureSpec, compile_term, eval_total
from .terms import (
    Add,
    Div,
    Eq,
    Inv,
    Mul,
    Neg,
    NumLit,
    One,
    Term,
    Var,
    Zero,
    children,
    free_vars,
)

_TOTAL_RATIONALS = StructureSpec(RATIONALS)


class Convention(Enum):
    INVERSIVE = "inversive"
    DIVISION = "division"
    LIBERAL_DIVISION = "liberal-division"


class StatementKind(Enum):
    HYPOTHESIS = "hyp"
    CLAIM = "claim"


@dataclass(frozen=True)
class Statement:
    index: int
    kind: StatementKind
    formula: object


def parse_corpus(text: str) -> list[Statement]:
    """One statement per line: `hyp: <formula>` or `claim: <formula>`."""
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'hyp:' or 'claim:' prefix")
        prefix, body = line.split(":", 1)
        try:
            kind = StatementKind(prefix.strip())
        except ValueError:
            raise ValueError(f"line {lineno}: unknown statement kind {prefix!r}") from None
        try:
            formula = parse_formula(body.strip())
        except ParseError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        statements.append(Statement(len(statements), kind, formula))
    return statements


@dataclass(frozen=True)
class Occurrence:
    position: int
    numerator: Term | None  # None for inverse occurrences
    guarded: Term


def collect_occurrences(node) -> list[Occurrence]:
    """All division/inverse occurrences of a term or formula, in order."""
    pairs: list = []
    _occurrences(node, pairs)
    return [Occurrence(i, num, guarded) for i, (num, guarded) in enumerate(pairs)]


def _occurrences(node, out: list):
    # in-order: a `/` follows its left operand and a `^-1` its argument,
    # which is the textual order of the symbols
    kids = children(node)
    if kids:
        _occurrences(kids[0], out)
    if isinstance(node, Div):
        out.append((node.left, node.right))
    elif isinstance(node, Inv):
        out.append((None, node.arg))
    for kid in kids[1:]:
        _occurrences(kid, out)


_KEY_TAGS = {Zero: "0", One: "1", Neg: "-", Inv: "inv", Div: "/"}


def canonical_key(t: Term):
    """Structural key modulo argument order of + and * (flattened)."""
    if isinstance(t, NumLit):
        return ("num", t.value)
    if isinstance(t, Var):
        return ("var", t.name)
    if isinstance(t, (Add, Mul)):
        op = "+" if isinstance(t, Add) else "*"
        parts = sorted((canonical_key(p) for p in _flatten(t, type(t))), key=repr)
        return (op, tuple(parts))
    tag = _KEY_TAGS.get(type(t))
    if tag is None:
        raise TypeError(f"not a term: {t!r}")
    key = [tag]
    for kid in children(t):
        key.append(canonical_key(kid))
    return tuple(key)


def _flatten(t: Term, cls) -> list:
    if isinstance(t, cls):
        return _flatten(t.left, cls) + _flatten(t.right, cls)
    return [t]


class CertificateKind(Enum):
    NONZERO_CONSTANT = "NonzeroConstant"
    ONE_PLUS_SUM_OF_SQUARES = "OnePlusSumOfSquares"
    PRODUCT_OF_CERTIFIED = "ProductOfCertified"
    HYPOTHESIS_DERIVED = "HypothesisDerived"
    ZERO_NUMERATOR = "ZeroNumerator"


@dataclass(frozen=True)
class Certificate:
    kind: CertificateKind
    statement: int | None = None

    def __str__(self):
        if self.kind is CertificateKind.HYPOTHESIS_DERIVED:
            return f"HypothesisDerived({self.statement})"
        return self.kind.value


@dataclass(frozen=True)
class Fact:
    """A term known to be nonzero, recorded from a hypothesis statement."""

    term: Term
    statement: int

    @property
    def key(self):
        return canonical_key(self.term)


def constant_fold(t: Term) -> Fraction | None:
    """Exact rational value of a closed term, else None."""
    if free_vars(t):
        return None
    return eval_total(t, {}, _TOTAL_RATIONALS)


def _is_square(t: Term) -> bool:
    return isinstance(t, Mul) and t.left == t.right


def nonzero_certificate(t: Term, facts=()) -> Certificate | None:
    """A syntactic reason why t cannot evaluate to zero, if one is found.

    Absence of a certificate is never a proof of zero.
    """
    value = constant_fold(t)
    if value is not None:
        return Certificate(CertificateKind.NONZERO_CONSTANT) if value != 0 else None
    if isinstance(t, Add):
        summands = _flatten(t, Add)
        const = Fraction(0)
        squares = 0
        ok = True
        for part in summands:
            folded = constant_fold(part)
            if folded is not None:
                const += folded
            elif _is_square(part):
                squares += 1
            else:
                ok = False
                break
        if ok and squares > 0 and const > 0:
            return Certificate(CertificateKind.ONE_PLUS_SUM_OF_SQUARES)
    if isinstance(t, Mul):
        left = nonzero_certificate(t.left, facts)
        right = nonzero_certificate(t.right, facts)
        if left is not None and right is not None:
            return Certificate(CertificateKind.PRODUCT_OF_CERTIFIED)
    key = canonical_key(t)
    matching = [f for f in facts if f.key == key]
    if matching:
        earliest = min(f.statement for f in matching)
        return Certificate(CertificateKind.HYPOTHESIS_DERIVED, earliest)
    return None


#: Prime-field residues lifted to the rationals, then fractions with
#: |num|, den <= 4, smallest first.
_WITNESS_VALUES = tuple(sorted(
    {Fraction(k) for p in (2, 3, 5) for k in range(p)}
    | {Fraction(n, d) for n in range(-4, 5) for d in range(1, 5)},
    key=lambda v: (abs(v), v),
))


def find_zero_witness(t: Term, nonzero=(), extra_vars=(), max_vars: int = 3):
    """A small-rational environment making t evaluate to zero, if found.

    The search sweeps prime-field residues lifted to the rationals plus
    fractions with |num|, den <= 4, over at most `max_vars` variables, in
    itertools.product order of the sorted names, with exact rational
    evaluation.  Environments where a term of `nonzero` (e.g. a recorded
    fact) is zero are skipped; those terms may only use the searched names.
    """
    names = sorted(free_vars(t) | set(extra_vars))
    if len(names) > max_vars:
        return None
    scope = Scope(names, grow=False)
    target = compile_term(t, _TOTAL_RATIONALS, scope)
    guards = [compile_term(u, _TOTAL_RATIONALS, scope) for u in nonzero]
    for env in itertools.product(_WITNESS_VALUES, repeat=len(names)):
        for guard in guards:
            if guard(env) == 0:
                break
        else:
            if target(env) == 0:
                return dict(zip(names, env))
    return None


class VerdictKind(Enum):
    COMPLIANT = "COMPLIANT"
    VIOLATION = "VIOLATION"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Verdict:
    statement: int
    position: int
    guarded: Term
    kind: VerdictKind
    certificate: Certificate | None = None
    witness: dict | None = None
    reason: str | None = None

    def detail(self) -> str:
        if self.kind is VerdictKind.COMPLIANT:
            return str(self.certificate)
        if self.kind is VerdictKind.VIOLATION:
            return format_env(self.witness)
        return self.reason or ""

    def format_line(self) -> str:
        return (
            f"statement={self.statement} pos={self.position} "
            f"guarded={print_term(self.guarded)} verdict={self.kind.value} "
            f"detail={self.detail()}"
        )

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "pos": self.position,
            "guarded": print_term(self.guarded),
            "verdict": self.kind.value,
            "detail": self.detail(),
        }


def format_env(env) -> str:
    if not env:
        return "{}"
    return ",".join(f"{k}={format_element(v)}" for k, v in sorted(env.items()))


def _extract_facts(stmt: Statement) -> list[Fact]:
    """`t / q = c` or `t * q^-1 = c` with nonzero constant c implies q != 0.

    Justified in the divisive Komori field: were q zero, the left side
    would equal 0, contradicting c != 0.
    """
    if stmt.kind is not StatementKind.HYPOTHESIS:
        return []
    f = stmt.formula
    if not isinstance(f, Eq):
        return []
    rhs = constant_fold(f.right) if not free_vars(f.right) else None
    if rhs is None or rhs == 0:
        return []
    lhs = f.left
    if isinstance(lhs, Div):
        return [Fact(lhs.right, stmt.index)]
    if isinstance(lhs, Mul) and isinstance(lhs.right, Inv):
        return [Fact(lhs.right.arg, stmt.index)]
    return []


def lint(corpus: list[Statement], convention: Convention) -> list[Verdict]:
    facts: list[Fact] = []
    verdicts: list[Verdict] = []
    for stmt in corpus:
        facts = facts + _extract_facts(stmt)
        for occ in collect_occurrences(stmt.formula):
            verdicts.append(_judge(stmt.index, occ, convention, facts))
    return verdicts


def _judge(index: int, occ: Occurrence, convention: Convention, facts) -> Verdict:
    liberal = (
        convention is Convention.LIBERAL_DIVISION and occ.numerator is not None
    )

    extra = free_vars(occ.numerator) if liberal else frozenset()
    # the witness search binds exactly these names, so it can test the
    # facts that use no others (and a liberal division's numerator)
    bound = free_vars(occ.guarded) | extra
    nonzero = [fact.term for fact in facts if free_vars(fact.term) <= bound]
    if liberal:
        nonzero.append(occ.numerator)

    witness = find_zero_witness(occ.guarded, nonzero=nonzero, extra_vars=extra)
    if witness is not None:
        return Verdict(index, occ.position, occ.guarded, VerdictKind.VIOLATION, witness=witness)

    certificate = nonzero_certificate(occ.guarded, facts)
    if certificate is None and liberal:
        numerator = constant_fold(occ.numerator)
        if numerator is not None and numerator == 0:
            certificate = Certificate(CertificateKind.ZERO_NUMERATOR)
    if certificate is None:
        return Verdict(
            index,
            occ.position,
            occ.guarded,
            VerdictKind.UNKNOWN,
            reason="no certificate within budget",
        )
    if (
        certificate.kind is CertificateKind.HYPOTHESIS_DERIVED
        and certificate.statement == index
    ):
        return Verdict(
            index,
            occ.position,
            occ.guarded,
            VerdictKind.UNKNOWN,
            certificate=certificate,
            reason="same-statement hypothesis",
        )
    return Verdict(index, occ.position, occ.guarded, VerdictKind.COMPLIANT, certificate=certificate)
