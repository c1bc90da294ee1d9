"""Linter for the relevant inversive/division conventions.

Statements are processed in document order.  Every inverse or division
occurrence gets exactly one verdict: Violation (with a concrete zero
witness for the guarded term), Compliant (with a nonzero certificate),
or Unknown.  Compliance with the conventions is undecidable in general,
so the linter is sound but incomplete in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .carriers import RATIONALS, PowerBoundError, PrimeField, format_env
from .parser import ParseError, parse_formula
from .printer import print_term
from .semantics import (
    Mode, StructureSpec, compile_term, eval_total, first_hit, product_blocks,
    select_rows, zero_rows,
)
from .terms import (
    Add,
    Div,
    Eq,
    Inv,
    Mul,
    Neg,
    NumLit,
    One,
    Pow,
    Term,
    Var,
    Zero,
    _contains,
    children,
    free_vars,
    to_inversive,
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


def canonical_key(t: Term) -> str:
    """Structural key modulo argument order of + and * (flattened); a
    product is keyed by the multiset of its factors with their exponents,
    so `q^2` and `q*q` get one key.

    The key is a string (`x`, `#7`, `+(x,y)`, `*(x^2,y^1)`, `/(x,y)`), so
    comparing and sorting keys does not recurse however deep the term.
    """
    cls = type(t)
    if cls is Var:
        return t.name
    if cls is NumLit:
        return f"#{t.value}"
    if cls is Add:
        keys = []
        for part in _flatten(t, Add):
            keys.append(canonical_key(part))
        keys.sort()
        return "+(" + ",".join(keys) + ")"
    if cls is Mul or cls is Pow:
        # the exponent of each factor of t, by the factor's key
        powers = {}
        stack = [(t, 1)]
        while stack:
            u, n = stack.pop()
            if type(u) is Mul:
                stack.append((u.left, n))
                stack.append((u.right, n))
            elif type(u) is Pow:
                stack.append((u.arg, n * u.n))
            else:
                key = canonical_key(u)
                powers[key] = powers.get(key, 0) + n
        return "*(" + ",".join(f"{key}^{n}" for key, n in sorted(powers.items())) + ")"
    tag = _KEY_TAGS.get(cls)
    if tag is None:
        raise TypeError(f"not a term: {t!r}")
    keys = []
    for kid in children(t):
        keys.append(canonical_key(kid))
    return tag + "(" + ",".join(keys) + ")" if keys else tag


def _flatten(t: Term, cls) -> list:
    """The operands of the chain of `cls` nodes at the top of t, in order."""
    parts = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, cls):
            stack.append(u.right)
            stack.append(u.left)
        else:
            parts.append(u)
    return parts


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
    """A term known to be nonzero, recorded from a hypothesis statement.

    Its canonical key and free names are computed once, when it is recorded.
    """

    term: Term
    statement: int
    key: str = field(init=False, repr=False, compare=False)
    names: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", canonical_key(self.term))
        object.__setattr__(self, "names", free_vars(self.term))


def constant_fold(t: Term) -> Fraction | None:
    """Exact rational value of a closed term, else None."""
    if free_vars(t):
        return None
    return eval_total(t, {}, _TOTAL_RATIONALS)


def _is_even_power(t: Term) -> bool:
    """`u*u` or `u^n` with n even, which is never negative over Q."""
    return (isinstance(t, Mul) and t.left == t.right) or (isinstance(t, Pow) and t.n % 2 == 0)


def _free_names(t: Term, names: dict) -> frozenset:
    """The free names of t, each node's recorded in `names` by its id."""
    free = frozenset((t.name,)) if type(t) is Var else frozenset()
    for kid in children(t):
        free |= _free_names(kid, names)
    names[id(t)] = free
    return free


def nonzero_certificate(t: Term, facts=()) -> Certificate | None:
    """A syntactic reason why t cannot evaluate to zero, if one is found.

    Absence of a certificate is never a proof of zero.  The free names of
    every subterm are computed once, up front; a subterm's canonical key
    only where some fact has exactly its names, since equal keys mean
    equal names.
    """
    names = {}
    _free_names(t, names)

    def certify(u: Term) -> Certificate | None:
        free = names[id(u)]
        if not free:
            value = eval_total(u, {}, _TOTAL_RATIONALS)
            return Certificate(CertificateKind.NONZERO_CONSTANT) if value != 0 else None
        if isinstance(u, Pow) and u.n == 0:  # 1 in the total field, even where the base is 0
            return Certificate(CertificateKind.NONZERO_CONSTANT)
        if isinstance(u, Add):
            const, squares = Fraction(0), 0
            for part in _flatten(u, Add):
                if not names[id(part)]:
                    const += eval_total(part, {}, _TOTAL_RATIONALS)
                elif _is_even_power(part):
                    squares += 1
                else:
                    break
            else:
                if squares > 0 and const > 0:
                    return Certificate(CertificateKind.ONE_PLUS_SUM_OF_SQUARES)
        # a field has no zero divisors: a product or power of nonzero factors is nonzero
        if isinstance(u, (Mul, Pow)):
            for kid in children(u):
                if certify(kid) is None:
                    break
            else:
                return Certificate(CertificateKind.PRODUCT_OF_CERTIFIED)
        same = [f for f in facts if f.names == free]
        key = canonical_key(u) if same else None
        matching = [f.statement for f in same if f.key == key]
        return Certificate(CertificateKind.HYPOTHESIS_DERIVED, min(matching)) if matching else None

    return certify(t)


#: Prime-field residues lifted to the rationals, then fractions with
#: |num|, den <= 4, smallest first.
_WITNESS_VALUES = tuple(sorted(
    {Fraction(k) for p in (2, 3, 5) for k in range(p)}
    | {Fraction(n, d) for n in range(-4, 5) for d in range(1, 5)},
    key=lambda v: (abs(v), v),
))


#: The most variables the witness search binds (23^3 = 12,167 environments).
WITNESS_MAX_VARS = 3


#: The witness search's prefilter computes modulo this prime, 2^61 - 1,
#: where 0^-1 is punched.
_P = 2**61 - 1
_MODULAR = StructureSpec(PrimeField(_P), Mode.PUNCH_INV0)
#: Each witness value n/d as its residue n * d^-1 mod _P, and back.
_RESIDUES = tuple(v.numerator * pow(v.denominator, -1, _P) % _P for v in _WITNESS_VALUES)
_FROM_RESIDUE = dict(zip(_RESIDUES, _WITNESS_VALUES))


def _zero_test(t: Term):
    """A function giving the rows, among `rows` of a frame of residues,
    where t is zero or raises (its error put in `raised`): a nonzero
    residue proves it is not zero, otherwise the exact value decides,
    computed on the rows that `keep` returns of those with a zero residue."""
    modular = compile_term(to_inversive(t), _MODULAR)
    exact = compile_term(t, _TOTAL_RATIONALS)

    def zeros(frame, rows, raised, keep=list) -> set:
        whole = all(len(rows) == len(column) for column in frame.values())
        block = frame if whole else select_rows(frame, rows)
        maybe = {}  # the rows that met the inverse of a zero residue, then zero ones
        maybe.update(dict.fromkeys(zero_rows(modular(block, len(rows), maybe))))
        maybe = keep([rows[j] for j in sorted(maybe)])
        if not maybe:
            return set()
        errors = {}
        values = exact({name: [_FROM_RESIDUE[column[i]] for i in maybe] for name, column in frame.items()},
                       len(maybe), errors)
        for j, error in errors.items():  # a row that raises is decided, as a zero is
            raised[maybe[j]], values[j] = error, 0
        return {i for i, v in zip(maybe, values) if not v}

    return zeros


def find_zero_witness(t: Term, nonzero=(), extra_vars=()):
    """A small-rational environment making t evaluate to zero, if found.

    The search sweeps prime-field residues lifted to the rationals plus
    fractions with |num|, den <= 4, over at most WITNESS_MAX_VARS
    variables, in itertools.product order of the sorted names.
    Environments where a term of `nonzero` (e.g. a recorded fact) is zero
    are skipped; those terms may only use the searched names.

    Each term is computed first modulo P = 2^61 - 1, on the residues of
    the values, with 0^-1 punched; its exact rational value is computed
    only where that residue is zero or an inverse met a zero residue.
    This decides exactly as exact evaluation alone: the rationals whose
    denominators are prime to P, which hold every searched value and
    every literal, map onto GF(P) by a ring homomorphism, and an exact
    value the prefilter inverts has a nonzero residue, so it is a unit of
    that ring too; hence a nonzero residue proves a nonzero exact value.
    A term of `nonzero` is computed only where t may be zero, and also
    before the witness if it has a power, which may raise.
    """
    names = sorted(free_vars(t) | set(extra_vars))
    if len(names) > WITNESS_MAX_VARS:
        return None
    target = _zero_test(t)
    guards = [_zero_test(u) for u in nonzero]
    # exact rational arithmetic raises only in a power over the size bound
    guards_may_raise = any(_contains(u, (Pow,)) for u in nonzero)

    def first_zero(frame, n):
        raised = {}  # the error of each row where a term raises

        def unguarded(rows):
            for guard in guards:  # in order, each on the rows the ones before leave
                zeros = guard(frame, rows, raised)
                rows = [i for i in rows if i not in zeros]
            return rows

        zeros = target(frame, range(n), raised, unguarded)
        hit = min(zeros) if zeros else None
        if guards_may_raise:  # raise where a row-by-row search would
            unguarded(range(n if hit is None else hit))
        if raised and (hit is None or min(raised) <= hit):
            raise raised[min(raised)]
        return hit

    _, residues = first_hit(product_blocks(_RESIDUES, names), first_zero)
    if residues is None:
        return None
    return {name: _FROM_RESIDUE[r] for name, r in residues.items()}


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
        return " ".join(f"{k}={v}" for k, v in self.to_dict().items())

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "pos": self.position,
            "guarded": print_term(self.guarded),
            "verdict": self.kind.value,
            "detail": self.detail(),
        }


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
    try:
        rhs = constant_fold(f.right)
    except PowerBoundError:  # dropping a fact is sound
        return []
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
        facts.extend(_extract_facts(stmt))
        for occ in collect_occurrences(stmt.formula):
            try:
                verdict = _judge(stmt.index, occ, convention, facts)
            except PowerBoundError as exc:
                verdict = Verdict(
                    stmt.index, occ.position, occ.guarded, VerdictKind.UNKNOWN, reason=str(exc)
                )
            verdicts.append(verdict)
    return verdicts


def _is_liberal(occ: Occurrence, convention: Convention) -> bool:
    return convention is Convention.LIBERAL_DIVISION and occ.numerator is not None


def _search_inputs(occ: Occurrence, convention: Convention, facts):
    """The names the witness search binds for occ, its extra names and the
    terms it keeps nonzero: the facts that use no other names and, under
    liberal division, the numerator."""
    liberal = _is_liberal(occ, convention)
    extra = free_vars(occ.numerator) if liberal else frozenset()
    names = free_vars(occ.guarded) | extra
    nonzero = [fact.term for fact in facts if fact.names <= names]
    if liberal:
        nonzero.append(occ.numerator)
    return names, extra, nonzero


def _judge(index: int, occ: Occurrence, convention: Convention, facts) -> Verdict:
    # Certificates first: a nonzero guard, or a zero numerator under
    # liberal division, proves that the witness search, which sweeps up to
    # 23^3 environments, would come back empty.
    certificate = nonzero_certificate(occ.guarded, facts)
    if (
        certificate is None
        and _is_liberal(occ, convention)
        and constant_fold(occ.numerator) == 0
    ):
        certificate = Certificate(CertificateKind.ZERO_NUMERATOR)
    if certificate is not None:
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

    names, extra, nonzero = _search_inputs(occ, convention, facts)
    witness = find_zero_witness(occ.guarded, nonzero=nonzero, extra_vars=extra)
    if witness is not None:
        return Verdict(index, occ.position, occ.guarded, VerdictKind.VIOLATION, witness=witness)
    if len(names) > WITNESS_MAX_VARS:
        reason = f"search skipped: {len(names)} variables, over the budget of {WITNESS_MAX_VARS}"
    else:
        reason = (
            f"no zero among {len(_WITNESS_VALUES)}^{len(names)} environments "
            "and no certificate rule applies"
        )
    return Verdict(index, occ.position, occ.guarded, VerdictKind.UNKNOWN, reason=reason)
