"""Independent checker for the outputs of benchmark commands.

Nothing here calls the package's parser, printer, evaluators or linter:
GF(p) results are compared with ``tests/oracle.py``, and lint verdicts
are judged by the exact rational evaluation and search below.  The
checker only reads the ASTs the generators built and the text the
commands printed.

``check(op, rc, out)`` returns ``(outputs, wrong)``: how many outputs
the command produced (axiom reports, truth values, lint verdicts, or one
eval/tables result) and how many of them are wrong.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

from meadowkit.terms import (
    Add,
    And,
    Div,
    Eq,
    Exists,
    Forall,
    Implies,
    Inv,
    Mul,
    Neg,
    Not,
    NumLit,
    One,
    Or,
    Var,
    Zero,
)
from workloads import free_names

EXIT_OK, EXIT_THIRD, EXIT_FAIL = 0, 3, 4

_oracle = None


def use_oracle(module) -> None:
    """Install ``tests/oracle.py``, loaded by the caller from the checkout."""
    global _oracle
    _oracle = module


def check(op, rc: int, out: str):
    return _CHECKS[op.kind](op.expect, rc, out)


# ------------------------------------------------------------------ GF(p)


def _check_axioms(expect, rc, out):
    p, laws = expect["p"], expect["laws"]
    try:
        reports = json.loads(out)["reports"]
    except (ValueError, KeyError):
        return max(1, len(laws)), max(1, len(laws))
    extras = [r for r in reports if r.get("name", "").startswith("extra-")]
    wrong = 0 if len(extras) == len(laws) else abs(len(extras) - len(laws))
    for r in reports:
        if r.get("name", "").startswith("extra-"):
            continue
        # every catalog law holds in every GF(p) and is checked on all p^k
        k = len(set(re.findall(r"[A-Za-z_]\w*", r["axiom"])))
        wrong += not (r["passed"] and r["samples"] == p ** k and r["witness"] is None)
    for r, law in zip(extras, laws):
        wrong += not _law_report_ok(r, law, p)
    if rc != (EXIT_OK if all(r["passed"] for r in reports) else EXIT_FAIL):
        wrong += 1
    return len(reports), min(wrong, len(reports))


def _law_report_ok(report, law, p) -> bool:
    k = len(free_names(law["lhs"]) | free_names(law["rhs"]) | (free_names(law["guard"]) if law["guard"] else set()))
    if report["passed"] != law["truth"]:
        return False
    if report["passed"]:
        return report["samples"] == p ** k and report["witness"] is None
    try:
        env = {name: int(value) for name, value in report["witness"].items()}
    except (AttributeError, TypeError, ValueError):
        return False
    if not all(0 <= v < p for v in env.values()) or len(env) != k:
        return False
    try:
        if law["guard"] is not None and _oracle.oracle_formula(
                law["guard"], env, p, "total", "weak", "kleene", "kleene") != "T":
            return False
        equal = _oracle.oracle_term(law["lhs"], env, p, "total") == _oracle.oracle_term(law["rhs"], env, p, "total")
    except KeyError:  # the witness leaves a variable of the law unbound
        return False
    return equal != law["equal"] and 1 <= report["samples"] <= p ** k


def _check_logic(expect, rc, out):
    e, c, q = expect["cfg"]
    want = _oracle.oracle_formula(expect["formula"], expect["env"], expect["p"], expect["mode"], e, c, q)
    got = out.strip()
    ok = got == want and rc == (EXIT_THIRD if want == "U" else EXIT_OK)
    return 1, int(not ok)


def _check_eval(expect, rc, out):
    value = _oracle.oracle_term(expect["term"], expect["env"], expect["p"], expect["mode"])
    want = "UNDEFINED" if value is None else str(value)
    ok = out.strip() == want and rc == (EXIT_THIRD if value is None else EXIT_OK)
    return 1, int(not ok)


_TABLE_LINE = re.compile(r"^(?:(!) ([TFU])|([TFU]) (&|\||=>) ([TFU])) -> ([TFU])$")


def _check_tables(expect, rc, out):
    family = expect["family"]
    seen = set()
    ok = rc == EXIT_OK
    for line in out.splitlines():
        if line.endswith(":"):
            continue
        m = _TABLE_LINE.match(line)
        if m is None:
            ok = False
            continue
        if m.group(1):
            key, want = ("!", m.group(2)), _oracle.NOT_TABLE[m.group(2)]
        else:
            a, sym, b = m.group(3), m.group(4), m.group(5)
            key = (a, sym, b)
            if sym == "&":
                want = _oracle.AND_TABLES[family][(a, b)]
            elif sym == "|":
                want = _oracle.OR_TABLES[family][(a, b)]
            else:
                want = _oracle.OR_TABLES[family][(_oracle.NOT_TABLE[a], b)]
        ok = ok and m.group(6) == want and key not in seen
        seen.add(key)
    return 1, int(not (ok and len(seen) == 3 + 3 * 9))


# ---------------------------------------------------------- exact rationals


def compile_term(t):
    """An exact evaluator for t: env -> Fraction, with 0^-1 = 0 and q/0 = 0."""
    return _compile(t, Fraction, lambda v: v if v == 0 else 1 / v)


#: A prime far above any numerator the searched terms reach, so that the
#: reduction from Z_(P) keeps every exact zero and creates few false ones.
P = 2 ** 61 - 1


def compile_mod(t):
    """t evaluated modulo P: a fast filter for zeros, confirmed exactly."""
    return _compile(t, lambda n: n % P, lambda v: pow(v, P - 2, P) if v else 0, modulus=P)


def _compile(t, num, inv, modulus=None):
    if isinstance(t, Zero):
        zero = num(0)
        return lambda env: zero
    if isinstance(t, One):
        one = num(1)
        return lambda env: one
    if isinstance(t, NumLit):
        value = num(t.value)
        return lambda env: value
    if isinstance(t, Var):
        name = t.name
        return lambda env: env[name]
    if isinstance(t, Neg):
        a = _compile(t.arg, num, inv, modulus)
        if modulus:
            return lambda env: -a(env) % modulus
        return lambda env: -a(env)
    if isinstance(t, Inv):
        a = _compile(t.arg, num, inv, modulus)
        return lambda env: inv(a(env))
    a, b = _compile(t.left, num, inv, modulus), _compile(t.right, num, inv, modulus)
    if isinstance(t, Div):
        right = b
        b = lambda env: inv(right(env))
    if isinstance(t, Add):
        if modulus:
            return lambda env: (a(env) + b(env)) % modulus
        return lambda env: a(env) + b(env)
    if isinstance(t, (Mul, Div)):
        if modulus:
            return lambda env: a(env) * b(env) % modulus
        return lambda env: a(env) * b(env)
    raise TypeError(f"not a term: {t!r}")


#: The small rationals a zero is searched among: n/d with |n| <= 4, 1 <= d <= 4.
SMALL = sorted({Fraction(n, d) for n in range(-4, 5) for d in range(1, 5)}, key=lambda v: (abs(v), v))
SMALL_MOD = [v.numerator * pow(v.denominator, P - 2, P) % P for v in SMALL]

#: The widest search the checker makes, in variables.
MAX_SEARCH_VARS = 3


def occurrences(formula):
    """(numerator or None, guarded term, bound variables) per division or
    inverse, in the textual order of their `/` and `^-1` symbols."""
    out = []

    def term(t, bound):
        if isinstance(t, Div):
            term(t.left, bound)
            out.append((t.left, t.right, bound))
            term(t.right, bound)
        elif isinstance(t, Inv):
            term(t.arg, bound)
            out.append((None, t.arg, bound))
        elif isinstance(t, (Add, Mul)):
            term(t.left, bound)
            term(t.right, bound)
        elif isinstance(t, Neg):
            term(t.arg, bound)

    def formula_(f, bound):
        if isinstance(f, (Forall, Exists)):
            formula_(f.body, bound | {f.var})
        elif isinstance(f, Not):
            formula_(f.arg, bound)
        elif isinstance(f, (And, Or, Implies)):
            formula_(f.left, bound)
            formula_(f.right, bound)
        else:
            term(f.left, bound)
            term(f.right, bound)

    formula_(formula, frozenset())
    return out


def facts_of(formula):
    """The nonzero facts a hypothesis records: `t/q = c` and `t*q^-1 = c`
    with c a nonzero constant give `q != 0`."""
    if not isinstance(formula, Eq) or free_names(formula.right):
        return []
    if compile_term(formula.right)({}) == 0:
        return []
    lhs = formula.left
    if isinstance(lhs, Div):
        return [lhs.right]
    if isinstance(lhs, Mul) and isinstance(lhs.right, Inv):
        return [lhs.right.arg]
    return []


class _Scope:
    """Facts that hold at an occurrence: those of earlier hypotheses whose
    variables the occurrence does not rebind with a quantifier."""

    def __init__(self, facts, bound):
        self.facts = [(compile_term(f), free_names(f)) for f in facts if not (free_names(f) & bound)]

    def satisfiable(self, env) -> bool:
        """Some small-rational values for the variables `env` leaves open
        make every fact that mentions a variable of `env` nonzero.  More
        open variables than the search budget count as satisfiable."""
        facts = [(f, names) for f, names in self.facts if names & env.keys()]
        open_vars = sorted(set().union(*(names for _, names in facts)) - env.keys())
        if len(open_vars) > MAX_SEARCH_VARS:
            return True
        for combo in itertools.product(SMALL, repeat=len(open_vars)):
            full = {**env, **dict(zip(open_vars, combo))}
            if all(f(full) != 0 for f, _ in facts):
                return True
        return False


def _parse_witness(detail):
    if detail == "{}":
        return {}
    env = {}
    for pair in detail.split(","):
        name, value = pair.split("=", 1)
        env[name] = Fraction(value)
    return env


def _verdict_ok(verdict, numerator, guarded, bound, facts, liberal) -> bool:
    kind = verdict.get("verdict")
    if kind == "UNKNOWN":
        return True  # the linter is allowed to be incomplete
    scope = _Scope(facts, bound)
    g = compile_term(guarded)
    num = compile_term(numerator) if liberal and numerator is not None else None
    if kind == "VIOLATION":
        try:
            env = _parse_witness(verdict["detail"])
            if g(env) != 0 or (num is not None and num(env) == 0):
                return False
        except (KeyError, ValueError, ZeroDivisionError):
            return False  # unparsable, or leaves a guard variable unbound
        return scope.satisfiable(env)
    if kind != "COMPLIANT":
        return False
    names = sorted(free_names(guarded) | (free_names(numerator) if num is not None else set()))
    if len(names) > MAX_SEARCH_VARS:
        return True
    g_mod = compile_mod(guarded)
    for combo in itertools.product(range(len(SMALL)), repeat=len(names)):
        if g_mod({n: SMALL_MOD[i] for n, i in zip(names, combo)}):
            continue
        env = {n: SMALL[i] for n, i in zip(names, combo)}
        if g(env) == 0 and (num is None or num(env) != 0) and scope.satisfiable(env):
            return False
    return True


def _check_lint(expect, rc, out):
    liberal = expect["convention"] == "liberal-division"
    expected = []
    facts = []
    for index, (kind, formula) in enumerate(expect["statements"]):
        for pos, (numerator, guarded, bound) in enumerate(occurrences(formula)):
            expected.append((index, pos, numerator, guarded, bound, list(facts)))
        if kind == "hyp":
            facts += facts_of(formula)
    try:
        verdicts = json.loads(out)["verdicts"]
    except (ValueError, KeyError):
        return max(1, len(expected)), max(1, len(expected))
    wrong = abs(len(verdicts) - len(expected))
    for v, (index, pos, numerator, guarded, bound, scope) in zip(verdicts, expected):
        if (v.get("statement"), v.get("pos")) != (index, pos):
            wrong += 1
        elif not _verdict_ok(v, numerator, guarded, bound, scope, liberal):
            wrong += 1
    kinds = {v.get("verdict") for v in verdicts}
    want_rc = EXIT_FAIL if "VIOLATION" in kinds else EXIT_THIRD if "UNKNOWN" in kinds else EXIT_OK
    outputs = max(len(verdicts), len(expected), 1)
    return outputs, min(outputs, wrong + (rc != want_rc))


_CHECKS = {
    "axioms": _check_axioms,
    "logic": _check_logic,
    "eval": _check_eval,
    "tables": _check_tables,
    "lint": _check_lint,
}
