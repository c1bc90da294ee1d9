"""Acceptance suite: one test per criterion, printing a PASS/FAIL line."""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from generators import (
    random_closed_quantified_formula,
    random_rational,
    random_term,
)
from oracle import AND_TABLES, NOT_TABLE, OR_TABLES, oracle_formula
from meadowkit.carriers import RATIONALS, PrimeField
from meadowkit.cli import main
from meadowkit.lint import Convention, VerdictKind, lint, parse_corpus
from meadowkit.logic import (
    LPMD,
    ConnectiveFamily,
    EqualityKind,
    LogicConfig,
    QuantifierFamily,
    TruthValue,
    connective_table,
    eval_formula,
)
from meadowkit.parser import parse_formula, parse_term
from meadowkit.semantics import (
    UNDEFINED,
    AxiomSpec,
    Mode,
    StructureSpec,
    axiom_catalog,
    eval_partial,
    eval_total,
    verify_axiom_spec,
)
from meadowkit.terms import free_vars, to_divisive, to_inversive

T, F, U = TruthValue.T, TruthValue.F, TruthValue.U
TOTAL_Q = StructureSpec(RATIONALS)
PUNCH_ALL = StructureSpec(RATIONALS, Mode.PUNCH_DIV_ALL0)
PUNCH_NONZERO = StructureSpec(RATIONALS, Mode.PUNCH_DIV_NONZERO0)
CORPORA = Path(__file__).resolve().parent.parent / "corpora"


def report(criterion, ok):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


def test_criterion_1_paper_truth_value_suite():
    start = time.perf_counter()
    bochvar = LogicConfig(
        EqualityKind.WEAK, ConnectiveFamily.BOCHVAR, QuantifierFamily.BOCHVAR
    )
    strong = LogicConfig(
        EqualityKind.STRONG, ConnectiveFamily.MCCARTHY_LEFT, QuantifierFamily.BOCHVAR
    )
    existential = LogicConfig(
        EqualityKind.EXISTENTIAL, ConnectiveFamily.MCCARTHY_LEFT, QuantifierFamily.BOCHVAR
    )
    facts = [
        eval_total(parse_term("0^-1"), {}, TOTAL_Q) == 0,
        eval_total(parse_term("1/0"), {}, TOTAL_Q) == 0,
        eval_partial(parse_term("1/0"), {}, PUNCH_ALL) is UNDEFINED,
        eval_partial(parse_term("0/0"), {}, PUNCH_NONZERO) == 0,
        eval_formula(parse_formula("1/0 = 1/0 + 1"), strong, {}, PUNCH_ALL) is T,
        eval_formula(parse_formula("1/0 = 1/0"), existential, {}, PUNCH_ALL) is F,
        eval_formula(parse_formula("1/0 = 1/0"), LPMD, {}, PUNCH_ALL) is U,
        eval_formula(parse_formula("0 != 0 => 0/0 = 1"), LPMD, {}, PUNCH_ALL) is T,
        eval_formula(parse_formula("0 = 0 | 0/0 = 1"), LPMD, {}, PUNCH_ALL) is T,
        eval_formula(parse_formula("0/0 = 1 | 0 = 0"), LPMD, {}, PUNCH_ALL) is U,
        eval_formula(parse_formula("0 != 0 => 0/0 = 1"), bochvar, {}, PUNCH_ALL) is U,
    ]
    elapsed = time.perf_counter() - start
    report(1, len(facts) == 11 and all(facts) and elapsed < 1.0)


def test_criterion_2_quantifier_suite():
    start = time.perf_counter()
    s = StructureSpec(PrimeField(7), Mode.PUNCH_DIV_ALL0)
    kleene = LogicConfig(EqualityKind.WEAK, ConnectiveFamily.KLEENE, QuantifierFamily.KLEENE)
    bochvar_q = LogicConfig(EqualityKind.WEAK, ConnectiveFamily.KLEENE, QuantifierFamily.BOCHVAR)
    forall_div = parse_formula("forall x. x/x = 1")
    exists_div = parse_formula("exists x. x/x = 1")
    guarded = parse_formula("forall x. x != 0 => x/x = 1")
    facts = [
        eval_formula(forall_div, kleene, {}, s) is U,
        eval_formula(exists_div, kleene, {}, s) is T,
        eval_formula(forall_div, bochvar_q, {}, s) is U,
        eval_formula(exists_div, bochvar_q, {}, s) is U,
        eval_formula(guarded, LPMD, {}, s) is T,
    ]
    elapsed = time.perf_counter() - start
    report(2, all(facts) and elapsed < 1.0)


def test_criterion_3_axiom_suite():
    start = time.perf_counter()
    ok = True
    catalog = axiom_catalog()
    ok &= len(catalog) == 15
    for p in (2, 3, 5, 7):
        s = StructureSpec(PrimeField(p))
        ok &= all(verify_axiom_spec(a, s).passed for a in catalog)
    ok &= all(verify_axiom_spec(a, TOTAL_Q, samples=1000, seed=0).passed for a in catalog)
    defining = verify_axiom_spec(
        AxiomSpec("defining", parse_formula("(1 + x^2 + y^2)/(1 + x^2 + y^2) = 1")),
        TOTAL_Q,
        samples=1000,
        seed=1,
    )
    ok &= defining.passed and defining.samples == 1000
    elapsed = time.perf_counter() - start
    report(3, ok and elapsed < 10.0)


def test_criterion_4_oracle_equivalence():
    rng = random.Random(42)
    ok = True
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        mode = rng.choice(
            (Mode.PUNCH_INV0, Mode.PUNCH_DIV_ALL0, Mode.PUNCH_DIV_NONZERO0)
        )
        equality = rng.choice(tuple(EqualityKind))
        connectives = rng.choice(tuple(ConnectiveFamily))
        quantifiers = rng.choice(tuple(QuantifierFamily))
        f = random_closed_quantified_formula(rng, depth=3)
        got = eval_formula(
            f,
            LogicConfig(equality, connectives, quantifiers),
            {},
            StructureSpec(PrimeField(p), mode),
        )
        expected = oracle_formula(
            f, {}, p, mode.value, equality.value, connectives.value, quantifiers.value
        )
        ok &= str(got) == expected
    report(4, ok)


def test_criterion_5_table_properties():
    tv = (T, F, U)
    tables = {family: connective_table(family) for family in ConnectiveFamily}
    ok = True
    # Kleene monotonicity under the information order
    refinements = {T: [T], F: [F], U: [T, F, U]}
    for op in ("and", "or", "implies"):
        table = tables[ConnectiveFamily.KLEENE][op]
        for a, b in itertools.product(tv, repeat=2):
            out = table[a, b]
            if out is U:
                continue
            for a2 in refinements[a]:
                for b2 in refinements[b]:
                    ok &= table[a2, b2] is out
    # Bochvar U-strictness
    for op in ("and", "or", "implies"):
        for a, b in itertools.product(tv, repeat=2):
            if a is U or b is U:
                ok &= tables[ConnectiveFamily.BOCHVAR][op][a, b] is U
    # McCarthyRight is the operand mirror of McCarthyLeft
    left, right = tables[ConnectiveFamily.MCCARTHY_LEFT], tables[ConnectiveFamily.MCCARTHY_RIGHT]
    for a, b in itertools.product(tv, repeat=2):
        ok &= right["and"][a, b] is left["and"][b, a]
        ok &= right["or"][a, b] is left["or"][b, a]
    # classical agreement of all four families on {T, F}
    for family in ConnectiveFamily:
        for a, b in itertools.product((T, F), repeat=2):
            ok &= tables[family]["and"][a, b] is (T if (a is T and b is T) else F)
            ok &= tables[family]["or"][a, b] is (T if (a is T or b is T) else F)
            ok &= tables[family]["implies"][a, b] is (T if (a is F or b is T) else F)
        ok &= tables[family]["not"][T] is F and tables[family]["not"][F] is T
    report(5, ok)


def test_criterion_6_translation_coherence():
    rng = random.Random(21)
    ok = True
    for _ in range(1000):
        t = random_term(rng, depth=4)
        env = {n: random_rational(rng) for n in free_vars(t)}
        v = eval_total(t, env, TOTAL_Q)
        ok &= eval_total(to_inversive(t), env, TOTAL_Q) == v
        ok &= eval_total(to_divisive(t), env, TOTAL_Q) == v
    for mode in (Mode.PUNCH_INV0, Mode.PUNCH_DIV_ALL0, Mode.PUNCH_DIV_NONZERO0):
        s = StructureSpec(RATIONALS, mode)
        for _ in range(1000):
            t = random_term(rng, depth=4)
            env = {n: random_rational(rng) for n in free_vars(t)}
            v = eval_partial(t, env, s)
            if v is not UNDEFINED:
                ok &= v == eval_total(t, env, TOTAL_Q)
    report(6, ok)


def test_criterion_7_lint_golden_corpus(capsys):
    ok = True

    def run_lint(name, convention):
        code = main(["lint", "--convention", convention, str(CORPORA / name)])
        out = capsys.readouterr().out
        return code, out

    code, out = run_lint("one_over_zero.mcorpus", "division")
    ok &= code == 4 and "verdict=VIOLATION" in out

    code, out = run_lint("sum_of_squares.mcorpus", "division")
    ok &= code == 0 and "verdict=COMPLIANT detail=OnePlusSumOfSquares" in out

    code, out = run_lint("theorem_s5.mcorpus", "division")
    lines = out.strip().splitlines()
    ok &= code == 3
    ok &= len(lines) == 2
    ok &= "verdict=UNKNOWN detail=same-statement hypothesis" in lines[0]
    ok &= "verdict=COMPLIANT detail=HypothesisDerived(0)" in lines[1]

    code, out = run_lint("zero_numerator.mcorpus", "liberal-division")
    ok &= code == 0 and "verdict=COMPLIANT detail=ZeroNumerator" in out
    code, out = run_lint("zero_numerator.mcorpus", "division")
    ok &= code == 4 and "verdict=VIOLATION" in out

    with capsys.disabled():
        report(7, ok)


def test_criterion_8_no_empirical_measurements():
    # The source material reports no empirical measurements; acceptance is
    # entirely property- and example-based, as covered by criteria 1-7.
    report(8, True)
