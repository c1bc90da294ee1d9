import random
from fractions import Fraction

import pytest

from generators import random_rational, random_term
from meadowkit.carriers import RATIONALS
from meadowkit.lint import (
    Certificate,
    CertificateKind,
    Convention,
    Fact,
    StatementKind,
    VerdictKind,
    canonical_key,
    collect_occurrences,
    find_zero_witness,
    lint,
    nonzero_certificate,
    parse_corpus,
)
from meadowkit.parser import parse_formula, parse_term
from meadowkit.semantics import StructureSpec, eval_total
from meadowkit.terms import free_vars

TOTAL_Q = StructureSpec(RATIONALS)


def corpus(*lines):
    return parse_corpus("\n".join(lines))


class TestOccurrences:
    def test_single_division(self):
        occs = collect_occurrences(parse_term("1/0"))
        assert len(occs) == 1
        assert occs[0].guarded == parse_term("0")
        assert occs[0].numerator == parse_term("1")

    def test_sum_of_squares_denominator(self):
        occs = collect_occurrences(parse_term("(x^2 + 1)/(x^2 + 1)"))
        assert len(occs) == 1
        assert occs[0].guarded == parse_term("x^2 + 1")

    def test_document_order(self):
        occs = collect_occurrences(parse_term("x^-1 + 1/y"))
        assert [o.guarded for o in occs] == [parse_term("x"), parse_term("y")]
        assert occs[0].numerator is None
        assert occs[1].numerator == parse_term("1")

    def test_traverses_under_binders(self):
        occs = collect_occurrences(parse_formula("forall x. x/x = 1"))
        assert len(occs) == 1

    def test_positions_are_contiguous(self):
        occs = collect_occurrences(parse_term("1/x + 1/y + 1/z"))
        assert [o.position for o in occs] == [0, 1, 2]


class TestCertificates:
    def test_one_plus_square(self):
        cert = nonzero_certificate(parse_term("x^2 + 1"))
        assert cert == Certificate(CertificateKind.ONE_PLUS_SUM_OF_SQUARES)

    def test_defining_equation_denominator(self):
        cert = nonzero_certificate(parse_term("1 + x^2 + y^2"))
        assert cert == Certificate(CertificateKind.ONE_PLUS_SUM_OF_SQUARES)

    def test_nonzero_constant(self):
        assert nonzero_certificate(parse_term("2/3")) == Certificate(
            CertificateKind.NONZERO_CONSTANT
        )

    def test_no_certificate_for_possibly_zero(self):
        assert nonzero_certificate(parse_term("x + 1")) is None

    def test_zero_constant_is_not_certified(self):
        assert nonzero_certificate(parse_term("0")) is None
        assert nonzero_certificate(parse_term("1 - 1")) is None

    def test_product_of_certified(self):
        cert = nonzero_certificate(parse_term("(x^2 + 1)*(y^2 + 2)"))
        assert cert == Certificate(CertificateKind.PRODUCT_OF_CERTIFIED)

    def test_fact_match_modulo_argument_order(self):
        facts = [Fact(parse_term("x + y*z"), 4)]
        cert = nonzero_certificate(parse_term("z*y + x"), facts)
        assert cert == Certificate(CertificateKind.HYPOTHESIS_DERIVED, 4)

    def test_negative_constant_plus_square_not_certified(self):
        assert nonzero_certificate(parse_term("x^2 - 1")) is None

    def test_soundness_on_random_environments(self):
        rng = random.Random(12)
        certified = [
            parse_term("x^2 + 1"),
            parse_term("1 + x^2 + y^2"),
            parse_term("2/3"),
            parse_term("(x^2 + 1)*(y^2 + 2)"),
            parse_term("3 + x^2"),
        ]
        for t in certified:
            assert nonzero_certificate(t) is not None
            for _ in range(200):
                env = {n: random_rational(rng) for n in free_vars(t)}
                assert eval_total(t, env, TOTAL_Q) != 0


class TestZeroWitness:
    def test_plain_variable(self):
        assert find_zero_witness(parse_term("x")) == {"x": Fraction(0)}

    def test_irrational_root_out_of_reach(self):
        assert find_zero_witness(parse_term("x^2 - 2")) is None

    def test_product_witness_is_verified(self):
        w = find_zero_witness(parse_term("(x + 1)*y"))
        assert w is not None
        assert eval_total(parse_term("(x + 1)*y"), w, TOTAL_Q) == 0

    def test_condition_filters_candidates(self):
        w = find_zero_witness(parse_term("x"), nonzero=[parse_term("x")])
        assert w is None
        w = find_zero_witness(parse_term("x*y"), nonzero=[parse_term("x")])
        assert w == {"x": Fraction(-1, 4), "y": Fraction(0)}

    def test_budget_limits_variables(self):
        t = parse_term("x*y*z*w")
        assert find_zero_witness(t) is None


class TestCorpusFormat:
    def test_parses_kinds_and_comments(self):
        stmts = corpus("# a comment", "hyp: p/q = 7", "", "claim: q^2 > 0  # inline")
        assert [s.kind for s in stmts] == [StatementKind.HYPOTHESIS, StatementKind.CLAIM]
        assert [s.index for s in stmts] == [0, 1]

    def test_rejects_unknown_prefix(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_corpus("lemma: x = 1")

    def test_reports_formula_errors_with_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_corpus("hyp: x = 1\nclaim: x +")


class TestLint:
    def test_one_over_zero_is_violation(self):
        verdicts = lint(corpus("claim: 1/0 = 0"), Convention.DIVISION)
        assert [v.kind for v in verdicts] == [VerdictKind.VIOLATION]
        assert verdicts[0].witness == {}

    def test_sum_of_squares_compliant(self):
        verdicts = lint(
            corpus("claim: forall x. (x^2 + 1)/(x^2 + 1) = 1"), Convention.DIVISION
        )
        assert [v.kind for v in verdicts] == [VerdictKind.COMPLIANT]
        assert verdicts[0].certificate.kind is CertificateKind.ONE_PLUS_SUM_OF_SQUARES

    def test_theorem_hypothesis_reuse(self):
        verdicts = lint(
            corpus("hyp: p/q = 7", "claim: q^2 + p/q - 7 > 0"), Convention.DIVISION
        )
        assert verdicts[0].kind is VerdictKind.UNKNOWN
        assert verdicts[0].reason == "same-statement hypothesis"
        assert verdicts[1].kind is VerdictKind.COMPLIANT
        assert verdicts[1].certificate == Certificate(CertificateKind.HYPOTHESIS_DERIVED, 0)

    def test_inverse_form_hypothesis(self):
        verdicts = lint(
            corpus("hyp: p*q^-1 = 7", "claim: 1/q = 1/q"), Convention.DIVISION
        )
        assert verdicts[0].kind is VerdictKind.UNKNOWN
        assert all(v.kind is VerdictKind.COMPLIANT for v in verdicts[1:])

    def test_zero_numerator_liberal_vs_strict(self):
        zero = corpus("claim: 0/0 = 0")
        liberal = lint(zero, Convention.LIBERAL_DIVISION)
        assert liberal[0].kind is VerdictKind.COMPLIANT
        assert liberal[0].certificate.kind is CertificateKind.ZERO_NUMERATOR
        strict = lint(zero, Convention.DIVISION)
        assert strict[0].kind is VerdictKind.VIOLATION

    def test_liberal_violation_needs_nonzero_numerator(self):
        verdicts = lint(corpus("claim: 1/0 = 0"), Convention.LIBERAL_DIVISION)
        assert verdicts[0].kind is VerdictKind.VIOLATION

    def test_inversive_convention_guards_inverse_argument(self):
        verdicts = lint(corpus("claim: 0^-1 = 0"), Convention.INVERSIVE)
        assert verdicts[0].kind is VerdictKind.VIOLATION
        verdicts = lint(corpus("claim: (x^2 + 1)^-1 > 0"), Convention.INVERSIVE)
        assert verdicts[0].kind is VerdictKind.COMPLIANT

    def test_facts_only_from_hypotheses(self):
        verdicts = lint(
            corpus("claim: p/q = 7", "claim: q^2 + p/q - 7 > 0"), Convention.DIVISION
        )
        assert all(v.kind is VerdictKind.VIOLATION for v in verdicts)

    def test_trichotomy_and_violation_soundness(self):
        rng = random.Random(13)
        for _ in range(200):
            t = random_term(rng, depth=4)
            verdicts = lint(
                [s for s in corpus(f"claim: {_as_claim(t)}")], Convention.DIVISION
            )
            occs = collect_occurrences(parse_term(_as_claim(t).split(" = ")[0]))
            assert len(verdicts) == len(occs)
            for v in verdicts:
                assert v.kind in (
                    VerdictKind.COMPLIANT,
                    VerdictKind.VIOLATION,
                    VerdictKind.UNKNOWN,
                )
                if v.kind is VerdictKind.VIOLATION:
                    assert eval_total(v.guarded, v.witness, TOTAL_Q) == 0

    def test_division_compliance_implies_liberal_compliance(self):
        rng = random.Random(14)
        for _ in range(200):
            t = random_term(rng, depth=4)
            stmts = corpus(f"claim: {_as_claim(t)}")
            strict = lint(stmts, Convention.DIVISION)
            liberal = lint(stmts, Convention.LIBERAL_DIVISION)
            for sv, lv in zip(strict, liberal):
                if sv.kind is VerdictKind.COMPLIANT:
                    assert lv.kind is VerdictKind.COMPLIANT

    def test_verdict_line_format(self):
        verdicts = lint(corpus("claim: 1/0 = 0"), Convention.DIVISION)
        assert (
            verdicts[0].format_line()
            == "statement=0 pos=0 guarded=0 verdict=VIOLATION detail={}"
        )

    def test_canonical_key_flattens(self):
        assert canonical_key(parse_term("x + (y + z)")) == canonical_key(
            parse_term("(z + x) + y")
        )
        assert canonical_key(parse_term("x*y")) == canonical_key(parse_term("y*x"))
        assert canonical_key(parse_term("x/y")) != canonical_key(parse_term("y/x"))


def _as_claim(t):
    from meadowkit.printer import print_term

    return f"{print_term(t)} = 0"
