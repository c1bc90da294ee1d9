import importlib
import itertools
import random
from fractions import Fraction

import pytest

from generators import random_rational, random_term
from meadowkit.carriers import RATIONALS
from meadowkit.lint import (
    _P,
    _RESIDUES,
    _WITNESS_VALUES,
    Certificate,
    CertificateKind,
    Convention,
    Fact,
    StatementKind,
    VerdictKind,
    _extract_facts,
    _search_inputs,
    canonical_key,
    collect_occurrences,
    find_zero_witness,
    lint,
    nonzero_certificate,
    parse_corpus,
)
from meadowkit.parser import parse_formula, parse_term
from meadowkit.printer import print_term
from meadowkit.semantics import StructureSpec, compile_term, eval_total
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

    def test_powers(self):
        # a power of a certified base is a product of certified factors,
        # and an even power is a square
        cert = nonzero_certificate(parse_term("(1 + y^2)^2"))
        assert cert == Certificate(CertificateKind.PRODUCT_OF_CERTIFIED)
        cert = nonzero_certificate(parse_term("x^4 + 1"))
        assert cert == Certificate(CertificateKind.ONE_PLUS_SUM_OF_SQUARES)
        assert nonzero_certificate(parse_term("x^3 + 1")) is None
        assert nonzero_certificate(parse_term("x^2")) is None
        # x^0 is 1, as the parser's old expansion of it was
        assert nonzero_certificate(parse_term("x^0")) == Certificate(CertificateKind.NONZERO_CONSTANT)

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
            parse_term("(1 + y^2)^2"),
            parse_term("x^4 + (x*y)^2 + 1"),
            parse_term("(x - x)^0"),
        ]
        for t in certified:
            assert nonzero_certificate(t) is not None
            for _ in range(200):
                env = {n: random_rational(rng) for n in free_vars(t)}
                assert eval_total(t, env, TOTAL_Q) != 0


class TestCertificateCost:
    """Judging a guard walks it once: free names and canonical keys are
    not recomputed per level of a deep product."""

    @staticmethod
    def calls(monkeypatch, factors, hyp):
        module = importlib.import_module("meadowkit.lint")
        counts = {"canonical_key": 0, "free_vars": 0}
        claim = "claim: 1/(" + "*".join(["x"] * factors) + ") = 1"
        with monkeypatch.context() as patch:
            for name in counts:
                def counted(*args, _name=name, _original=getattr(module, name)):
                    counts[_name] += 1
                    return _original(*args)
                patch.setattr(module, name, counted)
            (*_, v) = lint(corpus(hyp, claim), Convention.DIVISION)
        assert v.kind is VerdictKind.VIOLATION and v.witness == {"x": 0}
        return counts

    @pytest.mark.parametrize("hyp", ["hyp: 1/q = 2", "# no fact"])
    def test_calls_do_not_grow_with_the_factor_count(self, monkeypatch, hyp):
        assert self.calls(monkeypatch, 10, hyp) == self.calls(monkeypatch, 400, hyp)

    def test_a_fact_over_the_guards_names_keys_each_level_once(self, monkeypatch):
        # x + 1 has the names of every level of x*x*...*x, so every level
        # is keyed, each from its operands' factor counts
        hyp = "hyp: 1/(x + 1) = 2"
        small, large = (self.calls(monkeypatch, n, hyp)["canonical_key"] for n in (10, 400))
        assert large - small <= 2 * (400 - 10)

    def test_the_verdicts_of_a_deep_product_with_a_fact_over_its_names(self):
        product = "*".join(["x"] * 898)
        verdicts = lint(corpus("hyp: 1/(x + 1) = 2", f"claim: 1/({product}) = 1"), Convention.DIVISION)
        assert [v.format_line() for v in verdicts] == [
            "statement=0 pos=0 guarded=x + 1 verdict=UNKNOWN detail=same-statement hypothesis",
            f"statement=1 pos=0 guarded={product} verdict=VIOLATION detail=x=0",
        ]


class TestFactCompiles:
    def test_a_fact_compiles_once_per_run(self, monkeypatch):
        # each claim's search keeps the fact q nonzero; its two closures,
        # modular and exact, are built at the first search only
        module = importlib.import_module("meadowkit.lint")
        compiled = []

        def counted(t, s):
            compiled.append(print_term(t))
            return real(t, s)

        real = module.compile_term
        monkeypatch.setattr(module, "compile_term", counted)
        guards = ("q - 1", "q + 1", "q - 2", "2*q - 1", "q + 3")
        verdicts = lint(corpus("hyp: 1/q = 2", *(f"claim: 1/({g}) = 1" for g in guards)), Convention.DIVISION)
        assert [v.detail() for v in verdicts] == [
            "same-statement hypothesis", "q=1", "q=-1", "q=2", "q=1/2", "q=-3",
        ]
        assert compiled.count("q") == 2
        assert all(compiled.count(g) == 2 for g in guards)
        # a new run records its facts anew, and compiles them again
        lint(corpus("hyp: 1/q = 2", "claim: 1/(q - 1) = 1"), Convention.DIVISION)
        assert compiled.count("q") == 4


class TestFactDedup:
    def test_one_fact_per_canonical_key(self, monkeypatch):
        # q*r and r*q, q^2 and q*q state two facts: each is compiled once,
        # and each search block runs one residue test per key, the guard's
        # own besides; a certificate names the earliest statement
        module = importlib.import_module("meadowkit.lint")
        compiled, residues = [], []

        def counted_compile(t, s):
            compiled.append(print_term(t))
            return real_compile(t, s)

        def counted_test(t):
            residue, exact = real_test(t)

            def counted_residue(frame, rows):
                residues.append(print_term(t))
                return residue(frame, rows)

            return counted_residue, exact

        real_compile, real_test = module.compile_term, module._zero_test
        monkeypatch.setattr(module, "compile_term", counted_compile)
        monkeypatch.setattr(module, "_zero_test", counted_test)
        verdicts = lint(corpus(
            "hyp: 1/(q*r) = 2", "hyp: 1/(r*q) = 3", "hyp: 1/q^2 = 2", "hyp: 1/(q*q) = 5",
            "claim: 1/(q*r + 7) = 1", "claim: 1/(r*q) = 1", "claim: 1/(q*q) = 1",
        ), Convention.DIVISION)
        assert [v.detail() for v in verdicts] == [
            "same-statement hypothesis", "HypothesisDerived(0)", "same-statement hypothesis",
            "HypothesisDerived(2)", "no zero among 23^2 environments and no certificate rule applies",
            "HypothesisDerived(0)", "HypothesisDerived(2)",
        ]
        assert sorted(compiled) == ["q*r", "q*r", "q*r + 7", "q*r + 7", "q^2", "q^2"]
        blocks = residues.count("q*r + 7")
        assert blocks > 1 and sorted(residues) == ["q*r"] * blocks + ["q*r + 7"] * blocks + ["q^2"] * blocks


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

    def test_a_product_is_not_a_square(self):
        # 1 + x*y has the shape of 1 + x^2 only to a node equality that
        # ignores the fields
        (v,) = lint(corpus("claim: 1/(1 + x*y) = 1"), Convention.DIVISION)
        assert v.format_line() == "statement=0 pos=0 guarded=1 + x*y verdict=VIOLATION detail=x=-1/4,y=4"

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

    def test_text_and_json_lines_share_their_fields(self):
        verdicts = lint(
            corpus("hyp: 1/q = 2", "claim: 1/x + 1/(x*x + 1) + 1/q + 1/(x + 2*y) = 1"),
            Convention.DIVISION,
        )
        assert {v.kind for v in verdicts} == set(VerdictKind)
        for v in verdicts:
            fields = v.to_dict()
            assert list(fields) == ["statement", "pos", "guarded", "verdict", "detail"]
            assert v.format_line() == " ".join(f"{k}={value}" for k, value in fields.items())

    def test_canonical_key_flattens(self):
        assert canonical_key(parse_term("x + (y + z)")) == canonical_key(
            parse_term("(z + x) + y")
        )
        assert canonical_key(parse_term("x*y")) == canonical_key(parse_term("y*x"))
        assert canonical_key(parse_term("x/y")) != canonical_key(parse_term("y/x"))

    def test_canonical_key_counts_exponents(self):
        key = canonical_key
        assert key(parse_term("q^2")) == key(parse_term("q*q"))
        assert key(parse_term("(x*y)^2*x")) == key(parse_term("y*x^3*y"))
        assert key(parse_term("q^2")) != key(parse_term("q^3"))
        assert key(parse_term("q^2")) != key(parse_term("q"))

    @pytest.mark.parametrize("hyp, claim", [("1/q^2 = 2", "1/(q*q) = 1"), ("1/(q*q) = 2", "1/q^2 = 1")])
    def test_power_and_product_facts_match(self, hyp, claim):
        _, v = lint(corpus(f"hyp: {hyp}", f"claim: {claim}"), Convention.DIVISION)
        assert v.kind is VerdictKind.COMPLIANT
        assert v.certificate == Certificate(CertificateKind.HYPOTHESIS_DERIVED, 0)

    def test_huge_power_guard(self):
        # x = 0 is the first value searched, and 0^n needs no size bound
        (v,) = lint(corpus("claim: 1/x^10000000000 = 1"), Convention.DIVISION)
        assert v.kind is VerdictKind.VIOLATION and v.witness == {"x": 0}
        assert v.format_line().startswith("statement=0 pos=0 guarded=x^10000000000 ")

    def test_division_under_a_zeroth_power_is_seen(self):
        (v,) = lint(corpus("claim: (1/0)^0 = 1"), Convention.DIVISION)
        assert v.guarded == parse_term("0")
        assert v.kind is VerdictKind.VIOLATION and v.witness == {}


class TestUnknownReasons:
    def test_numerator_names_count_under_liberal_division(self):
        # x*x*y*y = 2 has no rational root; the numerator adds u and v
        stmts = corpus("claim: (u + v)/(x*x*y*y - 2) = 1")
        (strict,) = lint(stmts, Convention.DIVISION)
        assert strict.kind is VerdictKind.UNKNOWN
        assert strict.reason == "no zero among 23^2 environments and no certificate rule applies"
        (liberal,) = lint(stmts, Convention.LIBERAL_DIVISION)
        assert liberal.kind is VerdictKind.UNKNOWN
        assert liberal.reason == "search skipped: 4 variables, over the budget of 3"


# Shapes for the certificates-first invariant below, over the names p, q, r.
_HYP_DENOMS = ("p", "q", "p*q", "q + r", "p*p + 1", "r - 1")
_CLAIM_GUARDS = (
    "p", "q", "q*p", "r + q", "p*p + q*q + 2", "(p*p + 1)*(q*q + 3)", "2/3", "1 - 1",
    "p*(q*q + 1)", "(q + r)*(p*p + 1)", "p*q*r - 1", "p - q", "r*r + 1",
)
_NUMERATORS = ("1", "0", "p", "q + 1", "0*r", "r")


def _random_corpus(rng):
    lines = []
    for _ in range(rng.randint(2, 6)):
        numerator = rng.choice(_NUMERATORS)
        if rng.random() < 0.4:
            denom = rng.choice(_HYP_DENOMS)
            lhs = f"({numerator})*({denom})^-1" if rng.random() < 0.3 else f"({numerator})/({denom})"
            lines.append(f"hyp: {lhs} = {rng.randint(1, 4)}")
            continue
        guard = rng.choice(_CLAIM_GUARDS)
        body = f"({numerator})/({guard}) = 1"
        if rng.random() < 0.2:
            body = f"({guard})^-1 > 0"
        if rng.random() < 0.25:
            body = f"{rng.choice(('forall', 'exists'))} {rng.choice('pqr')}. {body}"
        lines.append(f"claim: {body}")
    return corpus(*lines)


class TestCertificatesFirst:
    def test_certified_occurrences_have_no_witness(self):
        # Every certificate must prove that the witness search, run on the
        # inputs `_judge` gives it, comes back empty; that is what lets
        # `_judge` skip the search once a certificate is found.
        rng = random.Random(15)
        kinds = set()
        for _ in range(60):
            stmts = _random_corpus(rng)
            for convention in Convention:
                verdicts = iter(lint(stmts, convention))
                facts = []
                for stmt in stmts:
                    facts.extend(_extract_facts(stmt))
                    for occ in collect_occurrences(stmt.formula):
                        v = next(verdicts)
                        if v.certificate is None:
                            continue
                        kinds.add(v.certificate.kind)
                        _, extra, nonzero = _search_inputs(occ, convention, facts)
                        assert find_zero_witness(
                            occ.guarded, nonzero=nonzero, extra_vars=extra
                        ) is None, (stmt, occ, v)
        assert kinds == set(CertificateKind)

    def test_certificate_needs_no_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("witness search run for a certified guard")

        # the package exports the function `lint` under the module's name
        monkeypatch.setattr(
            importlib.import_module("meadowkit.lint"), "find_zero_witness", no_search
        )
        (v,) = lint(corpus("claim: 1/(x*x + y*y + z*z + 1) = 1"), Convention.DIVISION)
        assert v.kind is VerdictKind.COMPLIANT
        assert v.certificate == Certificate(CertificateKind.ONE_PLUS_SUM_OF_SQUARES)


def _exact_sweep(t, nonzero, names):
    """find_zero_witness without the modular prefilter: every term computed
    exactly at every environment."""
    target = compile_term(t, TOTAL_Q)
    guards = [compile_term(u, TOTAL_Q) for u in nonzero]
    for env in itertools.product(_WITNESS_VALUES, repeat=len(names)):
        frame = {name: [v] for name, v in zip(names, env)}  # a block of one row
        if all(g(frame, 1, {}) != [0] for g in guards) and target(frame, 1, {}) == [0]:
            return dict(zip(names, env))
    return None


#: The prefilter's modulus: its residue is 0 while its exact value is not.
P = _P


def _prime_factors(n):
    factors, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    return factors | {n} - {1}


class TestModularPrefilter:
    def test_the_prime(self):
        # a residue is an int of one 30-bit digit, and no power of a witness
        # value cycles early: 2 and 3 are primitive roots (mod 2^61 - 1, 2 has order 61)
        assert P < 2**30
        assert _prime_factors(P) == {P}
        for g in (2, 3):
            for q in _prime_factors(P - 1):
                assert pow(g, (P - 1) // q, P) != 1, (g, q)
        assert len(set(_RESIDUES)) == len(_WITNESS_VALUES) == 23

    def test_agrees_with_the_exact_sweep(self):
        rng = random.Random(16)
        found = 0
        for _ in range(240):
            names = ("x", "y", "z")[: rng.choice((1, 2, 2, 2, 3))]
            t = random_term(rng, 4, names)
            nonzero = [random_term(rng, 3, names) for _ in range(rng.randint(0, 3))]
            extra = set().union(*map(free_vars, nonzero))
            expected = _exact_sweep(t, nonzero, sorted(free_vars(t) | extra))
            assert find_zero_witness(t, nonzero=nonzero, extra_vars=extra) == expected, (t, nonzero)
            found += expected is not None
        assert 60 < found < 200

    def test_zero_residue_of_a_nonzero_value(self):
        # P and P^-1 * P are nonzero over Q, but P's residue is zero and
        # P^-1 is the inverse of a zero residue
        t = parse_term(f"x + {P}^-1*{P} - 1")
        assert find_zero_witness(parse_term(f"x + {P}")) is None
        assert find_zero_witness(parse_term("x"), nonzero=[parse_term(f"{P}")]) == {"x": 0}
        assert find_zero_witness(t) == {"x": 0}
        v = lint(corpus(f"claim: 1/(x + {P}^-1*{P} - 1) = 1"), Convention.DIVISION)[0]
        assert v.kind is VerdictKind.VIOLATION and v.witness == {"x": 0}

    def test_fact_with_a_zero_residue_still_skips(self):
        fact = parse_term(f"q + {P}^-1*{P} - 1")
        assert find_zero_witness(parse_term("q"), nonzero=[fact]) is None
        verdicts = lint(
            corpus(f"hyp: 1/(q + {P}^-1*{P} - 1) = 2", "claim: 1/q = 1"), Convention.DIVISION
        )
        assert verdicts[-1].kind is VerdictKind.UNKNOWN
        assert verdicts[-1].reason.startswith("no zero among 23^1 environments")


class TestPowerBound:
    # a power over carriers.MAX_POWER_BITS makes its own occurrence UNKNOWN
    def test_closed_power_in_a_guard(self):
        first, second = lint(corpus("claim: 1/2^10000000000 = 1", "claim: 1/x = 1"), Convention.DIVISION)
        assert first.kind is VerdictKind.UNKNOWN
        assert first.reason == (
            "2 to the power 10000000000 would take about 30000000000 bits, over the bound of 4194304"
        )
        assert second.kind is VerdictKind.VIOLATION and second.witness == {"x": 0}

    def test_closed_power_in_a_liberal_numerator(self):
        (v,) = lint(corpus("claim: 3^10000000000/(x - 1) = 1"), Convention.LIBERAL_DIVISION)
        assert v.kind is VerdictKind.UNKNOWN and v.reason.startswith("3 to the power 10000000000")

    def test_power_in_an_exact_confirmation(self):
        # x = -1/4 gives a zero residue; its exact check needs (-1/4)^10000000001
        verdicts = lint(corpus("claim: 1/(x^10000000001 - (-1/4)^10000000001) = 1"), Convention.DIVISION)
        (v,) = [v for v in verdicts if v.kind is not VerdictKind.COMPLIANT]
        assert v.kind is VerdictKind.UNKNOWN
        assert v.reason.startswith("-1/4 to the power 10000000001 would take about")

    @pytest.mark.parametrize("claim, line", [
        # x = -1, y = 1 is a true zero, found before any power over the bound
        ("claim: 1/(x^737550206*y - 1) = 1",
         "statement=0 pos=0 guarded=x^737550206*y - 1 verdict=VIOLATION detail=x=-1,y=1"),
        # no witness value has a zero residue, so no power is computed exactly
        ("claim: 1/(x*y^400210079 + x - 9) = 1",
         "statement=0 pos=0 guarded=x*y^400210079 + x - 9 verdict=UNKNOWN "
         "detail=no zero among 23^2 environments and no certificate rule applies"),
    ], ids=["violation", "no-zero"])
    def test_power_over_the_bound_decided_by_the_residues(self, claim, line):
        (v,) = lint(corpus(claim), Convention.DIVISION)
        assert v.format_line() == line

    def test_fact_over_the_bound_is_dropped(self):
        stmts = corpus("hyp: 1/q = 2^10000000000", "claim: 1/q = 1")
        assert _extract_facts(stmts[0]) == []
        assert lint(stmts, Convention.DIVISION)[-1].witness == {"q": 0}


def _as_claim(t):
    from meadowkit.printer import print_term

    return f"{print_term(t)} = 0"
