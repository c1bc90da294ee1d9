import itertools
import json
from pathlib import Path

import pytest

from meadowkit.cli import main
from meadowkit.parser import parse_formula
from meadowkit.terms import free_vars
from oracle import oracle_formula

CORPORA = Path(__file__).resolve().parent.parent / "corpora"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_total_division_by_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "1/0")
        assert (code, out.strip()) == (0, "0")

    def test_punched_division_by_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--mode", "punch-div-all", "1/0")
        assert (code, out.strip()) == (3, "UNDEFINED")

    def test_bindings(self, capsys):
        code, out, _ = run(capsys, "eval", "-b", "x=1/2", "x + x")
        assert (code, out.strip()) == (0, "1")

    def test_prime_field_carrier(self, capsys):
        code, out, _ = run(capsys, "eval", "--carrier", "gf7", "4 + 4")
        assert (code, out.strip()) == (0, "1")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "1 +")
        assert code == 1 and "parse error" in err

    def test_unbound_variable_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "x + 1")
        assert code == 2

    def test_unbound_variable_next_to_punched_application(self, capsys):
        code, out, err = run(capsys, "eval", "--mode", "punch-div-all", "1/0 + y")
        assert (code, out) == (2, "")
        assert err == "error: unbound variable 'y'\n"

    def test_huge_prime_modulus(self, capsys):
        # 2^61 - 1 is prime; 1/2 is (p + 1)/2 = 2^60
        code, out, _ = run(capsys, "eval", "--carrier", "gf2305843009213693951", "1/2")
        assert (code, out.strip()) == (0, "1152921504606846976")

    @pytest.mark.parametrize("modulus", [
        "2305843009213693953",  # 2^61 + 1 = 3 * 768614336404564651
        "561",  # a Carmichael number
        "4",
        "318665857834031151167461",  # a strong pseudoprime to every base up to 37
        "3317044064679887385961981",  # the first modulus past the exact primality test
        "x",
    ])
    def test_rejected_modulus_ends_in_one_line(self, capsys, modulus):
        code, out, err = run(capsys, "eval", "--carrier", "gf" + modulus, "1")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_zero_denominator_binding_rejected(self, capsys):
        code, out, err = run(capsys, "eval", "-b", "x=1/0", "x")
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--format", "json", "--mode", "punch-div-all", "1/0")
        assert code == 3
        doc = json.loads(out)
        assert doc == {"term": "1/0", "defined": False, "value": None}


class TestLogic:
    def test_lpmd_true(self, capsys):
        code, out, _ = run(capsys, "logic", "--mode", "punch-div-all", "0 != 0 => 0/0 = 1")
        assert (code, out.strip()) == (0, "T")

    def test_lpmd_undef(self, capsys):
        code, out, _ = run(capsys, "logic", "--mode", "punch-div-all", "0/0 = 1 | 0 = 0")
        assert (code, out.strip()) == (3, "U")

    def test_kleene_existential_over_gf7(self, capsys):
        code, out, _ = run(
            capsys, "logic", "--mode", "punch-div-all", "--carrier", "gf7",
            "--logic", "weak,kleene,kleene", "exists x. x/x = 1",
        )
        assert (code, out.strip()) == (0, "T")

    def test_classify(self, capsys):
        code, out, _ = run(
            capsys, "logic", "--classify", "--mode", "punch-div-all", "0 = 0 | 0/0 = 1"
        )
        assert (code, out.strip()) == (0, "USABLE(T)")
        code, out, _ = run(
            capsys, "logic", "--classify", "--mode", "punch-div-all", "0/0 = 1 | 0 = 0"
        )
        assert (code, out.strip()) == (3, "UNUSABLE")

    def test_quantifier_over_rationals_exit_code(self, capsys):
        code, _, err = run(capsys, "logic", "forall x. x = x")
        assert code == 2

    def test_unbound_variable_on_the_side_mccarthy_skips(self, capsys):
        code, out, err = run(capsys, "logic", "0 = 1 & y = 1")
        assert (code, out) == (2, "")
        assert err == "error: unbound variable 'y'\n"

    def test_classify_with_bindings(self, capsys):
        code, out, _ = run(capsys, "logic", "--classify", "-b", "x=1", "x = 1")
        assert (code, out.strip()) == (0, "USABLE(T)")
        code, out, err = run(capsys, "logic", "--classify", "-b", "x=1", "x = y")
        assert (code, out, err) == (1, "", "error: classify_sentence needs a closed formula\n")

    def test_quantifier_enumeration_over_budget(self, capsys):
        code, out, err = run(
            capsys, "logic", "--carrier", "gf1000003", "forall x. forall y. forall z. x = x"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: enumeration of 1000003^3 environments")
        assert len(err.strip().splitlines()) == 1

    def test_quantifier_over_field_past_word_size(self, capsys):
        # 2^64 - 59 is prime; its element range has no len()
        code, out, err = run(
            capsys, "logic", "--carrier", "gf18446744073709551557", "exists x. x = 0"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: enumeration of 18446744073709551557^1 environments")
        assert len(err.strip().splitlines()) == 1

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "logic", "--format", "json", "1 = 1")
        assert code == 0
        assert json.loads(out)["truth_value"] == "T"


class TestAxioms:
    def test_gf5_all_pass(self, capsys):
        code, out, _ = run(capsys, "axioms", "--carrier", "gf5")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 15
        assert all(line.startswith("PASS") for line in lines)

    def test_sampled_rationals(self, capsys):
        code, out, _ = run(
            capsys, "axioms", "--carrier", "rationals", "--samples", "1000", "--seed", "7"
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 15
        assert all(line.startswith("PASS") for line in lines)
        # a closed law has one environment and is checked once
        assert "PASS axiom=0 != 1 samples=1" in lines

    def test_extra_equation_failure(self, capsys):
        code, out, _ = run(capsys, "axioms", "--carrier", "gf5", "--extra", "x/x = 1")
        assert code == 4
        fails = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert len(fails) == 1
        assert "witness=x=0" in fails[0]

    @pytest.mark.parametrize("carrier, law, line", [
        ("rationals", "x^2 + 1 > 0", "PASS axiom=x*x + 1 > 0 samples=1000"),
        ("gf5", "x = 0 | x != 0", "PASS axiom=x = 0 | x != 0 samples=5"),
        ("gf5", "x != 0 => x*(y/x) = y", "PASS axiom=x != 0 => x*(y/x) = y samples=25"),
    ])
    def test_extra_law_is_any_quantifier_free_formula(self, capsys, carrier, law, line):
        code, out, _ = run(capsys, "axioms", "--carrier", carrier, "--extra", law)
        assert code == 0
        assert out.strip().splitlines()[-1] == line

    @pytest.mark.parametrize("argv", [
        ("--samples", "0"),
        ("--samples", "-5", "--extra", "x/x = 1"),
        ("--carrier", "gf5", "--samples", "0"),
    ])
    def test_samples_below_one_rejected(self, capsys, argv):
        code, out, err = run(capsys, "axioms", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_quantified_extra_law_rejected(self, capsys):
        code, out, err = run(capsys, "axioms", "--extra", "forall x. x = x")
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "axioms", "--carrier", "gf3", "--format", "json")
        doc = json.loads(out)
        assert len(doc["reports"]) == 15
        assert all(r["passed"] for r in doc["reports"])

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("law", [
        "x/x = 1",
        "x*y = x + y",
        "y - x = x/y",
        "z*x = y + 1",
        "x != y => x^-1 != z",
        "y*y > x",
    ])
    def test_witness_is_the_first_failing_environment(self, capsys, p, law):
        names = sorted(free_vars(parse_formula(law)))
        failing = [
            env for env in (dict(zip(names, values))
                            for values in itertools.product(range(p), repeat=len(names)))
            if oracle_formula(parse_formula(law), env, p, "total", "weak", "bochvar", "bochvar") == "F"
        ]
        assert failing, law
        code, out, _ = run(capsys, "axioms", "--carrier", f"gf{p}", "--format", "json", "--extra", law)
        report = json.loads(out)["reports"][-1]
        assert code == 4 and not report["passed"]
        assert report["witness"] == {k: str(v) for k, v in failing[0].items()}
        assert report["samples"] == 1 + next(
            i for i, values in enumerate(itertools.product(range(p), repeat=len(names)))
            if dict(zip(names, values)) == failing[0]
        )

    @pytest.mark.parametrize("p", ["1000003", "18446744073709551557"])
    def test_enumeration_over_budget(self, capsys, p):
        code, out, err = run(capsys, "axioms", "--carrier", "gf" + p)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: enumeration of {p}^3 environments")
        assert len(err.strip().splitlines()) == 1

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, "axioms", "--samples", "50", "--seed", "3")
        _, out2, _ = run(capsys, "axioms", "--samples", "50", "--seed", "3")
        assert out1 == out2


def _sum(summand: str, n: int) -> str:
    return " + ".join([summand] * n)


class TestDeepInput:
    @pytest.mark.parametrize("argv", [
        ["axioms", "--carrier", "gf2", "--extra", _sum("x", 3000) + " = 0"],
        ["eval", "-b", "x=1", _sum("x", 3000)],
        ["eval", "(" * 3000 + "1" + ")" * 3000],
        ["lint", "DEEP_CORPUS"],
    ], ids=["axioms-extra", "eval-sum", "eval-parens", "lint"])
    def test_too_deep_ends_in_one_line(self, capsys, tmp_path, argv):
        corpus = tmp_path / "deep.mcorpus"
        corpus.write_text("claim: " + _sum("1/x", 3000) + " = 0\n")
        argv = [str(corpus) if a == "DEEP_CORPUS" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: input nested too deeply\n")

    def test_900_summand_law_passes(self, capsys):
        code, out, _ = run(capsys, "axioms", "--carrier", "gf2", "--extra", _sum("x", 900) + " = 0")
        assert code == 0
        assert out.splitlines()[-1].startswith("PASS")


class TestTables:
    def test_mccarthy_left_contains_sequential_row(self, capsys):
        code, out, _ = run(capsys, "tables", "mccarthy-left")
        assert code == 0
        assert "U | T -> U" in out

    def test_kleene_disjunction_row(self, capsys):
        _, out, _ = run(capsys, "tables", "kleene")
        assert "U | T -> T" in out

    def test_json_matches_text(self, capsys):
        _, out, _ = run(capsys, "tables", "mccarthy-left", "--format", "json")
        doc = json.loads(out)
        assert doc["or"]["U,T"] == "U"
        assert doc["not"]["U"] == "U"

    def test_unknown_family_rejected(self, capsys):
        code, _, _ = run(capsys, "tables", "lukasiewicz")
        assert code == 1


class TestLint:
    def test_one_over_zero(self, capsys):
        code, out, _ = run(
            capsys, "lint", "--convention", "division", str(CORPORA / "one_over_zero.mcorpus")
        )
        assert code == 4
        assert "verdict=VIOLATION" in out

    def test_sum_of_squares(self, capsys):
        code, out, _ = run(
            capsys, "lint", "--convention", "division", str(CORPORA / "sum_of_squares.mcorpus")
        )
        assert code == 0
        assert "detail=OnePlusSumOfSquares" in out

    def test_theorem_corpus(self, capsys):
        code, out, _ = run(
            capsys, "lint", "--convention", "division", str(CORPORA / "theorem_s5.mcorpus")
        )
        assert code == 3
        lines = out.strip().splitlines()
        assert "verdict=UNKNOWN detail=same-statement hypothesis" in lines[0]
        assert "verdict=COMPLIANT detail=HypothesisDerived(0)" in lines[1]

    def test_zero_numerator_conventions(self, capsys):
        code, out, _ = run(
            capsys, "lint", "--convention", "liberal-division",
            str(CORPORA / "zero_numerator.mcorpus"),
        )
        assert code == 0 and "detail=ZeroNumerator" in out
        code, out, _ = run(
            capsys, "lint", "--convention", "division", str(CORPORA / "zero_numerator.mcorpus")
        )
        assert code == 4

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "lint", "no-such-file.mcorpus")
        assert code == 1 and err

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "lint", "--format", "json", str(CORPORA / "theorem_s5.mcorpus")
        )
        doc = json.loads(out)
        assert [v["verdict"] for v in doc["verdicts"]] == ["UNKNOWN", "COMPLIANT"]
