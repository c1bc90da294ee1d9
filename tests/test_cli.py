import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meadowkit import cli, logic
from meadowkit.carriers import PrimeField
from meadowkit.cli import main
from meadowkit.parser import MAX_DEPTH, parse_formula
from meadowkit.printer import print_formula
from meadowkit.semantics import StructureSpec, axiom_catalog
from meadowkit.terms import free_vars
from oracle import oracle_formula

ROOT = Path(__file__).resolve().parent.parent
CORPORA = ROOT / "corpora"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_captured(*argv):
    """`run` for hypothesis tests, which take no function-scoped fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


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

    @pytest.mark.parametrize("argv, shown", [
        (["-1/2"], "-1/2"),
        (["-b", "x=2", "-x"], "-2"),
        (["-x", "-bx=2"], "-2"),
        (["--", "-1/2"], "-1/2"),
        (["--carrier", "gf7", "-b", "x=2", "--", "-x"], "5"),
    ])
    def test_a_term_that_starts_with_minus(self, capsys, argv, shown):
        assert run(capsys, "eval", *argv) == (0, shown + "\n", "")

    @pytest.mark.parametrize("argv, shown", [
        (["--carr", "gf7", "3"], "3"),  # a unique prefix of a long option
        (["--carrier=gf7", "-bx=2", "x/0"], "0"),
    ])
    def test_long_option_forms(self, capsys, argv, shown):
        assert run(capsys, "eval", *argv) == (0, shown + "\n", "")

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

    def test_huge_exponent_over_prime_field(self, capsys):
        # 3 has order 6 mod 7 and 10^10 = 4 mod 6; x^n takes O(log n) steps
        code, out, _ = run(capsys, "eval", "-b", "x=3", "--carrier", "gf7", "x^10000000000")
        assert (code, out.strip()) == (0, "4")

    def test_huge_exponent_over_rationals_refused(self, capsys):
        code, out, err = run(capsys, "eval", "-b", "x=3", "x^10000000000")
        assert (code, out) == (1, "")
        assert err.startswith("error: 3 to the power 10000000000 would take")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_value_over_the_printing_limit(self, capsys, fmt):
        # 3^1000000 is within the power bound but has 477,122 digits
        code, out, err = run(capsys, "eval", "--format", fmt, "3^1000000")
        assert (code, out) == (1, "")
        assert err == "error: the value has about 477122 digits, over the printing limit of 4300 digits\n"

    def test_punched_base_of_zeroth_power(self, capsys):
        code, out, _ = run(capsys, "eval", "--mode", "punch-div-all", "(1/0)^0")
        assert (code, out.strip()) == (3, "UNDEFINED")

    @pytest.mark.parametrize("argv", [
        # the power's own base is undefined, and its total value over the size bound
        ["--mode", "punch-div-all", "-b", "x=0", "(2 + 1/x)^10000000000"],
        ["--mode", "punch-inv", "-b", "x=0", "(2 + x^-1)^10000000000 + 1/x"],
        ["--carrier", "gf7", "--mode", "punch-div-all", "-b", "x=0", "(3 + 1/x)^5"],
    ])
    def test_a_power_of_an_undefined_base_is_undefined(self, capsys, argv):
        assert run(capsys, "eval", *argv) == (3, "UNDEFINED\n", "")

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

    @pytest.mark.parametrize("argv", [["-b", "x=2", "-x=0-x"], ["--", "-1/2=0-1/2"]])
    def test_a_formula_that_starts_with_minus(self, capsys, argv):
        assert run(capsys, "logic", *argv) == (0, "T\n", "")

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
        assert (code, out, err) == (2, "", "error: unbound variable 'y'\n")

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
        ("rationals", "x^2 + 1 > 0", "PASS axiom=x^2 + 1 > 0 samples=1000"),
        ("gf5", "x = 0 | x != 0", "PASS axiom=x = 0 | x != 0 samples=5"),
        ("gf5", "x != 0 => x*(y/x) = y", "PASS axiom=x != 0 => x*(y/x) = y samples=25"),
        ("gf5", "-x=0-x", "PASS axiom=-x = 0 - x samples=5"),  # a law may start with `-`
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

    def test_samples_over_budget_rejected(self, capsys):
        code, out, err = run(capsys, "axioms", "--samples", "100000000")
        assert code == 1 and out == ""
        assert err == "error: samples must be between 1 and 10000000, got 100000000\n"

    def test_samples_and_seed_are_ascii_decimal_integers(self, capsys):
        code, out, _ = run(capsys, "axioms", "--samples", " 007 ", "--seed", "-3", "--extra", "x = x")
        assert code == 0 and out.splitlines()[-1] == "PASS axiom=x = x samples=7"

    def test_a_witness_past_the_first_block(self, capsys):
        # 4,913 environments over GF(17); the first failing one is row 4336
        code, out, _ = run(capsys, "axioms", "--carrier", "gf17", "--extra", "x != 15 | y + z != 0")
        assert code == 4
        assert out.splitlines()[-1] == "FAIL axiom=x != 15 | y + z != 0 samples=4336 witness=x=15,y=0,z=0"

    def test_failing_closed_law_has_an_empty_witness(self, capsys):
        code, out, _ = run(capsys, "axioms", "--carrier", "gf2", "--extra", "0 = 1")
        assert code == 4
        assert out.splitlines()[-1] == "FAIL axiom=0 = 1 samples=1 witness={}"

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
        # the budget is checked before a law is compiled: a refused carrier keeps nothing
        refused = StructureSpec(PrimeField(int(p)))
        assert not [spec.name for spec in axiom_catalog() if (refused.carrier.ops, refused.mode) in spec._laws]

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, "axioms", "--samples", "50", "--seed", "3")
        _, out2, _ = run(capsys, "axioms", "--samples", "50", "--seed", "3")
        assert out1 == out2

    def test_the_catalog_compiles_once_per_carrier(self, capsys, monkeypatch):
        compiled = []

        def compile_formula(f, *args):
            compiled.append(print_formula(f))
            return real(f, *args)

        real = logic.compile_formula
        monkeypatch.setattr(logic, "compile_formula", compile_formula)
        run(capsys, "axioms", "--carrier", "gf23", "--extra", "x*x = x")
        compiled.clear()
        code, out, _ = run(capsys, "axioms", "--carrier", "gf23", "--extra", "x*x = x")
        assert (code, compiled) == (4, ["x*x = x"])
        assert out.splitlines()[-1] == "FAIL axiom=x*x = x samples=3 witness=x=2"

    def test_an_extra_law_is_not_kept_after_its_command(self, capsys, monkeypatch):
        made = []

        def ax(name, text):
            spec = real(name, text)
            made.append(weakref.ref(spec))
            return spec

        real = cli._ax
        monkeypatch.setattr(cli, "_ax", ax)
        code, _, _ = run(capsys, "axioms", "--carrier", "gf5", "--extra", "x*x = x", "--extra", "x = x")
        gc.collect()
        assert code == 4 and len(made) == 2
        assert [ref() for ref in made] == [None, None]


def _sum(summand: str, n: int) -> str:
    return " + ".join([summand] * n)


# Inputs exactly `depth` deep, counting operators and parenthesis pairs.


def _parens(depth: int) -> str:
    return "(" * depth + "1" + ")" * depth


def _right_product(depth: int) -> str:
    """x*(x*(…(x)…)), each level one `*` and one pair of parentheses."""
    k, odd = divmod(depth, 2)
    return "(" * odd + "x*(" * k + "x" + ")" * (k + odd)


def _product_claim(depth: int) -> str:
    """`1/(x*x*…*x) = 1`: the relation, the division and the parentheses
    are 3 levels and each `*` one more."""
    return "claim: 1/(" + "*".join(["x"] * (depth - 2)) + ") = 1"


def _nested_guard_claim(depth: int) -> str:
    """`1/(x*(1 + x*(1 + …))) = 1`, each level one `*`, one `+` and one
    pair of parentheses, with parentheses around the innermost x to make
    up the rest."""
    m, r = divmod(depth - 3, 3)
    guard = "x*(1 + " * m + "(" * r + "x" + ")" * r + ")" * m
    return f"claim: 1/({guard}) = 1"


def _squared_sum_claim(depth: int) -> str:
    """`1/((A)*(A) + 1) = 1` with A = `x + 1 + … + 1`: the relation, the
    division, the outer parentheses, the outer `+`, the `*` and A's
    parentheses are 6 levels and each `+` of A one more."""
    a = "x" + " + 1" * (depth - 6)
    return f"claim: 1/(({a})*({a}) + 1) = 1"


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

    def test_901_summand_law_is_refused(self, capsys):
        code, out, err = run(capsys, "axioms", "--extra", _sum("x", 901) + " = 0")
        assert (code, out, err) == (1, "", "error: input nested too deeply\n")

    @pytest.mark.parametrize("shape, argv, expected", [
        (_parens, ["eval"], "1"),
        (lambda d: _sum("x", d + 1), ["eval", "-b", "x=1"], str(MAX_DEPTH + 1)),
        (_right_product, ["eval", "-b", "x=1"], "1"),
    ], ids=["parens", "left-sum", "right-product"])
    def test_eval_at_the_bound(self, capsys, shape, argv, expected):
        assert run(capsys, *argv, shape(MAX_DEPTH)) == (0, expected + "\n", "")
        code, out, err = run(capsys, *argv, shape(MAX_DEPTH + 1))
        assert (code, out, err) == (1, "", "error: input nested too deeply\n")

    @pytest.mark.parametrize("claim", [_product_claim, _nested_guard_claim],
                             ids=["product", "nested-guard"])
    def test_lint_at_the_bound_with_a_fact_in_scope(self, capsys, tmp_path, claim):
        corpus = tmp_path / "deep.mcorpus"
        corpus.write_text(f"hyp: 1/q = 2\n{claim(MAX_DEPTH)}\n")
        code, out, err = run(capsys, "lint", str(corpus))
        lines = out.splitlines()
        assert (code, err, len(lines)) == (4, "", 2)
        assert lines[1].startswith("statement=1 pos=0 guarded=x*")
        assert lines[1].endswith("verdict=VIOLATION detail=x=0")
        corpus.write_text(f"hyp: 1/q = 2\n{claim(MAX_DEPTH + 1)}\n")
        code, out, err = run(capsys, "lint", str(corpus))
        assert (code, out, err) == (1, "", "error: input nested too deeply\n")

    def test_lint_certifies_a_squared_sum_at_the_bound(self, capsys, tmp_path):
        # the even-power test compares the two factors node by node without recursing
        corpus = tmp_path / "deep.mcorpus"
        corpus.write_text(_squared_sum_claim(MAX_DEPTH) + "\n")
        code, out, err = run(capsys, "lint", str(corpus))
        assert (code, err) == (0, "")
        assert out.endswith(" verdict=COMPLIANT detail=OnePlusSumOfSquares\n")
        corpus.write_text(_squared_sum_claim(MAX_DEPTH + 1) + "\n")
        code, out, err = run(capsys, "lint", str(corpus))
        assert (code, out, err) == (1, "", "error: input nested too deeply\n")


#: The exact `tables <family> --format json` output of each family.
TABLES_JSON = {
    "bochvar": '{"family": "bochvar", "not": {"T": "F", "F": "T", "U": "U"}, '
    '"and": {"T,T": "T", "T,F": "F", "T,U": "U", "F,T": "F", "F,F": "F", "F,U": "U", "U,T": "U", "U,F": "U", "U,U": "U"}, '
    '"or": {"T,T": "T", "T,F": "T", "T,U": "U", "F,T": "T", "F,F": "F", "F,U": "U", "U,T": "U", "U,F": "U", "U,U": "U"}, '
    '"implies": {"T,T": "T", "T,F": "F", "T,U": "U", "F,T": "T", "F,F": "T", "F,U": "U", "U,T": "U", "U,F": "U", "U,U": "U"}}',
    "kleene": '{"family": "kleene", "not": {"T": "F", "F": "T", "U": "U"}, '
    '"and": {"T,T": "T", "T,F": "F", "T,U": "U", "F,T": "F", "F,F": "F", "F,U": "F", "U,T": "U", "U,F": "F", "U,U": "U"}, '
    '"or": {"T,T": "T", "T,F": "T", "T,U": "T", "F,T": "T", "F,F": "F", "F,U": "U", "U,T": "T", "U,F": "U", "U,U": "U"}, '
    '"implies": {"T,T": "T", "T,F": "F", "T,U": "U", "F,T": "T", "F,F": "T", "F,U": "T", "U,T": "T", "U,F": "U", "U,U": "U"}}',
    "mccarthy-left": '{"family": "mccarthy-left", "not": {"T": "F", "F": "T", "U": "U"}, '
    '"and": {"T,T": "T", "T,F": "F", "T,U": "U", "F,T": "F", "F,F": "F", "F,U": "F", "U,T": "U", "U,F": "U", "U,U": "U"}, '
    '"or": {"T,T": "T", "T,F": "T", "T,U": "T", "F,T": "T", "F,F": "F", "F,U": "U", "U,T": "U", "U,F": "U", "U,U": "U"}, '
    '"implies": {"T,T": "T", "T,F": "F", "T,U": "U", "F,T": "T", "F,F": "T", "F,U": "T", "U,T": "U", "U,F": "U", "U,U": "U"}}',
    "mccarthy-right": '{"family": "mccarthy-right", "not": {"T": "F", "F": "T", "U": "U"}, '
    '"and": {"T,T": "T", "T,F": "F", "T,U": "U", "F,T": "F", "F,F": "F", "F,U": "U", "U,T": "U", "U,F": "F", "U,U": "U"}, '
    '"or": {"T,T": "T", "T,F": "T", "T,U": "U", "F,T": "T", "F,F": "F", "F,U": "U", "U,T": "T", "U,F": "U", "U,U": "U"}, '
    '"implies": {"T,T": "T", "T,F": "F", "T,U": "U", "F,T": "T", "F,F": "T", "F,U": "U", "U,T": "T", "U,F": "U", "U,U": "U"}}',
}


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

    @pytest.mark.parametrize("family", TABLES_JSON)
    def test_exact_output(self, capsys, family):
        assert run(capsys, "tables", family, "--format", "json") == (0, TABLES_JSON[family] + "\n", "")
        doc = json.loads(TABLES_JSON[family])
        text = ""
        for name, sym in (("not", "!"), ("and", "&"), ("or", "|"), ("implies", "=>")):
            text += f"{name}:\n"
            for cell, v in doc[name].items():
                text += f"{sym} {cell} -> {v}\n" if name == "not" else f"{cell.replace(',', f' {sym} ')} -> {v}\n"
        assert run(capsys, "tables", family) == (0, text, "")



class TestLint:
    def test_a_corpus_path_that_starts_with_minus(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("-x.mcorpus").write_text("claim: 1/x = 1\n")
        assert run(capsys, "lint", "-x.mcorpus") == (
            4, "statement=0 pos=0 guarded=x verdict=VIOLATION detail=x=0\n", "")

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

    @pytest.mark.parametrize("corpus, line", [
        ("claim: 1/(x + y + z + w) = 1",
         "detail=search skipped: 4 variables, over the budget of 3"),
        ("claim: 1/(x*x - 2) = 1",
         "detail=no zero among 23^1 environments and no certificate rule applies"),
    ])
    def test_unknown_reasons(self, capsys, tmp_path, corpus, line):
        path = tmp_path / "c.mcorpus"
        path.write_text(corpus + "\n")
        code, out, _ = run(capsys, "lint", str(path))
        assert code == 3
        assert out.strip().endswith("verdict=UNKNOWN " + line)

    @pytest.mark.parametrize("corpus, code, line", [
        ("claim: 1/x^10000000000 = 1", 4, "guarded=x^10000000000 verdict=VIOLATION detail=x=0"),
        ("claim: (1/0)^0 = 1", 4, "guarded=0 verdict=VIOLATION detail={}"),
    ])
    def test_powers(self, capsys, tmp_path, corpus, code, line):
        path = tmp_path / "c.mcorpus"
        path.write_text(corpus + "\n")
        assert run(capsys, "lint", "--convention", "division", str(path))[:2] == (
            code, f"statement=0 pos=0 {line}\n"
        )

    def test_huge_closed_power_is_unknown(self, capsys, tmp_path):
        # the power bound makes its own occurrence UNKNOWN; the run goes on
        path = tmp_path / "c.mcorpus"
        path.write_text("claim: 1/2^10000000000 = 1\nclaim: 1/x = 1\n")
        assert run(capsys, "lint", str(path)) == (4, (
            "statement=0 pos=0 guarded=2^10000000000 verdict=UNKNOWN detail=2 to the power "
            "10000000000 would take about 30000000000 bits, over the bound of 4194304\n"
            "statement=1 pos=0 guarded=x verdict=VIOLATION detail=x=0\n"
        ), "")

    @pytest.mark.parametrize("convention", ["division", "inversive", "liberal-division"])
    def test_huge_power_corpus(self, capsys, convention):
        code, out, _ = run(
            capsys, "lint", "--convention", convention, str(CORPORA / "huge_power.mcorpus")
        )
        assert code == 4
        assert out.splitlines() == [
            "statement=0 pos=0 guarded=x^0 verdict=COMPLIANT detail=NonzeroConstant",
            "statement=1 pos=0 guarded=x^10000000001 + 2 verdict=UNKNOWN "
            "detail=no zero among 23^1 environments and no certificate rule applies",
            "statement=2 pos=0 guarded=2^10000000000 verdict=UNKNOWN detail=2 to the power "
            "10000000000 would take about 30000000000 bits, over the bound of 4194304",
            "statement=3 pos=0 guarded=x verdict=VIOLATION detail=x=0",
        ]

    @pytest.mark.parametrize("convention", ["division", "inversive", "liberal-division"])
    def test_witness_past_one_block_corpus(self, capsys, convention):
        # the first zero, x = 2/3, y = z = 0, is row 8 * 529 = 4232, past BLOCK rows
        code, out, err = run(
            capsys, "lint", "--convention", convention, str(CORPORA / "witness_past_block.mcorpus")
        )
        assert (code, err) == (4, "")
        assert out.splitlines() == [
            "statement=0 pos=0 guarded=x - 1/4 verdict=UNKNOWN detail=same-statement hypothesis",
            "statement=0 pos=1 guarded=4 verdict=COMPLIANT detail=NonzeroConstant",
            "statement=1 pos=0 guarded=(3*x - 2)*(y*y + z*z + 1) verdict=VIOLATION detail=x=2/3,y=0,z=0",
        ]

    def test_module_entry_point(self):
        # `python -m meadowkit` runs the CLI, as in the CI lint step
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        for corpus, code in (("one_over_zero", 4), ("theorem_s5", 3), ("huge_power", 4)):
            done = subprocess.run(
                [sys.executable, "-m", "meadowkit", "lint", "--convention", "division",
                 str(CORPORA / f"{corpus}.mcorpus")],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == code, done.stderr

    def test_missing_file(self, capsys):
        assert run(capsys, "lint", "no-such-file.mcorpus") == (
            1, "", "error: [Errno 2] No such file or directory: 'no-such-file.mcorpus'\n",
        )

    def test_undecodable_file(self, capsys, tmp_path):
        corpus = tmp_path / "bad.mcorpus"
        corpus.write_bytes(b"\xff")
        assert run(capsys, "lint", str(corpus)) == (
            1, "", "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
        )

    def test_directory(self, capsys, tmp_path):
        assert run(capsys, "lint", str(tmp_path)) == (
            1, "", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n",
        )

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "lint", "--format", "json", str(CORPORA / "theorem_s5.mcorpus")
        )
        doc = json.loads(out)
        assert [v["verdict"] for v in doc["verdicts"]] == ["UNKNOWN", "COMPLIANT"]


def readme_commands():
    """The `meadowkit ...` commands of README's CLI block, with the comment
    after each (`# -> <first output line>[, exit <code>]...`)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", "").splitlines():
        if line.startswith("meadowkit "):
            command, _, comment = line.partition("#")
            commands.append((command.strip(), comment.strip()))
    return commands


class TestReadme:
    def test_the_cli_block_is_found(self):
        assert len(readme_commands()) == 17

    @pytest.mark.parametrize("command, comment", readme_commands())
    def test_cli_example(self, capsys, monkeypatch, command, comment):
        monkeypatch.chdir(ROOT)  # the lint examples name corpora/ relatively
        code, out, _ = run(capsys, *shlex.split(command)[1:])
        exit_code = re.search(r"\bexit (\d+)", comment)
        assert code == (int(exit_code.group(1)) if exit_code else 0)
        value = re.match(r"-> ([^\s,:]+)", comment)
        if value:
            assert out.splitlines()[0] == value.group(1)


class TestFrameBoundary:
    """Every free name is looked up before anything runs, and the first
    unbound one in textual order is named; a quantified name is bound
    only in its body; the enumeration budget reads the deepest nesting."""

    @pytest.mark.parametrize("argv, name", [
        (["eval", "y + x"], "y"),
        (["logic", "--carrier", "gf5", "(forall y. y = 1) & x = y"], "x"),
        (["logic", "--carrier", "gf5", "exists y. y = x & (forall x. y*x = z)"], "x"),
        (["logic", "--carrier", "gf5", "-b", "x=1", "x = 1 & (forall x. x = q)"], "q"),
        (["logic", "--classify", "-b", "x=1", "x = y"], "y"),
    ])
    def test_first_unbound_name(self, capsys, argv, name):
        assert run(capsys, *argv) == (2, "", f"error: unbound variable {name!r}\n")

    def test_budget_reads_the_deepest_nesting(self, capsys):
        f = "(forall a. forall b. forall c. a = a) & (forall x. forall y. forall z. forall w. x = x)"
        assert run(capsys, "logic", "--carrier", "gf401", f) == (
            1, "", "error: enumeration of 401^4 environments is over the budget of 10000000\n",
        )


class TestErrorPaths:
    @pytest.mark.parametrize("argv, message", [
        (["eval", "--carrier", "foo", "1"], "error: unknown carrier 'foo'"),
        (["eval", "--carrier", "gf", "1"], "error: unknown carrier 'gf'"),
        (["eval", "--carrier", "gfx", "1"], "error: unknown carrier 'gfx'"),
        (["eval", "-b", "x", "x"], "error: binding must look like x=2/3, got 'x'"),
        (["eval", "--carrier", "gf7", "-b", "x=1/2", "x"], "error: binding 'x=1/2' over gf7 must be an integer"),
        (["eval", "x^y"], "parse error: expected 'nat', found 'y' (at position 2)"),
        (["eval", "1)"], "parse error: trailing input ')' (at position 1)"),
        # numbers are ASCII decimal digits: no `_` separators, no sign on a
        # modulus, no space inside, no other script's digits
        (["eval", "--carrier", "gf1_3", "1/2"], "error: unknown carrier 'gf1_3'"),
        (["eval", "--carrier", "gf 13", "1/2"], "error: unknown carrier 'gf 13'"),
        (["eval", "--carrier", "gf\u0667", "1/2"], "error: unknown carrier 'gf\u0667'"),
        (["eval", "--carrier", "gf+7", "1/2"], "error: unknown carrier 'gf+7'"),
        (["eval", "--carrier", "gf-7", "1"], "error: unknown carrier 'gf-7'"),
        (["eval", "--carrier", "gf7", "-b", "x=1_0", "x"], "error: binding 'x=1_0' over gf7 must be an integer"),
        (["eval", "--carrier", "gf7", "-b", "x=+3", "x"], "error: binding 'x=+3' over gf7 must be an integer"),
        (["eval", "--carrier", "gf7", "-b", "x=\u0661\u0662", "x"],
         "error: binding 'x=\u0661\u0662' over gf7 must be an integer"),
        (["eval", "-b", "x=\u0661\u0662", "x"], "error: not a rational literal: '\u0661\u0662'"),
        (["eval", "--carrier", "probe:1,\u0662", "1"], "error: not a rational literal: '\u0662'"),
        (["eval", "\u0661\u0662 + 1"], "parse error: unexpected character '\u0661' (at position 0)"),
        (["logic", "--logic", "bogus,kleene,kleene", "1 = 1"],
         "error: unknown equality 'bogus', expected one of weak, strong, existential"),
        (["logic", "--logic", "weak,bogus,kleene", "1 = 1"],
         "error: unknown connectives 'bogus', expected one of bochvar, kleene, mccarthy-left, mccarthy-right"),
        (["logic", "--logic", "weak,kleene,bogus", "1 = 1"],
         "error: unknown quantifiers 'bogus', expected one of bochvar, kleene"),
        # argparse refusals are one line too
        (["lint", "--convention", "bogus", "x"],
         "meadowkit lint: error: argument --convention: invalid choice: 'bogus' "
         "(choose from 'inversive', 'division', 'liberal-division')"),
        (["tables", "bogus"],
         "meadowkit tables: error: argument family: invalid choice: 'bogus' "
         "(choose from 'bochvar', 'kleene', 'mccarthy-left', 'mccarthy-right')"),
        # a number's text has at most the interpreter's 4300 digits, wherever it is read
        (["eval", "1" * 5000], "error: a number of 5000 digits is over the limit of 4300 digits"),
        (["eval", "x^" + "1" * 4301], "error: a number of 4301 digits is over the limit of 4300 digits"),
        (["eval", "-b", "x=" + "1" * 5000, "x"], "error: a number of 5000 digits is over the limit of 4300 digits"),
        (["eval", "-b", "x=1/" + "1" * 4301, "x"], "error: a number of 4301 digits is over the limit of 4300 digits"),
        (["eval", "--carrier", "gf7", "-b", "x=-" + "1" * 4301, "x"],
         "error: a number of 4301 digits is over the limit of 4300 digits"),
        (["eval", "--carrier", "gf" + "1" * 5000, "1"], "error: a number of 5000 digits is over the limit of 4300 digits"),
        # whitespace in a term is ASCII
        (["eval", "1 +\u30001"], "parse error: unexpected character '\\u3000' (at position 3)"),
        (["eval", "1 +\u00a01"], "parse error: unexpected character '\\xa0' (at position 3)"),
        # axioms --samples and --seed are ASCII decimal integers
        (["axioms", "--samples", "1_0", "--extra", "x = x"], "error: --samples '1_0' must be an integer"),
        (["axioms", "--samples", "\u0661\u0660", "--extra", "x = x"],
         "error: --samples '\u0661\u0660' must be an integer"),
        (["axioms", "--seed", "\u0663", "--extra", "x = x"], "error: --seed '\u0663' must be an integer"),
        (["axioms", "--seed", "+3"], "error: --seed '+3' must be an integer"),
        (["axioms", "--samples", "ten"], "error: --samples 'ten' must be an integer"),
        (["axioms", "--samples", "1" * 5000], "error: a number of 5000 digits is over the limit of 4300 digits"),
        # a binding's name is one the parser reads as a variable
        (["eval", "-b", "=1", "1"], "error: binding must look like x=2/3, got '=1'"),
        (["eval", "-b", "x y=1", "1"], "error: binding must look like x=2/3, got 'x y=1'"),
        (["eval", "-b", "1x=2", "1"], "error: binding must look like x=2/3, got '1x=2'"),
        (["eval", "-b", "forall=1", "1"], "error: binding must look like x=2/3, got 'forall=1'"),
        # a name is bound once
        (["eval", "-b", "x=1", "-b", "x=2", "x"], "error: x is bound twice"),
        (["logic", "--bind", "y=1", "-by=1", "y = 1"], "error: y is bound twice"),
        # a value that starts with `-` is read as one, and refused as one
        (["lint", "--convention", "-x", "y"],
         "meadowkit lint: error: argument --convention: invalid choice: '-x' "
         "(choose from 'inversive', 'division', 'liberal-division')"),
        (["tables", "-x"],
         "meadowkit tables: error: argument family: invalid choice: '-x' "
         "(choose from 'bochvar', 'kleene', 'mccarthy-left', 'mccarthy-right')"),
        # refused by the top-level parser, and by a parser just filled
        ([], "meadowkit: error: the following arguments are required: command"),
        (["bogus"], "meadowkit: error: argument command: invalid choice: 'bogus' "
         "(choose from 'eval', 'logic', 'axioms', 'tables', 'lint')"),
        (["--foo", "eval", "1"], "meadowkit: error: unrecognized arguments: --foo"),
        (["eval"], "meadowkit eval: error: the following arguments are required: term"),
        (["eval", "-b"], "meadowkit eval: error: argument -b/--bind: expected one argument"),
        # a command's leftover arguments go back to the top-level parser
        (["eval", "1", "2"], "meadowkit: error: unrecognized arguments: 2"),
    ])
    def test_one_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", message + "\n")

    @pytest.mark.parametrize("argv, shown", [
        (["--carrier", "gf07", "1/2"], "4"),
        (["--carrier", " GF7 ", "1/2"], "4"),
        (["--carrier", "probe:1, 2", "1/2"], "1/2"),
        (["--carrier", "gf7", "-b", "x=-3", "x"], "4"),
        (["--carrier", "gf7", "-b", "x= 3 ", "x"], "3"),
        (["--carrier", "gf7", "-b", "x=007", "x"], "0"),
        (["--carrier", "gf7", "-b", "x=-0", "x"], "0"),
        (["--carrier", "gf7", "-b", "x=-" + "1" * 4300, "x"], str(-int("1" * 4300) % 7)),
        (["1" * 4300 + " - " + "1" * 4300], "0"),
    ])
    def test_number_text_accepted(self, capsys, argv, shown):
        assert run(capsys, "eval", *argv) == (0, shown + "\n", "")

    @pytest.mark.parametrize("limit, result", [
        (1000, (1, "", "error: a number of 5000 digits is over the limit of 1000 digits\n")),
        (0, (0, "0\n", "")),  # no limit
    ])
    def test_number_text_limit_is_the_interpreters(self, capsys, limit, result):
        # as set by PYTHONINTMAXSTRDIGITS or -X int_max_str_digits
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert run(capsys, "eval", "1" * 5000 + " - " + "1" * 5000) == result
        finally:
            sys.set_int_max_str_digits(default)

    @given(st.text(alphabet="0123456789\u0661\u0662\u0967\uff13-+_/ ", max_size=8))
    def test_binding_text_is_ascii_decimal(self, text):
        stripped = text.strip()
        integer = re.fullmatch("-?[0-9]+", stripped)
        code, out, err = run_captured("eval", "--carrier", "gf7", "-b", "x=" + text, "x")
        if integer:
            assert (code, out, err) == (0, f"{int(stripped) % 7}\n", "")
        else:
            assert (code, out) == (1, "") and err.startswith("error: binding ") and err.count("\n") == 1
        rational = re.fullmatch("(-?[0-9]+)(?:/([0-9]+))?", stripped)
        code, out, err = run_captured("eval", "-b", "x=" + text, "x")
        if rational and int(rational.group(2) or 1):
            shown = Fraction(int(rational.group(1)), int(rational.group(2) or 1))
            assert (code, out, err) == (0, f"{shown}\n", "")
        else:
            assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_mode(self, capsys):
        code, out, err = run(capsys, "eval", "--mode", "bogus", "1")
        assert (code, out, err) == (1, "", "meadowkit eval: error: argument --mode: unknown mode 'bogus'\n")

    @pytest.mark.parametrize("argv, code, doc", [
        (["1 = 1"], 0, {"usable": True, "value": "T"}),
        (["--mode", "punch-div-all", "0/0 = 1 | 0 = 0"], 3, {"usable": False, "value": None}),
    ])
    def test_classify_json(self, capsys, argv, code, doc):
        got, out, err = run(capsys, "logic", "--classify", "--format", "json", *argv)
        assert (got, json.loads(out), err) == (code, doc, "")

    def test_corpus_line_without_a_prefix(self, capsys, tmp_path):
        corpus = tmp_path / "bad.mcorpus"
        corpus.write_text("no colon here\n")
        assert run(capsys, "lint", str(corpus)) == (
            1, "", "error: line 1: expected 'hyp:' or 'claim:' prefix\n",
        )


class TestHelp:
    """Every parser of a build formats help at one width, read from the
    terminal once per `main` call, not fixed at import; a command makes
    only its own parser."""

    DESCRIPTION = ("Totalized rational arithmetic, logics of partial functions, "
                   "and a division-convention linter.")
    # each command's help string and option strings
    COMMANDS = {
        "eval": ("evaluate a term", ["--carrier", "--mode", "--format", "-b", "--bind"]),
        "logic": ("evaluate a formula in a three-valued logic",
                  ["--carrier", "--mode", "--format", "--logic", "--classify", "-b", "--bind"]),
        "axioms": ("verify the built-in axiom catalog", ["--format", "--carrier", "--samples", "--seed", "--extra"]),
        "tables": ("print the truth tables of a connective family", ["--format"]),
        "lint": ("lint a statement corpus against a convention", ["--format", "--convention"]),
    }

    def test_top_level_help_names_each_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        code, out, _ = run(capsys, "--help")
        assert code == 0
        for command, (summary, _) in self.COMMANDS.items():
            assert re.search(rf"^ +{command} +{re.escape(summary)}$", out, re.M)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_help(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and out.startswith(f"usage: meadowkit {command} [-h]")
        # substrings only: 3.13 lays out `-b, --bind x=2/3` where earlier
        # versions print `-b x=2/3, --bind x=2/3`
        for option in self.COMMANDS[command][1]:
            assert option in out

    @pytest.mark.parametrize("argv", [
        ["eval", "1"],
        ["logic", "1 = 1"],
        ["axioms", "--carrier", "gf2", "--extra", "x = x"],
        ["tables", "kleene"],
        ["lint"],
    ], ids=lambda argv: argv[0])
    def test_a_command_fills_only_its_own_parser(self, capsys, monkeypatch, tmp_path, argv):
        if argv == ["lint"]:
            corpus = tmp_path / "one.mcorpus"
            corpus.write_text("claim: 1/x = 1\n")
            argv = ["lint", str(corpus)]
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def recorded(self, *args, **kwargs):
            calls.append((self.prog, args))
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recorded)
        assert main(argv) != 1
        capsys.readouterr()
        # argparse adds its own -h to every parser it makes
        assert {prog for prog, args in calls if args != ("-h", "--help")} == {f"meadowkit {argv[0]}"}

    @pytest.mark.parametrize("argv, command", [
        (["eval", "1"], "eval"),
        (["logic", "1 = 1"], "logic"),
        (["axioms", "--carrier", "gf2", "--extra", "x = x"], "axioms"),
        (["tables", "kleene"], "tables"),
        (["lint", str(CORPORA / "one_over_zero.mcorpus")], "lint"),
        ([], None),
        (["--help"], None),
        (["bogus"], None),
        # argparse parses the command it names before it refuses the leftover
        (["--foo", "eval", "1"], "eval"),
    ])
    def test_a_command_makes_only_its_own_parser(self, capsys, monkeypatch, argv, command):
        progs = []
        init = argparse.ArgumentParser.__init__

        def recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            progs.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
        main(argv)
        capsys.readouterr()
        assert progs == ["meadowkit"] + ([f"meadowkit {command}"] if command else [])

    @pytest.mark.parametrize("argv", [
        ["eval", "1/2"],
        ["lint", "--convention", "bogus", "x"],  # an argparse refusal
        ["--help"],
        ["eval", "--help"],
        ["bogus"],
    ])
    def test_one_terminal_query_per_call(self, capsys, monkeypatch, argv):
        calls = []
        query = shutil.get_terminal_size

        def counted(*args):
            calls.append(args)
            return query(*args)

        monkeypatch.setattr(shutil, "get_terminal_size", counted)
        for n in (1, 2):
            main(list(argv))
            assert len(calls) == n
        capsys.readouterr()

    def test_help_width_is_read_per_call(self, capsys, monkeypatch):
        def help_text(columns, *argv):
            monkeypatch.setenv("COLUMNS", str(columns))
            code, out, _ = run(capsys, *argv, "--help")
            assert code == 0
            return out

        def description_lines(columns):
            # the paragraph after the usage; a long usage token may run
            # past the width, prose may not
            return help_text(columns).split("\n\n")[1].splitlines()

        assert description_lines(200) == [self.DESCRIPTION]
        lines = description_lines(60)
        assert len(lines) > 1 and max(map(len, lines)) <= 58
        assert " ".join(lines) == self.DESCRIPTION
        # a command's parser formats at the width of its own call
        assert max(map(len, help_text(60, "eval").splitlines())) <= 58
        assert max(map(len, help_text(200, "eval").splitlines())) > 60
