import gc
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from generators import random_rational, random_term
from oracle import oracle_term
from meadowkit.lint import Convention, lint, parse_corpus
from meadowkit.logic import LPMD, eval_formula
from meadowkit.carriers import RATIONALS, CarrierMismatchError, FiniteProbeSet, PowerBoundError, PrimeField
from meadowkit.parser import parse_formula, parse_term
from meadowkit.semantics import (
    UNDEFINED,
    AxiomSpec,
    Mode,
    StructureSpec,
    UnboundVariableError,
    axiom_catalog,
    compile_term,
    eval_partial,
    eval_total,
    row_frame,
    verify_axiom_spec,
)
from meadowkit.terms import One, Var, Zero, free_vars

TOTAL_Q = StructureSpec(RATIONALS)
CORPORA = Path(__file__).resolve().parent.parent / "corpora"
PUNCH_INV = StructureSpec(RATIONALS, Mode.PUNCH_INV0)
PUNCH_ALL = StructureSpec(RATIONALS, Mode.PUNCH_DIV_ALL0)
PUNCH_NONZERO = StructureSpec(RATIONALS, Mode.PUNCH_DIV_NONZERO0)


class TestEvalTotal:
    def test_one_over_zero_is_zero(self):
        assert eval_total(parse_term("1/0"), {}, TOTAL_Q) == 0

    def test_inverse_of_zero_is_zero(self):
        assert eval_total(parse_term("0^-1"), {}, TOTAL_Q) == 0

    def test_defining_equation_instance(self):
        t = parse_term("(1 + x^2 + y^2) / (1 + x^2 + y^2)")
        env = {"x": Fraction(2, 3), "y": Fraction(-5)}
        assert eval_total(t, env, TOTAL_Q) == 1

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_total(parse_term("x + 1"), {}, TOTAL_Q)

    def test_requires_total_mode(self):
        with pytest.raises(ValueError):
            eval_total(parse_term("1"), {}, PUNCH_ALL)


class TestEvalPartial:
    def test_punched_division(self):
        assert eval_partial(parse_term("1/0"), {}, PUNCH_ALL) is UNDEFINED

    def test_power_is_strict(self):
        # `t^0` is 1 only where t denotes
        assert eval_partial(parse_term("(1/0)^0"), {}, PUNCH_ALL) is UNDEFINED
        assert eval_partial(parse_term("(0^-1)^2"), {}, PUNCH_INV) is UNDEFINED
        assert eval_total(parse_term("(1/0)^0"), {}, TOTAL_Q) == 1

    def test_zero_over_zero_survives_nonzero_punch(self):
        assert eval_partial(parse_term("0/0"), {}, PUNCH_NONZERO) == 0

    def test_one_over_zero_punched_in_nonzero_mode(self):
        assert eval_partial(parse_term("1/0"), {}, PUNCH_NONZERO) is UNDEFINED

    def test_strict_propagation(self):
        assert eval_partial(parse_term("1/0 + 1"), {}, PUNCH_ALL) is UNDEFINED
        assert eval_partial(parse_term("0*(1/0)"), {}, PUNCH_ALL) is UNDEFINED

    def test_defined_when_no_zero_denominator(self):
        assert eval_partial(parse_term("2/4"), {}, PUNCH_ALL) == Fraction(1, 2)

    def test_punched_inverse(self):
        assert eval_partial(parse_term("0^-1"), {}, PUNCH_INV) is UNDEFINED
        assert eval_partial(parse_term("2^-1"), {}, PUNCH_INV) == Fraction(1, 2)
        # the inversive punch does not govern division nodes
        assert eval_partial(parse_term("1/0"), {}, PUNCH_INV) == 0

    def test_total_mode_never_undefined(self):
        rng = random.Random(3)
        for _ in range(300):
            t = random_term(rng, depth=4)
            env = {n: random_rational(rng) for n in free_vars(t)}
            assert eval_partial(t, env, TOTAL_Q) is not UNDEFINED

    def test_agreement_with_total(self):
        rng = random.Random(4)
        for mode in (Mode.PUNCH_INV0, Mode.PUNCH_DIV_ALL0, Mode.PUNCH_DIV_NONZERO0):
            s = StructureSpec(RATIONALS, mode)
            for _ in range(300):
                t = random_term(rng, depth=4)
                env = {n: random_rational(rng) for n in free_vars(t)}
                v = eval_partial(t, env, s)
                if v is not UNDEFINED:
                    assert v == eval_total(t, env, TOTAL_Q)

    def test_agrees_with_oracle_over_prime_fields(self):
        # UNDEFINED exactly where the independent oracle meets a punched application
        rng = random.Random(5)
        for p, mode in itertools.product((2, 3, 5, 7), Mode):
            s = StructureSpec(PrimeField(p), mode)
            for _ in range(200):
                t = random_term(rng, depth=4)
                env = {n: rng.randrange(p) for n in free_vars(t)}
                got = eval_partial(t, env, s)
                assert (None if got is UNDEFINED else got) == oracle_term(t, env, p, mode.value), (t, env, mode)

    def test_nonzero_punch_is_more_defined(self):
        rng = random.Random(6)
        for _ in range(300):
            t = random_term(rng, depth=4)
            env = {n: random_rational(rng) for n in free_vars(t)}
            if eval_partial(t, env, PUNCH_ALL) is not UNDEFINED:
                assert eval_partial(t, env, PUNCH_NONZERO) is not UNDEFINED
        # 0/0 separates the two modes
        sep = parse_term("0/0")
        assert eval_partial(sep, {}, PUNCH_ALL) is UNDEFINED
        assert eval_partial(sep, {}, PUNCH_NONZERO) == 0


class TestCompileTerm:
    def test_power_reads_its_base_once(self):
        class CountingFrame(dict):
            reads = 0

            def __getitem__(self, name):
                self.reads += 1
                return super().__getitem__(name)

        gf7 = StructureSpec(PrimeField(7))
        fn = compile_term(parse_term(f"x^{2**40}"), gf7)
        frame = CountingFrame(x=[3, 5])  # one name, a column of two rows
        got = fn(frame, 2, {})
        assert type(got) is bytes and list(got) == [pow(3, 2**40, 7), pow(5, 2**40, 7)]
        assert frame.reads == 1

    def test_a_row_frame_holds_columns_of_the_carriers_type(self):
        assert row_frame("xy", {"x": 3, "y": 0}, PrimeField(17)) == {"x": b"\x03", "y": b"\x00"}
        assert row_frame("x", {"x": 3}, PrimeField(257)) == {"x": [3]}

    @pytest.mark.parametrize("text", ["x", "x + y", "x*y", "x/y", "-x", "x^-1", "x^0", "x^5", "7", "x - 1/y"])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_gf17_columns_are_byte_strings(self, text, mode):
        s = StructureSpec(PrimeField(17), mode)
        rows = [{"x": x, "y": y} for x in range(17) for y in range(17)]
        frames = [  # every pair as byte columns, list columns, and one row
            ({name: bytes(env[name] for env in rows) for name in "xy"}, rows),
            ({name: [env[name] for env in rows] for name in "xy"}, rows),
            (row_frame("xy", rows[20], s.carrier), rows[20:21]),
        ]
        for t in (parse_term(text), Zero(), One()):
            fn = compile_term(t, s)
            for frame, envs in frames:
                undefined = {}
                got = fn(frame, len(envs), undefined)
                # a variable is its frame's column, every other node a byte string
                assert type(got) is (type(frame["x"]) if type(t) is Var else bytes) and len(got) == len(envs)
                values = [None if i in undefined else v for i, v in enumerate(got)]
                assert values == [oracle_term(t, env, 17, mode.value) for env in envs], t

    def test_rational_power_over_the_size_bound_refused(self):
        with pytest.raises(ValueError, match="over the bound"):
            eval_total(parse_term("x^10000000000"), {"x": Fraction(3)}, TOTAL_Q)
        assert eval_total(parse_term("x^10000000000"), {"x": Fraction(-1)}, TOTAL_Q) == 1

    def test_operands_checked_where_they_enter(self):
        gf5 = StructureSpec(PrimeField(5))
        with pytest.raises(CarrierMismatchError):
            eval_partial(parse_term("x + 1"), {"x": 5}, gf5)
        with pytest.raises(CarrierMismatchError):
            eval_partial(parse_term("x + 1"), {"x": Fraction(1)}, gf5)


def law(text: str) -> AxiomSpec:
    return AxiomSpec("axiom", parse_formula(text))


class TestVerifyAxiom:
    def test_exhaustive_pass(self):
        report = verify_axiom_spec(law("x*(x*x^-1) = x"), StructureSpec(PrimeField(7)))
        assert report.passed and report.samples == 7

    def test_closed_law_over_huge_field_visits_one_environment(self):
        report = verify_axiom_spec(law("1 + 1 = 2"), StructureSpec(PrimeField(2**61 - 1)))
        assert report.passed and report.samples == 1

    def test_random_sample_pass(self):
        report = verify_axiom_spec(law("(x*x)/x = x"), TOTAL_Q, samples=1000, seed=1)
        assert report.passed and report.samples == 1000

    def test_fail_with_witness(self):
        report = verify_axiom_spec(law("x/x = 1"), StructureSpec(PrimeField(5)))
        assert not report.passed
        assert report.witness == {"x": 0}
        assert report.format_line().startswith("FAIL")
        assert "witness=x=0" in report.format_line()

    @pytest.mark.parametrize("p", [61, 67])  # either side of LANE_LIMIT
    def test_law_failing_on_one_row_names_that_row(self, p):
        # (x - 40)^(p-1) + (y - 7)^(p-1) is 0 at x=40, y=7 alone, else 1 or 2
        f = f"((x - 40)^{p - 1} + (y - 7)^{p - 1})^{p - 1} = 1"
        report = verify_axiom_spec(law(f), StructureSpec(PrimeField(p)))
        assert (report.passed, report.witness, report.samples) == (False, {"x": 40, "y": 7}, 40 * p + 8)

    def test_failing_closed_law_has_an_empty_witness(self):
        report = verify_axiom_spec(law("0 = 1"), StructureSpec(PrimeField(2)))
        assert report.witness == {}
        assert report.format_line() == "FAIL axiom=0 = 1 samples=1 witness={}"

    def test_sampled_closed_law_is_checked_once(self):
        report = verify_axiom_spec(law("1 + 1 = 2"), TOTAL_Q, samples=1000, seed=3)
        assert report.passed and report.samples == 1

    def test_sample_count_is_checked_on_every_carrier(self):
        for s in (TOTAL_Q, StructureSpec(PrimeField(5))):
            for samples in (0, 10**7 + 1):
                with pytest.raises(ValueError, match="samples must be between 1 and 10000000"):
                    verify_axiom_spec(law("x = x"), s, samples=samples)

    def test_guarded_law(self):
        report = verify_axiom_spec(law("x != 0 => x/x = 1"), StructureSpec(PrimeField(5)))
        assert report.passed

    def test_report_line_format(self):
        report = verify_axiom_spec(law("x + 0 = x"), StructureSpec(PrimeField(3)))
        assert report.format_line() == "PASS axiom=x + 0 = x samples=3"


class TestAxiomCatalog:
    def test_has_fifteen_laws(self):
        assert len(axiom_catalog()) == 15

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_all_pass_exhaustively(self, p):
        s = StructureSpec(PrimeField(p))
        for spec in axiom_catalog():
            assert verify_axiom_spec(spec, s).passed, spec.name

    def test_all_pass_on_sampled_rationals(self):
        for spec in axiom_catalog():
            assert verify_axiom_spec(spec, TOTAL_Q, samples=200, seed=2).passed

    def test_separation_in_catalog(self):
        names = [spec.name for spec in axiom_catalog()]
        assert "separation" in names
        assert "general-inverse-division-law" in names


class TestCompiledLaw:
    def test_compiled_once_per_structure(self):
        idem = AxiomSpec("idem", parse_formula("x*x = x"))
        lines = [verify_axiom_spec(idem, StructureSpec(PrimeField(p))).format_line() for p in (2, 3, 2)]
        assert lines == [
            "PASS axiom=x*x = x samples=2",
            "FAIL axiom=x*x = x samples=3 witness=x=2",
            "PASS axiom=x*x = x samples=2",
        ]
        assert idem.law(StructureSpec(PrimeField(2))) is idem.law(StructureSpec(PrimeField(2)))

    def test_interleaved_carriers_report_as_fresh_specs(self):
        structures = [StructureSpec(c) for c in (
            PrimeField(5), PrimeField(17), RATIONALS,
            FiniteProbeSet(values=(Fraction(-1), Fraction(0), Fraction(1, 2))), PrimeField(5),
        )]
        for s in structures:
            for spec in axiom_catalog():
                fresh = AxiomSpec(spec.name, spec.formula)
                assert verify_axiom_spec(spec, s, 40, 3) == verify_axiom_spec(fresh, s, 40, 3)

    def test_one_law_per_arithmetic(self):
        # the rationals and every probe set share one arithmetic, so one compiled law
        structures = [StructureSpec(c) for c in (
            RATIONALS, FiniteProbeSet(values=(Fraction(-1), Fraction(0), Fraction(1, 2))),
            FiniteProbeSet(values=(Fraction(3), Fraction(1, 3))),
        )]
        specs = [AxiomSpec(spec.name, spec.formula) for spec in axiom_catalog()]
        for s in structures:
            for spec in specs:
                fresh = AxiomSpec(spec.name, spec.formula)
                assert verify_axiom_spec(spec, s, 40, 3) == verify_axiom_spec(fresh, s, 40, 3)
        assert all(len(spec._laws) == 1 for spec in specs)
        assert specs[0].law(structures[1]) is specs[0].law(structures[2])


def _corpora():
    return [parse_corpus(path.read_text()) for path in sorted(CORPORA.glob("*.mcorpus"))]


def _catalog(s):
    # fresh specs, so each law is compiled here and freed after
    for spec in axiom_catalog():
        verify_axiom_spec(AxiomSpec(spec.name, spec.formula), s)


def _refused(run):
    """Runs `run`, which must raise a PowerBoundError, and catches it."""
    try:
        run()
    except PowerBoundError:
        return
    raise AssertionError("no PowerBoundError")


class TestNoReferenceCycles:
    """Compiling and running terms, formulas, laws and lint corpora leaves
    no cyclic garbage: what a command builds is freed by reference
    counting, so the cyclic collector has nothing of it to find.  That
    holds when a run ends in an error too: no frame keeps the error that
    it raises."""

    @pytest.mark.parametrize("run", [
        *(lambda c=c: [lint(corpus, c) for corpus in _corpora()] for c in Convention),
        lambda: eval_partial(parse_term("x/y + 3*x^2 + y^-1"), {"x": Fraction(1), "y": Fraction(0)}, PUNCH_ALL),
        lambda: eval_formula(parse_formula("forall x. exists y. x*y = 1 | x = 0"), LPMD, {},
                             StructureSpec(PrimeField(7))),
        lambda: _catalog(StructureSpec(PrimeField(11))),
        lambda: _catalog(TOTAL_Q),
        lambda: _refused(lambda: eval_partial(parse_term("3^100000000"), {}, TOTAL_Q)),
        lambda: _refused(lambda: eval_formula(parse_formula("3^100000000 = 0"), LPMD, {}, TOTAL_Q)),
        lambda: _refused(lambda: verify_axiom_spec(
            AxiomSpec("huge", parse_formula("x^100000000 = 2^100000000")), TOTAL_Q)),
        *(lambda c=c: lint(parse_corpus((CORPORA / "huge_power.mcorpus").read_text()), c) for c in Convention),
    ], ids=[*(f"lint-{c.value}" for c in Convention), "eval_partial", "eval_formula",
            "catalog-gf11", "catalog-rationals", "eval_partial-refused", "eval_formula-refused",
            "verify_axiom_spec-refused", *(f"lint-huge-power-{c.value}" for c in Convention)])
    def test_leaves_no_cyclic_garbage(self, run):
        gc.disable()
        try:
            gc.collect()
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()
