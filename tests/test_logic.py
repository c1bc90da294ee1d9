import itertools
import random
from fractions import Fraction

import pytest

from generators import random_formula, random_rational, random_scoped_formula
from oracle import oracle_formula
from meadowkit.carriers import RATIONALS, FiniteProbeSet, PrimeField
from meadowkit.logic import (
    LPMD,
    ConnectiveFamily,
    EqualityKind,
    LogicConfig,
    NonEnumerableCarrierError,
    QuantifierFamily,
    TruthValue,
    and_tv,
    classify_sentence,
    connective_table,
    eval_formula,
    implies_tv,
    not_tv,
    or_tv,
    parse_logic_config,
)
from meadowkit.parser import parse_formula, parse_term
from meadowkit.semantics import Mode, StructureSpec
from meadowkit.terms import Div, Eq, Inv, _contains, free_vars

T, F, U = TruthValue.T, TruthValue.F, TruthValue.U
TV = (T, F, U)

TOTAL_Q = StructureSpec(RATIONALS)
PUNCH_ALL = StructureSpec(RATIONALS, Mode.PUNCH_DIV_ALL0)
PUNCH_ALL_GF7 = StructureSpec(PrimeField(7), Mode.PUNCH_DIV_ALL0)


def cfg(eq, conn, quant):
    return LogicConfig(EqualityKind(eq), ConnectiveFamily(conn), QuantifierFamily(quant))


def equality(kind):
    """LPMD with its equality kind replaced."""
    return LogicConfig(kind, LPMD.connectives, LPMD.quantifiers)


class TestEquality:
    def test_strong_equality_of_two_nondenoting_sides(self):
        f = parse_formula("1/0 = 1/0 + 1")
        assert eval_formula(f, equality(EqualityKind.STRONG), {}, PUNCH_ALL) is T

    def test_existential_equality_is_false_on_nondenoting(self):
        t = parse_term("1/0")
        assert eval_formula(Eq(t, t), equality(EqualityKind.EXISTENTIAL), {}, PUNCH_ALL) is F

    def test_weak_equality_is_undef_on_nondenoting(self):
        t = parse_term("1/0")
        assert eval_formula(Eq(t, t), equality(EqualityKind.WEAK), {}, PUNCH_ALL) is U

    def test_all_kinds_classical_when_denoting(self):
        lhs, rhs = parse_term("1 + 1"), parse_term("2")
        for kind in EqualityKind:
            assert eval_formula(Eq(lhs, rhs), equality(kind), {}, PUNCH_ALL) is T

    def test_strong_is_equivalence_on_partial_values(self):
        # terms denoting 0, 1, and two distinct non-denoting terms
        terms = [parse_term(s) for s in ("0", "1", "1/0", "2/0", "1 - 1")]
        def eq(a, b):
            return eval_formula(Eq(a, b), equality(EqualityKind.STRONG), {}, PUNCH_ALL)
        for a in terms:
            assert eq(a, a) is T
        for a, b in itertools.product(terms, repeat=2):
            assert eq(a, b) is eq(b, a)
        for a, b, c in itertools.product(terms, repeat=3):
            if eq(a, b) is T and eq(b, c) is T:
                assert eq(a, c) is T

    def test_existential_never_true_with_undefined_side(self):
        defined = parse_term("1")
        undefined = parse_term("1/0")
        for a, b in [(defined, undefined), (undefined, defined), (undefined, undefined)]:
            assert eval_formula(Eq(a, b), equality(EqualityKind.EXISTENTIAL), {}, PUNCH_ALL) is F


class TestConnectives:
    def test_mccarthy_left_is_sequential(self):
        assert or_tv(ConnectiveFamily.MCCARTHY_LEFT, U, T) is U
        assert or_tv(ConnectiveFamily.MCCARTHY_LEFT, T, U) is T

    def test_kleene_is_monotonic_disjunction(self):
        assert or_tv(ConnectiveFamily.KLEENE, U, T) is T

    def test_bochvar_implication_strict(self):
        assert implies_tv(ConnectiveFamily.BOCHVAR, F, U) is U

    def test_mccarthy_right_reverses_operands(self):
        assert or_tv(ConnectiveFamily.MCCARTHY_RIGHT, U, T) is T
        assert or_tv(ConnectiveFamily.MCCARTHY_RIGHT, T, U) is U

    def test_negation_shared_by_all_families(self):
        assert not_tv(T) is F and not_tv(F) is T and not_tv(U) is U

    def test_bochvar_strictness_exhaustive(self):
        for a, b in itertools.product(TV, repeat=2):
            if a is U or b is U:
                assert and_tv(ConnectiveFamily.BOCHVAR, a, b) is U
                assert or_tv(ConnectiveFamily.BOCHVAR, a, b) is U
                assert implies_tv(ConnectiveFamily.BOCHVAR, a, b) is U

    def test_kleene_monotone_in_information_order(self):
        # refining U to T or F never flips an already non-U output
        refinements = {T: [T], F: [F], U: [T, F, U]}
        for op in (and_tv, or_tv, implies_tv):
            for a, b in itertools.product(TV, repeat=2):
                out = op(ConnectiveFamily.KLEENE, a, b)
                if out is U:
                    continue
                for a2 in refinements[a]:
                    for b2 in refinements[b]:
                        assert op(ConnectiveFamily.KLEENE, a2, b2) is out

    def test_mccarthy_right_is_exact_mirror(self):
        for a, b in itertools.product(TV, repeat=2):
            assert and_tv(ConnectiveFamily.MCCARTHY_RIGHT, a, b) is and_tv(
                ConnectiveFamily.MCCARTHY_LEFT, b, a
            )
            assert or_tv(ConnectiveFamily.MCCARTHY_RIGHT, a, b) is or_tv(
                ConnectiveFamily.MCCARTHY_LEFT, b, a
            )

    def test_classical_agreement_on_two_valued_inputs(self):
        for family in ConnectiveFamily:
            for a, b in itertools.product((T, F), repeat=2):
                assert and_tv(family, a, b) is (T if a is T and b is T else F)
                assert or_tv(family, a, b) is (T if a is T or b is T else F)
                assert implies_tv(family, a, b) is (T if a is F or b is T else F)

    def test_connective_table_shape(self):
        tables = connective_table(ConnectiveFamily.MCCARTHY_LEFT)
        assert set(tables) == {"not", "and", "or", "implies"}
        assert len(tables["or"]) == 9 and len(tables["not"]) == 3
        assert tables["or"][(U, T)] is U


class TestEvalFormula:
    def test_lpmd_vacuous_implication_is_true(self):
        assert eval_formula(parse_formula("0 != 0 => 0/0 = 1"), LPMD, {}, PUNCH_ALL) is T

    def test_lpmd_left_true_disjunction_is_true(self):
        assert eval_formula(parse_formula("0 = 0 | 0/0 = 1"), LPMD, {}, PUNCH_ALL) is T

    def test_lpmd_left_undef_disjunction_is_undef(self):
        assert eval_formula(parse_formula("0/0 = 1 | 0 = 0"), LPMD, {}, PUNCH_ALL) is U

    def test_bochvar_vacuous_implication_is_undef(self):
        c = cfg("weak", "bochvar", "bochvar")
        assert eval_formula(parse_formula("0 != 0 => 0/0 = 1"), c, {}, PUNCH_ALL) is U

    def test_kleene_quantifiers_over_gf7(self):
        c = cfg("weak", "kleene", "kleene")
        assert eval_formula(parse_formula("forall x. x/x = 1"), c, {}, PUNCH_ALL_GF7) is U
        assert eval_formula(parse_formula("exists x. x/x = 1"), c, {}, PUNCH_ALL_GF7) is T

    def test_bochvar_quantifiers_over_gf7(self):
        c = cfg("weak", "kleene", "bochvar")
        assert eval_formula(parse_formula("forall x. x/x = 1"), c, {}, PUNCH_ALL_GF7) is U
        assert eval_formula(parse_formula("exists x. x/x = 1"), c, {}, PUNCH_ALL_GF7) is U

    def test_quantifier_families_differ_over_gf3(self):
        s = StructureSpec(PrimeField(3), Mode.PUNCH_DIV_ALL0)
        f = parse_formula("forall x. x/x = 0")
        assert eval_formula(f, cfg("weak", "kleene", "kleene"), {}, s) is F
        assert eval_formula(f, cfg("weak", "kleene", "bochvar"), {}, s) is U

    def test_lpmd_guarded_universal_is_true(self):
        s = StructureSpec(PrimeField(7), Mode.PUNCH_INV0)
        f = parse_formula("forall x. x != 0 => x*x^-1 = 1")
        assert eval_formula(f, LPMD, {}, s) is T

    def test_ordering_atoms(self):
        assert eval_formula(parse_formula("1 > 0"), LPMD, {}, PUNCH_ALL) is T
        assert eval_formula(parse_formula("1 < 0"), LPMD, {}, PUNCH_ALL) is F
        assert eval_formula(parse_formula("1/0 > 0"), LPMD, {}, PUNCH_ALL) is U
        c = cfg("existential", "kleene", "bochvar")
        assert eval_formula(parse_formula("1/0 > 0"), c, {}, PUNCH_ALL) is F

    def test_quantifier_over_rationals_rejected(self):
        with pytest.raises(NonEnumerableCarrierError):
            eval_formula(parse_formula("forall x. x = x"), LPMD, {}, PUNCH_ALL)

    def test_probe_set_supports_quantifiers(self):
        probe = FiniteProbeSet(values=(Fraction(0), Fraction(1), Fraction(1, 2)))
        s = StructureSpec(probe, Mode.PUNCH_DIV_ALL0)
        assert eval_formula(parse_formula("forall x. x/x = 1"), LPMD, {}, s) is U

    def test_classical_agreement_on_division_free_formulas(self):
        rng = random.Random(11)
        configs = [
            LogicConfig(e, c, q)
            for e in EqualityKind
            for c in ConnectiveFamily
            for q in QuantifierFamily
        ]
        for _ in range(150):
            f = random_formula(rng, depth=3)
            while _contains(f, (Div, Inv)):
                f = random_formula(rng, depth=3)
            env = {n: random_rational(rng) for n in free_vars(f)}
            expected = eval_formula(f, LPMD, env, TOTAL_Q)
            for c in configs:
                assert eval_formula(f, c, env, PUNCH_ALL) is expected

    def test_bochvar_quantifier_order_independent(self):
        values = (Fraction(0), Fraction(1), Fraction(2))
        f = parse_formula("forall x. x/x = 1")
        results = set()
        for perm in itertools.permutations(values):
            s = StructureSpec(FiniteProbeSet(values=perm), Mode.PUNCH_DIV_ALL0)
            results.add(eval_formula(f, LPMD, {}, s))
        assert results == {U}

    def test_kleene_quantifier_equals_connective_fold(self):
        # Kleene conjunction is commutative and associative, so the
        # quantifier fold cannot depend on enumeration order.
        for a, b in itertools.product(TV, repeat=2):
            assert and_tv(ConnectiveFamily.KLEENE, a, b) is and_tv(ConnectiveFamily.KLEENE, b, a)
        for a, b, c in itertools.product(TV, repeat=3):
            assert and_tv(
                ConnectiveFamily.KLEENE, and_tv(ConnectiveFamily.KLEENE, a, b), c
            ) is and_tv(ConnectiveFamily.KLEENE, a, and_tv(ConnectiveFamily.KLEENE, b, c))
        f = parse_formula("forall x. x/x = 1")
        kleene = cfg("weak", "kleene", "kleene")
        for values in [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(0))]:
            s = StructureSpec(FiniteProbeSet(values=values), Mode.PUNCH_DIV_ALL0)
            folded = T
            for v in values:
                folded = and_tv(
                    ConnectiveFamily.KLEENE,
                    folded,
                    eval_formula(parse_formula("x/x = 1"), kleene, {"x": v}, s),
                )
            assert eval_formula(f, kleene, {}, s) is folded


class TestClassify:
    def test_usable_true(self):
        f = parse_formula("0 != 0 => 0/0 = 1")
        v = classify_sentence(f, LPMD, PUNCH_ALL)
        assert v.usable and v.value is T
        assert str(v) == "USABLE(T)"

    def test_unusable(self):
        f = parse_formula("0/0 = 1 | 0 = 0")
        v = classify_sentence(f, LPMD, PUNCH_ALL)
        assert not v.usable and v.value is None
        assert str(v) == "UNUSABLE"

    def test_trivial_truth(self):
        v = classify_sentence(parse_formula("1 = 1"), LPMD, PUNCH_ALL)
        assert v.usable and v.value is T

    def test_open_formula_rejected(self):
        with pytest.raises(ValueError):
            classify_sentence(parse_formula("x = 1"), LPMD, PUNCH_ALL)

    def test_bound_free_names_make_a_sentence(self):
        f = parse_formula("x = 1")
        v = classify_sentence(f, LPMD, PUNCH_ALL, env={"x": Fraction(1)})
        assert v.usable and v.value is T
        with pytest.raises(ValueError):
            classify_sentence(parse_formula("x = y"), LPMD, PUNCH_ALL, env={"x": Fraction(1)})


ALL_CONFIGS = [
    LogicConfig(e, c, q)
    for e in EqualityKind for c in ConnectiveFamily for q in QuantifierFamily
]


def _agrees_with_oracle(f, env, p, mode, config):
    got = eval_formula(f, config, env, StructureSpec(PrimeField(p), mode))
    expected = oracle_formula(
        f, env, p, mode.value, config.equality.value,
        config.connectives.value, config.quantifiers.value,
    )
    return str(got) == expected


class TestLexicalScope:
    """A quantifier's body sees its name's column in place of the outer
    one: an inner quantifier over a bound name shadows it, and a
    quantified name given by a binding is the quantifier's inside its body
    and the binding's outside."""

    @pytest.mark.parametrize("text, env, value", [
        ("forall x. exists x. x*x = x", {}, T),
        ("exists x. x = 1 & (forall x. x = x) & x = 1", {}, T),
        ("forall x. (exists x. x = 0) & x = x", {}, T),
        ("x = 1 & (forall x. x = 1)", {"x": 1}, F),
        ("(forall x. x*0 = 0) & x = 1", {"x": 1}, T),
        ("(exists x. x = 2) & x = 1", {"x": 1}, T),
        ("exists y. y = x & (forall x. y*x = y*x)", {"x": 3}, T),
    ])
    def test_hand_written(self, text, env, value):
        f = parse_formula(text)
        assert eval_formula(f, LPMD, env, StructureSpec(PrimeField(5))) is value
        assert _agrees_with_oracle(f, env, 5, Mode.TOTAL, LPMD)

    def test_agrees_with_oracle_on_rebound_names(self):
        rng = random.Random(2024)
        for p in (2, 3, 5, 7):
            for mode in Mode:
                for config in ALL_CONFIGS:
                    for _ in range(3):
                        f = random_scoped_formula(rng, depth=4)
                        env = {n: rng.randrange(p) for n in ("x", "y")}
                        assert _agrees_with_oracle(f, env, p, mode, config), (f, env, p, mode, config)


class TestConfigParsing:
    def test_lpmd_alias(self):
        assert parse_logic_config("lpmd") == LPMD

    def test_explicit_selectors(self):
        c = parse_logic_config("strong,kleene,kleene")
        assert c == cfg("strong", "kleene", "kleene")

    @pytest.mark.parametrize("text", ["weak,kleene", "weird,kleene,kleene", ""])
    def test_invalid_config(self, text):
        with pytest.raises(ValueError):
            parse_logic_config(text)
