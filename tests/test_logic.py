import itertools
import random
from fractions import Fraction

import pytest

from generators import random_formula, random_rational, random_scoped_formula
from oracle import AND_TABLES, NOT_TABLE, OR_TABLES, oracle_formula
from meadowkit.carriers import RATIONALS, FiniteProbeSet, PowerBoundError, PrimeField
from meadowkit.logic import (
    LPMD,
    ConnectiveFamily,
    EqualityKind,
    LogicConfig,
    NonEnumerableCarrierError,
    QuantifierFamily,
    TruthValue,
    classify_sentence,
    compile_formula,
    connective_table,
    eval_formula,
    parse_logic_config,
)
from meadowkit.parser import parse_formula, parse_term
from meadowkit.semantics import Mode, StructureSpec, UnboundVariableError
from meadowkit.terms import Div, Eq, Inv, _contains, free_vars

T, F, U = TruthValue.T, TruthValue.F, TruthValue.U
TV = (T, F, U)

#: Each family's truth tables, by family.
TABLES = {family: connective_table(family) for family in ConnectiveFamily}

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

    @pytest.mark.parametrize("kind, value", [
        (EqualityKind.WEAK, U), (EqualityKind.EXISTENTIAL, F), (EqualityKind.STRONG, T),
    ])
    def test_equal_sides_with_a_punched_row(self, kind, value):
        # the two sides are equal columns, yet x = 0 punches both
        f = parse_formula("x/x = x/x")
        s = StructureSpec(PrimeField(5), Mode.PUNCH_DIV_ALL0)
        assert eval_formula(f, equality(kind), {"x": 0}, s) is value
        assert compile_formula(f, equality(kind), s)({"x": [1, 0, 2]}, 3) == [T, value, T]

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
        assert TABLES[ConnectiveFamily.MCCARTHY_LEFT]["or"][U, T] is U
        assert TABLES[ConnectiveFamily.MCCARTHY_LEFT]["or"][T, U] is T

    def test_kleene_is_monotonic_disjunction(self):
        assert TABLES[ConnectiveFamily.KLEENE]["or"][U, T] is T

    def test_bochvar_implication_strict(self):
        assert TABLES[ConnectiveFamily.BOCHVAR]["implies"][F, U] is U

    def test_mccarthy_right_reverses_operands(self):
        assert TABLES[ConnectiveFamily.MCCARTHY_RIGHT]["or"][U, T] is T
        assert TABLES[ConnectiveFamily.MCCARTHY_RIGHT]["or"][T, U] is U

    def test_negation_shared_by_all_families(self):
        for family in ConnectiveFamily:
            nots = TABLES[family]["not"]
            assert nots[T] is F and nots[F] is T and nots[U] is U

    def test_bochvar_strictness_exhaustive(self):
        tables = TABLES[ConnectiveFamily.BOCHVAR]
        for a, b in itertools.product(TV, repeat=2):
            if a is U or b is U:
                assert tables["and"][a, b] is U
                assert tables["or"][a, b] is U
                assert tables["implies"][a, b] is U

    def test_kleene_monotone_in_information_order(self):
        # refining U to T or F never flips an already non-U output
        refinements = {T: [T], F: [F], U: [T, F, U]}
        for op in ("and", "or", "implies"):
            table = TABLES[ConnectiveFamily.KLEENE][op]
            for a, b in itertools.product(TV, repeat=2):
                out = table[a, b]
                if out is U:
                    continue
                for a2 in refinements[a]:
                    for b2 in refinements[b]:
                        assert table[a2, b2] is out

    def test_mccarthy_right_is_exact_mirror(self):
        left, right = TABLES[ConnectiveFamily.MCCARTHY_LEFT], TABLES[ConnectiveFamily.MCCARTHY_RIGHT]
        for a, b in itertools.product(TV, repeat=2):
            assert right["and"][a, b] is left["and"][b, a]
            assert right["or"][a, b] is left["or"][b, a]

    def test_classical_agreement_on_two_valued_inputs(self):
        for family in ConnectiveFamily:
            for a, b in itertools.product((T, F), repeat=2):
                assert TABLES[family]["and"][a, b] is (T if a is T and b is T else F)
                assert TABLES[family]["or"][a, b] is (T if a is T or b is T else F)
                assert TABLES[family]["implies"][a, b] is (T if a is F or b is T else F)

    @pytest.mark.parametrize("family", ConnectiveFamily)
    def test_tables_match_the_oracle(self, family):
        tables = TABLES[family]
        assert {str(a): str(v) for a, v in tables["not"].items()} == NOT_TABLE
        for a, b in itertools.product(TV, repeat=2):
            cell = (str(a), str(b))
            assert str(tables["and"][a, b]) == AND_TABLES[family.value][cell]
            assert str(tables["or"][a, b]) == OR_TABLES[family.value][cell]
            assert str(tables["implies"][a, b]) == OR_TABLES[family.value][NOT_TABLE[str(a)], str(b)]

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
        kleene_and = TABLES[ConnectiveFamily.KLEENE]["and"]
        for a, b in itertools.product(TV, repeat=2):
            assert kleene_and[a, b] is kleene_and[b, a]
        for a, b, c in itertools.product(TV, repeat=3):
            assert kleene_and[kleene_and[a, b], c] is kleene_and[a, kleene_and[b, c]]
        f = parse_formula("forall x. x/x = 1")
        kleene = cfg("weak", "kleene", "kleene")
        for values in [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)), (Fraction(2), Fraction(0))]:
            s = StructureSpec(FiniteProbeSet(values=values), Mode.PUNCH_DIV_ALL0)
            folded = T
            for v in values:
                folded = kleene_and[folded, eval_formula(parse_formula("x/x = 1"), kleene, {"x": v}, s)]
            assert eval_formula(f, kleene, {}, s) is folded


#: The value of a row that meets an error, such as a power over the bound.
ERROR = PowerBoundError("a power over the bound")

#: An atom of each operand value over the rationals with q/0 punched,
#: in weak equality.
ATOMS = {T: "0 = 0", F: "0 = 1", U: "1/0 = 1", ERROR: "3^100000000 = 0"}

#: Per family: the first operand values of a & b (and of a | b) that
#: decide the row without the second, in left-to-right evaluation.
DECIDES = {
    ConnectiveFamily.BOCHVAR: ((U,), (U,)),
    ConnectiveFamily.KLEENE: ((F,), (T,)),
    ConnectiveFamily.MCCARTHY_LEFT: ((F, U), (T, U)),
}

#: The truth order F < U < T: Kleene's & is its minimum and | its maximum.
ORDER = {F: 0, U: 1, T: 2}


def _reference(family, op, a, b):
    """a op b evaluated row by row: an error raised by the operand
    evaluated first wins, and a decided first operand hides the second."""
    if op == "=>":
        op, a = "|", ERROR if a is ERROR else TABLES[family]["not"][a]
    if family is ConnectiveFamily.MCCARTHY_RIGHT:
        family, a, b = ConnectiveFamily.MCCARTHY_LEFT, b, a
    conjunctive = op == "&"
    if a is ERROR or a in DECIDES[family][not conjunctive]:
        return a
    if b is ERROR or (family is ConnectiveFamily.BOCHVAR and b is U):
        return b
    return (min if conjunctive else max)(a, b, key=ORDER.get)


class TestErrorsThroughEveryFold:
    @pytest.mark.parametrize("family", ConnectiveFamily)
    def test_connectives(self, family):
        # the compiled formula runs the closure its table does, on operands that may be errors
        names = {"&": "and", "|": "or", "=>": "implies"}
        config = LogicConfig(EqualityKind.WEAK, family, QuantifierFamily.BOCHVAR)
        for op, a, b in itertools.product(names, TV + (ERROR,), TV + (ERROR,)):
            expected = _reference(family, op, a, b)
            f = parse_formula(f"{ATOMS[a]} {op} {ATOMS[b]}")
            if expected is ERROR:
                with pytest.raises(PowerBoundError):
                    eval_formula(f, config, {}, PUNCH_ALL)
            else:
                assert eval_formula(f, config, {}, PUNCH_ALL) is expected, (op, a, b)
            if ERROR not in (a, b):
                assert TABLES[family][names[op]][a, b] is expected, (op, a, b)

    @pytest.mark.parametrize("quantifiers", QuantifierFamily)
    @pytest.mark.parametrize("quantifier", ["forall", "exists"])
    def test_quantifiers(self, quantifiers, quantifier):
        # 1, 0 and -1 are exempt from the power bound (carriers.MAX_POWER_BITS);
        # x in {2, -3, 1/2} meets it on a row that no earlier element closes
        values = tuple(map(Fraction, (1, 2, 0, -1, -3))) + (Fraction(1, 2),)
        s = StructureSpec(FiniteProbeSet(values=values), Mode.PUNCH_DIV_ALL0)
        top, mid = {  # the value that closes a row, and one it keeps while open
            ("forall", QuantifierFamily.BOCHVAR): (U, F), ("forall", QuantifierFamily.KLEENE): (F, U),
            ("exists", QuantifierFamily.BOCHVAR): (U, T), ("exists", QuantifierFamily.KLEENE): (T, U),
        }[quantifier, quantifiers]
        errors = 0
        for connectives, text in itertools.product(ConnectiveFamily, (
            "x/y = 1 | x^100000000 = y", "x = y & x^100000000 = 1/y", "x^100000000 = 1 => y/x = 1",
        )):
            config = LogicConfig(EqualityKind.WEAK, connectives, quantifiers)
            body = parse_formula(text)
            got = compile_formula(parse_formula(f"{quantifier} x. {text}"), config, s)(
                {"y": list(values)}, len(values))
            for y, value in zip(values, got):
                expected = T if quantifier == "forall" else F
                for x in values:  # the first `top` or error in element order
                    try:
                        row = eval_formula(body, config, {"x": x, "y": y}, s)
                    except PowerBoundError as error:
                        expected = error
                        break
                    if row is top:
                        expected = top
                        break
                    if row is mid:
                        expected = mid
                if isinstance(expected, PowerBoundError):
                    errors += 1
                    assert type(value) is PowerBoundError and str(value) == str(expected), (text, y)
                else:
                    assert value is expected, (config, text, y)
        assert 0 < errors < 4 * 3 * len(values)


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
        with pytest.raises(UnboundVariableError):
            classify_sentence(parse_formula("x = 1"), LPMD, PUNCH_ALL)

    def test_bound_free_names_make_a_sentence(self):
        f = parse_formula("x = 1")
        v = classify_sentence(f, LPMD, PUNCH_ALL, env={"x": Fraction(1)})
        assert v.usable and v.value is T
        with pytest.raises(UnboundVariableError, match="'y'"):
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
