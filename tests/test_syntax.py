import random
import re

import pytest

from generators import (
    random_closed_quantified_formula,
    random_formula,
    random_scoped_formula,
    random_term,
)
from meadowkit.parser import MAX_DEPTH, ParseError, parse_formula, parse_term
from meadowkit.printer import print_formula, print_term
from meadowkit.terms import (
    ONE,
    ZERO,
    Add,
    And,
    Div,
    Eq,
    Exists,
    Forall,
    Gt,
    Implies,
    Inv,
    Lt,
    Mul,
    Neg,
    Not,
    NumLit,
    One,
    Or,
    Pow,
    Term,
    Var,
    Zero,
    children,
    _contains,
    free_vars,
    rebuild,
    to_divisive,
    to_inversive,
)

X, Y, Z = Var("x"), Var("y"), Var("z")


def _left_chain(cls, leaf, depth=MAX_DEPTH):
    node = leaf
    for _ in range(depth):
        node = cls(node, leaf)
    return node


def _nest(build, node, depth):
    for _ in range(depth):
        node = build(node)
    return node


_ATOM = Eq(X, X)  # one level deep
#: For each node class, a node MAX_DEPTH deep whose longest path repeats
#: that class wherever its sort allows it, and prints with no parentheses.
_CHAINS = {
    Zero: lambda: _left_chain(Add, ZERO),
    One: lambda: _left_chain(Mul, ONE),
    NumLit: lambda: _left_chain(Div, NumLit(7)),
    Var: lambda: _left_chain(Add, X),
    Add: lambda: _left_chain(Add, X),
    Mul: lambda: _left_chain(Mul, X),
    Div: lambda: _left_chain(Div, X),
    Neg: lambda: _nest(Neg, X, MAX_DEPTH),
    Inv: lambda: _nest(Inv, X, MAX_DEPTH),
    Pow: lambda: _nest(lambda t: Pow(t, 2), X, MAX_DEPTH),
    Eq: lambda: Eq(_left_chain(Add, X, MAX_DEPTH - 1), X),
    Gt: lambda: Gt(X, _left_chain(Mul, X, MAX_DEPTH - 1)),
    Lt: lambda: Lt(_left_chain(Div, X, MAX_DEPTH - 1), ONE),
    Not: lambda: _nest(Not, _ATOM, MAX_DEPTH - 1),
    And: lambda: _left_chain(And, _ATOM, MAX_DEPTH - 1),
    Or: lambda: _left_chain(Or, _ATOM, MAX_DEPTH - 1),
    Implies: lambda: _nest(lambda f: Implies(_ATOM, f), _ATOM, MAX_DEPTH - 1),
    Forall: lambda: _nest(lambda f: Forall("x", f), _ATOM, MAX_DEPTH - 1),
    Exists: lambda: _nest(lambda f: Exists("y", f), _ATOM, MAX_DEPTH - 1),
}


class TestParseTerm:
    def test_one_over_zero(self):
        assert parse_term("1/0") == Div(ONE, ZERO)

    def test_restricted_inverse_lhs(self):
        assert parse_term("x*(x*x^-1)") == Mul(X, Mul(X, Inv(X)))

    def test_reflection_lhs(self):
        assert parse_term("1/(1/x)") == Div(ONE, Div(ONE, X))

    def test_precedence(self):
        assert parse_term("x + y*z") == Add(X, Mul(Y, Z))
        assert parse_term("-x*y") == Mul(Neg(X), Y)
        assert parse_term("x - y") == Add(X, Neg(Y))
        assert parse_term("x/y/z") == Div(Div(X, Y), Z)
        assert parse_term("x^-1^-1") == Inv(Inv(X))

    def test_numerals(self):
        assert parse_term("0") == ZERO
        assert parse_term("1") == ONE
        assert parse_term("7") == NumLit(7)

    def test_power_sugar(self):
        assert parse_term("x^2") == Pow(X, 2)
        assert parse_term("x^4") == Pow(X, 4)
        assert parse_term("x^0") == Pow(X, 0)
        assert parse_term("x^1") == Pow(X, 1)
        assert parse_term("x^2^3") == Pow(Pow(X, 2), 3)
        assert parse_term("-x^2") == Neg(Pow(X, 2))
        assert parse_term("x^-1^2") == Pow(Inv(X), 2)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_term("x + * y")
        assert err.value.position == 4

    @pytest.mark.parametrize("text", [
        "", "x +", "(x", "x^-2", "1 2", "x$",
        # a formula where a term is needed
        "(x = 1) + 2", "-(x = 1)", "x = 1", "(x = 1)^2",
    ])
    def test_malformed_input(self, text):
        with pytest.raises(ParseError):
            parse_term(text)


class TestParseFormula:
    def test_general_division_law(self):
        assert parse_formula("forall x. x != 0 => x/x = 1") == Forall(
            "x", Implies(Not(Eq(X, ZERO)), Eq(Div(X, X), ONE))
        )

    def test_mccarthy_separating_example(self):
        assert parse_formula("0/0 = 1 | 0 = 0") == Or(
            Eq(Div(ZERO, ZERO), ONE), Eq(ZERO, ZERO)
        )

    def test_smallest_atom(self):
        assert parse_formula("x = x") == Eq(X, X)

    def test_neq_is_sugar_for_not_eq(self):
        assert parse_formula("x != 0") == Not(Eq(X, ZERO))

    def test_connective_precedence(self):
        f = parse_formula("!x = 0 & y = 0 | z = 0 => x = 1")
        assert isinstance(f, Implies)
        assert isinstance(f.left, Or)
        assert isinstance(f.left.left, And)
        assert isinstance(f.left.left.left, Not)

    def test_parenthesized_formula_vs_term(self):
        assert parse_formula("(x + 1) > 0") == parse_formula("x + 1 > 0")
        assert parse_formula("(x = 1)") == Eq(X, ONE)

    def test_quantifier_extends_right(self):
        f = parse_formula("forall x. x = 0 | x = 1")
        assert isinstance(f, Forall)
        assert isinstance(f.body, Or)

    @pytest.mark.parametrize("text", [
        "forall . x = 1", "x =", "x == 1", "forall x x = 1",
        # an operand of the wrong sort
        "(x = 1) + 2", "x = y = z", "-(x = 1)", "x + (y = 1) = 0", "x", "!x", "x & y = 1",
        # a quantifier only starts the input or follows "(" or "."
        "x = 0 & forall y. y = 0", "!forall x. x = 0", "x = 0 => exists y. y = 0",
    ])
    def test_malformed_input(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)


class TestTokens:
    @pytest.mark.parametrize("parse, text, expected", [
        # an unexpected character at the start, mid-word, after spaces and last
        (parse_term, "$x", ("unexpected character '$'", 0)),
        (parse_term, "ab$c", ("unexpected character '$'", 2)),
        (parse_term, "x +    $", ("unexpected character '$'", 7)),
        (parse_term, "x + y#", ("unexpected character '#'", 5)),
        # ASCII whitespace is skipped; other whitespace is refused where it stands
        (parse_term, "\tx\n+\r1\f*\vy ", Add(X, Mul(ONE, Y))),
        (parse_term, "x +\x1c1", ("unexpected character '\\x1c'", 3)),
        (parse_term, "1 +\u30001", ("unexpected character '\\u3000'", 3)),
        (parse_term, "1\xa0+ 1", ("unexpected character '\\xa0'", 1)),
        # a keyword with more name characters is an identifier
        (parse_term, "forallx", Var("forallx")),
        (parse_formula, "exists_1 = 1", Eq(Var("exists_1"), ONE)),
        # two-character operators need no spaces
        (parse_formula, "x=1=>y!=1", Implies(Eq(X, ONE), Not(Eq(Y, ONE)))),
        (parse_formula, "x!=1", Not(Eq(X, ONE))),
        # empty and whitespace-only input: the end of input is at its end
        (parse_term, "", ("expected a term, found 'end of input'", 0)),
        (parse_formula, " \t\n ", ("expected a term, found 'end of input'", 4)),
    ])
    def test_tokens(self, parse, text, expected):
        if isinstance(expected, tuple):
            message, position = expected
            with pytest.raises(ParseError) as err:
                parse(text)
            assert str(err.value) == f"{message} (at position {position})"
            assert err.value.position == position
        else:
            assert parse(text) == expected


class TestDepthBound:
    @pytest.mark.parametrize("parse, shape", [
        (parse_term, lambda d: "(" * d + "x" + ")" * d),
        (parse_term, lambda d: "-" * d + "x"),
        (parse_term, lambda d: "x" + "^2" * d),
        (parse_term, lambda d: " + ".join(["x"] * (d + 1))),
        (parse_formula, lambda d: "x = 0" + " => x = 0" * (d - 1)),
        (parse_formula, lambda d: "forall x. " * (d - 1) + "x = 0"),
    ], ids=["parens", "prefix", "postfix", "left-sum", "right-implication", "quantifiers"])
    def test_operators_and_parentheses_share_one_bound(self, parse, shape):
        parse(shape(MAX_DEPTH))
        with pytest.raises(ValueError, match="^input nested too deeply$") as err:
            parse(shape(MAX_DEPTH + 1))
        assert not isinstance(err.value, ParseError)

    def test_unclosed_deep_input_is_refused_as_too_deep(self):
        # the operator stack is checked as it grows, before any ")" or the end
        with pytest.raises(ValueError, match="^input nested too deeply$"):
            parse_term("(" * 10**4)


class TestPrinting:
    def test_one_over_zero(self):
        assert print_term(Div(ONE, ZERO)) == "1/0"

    def test_parenthesizes_by_precedence(self):
        assert print_term(Mul(Add(X, Y), Z)) == "(x + y)*z"
        assert print_term(Div(X, Div(Y, Z))) == "x/(y/z)"
        assert print_term(Inv(Add(X, Y))) == "(x + y)^-1"
        assert print_term(Neg(Add(X, Y))) == "-(x + y)"

    def test_power_is_postfix(self):
        assert print_term(Pow(Add(X, Y), 2)) == "(x + y)^2"
        assert print_term(Pow(Inv(X), 2)) == "x^-1^2"
        assert print_term(Neg(Pow(X, 2))) == "-x^2"
        assert print_term(Pow(Neg(X), 2)) == "(-x)^2"
        assert print_term(Inv(Pow(X, 0))) == "x^0^-1"

    def test_formula_output(self):
        f = parse_formula("forall x. x != 0 => x/x = 1")
        assert print_formula(f) == "forall x. x != 0 => x/x = 1"

    def test_round_trip_random_terms(self):
        rng = random.Random(7)
        for _ in range(1000):
            t = random_term(rng, depth=5)
            assert parse_term(print_term(t)) == t

    def test_round_trip_random_formulas(self):
        rng = random.Random(8)
        for generate in (random_formula, random_scoped_formula, random_closed_quantified_formula):
            for _ in range(500):
                f = generate(rng, depth=3)
                assert parse_formula(print_formula(f)) == f

    def test_quantifier_is_parenthesized_after_a_connective(self):
        f = And(Eq(X, ZERO), Forall("y", Eq(Y, ZERO)))
        assert print_formula(f) == "x = 0 & (forall y. y = 0)"
        assert print_formula(Not(Exists("x", Eq(X, ZERO)))) == "!(exists x. x = 0)"


class TestTranslation:
    def test_div_becomes_inverse(self):
        assert to_inversive(Div(X, Y)) == Mul(X, Inv(Y))

    def test_inverse_becomes_div(self):
        assert to_divisive(Inv(X)) == Div(ONE, X)

    def test_identity_on_pure_terms(self):
        assert to_inversive(X) == X
        assert to_divisive(NumLit(7)) == NumLit(7)

    def test_totality_on_random_terms(self):
        rng = random.Random(9)
        for _ in range(500):
            t = random_term(rng, depth=5)
            assert not _contains(to_inversive(t), Div)
            assert not _contains(to_divisive(t), Inv)

    def test_involution_at_fixpoint(self):
        rng = random.Random(10)
        for _ in range(500):
            t = random_term(rng, depth=4)
            once = to_inversive(t)
            assert to_inversive(once) == once
            once_d = to_divisive(t)
            assert to_divisive(once_d) == once_d


class TestFreeVars:
    def test_term_vars(self):
        assert free_vars(parse_term("x/y")) == {"x", "y"}

    def test_bound_variable_removed(self):
        assert free_vars(parse_formula("forall x. x/x = 1")) == set()

    def test_mixed(self):
        assert free_vars(parse_formula("forall x. x/y = 1")) == {"y"}


class TestNodeEquality:
    def test_class_and_every_field_count(self):
        f = parse_formula("x = 1")
        assert Add(X, Y) != Add(Y, X)
        assert Add(X, Y) != Mul(X, Y)
        assert Eq(X, Y) != Gt(X, Y)
        assert Forall("x", f) != Forall("y", f)
        assert Forall("x", f) != Exists("x", f)
        assert Pow(X, 2) != Pow(X, 3)
        assert NumLit(2) != NumLit(3)

    def test_equal_parses_are_equal_with_equal_hashes(self):
        rng = random.Random(16)
        for _ in range(100):
            text = print_formula(random_closed_quantified_formula(rng, depth=3))
            a, b = parse_formula(text), parse_formula(text)
            assert a is not b and a == b and hash(a) == hash(b), text

    def test_equality_agrees_with_printed_text(self):
        f = parse_formula("x = 1")
        for a, b in [(Add(X, Y), Add(Y, X)), (Add(X, Y), Mul(X, Y)), (Eq(X, Y), Gt(X, Y)),
                     (Forall("x", f), Forall("y", f)), (Forall("x", f), Exists("x", f)),
                     (Pow(X, 2), Pow(X, 3)), (NumLit(2), NumLit(3))]:
            assert a != b and a == a and not a == b
        rng = random.Random(17)
        for _ in range(200):
            a, b = random_formula(rng, depth=3), random_formula(rng, depth=3)
            assert (a == b) == (print_formula(a) == print_formula(b))
            assert a == parse_formula(print_formula(a))

    def test_equality_walks_a_term_at_the_depth_bound(self):
        text = "x" + " + 1" * (MAX_DEPTH - 1)
        a, b = parse_term(text), parse_term(text)
        assert a == b and a != Add(a.left, ZERO) and hash(a) == hash(b)

    @pytest.mark.parametrize("cls", sorted(_CHAINS, key=lambda cls: cls.__name__))
    def test_every_node_class_at_the_depth_bound(self, cls):
        node = _CHAINS[cls]()
        parse, show = (parse_term, print_term) if isinstance(node, Term) else (parse_formula, print_formula)
        text = show(node)
        twin, other = parse(text), parse(re.sub(r"\b[017x]\b", "z", text, count=1))
        assert twin is not node and twin == node and hash(twin) == hash(node)
        assert other != node and not other == node
        assert repr(twin) == repr(node) and repr(node).count(cls.__name__ + "(") >= 1
        assert free_vars(node) <= {"x"}

    def test_repr_names_every_field(self):
        assert repr(Forall("x", Eq(Pow(X, 2), NumLit(7)))) == (
            "Forall(var='x', body=Eq(left=Pow(arg=Var(name='x'), n=2), right=NumLit(value=7)))"
        )
        assert repr(Not(Eq(ZERO, ONE))) == "Not(arg=Eq(left=Zero(), right=One()))"

    def test_fields_cannot_be_assigned(self):
        node = Add(X, Y)
        for name in ("left", "right", "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, ZERO)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert node == Add(left=X, right=Y) and node.left is X


class TestTraversal:
    def test_rebuild_from_children_is_identity(self):
        rng = random.Random(12)
        for _ in range(200):
            f = random_formula(rng, depth=3)
            for root in (f, Forall("x", f), Exists("y", f)):
                stack = [root]
                while stack:
                    node = stack.pop()
                    kids = children(node)
                    assert rebuild(node, kids) == node
                    stack.extend(kids)

    def test_binary_children_in_textual_order(self):
        assert children(Div(X, Y)) == (X, Y)
        assert children(Add(X, Y)) == (X, Y)
        assert children(Eq(X, Y)) == (X, Y)

    def test_power_keeps_its_exponent(self):
        assert children(Pow(X, 3)) == (X,)
        assert rebuild(Pow(X, 3), (Y,)) == Pow(Y, 3)
        assert free_vars(Pow(X, 0)) == {"x"}

    def test_non_node_rejected(self):
        with pytest.raises(TypeError):
            children(object())
        with pytest.raises(TypeError):
            rebuild(object(), ())
