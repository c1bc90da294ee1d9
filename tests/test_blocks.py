"""Column evaluation: one compiled closure computes a block of rows.

Blocks of 1, 2, 7 and semantics.BLOCK rows must give, row for row, what
the independent oracle gives one environment at a time; a sweep must
stop, fail and raise where a row-by-row loop does.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from generators import (
    random_closed_quantified_formula,
    random_formula,
    random_scoped_formula,
    random_term,
)
from oracle import oracle_formula, oracle_term
from meadowkit import logic, semantics
from meadowkit.carriers import RATIONALS, PowerBoundError, PrimeField
from meadowkit.cli import main
from meadowkit.lint import find_zero_witness
from meadowkit.logic import (
    LPMD,
    ConnectiveFamily,
    EqualityKind,
    LogicConfig,
    QuantifierFamily,
    compile_formula,
    eval_formula,
)
from meadowkit.parser import parse_formula, parse_term
from meadowkit.printer import print_formula, print_term
from meadowkit.semantics import AxiomSpec, Mode, StructureSpec, compile_term, verify_axiom_spec
from meadowkit.terms import Forall, Pow, Term, children, free_vars, rebuild
from test_lint import _exact_sweep

SIZES = (1, 2, 7, semantics.BLOCK)
NAMES = ("x", "y", "z")
ALL_CONFIGS = [
    LogicConfig(e, c, q) for e in EqualityKind for c in ConnectiveFamily for q in QuantifierFamily
]


@pytest.fixture(params=SIZES, ids=lambda size: f"block{size}")
def block(request, monkeypatch):
    """Sweeps and quantifier groups of at most this many rows."""
    monkeypatch.setattr(semantics, "BLOCK", request.param)
    return request.param


def blocks(envs, size):
    """The environments in blocks of `size` rows (the last one shorter),
    each with its frame over NAMES."""
    for start in range(0, len(envs), size):
        rows = envs[start:start + size]
        yield rows, {name: [env[name] for env in rows] for name in NAMES}


class TestTermColumns:
    def test_rows_agree_with_the_oracle(self, block):
        rng = random.Random(block)
        for p, mode in itertools.product((2, 3, 5, 7), Mode):
            s = StructureSpec(PrimeField(p), mode)
            for _ in range(12):
                t = random_term(rng, depth=4)
                fn = compile_term(t, s)
                envs = [{n: rng.randrange(p) for n in NAMES} for _ in range(min(3 * block + 1, 25))]
                for rows, frame in blocks(envs, block):
                    undefined = {}
                    values = fn(frame, len(rows), undefined)
                    got = [None if i in undefined else v for i, v in enumerate(values)]
                    assert got == [oracle_term(t, env, p, mode.value) for env in rows], (t, mode)

    def test_one_block_holds_defined_and_undefined_rows(self):
        fn = compile_term(parse_term("1/x + 2"), StructureSpec(PrimeField(5), Mode.PUNCH_DIV_ALL0))
        undefined = {}
        values = fn({"x": [0, 1, 0, 2]}, 4, undefined)
        assert undefined.keys() == {0, 2}
        assert (values[1], values[3]) == (3, 0)  # 1/1 + 2 and 1/2 + 2 = 3 + 2 in GF(5)

    def test_a_power_skips_rows_that_are_already_undefined(self):
        # as row by row: 1/x leaves row 0 undefined before the power is
        # reached, so 3^10000000000 is never computed there; written the
        # other way round, the power comes first and is over the size bound
        s = StructureSpec(RATIONALS, Mode.PUNCH_DIV_ALL0)
        fn = compile_term(parse_term("1/x + (x + 3)^10000000000"), s)
        undefined = {}
        fn({"x": [Fraction(0), Fraction(-3)]}, 2, undefined)
        assert undefined == {0: None}
        fn = compile_term(parse_term("(x + 3)^10000000000 + 1/x"), s)
        undefined = {}
        fn({"x": [Fraction(0)]}, 1, undefined)
        with pytest.raises(ValueError, match="^3 to the power 10000000000"):
            raise undefined[0]


class TestFormulaColumns:
    def test_open_formulas_agree_with_the_oracle(self, block):
        rng = random.Random(10 + block)
        for config in ALL_CONFIGS:
            for p, mode in ((3, rng.choice(list(Mode))), (5, rng.choice(list(Mode)))):
                s = StructureSpec(PrimeField(p), mode)
                f = random_formula(rng, depth=3)
                fn = compile_formula(f, config, s)
                envs = [{n: rng.randrange(p) for n in NAMES} for _ in range(min(2 * block + 1, 25))]
                for rows, frame in blocks(envs, block):
                    got = [str(v) for v in fn(frame, len(rows))]
                    assert got == [_oracle(f, env, p, mode, config) for env in rows], (f, config)

    @pytest.mark.parametrize("p", [251, 257])  # byte columns with per-row sums and products, and lists
    def test_quantified_formulas_on_either_side_of_a_byte_agree_with_the_oracle(self, p):
        rng = random.Random(p)
        for text, config in (("forall x. exists y. x*y = 1", LPMD),
                             ("forall x. exists y. x = 0 | x/x = y^2", rng.choice(ALL_CONFIGS))):
            f, mode = parse_formula(text), rng.choice(list(Mode))
            s = StructureSpec(PrimeField(p), mode)
            assert str(eval_formula(f, config, {}, s)) == _oracle(f, {}, p, mode, config), (text, config)
        for _ in range(8):  # one quantifier over a random body, the other names bound
            f = Forall("x", random_formula(rng, depth=3))
            config, mode = rng.choice(ALL_CONFIGS), rng.choice(list(Mode))
            env = {"y": rng.randrange(p), "z": rng.randrange(p)}
            got = eval_formula(f, config, env, StructureSpec(PrimeField(p), mode))
            assert str(got) == _oracle(f, env, p, mode, config), (f, config)

    def test_quantified_formulas_agree_with_the_oracle(self, block):
        rng = random.Random(20 + block)
        for config in ALL_CONFIGS:
            for p in (2, 3, 5):
                mode = rng.choice(list(Mode))
                s = StructureSpec(PrimeField(p), mode)
                closed = random_closed_quantified_formula(rng, depth=3)
                assert str(eval_formula(closed, config, {}, s)) == _oracle(closed, {}, p, mode, config)
                scoped = random_scoped_formula(rng, depth=3)
                env = {n: rng.randrange(p) for n in ("x", "y")}
                assert str(eval_formula(scoped, config, env, s)) == _oracle(scoped, env, p, mode, config)


def _law_loop(spec, s, samples, seed):
    """verify_axiom_spec as a plain loop: (samples, witness) of the first
    environment where the law is not T."""
    names = sorted(free_vars(spec.formula))
    if s.carrier.enumerable:
        envs = itertools.product(s.carrier.elements(), repeat=len(names))
    else:
        rng = random.Random(seed)
        envs = (tuple(semantics.random_rational(rng) for _ in names) for _ in range(samples if names else 1))
    checked = 0
    for checked, row in enumerate(envs, 1):
        env = dict(zip(names, row))
        if eval_formula(spec.formula, LPMD, env, s) is not logic.T:
            return checked, env
    return checked, None


class TestAxiomSweep:
    # the three-variable laws fit in one block over GF(13); over GF(17)
    # they take 4,913 rows, and `x != 15 | y + z != 0` fails at row 4,336
    @pytest.mark.parametrize("carrier", [PrimeField(p) for p in (5, 7, 13, 17)] + [RATIONALS], ids=str)
    def test_witness_and_samples_match_a_plain_loop(self, block, carrier):
        rng = random.Random(30 + block)
        s = StructureSpec(carrier)
        laws = [random_formula(rng, depth=2) for _ in range(40)]
        laws += map(parse_formula, ("x + (y + z) = (x + y) + z", "x != 15 | y + z != 0", "x*y*z != 12 | x = y"))
        failing = 0
        for i, f in enumerate(laws):
            spec = AxiomSpec("law", f)
            report = verify_axiom_spec(spec, s, samples=60, seed=i)
            assert (report.samples, report.witness) == _law_loop(spec, s, 60, i), spec
            failing += not report.passed
        assert failing > 10

    def test_a_failing_row_before_a_raising_row_is_reported(self, block):
        # the first sampled x (seed 0) is positive and fails; a later
        # negative x would need x^10000000, over the size bound
        spec = AxiomSpec("law", parse_formula("x < 0 & x^10000000 = 1"))
        report = verify_axiom_spec(spec, StructureSpec(RATIONALS), samples=50, seed=0)
        assert report.format_line() == (
            "FAIL axiom=x < 0 & x^10000000 = 1 samples=1 witness=x=1312/1891"
        )


class TestProductBlocks:
    def test_columns_are_those_of_itertools_product(self, block):
        # values as a column of the frame's type and as a range; with more
        # values than a block, a block's last column wraps round
        cases = [(column, values, names) for column in (bytes, list) for values, names in (
            (column(range(5)), "xyz"), (range(5), "xyz"), (column(range(2)), "abcd"),
            (range(7), ""), (column(range(40)), "xy"))]
        cases.append((list, tuple("abc"), "pq"))
        for column, values, names in cases:
            rows = []
            for frame, n in semantics.product_blocks(values, names, column):
                assert list(frame) == list(names)
                assert all(type(c) is column and len(c) == n for c in frame.values())
                rows += list(zip(*frame.values())) if names else [()] * n
            assert rows == list(itertools.product(values, repeat=len(names)))

    @pytest.mark.parametrize("column", [bytes, list])
    def test_block_sizes_follow_the_column_type(self, block, column):
        # byte columns: BLOCK, ..., the remainder; list columns: 16, 32, ...
        schedule = [block] * 32 if column is bytes else [min(16 * 2**i, block) for i in range(32)]
        assert list(itertools.islice(semantics.block_sizes(column), 32)) == schedule
        for m, k in ((5, 3), (2, 4), (40, 2), (17, 3)):
            sizes = itertools.chain(schedule, itertools.repeat(block))
            got = [n for _, n in semantics.product_blocks(range(m), "xyzw"[:k], column)]
            expected, left = [], m**k
            for size in sizes:
                if not left:
                    break
                expected.append(min(size, left))
                left -= expected[-1]
            assert got == expected, (m, k)

    def test_a_byte_frame_of_one_block_is_built_once(self, block):
        for m, k in ((2, 0), (2, 1), (5, 1), (2, 2), (13, 3)):
            if m**k > block:
                continue
            (first, n), = semantics.product_blocks(range(m), "xyz"[:k], bytes)
            (again, _), = semantics.product_blocks(bytes(range(m)), "abc"[:k], bytes)
            assert n == m**k and all(type(c) is bytes for c in first.values())
            assert all(a is b for a, b in zip(first.values(), again.values(), strict=True))

    @pytest.mark.parametrize("p, law, line", [
        # list columns, more values than a block
        (4099, "x != 4098", "FAIL axiom=x != 4098 samples=4099 witness=x=4098"),
        # byte columns, x's period (67 * 67 rows) over a block
        (67, "x != 66 | y != 65", "FAIL axiom=x != 66 | y != 65 samples=4488 witness=x=66,y=65"),
        # byte columns, y's period over a block: a block's y values wrap round
        (67, "x != 66 | y != 65 | z != 64",
         "FAIL axiom=x != 66 | y != 65 | z != 64 samples=300694 witness=x=66,y=65,z=64"),
        # list columns, 17 blocks
        (257, "x != 256 | y != 255", "FAIL axiom=x != 256 | y != 255 samples=66048 witness=x=256,y=255"),
    ])
    def test_sweeps_past_one_block_at_the_real_block_size(self, p, law, line):
        # the witness is the last row, so every row of every block is computed
        report = verify_axiom_spec(AxiomSpec("law", parse_formula(law)), StructureSpec(PrimeField(p)))
        assert report.format_line() == line

    def test_narrowed_frames_keep_their_column_type(self):
        for column in (bytes, list):
            frame = {"x": column(range(5)), "y": column(range(5, 10))}
            narrowed = semantics.select_rows(frame, [1, 4])
            assert narrowed == {"x": column((1, 4)), "y": column((6, 9))}
            assert all(type(c) is column for c in narrowed.values())
            assert semantics.select_rows(frame, range(5)) is frame

    @pytest.mark.parametrize("column, rows, expected", [
        # byte columns: a group takes as many elements as fit a whole block
        (bytes, 1, [17]),
        (bytes, 250, [4000, 250]),
        # list columns: as many as fit 16, 32, ... rows, and at least one
        (list, 1, [16, 1]),
        (list, 250, [250, 250, 250, 250, 250, 500, 1000, 1500]),
    ])
    def test_quantifier_groups_follow_the_column_type(self, column, rows, expected):
        # at the real BLOCK; a body that is T on every row leaves every row open
        sizes = []

        def body(frame, n):
            sizes.append(n)
            return [logic.T] * n

        quantify = logic._quantifier(*logic._rule(QuantifierFamily.BOCHVAR, True), "x", body,
                                     range(17), column)
        frame = {"y": column(range(rows))}
        assert quantify(frame, rows) == [logic.T] * rows
        assert sizes == expected


class TestWitnessSweep:
    def test_agrees_with_the_exact_sweep(self, block):
        rng = random.Random(40 + block)
        for _ in range(30):
            names = NAMES[: rng.choice((1, 2))]
            t = random_term(rng, 3, names)
            nonzero = [random_term(rng, 2, names) for _ in range(rng.randint(0, 2))]
            extra = set().union(*map(free_vars, nonzero))
            expected = _exact_sweep(t, nonzero, sorted(free_vars(t) | extra))
            assert find_zero_witness(t, nonzero=nonzero, extra_vars=extra) == expected, (t, nonzero)

    def test_a_fact_raises_where_a_row_by_row_search_would(self, block):
        # x = -1/4 comes before the witness x = 1 and zeroes the fact's
        # residue, whose exact value is over the size bound
        fact = parse_term("x^10000000001 - (-1/4)^10000000001")
        with pytest.raises(PowerBoundError, match="^-1/4 to the power 10000000001"):
            find_zero_witness(parse_term("x - 1"), nonzero=[fact])
        # x = 1/2 comes after the witness x = 0, so it is never reached
        fact = parse_term("x^10000000001 - (1/2)^10000000001")
        assert find_zero_witness(parse_term("x"), nonzero=[fact]) == {"x": 0}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLaziness:
    def test_a_decided_row_skips_a_power_over_the_bound(self, capsys):
        # x = 1 decides the disjunction and the existential; x = 3 alone
        # would need 3^100000000
        assert run(capsys, "logic", "--carrier", "probe:1,3", "--logic", "weak,kleene,kleene",
                   "exists x. x = 1 | 3^100000000 = 0") == (0, "T\n", "")

    def test_an_undecided_row_still_raises(self, capsys):
        assert run(capsys, "logic", "--carrier", "probe:1,3", "forall x. x = 1 | 3^100000000 = 0") == (
            1, "", "error: 3 to the power 100000000 would take about 300000000 bits, "
            "over the bound of 4194304\n",
        )

    @pytest.mark.parametrize("probes, expected", [
        # y = 1 stops at x = 1; y = 3 at x = 3, before x = 3, y = 1 needs the power
        ("probe:1,3", (0, "T\n", "")),
        # y = 3 stops at x = 3, but y = 1 meets x = 3 first
        ("probe:3,1", (1, "", "error: 3 to the power 100000000 would take about 300000000 bits, "
                              "over the bound of 4194304\n")),
    ])
    def test_an_inner_group_meets_the_bound_on_one_of_its_open_rows(self, capsys, probes, expected):
        assert run(capsys, "logic", "--carrier", probes, "--logic", "weak,mccarthy-left,kleene",
                   "forall y. exists x. x = y | x^100000000 = 0") == expected

    @pytest.mark.parametrize("mode, punched", [("punch-div-all", "1/(x - 3)"), ("punch-inv", "(x - 3)^-1")])
    def test_the_first_reason_a_row_does_not_denote_wins(self, capsys, mode, punched):
        power = "(x + 3)^100000000"
        assert run(capsys, "eval", "--mode", mode, "-b", "x=3", f"{power} * ({punched})") == (
            1, "", "error: 6 to the power 100000000 would take about 400000000 bits, "
            "over the bound of 4194304\n",
        )
        assert run(capsys, "eval", "--mode", mode, "-b", "x=3", f"{punched} * {power}") == (
            3, "UNDEFINED\n", "",
        )

    def test_an_error_decides_its_row_before_the_other_operand(self, capsys):
        # Kleene's T on the right would decide, but a row-by-row evaluation
        # raises on the left first; strong equality computes the left side first
        assert run(capsys, "logic", "--logic", "weak,kleene,kleene", "3^100000000 = 0 | 1 = 1") == (
            1, "", "error: 3 to the power 100000000 would take about 300000000 bits, "
            "over the bound of 4194304\n",
        )
        assert run(capsys, "logic", "--logic", "strong,kleene,kleene", "2^100000000 = 3^100000000") == (
            1, "", "error: 2 to the power 100000000 would take about 300000000 bits, "
            "over the bound of 4194304\n",
        )

    def test_a_fact_raises_before_the_witness(self, capsys, tmp_path):
        corpus = tmp_path / "fact.mcorpus"
        corpus.write_text("hyp: 1/(x^10000000001 - (-1/4)^10000000001) = 2\nclaim: 1/(x - 1) = 1\n")
        code, out, err = run(capsys, "lint", "--convention", "division", str(corpus))
        assert (code, out.splitlines()[-1], err) == (
            3, "statement=1 pos=0 guarded=x - 1 verdict=UNKNOWN detail=-1/4 to the power 10000000001 "
            "would take about 40000000004 bits, over the bound of 4194304", "",
        )


def _raise_leaves(rng, node):
    """node with some term leaves raised to 10^8 or 10^7 + 1, which is
    over the power bound for every rational but 0, 1 and -1."""
    if isinstance(node, Term) and not children(node):
        return Pow(node, rng.choice((10**8, 10**7 + 1))) if rng.random() < 0.2 else node
    return rebuild(node, [_raise_leaves(rng, kid) for kid in children(node)])


def _hostile_commands(rng, tmp_path):
    """Seeded logic, axioms and lint commands whose leaves are sometimes
    raised over the power bound."""
    commands = []
    for mode, config in itertools.product(Mode, ALL_CONFIGS):
        probes = ",".join(map(str, rng.sample(range(-3, 4), rng.randint(2, 3))))
        f = _raise_leaves(rng, random_closed_quantified_formula(rng, depth=3))
        flags = ",".join(v.value for v in (config.equality, config.connectives, config.quantifiers))
        commands.append(["logic", "--carrier", f"probe:{probes}", "--mode", mode.value, "--logic", flags,
                         "--", print_formula(f)])
    for i in range(12):
        law = print_formula(_raise_leaves(rng, random_formula(rng, 2, ("x", "y"))))
        commands.append(["axioms", "--samples", "30", "--seed", str(i), "--extra", law])
    for i in range(24):
        lines = []
        for _ in range(rng.randint(2, 4)):
            guard = print_term(_raise_leaves(rng, random_term(rng, 2, ("x", "y"))))
            lines.append(f"{rng.choice(('hyp', 'claim'))}: {rng.randint(1, 3)}/({guard}) = {rng.randint(1, 3)}")
        corpus = tmp_path / f"hostile-{i}.mcorpus"
        corpus.write_text("\n".join(lines) + "\n")
        commands.append(["lint", "--convention", ("inversive", "division", "liberal-division")[i % 3], str(corpus)])
    return commands


class TestHostileInput:
    def test_every_block_size_gives_the_outputs_of_blocks_of_one_row(self, capsys, monkeypatch, tmp_path):
        # blocks of one row are row-by-row evaluation, errors included
        commands = _hostile_commands(random.Random(60), tmp_path)

        def outputs(size):
            monkeypatch.setattr(semantics, "BLOCK", size)
            return [run(capsys, *argv) for argv in commands]

        expected = outputs(1)
        bound = sum("over the bound" in out + err for _, out, err in expected)
        assert 40 < bound < len(commands) - 40
        for size in SIZES[1:]:
            assert outputs(size) == expected, size

class TestMemory:
    def test_a_quantifier_sweep_is_bounded_by_the_block(self, capsys):
        # 99991 elements, about 3.6 MB as one list of ints
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "logic", "--carrier", "gf99991", "forall x. x*x^-1 = 1 | x = 0")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (0, "T\n")
        assert peak < 2**20

    def test_an_axiom_sweep_is_bounded_by_the_block(self):
        spec = AxiomSpec("law", parse_formula("x + 0 = x"))
        tracemalloc.start()
        try:
            report = verify_axiom_spec(spec, StructureSpec(PrimeField(99991)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (report.passed, report.samples) == (True, 99991)
        assert peak < 2**20


def _oracle(f, env, p, mode, config):
    return oracle_formula(
        f, env, p, mode.value, config.equality.value, config.connectives.value, config.quantifiers.value
    )
