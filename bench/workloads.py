"""Seeded input generators for the four benchmark workloads.

Every generator builds its inputs as ASTs from ``meadowkit.terms`` and
renders them to surface syntax with the printer below, so the package
only ever sees text and the checker can judge each output against the
AST it came from, never against the package's own parse.

A workload is a list of ``Op``s (one CLI command each) plus, for
``lint-corpus``, the corpus files those commands read.  The benchmark
cycles the list until its time is up.  Where an input property sets the
cost of a command (prime, quantifier depth, corpus length, connective
configuration), the list holds each value in a fixed proportion and only
the order and the concrete terms come from the seed: the latency
percentiles then describe the same mix on every seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from meadowkit.terms import (
    ONE,
    ZERO,
    Add,
    And,
    Div,
    Eq,
    Exists,
    Forall,
    Implies,
    Inv,
    Mul,
    Neg,
    Not,
    NumLit,
    Or,
    Var,
)

#: Why each workload exists; printed with every result and listed in
#: BENCHMARK.json.
WHY = {
    "axioms-gf": (
        "axioms --carrier gf<p> (p in 5,7,11,13,17) plus 0-3 extra laws: the p^k enumeration in semantics and carrier arithmetic dominate"
    ),
    "lint-corpus": (
        "lint on seeded corpora of 3-9 statements under all three conventions: 23^k witness search, fact scanning and certificates"
    ),
    "logic-quant": (
        "logic on closed formulas with 2-3 nested quantifiers over GF(p), every logic configuration: connectives, quantifier folds, partial evaluation"
    ),
    "oneshot-mix": (
        "short eval, quantifier-free logic and tables commands on fresh small terms: cli, parser and argparse dominate; per-term compile costs show as losses"
    ),
}

EQUALITIES = ("weak", "strong", "existential")
CONNECTIVES = ("bochvar", "kleene", "mccarthy-left", "mccarthy-right")
QUANTIFIERS = ("bochvar", "kleene")
PUNCH_MODES = ("punch-inv", "punch-div-all", "punch-div-nonzero")
CONVENTIONS = ("inversive", "division", "liberal-division")


@dataclass
class Op:
    """One CLI command and what the checker needs to judge its output."""

    argv: list
    kind: str
    expect: dict = field(default_factory=dict)


# ----------------------------------------------------------------- printing

_ADD, _MUL, _UNARY, _POSTFIX, _ATOM = 1, 2, 3, 4, 5
_QUANT, _IMPL, _OR, _AND, _NOT, _FATOM = 0, 1, 2, 3, 4, 5


def term_text(t, prec: int = _ADD) -> str:
    """Surface syntax of a term with only the parentheses the grammar needs."""
    if isinstance(t, Add):
        s, p = f"{term_text(t.left, _ADD)} + {term_text(t.right, _MUL)}", _ADD
    elif isinstance(t, (Mul, Div)):
        op = "*" if isinstance(t, Mul) else "/"
        s, p = f"{term_text(t.left, _MUL)}{op}{term_text(t.right, _UNARY)}", _MUL
    elif isinstance(t, Neg):
        s, p = f"-{term_text(t.arg, _UNARY)}", _UNARY
    elif isinstance(t, Inv):
        s, p = f"{term_text(t.arg, _POSTFIX)}^-1", _POSTFIX
    elif isinstance(t, Var):
        s, p = t.name, _ATOM
    elif isinstance(t, NumLit):
        s, p = str(t.value), _ATOM
    else:
        s, p = ("1" if t == ONE else "0"), _ATOM
    return f"({s})" if p < prec else s


def formula_text(f, prec: int = _QUANT) -> str:
    """Surface syntax of a formula with only the parentheses the grammar needs."""
    if isinstance(f, Eq):
        s, p = f"{term_text(f.left)} = {term_text(f.right)}", _FATOM
    elif isinstance(f, Not) and isinstance(f.arg, Eq):
        s, p = f"{term_text(f.arg.left)} != {term_text(f.arg.right)}", _FATOM
    elif isinstance(f, Not):
        s, p = f"!{formula_text(f.arg, _NOT)}", _NOT
    elif isinstance(f, And):
        s, p = f"{formula_text(f.left, _AND)} & {formula_text(f.right, _NOT)}", _AND
    elif isinstance(f, Or):
        s, p = f"{formula_text(f.left, _OR)} | {formula_text(f.right, _AND)}", _OR
    elif isinstance(f, Implies):
        s, p = f"{formula_text(f.left, _OR)} => {formula_text(f.right, _IMPL)}", _IMPL
    else:
        kw = "forall" if isinstance(f, Forall) else "exists"
        s, p = f"{kw} {f.var}. {formula_text(f.body, _QUANT)}", _QUANT
    # a quantifier runs to the end of the text, so it is wrapped wherever
    # something could follow it
    return f"({s})" if p < prec else s


# ------------------------------------------------------------ term building


class E:
    """Operator sugar for writing laws as ASTs: ``x*(y + z)``, ``x.inv()``."""

    __slots__ = ("t",)

    def __init__(self, t):
        self.t = t

    def __add__(self, o):
        return E(Add(self.t, lift(o)))

    def __sub__(self, o):
        return E(Add(self.t, Neg(lift(o))))

    def __mul__(self, o):
        return E(Mul(self.t, lift(o)))

    def __rmul__(self, o):
        return E(Mul(lift(o), self.t))

    def __truediv__(self, o):
        return E(Div(self.t, lift(o)))

    def __neg__(self):
        return E(Neg(self.t))

    def inv(self):
        return E(Inv(self.t))


def free_names(node, bound=frozenset()) -> set:
    """Free variable names of a term or formula."""
    if isinstance(node, Var):
        return set() if node.name in bound else {node.name}
    if isinstance(node, (Forall, Exists)):
        return free_names(node.body, bound | {node.var})
    out = set()
    for attr in ("left", "right", "arg"):
        child = getattr(node, attr, None)
        if child is not None:
            out |= free_names(child, bound)
    return out


def lift(v):
    if isinstance(v, E):
        return v.t
    if v == 0:
        return ZERO
    if v == 1:
        return ONE
    return NumLit(v)


def random_term(rng: random.Random, names, depth: int, partial: float = 0.3, full: bool = False):
    """Small random term; `partial` is the chance of an inverse or division
    node.  A `full` term has every leaf at `depth`, so its size depends on
    the seed only through its unary nodes."""
    if depth == 0 or (not full and rng.random() < 0.3):
        roll = rng.random()
        if roll < 0.6:
            return Var(rng.choice(names))
        return lift(rng.randint(0, 4))
    sub = lambda: random_term(rng, names, depth - 1, partial, full)
    if rng.random() < partial:
        return Inv(sub()) if rng.random() < 0.5 else Div(sub(), sub())
    roll = rng.random()
    if roll < 0.4:
        return Add(sub(), sub())
    if roll < 0.8:
        return Mul(sub(), sub())
    return Neg(sub())


def random_atom(rng: random.Random, names, full: bool = False):
    """An equation or disequation; ordering atoms are left out on purpose
    (their meaning over GF(p) is an open question in the roadmap)."""
    eq = Eq(random_term(rng, names, 2, full=full), random_term(rng, names, 2, full=full))
    return Not(eq) if rng.random() < 0.3 else eq


def random_connective(rng: random.Random, left, right):
    roll = rng.randrange(4)
    if roll == 0:
        return And(left, right)
    if roll == 1:
        return Or(left, right)
    if roll == 2:
        return Implies(left, right)
    return Not(And(left, right))


def _stratified(rng: random.Random, strata, blocks: int):
    """`blocks` seeded shuffles of the strata, one after another, so that
    every prefix holds each stratum equally often, give or take one."""
    items = []
    for _ in range(blocks):
        block = list(strata)
        rng.shuffle(block)
        items += block
    return items


# --------------------------------------------------------------- axioms-gf

x, y, z = E(Var("x")), E(Var("y")), E(Var("z"))


def _law(lhs, rhs, truth, guard=None, equal=True):
    return {"lhs": lift(lhs), "rhs": lift(rhs), "guard": guard, "equal": equal, "truth": truth}


def _nonzero(e):
    return Not(Eq(lift(e), ZERO))


#: Extra laws with their truth in GF(p) for every prime in AXIOM_PRIMES
#: (the benchmark's tests confirm each against the oracle).  False laws
#: make `axioms` stop at the first counterexample.
LAW_POOL = (
    _law(x * (y - z), x * y - x * z, True),
    _law((x + y) * (x + y), x * x + 2 * x * y + y * y, True),
    _law((x * y).inv(), x.inv() * y.inv(), True),
    _law(x / (y * z), (x / y) / z, True),
    _law(-(x + y), -x - y, True),
    _law((x + y) * (x - y), x * x - y * y, True),
    _law(x / y + z / y, (x + z) / y, True),
    _law(x / x, 1, True, guard=_nonzero(x)),
    _law((x * x).inv(), x.inv() * x.inv(), True),
    _law(x + 1, x, True, equal=False),
    _law(x / x, 1, False),
    _law(x * y, x, False),
    _law((x + y).inv(), x.inv() + y.inv(), False),
    _law((x + y) * (x + y), x * x + y * y, False),
    _law(x - y, y - x, False),
    _law(x * x * x, x, False, guard=_nonzero(x)),
    _law(x / (y + z), x / y + x / z, False),
    _law(x * x, x, False, equal=False),
)

#: Five primes in equal shares: the median latency falls amid GF(11)
#: and the 90th percentile amid GF(17), not between two of them.
AXIOM_PRIMES = (5, 7, 11, 13, 17)


def law_text(law) -> str:
    op = "=" if law["equal"] else "!="
    text = f"{term_text(law['lhs'])} {op} {term_text(law['rhs'])}"
    if law["guard"] is not None:
        text = f"{formula_text(law['guard'])} => {text}"
    return text


def axioms_gf(rng: random.Random, blocks: int = 24) -> list:
    """`axioms --carrier gf<p>` with 0-3 extra laws: every prime and every
    extra count in equal shares, and over each prime every law of the
    pool equally often."""
    n = blocks * len(AXIOM_PRIMES)
    laws = {p: iter(_stratified(rng, LAW_POOL, n)) for p in AXIOM_PRIMES}
    ops = []
    for p, n_extra in zip(_stratified(rng, AXIOM_PRIMES, blocks), _stratified(rng, range(4), n // 4)):
        extra = [next(laws[p]) for _ in range(n_extra)]
        argv = ["axioms", "--carrier", f"gf{p}", "--format", "json"]
        for law in extra:
            argv += ["--extra", law_text(law)]
        ops.append(Op(argv, "axioms", {"p": p, "laws": extra}))
    return ops


# ------------------------------------------------------------- logic-quant

#: (quantifier depth, prime): depth 3 over small fields, depth 2 over
#: larger.  Five shapes of distinct cost in equal shares put the median
#: latency amid the middle one and the 90th percentile amid the costliest.
QUANT_SHAPES = ((2, 7), (2, 11), (3, 5), (2, 13), (3, 7))


def closed_formula(rng: random.Random, depth: int, names=("x", "y", "z")):
    """`depth` nested quantifiers over a body of two atoms, with a side
    condition between the first two quantifiers; atoms have full terms,
    so formulas of one depth cost about the same to evaluate."""

    def build(bound):
        if len(bound) == depth:
            return random_connective(rng, random_atom(rng, bound, True), random_atom(rng, bound, True))
        var = names[len(bound)]
        inner = build(bound + (var,))
        if len(bound) == 1:
            inner = random_connective(rng, random_atom(rng, bound, True), inner)
        return (Forall if rng.random() < 0.5 else Exists)(var, inner)

    return build(())


def logic_quant(rng: random.Random, blocks: int = 10) -> list:
    """Every logic configuration, quantifier shape and punching mode in
    equal shares."""
    configs = [(e, c, q) for e in EQUALITIES for c in CONNECTIVES for q in QUANTIFIERS]
    n = blocks * len(configs)
    ops = []
    for cfg, (depth, p), mode in zip(_stratified(rng, configs, blocks),
                                     _stratified(rng, QUANT_SHAPES, n // len(QUANT_SHAPES)),
                                     _stratified(rng, PUNCH_MODES, n // len(PUNCH_MODES))):
        f = closed_formula(rng, depth)
        argv = ["logic", "--carrier", f"gf{p}", "--mode", mode, "--logic", ",".join(cfg),
                *positional(formula_text(f))]
        ops.append(Op(argv, "logic", {"formula": f, "env": {}, "p": p, "mode": mode, "cfg": cfg}))
    return ops


# ------------------------------------------------------------- oneshot-mix

ONESHOT_PRIMES = (7, 11, 13, 101)
ONESHOT_PATTERN = ("eval", "logic", "eval", "logic", "eval", "logic", "eval", "logic", "tables")


def positional(text: str) -> list:
    """A term or formula argument; one that starts with `-` follows `--`,
    as a user would type it, so argparse does not read it as a flag."""
    return ["--", text] if text.startswith("-") else [text]


def _bindings(rng, names, p):
    env = {n: rng.randrange(p) for n in sorted(names)}
    argv = []
    for n, v in env.items():
        argv += ["-b", f"{n}={v}"]
    return env, argv


def oneshot_mix(rng: random.Random, size: int = 50) -> list:
    ops = []
    for _ in range(size):
        for kind in ONESHOT_PATTERN:
            p = rng.choice(ONESHOT_PRIMES)
            mode = rng.choice(("total",) + PUNCH_MODES)
            if kind == "tables":
                family = rng.choice(CONNECTIVES)
                ops.append(Op(["tables", family], "tables", {"family": family}))
            elif kind == "eval":
                t = random_term(rng, ("x", "y"), 3)
                env, bind = _bindings(rng, free_names(t), p)
                argv = ["eval", "--carrier", f"gf{p}", "--mode", mode, *bind, *positional(term_text(t))]
                ops.append(Op(argv, "eval", {"term": t, "env": env, "p": p, "mode": mode}))
            else:
                cfg = (rng.choice(EQUALITIES), rng.choice(CONNECTIVES), rng.choice(QUANTIFIERS))
                f = random_connective(rng, random_atom(rng, ("x", "y")), random_atom(rng, ("x", "y")))
                env, bind = _bindings(rng, free_names(f), p)
                argv = ["logic", "--carrier", f"gf{p}", "--mode", mode, "--logic", ",".join(cfg),
                        *bind, *positional(formula_text(f))]
                ops.append(Op(argv, "logic", {"formula": f, "env": env, "p": p, "mode": mode, "cfg": cfg}))
    return ops


# ------------------------------------------------------------- lint-corpus

LINT_VARS = ("q", "r", "s", "x", "y", "z", "w")
LINT_LENGTHS = (3, 5, 7, 9)

#: Statement shapes.  Hypotheses `t/q = c` record the fact `q != 0`, with
#: single, product and sum denominators (or `t*q^-1 = c`); claims carry
#: guards over one or two variables, some reuse a fact (the whole fact,
#: or one of its variables that is in no product fact) and some are
#: quantified.  Two rules keep every corpus out of the linter's known
#: defects (ROADMAP item 4), so that every verdict can be checked and the
#: workload measures sound output only: a quantifier binds no variable of
#: an earlier fact, and a claim's guard holds both factors of an earlier
#: product fact or neither.  ``defect_probes`` keeps the defects in view.
#: Numerators use only the guard's variables, so the liberal convention
#: searches the same variables as the others.
HYP_SHAPES = ("var", "product", "sum", "inverse")
CLAIM_SHAPES = ("1var", "reuse", "2var", "quantified")

#: Every corpus ends with one wide claim `c/g = u`, checked against all
#: the facts the corpus recorded: a 3-variable guard g with no small zero
#: (the full 23^3 search), another 3-variable guard, or a 4-variable
#: guard beyond the search budget.  Each kind is a stratum, so the share
#: of full searches (one corpus in five) is the same on every seed, and
#: the 90th latency percentile falls amid the full searches.
WIDE_KINDS = ("3var-nozero", "3var", "3var", "4var", "4var")


def _v(name):
    return E(Var(name))


def _guard(rng, names, nozero=False):
    """A guard over exactly the given variables (one to four)."""
    vs = [_v(n) for n in names]
    c = rng.randint(1, 3)
    if len(vs) == 1:
        (u,) = vs
        return lift(rng.choice((u, u + c, u * u + 1, u - c, u * u - c, c * u + 1)))
    if len(vs) == 2:
        u, v = vs
        return lift(rng.choice((u + v, u * v, u - v, u * u + v * v + 1, u * v + c)))
    if len(vs) == 3:
        u, v, w = vs
        if nozero:
            return lift(u * u + v * v + w * w + c)
        return lift(rng.choice((u + v + w, u * v + w, u * v * w - c, u * v - w * w)))
    return lift(rng.choice((sum(vs[1:], vs[0]), sum((v * v for v in vs[1:]), vs[0] * vs[0]) + 1)))


def _guarded_eq(rng, guard, rhs_names=LINT_VARS[:3], num=None):
    """`t/g = u` or `t*g^-1 = u`: t is a small term over g's variables
    unless given, u a small term; neither divides."""
    if num is None:
        num = random_term(rng, sorted(free_names(guard)) or rhs_names, 1, partial=0)
    rhs = random_term(rng, rhs_names, 1, partial=0)
    if rng.random() < 0.75:
        return Eq(Div(num, guard), rhs)
    return Eq(Mul(num, Inv(guard)), rhs)


def lint_corpus_statements(rng: random.Random, length: int, wide: str, hyps=None, claims=None) -> list:
    """A corpus as (kind, formula) pairs: (length - 1) // 2 hypotheses and
    as many other claims in seeded order, then a `wide` claim.  Shapes are
    drawn from the iterators `hyps` and `claims` when given."""
    hyps = hyps or iter(lambda: rng.choice(HYP_SHAPES), None)
    claims = claims or iter(lambda: rng.choice(CLAIM_SHAPES), None)
    n_hyp = (length - 1) // 2
    shapes = [("hyp", next(hyps)) for _ in range(n_hyp)]
    shapes += [("claim", next(claims)) for _ in range(length - 1 - n_hyp)]
    rng.shuffle(shapes)
    facts = []
    partner = {}  # variable -> the other factor of its product fact

    def pick(k):
        """k distinct variables, with both factors of a product fact or neither."""
        units = sorted({tuple(sorted((n, partner[n]))) if n in partner else (n,) for n in LINT_VARS})
        options = [c for r in range(1, k + 1) for c in itertools.combinations(units, r)
                   if sum(map(len, c)) == k]
        names = [n for unit in rng.choice(options) for n in unit]
        rng.shuffle(names)
        return names

    out = []
    for kind, shape in shapes:
        if kind == "hyp":
            a, b = rng.sample(LINT_VARS, 2)
            if shape == "product":
                unpaired = [n for n in LINT_VARS if n not in partner]
                if len(unpaired) >= 2:
                    a, b = rng.sample(unpaired, 2)
                else:  # every pair is taken: repeat one
                    a = rng.choice(sorted(partner))
                    b = partner[a]
                partner[a], partner[b] = b, a
                denom = Mul(Var(a), Var(b))
            elif shape == "sum":
                denom = Add(Var(a), Var(b))
            else:
                denom = Var(a)
            num = random_term(rng, sorted(free_names(denom)), 1, 0)
            lhs = Mul(num, Inv(denom)) if shape == "inverse" else Div(num, denom)
            out.append(("hyp", Eq(lhs, lift(rng.randint(1, 4)))))
            facts.append(denom)
        elif shape == "reuse" and facts:
            fact = rng.choice(facts)
            single = sorted(n for n in free_names(fact) if n not in partner)
            guard = Var(rng.choice(single)) if single and rng.random() < 0.5 else fact
            out.append(("claim", _guarded_eq(rng, guard)))
        elif shape == "quantified":
            taken = set().union(*map(free_names, facts))
            name = rng.choice([n for n in LINT_VARS if n not in taken] or ["u"])
            body = _guarded_eq(rng, _guard(rng, [name]), (name,))
            out.append(("claim", (Forall if rng.random() < 0.6 else Exists)(name, body)))
        else:
            out.append(("claim", _guarded_eq(rng, _guard(rng, pick(2 if shape == "2var" else 1)))))
    names = pick(4 if wide == "4var" else 3)
    guard = _guard(rng, names, wide == "3var-nozero")
    out.append(("claim", _guarded_eq(rng, guard, num=lift(rng.randint(1, 4)))))
    return out


def defect_probes() -> dict:
    """The linter's known defects (ROADMAP item 4), one small corpus each,
    as ops the checker flags while the defect stands.  `lint-corpus` keeps
    out of them; a run lints these once, untimed, and says which show."""
    q, r = Var("q"), Var("r")
    corpora = {
        # a quantifier rebinds the variable of an earlier fact
        "bound-capture": [("hyp", Eq(Div(ONE, q), lift(2))), ("claim", Forall("q", Eq(Div(q, q), ONE)))],
        # the witness q=0 ignores the product fact q*r != 0
        "product-fact": [("hyp", Eq(Div(ONE, Mul(q, r)), lift(2))), ("claim", Eq(Div(ONE, q), ONE))],
    }
    return {name: Op(["lint", "--convention", "division", "--format", "json"], "lint",
                     {"statements": st, "convention": "division", "text": corpus_text(st)})
            for name, st in corpora.items()}


def corpus_text(statements) -> str:
    return "".join(f"{kind}: {formula_text(f)}\n" for kind, f in statements)


def lint_corpus(rng: random.Random, blocks: int = 3) -> list:
    """Corpora over every length, convention and wide claim, each property
    (and each statement shape) in its own small seeded blocks; the runner
    writes each op's
    `expect['text']` to a file and appends its path to argv."""
    n = blocks * len(LINT_LENGTHS) * len(CONVENTIONS) * len(WIDE_KINDS)
    ops = []
    hyps = iter(_stratified(rng, HYP_SHAPES, n * 2))
    claims = iter(_stratified(rng, CLAIM_SHAPES, n * 2))
    for length, convention, wide in zip(_stratified(rng, LINT_LENGTHS, n // len(LINT_LENGTHS)),
                                        _stratified(rng, CONVENTIONS, n // len(CONVENTIONS)),
                                        _stratified(rng, WIDE_KINDS, n // len(WIDE_KINDS))):
        statements = lint_corpus_statements(rng, length, wide, hyps, claims)
        argv = ["lint", "--convention", convention, "--format", "json"]
        ops.append(Op(argv, "lint", {"statements": statements, "convention": convention,
                                     "text": corpus_text(statements)}))
    return ops


GENERATORS = {
    "axioms-gf": axioms_gf,
    "lint-corpus": lint_corpus,
    "logic-quant": logic_quant,
    "oneshot-mix": oneshot_mix,
}


def generate(workload: str, seed: int) -> list:
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))
