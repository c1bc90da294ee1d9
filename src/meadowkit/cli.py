"""Command-line front end: eval, logic, axioms, tables, lint.

Exit codes: 0 success / defined / all-pass; 1 parse or usage error,
a `gf<p>` modulus that is not a prime below 3317044064679887385961981,
an enumeration over the budget of 10^7 environments (p^k for a law
with k variables, |carrier|^d for quantifiers nested d deep), a power
over the rationals above carriers.MAX_POWER_BITS (in `lint`, an UNKNOWN
verdict instead), a value too long to print, a number written with more
than the interpreter's limit on integer text
(sys.get_int_max_str_digits(), 4300 by default), or input nested more than
parser.MAX_DEPTH = 900 deep, counting operators and parenthesis pairs
together ("input nested too deeply"); 2 unbound variable or
non-enumerable quantifier carrier; 3
"third value" (UNDEFINED, U, or an Unknown lint verdict); 4 axiom
failure or lint violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import shutil
import sys

from .carriers import (
    RATIONALS,
    CarrierMismatchError,
    FiniteProbeSet,
    PrimeField,
    format_element,
    parse_rational,
    read_int,
)
from .lint import Convention, VerdictKind, lint, parse_corpus
from .logic import (
    ConnectiveFamily,
    NonEnumerableCarrierError,
    TruthValue,
    classify_sentence,
    connective_table,
    eval_formula,
    parse_logic_config,
)
from .parser import ParseError, is_variable, parse_formula, parse_term
from .semantics import (
    UNDEFINED,
    Mode,
    StructureSpec,
    UnboundVariableError,
    axiom_catalog,
    check_samples,
    eval_partial,
    verify_axiom_spec,
    _ax,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNBOUND = 2
EXIT_THIRD = 3
EXIT_FAIL = 4


def _parse_carrier(text: str):
    # called by the commands, not by argparse, so that a rejected carrier
    # ends in one `error:` line like every other usage error
    text = text.strip().lower()
    if text == "rationals":
        return RATIONALS
    if re.fullmatch("gf[0-9]+", text):
        return PrimeField(read_int(text[2:]))
    if text.startswith("probe:"):
        values = tuple(parse_rational(v) for v in text[len("probe:"):].split(","))
        return FiniteProbeSet(values=values)
    raise ValueError(f"unknown carrier {text!r}")


def _parse_mode(text: str) -> Mode:
    try:
        return Mode(text.strip().lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown mode {text!r}") from None


def _parse_integer(text: str, what: str) -> int:
    """An integer written in ASCII decimal with an optional `-` (spaces
    around it ignored); anything else is refused, naming `what`."""
    text = text.strip()
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"{what} must be an integer")
    return read_int(text)


def _parse_bindings(pairs, carrier):
    env = {}
    for pair in pairs or ():
        name, eq, value = pair.partition("=")
        name = name.strip()
        if not eq or not is_variable(name):
            raise ValueError(f"binding must look like x=2/3, got {pair!r}")
        if name in env:
            raise ValueError(f"{name} is bound twice")
        if isinstance(carrier, PrimeField):
            env[name] = carrier.from_int(_parse_integer(value, f"binding {pair!r} over {carrier}"))
        else:
            env[name] = parse_rational(value)
    return env


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that refuses in one `error:` line, without the
    usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


class _Subcommand:
    """A subcommand's entry in the argparse tree. It keeps the keywords
    `add_parser` gives it and makes its `_ArgumentParser` only when
    argparse parses with it, the one call argparse makes on an entry;
    the leftover arguments go back to the top-level parser."""

    def __init__(self, *, arguments, **kwargs):
        self._arguments = arguments
        self._kwargs = kwargs

    def parse_known_args(self, args, namespace):
        parser = _ArgumentParser(**self._kwargs)
        self._arguments(parser)
        _leading_minus_is_positional(parser)
        return parser.parse_known_args(args, namespace)


def _add_structure_flags(p: argparse.ArgumentParser):
    p.add_argument("--carrier", default="rationals",
                   help="rationals (default), gf<p>, or probe:<v1>,<v2>,...")
    p.add_argument("--mode", type=_parse_mode, default=Mode.TOTAL,
                   help="total (default), punch-inv, punch-div-all, punch-div-nonzero")


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("text", "json"), default="text")


def _leading_minus_is_positional(p: argparse.ArgumentParser):
    """Let a value given to p start with `-`, as in `eval "-1/2"`,
    `axioms --extra -x=0-x` or `lint -x.mcorpus`: argparse reads an
    argument that starts with one `-` and is none of p's options as a
    value when it matches this pattern.  Set after every option is
    added, or argparse would count `-b` as a negative number option;
    argparse has no public setting for it."""
    p._negative_number_matcher = re.compile("-(?!-)")


def build_parser() -> argparse.ArgumentParser:
    """A new argparse tree for one `main` call.

    A call makes only the parser of the command it runs (`_Subcommand`);
    the others stay a name and a help string.

    Every parser shares one help formatter factory whose width is read
    from the terminal here, once: argparse otherwise asks the terminal
    for each formatter a build makes (one per `add_argument`), and
    subparsers do not inherit `formatter_class`. The width is
    `HelpFormatter`'s own default, so help text is the same.

    The tree is built on every call, with no cache, so the width is
    the terminal's at that call. Building the whole tree once per
    process waits for ROADMAP item 2: `bench/run.py` keeps a record per
    command, so a faster in-process loop reads a higher peak RSS.
    """
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2,
    )
    parser = _ArgumentParser(
        prog="meadowkit",
        formatter_class=formatter,
        description="Totalized rational arithmetic, logics of partial functions, "
        "and a division-convention linter.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, (summary, arguments, _) in _COMMANDS.items():
        sub.add_parser(name, help=summary, formatter_class=formatter, arguments=arguments)
    return parser


def _eval_arguments(p):
    _add_structure_flags(p)
    _add_common_flags(p)
    p.add_argument("-b", "--bind", action="append", metavar="x=2/3")
    p.add_argument("term")


def _cmd_eval(args) -> int:
    carrier = _parse_carrier(args.carrier)
    structure = StructureSpec(carrier, args.mode)
    term = parse_term(args.term)
    env = _parse_bindings(args.bind, carrier)
    value = eval_partial(term, env, structure)
    defined = value is not UNDEFINED
    if args.format == "json":
        print(json.dumps({
            "term": args.term,
            "defined": defined,
            "value": format_element(value) if defined else None,
        }))
    else:
        print(format_element(value) if defined else "UNDEFINED")
    return EXIT_OK if defined else EXIT_THIRD


def _logic_arguments(p):
    _add_structure_flags(p)
    _add_common_flags(p)
    p.add_argument("--logic", default="lpmd",
                   help="<equality>,<connectives>,<quantifiers> or lpmd (default)")
    p.add_argument("--classify", action="store_true",
                   help="apply the two-valued logic convention")
    p.add_argument("-b", "--bind", action="append", metavar="x=2/3")
    p.add_argument("formula")


def _cmd_logic(args) -> int:
    carrier = _parse_carrier(args.carrier)
    structure = StructureSpec(carrier, args.mode)
    cfg = parse_logic_config(args.logic)
    formula = parse_formula(args.formula)
    env = _parse_bindings(args.bind, carrier)
    if args.classify:
        verdict = classify_sentence(formula, cfg, structure, env=env)
        if args.format == "json":
            print(json.dumps({
                "usable": verdict.usable,
                "value": str(verdict.value) if verdict.usable else None,
            }))
        else:
            print(verdict)
        return EXIT_OK if verdict.usable else EXIT_THIRD
    tv = eval_formula(formula, cfg, env, structure)
    if args.format == "json":
        print(json.dumps({"formula": args.formula, "truth_value": str(tv)}))
    else:
        print(tv)
    return EXIT_OK if tv is not TruthValue.U else EXIT_THIRD


def _axioms_arguments(p):
    _add_common_flags(p)
    p.add_argument("--carrier", default="rationals")
    # read by the command, like the carrier
    p.add_argument("--samples", default="1000")
    p.add_argument("--seed", default="0")
    p.add_argument("--extra", action="append", metavar="LAW",
                   help="extra quantifier-free law, free variables read universally, "
                   "e.g. 'x != 0 => x/x = 1'")


def _cmd_axioms(args) -> int:
    carrier = _parse_carrier(args.carrier)
    structure = StructureSpec(carrier)
    samples = _parse_integer(args.samples, f"--samples {args.samples!r}")
    seed = _parse_integer(args.seed, f"--seed {args.seed!r}")
    check_samples(samples)  # on every carrier, before any law is read
    catalog = list(axiom_catalog())
    for i, text in enumerate(args.extra or ()):
        catalog.append(_ax(f"extra-{i}", text))
    reports = [verify_axiom_spec(spec, structure, samples, seed) for spec in catalog]
    if args.format == "json":
        print(json.dumps({"reports": [
            {
                "name": r.name,
                "axiom": r.equation,
                "passed": r.passed,
                "samples": r.samples,
                "witness": {k: format_element(v) for k, v in sorted(r.witness.items())}
                if r.witness is not None else None,
            }
            for r in reports
        ]}))
    else:
        for r in reports:
            print(r.format_line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


_TABLE_SYMBOLS = {"not": "!", "and": "&", "or": "|", "implies": "=>"}


def _tables_arguments(p):
    _add_common_flags(p)
    p.add_argument("family", choices=[f.value for f in ConnectiveFamily])


def _cmd_tables(args) -> int:
    family = ConnectiveFamily(args.family)
    tables = connective_table(family)
    if args.format == "json":
        doc = {"family": family.value}
        for name, table in tables.items():
            if name == "not":
                doc[name] = {str(a): str(v) for a, v in table.items()}
            else:
                doc[name] = {f"{a},{b}": str(v) for (a, b), v in table.items()}
        print(json.dumps(doc))
        return EXIT_OK
    for name, table in tables.items():
        sym = _TABLE_SYMBOLS[name]
        print(f"{name}:")
        if name == "not":
            for a, v in table.items():
                print(f"{sym} {a} -> {v}")
        else:
            for (a, b), v in table.items():
                print(f"{a} {sym} {b} -> {v}")
    return EXIT_OK


def _lint_arguments(p):
    _add_common_flags(p)
    p.add_argument("--convention", choices=[c.value for c in Convention],
                   default=Convention.DIVISION.value)
    p.add_argument("corpus")


def _cmd_lint(args) -> int:
    with open(args.corpus, encoding="utf-8") as handle:
        corpus = parse_corpus(handle.read())
    verdicts = lint(corpus, Convention(args.convention))
    if args.format == "json":
        print(json.dumps({"verdicts": [v.to_dict() for v in verdicts]}))
    else:
        for v in verdicts:
            print(v.format_line())
    kinds = {v.kind for v in verdicts}
    if VerdictKind.VIOLATION in kinds:
        return EXIT_FAIL
    if VerdictKind.UNKNOWN in kinds:
        return EXIT_THIRD
    return EXIT_OK


# name -> (help, a function that adds the parser's arguments, run)
_COMMANDS = {
    "eval": ("evaluate a term", _eval_arguments, _cmd_eval),
    "logic": ("evaluate a formula in a three-valued logic", _logic_arguments, _cmd_logic),
    "axioms": ("verify the built-in axiom catalog", _axioms_arguments, _cmd_axioms),
    "tables": ("print the truth tables of a connective family", _tables_arguments, _cmd_tables),
    "lint": ("lint a statement corpus against a convention", _lint_arguments, _cmd_lint),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; fold into the parse-error code
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command][2](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UnboundVariableError, NonEnumerableCarrierError, CarrierMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNBOUND
    except (OSError, ValueError) as exc:  # OSError: an unreadable `lint` corpus
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:  # a backstop: the parser refuses input over MAX_DEPTH
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_PARSE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
