"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

They run every workload at its smallest size, check that the checker
accepts correct outputs and rejects corrupted ones, and that
BENCHMARK.json lists what the code measures.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run

cli = run.load_package()

import check
import tracing
import workloads
from meadowkit.parser import parse_formula, parse_term

oracle = run.load_oracle()
check.use_oracle(oracle)

SMALL = {
    "axioms-gf": lambda rng: workloads.axioms_gf(rng)[:6],
    "lint-corpus": lambda rng: workloads.lint_corpus(rng, blocks=1)[:12],
    "logic-quant": lambda rng: workloads.logic_quant(rng)[:8],
    "oneshot-mix": lambda rng: workloads.oneshot_mix(rng, size=2),
}


def small_ops(workload, seed=3, tmp_path=None):
    ops = SMALL[workload](random.Random(f"{workload}/{seed}"))
    for i, op in enumerate(ops):
        if op.kind == "lint":
            path = tmp_path / f"corpus-{i}.mcorpus"
            path.write_text(op.expect["text"], encoding="utf-8")
            op.argv = op.argv + [str(path)]
    return ops


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_every_workload_runs_and_checks_at_minimum_size(tmp_path):
    for workload in run.WORKLOADS:
        ops = small_ops(workload, tmp_path=tmp_path)
        m = run.run_loop(cli, ops, 0.0)
        assert len(m.nominal) == len(m.wall) == 1 and m.layer is None and not m.raised
        tracer = tracing.Tracer()
        tracer.install()
        try:
            m = run.run_loop(cli, ops, 0.0, tracer)
        finally:
            tracer.uninstall()
        assert len(m.nominal) == len(ops) and not m.raised
        attempted, failed, _ = run.check_outputs(ops, m.seen, m.raised)
        assert attempted >= len(ops) and failed == 0, workload


def test_traced_counts_repeat_for_a_seed(tmp_path):
    def traced(workload):
        ops = small_ops(workload, tmp_path=tmp_path)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            m = run.run_loop(cli, ops, 0.0, tracer)
        finally:
            tracer.uninstall()
        assert not m.raised and m.layer["cli.calls"] == len(ops)
        return m.layer

    counts = ("semantics.envs", "logic.instances", "parser.nodes", "lint.occurrences",
              "lint.witness_searches", "semantics.eval_partial_calls")
    for workload in run.WORKLOADS:
        first, second = traced(workload), traced(workload)
        assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert traced("axioms-gf")["semantics.envs"] > 0
    assert traced("logic-quant")["logic.instances"] > 0
    assert traced("lint-corpus")["lint.occurrences"] > 0


def test_tracer_restores_the_package():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.SPANS + tracing.COUNTED}
    tracer = tracing.Tracer()
    tracer.install()
    assert sys.modules["meadowkit.lint"].find_zero_witness is not originals["meadowkit.lint", "find_zero_witness"]
    tracer.uninstall()
    assert not tracer.missing
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in originals.items())


def test_inputs_come_from_the_seed():
    for workload in run.WORKLOADS:
        a = [op.argv for op in workloads.generate(workload, 7)]
        assert a == [op.argv for op in workloads.generate(workload, 7)]
        assert a != [op.argv for op in workloads.generate(workload, 8)]


def test_printer_round_trips_through_the_package_parser():
    rng = random.Random(0)
    for _ in range(300):
        t = workloads.random_term(rng, ("x", "y"), 3)
        assert parse_term(workloads.term_text(t)) == t
        f = workloads.closed_formula(rng, 3)
        assert parse_formula(workloads.formula_text(f)) == f
    for kind, f in workloads.lint_corpus_statements(rng, 12, "3var-nozero"):
        assert parse_formula(workloads.formula_text(f)) == f


def test_law_pool_truth_matches_the_oracle():
    for law in workloads.LAW_POOL:
        names = sorted(workloads.free_names(law["lhs"]) | workloads.free_names(law["rhs"]))
        for p in workloads.AXIOM_PRIMES:
            holds = True
            for values in itertools.product(range(p), repeat=len(names)):
                env = dict(zip(names, values))
                if law["guard"] is not None and oracle.oracle_formula(
                        law["guard"], env, p, "total", "weak", "kleene", "kleene") != "T":
                    continue
                equal = oracle.oracle_term(law["lhs"], env, p, "total") == oracle.oracle_term(law["rhs"], env, p, "total")
                holds = holds and equal == law["equal"]
            assert holds == law["truth"], (workloads.law_text(law), p)


def _judge(op, rc, out):
    outputs, wrong = check.check(op, rc, out)
    assert outputs >= 1
    return wrong


def test_checker_rejects_a_flipped_truth_value():
    op = next(o for o in workloads.generate("logic-quant", 1))
    rc, out = run_cli(op.argv)
    assert _judge(op, rc, out) == 0
    flipped = {"T": "F", "F": "T", "U": "T"}[out.strip()]
    assert _judge(op, 0, flipped + "\n") == 1


def test_checker_rejects_a_wrong_eval_value_and_table_entry():
    ops = workloads.generate("oneshot-mix", 1)
    op = next(o for o in ops if o.kind == "eval")
    rc, out = run_cli(op.argv)
    assert _judge(op, rc, out) == 0
    bad = "UNDEFINED" if out.strip() != "UNDEFINED" else "0"
    assert _judge(op, 3 if bad == "UNDEFINED" else 0, bad + "\n") == 1
    op = next(o for o in ops if o.kind == "tables")
    rc, out = run_cli(op.argv)
    assert _judge(op, rc, out) == 0
    assert _judge(op, rc, out.replace("U & U -> U", "U & U -> T")) == 1


def test_checker_rejects_corrupted_axiom_reports():
    op = next(o for o in workloads.generate("axioms-gf", 1)
              if any(not law["truth"] for law in o.expect["laws"]))
    rc, out = run_cli(op.argv)
    assert _judge(op, rc, out) == 0
    doc = json.loads(out)
    doc["reports"][0]["samples"] -= 1  # a catalog law not checked on all p^k
    assert _judge(op, rc, json.dumps(doc)) == 1
    doc = json.loads(out)
    false = next(r for r, law in zip([r for r in doc["reports"] if r["name"].startswith("extra-")],
                                     op.expect["laws"]) if not law["truth"])
    false["passed"] = True  # a false law reported as holding
    assert _judge(op, rc, json.dumps(doc)) >= 1


def _lint_op(text, convention="division"):
    statements = [(line.split(":", 1)[0], parse_formula(line.split(":", 1)[1]))
                  for line in text.strip().splitlines()]
    return workloads.Op(["lint", "--convention", convention, "--format", "json"], "lint",
                        {"statements": statements, "convention": convention, "text": text})


def _lint(op, tmp_path):
    path = tmp_path / "c.mcorpus"
    path.write_text(op.expect["text"], encoding="utf-8")
    return run_cli(op.argv + [str(path)])


def test_checker_rejects_a_fake_witness(tmp_path):
    op = _lint_op("claim: 1/(x + 1) = 2\n")
    rc, out = _lint(op, tmp_path)
    assert json.loads(out)["verdicts"][0]["detail"] == "x=-1"
    assert _judge(op, rc, out) == 0
    assert _judge(op, rc, out.replace("x=-1", "x=1")) == 1


def test_checker_rejects_a_false_compliant(tmp_path):
    op = _lint_op("claim: 1/(x*x + 1) = 2\n")
    rc, out = _lint(op, tmp_path)
    assert _judge(op, rc, out) == 0
    fake = _lint_op("claim: 1/(x*x - 1) = 2\n")
    assert _judge(fake, rc, out) == 1  # x = 1 zeroes the guard


def test_checker_flags_the_linters_known_defects(tmp_path):
    assert run.known_defects(cli, str(tmp_path)) == {"bound-capture": True, "product-fact": True}


def test_lint_corpora_keep_out_of_the_known_defects():
    rng = random.Random(5)
    for _ in range(200):
        statements = workloads.lint_corpus_statements(rng, 12, "4var")
        facts, products, denominators = set(), [], []
        for kind, f in statements:
            if isinstance(f, (workloads.Forall, workloads.Exists)):
                assert f.var not in facts
            if kind == "claim":
                for numerator, guarded, bound in check.occurrences(f):
                    if guarded in denominators:
                        continue  # the search must respect that very fact
                    names = workloads.free_names(guarded) - bound
                    if numerator is not None:  # searched too, under liberal-division
                        names |= workloads.free_names(numerator) - bound
                    assert all(len(names & pair) in (0, 2) for pair in products), f
            else:
                denom = f.left.right.arg if isinstance(f.left.right, workloads.Inv) else f.left.right
                facts |= workloads.free_names(denom)
                denominators.append(denom)
                if isinstance(denom, workloads.Mul):
                    products.append(workloads.free_names(denom))


def test_benchmark_json_lists_what_the_code_measures():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        m[:3] for m in tracing.LAYER_METRICS]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY


def test_without_the_package_the_benchmark_fails_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(os.path.dirname(os.path.abspath(__file__))):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(run.BENCH, name), "rb").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "oneshot-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
