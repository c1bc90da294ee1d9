"""Spans and counters recorded around the package's module boundaries.

The tracer replaces, for the length of a traced run, the names one
module imported from another (``meadowkit.lint.find_zero_witness``,
``meadowkit.cli.parse_formula``, ...) with wrappers, so each call is
seen the way the calling module makes it and no file under ``src/``
changes.  Calls made once per command or per statement get a span
(name, start, end, parent); calls made once per environment of an
enumeration only add to a per-name count and time, which is also
charged to the enclosing span so that its self time stays exact.

A layer's self time is the duration of its spans minus the time their
child spans and counted calls cover.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

from meadowkit.terms import And, Exists, Forall, Implies, Not, Or
from workloads import free_names

#: Per-layer metrics: (name, unit, better, the end-to-end metric and
#: workload it should move).  BENCHMARK.json lists the same names.
LAYER_METRICS = (
    ("cli.self_ms", "ms", "lower", "latency_p50_ms on oneshot-mix"),
    ("cli.calls", "count", "higher", "latency_p50_ms on oneshot-mix"),
    ("parser.busy_ms", "ms", "lower", "latency_p50_ms on oneshot-mix"),
    ("parser.nodes", "count", "lower", "latency_p50_ms on oneshot-mix"),
    ("parser.nodes_per_ms", "1/ms", "higher", "latency_p50_ms on oneshot-mix"),
    ("printer.busy_ms", "ms", "lower", "ops_per_s on lint-corpus (a small share)"),
    ("printer.chars", "count", "lower", "ops_per_s on lint-corpus (a small share)"),
    ("semantics.verify_ms", "ms", "lower", "ops_per_s and latency_p90_ms on axioms-gf"),
    ("semantics.self_ms", "ms", "lower", "ops_per_s and latency_p90_ms on axioms-gf"),
    ("semantics.envs", "count", "lower", "ops_per_s and latency_p90_ms on axioms-gf"),
    ("semantics.envs_per_ms", "1/ms", "higher", "ops_per_s and latency_p90_ms on axioms-gf"),
    ("semantics.eval_total_calls", "count", "lower", "ops_per_s on lint-corpus"),
    ("semantics.eval_total_ms", "ms", "lower", "ops_per_s on lint-corpus"),
    ("semantics.eval_partial_calls", "count", "lower", "ops_per_s on logic-quant"),
    ("semantics.eval_partial_ms", "ms", "lower", "ops_per_s on logic-quant"),
    ("semantics.undefined_ratio", "ratio", "lower", "ops_per_s on logic-quant"),
    ("terms.free_vars_calls", "count", "lower", "ops_per_s on lint-corpus"),
    ("terms.free_vars_ms", "ms", "lower", "ops_per_s on lint-corpus"),
    ("logic.busy_ms", "ms", "lower", "ops_per_s and latency_p90_ms on logic-quant"),
    ("logic.self_ms", "ms", "lower", "ops_per_s and latency_p90_ms on logic-quant"),
    ("logic.instances", "count", "lower", "ops_per_s and latency_p90_ms on logic-quant"),
    ("logic.u_ratio", "ratio", "lower", "ops_per_s and latency_p90_ms on logic-quant"),
    ("lint.parse_corpus_ms", "ms", "lower", "ops_per_s on lint-corpus"),
    ("lint.busy_ms", "ms", "lower", "ops_per_s on lint-corpus"),
    ("lint.self_ms", "ms", "lower", "ops_per_s on lint-corpus"),
    ("lint.occurrences", "count", "higher", "ops_per_s on lint-corpus"),
    ("lint.witness_ms", "ms", "lower", "latency_p90_ms on lint-corpus"),
    ("lint.witness_searches", "count", "lower", "latency_p90_ms on lint-corpus"),
    ("lint.witness_hit_ratio", "ratio", "higher", "latency_p90_ms on lint-corpus"),
    ("lint.witness_skipped", "count", "lower", "latency_p90_ms on lint-corpus"),
    ("lint.certificate_ms", "ms", "lower", "latency_p90_ms on lint-corpus"),
    ("lint.certificate_calls", "count", "lower", "latency_p90_ms on lint-corpus"),
    ("lint.facts_peak", "count", "higher", "latency_p90_ms on lint-corpus"),
    ("lint.verdicts.compliant", "count", "higher", "failed_ratio on lint-corpus"),
    ("lint.verdicts.violation", "count", "lower", "failed_ratio on lint-corpus"),
    ("lint.verdicts.unknown", "count", "lower", "failed_ratio on lint-corpus"),
    ("lint.wrong_verdicts", "count", "lower", "failed_ratio on lint-corpus"),
    ("trace.ops_per_s", "1/s", "higher", "tracing overhead: ops_per_s of the untraced run minus this"),
)

#: Calls that get a span: (module, name it is seen under, span name).
SPANS = (
    ("meadowkit.cli", "main", "cli.main"),
    ("meadowkit.cli", "parse_term", "parser.parse"),
    ("meadowkit.cli", "parse_formula", "parser.parse"),
    ("meadowkit.lint", "parse_formula", "parser.parse"),
    ("meadowkit.semantics", "parse_term", "parser.parse"),
    ("meadowkit.semantics", "parse_formula", "parser.parse"),
    ("meadowkit.lint", "print_term", "printer.print"),
    ("meadowkit.semantics", "print_term", "printer.print"),
    ("meadowkit.semantics", "print_formula", "printer.print"),
    ("meadowkit.cli", "axiom_catalog", "semantics.axiom_catalog"),
    ("meadowkit.cli", "_ax", "semantics.axiom_spec"),
    ("meadowkit.cli", "verify_axiom_spec", "semantics.verify"),
    ("meadowkit.cli", "parse_logic_config", "logic.parse_config"),
    ("meadowkit.cli", "eval_formula", "logic.eval_formula"),
    ("meadowkit.cli", "classify_sentence", "logic.classify"),
    ("meadowkit.cli", "connective_table", "logic.connective_table"),
    ("meadowkit.cli", "parse_corpus", "lint.parse_corpus"),
    ("meadowkit.cli", "lint", "lint.lint"),
    ("meadowkit.lint", "find_zero_witness", "lint.witness"),
    ("meadowkit.lint", "nonzero_certificate", "lint.certificate"),
)

#: Calls made once per environment or per statement: counted, not spanned.
COUNTED = (
    ("meadowkit.cli", "eval_partial", "semantics.eval_partial"),
    ("meadowkit.logic", "eval_partial", "semantics.eval_partial"),
    ("meadowkit.lint", "eval_total", "semantics.eval_total"),
    ("meadowkit.lint", "free_vars", "terms.free_vars"),
    ("meadowkit.semantics", "free_vars", "terms.free_vars"),
    ("meadowkit.logic", "free_vars", "terms.free_vars"),
    ("meadowkit.lint", "collect_occurrences", "lint.collect_occurrences"),
)


def _ms(ns: int) -> float:
    return ns / 1e6


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def count_nodes(node) -> int:
    n = 1
    for attr in ("left", "right", "arg", "body"):
        child = getattr(node, attr, None)
        if child is not None:
            n += count_nodes(child)
    return n


def quantifier_instances(f, size: int, depth: int = 0) -> int:
    """Instances a full enumeration of f's quantifiers evaluates over a
    carrier of `size` elements."""
    if isinstance(f, (Forall, Exists)):
        return size ** (depth + 1) + quantifier_instances(f.body, size, depth + 1)
    if isinstance(f, Not):
        return quantifier_instances(f.arg, size, depth)
    if isinstance(f, (And, Or, Implies)):
        return quantifier_instances(f.left, size, depth) + quantifier_instances(f.right, size, depth)
    return 0


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, covered_ns]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.open = Counter()
        self.counted = {}  # name -> [calls, ns]
        self.undefined = 0
        self.pending = []  # (span name, args, kwargs, result), read after each command
        self.missing = []
        self._patched = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn):
        spans, stack, opened, pending = self.spans, self.stack, self.open, self.pending

        def wrapper(*args, **kwargs):
            if opened[name]:  # recursion stays inside the outer span
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            rec = [name, 0, 0, parent, 0]
            stack.append(len(spans))
            spans.append(rec)
            opened[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                opened[name] -= 1
                rec[1], rec[2] = start, end
                if parent is not None:
                    spans[parent][4] += end - start
            pending.append((name, args, kwargs, result))
            return result

        return wrapper

    def _count(self, name, fn):
        spans, stack = self.spans, self.stack
        totals = self.counted.setdefault(name, [0, 0])
        # only eval_partial can return UNDEFINED; any other result misses the sentinel
        undefined = sys.modules["meadowkit.semantics"].UNDEFINED if name == "semantics.eval_partial" else object()

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            elapsed = perf_counter_ns() - start
            totals[0] += 1
            totals[1] += elapsed
            if stack:
                spans[stack[-1]][4] += elapsed
            if result is undefined:
                self.undefined += 1
            return result

        return wrapper

    def install(self):
        for table, make in ((SPANS, self._span), (COUNTED, self._count)):
            for module, attr, name in table:
                mod = sys.modules[module]
                if not hasattr(mod, attr):
                    self.missing.append(f"{module}.{attr}")
                    continue
                original = getattr(mod, attr)
                self._patched.append((mod, attr, original))
                setattr(mod, attr, make(name, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -------------------------------------------------------------- counters

    def settle(self, stats: Counter):
        """Fold the calls recorded since the last settle into `stats`;
        done between commands so the walks here are never timed."""
        for name, args, kwargs, result in self.pending:
            if name == "parser.parse":
                stats["parser.nodes"] += count_nodes(result)
            elif name == "printer.print":
                stats["printer.chars"] += len(result)
            elif name == "semantics.verify":
                stats["semantics.envs"] += result.samples
            elif name in ("logic.eval_formula", "logic.classify"):
                structure = args[-1]
                size = len(structure.carrier.elements()) if structure.carrier.enumerable else 0
                stats["logic.instances"] += quantifier_instances(args[0], size)
                stats["logic.results"] += 1
                value = result.value if name == "logic.eval_formula" else getattr(result.value, "value", "U")
                stats["logic.u_results"] += value == "U"
            elif name == "lint.witness":
                stats["lint.witness_searches"] += 1
                stats["lint.witness_hits"] += result is not None
                extra = set(kwargs.get("extra_vars", ()))
                budget = kwargs.get("max_vars", 3)
                stats["lint.witness_skipped"] += len(free_names(args[0]) | extra) > budget
            elif name == "lint.certificate":
                stats["lint.certificate_calls"] += 1
                facts = args[1] if len(args) > 1 else kwargs.get("facts", ())
                stats["lint.facts_peak"] = max(stats["lint.facts_peak"], len(facts))
            elif name == "lint.lint":
                stats["lint.occurrences"] += len(result)
        self.pending.clear()

    def metrics(self, stats: Counter) -> dict:
        """Per-layer metrics over everything recorded so far."""
        spans = self.spans
        duration, self_ns, busy = Counter(), Counter(), Counter()
        for name, start, end, parent, covered in spans:
            d = end - start
            duration[name] += d
            self_ns[layer(name)] += d - covered
            if parent is None or layer(spans[parent][0]) != layer(name):
                busy[layer(name)] += d
        calls, ns = Counter(), Counter()
        for name, (n, t) in self.counted.items():
            calls[name] += n
            ns[name] += t
            self_ns[layer(name)] += t
        cli_calls = sum(1 for s in spans if s[0] == "cli.main")
        parser_ms = _ms(duration["parser.parse"])
        verify_ms = _ms(duration["semantics.verify"])
        searches = stats["lint.witness_searches"]
        return {
            "cli.self_ms": _ms(self_ns["cli"]),
            "cli.calls": cli_calls,
            "parser.busy_ms": _ms(busy["parser"]),
            "parser.nodes": stats["parser.nodes"],
            "parser.nodes_per_ms": stats["parser.nodes"] / parser_ms if parser_ms else 0.0,
            "printer.busy_ms": _ms(busy["printer"]),
            "printer.chars": stats["printer.chars"],
            "semantics.verify_ms": verify_ms,
            "semantics.self_ms": _ms(self_ns["semantics"]),
            "semantics.envs": stats["semantics.envs"],
            "semantics.envs_per_ms": stats["semantics.envs"] / verify_ms if verify_ms else 0.0,
            "semantics.eval_total_calls": calls["semantics.eval_total"],
            "semantics.eval_total_ms": _ms(ns["semantics.eval_total"]),
            "semantics.eval_partial_calls": calls["semantics.eval_partial"],
            "semantics.eval_partial_ms": _ms(ns["semantics.eval_partial"]),
            "semantics.undefined_ratio": self.undefined / calls["semantics.eval_partial"]
            if calls["semantics.eval_partial"] else 0.0,
            "terms.free_vars_calls": calls["terms.free_vars"],
            "terms.free_vars_ms": _ms(ns["terms.free_vars"]),
            "logic.busy_ms": _ms(busy["logic"]),
            "logic.self_ms": _ms(self_ns["logic"]),
            "logic.instances": stats["logic.instances"],
            "logic.u_ratio": stats["logic.u_results"] / stats["logic.results"] if stats["logic.results"] else 0.0,
            "lint.parse_corpus_ms": _ms(duration["lint.parse_corpus"]),
            "lint.busy_ms": _ms(busy["lint"]),
            "lint.self_ms": _ms(self_ns["lint"]),
            "lint.occurrences": stats["lint.occurrences"],
            "lint.witness_ms": _ms(duration["lint.witness"]),
            "lint.witness_searches": searches,
            "lint.witness_hit_ratio": stats["lint.witness_hits"] / searches if searches else 0.0,
            "lint.witness_skipped": stats["lint.witness_skipped"],
            "lint.certificate_ms": _ms(duration["lint.certificate"]),
            "lint.certificate_calls": stats["lint.certificate_calls"],
            "lint.facts_peak": stats["lint.facts_peak"],
        }

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "covered_ns"],
                       "spans": self.spans,
                       "counted": {k: {"calls": n, "ns": t} for k, (n, t) in self.counted.items()},
                       "untraced": self.missing}, handle)
