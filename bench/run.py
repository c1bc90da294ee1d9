#!/usr/bin/env python3
"""End-to-end benchmark of the meadowkit command line.

    python3 bench/run.py --workload lint-corpus --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1 --seconds 25        # every workload, as a table

One workload runs in one process: a closed loop with a single client
calls ``meadowkit.cli.main(argv)`` in process, one command after the
other, with stdout captured, until `--seconds` have passed.  The inputs
come from `--seed` alone (see ``workloads.py``).  After the loop every
distinct output is checked by ``check.py``, outside the timed region.
Command times are CPU times scaled to a nominal machine speed
(``speed.py``); wall-clock figures go to the context line.

The first line printed is the run's context (machine, seed, sample
counts, why the workload exists); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the package is traced
(``tracing.py``) and the metrics are the per-layer ones, taken over the
first full pass of the workload's command list so that counts repeat
exactly for a seed.

Run from the root of a source checkout: the package is imported from
``src/`` and the oracle from ``tests/oracle.py``, both read-only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
ORACLE = os.path.join(ROOT, "tests", "oracle.py")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
TRACES = os.path.join(ROOT, ".bench_traces")

WORKLOADS = ("axioms-gf", "lint-corpus", "logic-quant", "oneshot-mix")

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Set-up is timed this many times, each in a fresh process, spread over
#: the run; the median counts.
SETUP_REPEATS = 11


class BenchError(Exception):
    """The benchmark cannot run here (no package source, no oracle)."""


def load_package():
    """Import meadowkit from this checkout's `src/`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "meadowkit", "__init__.py")):
        raise BenchError(f"no package source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("meadowkit.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"meadowkit was imported from {cli.__file__}, not {SRC}")
    return cli


def load_oracle():
    if not os.path.isfile(ORACLE):
        raise BenchError(f"no oracle at {ORACLE}")
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)  # leaves tests/ untouched
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def setup(workload: str, seed: int, workdir: str):
    """Everything before the first command: import the package, generate
    the inputs, write the corpora.  Returns the command list."""
    load_package()
    import workloads

    ops = workloads.generate(workload, seed)
    for i, op in enumerate(ops):
        if op.kind == "lint":
            path = os.path.join(workdir, f"corpus-{i}.mcorpus")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(op.expect["text"])
            op.argv = op.argv + [path]
    return ops


@dataclass
class SetupTimes:
    """`setup` run in fresh processes, from process start to the point where
    the first command would run.  CPU time leaves out time the hypervisor
    gave to other guests."""

    workload: str
    seed: int
    wall: list = field(default_factory=list)
    cpu: list = field(default_factory=list)

    def __call__(self) -> None:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", self.workload,
                        "--seed", str(self.seed), "--setup-only"],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        self.wall.append(time.perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.cpu.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)


def known_defects(cli_module, workdir: str) -> dict:
    """Lint each known-defect probe once, untimed: {name: still shows}."""
    import check
    import workloads

    shown = {}
    for name, op in workloads.defect_probes().items():
        path = os.path.join(workdir, f"probe-{name}.mcorpus")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(op.expect["text"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli_module.main(op.argv + [path])
        shown[name] = check.check(op, rc, out.getvalue())[1] > 0
    return shown


def git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_steal_s() -> float:
    """CPU time the hypervisor gave to others since boot, all CPUs (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


@dataclass
class Measured:
    """What one closed-loop run observed."""

    wall: list = field(default_factory=list)  # command latencies, wall clock, s
    nominal: list = field(default_factory=list)  # command CPU times at nominal speed, s
    seen: Counter = field(default_factory=Counter)  # (op index, exit code, stdout) -> count
    raised: Counter = field(default_factory=Counter)  # op index -> commands that raised
    elapsed: float = 0.0  # without pauses
    pauses: int = 0
    layer: dict | None = None  # per-layer metrics of the first pass, when traced


def run_loop(cli_module, ops, seconds: float, tracer=None, pause=None, pauses: int = 0) -> Measured:
    """Run commands in order, cycling the list, until `seconds` have passed
    (at least one command and, when tracing, one full pass).  `pause` is
    called `pauses` times between commands, evenly over the run, which is
    extended by the time the calls take: the machine's speed changes
    within seconds, so set-up timed only at the start would see one phase."""
    m = Measured()
    probe = speed.Probe()
    probe.measure()
    stats = Counter()
    starts, ends, cpus = array("d"), array("d"), array("d")
    start = time.perf_counter()
    deadline = start + seconds
    paused = 0.0
    i = 0
    while i == 0 or time.perf_counter() < deadline or (tracer is not None and i < len(ops)):
        index = i % len(ops)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                rc = cli_module.main(ops[index].argv)
            except Exception:  # a crash is a failed command, counted in `failed`
                rc = None
            c1, t1 = time.thread_time(), time.perf_counter()
        starts.append(t0)
        ends.append(t1)
        cpus.append(c1 - c0)
        if rc is None:
            m.raised[index] += 1
        else:
            m.seen[(index, rc, out.getvalue())] += 1
        i += 1
        if tracer is not None:
            tracer.settle(stats)
            if i == len(ops):
                m.layer = tracer.metrics(stats)
        if pause is not None and m.pauses < pauses and (
                time.perf_counter() - start - paused >= (m.pauses + 1) * seconds / (pauses + 1)):
            t = time.perf_counter()
            pause()
            m.pauses += 1
            t = time.perf_counter() - t
            paused += t
            deadline += t
        probe.maybe_measure()
    m.elapsed = time.perf_counter() - start - paused
    probe.measure()
    m.wall = [t1 - t0 for t0, t1 in zip(starts, ends)]
    m.nominal = [cpu / probe.slowness(t0, t1) for t0, t1, cpu in zip(starts, ends, cpus)]
    return m


def check_outputs(ops, seen, raised):
    """(attempted, failed, {op index: (outputs, wrong, stdout)}) over every
    command run; each distinct output is checked once."""
    import check

    attempted = failed = 0
    judged = {}
    for (index, rc, out), n in seen.items():
        outputs, wrong = check.check(ops[index], rc, out)
        attempted += outputs * n
        failed += wrong * n
        judged[index] = (outputs, wrong, out)
    for index, n in raised.items():
        attempted += n
        failed += n
    return attempted, failed, judged


def lint_verdict_counts(ops, judged) -> dict:
    counts = Counter()
    for index, (outputs, wrong, out) in judged.items():
        if ops[index].kind != "lint":
            continue
        counts["wrong"] += wrong
        try:
            for v in json.loads(out)["verdicts"]:
                counts[v["verdict"].lower()] += 1
        except (ValueError, KeyError):
            pass
    return {
        "lint.verdicts.compliant": counts["compliant"],
        "lint.verdicts.violation": counts["violation"],
        "lint.verdicts.unknown": counts["unknown"],
        "lint.wrong_verdicts": counts["wrong"],
    }


def quantile_ms(latencies, q: int) -> float:
    """The q-th percentile in ms (statistics.quantiles, exclusive method)."""
    if len(latencies) < 2:
        return latencies[0] * 1000
    return statistics.quantiles(latencies, n=100)[q - 1] * 1000


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload in this process; returns (context, result)."""
    load_package()
    import check
    import tracing
    import workloads

    setups = SetupTimes(workload, seed)
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    try:
        ops = setup(workload, seed, workdir)
        check.use_oracle(load_oracle())
        cli = sys.modules["meadowkit.cli"]
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        steal = cpu_steal_s()
        try:
            # set-up is timed only untraced, where setup_s is reported
            m = run_loop(cli, ops, seconds, tracer, None if trace else setups, SETUP_REPEATS)
        finally:
            if tracer is not None:
                tracer.uninstall()
        steal = cpu_steal_s() - steal
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        defects = known_defects(cli, workdir) if workload == "lint-corpus" else None
        while not trace and len(setups.cpu) < SETUP_REPEATS:  # a run too short to spread them
            setups()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_start = time.perf_counter()
    attempted, failed, judged = check_outputs(ops, m.seen, m.raised)
    check_s = time.perf_counter() - check_start
    n = len(m.nominal)
    ops_per_s = n / sum(m.nominal)
    p90_ms = quantile_ms(m.nominal, 90)
    if trace:
        layer = m.layer
        layer.update(lint_verdict_counts(ops, judged))
        layer["trace.ops_per_s"] = ops_per_s
        os.makedirs(TRACES, exist_ok=True)
        tracer.write(os.path.join(TRACES, f"{workload}-seed{seed}.json"))
        units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        values = {
            "setup_s": statistics.median(setups.cpu),
            "ops_per_s": ops_per_s,
            "latency_p50_ms": statistics.median(m.nominal) * 1000,
            "latency_p90_ms": p90_ms,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    context = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "commands_per_pass": len(ops),
        "latency_samples": n,
        "samples_beyond_p90": sum(1 for v in m.nominal if v * 1000 > p90_ms),
        "failed_ratio": failed / attempted if attempted else 0.0,
        "commands_raised": sum(m.raised.values()),
        "wall_ops_per_s": n / m.elapsed,
        "wall_latency_p50_ms": statistics.median(m.wall) * 1000,
        "wall_latency_p90_ms": quantile_ms(m.wall, 90),
        "wall_over_nominal_median": statistics.median(w / v for w, v in zip(m.wall, m.nominal) if v),
        "cpu_steal_s": steal,
        "check_s": check_s,
    }
    if not trace:
        context["wall_setup_s"] = statistics.median(setups.wall)
    if defects is not None:
        context["known_lint_defects_shown"] = defects
    if trace:
        context["untraced_boundaries"] = tracer.missing
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return context, result


def run_all(seed: int, seconds: float):
    """Every workload in its own process, untraced then traced, as tables."""
    load_package()
    import tracing

    rows = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                raise BenchError(f"{workload} --trace {trace} failed:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            rows[workload, trace] = json.loads(lines[0])["context"], json.loads(lines[-1])
    header = ["workload"] + [f"{name} [{unit}]" for name, unit in END_TO_END] + [
        "samples", "failed_ratio", "correct"]
    table = [header]
    for workload in WORKLOADS:
        context, result = rows[workload, 0]
        m = result["metrics"]
        table.append([workload] + [f"{m[name]['value']:.4g}" for name, _ in END_TO_END] + [
            str(context["latency_samples"]),
            f"{result['failed']}/{result['attempted']} ({context['failed_ratio']:.2%})", str(result["correct"])])
    print(_format(table))
    print()
    table = [["per-layer metric", "unit", "should move"] + list(WORKLOADS)]
    for name, unit, _, moves in tracing.LAYER_METRICS:
        table.append([name, unit, moves] + [f"{rows[w, 1][1]['metrics'][name]['value']:.6g}" for w in WORKLOADS])
    table.append(["tracing overhead", "1/s", "ops_per_s untraced - traced"] + [
        f"{rows[w, 0][1]['metrics']['ops_per_s']['value'] - rows[w, 1][1]['metrics']['trace.ops_per_s']['value']:.4g}"
        for w in WORKLOADS])
    print(_format(table))
    context = rows[WORKLOADS[0], 0][0]
    print(f"\nnproc={context['nproc']} python={context['python']} git_rev={context['git_rev']} "
          f"seed={seed} seconds={seconds}")


def _format(table) -> str:
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print its result as JSON (default: all, as tables)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_only and args.workload is None:
        parser.error("--setup-only needs --workload")
    try:
        if args.setup_only:
            os.makedirs(SCRATCH, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=SCRATCH) as workdir:
                setup(args.workload, args.seed, workdir)
            return 0
        if args.workload is None:
            run_all(args.seed, args.seconds)
            return 0
        context, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
