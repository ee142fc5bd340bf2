"""Per-layer metrics of a traced run, derived from its spans.

Window totals are divided by the number of traced passes, so they read
per pass; set-up and replay totals are per run.  Every metric is reported
for every workload; a layer a workload does not reach reads 0.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from collections import defaultdict

AUDIT_TAGS = ("monotone-in-p", "ceiling-bound", "half-bound",
              "nordhaus-gaddum", "max-minimal-vs-min")

PER_LAYER = {
    "graph.build_ms": "ms",
    "graph.builds": "count",
    "graph.complement_ms": "ms",
    "graph.is_connected_ms": "ms",
    "solver.gamma_p_exact.ms": "ms",
    "solver.gamma_p_exact.nodes": "count",
    "solver.gamma_p_binary_search.ms": "ms",
    "solver.gamma_p_binary_search.nodes": "count",
    "solver.probe.calls": "count",
    "solver.probe.ms": "ms",
    "solver.probe_last_infeasible.ms": "ms",
    "solver.probe_last_infeasible.share": "ratio",
    "solver.probe_feasible.ms": "ms",
    "solver.greedy.ms": "ms",
    "solver.greedy_gap": "count",
    "solver.big_gamma.ms": "ms",
    "solver.big_gamma.nodes": "count",
    "audit.suite.ms": "ms",
    **{f"audit.check.{tag}.ms": "ms" for tag in AUDIT_TAGS},
    "audit.solves_per_report": "count",
    "audit.distinct_solve_ratio": "ratio",
    "audit.sample.ms": "ms",
    "formulas.calls": "count",
    "formulas.ms": "ms",
    "formulas.fallback_ratio": "ratio",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.run_ms": "ms",
    "cli.output_bytes": "bytes",
    "cli.tracebacks": "count",
    "trace.overhead": "ratio",
    "load.share": "ratio",
    "known_defects.reproduced": "count",
}

# The layer each workload was chosen to load, as named in load.share.
LOAD = {
    "exact-near1": "decision probes (replayed) / gamma_p_exact time",
    "audit-sweep": "big_gamma_p_exact time / audit_suite time",
    "cli-mix": "interpreter start + import / whole CLI process",
}


class CliObserver:
    """Counts output bytes and tracebacks of in-process CLI ops."""

    def __init__(self):
        self.bytes = 0
        self.tracebacks = 0

    def __call__(self, op, out):
        _, stdout, stderr, _ = out
        self.bytes += len(stdout.encode()) + len(stderr.encode())
        self.tracebacks += "Traceback" in stderr


def cli_start_ms(src, repeats: int = 7) -> tuple[float, float]:
    """Medians of a bare interpreter and of one importing pardom.cli, both
    fresh processes; returns (interpreter ms, import ms beyond it)."""
    import time

    env = dict(os.environ, PYTHONPATH=str(src))
    bare, imp = [], []
    for _ in range(repeats):
        for code, sink in (("pass", bare), ("import pardom.cli", imp)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            sink.append((time.perf_counter() - start) * 1000.0)
    interp = statistics.median(bare)
    return interp, statistics.median(imp) - interp


def per_layer(tr, workload: str, passes: int, extra: dict, obs) -> dict[str, tuple[float, str]]:
    spans = tr.spans
    in_setup = lambda i: spans[i][4] == "setup"

    def total(indices, per_pass=True):
        setup = [i for i in indices if in_setup(i)]
        window = [i for i in indices if not in_setup(i) and not spans[i][4].startswith("replay")]
        replay = [i for i in indices if spans[i][4].startswith("replay")]
        return (tr.total_ms(setup) + tr.total_ms(replay)
                + tr.total_ms(window) / (passes if per_pass else 1))

    def count(indices):
        setup = sum(1 for i in indices if in_setup(i))
        return setup + (len(indices) - setup) / passes

    def nodes(indices):
        return sum(tr.notes.get(i, {}).get("nodes", 0) for i in indices) / passes

    m = {}
    builds = tr.outermost("graph.build")
    m["graph.build_ms"] = total(builds)
    m["graph.builds"] = count(builds)
    m["graph.complement_ms"] = total(tr.named("graph.complement"))
    m["graph.is_connected_ms"] = total(tr.named("graph.is_connected"))
    exact = tr.named("solver.gamma_p_exact") + tr.named("solver.gamma_exact")
    m["solver.gamma_p_exact.ms"] = total(exact)
    m["solver.gamma_p_exact.nodes"] = nodes(exact)
    binary = tr.named("solver.gamma_p_binary_search")
    m["solver.gamma_p_binary_search.ms"] = total(binary)
    m["solver.gamma_p_binary_search.nodes"] = nodes(binary)
    rp = extra.get("replay", {})
    m["solver.probe.calls"] = rp.get("calls", 0)
    m["solver.probe.ms"] = rp.get("probe_ms", 0.0)
    m["solver.probe_last_infeasible.ms"] = rp.get("last_ms", 0.0)
    m["solver.probe_last_infeasible.share"] = (
        rp["last_ms"] / rp["probe_ms"] if rp.get("probe_ms") else 0.0)
    m["solver.probe_feasible.ms"] = rp.get("feasible_ms", 0.0)
    m["solver.greedy.ms"] = total(tr.named("solver.greedy"))
    m["solver.greedy_gap"] = rp.get("greedy_gap", 0)
    big = tr.named("solver.big_gamma")
    m["solver.big_gamma.ms"] = total(big)
    m["solver.big_gamma.nodes"] = nodes(big)
    suites = tr.named("audit.suite")
    m["audit.suite.ms"] = total(suites)
    by_tag = defaultdict(list)
    for i in tr.outermost("audit.check."):
        by_tag[spans[i][0][len("audit.check."):]].append(i)
    for tag in AUDIT_TAGS:
        m[f"audit.check.{tag}.ms"] = total(by_tag[tag])
    # gamma_p solves made by audit_suite: calls per report, and how many
    # of them were distinct (graph, p) pairs within their report.
    calls, distinct = 0, 0
    inside = defaultdict(list)
    for i in exact:
        p = spans[i][3]
        while p >= 0 and spans[p][0] != "audit.suite":
            p = spans[p][3]
        if p >= 0:
            inside[p].append(tr.notes[i]["solve_key"])
    for keys in inside.values():
        calls += len(keys)
        distinct += len(set(keys))
    m["audit.solves_per_report"] = calls / len(inside) if inside else 0.0
    m["audit.distinct_solve_ratio"] = distinct / calls if calls else 0.0
    m["audit.sample.ms"] = total(tr.named("audit.sample"))
    formulas = tr.outermost("formulas.")
    m["formulas.calls"] = count(formulas)
    m["formulas.ms"] = total(formulas)
    kinds = extra.get("formula_constructions", [])
    m["formulas.fallback_ratio"] = (
        kinds.count("exact-solver") / len(kinds) if kinds else 0.0)
    m["cli.interp_ms"] = extra.get("interp_ms", 0.0)
    m["cli.import_ms"] = extra.get("import_ms", 0.0)
    parse = 0.0
    runs = {spans[i][3]: spans[i][1] for i in tr.named("cli.run")}
    if obs is not None:
        for i in tr.named("op"):
            parse += (runs.get(i, spans[i][2]) - spans[i][1]) * 1000.0
    m["cli.parse_ms"] = parse / passes
    m["cli.run_ms"] = total(tr.named("cli.run"))
    m["cli.output_bytes"] = obs.bytes / passes if obs else 0.0
    # Tracebacks per pass, plus the known-defect probe's.
    m["cli.tracebacks"] = (obs.tracebacks / passes + extra["defect_tracebacks"]) if obs else 0.0
    m["trace.overhead"] = extra["overhead"]
    if workload == "exact-near1":
        # Replayed probes cover each instance once; the window has one
        # gamma_p_exact per family instance and one sparse graph per pass.
        share = m["solver.probe.ms"] / (rp["exact_ms"] or 1.0)
    elif workload == "audit-sweep":
        share = m["solver.big_gamma.ms"] / m["audit.suite.ms"]
    else:
        ops = tr.named("op")
        op_ms = tr.total_ms(ops) / len(ops)
        start = m["cli.interp_ms"] + m["cli.import_ms"]
        share = start / (start + op_ms)
    m["load.share"] = share
    m["known_defects.reproduced"] = extra["defects"]
    return {name: (float(m[name]), unit) for name, unit in PER_LAYER.items()}


def load_summary(metrics, workload: str) -> list[str]:
    share = metrics["load.share"][0]
    return [f"load.share = {LOAD[workload]} = {share:.3f}"
            f" ({'most' if share > 0.5 else 'NOT most'} of the workload's time)"]
