"""The three workloads: exact-near1, audit-sweep and cli-mix.

Each workload builds its inputs (:meth:`build`, the part ``setup_s``
times), computes references that pardom did not produce
(:meth:`references`), lists its ops (:meth:`ops`), and runs its known-defect
probes (:meth:`defects`).  An op is a callable paired with a check that
returns ``""`` when the answer is right and otherwise says what is wrong.

``pardom`` is imported inside :meth:`build`, after ``run.py`` has put the
checkout's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import check
import inputs
from check import fmt, frac, threshold

HERE = Path(__file__).resolve().parent
ONE = Fraction(1)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str]
    same_each_pass: bool = True  # False when the op's input rotates per pass


@dataclass
class Defect:
    name: str
    reproduced: bool
    problem: str = ""  # a wrong answer after a fix; counts as incorrect


def oracle_gammas(requests: list[tuple[int, list, int]]) -> list[int]:
    """Reference gamma_p values from the ILP, solved in a child process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracle.py")],
        input=json.dumps(requests), capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference ILP failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def result_problem(res, closed, t: int, ref: int, exact: bool = True) -> str:
    """Check a pardom SolveResult against a reference value, independently."""
    if exact and res.cardinality != ref:
        return f"cardinality {res.cardinality} != reference {ref}"
    if not exact and res.cardinality < ref:
        return f"cardinality {res.cardinality} below the optimum {ref}"
    return check.witness_problem(closed, sorted(res.witness), t, res.cardinality)


def solve_note(tr):
    """Span attributes of a solve: nodes explored and a (graph, p) key."""
    def note(idx, args, res):
        p = Fraction(args[1]) if len(args) > 1 else ONE
        tr.note(idx, nodes=res.nodes_explored, solve_key=hash((args[0].n, args[0].closed, p)))
    return note


class Instance:
    """A graph at one proportion, with its reference answer."""

    def __init__(self, label: str, n: int, edges, p: Fraction, family: bool):
        self.label, self.n, self.edges, self.p, self.family = label, n, edges, p, family
        self.t = threshold(n, p)
        self.closed = check.closed_masks(n, edges)
        self.ref: int | None = None
        self.graph = None  # pardom Graph, set by build()


# ---------------------------------------------------------------------------
# exact-near1
# ---------------------------------------------------------------------------


class ExactNear1:
    """Exact gamma_p near p = 1, where the k = gamma_p - 1 proof dominates."""

    name = "exact-near1"

    def __init__(self, root: Path, seed: int):
        self.instances = [
            Instance(spec, *inputs.family_edges(spec), frac(p), True)
            for spec, p in inputs.NEAR1_FAMILY
        ]
        self.instances += [
            Instance(label, n, edges, ONE, False)
            for label, n, edges in inputs.near1_random(seed)
        ]
        spec, p = inputs.NEAR1_DEFECT
        self.defect = Instance(spec, *inputs.family_edges(spec), frac(p), True)
        self.defect.ref = -(-self.defect.n // 3)  # gamma(C_n) = ceil(n / 3)

    def build(self):
        import pardom

        self.pd = pardom
        for inst in self.instances + [self.defect]:
            if inst.family:
                inst.graph = pardom.make_family(pardom.parse_family(inst.label))
            else:
                inst.graph = pardom.Graph.from_edges(inst.n, inst.edges)

    def references(self):
        refs = oracle_gammas([(i.n, i.edges, i.t) for i in self.instances])
        for inst, ref in zip(self.instances, refs):
            inst.ref = ref

    def ops(self) -> list[Op]:
        """Both gamma_p solvers on every family instance, then one seeded sparse
        graph; the sparse graphs take turns, one per pass."""
        ops = []
        for inst in self.instances:
            if not inst.family:
                continue
            for fn in ("gamma_p_exact", "gamma_p_binary_search"):
                # Looked up per call, so the traced run's wrappers apply.
                ops.append(Op(
                    f"{fn}:{inst.label}@{fmt(inst.p)}",
                    lambda fn=fn, i=inst: getattr(self.pd, fn)(i.graph, i.p),
                    lambda res, i=inst: result_problem(res, i.closed, i.t, i.ref),
                ))
        turns = itertools.cycle([i for i in self.instances if not i.family])

        def sparse():
            inst = next(turns)
            return inst, self.pd.gamma_p_exact(inst.graph, inst.p)

        ops.append(Op("gamma_p_exact:sparse@1/1", sparse,
                      lambda out: result_problem(out[1], out[0].closed, out[0].t, out[0].ref),
                      same_each_pass=False))
        return ops

    def defects(self) -> list[Defect]:
        d = self.defect
        name = f"gamma_p_exact:{d.label}@{fmt(d.p)} RecursionError"
        try:
            res = self.pd.gamma_p_exact(d.graph, d.p)
        except RecursionError:
            return [Defect(name, True)]
        except Exception as exc:  # a different failure is not the known defect
            return [Defect(name, False, f"{type(exc).__name__}: {exc}")]
        return [Defect(name, False, result_problem(res, d.closed, d.t, d.ref))]

    # -- traced run -------------------------------------------------------

    def instrument(self, tr):
        note = solve_note(tr)
        tr.wrap(self.pd, "gamma_p_exact", "solver.gamma_p_exact", note)
        tr.wrap(self.pd, "gamma_p_binary_search", "solver.gamma_p_binary_search", note)

    def instrument_build(self, tr):
        pd = self.pd
        tr.wrap(pd, "make_family", "graph.build.make_family")
        tr.wrap(pd.Graph, "from_edges", "graph.build.from_edges", classmethod_=True)

    def replay(self, tr, problems: list[str]) -> dict:
        """Replay each decision probe k = 0..gamma_p, one gamma_p_exact and
        the greedy bound, once per instance, timing each."""
        out = dict(calls=0, probe_ms=0.0, last_ms=0.0, feasible_ms=0.0,
                   greedy_ms=0.0, greedy_gap=0, exact_ms=0.0)
        for inst in self.instances:
            tr.op = f"replay:{inst.label}"
            try:
                self._replay_one(inst, tr, out, problems)
            except Exception as exc:  # reported, and the run goes on
                problems.append(f"replay {inst.label}: {type(exc).__name__}: {exc}")
        return out

    def _replay_one(self, inst, tr, out, problems):
        pd = self.pd

        def timed(name, fn, *args):
            with tr.span(name) as idx:
                start = time.perf_counter()
                res = fn(*args)
                ms = (time.perf_counter() - start) * 1000.0
            return idx, res, ms

        for k in range(inst.ref + 1):
            idx, w, ms = timed("solver.probe", pd.t_dom_decision, inst.graph, inst.t, k)
            tr.note(idx, k=k, instance=inst.label)
            out["calls"] += 1
            out["probe_ms"] += ms
            if k == inst.ref - 1:
                out["last_ms"] += ms
            if k < inst.ref and w is not None:
                problems.append(f"probe {inst.label} k={k}: witness below gamma_p")
            if k == inst.ref:
                out["feasible_ms"] += ms
                p = ("no witness at gamma_p" if w is None
                     else check.witness_problem(inst.closed, sorted(w), inst.t))
                if p:
                    problems.append(f"probe {inst.label} k={k}: {p}")
        out["exact_ms"] += timed("solver.gamma_p_exact.replay", pd.gamma_p_exact,
                                 inst.graph, inst.p)[2]
        _, g, ms = timed("solver.greedy", pd.greedy_gamma_p, inst.graph, inst.p)
        out["greedy_ms"] += ms
        p = result_problem(g, inst.closed, inst.t, inst.ref, exact=False)
        if p:
            problems.append(f"greedy {inst.label}: {p}")
        out["greedy_gap"] += g.cardinality - inst.ref


# ---------------------------------------------------------------------------
# audit-sweep
# ---------------------------------------------------------------------------


REFS_FILE = HERE / "refs" / "audit_suites.json"


def instrument_audit(tr, audit):
    """Spans at the names audit_suite looks up in pardom.audit."""
    note = solve_note(tr)
    tr.wrap(audit, "gamma_p_exact", "solver.gamma_p_exact", note)
    tr.wrap(audit, "gamma_exact", "solver.gamma_exact", note)
    tr.wrap(audit, "big_gamma_p_exact", "solver.big_gamma", note)
    tr.wrap(audit, "complement", "graph.complement")
    tr.wrap(audit, "is_connected", "graph.is_connected")
    for fn, tag in (("check_monotonicity", "monotone-in-p"),
                    ("check_ceiling_bound", "ceiling-bound"),
                    ("check_half_bound", "half-bound"),
                    ("check_nordhaus_gaddum", "nordhaus-gaddum"),
                    ("check_big_gamma", "max-minimal-vs-min")):
        tr.wrap(audit, fn, f"audit.check.{tag}")


class AuditSweep:
    """audit_suite with the default six proportions over a fixed graph suite.

    The suite is drawn once by :func:`inputs.audit_suite_graphs`; its
    gamma_p references (ILP) and Gamma_p references (baseline pardom,
    witnesses re-checked for minimality) are committed in ``refs/``.
    ``--seed`` sets the order of the reports.
    """

    name = "audit-sweep"

    def __init__(self, root: Path, seed: int, suite: str = "main"):
        self.ps = [frac(p) for p in inputs.AUDIT_PS]
        refs = json.loads(REFS_FILE.read_text(encoding="utf-8"))[suite]
        self.graphs = []
        for (label, n, prob, edges), ref in zip(inputs.audit_suite_graphs(suite), refs):
            if ref["digest"] != inputs.edges_digest(n, edges) or ref["name"] != label:
                raise RuntimeError(f"audit suite graph {label} does not match refs/")
            keyed = lambda d: {frac(k): v for k, v in d.items()}
            self.graphs.append(dict(
                label=label, n=n, edges=edges,
                gamma=keyed(ref["gamma"]), gamma_bar=keyed(ref["gamma_bar"]),
                big_gamma=keyed(ref["big_gamma"]),
                want=check.expected_audit(n, edges, self.ps, keyed(ref["gamma"]),
                                          keyed(ref["gamma_bar"]), keyed(ref["big_gamma"])),
            ))
        self.rng = random.Random(seed)

    def build(self):
        import pardom

        self.pd = pardom
        for g in self.graphs:
            g["graph"] = pardom.Graph.from_edges(g["n"], g["edges"])

    def references(self):
        pass  # committed

    def ops(self) -> list[Op]:
        ops = [
            Op(f"audit_suite:{g['label']}",
               lambda g=g: self.pd.audit_suite(g["graph"], self.ps, graph_id=g["label"]),
               lambda rep, g=g: self._report_problem(rep, g))
            for g in self.graphs
        ]
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def _report_problem(rep, g) -> str:
        got = [(c.tag, c.detail, c.lhs, c.rhs, c.hypothesis_met, c.holds) for c in rep.checks]
        return check.records_problem(got, g["want"])

    def verify(self) -> dict[str, str]:
        """Re-run each report once, untimed, capturing the solves it makes,
        and re-check every witness with the benchmark's own code."""
        import pardom.audit as audit

        known = {}
        for g in self.graphs:
            comp = inputs.complement_edges(g["n"], g["edges"])
            known[tuple(check.closed_masks(g["n"], g["edges"]))] = (g, "gamma")
            known[tuple(check.closed_masks(g["n"], comp))] = (g, "gamma_bar")
        captured = []
        originals = {name: getattr(audit, name)
                     for name in ("gamma_p_exact", "gamma_exact", "big_gamma_p_exact")}

        def capture(name):
            def wrapper(graph, *args, **kwargs):
                res = originals[name](graph, *args, **kwargs)
                captured.append((name, graph, Fraction(args[0]) if args else ONE, res))
                return res
            return wrapper

        problems = {}
        try:
            for name in originals:
                setattr(audit, name, capture(name))
            for g in self.graphs:
                captured.clear()
                try:
                    self.pd.audit_suite(g["graph"], self.ps, graph_id=g["label"])
                except Exception as exc:  # the timed op failed the same way
                    problems[f"audit_suite:{g['label']}"] = f"{type(exc).__name__}: {exc}"
                    continue
                for name, graph, p, res in captured:
                    closed = tuple(graph.closed)
                    if closed not in known:
                        problems[f"audit_suite:{g['label']}"] = (
                            f"{name} ran on a graph that is neither G nor its complement")
                        break
                    owner, kind = known[closed]
                    if name == "big_gamma_p_exact":
                        kind = "big_gamma"
                    ref = owner[kind][p]
                    t = threshold(owner["n"], p)
                    p_text = check.witness_problem(closed, sorted(res.witness), t, res.cardinality)
                    if not p_text and res.cardinality != ref:
                        p_text = f"{name} at p={fmt(p)} gave {res.cardinality}, reference {ref}"
                    if not p_text and kind == "big_gamma":
                        p_text = check.minimality_problem(closed, sorted(res.witness), t)
                    if p_text:
                        problems[f"audit_suite:{g['label']}"] = p_text
                        break
        finally:
            for name, fn in originals.items():
                setattr(audit, name, fn)
        return problems

    def defects(self) -> list[Defect]:
        return []

    # -- traced run -------------------------------------------------------

    def instrument(self, tr):
        import pardom.audit as audit

        instrument_audit(tr, audit)
        tr.wrap(self.pd, "audit_suite", "audit.suite")

    def instrument_build(self, tr):
        tr.wrap(self.pd.Graph, "from_edges", "graph.build.from_edges", classmethod_=True)


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def run_cli_process(argv, root: Path, workdir: Path):
    """One ``python -m pardom.cli`` process; returns (code, out, err, maxrss_kb)."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "pardom.cli", *argv],
                                stdout=out, stderr=err, cwd=workdir, env=cli_env(root))
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"), usage.ru_maxrss)


def run_cli_inprocess(main, argv):
    """``pardom.cli.main(argv)`` with stdout and stderr captured.

    An exception that escapes ``main`` is printed as the interpreter would,
    so it shows as a traceback on stderr with exit status 1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI's contract is violated; report it like python does
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue(), 0


class CliMix:
    """About twenty fixed ``python -m pardom.cli`` invocations, one at a time."""

    name = "cli-mix"

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.workdir = root, workdir
        rng = random.Random(seed)
        self.files = {
            "a": (18, inputs.gnp(rng, 18, 1 / 3)),
            "b": (10, inputs.gnp(rng, 10, 2 / 5)),
        }
        self.sample_seeds = (rng.randrange(1 << 32), rng.randrange(1 << 32))
        self.specs = self._specs()
        self.formula_constructions: list[str] = []

    def path(self, key: str) -> str:
        return str(self.workdir / f"{key}.edges")

    def build(self):
        import pardom.cli

        self.main = pardom.cli.main
        for key, (n, edges) in self.files.items():
            Path(self.path(key)).write_text(inputs.edge_list_text(n, edges), encoding="utf-8")

    # Graph sources: family specs build with inputs.family_edges, files
    # and samples come from the seed.
    def graph(self, source: str):
        if source in self.files:
            return self.files[source]
        if source.startswith("sample"):
            n, prob, seed = self.samples[source]
            return n, inputs.splitmix_coconnected(n, prob, seed)
        return inputs.family_edges(source)

    def _specs(self):
        s1, s2 = self.sample_seeds
        self.samples = {"sample1": (10, Fraction(1, 2), s1), "sample2": (8, Fraction(1, 3), s2)}
        a, b = self.path("a"), self.path("b")
        missing = str(self.workdir / "missing.edges")
        gen_out = str(self.workdir / "gen.edges")
        solve = lambda src, p, m, js: ("solve", src, frac(p), m, js)
        return [
            (["solve", "--family", "grid:4,5", "--p", "1/1"], solve("grid:4,5", "1", "exact", False)),
            (["solve", "--family", "spider:8", "--p", "1/2", "--method", "binary-search", "--json"],
             solve("spider:8", "1/2", "binary-search", True)),
            (["solve", "--family", "cycle:30", "--p", "2/3", "--method", "greedy"],
             solve("cycle:30", "2/3", "greedy", False)),
            (["solve", "--family", "grid:3,6", "--p", "3/4", "--method", "oracle", "--json"],
             solve("grid:3,6", "3/4", "oracle", True)),
            (["solve", "--input", a, "--p", "1/2"], solve("a", "1/2", "exact", False)),
            (["solve", "--input", a, "--p", "3/4", "--method", "binary-search", "--json"],
             solve("a", "3/4", "binary-search", True)),
            (["solve", "--input", a, "--p", "4/5", "--method", "greedy", "--json"],
             solve("a", "4/5", "greedy", True)),
            (["solve", "--input", b, "--p", "1/1", "--method", "oracle"], solve("b", "1", "oracle", False)),
            (["gamma", "--family", "torus:3,5"], ("gamma", "torus:3,5", ONE, "exact", False)),
            (["gamma", "--input", a, "--json"], ("gamma", "a", ONE, "exact", True)),
            (["big-gamma", "--family", "path:8", "--p", "1/2"], ("big-gamma", "path:8", frac("1/2"), None, False)),
            (["big-gamma", "--input", b, "--p", "2/3", "--json"], ("big-gamma", "b", frac("2/3"), None, True)),
            (["gen", "--family", "grid:3,4"], ("gen", "grid:3,4", None)),
            (["gen", "--family", "torus:3,4", "--output", gen_out], ("gen", "torus:3,4", gen_out)),
            (["audit", "--sample", "10", "--seed", str(s1), "--json"], ("audit", "sample1", True)),
            (["audit", "--sample", "8", "--seed", str(s2), "--prob", "1/3", "--ps", "1/4,1/2,1/1"],
             ("audit", "sample2", False)),
            (["closed-form", "--family", "grid:2,12"], ("closed-form", "grid:2,12", False)),
            (["closed-form", "--family", "grid:3,4", "--json"], ("closed-form", "grid:3,4", True)),
            (["closed-form", "--family", "cycle:20", "--json"], ("closed-form", "cycle:20", True)),
            (["closed-form", "--family", "grid:16,16", "--ratio"], ("ratio", 16, 16)),
            (["bench", "--family", "cycle:24", "--family", "grid:3,4", "--p", "1/2", "--repeat", "2", "--json"],
             ("bench", ("cycle:24", "grid:3,4"), frac("1/2"))),
            (["solve", "--family", "grid:3,4", "--p", "3/2"], ("invalid",)),
            (["big-gamma", "--family", "grid:5,5"], ("invalid",)),
            (["solve", "--input", missing], ("invalid",)),
            (["closed-form", "--family", "spider:5", "--ratio"], ("invalid",)),
        ]

    def references(self):
        """ILP gamma_p for every (graph, p) the checks need; brute-force Gamma_p."""
        want = set()
        for _, spec in self.specs:
            kind = spec[0]
            if kind in ("solve", "gamma"):
                want.add((spec[1], spec[2]))
            elif kind == "closed-form":
                want.add((spec[1], Fraction(1, 2)))
            elif kind == "bench":
                want.update((f, spec[2]) for f in spec[1])
        audit_ps = {"sample1": [frac(p) for p in inputs.AUDIT_PS],
                    "sample2": [Fraction(1, 4), Fraction(1, 2), ONE]}
        for src, ps in audit_ps.items():
            for p in ps:
                want.add((src, p))
                want.add((src + "~", p))
        keys = sorted(want, key=str)
        requests = []
        for src, p in keys:
            n, edges = self.graph(src.rstrip("~"))
            if src.endswith("~"):
                edges = inputs.complement_edges(n, edges)
            requests.append((n, edges, threshold(n, p)))
        self.gamma = dict(zip(keys, oracle_gammas(requests)))
        self.big_gamma = {}
        for src, ps in list(audit_ps.items()) + [("path:8", [Fraction(1, 2)]), ("b", [Fraction(2, 3)])]:
            n, edges = self.graph(src)
            for p in ps:
                self.big_gamma[(src, p)] = check.brute_big_gamma(n, edges, p)
        self.audit_ps = audit_ps

    def ops(self, in_process: bool = False) -> list[Op]:
        ops = []
        for argv, spec in self.specs:
            if in_process:
                call = lambda argv=argv: run_cli_inprocess(self.main, argv)
            else:
                call = lambda argv=argv: run_cli_process(argv, self.root, self.workdir)
            name = " ".join(Path(a).name if a.startswith(str(self.workdir)) else a for a in argv)
            ops.append(Op(name, call, lambda out, spec=spec: self.problem(spec, out)))
        return ops

    def defects(self, in_process: bool = False) -> list[Defect]:
        argv = ["bench", "--family", "cycle:24", "--repeat", "0"]
        if in_process:
            code, out, err, _ = run_cli_inprocess(self.main, argv)
        else:
            code, out, err, _ = run_cli_process(argv, self.root, self.workdir)
        self.last_defect_stderr = err
        name = "bench --repeat 0 AttributeError traceback"
        if "Traceback" in err:
            return [Defect(name, True)]
        return [Defect(name, False, self._invalid_problem(code, out, err))]

    # -- checks -----------------------------------------------------------

    @staticmethod
    def _invalid_problem(code, out, err) -> str:
        if "Traceback" in err:
            return "Python traceback on stderr"
        if code != 1:
            return f"exit status {code}, want 1"
        if not any(line.startswith("error:") for line in err.splitlines()):
            return "no 'error:' line on stderr"
        return ""

    def problem(self, spec, out) -> str:
        code, stdout, stderr, _ = out
        kind = spec[0]
        if kind == "invalid":
            return self._invalid_problem(code, stdout, stderr)
        if "Traceback" in stderr:
            return "Python traceback on stderr"
        if code != 0:
            return f"exit status {code}: {stderr.strip()[-200:]}"
        try:
            return getattr(self, "_check_" + kind.replace("-", "_"))(spec, stdout)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return f"unparsable output: {type(exc).__name__}: {exc}"

    def _need(self, doc, fields) -> str:
        missing = [f for f in fields if f not in doc]
        return f"missing fields {missing}" if missing else ""

    def _check_solve(self, spec, stdout) -> str:
        _, src, p, method, as_json = spec
        doc = check.parse_doc(stdout, as_json)
        miss = self._need(doc, check.SOLVE_FIELDS)
        if miss:
            return miss
        n, edges = self.graph(src)
        closed, t, ref = check.closed_masks(n, edges), threshold(n, p), self.gamma[(src, p)]
        if (doc["n"], doc["p"], doc["threshold"]) != (n, fmt(p), t):
            return f"header fields n/p/threshold are {doc['n']}/{doc['p']}/{doc['threshold']}"
        if method == "greedy" and doc["cardinality"] < ref or method != "greedy" and doc["cardinality"] != ref:
            return f"cardinality {doc['cardinality']}, reference {ref} ({method})"
        if doc["covered"] != check.covered(closed, doc["witness"]):
            return "covered field disagrees with the witness"
        return check.witness_problem(closed, doc["witness"], t, doc["cardinality"])

    _check_gamma = _check_solve

    def _check_big_gamma(self, spec, stdout) -> str:
        _, src, p, _, as_json = spec
        doc = check.parse_doc(stdout, as_json)
        miss = self._need(doc, check.SOLVE_FIELDS)
        if miss:
            return miss
        n, edges = self.graph(src)
        closed, t, ref = check.closed_masks(n, edges), threshold(n, p), self.big_gamma[(src, p)]
        if doc["cardinality"] != ref:
            return f"Gamma_p {doc['cardinality']}, reference {ref}"
        return (check.witness_problem(closed, doc["witness"], t, doc["cardinality"])
                or check.minimality_problem(closed, doc["witness"], t))

    def _check_gen(self, spec, stdout) -> str:
        _, family, out_file = spec
        text = Path(out_file).read_text(encoding="utf-8") if out_file else stdout
        n, edges = check.parse_edge_list(text)
        want_n, want_edges = inputs.family_edges(family)
        if n != want_n or not check.same_edges(edges, want_edges):
            return f"gen {family} wrote a different graph"
        return ""

    def _check_audit(self, spec, stdout) -> str:
        _, src, as_json = spec
        doc, recs = check.parse_audit(stdout, as_json)
        n, edges = self.graph(src)
        ps = self.audit_ps[src]
        g = {p: self.gamma[(src, p)] for p in ps}
        gbar = {p: self.gamma[(src + "~", p)] for p in ps}
        big = {p: self.big_gamma[(src, p)] for p in ps}
        if int(doc["n"]) != n or int(doc["seed"]) != self.samples[src][2]:
            return "audit header disagrees with the sampled graph"
        return check.records_problem(recs, check.expected_audit(n, edges, ps, g, gbar, big))

    def _check_closed_form(self, spec, stdout) -> str:
        _, family, as_json = spec
        doc = check.parse_doc(stdout, as_json)
        miss = self._need(doc, ("command", "family", "p", "value", "witness", "construction"))
        if miss:
            return miss
        n, edges = inputs.family_edges(family)
        value = check.closed_form_half(family)
        if doc["value"] != value or value != self.gamma[(family, Fraction(1, 2))]:
            return f"value {doc['value']}, closed form {value}, ILP {self.gamma[(family, Fraction(1, 2))]}"
        self.formula_constructions.append(doc["construction"])
        return check.witness_problem(check.closed_masks(n, edges), doc["witness"],
                                     threshold(n, Fraction(1, 2)), value)

    def _check_ratio(self, spec, stdout) -> str:
        _, m, n = spec
        doc = check.parse_kv(stdout)
        miss = self._need(doc, ("command", "family", "gamma_half", "gamma_reference", "ratio"))
        if miss:
            return miss
        half, ref = check.closed_form_half(f"grid:{m},{n}"), (m + 2) * (n + 2) // 5 - 4
        if (int(doc["gamma_half"]), int(doc["gamma_reference"])) != (half, ref):
            return "ratio inputs differ from the closed forms"
        return "" if frac(doc["ratio"]) == Fraction(half, ref) else f"ratio {doc['ratio']}"

    def _check_bench(self, spec, stdout) -> str:
        _, families, p = spec
        doc = json.loads(stdout)
        rows = doc["rows"]
        if [r["family"] for r in rows] != list(families):
            return "bench rows do not match the families asked for"
        for r in rows:
            n, _ = inputs.family_edges(r["family"])
            if r["n"] != n or r["cardinality"] != self.gamma[(r["family"], p)]:
                return f"bench row {r['family']} has cardinality {r['cardinality']}"
            if not r["median_ms"] >= 0 or not r["min_ms"] >= 0:
                return "bench row has no timing"
        return ""

    # -- traced run -------------------------------------------------------

    def instrument(self, tr):
        import pardom.audit as audit
        import pardom.cli as cli

        note = solve_note(tr)
        for attr, name in (("build_parser", "cli.build_parser"),
                           ("config_from_args", "cli.config_from_args"),
                           ("run", "cli.run"),
                           ("make_family", "graph.build.make_family"),
                           ("parse_edge_list", "graph.build.parse_edge_list"),
                           ("sample_connected_coconnected", "audit.sample"),
                           ("audit_suite", "audit.suite"),
                           ("gamma_grid_goncalves", "formulas.gamma_grid_goncalves"),
                           ("grid_ratio_report", "formulas.grid_ratio_report")):
            tr.wrap(cli, attr, name)
        tr.wrap(cli, "gamma_half_formula", "formulas.gamma_half_formula",
                lambda idx, args, res: tr.note(idx, construction=res.construction))
        for attr, name in (("gamma_p_exact", "solver.gamma_p_exact"),
                           ("gamma_p_binary_search", "solver.gamma_p_binary_search"),
                           ("greedy_gamma_p", "solver.greedy"),
                           ("oracle_gamma_p", "solver.oracle"),
                           ("big_gamma_p_exact", "solver.big_gamma")):
            tr.wrap(cli, attr, name, note)
        instrument_audit(tr, audit)
        self.pd_graph = sys.modules["pardom.graph"]
        tr.wrap(self.pd_graph.Graph, "from_edges", "graph.build.from_edges", classmethod_=True)

    def instrument_build(self, tr):
        pass  # the CLI builds its graphs inside each op


WORKLOADS = {"exact-near1": ExactNear1, "audit-sweep": AuditSweep, "cli-mix": CliMix}
