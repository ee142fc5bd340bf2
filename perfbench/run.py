"""Benchmark for pardom, run against the checkout's own ``src`` tree.

    python3 perfbench/run.py --workload exact-near1 --seed 1 --seconds 30 --trace 0

Workloads: ``exact-near1``, ``audit-sweep``, ``cli-mix`` (see DESIGN.md).
Each is a closed loop: one client, one op in flight, whole passes over the
workload's ops until ``--seconds`` of op time have been measured.  Every
answer is checked against references pardom did not produce.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, replays per-layer work, writes the spans to
``.perfbench/`` and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Window:
    """Per-op records of whole passes over a workload's ops.

    A record holds the op's time normalised to the reference host speed
    (see speed.py); ``busy`` and ``raw`` hold plain wall time."""

    def __init__(self):
        self.records: list[tuple[int, str, float, str]] = []  # (pass, op, seconds, problem)
        self.raw: dict[str, list[float]] = {}  # op -> wall seconds per pass
        self.busy = 0.0
        self.passes = 0

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [(r[1], r[3]) for r in self.records if r[3]]

    def op_latencies(self, names=None, raw=False) -> list[float]:
        """Each op's median latency over the passes, which also drops the
        error left by a change of host speed in the middle of an op."""
        by_op: dict[str, list[float]] = {}
        for _, name, sec, _ in self.records:
            if names is None or name in names:
                by_op.setdefault(name, []).append(sec)
        if raw:
            by_op = {name: self.raw[name] for name in by_op}
        return [statistics.median(v) for v in by_op.values()]

    def ops_per_s(self, names=None, raw=False) -> float:
        """Correct ops per second of a pass made of each op's median latency."""
        done = sum(1 for _, name, _, problem in self.records
                   if not problem and (names is None or name in names))
        return done / self.passes / sum(self.op_latencies(names, raw))


def measure(ops, seconds: float, tracer=None, observe=None, win=None) -> Window:
    """Whole passes over ``ops`` until ``seconds`` of op time are in ``win``."""
    win = win or Window()
    host = Speed()
    while True:
        win.passes += 1
        for op in ops:
            if tracer is not None:
                tracer.op = f"pass{win.passes}:{op.name}"
            start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        out = op.call()
                else:
                    out = op.call()
                error = None
            except Exception as exc:  # an op that raises has failed; keep going
                out, error = None, exc
            elapsed = time.perf_counter() - start
            win.busy += elapsed
            win.raw.setdefault(op.name, []).append(elapsed)
            problem = f"{type(error).__name__}: {error}" if error else op.check(out)
            win.records.append((win.passes, op.name, host.scale(elapsed), problem))
            if observe is not None and error is None:
                observe(op, out)
        if win.busy >= seconds:
            return win


# Tail percentile per workload, over the per-op latencies: the highest
# whole percentile whose ops beyond it hold at least ten samples at the
# fewest passes a run makes on the reference machine.  Fixing it keeps the
# statistic the same when the pass count differs, as it does between a
# slower and a faster commit.
TAIL_PERCENTILE = {"exact-near1": 73, "audit-sweep": 91, "cli-mix": 90}


def tail(op_latencies: list[float], passes: int, q: int) -> tuple[int, float, int]:
    """Nearest-rank percentile ``q`` of the per-op latencies, lowered until
    the ops beyond it hold at least ten samples; returns (percentile,
    seconds, samples beyond)."""
    xs = sorted(op_latencies)
    n = len(xs)
    for q in range(q, 0, -1):
        rank = math.ceil(q / 100 * n)
        if (n - rank) * passes >= 10:
            return q, xs[rank - 1], (n - rank) * passes
    return 50, statistics.median(xs), n // 2 * passes


def peak_rss_mb(extra_kb: int = 0) -> float:
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + extra_kb) / 1024.0


def setup_seconds(args, workdir: Path) -> list[float]:
    """Time import + input building in fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--suite", args.suite, "--setup-probe",
             "--workdir", str(workdir)],
            capture_output=True, text=True, check=False,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def make_workload(args, workdir: Path):
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.workload == "cli-mix":
        return cls(ROOT, args.seed, workdir)
    if args.workload == "audit-sweep":
        return cls(ROOT, args.seed, args.suite)
    return cls(ROOT, args.seed)


def check_import():
    import pardom

    where = Path(pardom.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"pardom imported from {where}, not from {SRC}")


def report(result: dict, lines: list[str]):
    for line in lines:
        print(line)
    print(json.dumps(result))


def run_untraced(args, wl, workdir: Path) -> int:
    wl.build()
    check_import()
    wl.references()
    setups = setup_seconds(args, workdir)
    ops = wl.ops()
    child_rss = [0]
    observe = None
    if args.workload == "cli-mix":
        observe = lambda op, out: child_rss.__setitem__(0, max(child_rss[0], out[3]))
    win = measure(ops, args.seconds, observe=observe)
    rss = peak_rss_mb(child_rss[0])
    if hasattr(wl, "verify"):
        # Witnesses audit_suite computed internally, re-checked untimed.
        bad = wl.verify()
        win.records = [(n, name, sec, problem or bad.get(name, ""))
                       for n, name, sec, problem in win.records]
    problems = win.failures
    n_failed = len(problems)
    defects = wl.defects()
    wrong = [d for d in defects if d.problem]
    per_op = win.op_latencies()
    q, tail_s, beyond = tail(per_op, win.passes, TAIL_PERCENTILE[args.workload])
    attempted = len(win.records)
    metrics = {
        "ops_per_s": win.ops_per_s(),
        "op_ms_p50": statistics.median(per_op) * 1000.0,
        "op_ms_tail": tail_s * 1000.0,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    lines = [f"workload {wl.name} seed {args.seed} passes {win.passes} "
             f"ops {attempted} busy_s {win.busy:.3f}"]
    notes = {"op_ms_tail": f"  (p{q} of {len(per_op)} ops x {win.passes} passes, {beyond} samples beyond)",
             "op_ms_p50": f"  (over {len(per_op)} ops, each its median of {win.passes} passes)",
             "setup_s": f"  (median of {SETUP_PROBES} fresh interpreters)"}
    for name, value in metrics.items():
        lines.append(f"{name} {value:.6g} {END_TO_END[name]}{notes.get(name, '')}")
    raw_op = win.op_latencies(raw=True)
    lines.append(f"raw wall time, not normalised: ops_per_s {win.ops_per_s(raw=True):.6g} 1/s, "
                 f"op_ms_p50 {statistics.median(raw_op) * 1000:.6g} ms, "
                 f"op_ms_tail {tail(raw_op, win.passes, q)[1] * 1000:.6g} ms")
    lines.append(f"fail_ratio {n_failed}/{attempted}")
    for name, problem in sorted(set(problems))[:10]:
        lines.append(f"FAILED {name}: {problem}")
    for d in defects:
        state = "reproduced (expected at baseline)" if d.reproduced else "fixed"
        lines.append(f"known defect {d.name}: {state} {d.problem}".rstrip())
    report({"correct": not problems and not wrong, "attempted": attempted,
            "failed": n_failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}},
           lines)
    return 0


def run_traced(args, wl, workdir: Path) -> int:
    import layers
    from spans import Tracer

    import pardom

    check_import()
    tr = Tracer()
    wl.pd = pardom
    wl.instrument_build(tr)
    try:
        wl.build()
    finally:
        tr.restore()
    wl.references()
    in_process = args.workload == "cli-mix"
    ops = wl.ops(in_process=True) if in_process else wl.ops()
    obs = layers.CliObserver() if in_process else None
    # Untraced and traced passes alternate, so drift hits both alike.
    plain, traced = Window(), Window()
    while plain.busy + traced.busy < args.seconds:
        measure(ops, 0, win=plain)
        wl.instrument(tr)
        try:
            measure(ops, 0, tracer=tr, observe=obs, win=traced)
        finally:
            tr.restore()
    problems = plain.failures + traced.failures
    if hasattr(wl, "verify"):
        problems += list(wl.verify().items())
    # Tracing overhead on the ops whose input is the same in every pass.
    fixed = {op.name for op in ops if op.same_each_pass}
    untraced_rate = plain.ops_per_s(fixed)
    extra = {"overhead": (untraced_rate - traced.ops_per_s(fixed)) / untraced_rate}
    if hasattr(wl, "replay"):
        extra["replay"] = wl.replay(tr, replay_problems := [])
        problems += [("replay", p) for p in replay_problems]
    if in_process:
        extra["interp_ms"], extra["import_ms"] = layers.cli_start_ms(SRC)
        defects = wl.defects(in_process=True)
        extra["defect_tracebacks"] = "Traceback" in wl.last_defect_stderr
        extra["formula_constructions"] = wl.formula_constructions
    else:
        defects = wl.defects()
    extra["defects"] = sum(d.reproduced for d in defects)
    metrics = layers.per_layer(tr, args.workload, traced.passes, extra, obs)
    OUT_DIR.mkdir(exist_ok=True)
    tr.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    attempted = len(plain.records) + len(traced.records)
    lines = [f"workload {wl.name} seed {args.seed} traced passes {traced.passes} "
             f"spans {len(tr.spans)} -> {OUT_DIR.name}/spans-{args.workload}-{args.seed}.jsonl"]
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += layers.load_summary(metrics, args.workload)
    lines += [f"FAILED {name}: {p}" for name, p in problems[:10]]
    report({"correct": not problems and not any(d.problem for d in defects),
            "attempted": attempted, "failed": len(problems),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
           lines)
    return 0


def setup_probe(args, workdir: Path) -> int:
    """Runs in a fresh interpreter: the benchmark's own inputs first, then
    the timed part, importing pardom and building every input."""
    wl = make_workload(args, workdir)
    host = Speed()
    start = time.perf_counter()
    wl.build()
    print(host.scale(time.perf_counter() - start))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-near1", "audit-sweep", "cli-mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", choices=("main", "heldout"), default="main",
                        help="audit-sweep graph suite; 'heldout' is kept for checking claims")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pardom" / "__init__.py").is_file():
        print(f"error: no pardom sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the benchmark and every child it starts, so that the
    # speed kernel (speed.py) times the CPU the ops run on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    if args.setup_probe:
        return setup_probe(args, Path(args.workdir))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        wl = make_workload(args, Path(tmp))
        if args.trace:
            return run_traced(args, wl, Path(tmp))
        return run_untraced(args, wl, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
