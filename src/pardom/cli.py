"""Command-line front end.

Subcommands: ``gen`` (write a family graph as an edge list), ``solve``
(gamma_p by a chosen method), ``gamma`` (solve at p = 1), ``big-gamma``
(Gamma_p), ``closed-form`` (family formulas with witnesses), ``audit``
(inequality checks), and ``bench`` (timings over family instances).

Graphs come from ``--family name:params`` specs, edge-list files
(``--input``), or for ``audit`` the seeded sampler (``--sample``).

Output is a line-oriented ``key value`` document, or JSON with ``--json``.
Witness sets print as sorted 0-indexed vertex lists and proportions always
print as ``i/j``.  For a fixed invocation (including seed, excluding
``bench``, whose wall-clock times vary) the output is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import namedtuple
from fractions import Fraction

from .graph import FamilySpec, Graph, make_family, parse_edge_list, parse_family, to_edge_list
from .solver import (
    CapacityError,
    FormulaConflict,
    SamplingError,
    SolveResult,
    big_gamma_p_exact,
    format_proportion,
    gamma_p_binary_search,
    gamma_p_exact,
    greedy_gamma_p,
    oracle_gamma_p,
    parse_proportion,
    threshold,
)

METHODS = ("exact", "binary-search", "greedy", "oracle")

DEFAULT_AUDIT_PS = "1/4,1/3,1/2,2/3,3/4,1/1"

# Names from ``audit`` and ``formulas``, loaded on first use so that the
# other subcommands never import those modules.  They stay attributes of
# this module and are called through its globals (``_lazy``), so that
# replacing one here, with a test double or a tracing wrapper, is honoured.
_LAZY = ("audit_suite", "sample_connected_coconnected", "gamma_half_formula",
         "gamma_grid_goncalves", "grid_ratio_report")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _lazy(name: str):
    return globals().get(name) or __getattr__(name)


_RUN_FIELDS = "command family families input_path p ps method seed sample_n edge_probability output as_json ratio repeat"
_RUN_DEFAULTS = (None, (), None, Fraction(1, 2), (), "exact", None, None, Fraction(1, 2), None, False, False, 3)


class RunConfig(namedtuple("RunConfig", _RUN_FIELDS, defaults=_RUN_DEFAULTS)):
    """One resolved CLI invocation."""

    __slots__ = ()


def _load_graph(config: RunConfig) -> tuple[Graph, str, FamilySpec | None]:
    sources = [
        s
        for s, given in (
            ("--family", config.family is not None),
            ("--input", config.input_path is not None),
            ("--sample", config.sample_n is not None),
        )
        if given
    ]
    if len(sources) > 1:
        raise ValueError(f"give exactly one graph source, got {' and '.join(sources)}")
    if config.family is not None:
        return make_family(config.family), str(config.family), config.family
    if config.input_path is not None:
        with open(config.input_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_edge_list(text), config.input_path, None
    if config.sample_n is not None:
        seed = config.seed if config.seed is not None else 0
        g = _lazy("sample_connected_coconnected")(config.sample_n, config.edge_probability, seed)
        label = (
            f"sample:n={config.sample_n},"
            f"p={format_proportion(config.edge_probability)},seed={seed}"
        )
        return g, label, None
    raise ValueError("no graph given: use --family, --input, or --sample")


def _solve(g: Graph, p: Fraction, method: str) -> SolveResult:
    if method == "exact":
        return gamma_p_exact(g, p)
    if method == "binary-search":
        return gamma_p_binary_search(g, p)
    if method == "greedy":
        return greedy_gamma_p(g, p)
    if method == "oracle":
        return oracle_gamma_p(g, p)
    raise ValueError(f"unknown method {method!r}")


def _witness_text(vertices) -> str:
    return " ".join(str(v) for v in vertices)


def _render_kv(pairs) -> str:
    lines = []
    for key, value in pairs:
        value = str(value)
        lines.append(f"{key} {value}".rstrip())
    return "\n".join(lines) + "\n"


def _json(doc) -> str:
    import json  # only --json output needs it

    return json.dumps(doc, sort_keys=True) + "\n"


def _render(pairs, as_json: bool) -> str:
    if as_json:
        return _json(dict(pairs))
    return _render_kv(pairs)


def _run_solve(config: RunConfig, p: Fraction) -> str:
    """gamma_p by ``config.method``, or Gamma_p for ``big-gamma``."""
    g, label, _ = _load_graph(config)
    if config.command == "big-gamma":
        res = big_gamma_p_exact(g, p)
    else:
        res = _solve(g, p, config.method)
    witness = sorted(res.witness)
    pairs = [
        ("command", config.command),
        ("graph", label),
        ("n", g.n),
        ("p", format_proportion(p)),
        ("threshold", threshold(g.n, p)),
        ("method", res.method),
        ("cardinality", res.cardinality),
        ("witness", witness if config.as_json else _witness_text(witness)),
        ("covered", res.covered),
        ("nodes_explored", res.nodes_explored),
    ]
    return _render(pairs, config.as_json)


def _run_closed_form(config: RunConfig) -> str:
    if config.family is None:
        raise ValueError("closed-form needs --family")
    spec = config.family
    if config.ratio:
        if spec.family != "grid":
            raise ValueError("--ratio applies to grid families only")
        m, n = spec.params
        ratio = _lazy("grid_ratio_report")(m, n)
        pairs = [
            ("command", "closed-form"),
            ("family", str(spec)),
            ("gamma_half", _lazy("gamma_half_formula")(spec).value),
            ("gamma_reference", _lazy("gamma_grid_goncalves")(m, n)),
            ("ratio", format_proportion(ratio)),
        ]
        return _render(pairs, config.as_json)
    res = _lazy("gamma_half_formula")(spec)
    pairs = [
        ("command", "closed-form"),
        ("family", str(spec)),
        ("p", "1/2"),
        ("value", res.value),
    ]
    if res.witness is not None:
        witness = sorted(res.witness)
        pairs.append(("witness", witness if config.as_json else _witness_text(witness)))
        pairs.append(("construction", res.construction))
    return _render(pairs, config.as_json)


def _check_line(check) -> str:
    lhs = "-" if check.lhs is None else check.lhs
    rhs = "-" if check.rhs is None else check.rhs
    verdict = "none" if check.holds is None else ("holds" if check.holds else "FAILS")
    line = (
        f"check {check.tag} {check.detail} lhs={lhs} rhs={rhs} "
        f"hypothesis={'met' if check.hypothesis_met else 'unmet'} verdict={verdict}"
    )
    if check.note:
        line += f" note={check.note}"
    return line


def _render_audit(report, g: Graph, as_json: bool) -> str:
    if as_json:
        doc = {
            "command": "audit",
            "graph": report.graph_id,
            "n": g.n,
            "seed": report.seed,
            "checks": [
                {
                    "tag": c.tag,
                    "detail": c.detail,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "hypothesis_met": c.hypothesis_met,
                    "holds": c.holds,
                    "note": c.note,
                }
                for c in report.checks
            ],
            "all_hold": report.all_hold(),
        }
        return _json(doc)
    lines = [
        "command audit",
        f"graph {report.graph_id}",
        f"n {g.n}",
    ]
    if report.seed is not None:
        lines.append(f"seed {report.seed}")
    lines.append(f"checks {len(report.checks)}")
    lines.extend(_check_line(c) for c in report.checks)
    lines.append(f"all_hold {'yes' if report.all_hold() else 'NO'}")
    return "\n".join(lines) + "\n"


def _run_audit(config: RunConfig) -> str:
    g, label, family = _load_graph(config)
    seed = config.seed
    if config.sample_n is not None and seed is None:
        seed = 0  # the sampler's default, recorded so reruns reproduce
    report = _lazy("audit_suite")(g, config.ps, graph_id=label, seed=seed, family=family)
    return _render_audit(report, g, config.as_json)


def _run_bench(config: RunConfig) -> str:
    if not config.families:
        raise ValueError("bench needs at least one --family")
    if config.repeat < 1:
        raise ValueError(f"--repeat must be at least 1, got {config.repeat}")
    rows = []
    for spec in config.families:
        g = make_family(spec)
        times = []
        for _ in range(config.repeat):
            start = time.perf_counter()
            res = _solve(g, config.p, config.method)
            times.append((time.perf_counter() - start) * 1000.0)
        times.sort()
        mid = len(times) // 2  # times[mid] and times[~mid] are the middle pair
        rows.append(
            {
                "family": str(spec),
                "n": g.n,
                "cardinality": res.cardinality,
                "nodes_explored": res.nodes_explored,
                "min_ms": round(min(times), 3),
                "median_ms": round((times[mid] + times[~mid]) / 2, 3),
            }
        )
    if config.as_json:
        doc = {
            "command": "bench",
            "p": format_proportion(config.p),
            "method": config.method,
            "repeat": config.repeat,
            "rows": rows,
        }
        return _json(doc)
    lines = [
        "command bench",
        f"p {format_proportion(config.p)}",
        f"method {config.method}",
        f"repeat {config.repeat}",
        "family n cardinality nodes_explored min_ms median_ms",
    ]
    for r in rows:
        lines.append(
            f"{r['family']} {r['n']} {r['cardinality']} {r['nodes_explored']} "
            f"{r['min_ms']} {r['median_ms']}"
        )
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> str:
    """Execute one resolved invocation and return its output document."""
    if config.command == "gen":
        if config.family is None:
            raise ValueError("gen needs --family")
        return to_edge_list(make_family(config.family))
    if config.command in ("solve", "big-gamma"):
        return _run_solve(config, config.p)
    if config.command == "gamma":
        return _run_solve(config, Fraction(1))
    if config.command == "closed-form":
        return _run_closed_form(config)
    if config.command == "audit":
        return _run_audit(config)
    if config.command == "bench":
        return _run_bench(config)
    raise ValueError(f"unknown command {config.command!r}")


def _add_graph_source(parser: argparse.ArgumentParser, sample: bool = False) -> None:
    parser.add_argument("--family", help="family spec, e.g. grid:2,12 or spider:8")
    parser.add_argument("--input", help="edge-list file to read")
    if sample:
        parser.add_argument("--sample", type=int, metavar="N", help="sample a connected/co-connected graph on N vertices")
        parser.add_argument("--prob", default="1/2", help="edge probability i/j for --sample (default 1/2)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit JSON instead of key-value lines")
    parser.add_argument("--output", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pardom", description="Partial domination solvers and audits."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a family graph as an edge list")
    p_gen.add_argument("--family", required=True)
    _add_common(p_gen)

    for name, with_p in (("solve", True), ("gamma", False)):
        sp = sub.add_parser(name, help=f"compute gamma{'_p' if with_p else ''}")
        _add_graph_source(sp)
        if with_p:
            sp.add_argument("--p", default="1/2", help="proportion i/j (default 1/2)")
        sp.add_argument("--method", choices=METHODS, default="exact")
        _add_common(sp)

    p_big = sub.add_parser("big-gamma", help="compute Gamma_p (max minimal set)")
    _add_graph_source(p_big)
    p_big.add_argument("--p", default="1/2")
    _add_common(p_big)

    p_cf = sub.add_parser("closed-form", help="evaluate a family formula")
    p_cf.add_argument("--family", required=True)
    p_cf.add_argument("--ratio", action="store_true", help="gamma_half/gamma ratio for large grids")
    _add_common(p_cf)

    p_audit = sub.add_parser("audit", help="check the inequalities on one graph")
    _add_graph_source(p_audit, sample=True)
    p_audit.add_argument("--ps", default=DEFAULT_AUDIT_PS, help=f"comma list of proportions (default {DEFAULT_AUDIT_PS})")
    p_audit.add_argument("--seed", type=int, help="seed for --sample (default 0); recorded in the report")
    _add_common(p_audit)

    p_bench = sub.add_parser("bench", help="time solves over family instances")
    p_bench.add_argument("--family", action="append", default=[], help="repeatable family spec")
    p_bench.add_argument("--p", default="1/2")
    p_bench.add_argument("--method", choices=METHODS, default="exact")
    p_bench.add_argument("--repeat", type=int, default=3)
    _add_common(p_bench)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    family = None
    if getattr(args, "family", None) and args.command != "bench":
        family = parse_family(args.family)
    families = ()
    if args.command == "bench":
        families = tuple(parse_family(f) for f in args.family)
    ps = ()
    if args.command == "audit":
        ps = tuple(parse_proportion(tok) for tok in args.ps.split(","))
    return RunConfig(
        command=args.command,
        family=family,
        families=families,
        input_path=getattr(args, "input", None),
        p=parse_proportion(getattr(args, "p", "1/2")),
        ps=ps,
        method=getattr(args, "method", "exact"),
        seed=getattr(args, "seed", None),
        sample_n=getattr(args, "sample", None),
        edge_probability=parse_proportion(getattr(args, "prob", "1/2")),
        output=getattr(args, "output", None),
        as_json=getattr(args, "json", False),
        ratio=getattr(args, "ratio", False),
        repeat=getattr(args, "repeat", 3),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        out = run(config)
        if config.output:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(out)
            out = ""
    except (ValueError, CapacityError, SamplingError, FormulaConflict, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
