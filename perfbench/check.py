"""Independent checks of pardom's answers.

Everything here is the benchmark's own code: coverage and minimality of
witnesses, a brute-force Gamma_p for small graphs, the closed forms, the
inequality records an audit must produce, and parsers for the CLI's
output formats.  None of it imports pardom.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from inputs import complement_edges, is_connected


def closed_masks(n: int, edges) -> list[int]:
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    return closed


def threshold(n: int, p: Fraction) -> int:
    return -(-p.numerator * n // p.denominator)


def covered(closed, witness) -> int:
    mask = 0
    for v in witness:
        mask |= closed[v]
    return bin(mask).count("1")


def witness_problem(closed, witness, t: int, size: int | None = None) -> str:
    """Empty string if ``witness`` has ``size`` distinct in-range vertices
    covering at least ``t``; otherwise what is wrong."""
    n = len(closed)
    vs = list(witness)
    if any(not isinstance(v, int) or not 0 <= v < n for v in vs):
        return f"witness has vertices outside 0..{n - 1}"
    if len(set(vs)) != len(vs):
        return "witness repeats a vertex"
    if size is not None and len(vs) != size:
        return f"witness has {len(vs)} vertices, cardinality says {size}"
    cov = covered(closed, vs)
    if cov < t:
        return f"witness covers {cov} < threshold {t}"
    return ""


def minimality_problem(closed, witness, t: int) -> str:
    vs = list(witness)
    for v in vs:
        if covered(closed, [w for w in vs if w != v]) >= t:
            return f"witness is not minimal: dropping {v} still covers {t}"
    return ""


def brute_big_gamma(n: int, edges, p: Fraction) -> int:
    """Gamma_p by enumerating every subset (small n only)."""
    closed = closed_masks(n, edges)
    t = threshold(n, p)
    for size in range(n, -1, -1):
        for combo in itertools.combinations(range(n), size):
            if covered(closed, combo) >= t and not minimality_problem(closed, combo, t):
                return size
    raise AssertionError("unreachable")


def closed_form_half(spec: str) -> int:
    """gamma_{1/2} of a family from the closed forms pardom documents."""
    name, _, rest = spec.partition(":")
    params = [int(x) for x in rest.split(",")]
    if name in ("cycle", "path"):
        return -(-params[0] // 6)
    if name == "multipartite":
        return 1
    if name in ("grid", "torus"):
        m, n = params
        if name == "grid" and m == 2:
            return -(-n // 4)
        return -(-m * n // 10)
    raise ValueError(spec)


def frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def fmt(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def expected_audit(n: int, edges, ps, gamma, gamma_bar, big_gamma) -> list[tuple]:
    """The check records an audit of one graph must contain.

    ``gamma[p]``, ``gamma_bar[p]`` and ``big_gamma[p]`` are reference
    values for the graph, its complement and Gamma_p, keyed by Fraction.
    Records are ``(tag, detail, lhs, rhs, hypothesis_met, holds)``.
    """
    ps = sorted(ps)
    conn = is_connected(n, edges)
    coconn = is_connected(n, complement_edges(n, edges))
    out = []

    def rec(tag, detail, lhs, rhs):
        out.append((tag, detail, lhs, rhs, True, lhs <= rhs))

    for p, q in zip(ps, ps[1:]):
        rec("monotone-in-p", f"p={fmt(p)} q={fmt(q)}", gamma[p], gamma[q])
    for tag, group in (("ceiling-bound", ps), ("half-bound", [Fraction(1, 2)])):
        for p in group:
            if conn:
                rec(tag, f"p={fmt(p)}", gamma[p],
                    -(-p.numerator * gamma[Fraction(1)] // p.denominator))
            else:
                out.append((tag, f"p={fmt(p)}", None, None, False, None))
    for p in ps:
        if conn and coconn:
            rhs = -(-p.numerator * (n // 2 + 2) // p.denominator) + 1
            rec("nordhaus-gaddum", f"p={fmt(p)}", gamma[p] + gamma_bar[p], rhs)
        else:
            out.append(("nordhaus-gaddum", f"p={fmt(p)}", None, None, False, None))
    for p in ps:
        rec("max-minimal-vs-min", f"p={fmt(p)}", gamma[p], big_gamma[p])
    return out


def records_problem(got: list[tuple], want: list[tuple]) -> str:
    missing = [r for r in want if r not in got]
    extra = [r for r in got if r not in want]
    if missing or extra:
        return f"audit records differ: missing {missing[:2]} unexpected {extra[:2]}"
    return ""


# ---------------------------------------------------------------------------
# CLI output parsing
# ---------------------------------------------------------------------------

SOLVE_FIELDS = ("command", "graph", "n", "p", "threshold", "method",
                "cardinality", "witness", "covered", "nodes_explored")


def parse_kv(text: str) -> dict[str, str]:
    doc = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        doc[key] = value
    return doc


def parse_doc(text: str, as_json: bool) -> dict:
    """Parse a solve-style document into typed values."""
    if as_json:
        return json.loads(text)
    doc = parse_kv(text)
    out = dict(doc)
    for key in ("n", "threshold", "cardinality", "covered", "nodes_explored", "value"):
        if key in doc:
            out[key] = int(doc[key])
    if "witness" in doc:
        out["witness"] = [int(x) for x in doc["witness"].split()]
    return out


def parse_audit(text: str, as_json: bool) -> tuple[dict, list[tuple]]:
    if as_json:
        doc = json.loads(text)
        recs = [(c["tag"], c["detail"], c["lhs"], c["rhs"], c["hypothesis_met"], c["holds"])
                for c in doc["checks"]]
        return doc, recs
    doc, recs = {}, []
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key != "check":
            doc[key] = value
            continue
        fields = value.split(" ")
        kv = dict(f.split("=", 1) for f in fields[2:] if "=" in f)
        # The detail of monotone-in-p spans two fields: "p=a/b q=c/d".
        detail = fields[1]
        if fields[2].startswith("q="):
            detail += " " + fields[2]
        num = lambda s: None if s == "-" else int(s)
        verdict = {"holds": True, "FAILS": False, "none": None}[kv["verdict"]]
        recs.append((fields[0], detail, num(kv["lhs"]), num(kv["rhs"]),
                     kv["hypothesis"] == "met", verdict))
    return doc, recs


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    rows = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = [(int(u), int(v)) for u, v in rows[1:]]
    if len(edges) != m:
        raise ValueError("edge count does not match header")
    return n, edges


def same_edges(a, b) -> bool:
    canon = lambda es: sorted((min(u, v), max(u, v)) for u, v in es)
    return canon(a) == canon(b)
