"""Inequality audits for partial domination, on given or sampled graphs.

Each check instantiates one known inequality with exact solver values and
records the two sides, whether its hypotheses (connectivity of the graph
and, where needed, of its complement) are met, and the verdict:

* ``monotone-in-p``:      gamma_p <= gamma_q for p < q;
* ``ceiling-bound``:      gamma_{i/j} <= ceil(i/j * gamma) on connected graphs;
* ``half-bound``:         the i/j = 1/2 case of the ceiling bound;
* ``nordhaus-gaddum``:    gamma_{i/j}(G) + gamma_{i/j}(complement)
                          <= ceil(i/j * (floor(n/2) + 2)) + 1 when both
                          sides are connected;
* ``max-minimal-vs-min``: gamma_p <= Gamma_p.

Checks whose hypotheses fail carry no verdict, so reports distinguish
"holds" from "not applicable".  A failed verdict on exact solver values
would falsify either the inequality or the solver, and is always worth
investigating.

Graphs are sampled with :func:`sample_connected_coconnected`, which uses
a SplitMix64 stream (documented in its docstring) so that audits are
reproducible from a 64-bit seed alone, independent of any host RNG.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .graph import FamilySpec, Graph, VertexSet, complement, is_connected
from .solver import (
    BIG_GAMMA_MAX_N,
    CapacityError,
    SamplingError,
    as_proportion,
    big_gamma_p_exact,
    format_proportion,
    gamma_exact,
    gamma_p_exact,
    is_p_dominating,
)


class CheckRecord(namedtuple("CheckRecord", "tag detail lhs rhs hypothesis_met holds note", defaults=("",))):
    """One instantiated inequality: tag, both sides, hypotheses, verdict.

    ``holds`` is exactly ``lhs <= rhs`` when the hypotheses are met and the
    check ran; it is ``None`` for hypothesis failures and capacity skips
    (``note`` says which).
    """

    __slots__ = ()


def _record(tag: str, detail: str, lhs: int, rhs: int, note: str = "") -> CheckRecord:
    return CheckRecord(tag, detail, lhs, rhs, True, lhs <= rhs, note)


def _skipped(tag: str, detail: str, note: str, hypothesis_met: bool = True) -> CheckRecord:
    return CheckRecord(tag, detail, None, None, hypothesis_met, None, note)


class AuditReport:
    """All check records for one graph, in deterministic check order."""

    def __init__(self, graph_id: str, checks: list[CheckRecord] | None = None, seed: int | None = None):
        self.graph_id = graph_id
        self.checks = [] if checks is None else checks
        self.seed = seed

    def violations(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.holds is False]

    def all_hold(self) -> bool:
        return not self.violations()


def check_monotonicity(g: Graph, ps) -> list[CheckRecord]:
    """gamma_p <= gamma_q for each adjacent pair of the ascending ``ps``.

    Equal adjacent proportions are skipped as degenerate.  When the two
    values coincide, the record notes whether the smaller-p witness
    already dominates the larger proportion (it always can be chosen to,
    which is what makes equality possible).
    """
    ps = [as_proportion(p) for p in ps]
    if ps != sorted(ps):
        raise ValueError("proportions must be sorted ascending")
    records = []
    for p, q in zip(ps, ps[1:]):
        if p == q:
            continue
        left = gamma_p_exact(g, p)
        right = gamma_p_exact(g, q)
        note = ""
        if left.cardinality == right.cardinality:
            witness_covers_q = is_p_dominating(g, left.witness, q)
            note = "equality; p-witness {} q-dominating".format(
                "also" if witness_covers_q else "not itself"
            )
        records.append(
            _record(
                "monotone-in-p",
                f"p={format_proportion(p)} q={format_proportion(q)}",
                left.cardinality,
                right.cardinality,
                note,
            )
        )
    return records


def check_ceiling_bound(g: Graph, i: int, j: int) -> CheckRecord:
    """gamma_{i/j} <= ceil(i * gamma / j); needs the graph connected."""
    if j < 1 or not 0 <= i <= j:
        raise ValueError("need 0 <= i <= j with j >= 1")
    detail = f"p={i}/{j}"
    if not is_connected(g):
        return _skipped("ceiling-bound", detail, "hypothesis: graph not connected", False)
    gamma = gamma_exact(g).cardinality
    lhs = gamma_p_exact(g, Fraction(i, j)).cardinality
    rhs = -(-i * gamma // j)
    return _record("ceiling-bound", detail, lhs, rhs, f"gamma={gamma}")


def check_half_bound(g: Graph) -> CheckRecord:
    """gamma_{1/2} <= ceil(gamma / 2): the half case of the ceiling bound."""
    rec = check_ceiling_bound(g, 1, 2)
    return CheckRecord("half-bound", rec.detail, rec.lhs, rec.rhs, rec.hypothesis_met, rec.holds, rec.note)


def nordhaus_gaddum_rhs(n: int, i: int, j: int) -> int:
    """ceil(i/j * (floor(n/2) + 2)) + 1."""
    return -(-i * (n // 2 + 2) // j) + 1


def check_nordhaus_gaddum(g: Graph, i: int, j: int) -> CheckRecord:
    """gamma_{i/j}(G) + gamma_{i/j}(complement) against the complement-sum
    bound; needs both the graph and its complement connected.

    For i/j = 1/2 the bound is also written ceil(floor(n/2) / 2) + 2; the
    two forms are algebraically equal and that is asserted here.
    """
    if j < 1 or not 0 <= i <= j:
        raise ValueError("need 0 <= i <= j with j >= 1")
    detail = f"p={i}/{j}"
    gbar = complement(g)
    if not is_connected(g):
        return _skipped("nordhaus-gaddum", detail, "hypothesis: graph not connected", False)
    if not is_connected(gbar):
        return _skipped(
            "nordhaus-gaddum", detail, "hypothesis: complement not connected", False
        )
    p = Fraction(i, j)
    lhs = gamma_p_exact(g, p).cardinality + gamma_p_exact(gbar, p).cardinality
    rhs = nordhaus_gaddum_rhs(g.n, i, j)
    note = ""
    if p == Fraction(1, 2):
        half_form = -(-(g.n // 2) // 2) + 2
        if half_form != rhs:
            raise AssertionError(
                f"half-proportion bound forms disagree: {half_form} != {rhs}"
            )
        note = "half form agrees"
    return _record("nordhaus-gaddum", detail, lhs, rhs, note)


def check_big_gamma(g: Graph, p) -> CheckRecord:
    """gamma_p <= Gamma_p, noting whether the inequality is strict."""
    p = as_proportion(p)
    detail = f"p={format_proportion(p)}"
    lhs = gamma_p_exact(g, p).cardinality
    rhs = big_gamma_p_exact(g, p).cardinality  # may raise CapacityError
    note = "strict" if lhs < rhs else "equality"
    return _record("max-minimal-vs-min", detail, lhs, rhs, note)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator (Steele, Lea, Flood 2014).

    State advances by the golden-gamma constant 0x9E3779B97F4A7C15 and each
    output is the two-round mix of the new state.  Chosen over a host RNG
    so the sampled graphs can be reproduced from the seed in any language.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def sample_connected_coconnected(
    n: int, edge_probability, seed: int, max_rounds: int = 1000
) -> Graph:
    """Sample a graph on ``n >= 4`` vertices with both the graph and its
    complement connected.

    Each round draws one 64-bit SplitMix64 value per vertex pair, pairs
    taken in lexicographic order; the edge is included when the draw is
    below ``floor(probability * 2^64)``.  Rounds repeat on the same stream
    until both connectivity conditions hold.  Deterministic in
    ``(n, edge_probability, seed)``.
    """
    if n < 4:
        raise ValueError("sampler needs n >= 4")
    prob = Fraction(edge_probability)
    if prob < 0 or prob > 1:
        raise ValueError("edge probability must lie in [0, 1]")
    cut = (prob.numerator << 64) // prob.denominator
    rng = SplitMix64(seed)
    for _ in range(max_rounds):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.next_u64() < cut
        ]
        g = Graph.from_edges(n, edges)
        if is_connected(g) and is_connected(complement(g)):
            return g
    raise SamplingError(
        f"no connected/co-connected graph on {n} vertices in {max_rounds} "
        f"rounds at edge probability {prob}; try a different edge_probability"
    )


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------


def audit_suite(
    g: Graph,
    ps,
    *,
    graph_id: str = "graph",
    seed: int | None = None,
    family: FamilySpec | None = None,
    include_big_gamma: bool = True,
) -> AuditReport:
    """Run every applicable check and assemble the report.

    Hypothesis-violating checks are recorded without a verdict; capacity
    errors on the Gamma_p checks become skip records rather than failures.
    When the graph is a spider (known via ``family``), the report also
    verifies that the minimum half-domination witness is the center alone
    and is disjoint from the canonical dominating set of middle vertices.
    """
    ps = sorted(as_proportion(p) for p in ps)
    report = AuditReport(graph_id=graph_id, seed=seed)
    report.checks.extend(check_monotonicity(g, ps))
    for p in ps:
        report.checks.append(check_ceiling_bound(g, p.numerator, p.denominator))
    report.checks.append(check_half_bound(g))
    for p in ps:
        report.checks.append(check_nordhaus_gaddum(g, p.numerator, p.denominator))
    if include_big_gamma:
        for p in ps:
            detail = f"p={format_proportion(p)}"
            if g.n > BIG_GAMMA_MAX_N:
                report.checks.append(
                    _skipped("max-minimal-vs-min", detail, "skipped: over Gamma_p capacity")
                )
                continue
            try:
                report.checks.append(check_big_gamma(g, p))
            except CapacityError as exc:
                report.checks.append(_skipped("max-minimal-vs-min", detail, f"skipped: {exc}"))
    if family is not None and family.family == "spider":
        report.checks.append(_spider_disjointness(g, family))
    return report


def _spider_disjointness(g: Graph, family: FamilySpec) -> CheckRecord:
    """On a spider, the one-vertex half-domination witness (the center)
    must avoid the canonical dominating set formed by the middles."""
    legs = family.params[0]
    res = gamma_p_exact(g, Fraction(1, 2))
    middles = VertexSet(g.n, range(1, legs + 1))
    overlap = len(res.witness & middles)
    note = f"witness={sorted(res.witness)} middles=1..{legs}"
    if sorted(res.witness) != [0]:
        note += "; expected the center alone"
    return _record("disjoint-from-gamma-set", "p=1/2", overlap, 0, note)
