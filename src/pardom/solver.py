"""Exact and heuristic solvers for partial domination.

A set ``S`` p-dominates a graph ``G`` when ``|N[S]| / |V| >= p``; the
partial domination number gamma_p(G) is the smallest size of such a set.
Proportions are exact rationals (:class:`fractions.Fraction`), and the
coverage requirement is folded into the integer threshold
``t = ceil(p * n)``, so no floating point is involved anywhere.

Solvers:

* :func:`t_dom_decision` answers "are there at most k vertices dominating
  at least t vertices?" exactly, by depth-first search with pruning.
* :func:`gamma_p_exact` finds gamma_p by probing k upward from
  :func:`trivial_lower_bound`; :func:`gamma_p_binary_search` finds the
  same value and witness by binary search on k between that bound and
  the greedy cardinality, exercising the monotonicity of feasibility in k.
* :func:`oracle_gamma_p` is a deliberately naive subset-enumeration
  oracle, kept free of the pruning machinery so it can vouch for the
  other solvers on small instances.
* :func:`greedy_gamma_p` is the max-marginal-coverage heuristic; it
  always returns a valid p-dominating set, not necessarily minimum.
* :func:`big_gamma_p_exact` computes Gamma_p, the largest cardinality of
  a *minimal* p-dominating set.

Searches are fully deterministic: candidates are visited in decreasing
order of marginal coverage with ties broken by vertex index, so repeated
runs return identical witnesses.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction

from .graph import Graph, VertexSet

Proportion = Fraction

ORACLE_MAX_N = 24
BIG_GAMMA_MAX_N = 24


class CapacityError(RuntimeError):
    """An instance exceeds the documented size limit of an exact routine."""


class SamplingError(RuntimeError):
    """The rejection sampler ran out of rounds without a valid graph."""


class FormulaConflict(RuntimeError):
    """An exact solve contradicted a closed-form value (erratum candidate)."""


class SolveResult(namedtuple("SolveResult", "cardinality witness covered method nodes_explored")):
    """Outcome of a domination solve.

    ``covered`` is ``|N[witness]|`` recomputed from the graph, and
    ``nodes_explored`` counts search states visited (subsets tested, for
    the oracle; candidate scans, for the greedy heuristic).
    """

    __slots__ = ()


def parse_proportion(text: str) -> Fraction:
    """Parse ``"i/j"`` (or a bare integer) into a proportion in [0, 1]."""
    num, sep, den = text.partition("/")
    try:
        if sep:
            p = Fraction(int(num), int(den))
        else:
            p = Fraction(int(num), 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"proportion {text!r} must look like 'i/j' with j >= 1") from None
    return as_proportion(p)


def format_proportion(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def as_proportion(p) -> Fraction:
    """Coerce to :class:`Fraction` and require 0 <= p <= 1."""
    p = Fraction(p)
    if p < 0 or p > 1:
        raise ValueError(f"proportion must lie in [0, 1], got {p}")
    return p


def threshold(n: int, p) -> int:
    """Least coverage satisfying the proportion: ``t = ceil(p * n)``.

    Exact integer arithmetic; for n > 0, ``coverage >= t`` iff
    ``coverage / n >= p``.  Returns 0 for n = 0.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    p = as_proportion(p)
    return -(-p.numerator * n // p.denominator)


def _require_subset(g: Graph, s: VertexSet) -> None:
    if s.mask >> g.n:
        raise ValueError("vertex set has members outside the graph")


def _union_closed(g: Graph, mask: int) -> int:
    closed = g.closed
    out = 0
    while mask:
        low = mask & -mask
        out |= closed[low.bit_length() - 1]
        mask ^= low
    return out


def coverage(g: Graph, s: VertexSet) -> int:
    """``|N[S]|``: how many vertices are dominated by ``s``."""
    _require_subset(g, s)
    return _union_closed(g, s.mask).bit_count()


def is_p_dominating(g: Graph, s: VertexSet, p) -> bool:
    """True iff ``s`` dominates at least a proportion ``p`` of the vertices."""
    return coverage(g, s) >= threshold(g.n, p)


def is_minimal_p_dominating(g: Graph, s: VertexSet, p) -> bool:
    """True iff ``s`` p-dominates but no proper subset of it does.

    Only single-vertex removals are tested: coverage is monotone under set
    inclusion, so if every ``s - {v}`` falls below the threshold then so
    does every smaller subset.
    """
    _require_subset(g, s)
    t = threshold(g.n, p)
    if _union_closed(g, s.mask).bit_count() < t:
        return False
    for v in s:
        if _union_closed(g, s.mask & ~(1 << v)).bit_count() >= t:
            return False
    return True


# ---------------------------------------------------------------------------
# Decision procedure: <= k vertices dominating >= t vertices
# ---------------------------------------------------------------------------


def _decision(g: Graph, t: int, k: int):
    """Exact decision core; returns ``(witness_mask_or_None, nodes_explored)``.

    Depth-first search on an explicit stack.  Each node computes every
    candidate's marginal gain ``|N[v] - covered|`` once and drops those with
    none (gains only shrink as coverage grows).  Children are visited in
    decreasing order of gain, ties to the lower index, each excluded from
    its younger siblings' subtrees.  Coverage is submodular, so the i-th
    child's subtree gains at most the ``picks_left`` gains from position i
    on; that sum never grows with i, so the children worth visiting are a
    prefix of the order.  The prunes cut only subtrees without a feasible
    leaf, so the witness depends on the visiting order alone.
    """
    if not 0 <= t <= g.n:
        raise ValueError(f"target t={t} must lie in [0, {g.n}]")
    if k < 0:
        raise ValueError("budget k must be nonnegative")
    closed = g.closed
    full = (1 << g.n) - 1
    nodes = 0
    # Frames: (covered, chosen, candidates in visiting order, next child,
    # end of the children worth visiting, picks left below a child).
    stack = []
    covered, chosen, candidates, picks_left = 0, 0, range(g.n), k
    while True:
        nodes += 1
        need = t - covered.bit_count()
        if need <= 0:
            return chosen, nodes
        if picks_left:
            uncovered = full ^ covered
            ranked = sorted(
                (-gain, v)
                for v in candidates
                if (gain := (closed[v] & uncovered).bit_count())
            )
            gains = [-gain for gain, _ in ranked] + [0] * picks_left
            reach = sum(gains[:picks_left])
            stop = 0
            while stop < len(ranked) and reach >= need:
                reach += gains[stop + picks_left] - gains[stop]
                stop += 1
            if stop:
                order = [v for _, v in ranked]
                stack.append((covered, chosen, order, 0, stop, picks_left - 1))
        while stack:
            covered, chosen, order, i, stop, picks_left = stack.pop()
            if i < stop:
                stack.append((covered, chosen, order, i + 1, stop, picks_left))
                v = order[i]
                covered |= closed[v]
                chosen |= 1 << v
                candidates = order[i + 1 :]
                break
        else:
            return None, nodes


def t_dom_decision(g: Graph, t: int, k: int) -> VertexSet | None:
    """Find at most ``k`` vertices dominating at least ``t`` vertices.

    Returns a witness set if one exists and ``None`` otherwise.  The search
    is exact: a ``None`` answer proves infeasibility.
    """
    mask, _ = _decision(g, t, k)
    return None if mask is None else VertexSet.from_mask(g.n, mask)


# ---------------------------------------------------------------------------
# gamma_p solvers
# ---------------------------------------------------------------------------


def _result(g: Graph, mask: int, method: str, nodes: int) -> SolveResult:
    witness = VertexSet.from_mask(g.n, mask)
    return SolveResult(
        cardinality=len(witness),
        witness=witness,
        covered=_union_closed(g, mask).bit_count(),
        method=method,
        nodes_explored=nodes,
    )


def trivial_lower_bound(g: Graph, t: int) -> int:
    """Smallest k whose k largest closed neighbourhoods reach ``t`` in total.

    ``|N[S]|`` is at most the sum of ``|N[v]|`` over ``v`` in ``S``, so no
    set smaller than this covers ``t`` vertices.
    """
    k = reach = 0
    for size in sorted((c.bit_count() for c in g.closed), reverse=True):
        if reach >= t:
            break
        reach += size
        k += 1
    return k


def gamma_p_exact(g: Graph, p) -> SolveResult:
    """Exact gamma_p: smallest k for which the decision procedure succeeds.

    Probes k upward from :func:`trivial_lower_bound`; termination is
    guaranteed because the full vertex set dominates everything.
    """
    t = threshold(g.n, p)
    total = 0
    for k in range(trivial_lower_bound(g, t), g.n + 1):
        mask, nodes = _decision(g, t, k)
        total += nodes
        if mask is not None:
            return _result(g, mask, "branch-and-bound", total)
    raise AssertionError("unreachable: the full vertex set dominates all vertices")


def gamma_p_binary_search(g: Graph, p) -> SolveResult:
    """Exact gamma_p via binary search on the budget k.

    Feasibility is monotone in k (a witness for k works for k + 1), so the
    smallest feasible k is gamma_p.  The search runs over
    ``[trivial_lower_bound, greedy]``, the greedy set being the first
    incumbent.  Returns the same witness as :func:`gamma_p_exact`.
    """
    t = threshold(g.n, p)
    lo = trivial_lower_bound(g, t)
    hi = greedy_gamma_p(g, p).cardinality
    best = None
    total = 0
    while lo < hi:
        mid = (lo + hi) // 2
        mask, nodes = _decision(g, t, mid)
        total += nodes
        if mask is not None:
            hi = mid
            best = mask
        else:
            lo = mid + 1
    if best is None or best.bit_count() != lo:
        # The incumbent is the greedy set or came from a larger budget;
        # the search at the exact budget gives the canonical witness.
        best, nodes = _decision(g, t, lo)
        total += nodes
    return _result(g, best, "binary-search", total)


def gamma_exact(g: Graph) -> SolveResult:
    """Classical domination number: gamma_p at p = 1."""
    return gamma_p_exact(g, Fraction(1))


def greedy_gamma_p(g: Graph, p) -> SolveResult:
    """Greedy heuristic: repeatedly take the vertex covering the most new
    vertices (ties to the lowest index) until the threshold is met.

    The result is always a valid p-dominating set and its cardinality is an
    upper bound on gamma_p.
    """
    t = threshold(g.n, p)
    covered = 0
    chosen = 0
    scans = 0
    while covered.bit_count() < t:
        best_v = -1
        best_gain = -1
        for v in range(g.n):
            if (chosen >> v) & 1:
                continue
            scans += 1
            gain = (g.closed[v] & ~covered).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        chosen |= 1 << best_v
        covered |= g.closed[best_v]
    return _result(g, chosen, "greedy", scans)


def oracle_gamma_p(g: Graph, p) -> SolveResult:
    """Reference solver: exhaustive enumeration of subsets by increasing
    cardinality, lexicographic within each cardinality.

    Independent of the branch-and-bound machinery; intended as ground
    truth on small instances (n <= 24).
    """
    if g.n > ORACLE_MAX_N:
        raise CapacityError(f"oracle handles n <= {ORACLE_MAX_N}, got n={g.n}")
    t = threshold(g.n, p)
    closed = g.closed
    tested = 0
    for card in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), card):
            tested += 1
            union = 0
            for v in combo:
                union |= closed[v]
            if union.bit_count() >= t:
                mask = 0
                for v in combo:
                    mask |= 1 << v
                return _result(g, mask, "oracle", tested)
    raise AssertionError("unreachable: the full vertex set dominates all vertices")


# ---------------------------------------------------------------------------
# Gamma_p: maximum minimal p-dominating set
# ---------------------------------------------------------------------------


def big_gamma_p_exact(g: Graph, p) -> SolveResult:
    """Largest cardinality of a minimal p-dominating set (Gamma_p).

    Depth-first subset search in canonical vertex order with two sound
    prunings: once a partial set reaches the threshold no proper superset
    can be minimal, and once any member's exclusive contribution (vertices
    only it covers) becomes empty that member would stay redundant in
    every superset.  Worst case exponential, hence the size cap.
    """
    if g.n > BIG_GAMMA_MAX_N:
        raise CapacityError(
            f"Gamma_p search handles n <= {BIG_GAMMA_MAX_N}, got n={g.n}"
        )
    t = threshold(g.n, p)
    closed = g.closed
    n = g.n
    best_mask = 0
    best_size = -1
    nodes = 0

    # Stack entries: (chosen mask, covered mask, exclusive-contribution
    # masks aligned with chosen vertices in insertion order, next vertex).
    stack = [(0, 0, [], 0)]
    while stack:
        chosen, covered, exclusives, start = stack.pop()
        nodes += 1
        if covered.bit_count() >= t:
            slack = covered.bit_count() - t
            if all(e.bit_count() > slack for e in exclusives):
                size = chosen.bit_count()
                if size > best_size:
                    best_size = size
                    best_mask = chosen
            continue
        if any(e == 0 for e in exclusives):
            continue
        # Push children in reverse so lower vertex indices pop first.
        for v in range(n - 1, start - 1, -1):
            gain = closed[v] & ~covered
            if gain == 0:
                continue  # v would be redundant immediately
            stack.append(
                (
                    chosen | (1 << v),
                    covered | closed[v],
                    [e & ~closed[v] for e in exclusives] + [gain],
                    v + 1,
                )
            )
    if best_size < 0:
        raise AssertionError("unreachable: some minimal p-dominating set exists")
    return _result(g, best_mask, "branch-and-bound", nodes)
