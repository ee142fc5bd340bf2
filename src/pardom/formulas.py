"""Closed-form half-domination values with constructive witnesses.

Each routine evaluates the known gamma_{1/2} formula for one graph family
and, where practical, also builds an explicit witness set realising it:

* cycles:   gamma_{1/2}(C_n) = ceil(n / 6), every third vertex along one
            half of the cycle;
* paths:    gamma_{1/2}(P_n) = ceil(n / 6), the cycle construction with
            the wrap edge deleted;
* complete multipartite: always 1, one vertex of a smallest part;
* grids:    ceil(n / 6) for one row, ceil(n / 4) for two rows (staggered
            picks whose closed neighbourhoods have size 4 and are
            disjoint), ceil(m * n / 10) for m >= 3 (packed plus-shaped
            neighbourhoods of size 5);
* tori:     ceil(m * n / 10) for m, n >= 3, plus-shapes with wrap-around.

Every emitted witness is checked against :func:`pardom.solver.is_p_dominating`
before being returned.  When the disjoint-neighbourhood pattern cannot be
realised for specific dimensions (possible for small grids), the witness
falls back to an exact solve; ``FormulaResult.construction`` records which
route produced it.  If an exact fallback ever disagrees with the formula
value, :class:`FormulaConflict` is raised rather than hiding the mismatch.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .graph import (
    FamilySpec,
    Graph,
    VertexSet,
    cycle_graph,
    complete_multipartite_graph,
    grid_graph,
    path_graph,
    torus_graph,
)
from .solver import FormulaConflict, gamma_p_exact, is_p_dominating

HALF = Fraction(1, 2)

# Witnesses are only constructed (and verified) up to this many vertices;
# the formula values themselves have no size limit.
WITNESS_MAX_VERTICES = 10_000


class FormulaResult(namedtuple("FormulaResult", "value witness family construction", defaults=(None,))):
    """A closed-form value, its family, and an optional verified witness.

    ``construction`` is ``"disjoint-pattern"`` when the witness came from
    the disjoint-neighbourhood construction, ``"exact-solver"`` when it
    came from the fallback solve, and ``None`` when no witness was built.
    """

    __slots__ = ()


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _finish(family: FamilySpec, value: int, g: Graph | None, picks) -> FormulaResult:
    """Package a pattern witness, falling back to an exact solve if the
    pattern is missing or fails verification."""
    if g is None:
        return FormulaResult(value, None, family, None)
    if picks is not None:
        witness = VertexSet(g.n, picks)
        if len(witness) == value and is_p_dominating(g, witness, HALF):
            return FormulaResult(value, witness, family, "disjoint-pattern")
    solved = gamma_p_exact(g, HALF)
    if solved.cardinality != value:
        raise FormulaConflict(
            f"{family}: closed form gives {value} but exact solver found "
            f"{solved.cardinality}"
        )
    return FormulaResult(value, solved.witness, family, "exact-solver")


def gamma_half_cycle(n: int) -> FormulaResult:
    """gamma_{1/2} of the cycle C_n (n >= 3): ceil(n / 6).

    Witness: every third vertex going one way around the cycle, stopping
    once half the vertices are dominated.
    """
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    value = _ceil_div(n, 6)
    picks = [3 * i for i in range(value)]
    return _finish(FamilySpec("cycle", (n,)), value, cycle_graph(n), picks)


def gamma_half_path(n: int) -> FormulaResult:
    """gamma_{1/2} of the path P_n (n >= 1): ceil(n / 6).

    Witness: the cycle construction shifted off the deleted wrap edge,
    picks at positions 1, 4, 7, ...
    """
    if n < 1:
        raise ValueError("path needs n >= 1")
    value = _ceil_div(n, 6)
    picks = [0] if n <= 2 else [3 * i + 1 for i in range(value)]
    return _finish(FamilySpec("path", (n,)), value, path_graph(n), picks)


def gamma_half_multipartite(parts) -> FormulaResult:
    """gamma_{1/2} of a complete multipartite graph: always 1.

    Witness: one vertex from a smallest part (coverage n - m_min + 1,
    which always reaches half).  Ties go to the earliest part.
    """
    sizes = tuple(parts)
    g = complete_multipartite_graph(sizes)  # validates the part sizes
    smallest = min(range(len(sizes)), key=lambda i: (sizes[i], i))
    pick = sum(sizes[:smallest])
    return _finish(FamilySpec("multipartite", sizes), 1, g, [pick])


def _grid_value(m: int, n: int) -> int:
    if m == 1:
        return _ceil_div(n, 6)
    if m == 2:
        return _ceil_div(n, 4)
    return _ceil_div(m * n, 10)


def _grid_pattern(m: int, n: int, value: int) -> list[int] | None:
    """Pick coordinates for the disjoint-neighbourhood grid constructions.

    Returns row-major vertex indices, or ``None`` when the pattern does
    not fit (the caller then falls back to an exact solve).
    """
    if m == 2:
        # Staggered rows, one pick every four columns; the last column is
        # clamped to stay on the grid.
        picks = []
        for i in range(value):
            c = min(4 * i + 1, n - 1)
            picks.append((i % 2) * n + c)
        return picks
    if m == 3:
        # Single interior row, plus-shapes every three columns.
        cols = [1 + 3 * i for i in range(value)]
        if cols and cols[-1] > n - 2:
            return None
        return [n + c for c in cols]
    if m == 4:
        # Two interior rows with period-4 staggering, as in the 4-by-12
        # picture: row 1 at columns 1, 5, 9, ..., row 2 at 3, 7, 11, ...
        candidates = []
        c = 1
        while c <= n - 2:
            r = 1 if (c - 1) % 4 == 0 else 2
            candidates.append(r * n + c)
            c += 2
        if len(candidates) < value:
            return None
        return candidates[:value]
    # m >= 5: diagonal lattice c = 2r + s (mod 5) restricted to interior
    # cells; any two lattice centers are at L1 distance >= 3, so their
    # plus-shaped neighbourhoods are disjoint.
    for s in range(5):
        centers = [
            r * n + c
            for r in range(1, m - 1)
            for c in range(1, n - 1)
            if (c - 2 * r - s) % 5 == 0
        ]
        if len(centers) >= value:
            return centers[:value]
    return None


def gamma_half_grid(m: int, n: int) -> FormulaResult:
    """gamma_{1/2} of the m-by-n grid, 1 <= m <= n.

    ceil(n / 6) for m = 1, ceil(n / 4) for m = 2, ceil(m * n / 10) for
    m >= 3.
    """
    if not 1 <= m <= n:
        raise ValueError("grid needs 1 <= m <= n")
    if m == 1:
        res = gamma_half_path(n)
        return FormulaResult(res.value, res.witness, FamilySpec("grid", (1, n)), res.construction)
    value = _grid_value(m, n)
    if m * n > WITNESS_MAX_VERTICES:
        return FormulaResult(value, None, FamilySpec("grid", (m, n)), None)
    picks = _grid_pattern(m, n, value)
    return _finish(FamilySpec("grid", (m, n)), value, grid_graph(m, n), picks)


def _torus_pattern(g: Graph, value: int) -> list[int] | None:
    """Greedy plus-shape packing on the torus; wrap-around is allowed, so
    every cell is a candidate center."""
    picks = []
    covered = 0
    for v in range(g.n):
        if covered & g.closed[v]:
            continue
        picks.append(v)
        covered |= g.closed[v]
        if len(picks) == value:
            return picks
    return None


def gamma_half_torus(m: int, n: int) -> FormulaResult:
    """gamma_{1/2} of the m-by-n torus, 3 <= m <= n: ceil(m * n / 10)."""
    if m < 3:
        raise ValueError(
            "torus needs m >= 3; cycle factors of length 1 or 2 are "
            "degenerate as simple graphs"
        )
    if m > n:
        raise ValueError("torus needs m <= n")
    value = _ceil_div(m * n, 10)
    if m * n > WITNESS_MAX_VERTICES:
        return FormulaResult(value, None, FamilySpec("torus", (m, n)), None)
    g = torus_graph(m, n)
    picks = _torus_pattern(g, value)
    return _finish(FamilySpec("torus", (m, n)), value, g, picks)


def gamma_half_formula(spec: FamilySpec) -> FormulaResult:
    """Dispatch the gamma_{1/2} closed form for any supported family spec."""
    if spec.family == "path":
        return gamma_half_path(*spec.params)
    if spec.family == "cycle":
        return gamma_half_cycle(*spec.params)
    if spec.family == "multipartite":
        return gamma_half_multipartite(spec.params)
    if spec.family == "grid":
        return gamma_half_grid(*spec.params)
    if spec.family == "torus":
        return gamma_half_torus(*spec.params)
    raise ValueError(f"no closed form for family {spec.family!r}")


def gamma_grid_goncalves(m: int, n: int) -> int:
    """Classical domination number of the m-by-n grid for m, n >= 16:
    floor((m + 2)(n + 2) / 5) - 4.

    A published reference value, used as-is; instances this large are not
    re-verified by the exact solvers.
    """
    if m < 16 or n < 16:
        raise ValueError("the grid domination formula applies for m, n >= 16")
    return (m + 2) * (n + 2) // 5 - 4


def grid_ratio_report(m: int, n: int) -> Fraction:
    """Exact ratio gamma_{1/2} / gamma for the m-by-n grid, m, n >= 16.

    Approaches 1/2 as the grid grows; noticeably below 1/2 for moderate
    sizes.
    """
    if not 16 <= m <= n:
        raise ValueError("ratio report needs 16 <= m <= n")
    return Fraction(gamma_half_grid(m, n).value, gamma_grid_goncalves(m, n))
