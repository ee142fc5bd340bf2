"""pardom: exact and heuristic solvers for partial domination in graphs.

A set S p-dominates a graph when its closed neighborhood reaches at least
a proportion p of the vertices.  The package computes the partial
domination number gamma_p, the classical domination number gamma, and the
maximum minimal variant Gamma_p; evaluates the known closed forms for
paths, cycles, complete multipartite graphs, grids and tori with
constructive witnesses; and audits the standard inequalities relating
these quantities on supplied or sampled graphs.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .graph import (
    FAMILIES,
    FamilySpec,
    Graph,
    VertexSet,
    closed_neighborhood,
    complement,
    complete_multipartite_graph,
    cycle_graph,
    grid_graph,
    is_connected,
    make_family,
    parse_edge_list,
    parse_family,
    path_graph,
    spider_graph,
    to_edge_list,
    torus_graph,
)
from .solver import (
    BIG_GAMMA_MAX_N,
    ORACLE_MAX_N,
    CapacityError,
    FormulaConflict,
    Proportion,
    SamplingError,
    SolveResult,
    as_proportion,
    big_gamma_p_exact,
    coverage,
    gamma_exact,
    gamma_p_binary_search,
    gamma_p_exact,
    greedy_gamma_p,
    is_minimal_p_dominating,
    is_p_dominating,
    oracle_gamma_p,
    parse_proportion,
    t_dom_decision,
    threshold,
)

# Loaded on first access (PEP 562), so that importing the package, or a
# CLI subcommand that needs neither module, does not import them.
_AUDIT = (
    "AuditReport",
    "CheckRecord",
    "SplitMix64",
    "audit_suite",
    "check_big_gamma",
    "check_ceiling_bound",
    "check_half_bound",
    "check_monotonicity",
    "check_nordhaus_gaddum",
    "nordhaus_gaddum_rhs",
    "sample_connected_coconnected",
)
_FORMULAS = (
    "FormulaResult",
    "gamma_grid_goncalves",
    "gamma_half_cycle",
    "gamma_half_formula",
    "gamma_half_grid",
    "gamma_half_multipartite",
    "gamma_half_path",
    "gamma_half_torus",
    "grid_ratio_report",
)
_LAZY = {**dict.fromkeys(_AUDIT, "audit"), **dict.fromkeys(_FORMULAS, "formulas")}

# Every name imported above, plus the lazy ones.
__all__ = sorted(
    [name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType)]
    + list(_LAZY)
)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


__version__ = "0.1.0"
