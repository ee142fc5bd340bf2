"""Property-based checks of the solver invariants on random graphs."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pardom import (
    Graph,
    VertexSet,
    big_gamma_p_exact,
    complement,
    coverage,
    gamma_exact,
    gamma_p_binary_search,
    gamma_p_exact,
    greedy_gamma_p,
    is_p_dominating,
    oracle_gamma_p,
    t_dom_decision,
    threshold,
)
from pardom.solver import trivial_lower_bound

from oracles import brute_gamma_p

PROPORTIONS = [
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(1),
]


@st.composite
def graphs(draw, max_n=9, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
    return Graph.from_edges(n, edges)


@st.composite
def graph_and_subset(draw, max_n=10):
    g = draw(graphs(max_n=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << g.n) - 1 if g.n else 0))
    return g, VertexSet.from_mask(g.n, mask)


@given(graphs(), st.sampled_from(PROPORTIONS))
@settings(max_examples=60, deadline=None)
def test_solvers_agree_with_enumeration(g, p):
    expected = brute_gamma_p(g, p)[0]
    assert gamma_p_exact(g, p).cardinality == expected
    assert gamma_p_binary_search(g, p).cardinality == expected
    assert oracle_gamma_p(g, p).cardinality == expected


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_gamma_p_monotone_in_p(g):
    values = [gamma_p_exact(g, p).cardinality for p in PROPORTIONS]
    assert values == sorted(values)
    assert values[-1] == gamma_exact(g).cardinality


@given(graphs(min_n=1, max_n=8), st.sampled_from(PROPORTIONS))
@settings(max_examples=40, deadline=None)
def test_decision_feasibility_monotone_in_k(g, p):
    t = threshold(g.n, p)
    feasible = [t_dom_decision(g, t, k) is not None for k in range(g.n + 1)]
    assert feasible == sorted(feasible)
    assert feasible[-1]  # all vertices always dominate everything


@given(graph_and_subset())
@settings(max_examples=60, deadline=None)
def test_coverage_monotone_and_bounded(gs):
    g, s = gs
    cov = coverage(g, s)
    assert len(s) <= cov <= g.n
    if g.n:
        grown = VertexSet.from_mask(g.n, s.mask | 1)
        assert coverage(g, grown) >= cov


@given(graphs(min_n=1), st.sampled_from(PROPORTIONS))
@settings(max_examples=40, deadline=None)
def test_greedy_valid_and_dominates_exact(g, p):
    greedy = greedy_gamma_p(g, p)
    assert is_p_dominating(g, greedy.witness, p)
    assert greedy.cardinality >= gamma_p_exact(g, p).cardinality


@given(graphs(min_n=1, max_n=8), st.sampled_from(PROPORTIONS))
@settings(max_examples=40, deadline=None)
def test_big_gamma_at_least_gamma_p(g, p):
    assert gamma_p_exact(g, p).cardinality <= big_gamma_p_exact(g, p).cardinality


@given(graphs(max_n=10))
@settings(max_examples=60, deadline=None)
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(graphs(min_n=1), st.sampled_from(PROPORTIONS))
@settings(max_examples=40, deadline=None)
def test_witnesses_are_valid(g, p):
    for solve in (gamma_p_exact, gamma_p_binary_search, oracle_gamma_p):
        res = solve(g, p)
        assert len(res.witness) == res.cardinality
        assert res.covered == coverage(g, res.witness)
        assert res.covered >= threshold(g.n, p)


@given(graphs(), st.sampled_from(PROPORTIONS))
@settings(max_examples=60, deadline=None)
def test_trivial_lower_bound_never_exceeds_gamma_p(g, p):
    bound = trivial_lower_bound(g, threshold(g.n, p))
    assert bound <= oracle_gamma_p(g, p).cardinality
