from fractions import Fraction

import pytest

from pardom import (
    CapacityError,
    Graph,
    VertexSet,
    big_gamma_p_exact,
    complete_multipartite_graph,
    coverage,
    cycle_graph,
    gamma_exact,
    gamma_p_binary_search,
    gamma_p_exact,
    greedy_gamma_p,
    grid_graph,
    is_minimal_p_dominating,
    is_p_dominating,
    oracle_gamma_p,
    parse_proportion,
    path_graph,
    spider_graph,
    t_dom_decision,
    threshold,
)

from oracles import brute_big_gamma, brute_gamma_p, brute_is_minimal

HALF = Fraction(1, 2)
ONE = Fraction(1)


class TestProportionAndThreshold:
    def test_threshold_examples(self):
        assert threshold(17, HALF) == 9
        assert threshold(12, HALF) == 6
        assert threshold(8, ONE) == 8
        assert threshold(0, HALF) == 0

    def test_threshold_integer_identity(self):
        # coverage >= ceil(i*n/j)  iff  coverage * j >= i * n, exhaustively.
        for n in range(1, 65):
            for j in range(1, 13):
                for i in range(j + 1):
                    t = threshold(n, Fraction(i, j))
                    for cov in range(n + 1):
                        assert (cov >= t) == (cov * j >= i * n)

    def test_parse_proportion(self):
        assert parse_proportion("1/2") == HALF
        assert parse_proportion("2/4") == HALF
        assert parse_proportion("0/1") == 0
        assert parse_proportion("1") == 1
        for bad in ("3/2", "-1/2", "1/0", "a/b", ""):
            with pytest.raises(ValueError):
                parse_proportion(bad)

    def test_threshold_matches_unreduced(self):
        assert threshold(10, Fraction(2, 4)) == threshold(10, HALF) == 5


class TestCoverage:
    def test_k35_single_vertex(self):
        g = complete_multipartite_graph((3, 5))
        assert coverage(g, VertexSet(8, [0])) == 6

    def test_empty_set(self):
        assert coverage(path_graph(5), VertexSet(5)) == 0

    def test_c12_two_far_vertices(self):
        g = cycle_graph(12)
        assert coverage(g, VertexSet(12, [0, 3])) == 6
        assert coverage(g, VertexSet(12, [0, 6])) == 6

    def test_monotone_under_inclusion(self):
        g = grid_graph(3, 4)
        small = VertexSet(12, [0, 5])
        large = VertexSet(12, [0, 5, 7])
        assert coverage(g, small) <= coverage(g, large)
        assert coverage(g, small) >= len(small)

    def test_rejects_foreign_vertices(self):
        with pytest.raises(ValueError):
            coverage(path_graph(3), VertexSet(5, [4]))


class TestIsPDominating:
    def test_path6_interior(self):
        g = path_graph(6)
        assert is_p_dominating(g, VertexSet(6, [1]), HALF)

    def test_path6_leaf_fails(self):
        g = path_graph(6)
        assert coverage(g, VertexSet(6, [0])) == 2
        assert not is_p_dominating(g, VertexSet(6, [0]), HALF)

    def test_all_vertices_dominate(self):
        g = cycle_graph(7)
        assert is_p_dominating(g, VertexSet(7, range(7)), ONE)

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert is_p_dominating(g, VertexSet(0), ONE)


class TestDecision:
    def test_spider_center(self):
        g = spider_graph(8)
        s = t_dom_decision(g, 9, 1)
        assert s is not None and list(s) == [0]
        assert coverage(g, s) == 9

    def test_trivial_zero(self):
        s = t_dom_decision(path_graph(4), 0, 0)
        assert s is not None and len(s) == 0

    def test_c12_pair_infeasible(self):
        # Two vertices of C_12 cover at most 6 (verified by brute force).
        g = cycle_graph(12)
        assert t_dom_decision(g, 7, 2) is None
        assert t_dom_decision(g, 6, 2) is not None

    def test_witness_within_budget(self):
        g = grid_graph(3, 4)
        s = t_dom_decision(g, 6, 5)
        assert s is not None and len(s) <= 5
        assert coverage(g, s) >= 6

    def test_preconditions(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            t_dom_decision(g, 5, 1)
        with pytest.raises(ValueError):
            t_dom_decision(g, 2, -1)

    def test_monotone_in_k(self):
        g = grid_graph(3, 4)
        t = threshold(g.n, HALF)
        feasible = [t_dom_decision(g, t, k) is not None for k in range(g.n + 1)]
        assert feasible == sorted(feasible)  # False... then True...


class TestGammaP:
    @pytest.mark.parametrize(
        "g,p,expected",
        [
            (path_graph(6), HALF, 1),
            (cycle_graph(12), HALF, 2),
            (cycle_graph(13), HALF, 3),
            (path_graph(18), HALF, 3),
            (spider_graph(8), ONE, 8),
            (grid_graph(3, 3), HALF, 1),
        ],
    )
    def test_known_values(self, g, p, expected):
        assert gamma_p_exact(g, p).cardinality == expected
        assert gamma_p_binary_search(g, p).cardinality == expected
        if g.n <= 24:
            assert oracle_gamma_p(g, p).cardinality == expected

    def test_p_zero_gives_empty(self):
        res = gamma_p_exact(cycle_graph(9), Fraction(0))
        assert res.cardinality == 0
        assert len(res.witness) == 0
        assert gamma_p_binary_search(cycle_graph(9), Fraction(0)).cardinality == 0

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert gamma_p_exact(g, ONE).cardinality == 0

    def test_grid_4_12_binary_search(self):
        res = gamma_p_binary_search(grid_graph(4, 12), HALF)
        assert res.cardinality == 5
        assert res.method == "binary-search"

    def test_gamma_exact_values(self):
        assert gamma_exact(spider_graph(8)).cardinality == 8
        assert gamma_exact(complete_multipartite_graph((1,) * 6)).cardinality == 1
        assert gamma_exact(cycle_graph(12)).cardinality == 4

    def test_witness_contract(self):
        for g in [path_graph(9), cycle_graph(10), grid_graph(2, 6), spider_graph(4)]:
            for p in [Fraction(1, 4), HALF, Fraction(3, 4), ONE]:
                res = gamma_p_exact(g, p)
                assert len(res.witness) == res.cardinality
                assert coverage(g, res.witness) == res.covered
                assert res.covered >= threshold(g.n, p)

    def test_methods_and_determinism(self):
        g = grid_graph(3, 5)
        a = gamma_p_exact(g, HALF)
        b = gamma_p_exact(g, HALF)
        assert a == b
        assert a.method == "branch-and-bound"
        assert oracle_gamma_p(g, HALF).method == "oracle"

    def test_oracle_capacity(self):
        with pytest.raises(CapacityError):
            oracle_gamma_p(grid_graph(5, 5), HALF)

    def test_oracle_lexicographic_witness(self):
        # Enumeration order is by cardinality then lexicographic, so the
        # witness is the lexicographically first minimum one.
        res = oracle_gamma_p(path_graph(6), HALF)
        assert list(res.witness) == [1]


class TestGreedy:
    def test_path6(self):
        res = greedy_gamma_p(path_graph(6), HALF)
        assert res.cardinality == 1
        assert list(res.witness) == [1]  # lowest-index tie-break among degree-2

    def test_k35(self):
        res = greedy_gamma_p(complete_multipartite_graph((3, 5)), HALF)
        assert res.cardinality == 1

    def test_edgeless(self):
        g = Graph.from_edges(4, [])
        assert greedy_gamma_p(g, HALF).cardinality == 2

    def test_never_below_exact(self):
        for g in [path_graph(11), cycle_graph(9), grid_graph(3, 4), spider_graph(5)]:
            for p in [Fraction(1, 3), HALF, ONE]:
                greedy = greedy_gamma_p(g, p)
                exact = gamma_p_exact(g, p)
                assert greedy.cardinality >= exact.cardinality
                assert is_p_dominating(g, greedy.witness, p)


class TestMinimality:
    def test_p6_two_leaves_minimal(self):
        g = path_graph(6)
        leaves = VertexSet(6, [0, 5])
        assert coverage(g, leaves) == 4
        assert is_minimal_p_dominating(g, leaves, HALF)

    def test_p6_two_interior_not_minimal(self):
        g = path_graph(6)
        assert not is_minimal_p_dominating(g, VertexSet(6, [1, 4]), HALF)

    def test_empty_set_minimal_for_p_zero(self):
        g = path_graph(3)
        assert is_minimal_p_dominating(g, VertexSet(3), Fraction(0))

    def test_matches_brute_force(self):
        g = cycle_graph(8)
        import itertools

        for card in range(4):
            for combo in itertools.combinations(range(8), card):
                got = is_minimal_p_dominating(g, VertexSet(8, combo), HALF)
                assert got == brute_is_minimal(g, combo, HALF)


class TestBigGamma:
    def test_p6_value(self):
        res = big_gamma_p_exact(path_graph(6), HALF)
        assert res.cardinality == 2  # brute force over all 64 subsets agrees
        assert brute_big_gamma(path_graph(6), HALF)[0] == 2

    def test_kn_full_domination(self):
        k4 = complete_multipartite_graph((1,) * 4)
        assert big_gamma_p_exact(k4, ONE).cardinality == 1

    def test_c12_at_least_gamma_p(self):
        res = big_gamma_p_exact(cycle_graph(12), HALF)
        assert res.cardinality == 2  # frozen from the 2^12 subset sweep
        assert res.cardinality >= gamma_p_exact(cycle_graph(12), HALF).cardinality

    def test_witness_is_minimal(self):
        for g in [path_graph(7), cycle_graph(8), spider_graph(3)]:
            res = big_gamma_p_exact(g, HALF)
            assert is_minimal_p_dominating(g, res.witness, HALF)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_brute_force_on_cycles(self, n):
        g = cycle_graph(n)
        assert big_gamma_p_exact(g, HALF).cardinality == brute_big_gamma(g, HALF)[0]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            big_gamma_p_exact(grid_graph(5, 5), HALF)

    def test_empty_graph(self):
        assert big_gamma_p_exact(Graph.from_edges(0, []), HALF).cardinality == 0


class TestSolverAgreement:
    PS = [Fraction(1, 4), Fraction(1, 3), HALF, Fraction(2, 3), Fraction(3, 4), ONE]

    @pytest.mark.parametrize(
        "g",
        [
            path_graph(1),
            path_graph(10),
            cycle_graph(11),
            grid_graph(2, 5),
            grid_graph(3, 4),
            spider_graph(4),
            complete_multipartite_graph((2, 3, 4)),
            Graph.from_edges(5, []),
        ],
        ids=lambda g: f"n{g.n}m{g.num_edges}",
    )
    def test_exact_binsearch_oracle_agree(self, g):
        for p in self.PS:
            k_exact = gamma_p_exact(g, p).cardinality
            k_bs = gamma_p_binary_search(g, p).cardinality
            k_or = oracle_gamma_p(g, p).cardinality
            k_brute = brute_gamma_p(g, p)[0]
            assert k_exact == k_bs == k_or == k_brute

    def test_monotone_in_p(self):
        for g in [path_graph(9), spider_graph(4), grid_graph(2, 6)]:
            values = [gamma_p_exact(g, p).cardinality for p in self.PS]
            assert values == sorted(values)

    def test_gamma_p_at_most_gamma(self):
        for g in [path_graph(9), cycle_graph(10), spider_graph(5)]:
            gamma = gamma_exact(g).cardinality
            for p in self.PS:
                assert gamma_p_exact(g, p).cardinality <= gamma


class TestKnownDominationNumbers:
    def test_long_cycle_does_not_hit_recursion_limit(self):
        g = cycle_graph(3300)
        res = gamma_exact(g)
        assert res.cardinality == 1100
        assert res.covered == coverage(g, res.witness) == g.n

    @pytest.mark.parametrize("m,n", [(m, n) for m in (2, 3, 4) for n in range(m, 11)])
    def test_grid_domination_numbers(self, m, n):
        # Jacobson & Kinch (1984).
        expected = {
            2: (n + 2) // 2,
            3: (3 * n + 4) // 4,
            4: n + 1 if n in (5, 6, 9) else n,
        }[m]
        assert gamma_exact(grid_graph(m, n)).cardinality == expected

    def test_grid_6_6(self):
        assert gamma_exact(grid_graph(6, 6)).cardinality == 10

    @pytest.mark.parametrize(
        "g,p,witness",
        [
            (grid_graph(5, 5), ONE, [1, 4, 6, 13, 15, 19, 22]),
            (grid_graph(6, 7), Fraction(5, 6), [8, 11, 15, 20, 24, 28, 33, 37]),
        ],
        ids=["grid:5,5@1", "grid:6,7@5/6"],
    )
    def test_pinned_witnesses(self, g, p, witness):
        # The first feasible leaf in the decision search's visiting order.
        for solve in (gamma_p_exact, gamma_p_binary_search):
            assert sorted(solve(g, p).witness) == witness
