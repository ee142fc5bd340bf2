import itertools

import pytest

from pardom import (
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


class TestVertexSet:
    def test_membership_and_cardinality(self):
        s = VertexSet(10, [0, 3, 9])
        assert len(s) == 3
        assert 3 in s and 4 not in s
        assert list(s) == [0, 3, 9]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            VertexSet(4, [4])
        with pytest.raises(ValueError):
            VertexSet.from_mask(4, 1 << 4)

    def test_set_algebra(self):
        a = VertexSet(6, [0, 1])
        b = VertexSet(6, [1, 2])
        assert list(a | b) == [0, 1, 2]
        assert list(a & b) == [1]
        assert list(a - b) == [0]
        assert not a.isdisjoint(b)
        assert a.isdisjoint(VertexSet(6, [4, 5]))

    def test_immutable(self):
        s = VertexSet(3, [1])
        with pytest.raises(AttributeError):
            s.mask = 7


class TestGraphBasics:
    def test_from_edges_and_degrees(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.num_edges == 3
        assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
        g.validate()

    def test_rejects_self_loop_duplicate_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])

    def test_constructor_enforces_invariants(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0))
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(3, (0b010, 0b101, 0b010 | 0b001))
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, (0b11, 0b01))
        with pytest.raises(ValueError, match="out-of-range"):
            Graph(2, (0b100, 0))
        assert Graph(2, (0b10, 0b01)).num_edges == 1

    def test_graph_immutable(self):
        g = path_graph(3)
        with pytest.raises(AttributeError):
            g.n = 5


class TestClosedNeighborhood:
    def test_path_interior_vertex(self):
        # P_6, second vertex dominates itself and both neighbors.
        s = closed_neighborhood(path_graph(6), 1)
        assert list(s) == [0, 1, 2]
        assert len(s) == 3

    def test_isolated_vertex(self):
        g = Graph.from_edges(3, [])
        assert list(closed_neighborhood(g, 1)) == [1]

    def test_k35_small_side(self):
        # One vertex of the 3-part reaches all of the 5-part: |N[v]| = 6 of 8.
        g = complete_multipartite_graph((3, 5))
        assert len(closed_neighborhood(g, 0)) == 6

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            closed_neighborhood(path_graph(3), 3)


class TestFamilies:
    def test_spider_shape(self):
        g = spider_graph(8)
        assert g.n == 17
        assert g.degree(0) == 8
        assert all(g.degree(i) == 2 for i in range(1, 9))
        assert all(g.degree(i) == 1 for i in range(9, 17))
        g.validate()

    def test_grid_2_12(self):
        g = grid_graph(2, 12)
        assert g.n == 24
        assert g.degree(0) == 2  # corner
        assert g.degree(1) == 3  # edge interior
        g.validate()

    def test_triangle(self):
        g = cycle_graph(3)
        assert all(g.degree(v) == 2 for v in range(3))

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 5), (2, 2), (3, 7), (4, 4)])
    def test_grid_edge_count(self, m, n):
        g = grid_graph(m, n)
        assert g.n == m * n
        assert g.num_edges == 2 * m * n - m - n
        g.validate()

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 5), (4, 6), (5, 5)])
    def test_torus_edge_count(self, m, n):
        g = torus_graph(m, n)
        assert g.num_edges == 2 * m * n
        assert all(g.degree(v) == 4 for v in range(g.n))
        g.validate()

    def test_path_cycle_degree_profile(self):
        p = path_graph(7)
        assert p.degree(0) == p.degree(6) == 1
        assert all(p.degree(v) == 2 for v in range(1, 6))
        c = cycle_graph(7)
        assert all(c.degree(v) == 2 for v in range(7))

    def test_multipartite_degrees(self):
        sizes = (2, 3, 4)
        g = complete_multipartite_graph(sizes)
        n = sum(sizes)
        offset = 0
        for size in sizes:
            for v in range(offset, offset + size):
                assert g.degree(v) == n - size
            offset += size
        g.validate()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            path_graph(0)
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            complete_multipartite_graph((5,))
        with pytest.raises(ValueError):
            grid_graph(3, 2)
        with pytest.raises(ValueError):
            torus_graph(2, 5)
        with pytest.raises(ValueError):
            torus_graph(1, 5)
        with pytest.raises(ValueError):
            spider_graph(0)

    def test_make_family_and_parse(self):
        assert make_family(parse_family("grid:2,12")) == grid_graph(2, 12)
        assert make_family(parse_family("spider:8")) == spider_graph(8)
        assert make_family(FamilySpec("cycle", (5,))) == cycle_graph(5)
        with pytest.raises(ValueError):
            parse_family("blob:3")
        with pytest.raises(ValueError):
            parse_family("grid:")
        with pytest.raises(ValueError):
            parse_family("grid:a,b")
        with pytest.raises(ValueError):
            make_family(FamilySpec("grid", (3,)))


class TestComplement:
    def test_complete_becomes_edgeless(self):
        k5 = complete_multipartite_graph((1,) * 5)  # K_5
        assert complement(k5).num_edges == 0

    def test_c5_self_complementary(self):
        c5 = cycle_graph(5)
        cc = complement(c5)
        # Same degree sequence and connectivity; C_5 is the unique 2-regular
        # 5-vertex graph, so degree check plus edge count suffices.
        assert cc.num_edges == 5
        assert all(cc.degree(v) == 2 for v in range(5))
        assert is_connected(cc)

    def test_p4_self_complementary_explicit(self):
        p4 = path_graph(4)
        cc = complement(p4)
        # Complement edges of 0-1-2-3 enumerated directly: 02, 03, 13,
        # which is the path 2-0-3-1.
        assert sorted(cc.edges()) == [(0, 2), (0, 3), (1, 3)]

    @pytest.mark.parametrize("g", [path_graph(1), path_graph(6), cycle_graph(8), spider_graph(3)])
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestConnectivity:
    def test_examples(self):
        assert is_connected(path_graph(6))
        two_triangles = Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert not is_connected(two_triangles)
        assert not is_connected(Graph.from_edges(2, []))
        assert is_connected(Graph.from_edges(1, []))
        assert is_connected(Graph.from_edges(0, []))


class TestEdgeListFormat:
    def test_round_trip(self):
        for g in [path_graph(6), grid_graph(3, 4), spider_graph(5)]:
            assert parse_edge_list(to_edge_list(g)) == g

    def test_comments_and_whitespace(self):
        text = "# a path\n3 2\n0 1  # first\n\n1 2\n"
        assert parse_edge_list(text) == path_graph(3)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("3 1\n0 0\n", "line 2: self-loop"),
            ("3 2\n0 1\n1 0\n", "line 3: duplicate edge"),
            ("3 1\n0 5\n", "line 2: edge (0, 5) out of range"),
            ("3\n", "line 1: expected header"),
            ("3 2\n0 1\n", "declares 2 edges but 1"),
            ("x y\n", "line 1: header values must be integers"),
            ("", "missing header"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ValueError, match=None) as err:
            parse_edge_list(text)
        assert fragment in str(err.value)


def test_generated_families_satisfy_invariants():
    specs = [
        FamilySpec("path", (9,)),
        FamilySpec("cycle", (9,)),
        FamilySpec("multipartite", (2, 2, 3)),
        FamilySpec("grid", (3, 5)),
        FamilySpec("torus", (3, 5)),
        FamilySpec("spider", (4,)),
    ]
    for spec in specs:
        g = make_family(spec)
        g.validate()
        # symmetry double-check through the edge iterator
        for u, v in g.edges():
            assert g.has_edge(v, u)


def test_adjacency_matches_itertools_reference():
    # Cross-check grid adjacency against a coordinate-based reference.
    m, n = 3, 4
    g = grid_graph(m, n)
    coords = [(r, c) for r in range(m) for c in range(n)]
    for (i, a), (j, b) in itertools.combinations(enumerate(coords), 2):
        expected = abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
        assert g.has_edge(i, j) == expected
