"""Immutable simple undirected graphs with bitset adjacency.

Vertices are the integers ``0 .. n-1``.  Adjacency is stored as one Python
integer bitmask per vertex, which keeps neighbourhood unions, coverage
counts and membership tests exact and fast at the instance sizes the
solvers target (a few hundred vertices).

The module also provides the graph families used throughout the package
(paths, cycles, complete multipartite graphs, grids, tori, spiders), the
graph complement, a connectivity test, and a plain-text edge-list format.

Canonical vertex numbering per family (fixed so that witness sets are
reproducible):

* path / cycle: vertices in order along the path or cycle;
* complete multipartite: part by part in the order given, then by index
  inside each part;
* grid / torus: row-major, vertex ``(r, c)`` gets index ``r * n + c``;
* spider: center ``0``, middle vertices ``1 .. legs``, leaf ``legs + i``
  attached to middle ``i``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator


class VertexSet:
    """An immutable set of vertex indices backed by an integer bitmask.

    ``n`` is the capacity (vertices must lie in ``0 .. n-1``); cardinality
    is the popcount of the mask, so membership and size are always exact.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, vertices: Iterable[int] = ()):
        if n < 0:
            raise ValueError("capacity must be nonnegative")
        mask = 0
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for capacity {n}")
            mask |= 1 << v
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "VertexSet":
        if mask < 0 or mask >> n:
            raise ValueError(f"mask has bits outside 0..{n - 1}")
        self = cls.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(max(self.n, other.n), self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(max(self.n, other.n), self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.n, self.mask & ~other.mask)

    def isdisjoint(self, other: "VertexSet") -> bool:
        return self.mask & other.mask == 0

    def to_list(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"VertexSet({list(self)}, n={self.n})"


class Graph:
    """Immutable simple undirected graph on vertices ``0 .. n-1``.

    ``adj[v]`` is the open neighbourhood of ``v`` as a bitmask and
    ``closed[v]`` the closed neighbourhood ``N[v] = N(v) | {v}``.  Both are
    plain integers; symmetry and absence of self-loops are enforced at
    construction, after which instances are safe to share between threads
    or processes.
    """

    __slots__ = ("n", "adj", "closed")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adj) != n:
            raise ValueError("adjacency length must equal vertex count")
        for v, a in enumerate(adj):
            if a >> n:
                raise ValueError(f"adjacency of vertex {v} has out-of-range bits")
            bit = 1 << v
            if a & bit:
                raise ValueError(f"self-loop at vertex {v}")
            # Symmetry by walking set bits: O(n + m), not one test per pair.
            while a:
                low = a & -a
                if not adj[low.bit_length() - 1] & bit:
                    raise ValueError(f"asymmetric adjacency at vertex {v}")
                a ^= low
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(
            self, "closed", tuple(a | (1 << v) for v, a in enumerate(adj))
        )

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list, rejecting self-loops, duplicate
        edges and out-of-range endpoints."""
        adj = [0] * n
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as ordered pairs ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            while m:
                low = m & -m
                yield u, u + 1 + low.bit_length() - 1
                m ^= low

    def neighbors(self, v: int) -> VertexSet:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return VertexSet.from_mask(self.n, self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and (self.adj[u] >> v) & 1 == 1

    def validate(self) -> None:
        """Check the structural invariants (symmetry, no self-loops, range),
        which the constructor enforces; raises ``ValueError`` if one fails."""
        Graph(self.n, self.adj)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def closed_neighborhood(g: Graph, v: int) -> VertexSet:
    """Return ``N[v]``, the vertex ``v`` together with all its neighbours."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    return VertexSet.from_mask(g.n, g.closed[v])


def complement(g: Graph) -> Graph:
    """Return the complement graph: ``uv`` is an edge iff it is not one in ``g``."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full & ~a) & ~(1 << v) for v, a in enumerate(g.adj)))


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component.

    Vacuously true for ``n <= 1``.
    """
    if g.n <= 1:
        return True
    visited = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= g.adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~visited
        visited |= frontier
    return visited == (1 << g.n) - 1


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------

FAMILIES = ("path", "cycle", "multipartite", "grid", "torus", "spider")


class FamilySpec(namedtuple("FamilySpec", "family params")):
    """A named graph family plus its integer parameters.

    ``params`` holds ``(n,)`` for paths and cycles, the part sizes for
    complete multipartite graphs, ``(m, n)`` for grids and tori, and
    ``(legs,)`` for spiders.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.family}:{','.join(str(p) for p in self.params)}"


def parse_family(text: str) -> FamilySpec:
    """Parse a family spec string such as ``grid:2,12`` or ``spider:8``."""
    name, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"family spec {text!r} must look like 'name:p1,p2,...'")
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILIES}")
    try:
        params = tuple(int(p) for p in rest.split(","))
    except ValueError:
        raise ValueError(f"family spec {text!r} has non-integer parameters") from None
    return FamilySpec(name, params)


def path_graph(n: int) -> Graph:
    """Path on ``n >= 1`` vertices, numbered along the path."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices, numbered around the cycle."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete_multipartite_graph(parts: Iterable[int]) -> Graph:
    """Complete multipartite graph with the given part sizes.

    Needs at least two parts, each of size >= 1.  Vertices are numbered
    part by part in the order given.
    """
    sizes = tuple(parts)
    if len(sizes) < 2:
        raise ValueError("complete multipartite graph needs at least 2 parts")
    if any(s < 1 for s in sizes):
        raise ValueError("every part must have size >= 1")
    n = sum(sizes)
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    full = (1 << n) - 1
    adj = []
    for i, s in enumerate(sizes):
        part_mask = ((1 << s) - 1) << offsets[i]
        others = full & ~part_mask
        adj.extend([others] * s)
    return Graph(n, tuple(adj))


def grid_graph(m: int, n: int) -> Graph:
    """The m-by-n grid (Cartesian product of two paths), row-major numbering.

    Requires ``1 <= m <= n``.
    """
    if not 1 <= m <= n:
        raise ValueError("grid needs 1 <= m <= n")

    def idx(r: int, c: int) -> int:
        return r * n + c

    edges = []
    for r in range(m):
        for c in range(n):
            if c + 1 < n:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < m:
                edges.append((idx(r, c), idx(r + 1, c)))
    return Graph.from_edges(m * n, edges)


def torus_graph(m: int, n: int) -> Graph:
    """The m-by-n torus (Cartesian product of two cycles), row-major numbering.

    Both dimensions must be at least 3: one- and two-vertex cycles are not
    simple graphs, so smaller values are rejected as degenerate.
    """
    if m < 3 or n < 3:
        raise ValueError(
            "torus needs m, n >= 3; cycle factors of length 1 or 2 are "
            "degenerate as simple graphs"
        )
    if m > n:
        raise ValueError("torus needs m <= n")

    def idx(r: int, c: int) -> int:
        return r * n + c

    edges = []
    for r in range(m):
        for c in range(n):
            edges.append((idx(r, c), idx(r, (c + 1) % n)))
            edges.append((idx(r, c), idx((r + 1) % m, c)))
    return Graph.from_edges(m * n, edges)


def spider_graph(legs: int) -> Graph:
    """Spider with ``legs`` legs of length two.

    Center 0 is adjacent to middles ``1 .. legs``; middle ``i`` is adjacent
    to leaf ``legs + i``.  Total ``2 * legs + 1`` vertices.
    """
    if legs < 1:
        raise ValueError("spider needs at least 1 leg")
    edges = []
    for i in range(1, legs + 1):
        edges.append((0, i))
        edges.append((i, legs + i))
    return Graph.from_edges(2 * legs + 1, edges)


def make_family(spec: FamilySpec) -> Graph:
    """Build the graph described by a :class:`FamilySpec`.

    Raises ``ValueError`` naming the violated constraint when the
    parameters are invalid for the family.
    """
    fam, params = spec.family, spec.params
    if fam == "path":
        _expect_params(spec, 1)
        return path_graph(params[0])
    if fam == "cycle":
        _expect_params(spec, 1)
        return cycle_graph(params[0])
    if fam == "multipartite":
        if len(params) < 2:
            raise ValueError(f"{spec}: complete multipartite graph needs >= 2 parts")
        return complete_multipartite_graph(params)
    if fam == "grid":
        _expect_params(spec, 2)
        return grid_graph(params[0], params[1])
    if fam == "torus":
        _expect_params(spec, 2)
        return torus_graph(params[0], params[1])
    if fam == "spider":
        _expect_params(spec, 1)
        return spider_graph(params[0])
    raise ValueError(f"unknown family {fam!r}")


def _expect_params(spec: FamilySpec, count: int) -> None:
    if len(spec.params) != count:
        raise ValueError(
            f"{spec.family} takes {count} parameter(s), got {len(spec.params)}"
        )


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------
#
# First non-comment line: "n m".  Then exactly m lines "u v" with 0-indexed
# endpoints.  Anything from '#' to end of line is a comment.


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format, with line-numbered error messages."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: expected header 'n m'")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise ValueError(f"line {lineno}: header values must be integers") from None
            if n < 0 or m < 0:
                raise ValueError(f"line {lineno}: header values must be nonnegative")
            header = (n, m)
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: edge endpoints must be integers") from None
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        edges.append((u, v))
    if header is None:
        raise ValueError("missing header line 'n m'")
    if len(edges) != header[1]:
        raise ValueError(
            f"header declares {header[1]} edges but {len(edges)} were given"
        )
    return Graph.from_edges(header[0], edges)


def to_edge_list(g: Graph) -> str:
    """Serialize a graph to the edge-list text format (edges sorted)."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges()))
    return "\n".join(lines) + "\n"
