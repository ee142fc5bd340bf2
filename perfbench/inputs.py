"""Inputs owned by the benchmark: graph families, seeded random graphs and
edge-list files.

Nothing here imports pardom.  Graphs are plain ``(n, edges)`` pairs that
reach pardom only through ``Graph.from_edges`` or an edge-list file, so a
change to pardom's own sampler or generators cannot change them.  Random
draws use :class:`random.Random` seeded with an integer; its ``random()``
stream is fixed across CPython versions.
"""

from __future__ import annotations

import random
import zlib

# (family spec, proportion) pairs of the exact-near1 workload.
NEAR1_FAMILY = (
    ("grid:5,5", "1/1"),
    ("grid:5,6", "1/1"),
    ("grid:4,8", "1/1"),
    ("torus:5,6", "1/1"),
    ("spider:10", "1/1"),
    ("grid:6,6", "9/10"),
    ("grid:5,7", "9/10"),
    ("grid:6,7", "5/6"),
    ("grid:7,7", "3/4"),
)
NEAR1_RANDOM = dict(count=3, n=28, prob=1 / 8, min_degree=2)
# Known defect kept visible: deep recursion on a long cycle at p = 1.
NEAR1_DEFECT = ("cycle:3300", "1/1")

AUDIT_PS = ("1/4", "1/3", "1/2", "2/3", "3/4", "1/1")
AUDIT_SUITE_SIZE = 24
AUDIT_SUITES = {"main": 20171705, "heldout": 3096}


def family_edges(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """Edges of a family graph in pardom's documented canonical numbering."""
    name, _, rest = spec.partition(":")
    params = [int(x) for x in rest.split(",")]
    if name == "path":
        (n,) = params
        return n, [(i, i + 1) for i in range(n - 1)]
    if name == "cycle":
        (n,) = params
        return n, [(i, (i + 1) % n) for i in range(n)]
    if name == "spider":
        (legs,) = params
        edges = []
        for i in range(1, legs + 1):
            edges += [(0, i), (i, legs + i)]
        return 2 * legs + 1, edges
    if name in ("grid", "torus"):
        m, n = params
        wrap = name == "torus"
        edges = set()
        for r in range(m):
            for c in range(n):
                for r2, c2 in ((r, c + 1), (r + 1, c)):
                    if wrap:
                        r2, c2 = r2 % m, c2 % n
                    elif r2 >= m or c2 >= n:
                        continue
                    u, v = r * n + c, r2 * n + c2
                    edges.add((min(u, v), max(u, v)))
        return m * n, sorted(edges)
    raise ValueError(f"no reference construction for {spec!r}")


def is_connected(n: int, edges) -> bool:
    if n == 0:
        return True
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def complement_edges(n: int, edges) -> list[tuple[int, int]]:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    return [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]


def gnp(rng: random.Random, n: int, prob: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]


def sparse_graph(rng: random.Random, n: int, prob: float, min_degree: int):
    """G(n, prob) conditioned on minimum degree, by rejection."""
    while True:
        edges = gnp(rng, n, prob)
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if min(deg) >= min_degree:
            return edges


def coconnected_graph(rng: random.Random, n: int, prob: float):
    """G(n, prob) conditioned on the graph and its complement being connected."""
    while True:
        edges = gnp(rng, n, prob)
        if is_connected(n, edges) and is_connected(n, complement_edges(n, edges)):
            return edges


def near1_random(seed: int) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """The seeded sparse graphs of exact-near1, solved at p = 1."""
    rng = random.Random(seed)
    cfg = NEAR1_RANDOM
    return [
        (f"sparse{i}:n={cfg['n']}", cfg["n"],
         sparse_graph(rng, cfg["n"], cfg["prob"], cfg["min_degree"]))
        for i in range(cfg["count"])
    ]


def audit_suite_graphs(suite: str) -> list[tuple[str, int, str, list[tuple[int, int]]]]:
    """The fixed audit-sweep suite: n = 14..24, edge probability alternating
    1/4 and 1/2, each graph and its complement connected."""
    rng = random.Random(AUDIT_SUITES[suite])
    graphs = []
    for i in range(AUDIT_SUITE_SIZE):
        n = 14 + (i // 2) % 11
        prob = "1/4" if i % 2 == 0 else "1/2"
        graphs.append((f"{suite}{i}:n={n},q={prob}", n, prob,
                       coconnected_graph(rng, n, 0.25 if prob == "1/4" else 0.5)))
    return graphs


def edge_list_text(n: int, edges) -> str:
    lines = [f"# benchmark input, {n} vertices", f"{n} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def edges_digest(n: int, edges) -> str:
    """Short stable digest of an edge set, to detect generator drift."""
    canon = ",".join(f"{u}-{v}" for u, v in sorted((min(u, v), max(u, v)) for u, v in edges))
    return f"{zlib.crc32(f'{n}:{canon}'.encode()):08x}"


_MASK64 = (1 << 64) - 1


def splitmix_coconnected(n: int, prob, seed: int):
    """The graph ``pardom audit --sample`` documents: one SplitMix64 draw per
    vertex pair in lexicographic order, edge kept when the draw is below
    floor(prob * 2^64), rounds repeated on one stream until the graph and
    its complement are connected.  Re-implemented here to check its output."""
    cut = (prob.numerator << 64) // prob.denominator
    state = seed & _MASK64
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                state = (state + 0x9E3779B97F4A7C15) & _MASK64
                z = state
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                if z ^ (z >> 31) < cut:
                    edges.append((u, v))
        if is_connected(n, edges) and is_connected(n, complement_edges(n, edges)):
            return edges
