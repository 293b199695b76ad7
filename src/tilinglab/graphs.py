"""Undirected simple graphs on vertices 0..n-1, with bitmask adjacency.

A vertex set is often passed as a *mask*: an int whose bit v is set iff v
is in the set.  Graphs are immutable after construction and therefore safe
to share across threads and worker processes.  The edge-list text format
read and written here is the single interchange format used by every tool
in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable


class GraphParseError(ValueError):
    """Malformed edge-list document; the message names the offending line."""


def vertex_mask(vertices: Iterable[int]) -> int:
    """The mask of a vertex collection; repeats count once."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def members(mask: int) -> list[int]:
    """The vertices of a mask in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """Immutable simple graph.  The neighbour masks, one int per vertex, are
    the one stored fact: degrees, the edge count and the edge list are read
    off them."""

    __slots__ = ("n", "_bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        bits = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n = n
        self._bits = tuple(bits)

    @classmethod
    def _from_bits(cls, bits: list[int]) -> "Graph":
        """Graph whose neighbour masks are `bits`, which must be symmetric
        and loop-free."""
        g = cls.__new__(cls)
        g.n = len(bits)
        g._bits = tuple(bits)
        return g

    @property
    def bits(self) -> tuple[int, ...]:
        """bits[v] is the neighbour mask of v."""
        return self._bits

    @property
    def m(self) -> int:
        return sum(b.bit_count() for b in self._bits) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in increasing order (deterministic iteration)."""
        return tuple(members(self._bits[v]))

    def degree(self, v: int) -> int:
        return self._bits[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._bits[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically sorted: u runs in
        vertex order, and each u's higher neighbours in increasing order."""
        return [(u, v) for u, b in enumerate(self._bits) for v in members(b >> (u + 1) << (u + 1))]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Pattern:
    """The fixed graph H to tile with.

    A complete graph is the clique pattern K_r: specialized clique search is
    used throughout.  Any other graph uses generic subgraph embedding.
    `is_clique` is read off the graph once, at construction.
    """

    graph: Graph
    is_clique: bool = field(init=False, compare=False)

    def __post_init__(self):
        n = self.graph.n
        if n < 2:
            raise ValueError("pattern needs at least 2 vertices")
        object.__setattr__(self, "is_clique", self.graph.m == n * (n - 1) // 2)

    @property
    def h(self) -> int:
        return self.graph.n

    @property
    def r(self) -> int | None:
        """Clique order r of K_r, or None for a pattern that is no clique."""
        return self.graph.n if self.is_clique else None

    @classmethod
    def clique(cls, r: int) -> "Pattern":
        if r < 2:
            raise ValueError("clique pattern needs r >= 2")
        return cls(complete_graph(r))

    def __repr__(self) -> str:
        if self.is_clique:
            return f"Pattern(K_{self.r})"
        return f"Pattern(h={self.h}, m={self.graph.m})"


@dataclass(frozen=True)
class Tiling:
    """Vertex-disjoint copies of a pattern; copies[i][j] is the image of
    pattern vertex j under the i-th copy."""

    pattern: Pattern
    copies: tuple[tuple[int, ...], ...]

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(v for c in self.copies for v in c)

    def __len__(self) -> int:
        return len(self.copies)


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: first line "n m", then m lines "u v", u < v.

    Duplicate edge lines collapse to a single edge.  Raises GraphParseError
    naming the 1-based line number for any malformed input.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphParseError("line 1: missing header 'n m'")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError("line 1: header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphParseError("line 1: header must contain two integers") from None
    if n < 0 or m < 0:
        raise GraphParseError("line 1: negative counts in header")

    edges: list[tuple[int, int]] = []
    seen = 0
    for idx, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        if seen >= m:
            raise GraphParseError(f"line {idx}: more than {m} edge lines")
        parts = raw.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {idx}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {idx}: expected two integers") from None
        if u == v:
            raise GraphParseError(f"line {idx}: self-loop {u} {v}")
        if not (0 <= u < v < n):
            raise GraphParseError(f"line {idx}: edge {u} {v} violates 0 <= u < v < n={n}")
        edges.append((u, v))
        seen += 1
    if seen < m:
        raise GraphParseError(f"line {len(lines)}: expected {m} edge lines, found {seen}")
    return Graph(n, edges)


def parse_pattern_spec(spec: str) -> Pattern:
    """Parse 'K<r>' into a clique pattern, or read an edge-list file path."""
    s = spec.strip()
    if s.upper().startswith("K") and s[1:].isdigit():
        return Pattern.clique(int(s[1:]))
    with open(s, "r", encoding="ascii") as fh:
        return Pattern(parse_graph(fh.read()))


def emit_graph(g: Graph) -> str:
    """Edge-list text for `g`: edges with u < v in lexicographic order."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on `vertices` plus the index map back to `g`.

    Returns (sub, order) where order[i] is the vertex of `g` that became
    index i of `sub`.  Vertices are taken in increasing order.
    """
    order = sorted(set(vertices))
    for v in order:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    chosen = vertex_mask(order)
    pos = {v: 1 << i for i, v in enumerate(order)}
    rows = []
    for v in order:
        row = 0
        for u in members(g._bits[v] & chosen):
            row |= pos[u]
        rows.append(row)
    return Graph._from_bits(rows), order


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))
