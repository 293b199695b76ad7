"""Independent oracles the solvers are checked against, and test helpers.

The oracles share no search code with the package: the factor oracle
enumerates vertex partitions outright, the clique-free oracle scans vertex
subsets by decreasing size, and the copy checks are plain permutation
scans.  The one import from the search code they need is `pattern_order`,
which defines which of a copy's embeddings the copy enumerator reports.
The two disjoint-copy searches are separate backtracking routines written
for each of absorb()'s two uses, the two embedding references keep the
embedder's former hand-written searches, the G(n, p) reference keeps the
generator's former pair loop, and the induced-subgraph reference keeps the
former scan of every edge.  The clique, traversing-copy and embedding
brute forces filter combinations and permutations against a plain edge set,
so they check the bitset kernels without reading a Graph.  The helpers at
the end wrap package code for tests that only need a yes/no answer or a
layout.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterable, Sequence

from tilinglab.embed import cliques_of_size, pattern_order
from tilinglab.generators import decompose_r
from tilinglab.graphs import Graph, Pattern
from tilinglab.matching import max_bipartite_matching
from tilinglab.rng import rng_for

# the patterns the property tests draw from
SMALL_PATTERNS = {
    "K3": Pattern.clique(3),
    "P3": Pattern(Graph(3, [(0, 1), (1, 2)])),
    "C4": Pattern(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
}


def set_hosts_copy(g: Graph, p: Pattern, block: tuple[int, ...]) -> bool:
    """Does the block (|block| = h) host a copy of the pattern?  Checked by
    trying every bijection pattern -> block."""
    h = p.h
    pedges = p.graph.edges()
    for perm in permutations(block):
        if all(g.has_edge(perm[a], perm[b]) for a, b in pedges):
            return True
    return False


def copies_into_buffer_count(g: Graph, p: Pattern, buffer: Iterable[int], v: int) -> int:
    """How many copies run through v with every other vertex in the buffer:
    the (h-1)-subsets of the buffer without v that host a copy together
    with v, each checked by `set_hosts_copy`."""
    mates = sorted(set(buffer) - {v})
    return sum(set_hosts_copy(g, p, (v,) + rest) for rest in combinations(mates, p.h - 1))


def copy_sets_through_bruteforce(
    g: Graph, p: Pattern, anchor: int, allowed: frozenset[int]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every h-subset of `allowed` through the anchor that hosts a copy, in
    lex order, with its first embedding: the anchor takes the earliest slot
    of `pattern_order` that works, and the other pattern vertices, in that
    order, take the lex-smallest arrangement of the remaining vertices.  For
    a clique pattern the sorted subset itself is the embedding."""
    if anchor not in allowed:
        return []
    order = pattern_order(p)
    pedges = p.graph.edges()
    others = sorted(allowed - {anchor})
    out = []
    for mates in combinations(others, p.h - 1):
        emb = None
        for slot in order:
            rest = [q for q in order if q != slot]
            for perm in permutations(mates):
                cand = [0] * p.h
                cand[slot] = anchor
                for q, v in zip(rest, perm):
                    cand[q] = v
                if all(g.has_edge(cand[a], cand[b]) for a, b in pedges):
                    emb = tuple(cand)
                    break
            if emb is not None:
                break
        if emb is not None:
            img = tuple(sorted(mates + (anchor,)))
            out.append((img, img if p.is_clique else emb))
    return sorted(out)


def factor_exists_bruteforce(g: Graph, p: Pattern) -> bool:
    """Enumerate all partitions of the vertex set into h-blocks."""
    h = p.h
    if g.n % h != 0:
        return False

    def rec(remaining: tuple[int, ...]) -> bool:
        if not remaining:
            return True
        v = remaining[0]
        rest = remaining[1:]
        for mates in combinations(rest, h - 1):
            block = (v,) + mates
            if set_hosts_copy(g, p, block):
                left = tuple(u for u in rest if u not in mates)
                if rec(left):
                    return True
        return False

    return rec(tuple(range(g.n)))


def alpha_exhaustive(g: Graph, ell: int) -> int:
    """Largest clique-free subset by scanning subsets in decreasing size."""
    n = g.n
    cliques = [frozenset(c) for c in combinations(range(n), ell)
               if all(g.has_edge(u, v) for u, v in combinations(c, 2))]
    for size in range(n, 0, -1):
        for sub in combinations(range(n), size):
            ss = frozenset(sub)
            if not any(c <= ss for c in cliques):
                return size
    return 0


def max_density_subgraphs(p: Pattern):
    """max e(H')/(v(H')-1) over all vertex subsets, as an exact fraction."""
    from fractions import Fraction

    g = p.graph
    best = Fraction(0)
    for k in range(2, g.n + 1):
        for sub in combinations(range(g.n), k):
            ss = set(sub)
            e = sum(1 for u, v in g.edges() if u in ss and v in ss)
            if Fraction(e, k - 1) > best:
                best = Fraction(e, k - 1)
    return best


# Reference searches for absorption._disjoint_copies, one per way absorb() uses
# it: a copy into the buffer for every remainder vertex, and copies covering
# the buffer surplus until exactly m vertices remain.  Both choose among the
# copy families that `copy_families_reference` builds by brute force.


def copy_families_reference(
    g: Graph, p: Pattern, anchors: Iterable[int], pool: Iterable[int]
) -> tuple[dict[int, tuple[tuple[int, ...], ...]], dict[tuple, tuple[int, ...]]]:
    """(families, embedding): for every anchor v, the lex-ordered vertex sets
    of the copies through v with every other vertex in the pool, v taken
    out, and for each (v, member) the embedding `copy_sets_through_bruteforce`
    reports on that copy."""
    families: dict[int, tuple[tuple[int, ...], ...]] = {}
    embedding: dict[tuple, tuple[int, ...]] = {}
    for v in anchors:
        members = []
        for img, emb in copy_sets_through_bruteforce(g, p, v, frozenset(pool) | {v}):
            member = tuple(u for u in img if u != v)
            members.append(member)
            embedding[v, member] = emb
        families[v] = tuple(members)
    return families, embedding


def _choose_disjoint_members(
    order: list[int],
    families: dict[int, tuple[tuple[int, ...], ...]],
    allowed: frozenset[int],
) -> dict[int, tuple[int, ...]] | None:
    """Backtracking choice of pairwise-disjoint family members inside allowed."""
    chosen: dict[int, tuple[int, ...]] = {}
    used: set[int] = set()

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for member in families.get(v, ()):
            ms = set(member)
            if ms <= allowed and not (ms & used):
                chosen[v] = member
                used.update(ms)
                if rec(i + 1):
                    return True
                used.difference_update(ms)
                del chosen[v]
        return False

    return chosen if rec(0) else None


def _cover_buffer(
    remaining: list[int],
    families: dict[int, tuple[tuple[int, ...], ...]],
    need_copies: int,
    m: int,
) -> list[tuple[int, tuple[int, ...]]] | None:
    """Choose `need_copies` disjoint copies inside `remaining`, each one
    anchor vertex plus a family member, leaving exactly m vertices."""
    result: list[tuple[int, tuple[int, ...]]] = []

    def rec(avail: list[int], todo: int, spare: int) -> bool:
        if todo == 0:
            return True
        if not avail:
            return False
        v = avail[0]
        rest = avail[1:]
        live = frozenset(rest)
        for member in families.get(v, ()):
            ms = set(member)
            if ms <= live:
                result.append((v, member))
                if rec([u for u in rest if u not in ms], todo - 1, spare):
                    return True
                result.pop()
        if spare > 0:
            return rec(rest, todo, spare - 1)
        return False

    return result if rec(list(remaining), need_copies, m) else None


# Reference for embed.traversing_copy_fixed: the search it replaced, which
# must keep returning the same embedding.


def traversing_copy_fixed_reference(
    g: Graph,
    p: Pattern,
    parts: Sequence[Iterable[int]],
) -> tuple[int, ...] | None:
    """Embedding with pattern vertex i drawn from parts[i], or None.

    Backtracks over pattern vertices in index order; candidates within each
    part are tried in increasing order.
    """
    h = p.h
    if len(parts) != h:
        raise ValueError("need exactly v(H) parts")
    psets = [sorted(set(part)) for part in parts]

    assigned: list[int] = []

    def rec(i: int) -> tuple[int, ...] | None:
        if i == h:
            return tuple(assigned)
        for gv in psets[i]:
            if gv in assigned:
                continue
            ok = all(
                g.has_edge(gv, assigned[j])
                for j in range(i)
                if p.graph.has_edge(i, j)
            )
            if ok:
                assigned.append(gv)
                res = rec(i + 1)
                if res is not None:
                    return res
                assigned.pop()
        return None

    return rec(0)


# Reference for generators.gen_gnp: the loop it replaced, which must keep
# drawing the same pairs in the same order.


def gen_gnp_reference(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph: each pair independently an edge with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0:
        return Graph(n)
    if p == 1.0:
        return Graph(n, combinations(range(n), 2))
    rng = rng_for(seed, "gnp", n)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


# Reference for graphs.induced_subgraph: the sort-and-filter version it
# replaced, which scanned every edge of `g`.


def induced_subgraph_reference(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on `vertices` plus the index map back to `g`.

    Returns (sub, order) where order[i] is the vertex of `g` that became
    index i of `sub`.  Vertices are taken in increasing order.
    """
    order = sorted(set(vertices))
    for v in order:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    pos = {v: i for i, v in enumerate(order)}
    edges = [
        (pos[u], pos[v])
        for u, v in g.edges()
        if u in pos and v in pos
    ]
    return Graph(len(order), edges), order


# Brute-force references for the bitset kernels of embed: filters over
# itertools.combinations and permutations that read only the edge set they
# are given, never the host Graph.


def cliques_bruteforce(
    n: int, edges: set[tuple[int, int]], k: int,
    allowed: Iterable[int] | None = None, require: int | None = None,
) -> list[tuple[int, ...]]:
    """The k-cliques inside `allowed` (through `require`), sorted tuples in
    lex order; `edges` holds each edge as (u, v) with u < v."""
    pool = range(n) if allowed is None else sorted(set(allowed))
    return [c for c in combinations(pool, k)
            if (require is None or require in c) and all(e in edges for e in combinations(c, 2))]


def _preserves(emb: Sequence[int], pedges: list[tuple[int, int]], edges: set[tuple[int, int]]) -> bool:
    return all((min(emb[a], emb[b]), max(emb[a], emb[b])) in edges for a, b in pedges)


def traversing_copy_bruteforce(
    n: int, edges: set[tuple[int, int]], p: Pattern, parts: Sequence[Iterable[int]],
) -> tuple[int, ...] | None:
    """The lex-first injective tuple with entry i in parts[i] that maps
    every pattern edge onto an edge, or None."""
    pedges = p.graph.edges()
    psets = [set(part) for part in parts]
    for emb in permutations(range(n), p.h):
        if all(v in ps for v, ps in zip(emb, psets)) and _preserves(emb, pedges, edges):
            return emb
    return None


def traversing_families_bruteforce(
    n: int, edges: set[tuple[int, int]], p: Pattern, s: int,
) -> dict[tuple[tuple[int, ...], ...], bool]:
    """Every family of h pairwise-disjoint s-subsets of range(n), a sorted
    tuple of sorted tuples, mapped to whether it spans a traversing copy:
    some pick of one vertex per subset and some ordering of the picks map
    every pattern edge onto an edge."""
    pedges = p.graph.edges()
    out = {}
    for fam in combinations(combinations(range(n), s), p.h):
        if len({v for part in fam for v in part}) < p.h * s:
            continue
        out[fam] = any(_preserves(emb, pedges, edges)
                       for pick in product(*fam) for emb in permutations(pick))
    return out


def embeddings_bruteforce(
    n: int, edges: set[tuple[int, int]], p: Pattern,
    allowed: Iterable[int] | None = None, anchor: int | None = None,
) -> list[tuple[int, ...]]:
    """Every embedding inside `allowed` in the order of `embed.embeddings`:
    with an anchor, by the anchor's slot in `pattern_order`; then by the
    images of the pattern vertices in search order, compared by vertex
    index."""
    pool = sorted(set(range(n) if allowed is None else allowed))
    order = pattern_order(p)
    pedges = p.graph.edges()
    if anchor is None:
        searches = [order]
    else:
        searches = [[slot] + [q for q in order if q != slot] for slot in order]
    out = []
    for search in searches:
        for images in permutations(pool, p.h):
            if anchor is not None and images[0] != anchor:
                continue
            emb = [0] * p.h
            for q, v in zip(search, images):
                emb[q] = v
            if _preserves(emb, pedges, edges):
                out.append(tuple(emb))
    return out


# Test helpers over package code.


def has_clique(g: Graph, k: int, allowed: int | None = None) -> bool:
    for _ in cliques_of_size(g, k, allowed):
        return True
    return False


def has_perfect_matching(n_left: int, n_right: int, adj: list[list[int]]) -> bool:
    """True iff a matching saturates both sides (requires n_left == n_right)."""
    if n_left != n_right:
        return False
    size, _, _ = max_bipartite_matching(n_left, n_right, adj)
    return size == n_left


def multipartite_parts(sizes: list[int]) -> list[list[int]]:
    """Vertex lists of each part, matching gen_complete_multipartite's layout."""
    parts = []
    start = 0
    for s in sizes:
        parts.append(list(range(start, start + s)))
        start += s
    return parts


def lower_bound_parts(r: int, ell: int, n: int) -> list[list[int]]:
    """Part vertex lists of gen_lower_bound_construction's layout."""
    x, y = decompose_r(r, ell)
    unit = n // r
    sizes = [y * unit - 1, ell * unit + 1] + [ell * unit] * (x - 1)
    return multipartite_parts(sizes)
