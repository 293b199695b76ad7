"""Deterministic clique enumeration and subgraph-embedding search.

Everything here iterates candidates in vertex index order, so repeated
runs return identical results.
Candidate sets are vertex masks, intersected with a Graph's neighbour
masks; `allowed` is a mask too (`cliques_of_size` also takes None for every
vertex).  Every caller looks for copies through a given vertex, so
`embeddings` and `find_embedding` take that anchor as a required argument.
An *embedding* of a pattern H into G is a tuple `emb` of length v(H) with
`emb[i]` the image of pattern vertex i; pattern edges must map to graph
edges (copies are subgraphs, not necessarily induced).
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, Pattern, members, vertex_mask


def cliques_of_size(
    g: Graph,
    k: int,
    allowed: int | None = None,
    require: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield all k-cliques inside `allowed` as sorted tuples, lex order.

    If `require` is given, only cliques containing that vertex are produced
    (still lex-sorted including the required vertex).
    """
    if k <= 0:
        return
    pool = (1 << g.n) - 1 if allowed is None else allowed
    bits = g.bits
    if require is not None:
        if not pool >> require & 1:
            return
        yield from _extend_clique(bits, [require], pool & bits[require], k)
    else:
        while pool:  # v runs up through pool, which keeps the vertices above v
            low = pool & -pool
            pool ^= low
            v = low.bit_length() - 1
            yield from _extend_clique(bits, [v], pool & bits[v], k)


def _extend_clique(bits: Sequence[int], base: list[int], cands: int, k: int) -> Iterator[tuple[int, ...]]:
    """Cliques extending `base` by members of the mask `cands`, each taken
    lowest first; a branch stops once too few candidates remain."""
    need = k - len(base)
    if need == 0:
        yield tuple(sorted(base))
        return
    while cands.bit_count() >= need:
        low = cands & -cands
        cands ^= low
        v = low.bit_length() - 1
        base.append(v)
        if need == 1:
            yield tuple(sorted(base))
        else:
            yield from _extend_clique(bits, base, cands & bits[v], k)
        base.pop()


def pattern_order(p: Pattern) -> list[int]:
    """Search order for pattern vertices: high degree first, then greedily
    maximizing adjacency to already-placed vertices.  Deterministic."""
    h = p.h
    deg = [p.graph.degree(i) for i in range(h)]
    start = max(range(h), key=lambda i: (deg[i], -i))
    order = [start]
    placed = {start}
    while len(order) < h:
        best = None
        best_key = None
        for i in range(h):
            if i in placed:
                continue
            back = sum(1 for j in order if p.graph.has_edge(i, j))
            key = (back, deg[i], -i)
            if best_key is None or key > best_key:
                best, best_key = i, key
        order.append(best)
        placed.add(best)
    return order


def _back_edges(p: Pattern, order: Sequence[int]) -> list[list[int]]:
    """For each position d of `order`, the pattern neighbours of order[d]
    placed before it."""
    return [[q for q in order[:d] if p.graph.has_edge(pv, q)] for d, pv in enumerate(order)]


def _embed_backtrack(
    g: Graph,
    order: Sequence[int],
    back: Sequence[Sequence[int]],
    domains: Sequence[int],
    assigned: dict[int, int],
) -> Iterator[tuple[int, ...]]:
    """Yield embeddings extending `assigned` (pattern vertex -> graph vertex)
    with pattern vertex i in the mask domains[i].  Each vertex of `order` in
    turn tries its domain within the neighbourhoods of the images of its
    placed pattern neighbours `back` (see `_back_edges`), minus the used
    vertices, in increasing order."""
    return _extend_embedding(g.bits, order, back, domains, assigned,
                             len(assigned), vertex_mask(assigned.values()))


def _extend_embedding(bits: Sequence[int], order: Sequence[int], back: Sequence[Sequence[int]],
                      domains: Sequence[int], assigned: dict[int, int], depth: int,
                      used: int) -> Iterator[tuple[int, ...]]:
    """The search of `_embed_backtrack` from position `depth` of `order`,
    `used` masking the images assigned so far.  It takes its state as
    arguments, not from a closure, so it leaves no reference cycle."""
    h = len(order)
    if depth == h:
        yield tuple(assigned[i] for i in range(h))
        return
    pv = order[depth]
    cand = domains[pv] & ~used
    for q in back[depth]:
        cand &= bits[assigned[q]]
    for gv in members(cand):
        assigned[pv] = gv
        if depth + 1 == h:
            yield tuple(assigned[i] for i in range(h))
        else:
            yield from _extend_embedding(bits, order, back, domains, assigned,
                                         depth + 1, used | 1 << gv)
        del assigned[pv]


def embeddings(
    g: Graph,
    p: Pattern,
    allowed: int,
    anchor: int,
) -> Iterator[tuple[int, ...]]:
    """All embeddings of `p` into `g` within the mask `allowed` whose image
    contains the vertex `anchor`; the anchor is tried at every pattern
    position, in the order of `pattern_order`.  Beware that distinct
    embeddings may share an image set.
    """
    if not allowed >> anchor & 1:
        return
    domains = [allowed] * p.h
    order = pattern_order(p)
    for slot in order:
        new_order = [slot] + [q for q in order if q != slot]
        yield from _embed_backtrack(g, new_order, _back_edges(p, new_order), domains,
                                    {slot: anchor})


def find_embedding(
    g: Graph,
    p: Pattern,
    allowed: int,
    anchor: int,
) -> tuple[int, ...] | None:
    """First embedding through `anchor` within `allowed` in deterministic
    order, or None."""
    if p.is_clique:
        return next(cliques_of_size(g, p.h, allowed, require=anchor), None)
    return next(embeddings(g, p, allowed, anchor), None)


def _layers(g: Graph, v: int, within: int, radius: int) -> list[int]:
    """Masks of the vertices at distance 0, 1, ..., at most `radius` from v
    in g[within]; the list stops early at the last layer reached."""
    bits = g.bits
    layers = [1 << v]
    seen = layers[0]
    while len(layers) <= radius:
        reach = 0
        for u in members(layers[-1]):
            reach |= bits[u]
        nxt = reach & within & ~seen
        if not nxt:
            break
        layers.append(nxt)
        seen |= nxt
    return layers


def _distance(layers: list[int], u: int) -> float:
    """Distance of u from the source of `layers`, inf when no layer has u."""
    return next((d for d, layer in enumerate(layers) if layer >> u & 1), math.inf)


def copy_sets_through(
    g: Graph,
    p: Pattern,
    anchor: int,
    allowed: int,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield every distinct copy vertex-set through `anchor` inside `allowed`.

    Items are (sorted image tuple, embedding) in lex order of the image, and
    the embedding is the first one `embeddings(g, p, allowed, anchor)` finds
    on that image.  For clique patterns the image tuple doubles as the
    embedding.  General patterns are searched one group at a time, grouped
    by the smallest image vertex u other than the anchor, so a caller that
    stops early never pays for the later groups.  A copy maps a path of the
    pattern onto a walk in g[allowed], so pattern vertices at distance d
    land at most d apart: the search that puts the anchor and u on two
    pattern vertices runs only when u is that close to the anchor, and a
    connected pattern is looked for only within its diameter of the anchor.
    """
    if p.is_clique:
        for cl in cliques_of_size(g, p.h, allowed, require=anchor):
            yield cl, cl
        return
    if not allowed >> anchor & 1:
        return
    h = p.h
    full = (1 << h) - 1
    pattern_layers = [_layers(p.graph, a, full, h - 1) for a in range(h)]
    graph_layers = _layers(g, anchor, allowed, max(map(len, pattern_layers)) - 1)
    pool = allowed
    if sum(pattern_layers[0]) == full:  # connected; the layers are disjoint masks
        pool = sum(graph_layers)
    # one search per (anchor slot sa, u slot su), in the order of `embeddings`
    order = pattern_order(p)
    searches = []
    for sa, su in permutations(order, 2):
        rest = [q for q in order if q != sa]
        sub_order = [sa, su] + [q for q in rest if q != su]
        searches.append((order.index(sa), sa, su, _distance(pattern_layers[sa], su), rest,
                         sub_order, _back_edges(p, sub_order)))
    for u in members(pool & ~(1 << anchor)):
        domain = pool >> (u + 1) << (u + 1) | 1 << anchor | 1 << u
        domains = [domain] * h
        apart = _distance(graph_layers, u)
        # image -> (position in the order of `embeddings`, embedding), where
        # that order is by the anchor's slot, then by the other images
        first: dict[tuple[int, ...], tuple] = {}
        for slot, sa, su, span, rest, sub_order, back in searches:
            # at span 1 this also checks the edge between the two placed
            # images, which the backtracker never tests
            if span < apart:
                continue
            for emb in _embed_backtrack(g, sub_order, back, domains, {sa: anchor, su: u}):
                key = (slot, [emb[q] for q in rest])
                img = tuple(sorted(emb))
                if img not in first or key < first[img][0]:
                    first[img] = (key, emb)
        for img in sorted(first):
            yield img, first[img][1]


def traversing_copy_fixed(
    g: Graph,
    p: Pattern,
    parts: Sequence[Iterable[int]],
) -> tuple[int, ...] | None:
    """First embedding with pattern vertex i drawn from parts[i], or None;
    pattern vertices are placed in index order, each part's vertices tried
    in increasing order."""
    if len(parts) != p.h:
        raise ValueError("need exactly v(H) parts")
    domains = [vertex_mask(part) for part in parts]
    order = range(p.h)
    return next(_embed_backtrack(g, order, _back_edges(p, order), domains, {}), None)


def traversing_copy(
    g: Graph,
    p: Pattern,
    parts: Sequence[Iterable[int]],
) -> tuple[int, ...] | None:
    """Copy of `p` with one vertex in each part, any part-to-vertex assignment.

    Tries all assignments of pattern vertices to parts (for cliques the
    assignment is irrelevant and only one is tried).
    """
    h = p.h
    plist = [list(part) for part in parts]
    if p.is_clique:
        return traversing_copy_fixed(g, p, plist)
    for perm in permutations(range(h)):
        res = traversing_copy_fixed(g, p, [plist[perm[i]] for i in range(h)])
        if res is not None:
            return res
    return None
