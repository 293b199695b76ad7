"""Deterministic clique enumeration and subgraph-embedding search.

Everything here iterates candidates in a fixed order (vertex index, or an
explicitly supplied ranking), so repeated runs return identical results.
An *embedding* of a pattern H into G is a tuple `emb` of length v(H) with
`emb[i]` the image of pattern vertex i; pattern edges must map to graph
edges (copies are subgraphs, not necessarily induced).
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Iterable, Iterator, Sequence

from .graphs import Graph, Pattern


def cliques_of_size(
    g: Graph,
    k: int,
    allowed: frozenset[int] | None = None,
    require: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield all k-cliques inside `allowed` as sorted tuples, lex order.

    If `require` is given, only cliques containing that vertex are produced
    (still lex-sorted including the required vertex).
    """
    if k <= 0:
        return
    pool = frozenset(range(g.n)) if allowed is None else allowed
    if require is not None:
        if require not in pool:
            return
        base = [require]
        cands = sorted(pool & g.adj(require))
        yield from _extend_clique(g, base, cands, k)
    else:
        for v in sorted(pool):
            cands = sorted(u for u in pool & g.adj(v) if u > v)
            yield from _extend_clique(g, [v], cands, k)


def _extend_clique(g: Graph, base: list[int], cands: list[int], k: int) -> Iterator[tuple[int, ...]]:
    if len(base) == k:
        yield tuple(sorted(base))
        return
    need = k - len(base)
    for i, v in enumerate(cands):
        if len(cands) - i < need:
            return
        base.append(v)
        nxt = [u for u in cands[i + 1 :] if g.has_edge(u, v)]
        yield from _extend_clique(g, base, nxt, k)
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


def _embed_backtrack(
    g: Graph,
    p: Pattern,
    order: Sequence[int],
    domains: Sequence[frozenset[int]],
    assigned: dict[int, int],
    rank: Callable[[int], int] | None,
) -> Iterator[tuple[int, ...]]:
    """Yield embeddings extending `assigned` (pattern vertex -> graph vertex)
    with pattern vertex i in domains[i].  Each vertex of `order` in turn tries
    its domain within the neighbourhoods of its placed pattern neighbours'
    images, minus the used vertices, in increasing order (or by `rank`)."""
    depth = len(assigned)
    if depth == len(order):
        yield tuple(assigned[i] for i in range(p.h))
        return
    pv = order[depth]
    used = set(assigned.values())
    back = [q for q in order[:depth] if p.graph.has_edge(pv, q)]
    if back:
        cand = set(g.adj(assigned[back[0]]))
        for q in back[1:]:
            cand &= g.adj(assigned[q])
        cand &= domains[pv]
    else:
        cand = set(domains[pv])
    cand -= used
    ordered = sorted(cand) if rank is None else sorted(cand, key=rank)
    for gv in ordered:
        assigned[pv] = gv
        yield from _embed_backtrack(g, p, order, domains, assigned, rank)
        del assigned[pv]


def embeddings(
    g: Graph,
    p: Pattern,
    allowed: Iterable[int] | None = None,
    anchor: int | None = None,
    rank: Callable[[int], int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """All embeddings of `p` into `g` within `allowed`.

    With `anchor`, only embeddings whose image contains the anchor vertex are
    produced (the anchor is tried at every pattern position).  Beware that
    distinct embeddings may share an image set.
    """
    pool = frozenset(range(g.n)) if allowed is None else frozenset(allowed)
    domains = [pool] * p.h
    order = pattern_order(p)
    if anchor is None:
        yield from _embed_backtrack(g, p, order, domains, {}, rank)
        return
    if anchor not in pool:
        return
    for slot in order:
        new_order = [slot] + [q for q in order if q != slot]
        yield from _embed_backtrack(g, p, new_order, domains, {slot: anchor}, rank)


def find_embedding(
    g: Graph,
    p: Pattern,
    allowed: Iterable[int] | None = None,
    anchor: int | None = None,
    rank: Callable[[int], int] | None = None,
) -> tuple[int, ...] | None:
    """First embedding in deterministic order, or None."""
    pool = frozenset(range(g.n)) if allowed is None else frozenset(allowed)
    if p.is_clique:
        return next(cliques_of_size(g, p.h, pool, require=anchor), None)
    return next(embeddings(g, p, pool, anchor=anchor, rank=rank), None)


def copy_sets_through(
    g: Graph,
    p: Pattern,
    anchor: int,
    allowed: frozenset[int],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield every distinct copy vertex-set through `anchor` inside `allowed`.

    Items are (sorted image tuple, embedding) in lex order of the image, and
    the embedding is the first one `embeddings(g, p, allowed, anchor)` finds
    on that image.  For clique patterns the image tuple doubles as the
    embedding.  General patterns are searched one group at a time, grouped
    by the smallest image vertex other than the anchor, so a caller that
    stops early never pays for the later groups.
    """
    if p.is_clique:
        for cl in cliques_of_size(g, p.h, allowed, require=anchor):
            yield cl, cl
        return
    if anchor not in allowed:
        return
    order = pattern_order(p)
    for u in sorted(allowed - {anchor}):
        pool = frozenset(v for v in allowed if v > u) | {anchor, u}
        domains = [pool] * p.h
        # image -> (position in the order of `embeddings`, embedding), where
        # that order is by the anchor's slot, then by the other images
        first: dict[tuple[int, ...], tuple] = {}
        for sa, su in permutations(order, 2):
            if p.graph.has_edge(sa, su) and not g.has_edge(anchor, u):
                continue
            rest = [q for q in order if q != sa]
            sub_order = [sa, su] + [q for q in rest if q != su]
            for emb in _embed_backtrack(g, p, sub_order, domains, {sa: anchor, su: u}, None):
                key = (order.index(sa), [emb[q] for q in rest])
                img = tuple(sorted(emb))
                if img not in first or key < first[img][0]:
                    first[img] = (key, emb)
        for img in sorted(first):
            yield img, first[img][1]


def embed_in_set(g: Graph, p: Pattern, vertices: Iterable[int]) -> tuple[int, ...] | None:
    """Embedding of `p` using exactly the given |V(p)| vertices, or None."""
    vs = frozenset(vertices)
    if len(vs) != p.h:
        return None
    return find_embedding(g, p, vs)


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
    domains = [frozenset(part) for part in parts]
    return next(_embed_backtrack(g, p, range(p.h), domains, {}, None), None)


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
