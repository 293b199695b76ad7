"""Exact tiling oracle: decide H-factor existence, build maximal tilings.

`exact_cover` is the one exact-cover search: it branches on the lowest
anchor still to cover, trying the copies through it in the lex order of
the lazy `embed.copy_sets_through` inside the live vertices.
find_factor_exact, the ground truth everything else is checked against,
runs it on the vertices of g (or of a mask `within`), and
`absorption._disjoint_copies` on the pipeline's almost-cover of V - A and
the copies into the buffer.  A node is one anchor reached while copies are
still needed; budgets count nodes, never wall time, and a search past its
budget says so.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .embed import copy_sets_through, find_embedding
from .graphs import Graph, Pattern, Tiling, vertex_mask

DEFAULT_BUDGET = 2_000_000


class FactorResult(NamedTuple):
    """Outcome of the exact search: 'factor', 'none', or 'budget'."""

    status: str
    tiling: Tiling | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "factor"


def exact_cover(g: Graph, p: Pattern, anchors: int, live: int, need: int, spare: int,
                budget: int) -> tuple[list | None, int, bool]:
    """Choose `need` pairwise-disjoint copies of p in g by backtracking.

    The lowest vertex v of the mask `anchors` is reached first, and its
    candidates are the copies through v in `live` plus v, in the order of
    `copy_sets_through`.  Taking a copy removes its vertices from both
    masks; in all, `spare` reached anchors may be passed over, and such an
    anchor leaves `live`.  Returns (the embeddings in the order taken, or
    None, nodes, budget_hit); the search stops once it passes `budget` nodes.

    The search runs on an explicit stack in the depth-first order above.
    Taking a copy pushes the taking node's state, its lazy candidates and
    the copy, and backtracking pops them; a node out of candidates with
    `spare` left is passed over in place.
    """
    nodes = 0
    stack: list[tuple] = []  # (anchors, live, need, spare, low, candidates, copy)
    while True:
        if not need:
            return [frame[-1] for frame in stack], nodes, False
        if anchors:
            nodes += 1
            if nodes > budget:
                return None, nodes, True
            low = anchors & -anchors
            anchors ^= low
            candidates = copy_sets_through(g, p, low.bit_length() - 1, live | low)
        else:  # no anchor left to reach: nothing to take or pass over
            candidates, spare = iter(()), 0
        while True:
            got = next(candidates, None)
            if got is not None:
                img, emb = got
                cut = 0
                for u in img:  # vertex_mask, inlined: this runs once per candidate
                    cut |= 1 << u
                stack.append((anchors, live, need, spare, low, candidates, emb))
                anchors, live, need = anchors & ~cut, live & ~cut, need - 1
                break
            if spare:
                live, spare = live & ~low, spare - 1
                break
            if not stack:
                return None, nodes, False
            anchors, live, need, spare, low, candidates, _ = stack.pop()


def find_factor_exact(g: Graph, p: Pattern, budget: int = DEFAULT_BUDGET,
                      within: int | None = None) -> FactorResult:
    """Decide whether g, or g induced on the vertex mask `within`, has a
    perfect tiling by p, exactly.

    Returns a Tiling when one exists, status 'none' when provably none
    exists, and 'budget' when the node budget ran out first.  If v(H) does
    not divide the vertex count the answer is immediately 'none'.
    """
    full = (1 << g.n) - 1
    within = full if within is None else within
    if within & ~full:
        raise ValueError("within names a vertex outside the graph")
    size = within.bit_count()
    if size % p.h != 0:
        return FactorResult(status="none", tiling=None, nodes=0)
    got, nodes, budget_hit = exact_cover(g, p, within, within, size // p.h, 0, budget)
    if budget_hit:
        return FactorResult(status="budget", tiling=None, nodes=nodes)
    if got is None:
        return FactorResult(status="none", tiling=None, nodes=nodes)
    return FactorResult(status="factor", tiling=Tiling(p, tuple(got)), nodes=nodes)


def greedy_max_tiling(g: Graph, p: Pattern, forbidden: Iterable[int] = ()) -> Tiling:
    """Maximal tiling avoiding `forbidden`, grown in vertex index order.

    For each still available vertex, lowest first, the first copy through
    it (`find_embedding`'s order) is taken.  A vertex with no copy at its
    turn can never gain one later, so the leftover set contains no copy of
    the pattern.
    """
    banned = frozenset(forbidden)
    available = vertex_mask(v for v in range(g.n) if v not in banned)
    copies: list[tuple[int, ...]] = []
    for v in range(g.n):
        if not available >> v & 1:
            continue
        emb = find_embedding(g, p, allowed=available, anchor=v)
        if emb is None:
            continue
        copies.append(emb)
        available &= ~vertex_mask(emb)
    return Tiling(pattern=p, copies=tuple(copies))
