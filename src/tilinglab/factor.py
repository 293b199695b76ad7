"""Exact tiling oracle: decide H-factor existence, build maximal tilings.

find_factor_exact is the ground truth everything else is checked against.
It is an exact-cover search: branch on the lowest-index uncovered vertex,
trying the copies through it inside the uncovered set in the lex order the
lazy `embed.copy_sets_through` yields them.  Budgets are counted in
search-tree nodes, never wall time.  Traversing copies are found by `embed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .embed import copy_sets_through, find_embedding
from .graphs import Graph, Pattern, vertex_mask
from .rng import rng_for

DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class Tiling:
    """Vertex-disjoint copies of a pattern; copies[i][j] is the image of
    pattern vertex j under the i-th copy."""

    pattern: Pattern
    copies: tuple[tuple[int, ...], ...]

    @property
    def covered(self) -> frozenset[int]:
        out: set[int] = set()
        for c in self.copies:
            out.update(c)
        return frozenset(out)

    def merged_with(self, other: "Tiling") -> "Tiling":
        if other.pattern.graph != self.pattern.graph:
            raise ValueError("cannot merge tilings of different patterns")
        return Tiling(pattern=self.pattern, copies=self.copies + other.copies)

    def __len__(self) -> int:
        return len(self.copies)


@dataclass(frozen=True)
class FactorResult:
    """Outcome of the exact search: 'factor', 'none', or 'budget'."""

    status: str
    tiling: Tiling | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "factor"


def find_factor_exact(g: Graph, p: Pattern, budget: int = DEFAULT_BUDGET) -> FactorResult:
    """Decide whether g has a perfect tiling by p, exactly.

    Returns a Tiling when one exists, status 'none' when provably none
    exists, and 'budget' when the node budget ran out first.  If v(H) does
    not divide n the answer is immediately 'none'.
    """
    h = p.h
    if g.n % h != 0:
        return FactorResult(status="none", tiling=None, nodes=0)
    if g.n == 0:
        return FactorResult(status="factor", tiling=Tiling(p, ()), nodes=0)

    nodes = 0
    budget_hit = False

    def rec(uncovered: int) -> list[tuple[int, ...]] | None:
        nonlocal nodes, budget_hit
        if not uncovered:
            return []
        nodes += 1
        if nodes > budget:
            budget_hit = True
            return None
        v = (uncovered & -uncovered).bit_length() - 1
        for _img, emb in copy_sets_through(g, p, v, uncovered):
            rest = rec(uncovered & ~vertex_mask(emb))
            if budget_hit:
                return None
            if rest is not None:
                return [emb] + rest
        return None

    got = rec((1 << g.n) - 1)
    del rec  # rec refers to itself; dropping the name frees it without the gc
    if budget_hit:
        return FactorResult(status="budget", tiling=None, nodes=nodes)
    if got is None:
        return FactorResult(status="none", tiling=None, nodes=nodes)
    return FactorResult(status="factor", tiling=Tiling(p, tuple(got)), nodes=nodes)


def greedy_max_tiling(
    g: Graph,
    p: Pattern,
    forbidden: Iterable[int] = (),
    seed: int = 0,
) -> Tiling:
    """Maximal tiling avoiding `forbidden`, grown in a seeded vertex order.

    Vertices are visited in a seeded random permutation; for each still
    available vertex the first copy through it (candidates ranked by the
    same permutation) is taken.  A vertex with no copy at its turn can never
    gain one later, so the leftover set contains no copy of the pattern.
    """
    banned = frozenset(forbidden)
    order = list(range(g.n))
    rng_for(seed, "greedy").shuffle(order)
    rank = {v: i for i, v in enumerate(order)}

    available = vertex_mask(v for v in range(g.n) if v not in banned)
    copies: list[tuple[int, ...]] = []
    for v in order:
        if not available >> v & 1:
            continue
        emb = find_embedding(g, p, allowed=available, anchor=v,
                             rank=None if p.is_clique else rank.__getitem__)
        if emb is None:
            continue
        copies.append(emb)
        available &= ~vertex_mask(emb)
    return Tiling(pattern=p, copies=tuple(copies))


def leftover_of(g: Graph, tiling: Tiling, forbidden: Iterable[int] = ()) -> list[int]:
    """Vertices not covered by the tiling and not forbidden."""
    out = set(range(g.n)) - tiling.covered - set(forbidden)
    return sorted(out)
