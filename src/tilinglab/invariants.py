"""Graph parameters: minimum degree, clique structure, clique-free subgraph
numbers, traversing-copy thresholds, and the density exponent of a pattern.

alpha_ell(G) is the size of a largest induced subgraph without a clique on
ell vertices (ell = 2 gives the independence number).  The traversing
threshold of (G, H) is the smallest s such that every family of v(H)
pairwise-disjoint s-subsets of V(G) induces a copy of H with one vertex in
each subset; `traversing_check` examines at most `trials` families: all of
them when they number no more, `trials` distinct random ones otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterator, NamedTuple

from .embed import cliques_of_size, traversing_copy
from .graphs import Graph, Pattern, members
from .rng import rng_for


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("minimum degree of the empty graph is undefined")
    return min(g.degree(v) for v in range(g.n))


class SearchResult(NamedTuple):
    """Result of a budgeted branch and bound: the best value found, a
    witness vertex set of that size, whether the search ran to the end,
    and the nodes it visited."""

    value: int
    witness: tuple[int, ...]
    exact: bool
    nodes: int


# search-node budget of max_clique, and of each alpha_ell in param_report
PARAM_BUDGET = 200_000


def max_clique(g: Graph) -> SearchResult:
    """Clique number by branch and bound with a greedy colouring bound.

    A node is one call of the search; past PARAM_BUDGET nodes it stops and
    returns the largest clique found so far with exact=False, a lower bound.
    """
    if g.n == 0:
        return SearchResult(value=0, witness=(), exact=True, nodes=0)
    bits = g.bits
    best: tuple[int, ...] = (0,)
    nodes = 0
    exhausted = False

    def color_bound(cands: int) -> int:
        # greedy coloring of the induced subgraph; chromatic number bounds clique
        colors: list[int] = []
        for v in members(cands):
            for i, cls in enumerate(colors):
                if not bits[v] & cls:
                    colors[i] = cls | 1 << v
                    break
            else:
                colors.append(1 << v)
        return len(colors)

    def expand(base: list[int], cands: int) -> None:
        nonlocal best, nodes, exhausted
        nodes += 1
        if nodes > PARAM_BUDGET:
            exhausted = True
            return
        if not cands:
            if len(base) > len(best):
                best = tuple(base)
            return
        if len(base) + color_bound(cands) <= len(best):
            return
        while cands and not exhausted:
            if len(base) + cands.bit_count() <= len(best):
                return
            low = cands & -cands
            cands ^= low
            base.append(low.bit_length() - 1)
            expand(base, cands & bits[base[-1]])
            base.pop()

    expand([], (1 << g.n) - 1)
    del expand  # expand refers to itself; dropping the name frees it without the gc
    return SearchResult(value=len(best), witness=best, exact=not exhausted, nodes=nodes)


def alpha_ell(g: Graph, ell: int, budget: int = 1_000_000) -> SearchResult:
    """Largest induced K_ell-free subgraph, by branch and bound.

    Branches on a clique copy in the current candidate set: one branch per
    deletable member (earlier members are then pinned as kept).  The
    branching vertex order inside a copy is by degree in the current
    subgraph, largest first, ties broken by smallest index.  The search runs
    on an explicit stack in that depth-first order, so its depth is not
    bounded by Python's recursion limit.  If the node budget runs out the
    best set found so far is returned with exact=False.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    n = g.n
    bits = g.bits
    # greedy warm start: gives a sane answer under budget exhaustion and a
    # nontrivial bound from the first node on
    best_mask = 0
    for v in range(n):
        if next(cliques_of_size(g, ell, best_mask | 1 << v, require=v), None) is None:
            best_mask |= 1 << v
    best = members(best_mask)
    nodes = 0
    stack = [((1 << n) - 1, 0)]  # (current, kept), the next node on top
    while stack:
        current, kept = stack.pop()
        nodes += 1
        if nodes > budget:
            break
        if current.bit_count() <= len(best):
            continue
        copy = next(cliques_of_size(g, ell, current), None)
        if copy is None:
            best = members(current)
            continue
        deletable = [v for v in copy if not kept >> v & 1]
        deletable.sort(key=lambda v: (-(bits[v] & current).bit_count(), v))
        # the branch deleting v pins the members before v; push the last first
        for v in deletable:
            kept |= 1 << v
        for v in reversed(deletable):
            kept ^= 1 << v
            stack.append((current & ~(1 << v), kept))
    return SearchResult(value=len(best), witness=tuple(best), exact=nodes <= budget, nodes=nodes)


class TraversingVerdict(NamedTuple):
    """Outcome of a traversing-copy check at probe size s.

    holds: every examined family of h disjoint s-subsets induced a copy of H
    with one vertex per subset.  On failure, `witness` is one family with no
    such copy (re-checkable by traversing-copy search).  mode "exhaustive"
    means every family was examined, so the verdict is exact; mode "sampled"
    means a random draw was, so a failure is conclusive but holding is an
    empirical estimate.
    """

    s: int
    mode: str  # "exhaustive" or "sampled"
    holds: bool
    witness: tuple[tuple[int, ...], ...] | None = None
    families_checked: int = 0


def _count_disjoint_families(n: int, h: int, s: int) -> int:
    total = 1
    remaining = n
    for _ in range(h):
        total *= math.comb(remaining, s)
        remaining -= s
    return total // math.factorial(h)


def traversing_check(
    g: Graph,
    p: Pattern,
    s: int,
    trials: int = 500,
    seed: int = 0,
) -> TraversingVerdict:
    """Check whether every family of h disjoint s-subsets spans a traversing
    copy of the pattern (one vertex in each subset, any assignment).

    `trials` (at least 1) bounds the families examined.  When the families
    number at most `trials` all of them are enumerated and the verdict is
    exact (mode "exhaustive"); otherwise `trials` distinct uniformly random
    families are drawn (mode "sampled").  A failing family is returned as a
    witness.
    """
    h = p.h
    if s < 1:
        raise ValueError("s must be >= 1")
    if h * s > g.n:
        raise ValueError(f"need h*s <= n ({h}*{s} > {g.n})")
    if trials < 1:
        raise ValueError("traversing check needs trials >= 1")

    if _count_disjoint_families(g.n, h, s) <= trials:
        mode, families = "exhaustive", _iter_families_one_per_min(list(range(g.n)), h, s)
    else:
        mode, families = "sampled", _sample_families(g.n, h, s, trials, seed)
    checked = 0
    for fam in families:
        checked += 1
        if traversing_copy(g, p, fam) is None:
            return TraversingVerdict(s=s, mode=mode, holds=False, witness=tuple(fam),
                                     families_checked=checked)
    return TraversingVerdict(s=s, mode=mode, holds=True, families_checked=checked)


def _sample_families(n: int, h: int, s: int, trials: int,
                     seed: int) -> Iterator[list[tuple[int, ...]]]:
    """`trials` distinct uniformly random families of h disjoint sorted
    s-subsets of range(n): a family drawn again is redrawn, so the families
    must outnumber `trials`, as they do whenever traversing_check samples."""
    rng = rng_for(seed, "traversing", s)
    drawn: set[tuple[tuple[int, ...], ...]] = set()
    while len(drawn) < trials:
        picked = rng.sample(range(n), h * s)
        family = [tuple(sorted(picked[i * s : (i + 1) * s])) for i in range(h)]
        key = tuple(sorted(family))
        if key not in drawn:
            drawn.add(key)
            yield family


def _iter_families_one_per_min(avail: list[int], k: int, s: int) -> Iterator[list[tuple[int, ...]]]:
    """All unordered families of k disjoint s-subsets of sorted `avail`.

    Subsets are generated in order of their minima; since the family is a
    set of disjoint subsets this enumerates each family exactly once.
    """
    if k == 0:
        yield []
        return
    if len(avail) < k * s:
        return
    anchor = avail[0]
    rest = avail[1:]
    # case: anchor belongs to one of the subsets (it is then that subset's min)
    for extra in combinations(rest, s - 1):
        first = (anchor,) + extra
        taken = set(extra)
        sub = [v for v in rest if v not in taken]
        for tail in _iter_families_one_per_min(sub, k - 1, s):
            yield [first] + tail
    # case: anchor belongs to no subset
    yield from _iter_families_one_per_min(rest, k, s)


def traversing_threshold(
    g: Graph,
    p: Pattern,
    trials: int = 500,
    seed: int = 0,
) -> tuple[float, TraversingVerdict | None]:
    """Smallest s in 1..floor(n/h) passing traversing_check, scanned upward.

    Returns (s, verdict); if no s passes (for instance when G has no copy of
    the pattern at all) the value is math.inf with verdict None.  A failure
    is conclusive in either mode, so the returned s is exact when the
    returned verdict's mode is "exhaustive" and an estimate otherwise.
    """
    h = p.h
    for s in range(1, g.n // h + 1):
        verdict = traversing_check(g, p, s, trials=trials, seed=seed)
        if verdict.holds:
            return s, verdict
    return math.inf, None


def one_density(p: Pattern) -> Fraction:
    """max over subgraphs H' with >= 2 vertices of e(H') / (v(H') - 1).

    Enumerates vertex subsets; for a fixed vertex set the edge count is
    maximized by the induced subgraph, so induced subgraphs attain the max.
    """
    g = p.graph
    best = Fraction(0)
    verts = list(range(g.n))
    edges = g.edges()
    for k in range(2, g.n + 1):
        for sub in combinations(verts, k):
            ss = set(sub)
            e = sum(1 for u, v in edges if u in ss and v in ss)
            best = max(best, Fraction(e, k - 1))
    return best


def param_report(
    g: Graph,
    ells: list[int] = (2,),
    pattern: Pattern | None = None,
    traversing_s: int | None = None,
    trials: int = 200,
    seed: int = 0,
) -> dict:
    """Every parameter computed for one graph, as a flat `param-report/v1`
    document."""
    out: dict = {
        "schema": "param-report/v1",
        "n": g.n,
        "m": g.m,
        "min_degree": min_degree(g) if g.n else 0,
        "max_degree": max(map(g.degree, range(g.n)), default=0),
    }
    clique = max_clique(g)
    out["max_clique"] = clique.value
    out["max_clique_exact"] = clique.exact
    out["max_clique_witness"] = list(clique.witness)
    for ell in sorted(set(ells)):
        res = alpha_ell(g, ell, budget=PARAM_BUDGET)
        out[f"alpha_{ell}"] = res.value
        out[f"alpha_{ell}_exact"] = res.exact
        out[f"alpha_{ell}_witness"] = list(res.witness)
    if pattern is not None:
        out["one_density"] = str(one_density(pattern))
        if traversing_s is not None:
            t = traversing_check(g, pattern, traversing_s, trials=trials, seed=seed)
            out["traversing_s"] = t.s
            out["traversing_mode"] = t.mode
            out["traversing_holds"] = t.holds
            if t.witness is not None:
                out["traversing_witness"] = [list(x) for x in t.witness]
    return out
