"""Absorber families: the direct, traversing (general) and partition
(clique) constructions.

An absorber for an h-set S is a set A_S of h*t vertices, disjoint from S,
such that both G[A_S] and G[A_S + S] have perfect tilings.  Each builder
returns pairwise-disjoint absorbers for one core set as those two tilings.
"""

from __future__ import annotations

import math
from itertools import chain, islice, permutations
from typing import Iterable, Iterator

from .config import PARTITION_RETRIES, AbsorberConfig, StageFailure
from .embed import cliques_of_size, copy_sets_through, traversing_copy
from .factor import find_factor_exact, greedy_max_tiling
from .graphs import Graph, Pattern, Tiling, members, vertex_mask
from .rng import rng_for

# exact-search node budget of each of an absorber's two tilings
ABSORBER_BUDGET = 200_000


def absorber_tilings(g: Graph, p: Pattern, core: Iterable[int],
                     absorber: Iterable[int]) -> tuple[Tiling, Tiling] | None:
    """(alone, with_core): the exact search's tilings of G[absorber] and of
    G[absorber + core], or None if one is not found in ABSORBER_BUDGET nodes.
    The search with the core runs first, and the other only if it succeeds."""
    a = vertex_mask(absorber)
    with_core = find_factor_exact(g, p, ABSORBER_BUDGET, a | vertex_mask(core))
    if not with_core.found:
        return None
    alone = find_factor_exact(g, p, ABSORBER_BUDGET, a)
    return (alone.tiling, with_core.tiling) if alone.found else None


def _copies_by_min_vertex(g: Graph, p: Pattern, pool: int) -> Iterator[Iterator[tuple[int, ...]]]:
    """Per vertex of the mask `pool` in increasing order, the lazy stream of
    the sorted images of copies inside `pool` whose minimum vertex it is.
    Chained together, the streams list every copy in lex order."""
    while pool:  # v runs up through pool, which keeps v and the vertices above it
        low = pool & -pool
        v = low.bit_length() - 1
        yield (img for img, _emb in copy_sets_through(g, p, v, pool))
        pool ^= low


# the direct search tries at most DIRECT_ATTEMPTS candidates per absorber,
# DIRECT_PER_ANCHOR per anchor vertex
DIRECT_ATTEMPTS = 64
DIRECT_PER_ANCHOR = 6


def disjoint_absorber_family_direct(
    g: Graph,
    p: Pattern,
    core: Iterable[int],
    t: int,
    target: int,
    forbidden: Iterable[int] = (),
) -> list[tuple[Tiling, Tiling]]:
    """Up to `target` pairwise-disjoint absorbers for `core`, found by
    direct exact search; fewer when the search runs out.

    Each absorber is assembled as t disjoint pattern copies (so it has a
    tiling of its own) and kept only if `absorber_tilings` tiles it alone
    and with the core set.  Candidates are scanned in lexicographic order,
    so the family is deterministic.
    """
    core_t = tuple(sorted(set(core)))
    h = p.h
    if len(core_t) != h:
        raise ValueError(f"core set must have exactly {h} vertices")
    used: set[int] = set(core_t) | set(forbidden)
    out: list[tuple[Tiling, Tiling]] = []
    while len(out) < target:
        found = _direct_absorber(g, p, core_t, t, frozenset(used))
        if found is None:
            break
        out.append(found)
        used |= found[0].covered
    return out


def _direct_absorber(
    g: Graph,
    p: Pattern,
    core_t: tuple[int, ...],
    t: int,
    used: frozenset[int],
) -> tuple[Tiling, Tiling] | None:
    """The tilings of the first candidate (t disjoint copies) that tiles
    with the core.  Candidates rotate through anchor vertices so one anchor
    that is incompatible with the core cannot exhaust the attempt budget."""
    allowed = ((1 << g.n) - 1) & ~vertex_mask(used)
    attempts = 0
    for copies in _copies_by_min_vertex(g, p, allowed):
        for img in islice(copies, DIRECT_PER_ANCHOR):
            cand = vertex_mask(img)
            for _ in range(t - 1):
                nxt = next(chain.from_iterable(_copies_by_min_vertex(g, p, allowed & ~cand)), None)
                if nxt is None:
                    return None
                cand |= vertex_mask(nxt)
            tilings = absorber_tilings(g, p, core_t, members(cand))
            if tilings is not None:
                return tilings
            attempts += 1
            if attempts >= DIRECT_ATTEMPTS:
                return None
    return None


def disjoint_absorber_family_general(
    g: Graph,
    p: Pattern,
    core: Iterable[int],
    target: int,
    config: AbsorberConfig,
    forbidden: Iterable[int] = (),
) -> list[tuple[Tiling, Tiling]]:
    """Absorber family via disjoint neighbor pools and traversing copies.

    For each core vertex w, a pool inside N(w) is reserved and tiled by
    `greedy_max_tiling`, in vertex index order (the construction needs only
    some maximal tiling); one designated vertex per copy goes into w's mark
    set.  Every copy traversing all mark sets, combined with the designated
    copies it hits, is one absorber of h*h vertices, and a 'verify'
    StageFailure if it does not tile.  Extraction repeats until the target
    is met or the traversing search is exhausted; the result is empty when
    some core vertex lacks a full pool.
    """
    h = p.h
    core_t = tuple(sorted(set(core)))
    if len(core_t) != h:
        raise ValueError(f"core set must have exactly {h} vertices")
    n = g.n
    pool_size = config.pool_size
    if pool_size is None:
        pool_size = max(h, math.ceil(config.degree_frac * n / (2 * h)))
    blocked: set[int] = set(core_t) | set(forbidden)
    pools: dict[int, list[int]] = {}
    for w in core_t:
        avail = [u for u in g.neighbors(w) if u not in blocked]
        if len(avail) < pool_size:
            return []
        pools[w] = avail[:pool_size]
        blocked.update(pools[w])

    designated: dict[int, dict[int, frozenset[int]]] = {}
    for w in core_t:
        outside = set(range(n)) - set(pools[w])
        tiling = greedy_max_tiling(g, p, forbidden=outside)
        designated[w] = {min(emb): frozenset(emb) for emb in tiling.copies}

    marks = {w: sorted(designated[w]) for w in core_t}
    absorbers: list[tuple[Tiling, Tiling]] = []
    while len(absorbers) < target:
        trav = traversing_copy(g, p, [marks[w] for w in core_t])
        if trav is None:
            break
        absorber: set[int] = set()
        for w in core_t:
            hit = next(v for v in trav if v in designated[w])
            absorber |= designated[w][hit]
            marks[w].remove(hit)
            del designated[w][hit]
        tilings = absorber_tilings(g, p, core_t, absorber)
        if tilings is None:
            raise StageFailure("verify", "constructed absorber has no perfect tiling "
                               "alone or with its core", blocking=core_t)
        absorbers.append(tilings)
    return absorbers


def disjoint_absorber_family_clique(
    g: Graph,
    r: int,
    ell: int,
    core: Iterable[int],
    target: int,
    config: AbsorberConfig,
    seed: int = 0,
    forbidden: Iterable[int] = (),
) -> list[tuple[Tiling, Tiling]]:
    """Absorber family for complete patterns via a random vertex partition.

    The vertex set (minus core and forbidden) is split into r+1 seeded
    random classes.  Each absorber is one clique on r vertices found in the
    last class by common-neighborhood descent (greedy clique of size r-ell,
    then a clique on ell vertices inside the common neighborhood), plus for
    each i a clique on r-1 vertices inside N(core_i) & N(w_i) & class_i.
    Used vertices are tracked per class; up to PARTITION_RETRIES partitions
    are drawn, a new one when the degree-into-class floor fails or candidates
    run out, and the absorbers collected over all of them are returned.
    Unless config.part_degree_min sets it, the floor is computed from the
    vertices the partition splits, not from all of g.
    """
    p = Pattern.clique(r)
    core_t = tuple(sorted(set(core)))
    if len(core_t) != r:
        raise ValueError(f"core set must have exactly {r} vertices")
    n = g.n
    frac = (r - ell) / (r - ell + 1)
    cn_min = config.common_nbhd_min
    if cn_min is None:
        cn_min = math.ceil(config.degree_frac * n / (4 * (r + 1)))

    collected: list[tuple[Tiling, Tiling]] = []
    out_of_play: set[int] = set(core_t) | set(forbidden)
    for attempt in range(PARTITION_RETRIES):
        rest = [v for v in range(n) if v not in out_of_play]
        rng = rng_for(seed, "partition", attempt)
        rng.shuffle(rest)
        k, extra = divmod(len(rest), r + 1)
        classes: list[int] = []
        pos = 0
        for i in range(r + 1):
            size = k + (1 if i < extra else 0)
            classes.append(vertex_mask(rest[pos : pos + size]))
            pos += size
        if not all(classes):
            continue
        part_min = config.part_degree_min
        if part_min is None:  # the classes split only the vertices in play
            part_min = math.ceil((frac + config.degree_frac / 2) * len(rest) / (r + 1))
        if not _partition_degrees_ok(g, classes, part_min):
            continue
        used = [0] * (r + 1)
        while len(collected) < target:
            got = _build_partition_absorber(g, r, ell, core_t, classes, used, cn_min)
            if got is None:
                break
            collected.append(got)
            out_of_play |= got[0].covered
        if len(collected) >= target:
            break
    return collected


def _partition_degrees_ok(g: Graph, classes: list[int], part_min: int) -> bool:
    """Does every vertex have at least part_min neighbours in each class mask?"""
    return all((nb & cls).bit_count() >= part_min for nb in g.bits for cls in classes)


def _clique_by_descent(
    g: Graph,
    size: int,
    ell: int,
    avail: int,
    cn_min: int,
) -> tuple[int, ...] | None:
    """Clique on `size` vertices in the mask `avail`: greedy descent to
    size-ell, then a clique on ell vertices inside the common neighborhood."""
    if size <= 0:
        return ()
    if size <= ell:
        return next(cliques_of_size(g, size, avail), None)
    bits = g.bits
    for start in members(avail):
        base = [start]
        common = avail & bits[start]
        ok = True
        while len(base) < size - ell:
            if common.bit_count() < max(cn_min, 1):
                ok = False
                break
            low = common & -common
            base.append(low.bit_length() - 1)
            common &= bits[base[-1]]
        if not ok:
            continue
        if common.bit_count() < cn_min:
            continue
        for cl in cliques_of_size(g, ell, common):
            return tuple(sorted(base + list(cl)))
    return None


# top cliques a partition absorber search tries before giving up
PARTITION_CLIQUE_CANDIDATES = 50


def _build_partition_absorber(
    g: Graph,
    r: int,
    ell: int,
    core_t: tuple[int, ...],
    classes: list[int],
    used: list[int],
    cn_min: int,
) -> tuple[Tiling, Tiling] | None:
    """The tilings of an absorber for core_t from the class masks, none of
    it in the mask used[i] of its class i; on success its vertices join `used`."""
    p = Pattern.clique(r)
    bits = g.bits
    seen: list[tuple[int, ...]] = []
    pool = classes[r] & ~used[r]
    while len(seen) < PARTITION_CLIQUE_CANDIDATES:
        top = _clique_by_descent(g, r, ell, pool, cn_min)
        if top is None:
            return None
        seen.append(top)
        for label in permutations(top):
            legs: list[tuple[int, ...]] = []
            taken = 0
            for i in range(r):
                cand = bits[core_t[i]] & bits[label[i]] & classes[i] & ~used[i] & ~taken
                leg = _clique_by_descent(g, r - 1, ell, cand, cn_min)
                if leg is None:
                    break
                legs.append(leg)
                taken |= vertex_mask(leg)
            if len(legs) == r:
                tilings = absorber_tilings(g, p, core_t, set(top).union(*legs))
                if tilings is None:
                    continue
                used[r] |= vertex_mask(top)
                for i in range(r):
                    used[i] |= vertex_mask(legs[i])
                return tilings
        # exclude this clique's smallest vertex and look for another
        pool &= ~(1 << min(top))
    return None


# ---------------------------------------------------------------------------
# absorber constructions

BUILDERS = ("direct", "general", "clique")


def check_builder(builder: str, p: Pattern, ell: int | None) -> None:
    """Raise ValueError unless `builder` names a construction that can run
    on pattern p: the partition (clique) construction needs K_r with
    r > ell >= 2."""
    if builder not in BUILDERS:
        raise ValueError(f"unknown absorber builder: {builder}")
    if builder == "clique" and not (p.is_clique and ell is not None and p.r > ell >= 2):
        raise ValueError("clique builder needs a clique pattern K_r and r > ell >= 2")
