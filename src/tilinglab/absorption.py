"""Absorption: the perfect tiling of G[A + R] for a valid remainder R.

Both of its exact covers run on `factor.exact_cover`: the disjoint copies
into the buffer, and each template edge absorber's tiling inside its mask.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from . import factor
from .config import CertificateBugError, StageFailure
from .embed import copy_sets_through, embed_in_set
from .factor import Tiling, exact_cover, find_factor_exact
from .graphs import Graph, Pattern, vertex_mask
from .verify import verify_tiling

if TYPE_CHECKING:
    from .absorbing import AbsorbingStructure


def _families_in_buffer(g: Graph, p: Pattern, buffer: list[int],
                        anchors: Iterable[int]) -> dict[int, tuple]:
    """For every anchor v, all (h-1)-subsets of the buffer that form a
    pattern copy with v (sorted lexicographically): the copies through v
    inside the buffer plus v, with v taken out.  Only `absorb` builds these,
    for the remainder and the buffer; `build_absorbing_set` counts copies."""
    pool = vertex_mask(buffer)
    return {
        v: tuple(tuple(u for u in img if u != v)
                 for img, _emb in copy_sets_through(g, p, v, pool | 1 << v))
        for v in anchors
    }


def absorb(g: Graph, structure: AbsorbingStructure, remainder: Iterable[int]) -> Tiling:
    """Perfect tiling of G[A + R] for a valid remainder R.

    Steps: cover each remainder vertex with a copy into the buffer; cover
    surplus buffer vertices with further copies until exactly m remain;
    match the m survivors plus the core side through the template; tile each
    matched edge's absorber together with its endpoint vertices, and every
    unmatched edge's absorber alone.  The copies into the buffer are read
    off g, for R and the buffer only, and chosen under
    `factor.DEFAULT_BUDGET` nodes.  The result is verified before return.
    """
    p = structure.pattern
    h = p.h
    aset = structure.absorbing_set
    rem = sorted(set(remainder))
    for v in rem:
        if not (0 <= v < g.n):
            raise ValueError(f"remainder vertex {v} out of range")
    if set(rem) & aset:
        raise ValueError("remainder intersects the absorbing set")
    if (len(aset) + len(rem)) % h != 0:
        raise ValueError(
            f"pattern size {h} must divide |A| + |R| = {len(aset) + len(rem)}"
        )
    if len(rem) > structure.max_remainder:
        raise ValueError(
            f"remainder size {len(rem)} exceeds the absorbable cap {structure.max_remainder}"
        )

    m = structure.template.m
    buffer = list(structure.buffer)
    families = _families_in_buffer(g, p, buffer, rem + buffer)

    # remainder copies into the buffer, pairwise disjoint
    chosen = _disjoint_copies(rem, families, buffer, len(rem), 0)
    if chosen is None:
        raise StageFailure("absorb-remainder", "no disjoint copy choice for the remainder")
    consumed = {u for _v, mates in chosen for u in mates}

    # surplus coverage: copies inside the buffer until exactly m vertices remain
    remaining = [v for v in buffer if v not in consumed]
    need_copies, leftover_check = divmod(len(remaining) - m, h)
    if leftover_check != 0:
        raise CertificateBugError("buffer arithmetic violated divisibility bookkeeping")
    cover = _disjoint_copies(remaining, families, remaining, need_copies, m)
    if cover is None:
        raise StageFailure("absorb-surplus", "no disjoint cover of the buffer surplus")
    covered_by_cover = {u for anchor, mates in cover for u in (anchor, *mates)}
    survivors = [v for v in remaining if v not in covered_by_cover]
    if len(survivors) != m:
        raise CertificateBugError(f"buffer cover left {len(survivors)} survivors, expected {m}")

    # template matching of survivors + core onto slots
    tpl = structure.template
    pos = {v: i for i, v in enumerate(structure.buffer)}
    matching = tpl.slot_matching(pos[v] for v in survivors)
    if matching is None:
        raise CertificateBugError(
            "verified template has no perfect matching for this survivor set"
        )

    copies: list[tuple[int, ...]] = []
    for anchor, mates in chosen + cover:
        emb = embed_in_set(g, p, (anchor, *mates))
        if emb is None:
            raise CertificateBugError("copy family member is not a copy")
        copies.append(emb)

    for l, rgt in tpl.edges():
        target = vertex_mask(structure.edge_absorbers[(l, rgt)])
        if matching.get(l) == rgt:
            target |= vertex_mask(structure.slot_blocks[rgt]) | 1 << structure.left_vertex(l)
        res = find_factor_exact(g, p, within=target)
        if not res.found:
            raise CertificateBugError(
                f"absorber for template edge ({l},{rgt}) failed to tile"
            )
        copies.extend(res.tiling.copies)

    tiling = Tiling(pattern=p, copies=tuple(copies))
    verify_tiling(g, tiling, require_cover=aset | set(rem))
    if len(tiling.covered) != len(aset) + len(rem):
        raise CertificateBugError("absorption covered vertices outside A + R")
    return tiling


def _disjoint_copies(
    anchors: list[int],
    families: dict[int, tuple[tuple[int, ...], ...]],
    pool: Iterable[int],
    need: int,
    spare: int,
) -> list[tuple[int, tuple[int, ...]]] | None:
    """`need` pairwise-disjoint copies, each an anchor plus one of its family
    members inside `pool`, as (anchor, member) pairs in anchor order, or
    None.  This is `factor.exact_cover` over the anchors, lowest first: an
    anchor may be passed over `spare` times in all, a reached anchor leaves
    the pool, and the vertices a copy consumes leave both the pool and the
    anchors.  A search past `factor.DEFAULT_BUDGET` nodes is a StageFailure."""
    budget = factor.DEFAULT_BUDGET
    got, _nodes, budget_hit = exact_cover(
        vertex_mask(anchors), vertex_mask(pool), need, spare,
        lambda v, live: (((v, *member), (v, member)) for member in families.get(v, ())
                         if not vertex_mask(member) & (~live | 1 << v)),
        budget)
    if budget_hit:
        raise StageFailure("absorb-budget",
                           f"the disjoint-copy search exceeded its {budget}-node budget")
    return got
