"""Absorption: the perfect tiling of G[A + R] for a valid remainder R, and
the factor of G that covers V - A up to such an R and absorbs it.

Its exact covers are each one `factor.exact_cover`, which reads the copies
off g lazily: the almost-cover of V - A, the disjoint copies into the
buffer and the cover of its surplus.  Edge absorbers' tilings come from the
structure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from . import factor
from .config import CertificateBugError, StageFailure
from .factor import exact_cover
from .graphs import Graph, Pattern, Tiling, vertex_mask
from .verify import verify_tiling

if TYPE_CHECKING:
    from .absorbing import AbsorbingStructure


def absorb(g: Graph, structure: AbsorbingStructure, remainder: Iterable[int]) -> Tiling:
    """Perfect tiling of G[A + R] for a valid remainder R.

    Steps: cover each remainder vertex with a copy into the buffer; cover
    surplus buffer vertices with further copies until one survives; match
    the survivor plus the core side through the template; take the stored
    tiling of each matched edge's absorber with its endpoint vertices, and
    of each unmatched edge's absorber alone.  The copies into the buffer
    are read off g lazily, as the search reaches each anchor, under
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

    # remainder copies into the buffer, pairwise disjoint
    chosen = _disjoint_copies(g, p, rem, structure.buffer, len(rem), 0)
    if chosen is None:
        raise StageFailure("absorb-remainder", "no disjoint copy choice for the remainder")
    consumed = {u for copy in chosen for u in copy}

    # surplus coverage: copies inside the buffer until one vertex survives
    remaining = [v for v in structure.buffer if v not in consumed]
    need_copies, leftover_check = divmod(len(remaining) - 1, h)
    if leftover_check != 0:
        raise CertificateBugError("buffer arithmetic violated divisibility bookkeeping")
    cover = _disjoint_copies(g, p, remaining, remaining, need_copies, 1)
    if cover is None:
        raise StageFailure("absorb-surplus", "no disjoint cover of the buffer surplus")
    covered_by_cover = {u for copy in cover for u in copy}
    survivors = [v for v in remaining if v not in covered_by_cover]
    if len(survivors) != 1:
        raise CertificateBugError(f"buffer cover left {len(survivors)} survivors, expected 1")

    # template matching of the survivor + core onto slots
    tpl = structure.template
    matching = tpl.slot_matching(structure.buffer.index(survivors[0]))

    copies = chosen + cover
    for l, rgt in tpl.edges():
        alone, with_core = structure.edge_absorbers[(l, rgt)]
        copies.extend((with_core if matching.get(l) == rgt else alone).copies)

    tiling = Tiling(pattern=p, copies=tuple(copies))
    verify_tiling(g, tiling, require_cover=aset | set(rem))
    if len(tiling.covered) != len(aset) + len(rem):
        raise CertificateBugError("absorption covered vertices outside A + R")
    return tiling


def cover_and_absorb(g: Graph, structure: AbsorbingStructure) -> tuple[Tiling, int]:
    """Perfect tiling of g through the structure; returns (tiling, k).

    For each valid remainder size k, smallest first, cover V - A with
    disjoint copies that leave exactly k vertices (`_disjoint_copies`, which
    may pass over k anchors) and absorb that leftover; the first leftover
    `absorb` takes is kept.  A size whose cover is found but whose leftover
    `absorb` refuses is skipped.  If some cover was found but every leftover
    was refused, this is a StageFailure at 'absorb'; if no size gave a cover
    (none exists, or the search passed its budget), one at 'cover'.  Either
    detail names each size tried and how it ended.
    """
    p = structure.pattern
    aset = structure.absorbing_set
    outside = [v for v in range(g.n) if v not in aset]
    tried = []
    stage = "cover"
    for k in structure.valid_remainder_sizes():
        try:
            cover = _disjoint_copies(g, p, outside, outside, (len(outside) - k) // p.h, k)
        except StageFailure:
            tried.append(f"k={k}: cover search over budget")
            continue
        if cover is None:
            tried.append(f"k={k}: no cover")
            continue
        used = {u for copy in cover for u in copy}
        try:
            absorbed = absorb(g, structure, [v for v in outside if v not in used])
        except StageFailure as exc:
            tried.append(f"k={k}: {exc.stage}")
            stage = "absorb"
            continue
        return Tiling(pattern=p, copies=tuple(cover) + absorbed.copies), k
    raise StageFailure(stage, "; ".join(tried))


def _disjoint_copies(
    g: Graph,
    p: Pattern,
    anchors: Iterable[int],
    pool: Iterable[int],
    need: int,
    spare: int,
) -> list[tuple[int, ...]] | None:
    """`need` pairwise-disjoint copies of p, each an anchor plus vertices of
    `pool`, as embeddings in anchor order, or None.  This is
    `factor.exact_cover` over the anchors, lowest first: an anchor may be
    passed over `spare` times in all, a reached anchor leaves the pool, and
    a copy's vertices leave both the pool and the anchors.  A search past
    `factor.DEFAULT_BUDGET` nodes is a StageFailure."""
    budget = factor.DEFAULT_BUDGET
    got, _nodes, budget_hit = exact_cover(g, p, vertex_mask(anchors), vertex_mask(pool),
                                          need, spare, budget)
    if budget_hit:
        raise StageFailure("absorb-budget",
                           f"the disjoint-copy search exceeded its {budget}-node budget")
    return got
