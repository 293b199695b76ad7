"""Absorption: the perfect tiling of G[A + R] for a valid remainder R."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .config import CertificateBugError, StageFailure
from .embed import copy_sets_through, embed_in_set
from .factor import Tiling, find_factor_exact
from .graphs import Graph, Pattern, induced_subgraph, vertex_mask
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
    off g, for R and the buffer only.  The result is verified before return.
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
    consumed: set[int] = set()
    for _v, mates in chosen:
        consumed |= set(mates)

    # surplus coverage: copies inside the buffer until exactly m vertices remain
    remaining = [v for v in buffer if v not in consumed]
    need_copies, leftover_check = divmod(len(remaining) - m, h)
    if leftover_check != 0:
        raise CertificateBugError("buffer arithmetic violated divisibility bookkeeping")
    cover = _disjoint_copies(remaining, families, remaining, need_copies, m)
    if cover is None:
        raise StageFailure("absorb-surplus", "no disjoint cover of the buffer surplus")
    covered_by_cover: set[int] = set()
    for anchor, mates in cover:
        covered_by_cover |= {anchor} | set(mates)
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

    def add_copy_on(vertices: Iterable[int]) -> None:
        emb = embed_in_set(g, p, vertices)
        if emb is None:
            raise CertificateBugError("copy family member is not a copy")
        copies.append(emb)

    for anchor, mates in chosen + cover:
        add_copy_on({anchor} | set(mates))

    for l, rgt in tpl.edges():
        a_e = structure.edge_absorbers[(l, rgt)]
        if matching.get(l) == rgt:
            block = set(structure.slot_blocks[rgt]) | {structure.left_vertex(l)}
            target = set(a_e) | block
        else:
            target = set(a_e)
        sub, order = induced_subgraph(g, target)
        res = find_factor_exact(sub, p)
        if not res.found:
            raise CertificateBugError(
                f"absorber for template edge ({l},{rgt}) failed to tile"
            )
        for emb in res.tiling.copies:
            copies.append(tuple(order[i] for i in emb))

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
    """Backtracking choice of `need` pairwise-disjoint copies, each an
    anchor plus one of its family members inside `pool`, as (anchor, member)
    pairs in anchor order, or None.  Anchors are taken in order and may be
    passed over `spare` times in all; a reached anchor leaves the pool, and
    the vertices a copy consumes leave both the pool and the anchors."""
    result: list[tuple[int, tuple[int, ...]]] = []

    def rec(avail: list[int], live: frozenset[int], todo: int, spare: int) -> bool:
        if todo == 0:
            return True
        if not avail:
            return False
        v = avail[0]
        rest = avail[1:]
        live = live - {v}
        for member in families.get(v, ()):
            ms = set(member)
            if ms <= live:
                result.append((v, member))
                if rec([u for u in rest if u not in ms], live - ms, todo - 1, spare):
                    return True
                result.pop()
        if spare > 0:
            return rec(rest, live, todo, spare - 1)
        return False

    found = rec(list(anchors), frozenset(pool), need, spare)
    del rec  # rec refers to itself; dropping the name frees it without the gc
    return result if found else None
