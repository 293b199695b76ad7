"""Absorbing machinery: absorbers, robust templates, absorbing sets.

An absorber for an h-set S is a set A_S of h*t vertices, disjoint from S,
such that both G[A_S] and G[A_S + S] have perfect tilings.  Given enough
pairwise-disjoint absorbers for every S, an absorbing set A can be built so
that G[A + R] has a perfect tiling for every small remainder R respecting
divisibility.  The flexibility comes from a robust bipartite template: a
bounded-degree graph on (flex + core, slots) such that every m-subset of the
flex side, together with the core side, has a perfect matching onto slots.

Desk-scale runs use override constants (AbsorberConfig.desk_scale).  A
structure keeps no constant of its build: it is its vertex sets and each
absorber's two tilings, and it absorbs up to its template's surplus over
h-1 remainder vertices.

The layers live in their own modules: config (constants and errors),
templates, absorbers (the family builders) and absorption.  This module
assembles the absorbing structure and re-exports the names callers reach
on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .absorbers import (
    BUILDERS,
    check_builder,
    disjoint_absorber_family_clique,
    disjoint_absorber_family_direct,
    disjoint_absorber_family_general,
)
from .absorption import absorb
from .config import SAMPLE_RETRIES, AbsorberConfig, CertificateBugError, StageFailure
from .embed import cliques_of_size, copy_sets_through
from .graphs import Graph, Pattern, Tiling, vertex_mask
from .rng import derive_seed, rng_for
from .templates import TemplateGraph, _surplus_of, build_template


@dataclass
class AbsorbingStructure:
    """The assembled absorbing set plus all bookkeeping needed to absorb.

    buffer: vertices consumed flexibly by copies so that exactly m survive,
    in increasing order; core: 2m vertices, always matched through the
    template; the template's left side is the buffer followed by the core
    (left_vertex).  slot_blocks: blocks of h-1 vertices (`slots`, in
    order), each tiled together with one matched buffer/core vertex;
    edge_absorbers: per template edge, its absorber's tilings (alone,
    with_core), the second with the edge's left vertex and slot block.  Of
    the build's inputs it keeps only the builder that ran; the pattern fixes
    h, and the graph that `verify` and `absorb` are given fixes n.  `slots`
    and `template` (round size |core|/2, flex side |buffer|) derive from the
    rest, so a document stores neither.  `absorb` finds the copies into the
    buffer itself: they depend only on graph and buffer.
    """

    pattern: Pattern
    builder: str
    buffer: tuple[int, ...]
    core: tuple[int, ...]
    slot_blocks: tuple[tuple[int, ...], ...]
    edge_absorbers: dict[tuple[int, int], tuple[Tiling, Tiling]]

    @property
    def slots(self) -> tuple[int, ...]:
        return tuple(v for b in self.slot_blocks for v in b)

    @property
    def template(self) -> TemplateGraph:
        """The template at round size |core|/2 and flex side |buffer|."""
        return TemplateGraph(m=len(self.core) // 2, flex_size=len(self.buffer))

    @cached_property
    def absorbing_set(self) -> frozenset[int]:
        out = set(self.buffer) | set(self.core) | set(self.slots)
        for alone, _with_core in self.edge_absorbers.values():
            out.update(alone.covered)
        return frozenset(out)

    @property
    def max_remainder(self) -> int:
        """Largest remainder size absorbable by this structure: each
        remainder vertex takes h-1 of the buffer's surplus vertices."""
        return self.template.surplus // (self.pattern.h - 1)

    def valid_remainder_sizes(self) -> list[int]:
        h = self.pattern.h
        a = len(self.absorbing_set)
        return [k for k in range(self.max_remainder + 1) if (a + k) % h == 0]

    def left_vertex(self, l: int) -> int:
        """Graph vertex behind template left index l: the flex side is the
        buffer and the core side follows it."""
        return (self.buffer + self.core)[l]


def build_absorbing_set(
    g: Graph,
    p: Pattern,
    config: AbsorberConfig,
    seed: int = 0,
    builder: str = "direct",
    ell: int | None = None,
) -> AbsorbingStructure:
    """Assemble an absorbing structure.

    Every absorber comes from `builder` ('general': traversing copies;
    'clique': random partition, refused unless r > ell >= 2) when config.t
    equals h, the multiplicity both build, and from the direct search
    otherwise; the structure's `builder` names the one that ran.  The
    paper's hypotheses are checked by pipeline.check_hypotheses, not here.

    Stages: (1) sample the buffer with probability sample_prob, at most
    SAMPLE_RETRIES times, until the sample is small enough and every vertex
    has q^(h-1)*gamma/2 copies into the buffer, where gamma =
    max(1, ceil(absorber_frac*n)): an integer count reaches that exactly
    when it reaches its ceiling, so each count stops there, the first short
    vertex rejects the sample, and no copy is kept; no sample is drawn when
    m_cap = 0 or a small enough sample, at most ceil(2nq) vertices, is too
    small for m = 1, which needs 1 + ceil(surplus_ratio); then stop at
    `remainder-sizes` when no remainder size can be absorbed: |A| is
    3mh + s plus h*t per absorber, so the least k with h dividing |A| + k
    is -s mod h, and it must not exceed max_remainder = s // (h-1); (2)
    build the template at the implied round size; (3) reserve core and
    slot vertices; (4) map template sides onto them; (5) pick
    pairwise-disjoint absorbers for every template edge, the only stage
    that runs the builder; (6) assemble.  Any stage that exhausts its
    candidates or fails its check raises StageFailure naming the stage and
    the blocking vertices.
    """
    h = p.h
    if config.h != h:
        raise ValueError("config.h must match the pattern size")
    check_builder(builder, p, ell)
    n = g.n
    kind = builder if config.t == h else "direct"
    family_seed = derive_seed(seed, "families")

    def absorber_for(core: tuple[int, ...], forbidden: frozenset[int]) -> tuple[Tiling, Tiling] | None:
        if kind == "direct":
            got = disjoint_absorber_family_direct(g, p, core, config.t, 1, forbidden)
        elif kind == "general":
            got = disjoint_absorber_family_general(g, p, core, 1, config, forbidden=forbidden)
        else:
            got = disjoint_absorber_family_clique(g, p.r, core, 1,
                                                  seed=derive_seed(family_seed, "fam", *core),
                                                  forbidden=forbidden)
        return got[0] if got else None

    # stage 1: buffer sampling with the concentration event checked directly.
    # A sample keeps at most ceil(2nq) vertices and round size m >= 1 needs
    # 1 + ceil(beta) of them, so no sample can pass when the cap is lower.
    gamma = max(1, math.ceil(config.absorber_frac * n))
    q = config.sample_prob
    beta = config.surplus_ratio
    cap = math.ceil(2 * n * q)
    need = 1 + _surplus_of(1, beta)
    if config.m_cap == 0:
        raise StageFailure("buffer-sample", "no sample can pass: m_cap = 0")
    if cap < need:
        raise StageFailure("buffer-sample", f"no sample can pass: it keeps at most ceil(2nq) = "
                                            f"{cap} vertices, and m = 1 needs {need}")
    for attempt in range(SAMPLE_RETRIES):
        rng = rng_for(seed, "buffer", attempt)
        raw = [v for v in range(n) if rng.random() < q]
        if len(raw) > cap:
            continue
        mm = 0
        while (mm + 1) + _surplus_of(mm + 1, beta) <= len(raw):
            mm += 1
        if config.m_cap is not None:
            mm = min(mm, config.m_cap)
        if mm < 1:
            continue
        cand = raw[: mm + _surplus_of(mm, beta)]
        if _every_vertex_reaches(g, p, vertex_mask(cand), math.ceil(q ** (h - 1) * gamma / 2)):
            buffer, m = cand, mm
            break
    else:
        raise StageFailure("buffer-sample", f"no acceptable buffer in {SAMPLE_RETRIES} samples")
    surplus = _surplus_of(m, beta)
    least, most = -surplus % h, surplus // (h - 1)
    if least > most:
        raise StageFailure("remainder-sizes",
                           f"no remainder size is absorbable: h = {h} must divide |A| + k, |A| is "
                           f"s = {surplus} mod h, so k >= {least} > max_remainder = {most}")

    # stage 2: template
    template = build_template(m, beta)

    # stages 3-4: core and slot vertices, in index order.  Slot blocks are
    # (h-1)-cliques so that every block plus a matched vertex can host a
    # copy; with multiplicity-1 edge absorbers an edgeless block would make
    # some template edges impossible to absorb.
    buffer_set = set(buffer)
    outside = [v for v in range(n) if v not in buffer_set]
    need = 2 * m + 3 * m * (h - 1)
    if len(outside) < need:
        raise StageFailure("core-slots", f"need {need} vertices outside the buffer")
    core = tuple(outside[: 2 * m])
    block_pool = vertex_mask(outside[2 * m :])
    blocks: list[tuple[int, ...]] = []
    for _ in range(3 * m):
        found = next(cliques_of_size(g, h - 1, block_pool), None)
        if found is None:
            raise StageFailure(
                "core-slots", f"no clique on {h - 1} vertices left for a slot block"
            )
        blocks.append(found)
        block_pool &= ~vertex_mask(found)
    slot_blocks = tuple(blocks)

    # stage 5: one absorber per template edge, pairwise disjoint
    used_set = set(buffer) | set(core) | set().union(*slot_blocks)
    edge_absorbers: dict[tuple[int, int], tuple[Tiling, Tiling]] = {}
    left_side = tuple(buffer) + core
    for l, rgt in template.edges():
        core_e = tuple(sorted({left_side[l]} | set(slot_blocks[rgt])))
        got = absorber_for(core_e, frozenset(used_set))
        if got is None:
            raise StageFailure(
                "edge-absorbers",
                f"no absorber for template edge ({l},{rgt})",
                blocking=core_e,
            )
        edge_absorbers[(l, rgt)] = got
        used_set |= got[0].covered

    return AbsorbingStructure(
        pattern=p, builder=kind, buffer=tuple(buffer), core=core, slot_blocks=slot_blocks,
        edge_absorbers=edge_absorbers,
    )


def _every_vertex_reaches(g: Graph, p: Pattern, pool: int, need: int) -> bool:
    """Whether each vertex v lies in `need` copies inside pool + v; counts stop at `need`."""
    return all(sum(1 for _ in islice(copy_sets_through(g, p, v, pool | 1 << v), need)) == need
               for v in range(g.n))
