"""Independent certificate verifiers.

Every object the solvers emit (tilings, absorbers, absorbing structures,
traversing witnesses) can be re-checked here from scratch.  The checkers
share no search code with the solvers: they check the tilings a certificate
carries, and settle a traversing witness by brute force.  A structure's
template is derived from its sizes and robust by Hall's condition (see
templates.TemplateGraph), so only those sizes are checked.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable

from .graphs import Graph, Pattern, Tiling


class VerificationError(AssertionError):
    """A certificate violates an invariant; the message names it."""


def verify_tiling(
    g: Graph,
    tiling: Tiling,
    require_factor: bool = False,
    require_cover: Iterable[int] | None = None,
) -> None:
    """Check a tiling bottom-up: ranges, injectivity, edge preservation,
    pairwise disjointness, and optional coverage requirements."""
    p = tiling.pattern
    h = p.h
    pattern_edges = p.graph.edges()
    seen: dict[int, int] = {}
    for ci, emb in enumerate(tiling.copies):
        if len(emb) != h:
            raise VerificationError(f"copy {ci} has {len(emb)} vertices, expected {h}")
        if len(set(emb)) != h:
            raise VerificationError(f"copy {ci} repeats a vertex")
        for v in emb:
            if not (0 <= v < g.n):
                raise VerificationError(f"copy {ci} uses out-of-range vertex {v}")
            if v in seen:
                raise VerificationError(
                    f"copies {seen[v]} and {ci} share vertex {v} (disjointness)"
                )
            seen[v] = ci
        for a, b in pattern_edges:
            if not g.has_edge(emb[a], emb[b]):
                raise VerificationError(
                    f"copy {ci} does not preserve pattern edge ({a},{b}): "
                    f"({emb[a]},{emb[b]}) is not an edge"
                )
    if require_factor and len(seen) != g.n:
        raise VerificationError(
            f"not a factor: covers {len(seen)} of {g.n} vertices"
        )
    if require_cover is not None:
        missing = set(require_cover) - set(seen)
        if missing:
            raise VerificationError(f"required vertices not covered: {sorted(missing)[:5]}")


def verify_absorber(
    g: Graph,
    core: Iterable[int],
    alone: Tiling,
    with_core: Tiling,
) -> None:
    """Check the defining property of an absorber for the h-set `core`,
    whose vertices are those the tiling `alone` covers: disjoint from core,
    and `alone` and `with_core` perfect tilings, by one pattern, of
    G[absorber] and G[absorber + core] (verify_tiling checks their
    vertices' range).  `alone` tiles the absorber, so its size is a
    multiple of h."""
    s = sorted(set(core))
    a = sorted(alone.covered)
    h = alone.pattern.h
    if with_core.pattern != alone.pattern:
        raise VerificationError("the absorber's two tilings use different patterns")
    if len(s) != h:
        raise VerificationError(f"core has {len(s)} vertices, expected {h}")
    if set(s) & set(a):
        raise VerificationError("absorber intersects its core set")
    verify_tiling(g, alone)
    verify_tiling(g, with_core)
    if with_core.covered != set(a + s):
        raise VerificationError("tiling of the absorber plus core does not cover exactly its vertices")


def verify_traversing_witness(
    g: Graph,
    p: Pattern,
    s: int,
    parts: list[list[int]],
) -> None:
    """Check a failure witness: h pairwise-disjoint parts of size >= s with
    no traversing copy of the pattern, by trying every pick of one vertex
    per part under every ordering."""
    if len(parts) != p.h:
        raise VerificationError(f"witness has {len(parts)} parts, expected {p.h}")
    seen: set[int] = set()
    for i, part in enumerate(parts):
        if len(part) < s:
            raise VerificationError(f"part {i} smaller than s={s}")
        if len(set(part)) != len(part):
            raise VerificationError(f"part {i} repeats a vertex")
        for v in part:
            if not (0 <= v < g.n):
                raise VerificationError(f"part {i} uses out-of-range vertex {v}")
            if v in seen:
                raise VerificationError(f"parts overlap at vertex {v}")
            seen.add(v)
    pattern_edges = p.graph.edges()
    if any(all(g.has_edge(emb[a], emb[b]) for a, b in pattern_edges)
           for pick in product(*parts) for emb in permutations(pick)):
        raise VerificationError("witness family does induce a traversing copy")


def verify_structure(g: Graph, structure) -> None:
    """Re-check every invariant of an absorbing structure from scratch.

    The sizes that fix its template: a core of 2m >= 2 vertices and a
    buffer of m to 40, the degree bound; the slot count 3m(h-1);
    disjointness of buffer/core/slots and all edge absorbers; the buffer's
    increasing order (which fixes the template's flex indices); edge
    absorbers on exactly the template's edges, each with its two stored
    tilings (via verify_absorber), and each on h^2 vertices when the
    `general` or `clique` builder, which build only those, is named; and
    that some remainder size is absorbable.  The template's robust property
    needs no check: it holds by Hall's condition at every such size.  A
    document stores no derived value, so nothing is compared against a
    stored copy.
    """
    h = structure.pattern.h
    buffer, core, slots = structure.buffer, structure.core, structure.slots
    if not core or len(core) % 2:
        raise VerificationError(f"core has {len(core)} vertices, not an even number >= 2")
    tpl = structure.template
    if not tpl.m <= len(buffer) <= 40:
        raise VerificationError(f"buffer has {len(buffer)} vertices, not from m = {tpl.m} "
                                f"to the degree bound of 40")
    if len(slots) != tpl.slot_count * (h - 1):
        raise VerificationError("slot count differs from template * (h-1)")
    base = list(buffer) + list(core) + list(slots)
    if len(set(base)) != len(base):
        raise VerificationError("buffer, core and slots overlap")
    for v in base:
        if not (0 <= v < g.n):
            raise VerificationError(f"vertex {v} out of range")

    if any(len(b) != h - 1 for b in structure.slot_blocks):
        raise VerificationError("slot blocks are not all (h-1)-sets")
    if any(a >= b for a, b in zip(buffer, buffer[1:])):
        raise VerificationError("buffer is not strictly increasing")

    edges = set(tpl.edges())
    if set(structure.edge_absorbers) != edges:
        raise VerificationError("edge absorbers do not cover the template edges")
    taken = set(base)
    for (l, r), (alone, with_core) in sorted(structure.edge_absorbers.items()):
        if alone.covered & taken:
            raise VerificationError(
                f"absorber for edge ({l},{r}) overlaps earlier structure vertices"
            )
        taken |= alone.covered
        if structure.builder != "direct" and len(alone.covered) != h * h:
            raise VerificationError(
                f"absorber for edge ({l},{r}) has {len(alone.covered)} vertices, but the "
                f"{structure.builder} builder builds h^2 = {h * h}"
            )
        core_e = sorted({structure.left_vertex(l)} | set(structure.slot_blocks[r]))
        verify_absorber(g, core_e, alone, with_core)

    if not structure.valid_remainder_sizes():
        raise VerificationError(f"no remainder size k <= max_remainder = "
                                f"{structure.max_remainder} makes |A| + k divisible by h = {h}")
