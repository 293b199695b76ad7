"""Independent certificate verifiers.

Every object the solvers emit (tilings, absorbers, absorbing structures,
traversing witnesses) can be re-checked here from scratch.  The checkers
share no search code with the solvers: they check the tilings a certificate
carries, and settle a traversing witness by brute force.  A template's
robust property is certified exactly, never on a sample: a template with
too many flex subsets to check them all is refused.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product
from typing import Iterable

from .graphs import Graph, Pattern, Tiling

# a template check enumerates at most this many flex m-subsets, and refuses
# a template with more
TEMPLATE_EXHAUSTIVE_CAP = 20_000


class VerificationError(AssertionError):
    """A certificate violates an invariant; the message names it."""


def verify_tiling(
    g: Graph,
    tiling: Tiling,
    require_factor: bool = False,
    require_cover: Iterable[int] | None = None,
    forbidden: Iterable[int] = (),
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
    banned = set(forbidden)
    if banned & set(seen):
        v = min(banned & set(seen))
        raise VerificationError(f"tiling touches forbidden vertex {v}")
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
    t: int,
) -> None:
    """Check the defining property of an absorber for the h-set `core`,
    whose vertices are those the tiling `alone` covers: |absorber| = h*t,
    disjoint from core, and `alone` and `with_core` perfect tilings, by one
    pattern, of G[absorber] and G[absorber + core] (verify_tiling checks
    their vertices' range)."""
    s = sorted(set(core))
    a = sorted(alone.covered)
    h = alone.pattern.h
    if with_core.pattern != alone.pattern:
        raise VerificationError("the absorber's two tilings use different patterns")
    if len(s) != h:
        raise VerificationError(f"core has {len(s)} vertices, expected {h}")
    if len(a) != h * t:
        raise VerificationError(f"absorber has {len(a)} vertices, expected {h * t}")
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

    Disjointness of buffer/core/slots and all edge absorbers, the size
    arithmetic, the buffer's increasing order (which fixes the template's
    flex indices), the two stored tilings of every edge absorber (via
    verify_absorber), that some remainder size is absorbable (else the
    property below can hold for want of a flex m-subset), and the
    template's robust matching property, certified by check_template (a
    template it refuses is invalid).  A document stores no derived value,
    so nothing is compared against a stored copy.
    """
    h = structure.pattern.h
    tpl = structure.template

    if structure.n != g.n:
        raise VerificationError(f"structure built for n={structure.n}, graph has {g.n}")
    buffer, core, slots = structure.buffer, structure.core, structure.slots
    if len(buffer) != tpl.flex_size:
        raise VerificationError("buffer size differs from the template flex side")
    if len(core) != tpl.core_size:
        raise VerificationError("core size differs from the template core side")
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

    if tpl.max_degree > 40:
        raise VerificationError(f"template max degree {tpl.max_degree} exceeds 40")

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
        core_e = sorted({structure.left_vertex(l)} | set(structure.slot_blocks[r]))
        verify_absorber(g, core_e, alone, with_core, structure.t)

    if not structure.valid_remainder_sizes():
        raise VerificationError(f"no remainder size k <= max_remainder = "
                                f"{structure.max_remainder} makes |A| + k divisible by h = {h}")

    bad = check_template(tpl)
    if bad is not None:
        raise VerificationError(f"template flex subset {bad} without perfect matching")


def check_template(tpl) -> tuple[int, ...] | None:
    """Certify a template's robust matching property exactly: return the
    first flex m-subset that, with the core, has no perfect matching onto
    the slots, or None when every one has.

    A template whose flex rows all hold the top slots 2m..3m-1 and whose
    core row j holds slot j (the sparse one build_template makes does, and
    so does a complete one) is robust by Hall's condition, and no subset is
    enumerated.  Any other, which only a loaded document can bring, has
    every flex m-subset checked.  A VerificationError refuses one with fewer
    than 3m left vertices or more than TEMPLATE_EXHAUSTIVE_CAP subsets.
    """
    m, flex = tpl.m, tpl.flex_size
    if flex < m:
        raise VerificationError(f"{tpl.left_size} left vertices are fewer than 3m = {3 * m}")
    top, rows = set(range(2 * m, 3 * m)), tpl.left_adj
    if all(top <= set(r) for r in rows[:flex]) and all(j in r for j, r in enumerate(rows[flex:])):
        return None
    count = math.comb(flex, m)
    if count > TEMPLATE_EXHAUSTIVE_CAP:
        raise VerificationError(f"{count} flex m-subsets exceed the "
                                f"{TEMPLATE_EXHAUSTIVE_CAP} a template check enumerates")
    return next((sub for sub in combinations(range(flex), m)
                 if tpl.slot_matching(sub) is None), None)
