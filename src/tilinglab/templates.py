"""Robust bipartite templates.

A template is a bounded-degree bipartite graph on (flex + core, slots) such
that every m-subset of the flex side, together with the core side, has a
perfect matching onto the slots.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .config import TEMPLATE_RETRIES, StageFailure
from .matching import max_bipartite_matching
from .rng import rng_for
from .verify import VerificationError, check_template


class TemplateGraph(NamedTuple):
    """Bipartite template on (flex + core, slots) with the robust property:
    for every m-subset F of the flex side, (F + core, slots) has a perfect
    matching.  Sizes: flex = m + surplus, core = 2m, slots = 3m; maximum
    degree at most 40.  A template is its round size and adjacency; a build
    and `verify` certify the property with verify.check_template.
    """

    m: int
    left_adj: tuple[tuple[int, ...], ...]

    @property
    def surplus(self) -> int:
        return self.left_size - 3 * self.m

    @property
    def flex_size(self) -> int:
        return self.m + self.surplus

    @property
    def core_size(self) -> int:
        return 2 * self.m

    @property
    def slot_count(self) -> int:
        return 3 * self.m

    @property
    def left_size(self) -> int:
        return len(self.left_adj)

    @property
    def max_degree(self) -> int:
        right_deg = [0] * self.slot_count
        best = 0
        for nbrs in self.left_adj:
            best = max(best, len(nbrs))
            for r in nbrs:
                right_deg[r] += 1
        return max(best, max(right_deg, default=0))

    def edges(self) -> list[tuple[int, int]]:
        return [(l, r) for l in range(self.left_size) for r in self.left_adj[l]]

    def slot_matching(self, flex_subset: Iterable[int]) -> dict[int, int] | None:
        """Perfect matching of (flex_subset + core) onto the slots, as
        {left index: slot}, or None when there is none."""
        chosen = sorted(set(flex_subset))
        if len(chosen) != self.m or any(not 0 <= i < self.flex_size for i in chosen):
            raise ValueError("flex subset must pick exactly m flex indices")
        left = chosen + list(range(self.flex_size, self.left_size))
        adj = [self.left_adj[l] for l in left]
        size, pair_l, _ = max_bipartite_matching(len(left), self.slot_count, adj)
        return dict(zip(left, pair_l)) if size == self.slot_count else None


def _surplus_of(m: int, beta: float) -> int:
    return math.ceil(beta * m)


# left degree of a random-regular template
TEMPLATE_DEGREE = 12


def build_template(m: int, beta: float, seed: int = 0) -> TemplateGraph:
    """Build a robust template at round size m and surplus ceil(beta*m).

    When 3m + ceil(beta*m) <= 40 the template is complete bipartite: every
    left vertex is joined to every slot, so the degree-40 bound holds and
    the robust property is immediate from Hall's condition.  Otherwise it
    is random-regular: a configuration-style pairing with all degrees in
    [8, 40], resampled up to TEMPLATE_RETRIES times until check_template
    certifies it on every flex m-subset.  A template too large to check, or
    no certified sample, raises StageFailure("template").
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    left = 3 * m + _surplus_of(m, beta)
    slots = 3 * m

    if left <= 40:
        adj = tuple(tuple(range(slots)) for _ in range(left))
        tpl = TemplateGraph(m=m, left_adj=adj)
        bad = check_template(tpl)
        if bad is not None:
            raise StageFailure("template", "flex subset without perfect matching", blocking=bad)
        return tpl

    for attempt in range(TEMPLATE_RETRIES):
        rng = rng_for(seed, "template", attempt)
        total = TEMPLATE_DEGREE * left
        right_stubs: list[int] = []
        base, extra = divmod(total, slots)
        for r in range(slots):
            right_stubs.extend([r] * (base + (1 if r < extra else 0)))
        rng.shuffle(right_stubs)
        adj_sets: list[set[int]] = [set() for _ in range(left)]
        idx = 0
        for l in range(left):
            for _ in range(TEMPLATE_DEGREE):
                adj_sets[l].add(right_stubs[idx])
                idx += 1
        left_deg = [len(s) for s in adj_sets]
        right_deg = [0] * slots
        for s in adj_sets:
            for r in s:
                right_deg[r] += 1
        degs = left_deg + right_deg
        if min(degs) < 8 or max(degs) > 40:
            continue
        adj = tuple(tuple(sorted(s)) for s in adj_sets)
        tpl = TemplateGraph(m=m, left_adj=adj)
        try:
            bad = check_template(tpl)
        except VerificationError as exc:  # too many flex subsets to check
            raise StageFailure("template", str(exc)) from None
        if bad is None:
            return tpl
    raise StageFailure(
        "template", f"no verified template after {TEMPLATE_RETRIES} samples (m={m}, beta={beta})"
    )
