"""Robust bipartite templates.

A template is a bounded-degree bipartite graph on (flex + core, slots) such
that every m-subset of the flex side, together with the core side, has a
perfect matching onto the slots.  The builder draws no random number.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .config import StageFailure
from .matching import max_bipartite_matching
from .verify import check_template


class TemplateGraph(NamedTuple):
    """Bipartite template on (flex + core, slots) with the robust property:
    for every m-subset F of the flex side, (F + core, slots) has a perfect
    matching.  Sizes: flex = m + surplus, core = 2m, slots = 3m; maximum
    degree at most 40.  Rows 0..flex-1 of left_adj are the flex side, the
    rest the core; a build and `verify` certify the property with
    verify.check_template.
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


def build_template(m: int, beta: float) -> TemplateGraph:
    """Build a robust template at round size m and flex side m + ceil(beta*m).

    When 3m + ceil(beta*m) <= 40 the template is complete bipartite: every
    left vertex is joined to every slot.  Otherwise, when the flex side is
    at most 40, it is sparse: core vertex j is joined to slot j alone, and
    every flex vertex to the m top slots 2m..3m-1, so its maximum degree is
    the flex size.  Both are robust by Hall's condition, which
    check_template reads off their rows.  A flex side past the degree bound
    of 40 raises StageFailure("template"), and a beta that is negative or
    not finite ValueError.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, not {beta}")
    flex = m + _surplus_of(m, beta)
    if 2 * m + flex <= 40:
        adj = (tuple(range(3 * m)),) * (2 * m + flex)
    elif flex <= 40:
        adj = (tuple(range(2 * m, 3 * m)),) * flex + tuple((j,) for j in range(2 * m))
    else:
        raise StageFailure("template", f"a flex side of {flex} exceeds the degree bound of 40")
    tpl = TemplateGraph(m=m, left_adj=adj)
    bad = check_template(tpl)
    if bad is not None:
        raise StageFailure("template", "flex subset without perfect matching", blocking=bad)
    return tpl
