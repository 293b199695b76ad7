"""Robust bipartite templates.

A template is a bounded-degree bipartite graph on (flex + core, slots) such
that every m-subset of the flex side, together with the core side, has a
perfect matching onto the slots.  The package builds one shape, fixed by
the round size m and the flex size, so it draws no random number and no
document stores it.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .config import StageFailure
from .matching import max_bipartite_matching


class TemplateGraph(NamedTuple):
    """The sparse template on (flex + core, slots), the simplest form of
    Montgomery's ("Spanning trees in random graphs", Adv. Math. 2019).
    Left rows 0..flex_size-1 are the flex side, each joined to the m top
    slots 2m..3m-1; core row flex_size + j is joined to slot j alone.  Sizes:
    core = 2m, slots = 3m, and the maximum degree is flex_size, the top
    slots'.  It is robust by Hall's condition: core j takes slot j, and any
    m flex rows take the complete m x m block on the top slots.  The two
    numbers fix it, so a structure derives it from its core and buffer.
    """

    m: int
    flex_size: int

    @property
    def surplus(self) -> int:
        return self.flex_size - self.m

    @property
    def slot_count(self) -> int:
        return 3 * self.m

    @property
    def left_adj(self) -> tuple[tuple[int, ...], ...]:
        """The slots of each left row: the flex rows, then the core."""
        top = tuple(range(2 * self.m, 3 * self.m))
        return (top,) * self.flex_size + tuple((j,) for j in range(2 * self.m))

    def edges(self) -> list[tuple[int, int]]:
        return [(l, r) for l, row in enumerate(self.left_adj) for r in row]

    def slot_matching(self, flex_subset: Iterable[int]) -> dict[int, int] | None:
        """Perfect matching of (flex_subset + core) onto the slots, as
        {left index: slot}: core j on slot j and the k-th chosen flex index
        on slot 2m + k; None when Kuhn's matcher finds none, which Hall's
        condition rules out."""
        chosen = sorted(set(flex_subset))
        if len(chosen) != self.m or any(not 0 <= i < self.flex_size for i in chosen):
            raise ValueError("flex subset must pick exactly m flex indices")
        left = chosen + list(range(self.flex_size, self.flex_size + 2 * self.m))
        rows = self.left_adj
        size, pair_l, _ = max_bipartite_matching(len(left), self.slot_count,
                                                 [rows[l] for l in left])
        return dict(zip(left, pair_l)) if size == self.slot_count else None


def _surplus_of(m: int, beta: float) -> int:
    return math.ceil(beta * m)


def build_template(m: int, beta: float) -> TemplateGraph:
    """The template at round size m and flex side m + ceil(beta*m), the one
    place that sets the flex size.  It has m*flex + 2m edges, and its
    maximum degree is the flex size: a flex side past the degree bound of 40
    raises StageFailure("template"), and a beta that is negative or not
    finite ValueError.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, not {beta}")
    flex = m + _surplus_of(m, beta)
    if flex > 40:
        raise StageFailure("template", f"a flex side of {flex} exceeds the degree bound of 40")
    return TemplateGraph(m=m, flex_size=flex)
