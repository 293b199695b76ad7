"""Robust bipartite templates.

A template is a bipartite graph on (flex + core, slots) such that any one
flex row, together with the core side, has a perfect matching onto the
slots.  The package builds one shape, fixed by the flex size, so it draws
no random number and no document stores it.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class TemplateGraph(NamedTuple):
    """The sparse template on (flex + core, slots), the simplest form of
    Montgomery's ("Spanning trees in random graphs", Adv. Math. 2019), at
    round size one.  Left rows 0..flex_size-1 are the flex side, each
    joined to slot 2; core rows flex_size and flex_size + 1 are joined to
    slots 0 and 1.  It has surplus + 3 edges, and any one flex row with the
    core takes the three slots.  The flex size fixes it, so a structure
    derives it from its buffer.
    """

    flex_size: int

    @property
    def surplus(self) -> int:
        return self.flex_size - 1

    def edges(self) -> list[tuple[int, int]]:
        flex = self.flex_size
        return [(l, 2) for l in range(flex)] + [(flex, 0), (flex + 1, 1)]

    def slot_matching(self, survivor: int) -> dict[int, int]:
        """Perfect matching of the survivor's flex row and the core onto the
        slots, as {left index: slot}."""
        if not 0 <= survivor < self.flex_size:
            raise ValueError(f"survivor {survivor} is not a flex index below {self.flex_size}")
        return {survivor: 2, self.flex_size: 0, self.flex_size + 1: 1}


def build_template(beta: float) -> TemplateGraph:
    """The template with flex side 1 + ceil(beta), the one place that sets
    the flex size; a beta that is negative or not finite raises ValueError."""
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, not {beta}")
    return TemplateGraph(flex_size=1 + math.ceil(beta))
