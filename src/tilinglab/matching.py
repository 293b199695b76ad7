"""Bipartite maximum matching by Kuhn's augmenting paths, one left vertex at
a time.  No package module calls it: the template's one-survivor matching
is a formula.  It stays because perfbench's tracer lists it as a layer, and
the tests' matching oracle uses it."""

from __future__ import annotations

from typing import Sequence


def max_bipartite_matching(n_left: int, n_right: int,
                           adj: Sequence[Sequence[int]]) -> tuple[int, list[int], list[int]]:
    """Maximum matching of the bipartite graph left -> adj[left].

    Returns (size, pair_left, pair_right) where pair_left[u] is the right
    vertex matched to u (or -1), and symmetrically for pair_right.  Left
    vertices are matched in index order, so on a complete graph with sorted
    rows the k-th left vertex gets right vertex k."""
    pair_l = [-1] * n_left
    pair_r = [-1] * n_right
    size = sum(_augment(adj, pair_l, pair_r, u) for u in range(n_left))
    return size, pair_l, pair_r


def _augment(adj: Sequence[Sequence[int]], pair_l: list[int], pair_r: list[int], u: int) -> bool:
    """Match the free left vertex u along a shortest augmenting path, found
    by breadth-first search, so its first free neighbour when it has one;
    False when there is none.  No recursion, so no depth limit."""
    came_from: dict[int, int] = {}  # right vertex -> the left vertex that reached it
    queue = [u]
    for w in queue:  # the queue grows while it is read
        for v in adj[w]:
            if v not in came_from:
                came_from[v] = w
                if pair_r[v] == -1:
                    while v != -1:  # flip the path back to u
                        w = came_from[v]
                        pair_l[w], pair_r[v], v = v, w, pair_l[w]
                    return True
                queue.append(pair_r[v])
    return False
