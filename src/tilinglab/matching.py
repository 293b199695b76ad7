"""Bipartite maximum matching via Hopcroft-Karp augmenting paths."""

from __future__ import annotations

from collections import deque

INF = -1


def max_bipartite_matching(
    n_left: int,
    n_right: int,
    adj: list[list[int]],
) -> tuple[int, list[int], list[int]]:
    """Maximum matching of the bipartite graph left -> adj[left].

    Returns (size, pair_left, pair_right) where pair_left[u] is the right
    vertex matched to u (or -1), and symmetrically for pair_right.
    """
    pair_l = [-1] * n_left
    pair_r = [-1] * n_right
    dist = [0] * n_left

    def bfs() -> bool:
        q: deque[int] = deque()
        for u in range(n_left):
            if pair_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        reachable_free = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = pair_r[v]
                if w == -1:
                    reachable_free = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return reachable_free

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = pair_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_l[u] = v
                pair_r[v] = u
                return True
        dist[u] = INF
        return False

    size = 0
    while bfs():
        for u in range(n_left):
            if pair_l[u] == -1 and dfs(u):
                size += 1
    del dfs  # dfs refers to itself; dropping the name frees it without the gc
    return size, pair_l, pair_r
