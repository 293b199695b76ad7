"""Graph generators: random graphs and the extremal constructions.

All generators are pure functions of (parameters, seed); identical inputs
produce identical graphs on every platform.
"""

from __future__ import annotations

import json
from typing import Any, Callable, NamedTuple

from .config import is_json_int, is_json_number
from .embed import cliques_of_size
from .graphs import Graph, complete_graph
from .rng import derive_seed, rng_for


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph: each pair independently an edge with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0 or n <= 0:  # Graph(n) refuses a negative n
        return Graph(n)
    if p == 1.0:
        return complete_graph(n)
    rand = rng_for(seed, "gnp", n).random
    bits = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rand() < p:
                bits[u] |= 1 << v
                bits[v] |= 1 << u
    return Graph._from_bits(bits)


def _multipartite_edges(sizes: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """Part boundaries (part i is bounds[i]..bounds[i+1]-1) and every edge
    between distinct parts, in lexicographic order."""
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    edges = [
        (u, v)
        for i in range(len(sizes))
        for j in range(i + 1, len(sizes))
        for u in range(bounds[i], bounds[i + 1])
        for v in range(bounds[j], bounds[j + 1])
    ]
    return bounds, edges


def gen_complete_multipartite(sizes: list[int]) -> Graph:
    """Complete multipartite graph; edges exactly between distinct parts."""
    if not sizes:
        raise ValueError("need at least one part")
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be >= 1")
    bounds, edges = _multipartite_edges(sizes)
    return Graph(bounds[-1], edges)


def gen_two_cliques(n: int) -> Graph:
    """Disjoint union of complete graphs on n/2 - 1 and n/2 + 1 vertices."""
    if n % 2 != 0 or n < 4:
        raise ValueError("n must be even and >= 4")
    a = n // 2 - 1
    edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
    edges += [(u, v) for u in range(a, n) for v in range(u + 1, n)]
    return Graph(n, edges)


def gamma_graph(ell: int, n: int, seed: int) -> Graph:
    """Clique-free core graph: sample G(n, n^(-2/(ell+1))), then break every
    remaining (ell+1)-clique by deleting its lexicographically smallest edge.

    Copies are visited in increasing lexicographic order; a copy already
    broken by an earlier deletion is skipped.  The result never contains a
    clique on ell+1 vertices.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if n < ell + 1:
        raise ValueError("need n >= ell + 1")
    p = n ** (-2.0 / (ell + 1))
    base = gen_gnp(n, p, derive_seed(seed, "gamma", ell, n))
    removed: set[tuple[int, int]] = set()

    def alive(u: int, v: int) -> bool:
        return (u, v) not in removed

    for copy in cliques_of_size(base, ell + 1):
        pairs = [
            (copy[i], copy[j])
            for i in range(len(copy))
            for j in range(i + 1, len(copy))
        ]
        if all(alive(u, v) for u, v in pairs):
            removed.add(min(pairs))
    edges = [e for e in base.edges() if e not in removed]
    return Graph(n, edges)


class GammaReport(NamedTuple):
    """Generation report: clique-freeness certificate plus size parameters."""

    graph: Graph
    ell: int
    max_degree: int
    alpha_ell: int
    alpha_exact: bool


# search-node budget of gen_gamma's alpha_ell report
GAMMA_ALPHA_BUDGET = 50_000


def gen_gamma(ell: int, n: int, seed: int) -> GammaReport:
    """gamma_graph plus a report of its max degree and alpha_ell value.

    alpha_ell is computed by branch and bound under GAMMA_ALPHA_BUDGET search
    nodes; `alpha_exact` says whether the bound is exact or best-found.
    """
    from .invariants import alpha_ell as alpha_ell_solver

    g = gamma_graph(ell, n, seed)
    res = alpha_ell_solver(g, ell, budget=GAMMA_ALPHA_BUDGET)
    max_deg = max((g.degree(v) for v in range(n)), default=0)
    return GammaReport(graph=g, ell=ell, max_degree=max_deg,
                       alpha_ell=res.value, alpha_exact=res.exact)


def decompose_r(r: int, ell: int) -> tuple[int, int]:
    """Write r = x*ell + y with 1 <= y <= ell; returns (x, y)."""
    x = (r - 1) // ell
    y = r - x * ell
    return x, y


def gen_lower_bound_construction(r: int, ell: int, n: int, seed: int) -> Graph:
    """Multipartite host with clique-free cores inside each part.

    With r = x*ell + y (1 <= y <= ell) the host is complete (x+1)-partite
    with part sizes (y*n/r - 1, ell*n/r + 1, ell*n/r, ..., ell*n/r); inside
    each part sits an independently seeded gamma_graph(ell, size).  Requires
    r | n so part sizes are exact integers, and 2 <= ell <= r/2.
    """
    if not (r > ell >= 2):
        raise ValueError("need r > ell >= 2")
    if ell > r / 2:
        raise ValueError("construction requires ell <= r/2")
    if n % r != 0:
        raise ValueError("n must be divisible by r")
    x, y = decompose_r(r, ell)
    unit = n // r
    sizes = [y * unit - 1, ell * unit + 1] + [ell * unit] * (x - 1)
    if sizes[0] < 1:
        raise ValueError("first part would be empty; increase n")

    bounds, edges = _multipartite_edges(sizes)
    # clique-free core inside each part
    for i, s in enumerate(sizes):
        core = gamma_graph(ell, s, derive_seed(seed, "part", i))
        off = bounds[i]
        edges.extend((off + u, off + v) for u, v in core.edges())
    return Graph(n, edges)


def gen_hs_tripartite(n: int) -> Graph:
    """Complete tripartite graph with parts n/3 - 1, n/3, n/3 + 1."""
    if n % 3 != 0 or n < 6:
        raise ValueError("n must be a multiple of 3, n >= 6")
    k = n // 3
    return gen_complete_multipartite([k - 1, k, k + 1])


class Construction(NamedTuple):
    """A named generator: the parameters it reads and its builder."""

    params: tuple[str, ...]
    build: Callable[[dict, int], Graph]   # (params, seed) -> graph


# The builders look gen_* up by module-level name at call time, so a caller
# that rebinds generators.gen_* (a tracer, a test double) sees every call.
# gamma builds the graph alone; gen_gamma's alpha_ell report is for `gen`.
GENERATORS: dict[str, Construction] = {
    "gnp": Construction(("n", "p"), lambda c, seed: gen_gnp(int(c["n"]), float(c["p"]), seed)),
    "complete-multipartite": Construction(
        ("sizes",), lambda c, seed: gen_complete_multipartite([int(s) for s in c["sizes"]])),
    "two-cliques": Construction(("n",), lambda c, seed: gen_two_cliques(int(c["n"]))),
    "hs-tripartite": Construction(("n",), lambda c, seed: gen_hs_tripartite(int(c["n"]))),
    "gamma": Construction(("ell", "n"), lambda c, seed: gamma_graph(int(c["ell"]), int(c["n"]), seed)),
    "lower-bound": Construction(
        ("r", "ell", "n"),
        lambda c, seed: gen_lower_bound_construction(int(c["r"]), int(c["ell"]), int(c["n"]), seed)),
}


def check_param(key: str, value: Any) -> None:
    """Raise ValueError unless the GENERATORS builders read `value` for `key`
    as it is and in range: p a number in [0, 1], sizes a non-empty list of
    integers >= 1, ell and r integers >= 2, any other parameter an integer
    >= 0.  Their int() and float() would otherwise turn 12.9, true or "30"
    into some other graph without a word, and a value out of range would
    fail only once the trials before it had run."""
    if key == "p":
        want = "a number in [0, 1]"
        ok = is_json_number(value) and 0 <= value <= 1
    elif key == "sizes":
        want = "a list of integers >= 1, with at least one part"
        ok = isinstance(value, list) and value != [] and all(
            is_json_int(s) and s >= 1 for s in value)
    else:
        lo = 2 if key in ("ell", "r") else 0
        want = f"an integer >= {lo}"
        ok = is_json_int(value) and value >= lo
    if not ok:
        raise ValueError(f"grid parameter {key!r} value {json.dumps(value)} is not {want}")
