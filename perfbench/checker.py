"""Certificate checker of the benchmark, independent of tilinglab.

It imports nothing from tilinglab: graphs arrive as a vertex count plus an
edge list, patterns as an edge list on 0..h-1, and instances with a known
answer carry the parameters of their construction.  The checker rebuilds the
construction from those parameters, compares it with the graph the program
was given, and derives the answer from the construction alone (counting
arguments, never search).

Any disagreement raises CertificateError; the benchmark turns that into a
non-zero exit instead of counting it as a failed instance.
"""

from __future__ import annotations

from itertools import combinations


class CertificateError(Exception):
    """A certificate or verdict the program emitted is wrong."""


def _edge_set(edges) -> set[tuple[int, int]]:
    return {(u, v) if u < v else (v, u) for u, v in edges}


def check_copies(n: int, edges, pattern_edges, h: int, copies, cover) -> None:
    """Copies are injective maps of the pattern into the graph, pairwise
    disjoint, and together cover exactly the vertex set `cover`."""
    es = _edge_set(edges)
    seen: set[int] = set()
    for ci, emb in enumerate(copies):
        if len(emb) != h or len(set(emb)) != h:
            raise CertificateError(f"copy {ci} is not an injective map of {h} vertices")
        for v in emb:
            if not 0 <= v < n:
                raise CertificateError(f"copy {ci} uses vertex {v} outside 0..{n - 1}")
            if v in seen:
                raise CertificateError(f"copy {ci} reuses vertex {v}")
            seen.add(v)
        for a, b in pattern_edges:
            u, v = emb[a], emb[b]
            if (min(u, v), max(u, v)) not in es:
                raise CertificateError(f"copy {ci} maps pattern edge ({a},{b}) to non-edge ({u},{v})")
    if seen != set(cover):
        missing = sorted(set(cover) - seen)[:5]
        extra = sorted(seen - set(cover))[:5]
        raise CertificateError(f"copies do not cover the required set: missing {missing}, extra {extra}")


def _multipartite_edges(sizes) -> set[tuple[int, int]]:
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    return {
        (u, v)
        for i, j in combinations(range(len(sizes)), 2)
        for u in range(bounds[i], bounds[i + 1])
        for v in range(bounds[j], bounds[j + 1])
    }


def _clique_edges(vertices) -> set[tuple[int, int]]:
    return set(combinations(sorted(vertices), 2))


def _lower_bound_sizes(r: int, ell: int, n: int) -> list[int]:
    x = (r - 1) // ell
    y = r - x * ell
    unit = n // r
    return [y * unit - 1, ell * unit + 1] + [ell * unit] * (x - 1)


def known_answer(kind: str, params: dict, n: int, edges, h: int, pattern_is_clique: bool) -> str | None:
    """'factor' or 'none' when the construction settles existence, else None.

    Raises CertificateError when the graph is not the construction its
    parameters describe, since the known answer would then not apply.
    """
    if n % h:
        return "none"
    es = _edge_set(edges)
    if kind == "complete":
        if es != _clique_edges(range(n)):
            raise CertificateError(f"graph is not K_{n}")
        return "factor"
    if kind == "multipartite":
        # complete r-partite host, K_r pattern: every copy takes one vertex
        # from each part, so a factor exists iff the parts are equal
        sizes = params["sizes"]
        if es != _multipartite_edges(sizes) or not pattern_is_clique or h != len(sizes):
            raise CertificateError(f"graph is not complete multipartite {sizes} with K_{len(sizes)}")
        return "factor" if len(set(sizes)) == 1 else "none"
    if kind == "two-cliques":
        a = n // 2 - 1
        if es != _clique_edges(range(a)) | _clique_edges(range(a, n)) or not pattern_is_clique:
            raise CertificateError("graph is not the two-cliques construction")
        return "factor" if a % h == 0 and (n - a) % h == 0 else "none"
    if kind == "lower-bound":
        # parts are complete to each other and K_(ell+1)-free inside, so a
        # K_r copy takes at most ell vertices of each of the x later parts
        # and at least y of the first part; n/r copies need y*n/r vertices
        # there, one more than it has
        r, ell = params["r"], params["ell"]
        sizes = _lower_bound_sizes(r, ell, n)
        across = _multipartite_edges(sizes)
        if not across <= es or not pattern_is_clique or h != r:
            raise CertificateError("graph is not the lower-bound construction")
        inner = es - across
        bounds = [0]
        for s in sizes:
            bounds.append(bounds[-1] + s)
        part_of = {v: i for i in range(len(sizes)) for v in range(bounds[i], bounds[i + 1])}
        if any(part_of[u] != part_of[v] for u, v in inner):
            raise CertificateError("lower-bound construction has an unexpected cross edge")
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in inner:
            adj[u].add(v)
            adj[v].add(u)
        if ell != 2:
            raise CertificateError("only ell = 2 lower-bound instances are checked")
        if any(adj[u] & adj[v] for u, v in inner):
            raise CertificateError("a part of the lower-bound construction contains a triangle")
        return "none"
    if kind == "random":
        return None
    raise CertificateError(f"no known-answer rule for instance kind {kind!r}")
