import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cliques_bruteforce,
    copy_sets_through_bruteforce,
    embeddings_bruteforce,
    factor_exists_bruteforce,
    induced_subgraph_reference,
    traversing_copy_bruteforce,
    traversing_copy_fixed_reference,
)
from tilinglab import absorption
from tilinglab.embed import (
    cliques_of_size,
    copy_sets_through,
    embeddings,
    traversing_copy,
    traversing_copy_fixed,
)
from tilinglab.factor import find_factor_exact, greedy_max_tiling
from tilinglab.generators import gen_complete_multipartite, gen_gnp, gen_two_cliques
from tilinglab.graphs import Graph, Pattern, complete_graph, parse_graph, vertex_mask
from tilinglab.rng import rng_for
from tilinglab.verify import VerificationError, verify_tiling


class TestExactFactor:
    def test_k6_two_triangles(self, k3):
        res = find_factor_exact(complete_graph(6), k3)
        assert res.found and len(res.tiling) == 2
        verify_tiling(complete_graph(6), res.tiling, require_factor=True)

    def test_tripartite_345_has_none(self, k3):
        res = find_factor_exact(gen_complete_multipartite([3, 4, 5]), k3)
        assert res.status == "none"

    def test_two_cliques_has_none(self, k3):
        res = find_factor_exact(gen_two_cliques(12), k3)
        assert res.status == "none"

    def test_c4_perfect_matching(self, k2):
        c4 = parse_graph("4 4\n0 1\n1 2\n2 3\n0 3")
        res = find_factor_exact(c4, k2)
        assert res.found and len(res.tiling) == 2

    def test_indivisible_is_none(self, k3):
        res = find_factor_exact(complete_graph(7), k3)
        assert res.status == "none" and res.nodes == 0

    def test_deep_factor_runs_under_the_recursion_limit(self, k3):
        # 1,010 disjoint triangles: the search places 1,010 copies in a row
        g = Graph(3030, [(3 * i + a, 3 * i + b) for i in range(1010)
                         for a, b in ((0, 1), (0, 2), (1, 2))])
        res = find_factor_exact(g, k3)
        assert (res.status, res.nodes, len(res.tiling)) == ("factor", 1010, 1010)
        verify_tiling(g, res.tiling, require_factor=True)

    def test_budget_reported_distinctly(self, k3):
        g = gen_complete_multipartite([4, 4, 4])
        res = find_factor_exact(g, k3, budget=2)
        assert res.status == "budget"

    def test_deterministic(self, k3):
        g = gen_gnp(12, 0.7, 5)
        a = find_factor_exact(g, k3)
        b = find_factor_exact(g, k3)
        assert a.status == b.status
        if a.found:
            assert a.tiling.copies == b.tiling.copies

    def test_general_pattern_factor(self, c4_pattern):
        # two disjoint 4-cycles
        g = parse_graph("8 8\n0 1\n1 2\n2 3\n0 3\n4 5\n5 6\n6 7\n4 7")
        res = find_factor_exact(g, c4_pattern)
        assert res.found and len(res.tiling) == 2
        verify_tiling(g, res.tiling, require_factor=True)

    def test_agrees_with_bruteforce_corpus(self, k2, k3):
        k4 = Pattern.clique(4)
        rng = rng_for(77, "factor-corpus")
        checked = 0
        for i in range(150):
            p = (k2, k3, k4)[i % 3]
            n = p.h * rng.randrange(1, 8 // p.h + 1)
            gp = rng.uniform(0.2, 0.9)
            g = gen_gnp(n, gp, rng.randrange(10**9))
            res = find_factor_exact(g, p)
            assert res.status in ("factor", "none")
            assert res.found == factor_exists_bruteforce(g, p), (i, n)
            if res.found:
                verify_tiling(g, res.tiling, require_factor=True)
            checked += 1
        assert checked == 150

    def test_matches_matching_oracle(self, k2):
        import networkx as nx

        rng = rng_for(31, "matching-cross")
        for i in range(200):
            n = 2 * rng.randrange(2, 21)
            g = gen_gnp(n, rng.uniform(0.1, 0.9), rng.randrange(10**9))
            res = find_factor_exact(g, k2)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(g.edges())
            matching = nx.max_weight_matching(nxg, maxcardinality=True)
            assert res.found == (2 * len(matching) == n), i


# The exact search's branch order: the status, node count and tiling of
# find_factor_exact on four instances, and one _disjoint_copies result.  A
# change to the order in which the search tries anchors or copies changes
# these values, and should do so on purpose.
P3 = Pattern(parse_graph("3 2\n0 1\n1 2\n"))
C4 = Pattern(parse_graph("4 4\n0 1\n1 2\n2 3\n0 3"))


@pytest.mark.parametrize("pattern,graph,status,nodes,copies", [
    (Pattern.clique(3), (30, 0.6, 0), "factor", 101,
     ((0, 2, 4), (1, 3, 10), (5, 8, 12), (6, 7, 9), (11, 14, 15), (13, 16, 17),
      (18, 21, 29), (19, 20, 23), (22, 24, 27), (25, 26, 28))),
    (P3, (30, 0.5, 0), "factor", 20,
     ((0, 8, 1), (3, 2, 4), (5, 22, 6), (9, 7, 11), (12, 10, 16), (13, 17, 14),
      (15, 20, 18), (19, 23, 24), (27, 21, 29), (26, 25, 28))),
    (C4, (28, 0.5, 1), "factor", 36,
     ((0, 1, 4, 2), (3, 7, 5, 9), (6, 10, 8, 12), (11, 16, 13, 17), (14, 21, 19, 26),
      (15, 23, 18, 25), (20, 22, 24, 27))),
    (C4, (16, 0.25, 0), "none", 91, None),
], ids=["K3", "P3", "C4", "C4-none"])
def test_exact_search_branch_order(pattern, graph, status, nodes, copies):
    res = find_factor_exact(gen_gnp(*graph), pattern)
    assert (res.status, res.nodes) == (status, nodes)
    assert (None if res.tiling is None else res.tiling.copies) == copies


def test_disjoint_copies_branch_order():
    # anchors outside the pool, two of them passed over
    got = absorption._disjoint_copies(gen_gnp(18, 0.3, 4), C4, range(5), range(5, 18), 3, 2)
    assert got == [(1, 13, 9, 16), (2, 11, 7, 14), (3, 5, 10, 8)]


class TestGreedyTiling:
    def test_k9_tiles_fully(self, k3):
        t = greedy_max_tiling(complete_graph(9), k3)
        assert len(t) == 3
        assert sorted(set(range(9)) - t.covered) == []

    def test_triangle_free_leaves_everything(self, k3):
        k66 = gen_complete_multipartite([6, 6])
        t = greedy_max_tiling(k66, k3)
        assert len(t) == 0
        assert len(sorted(set(range(k66.n)) - t.covered)) == 12

    def test_leftover_has_no_copy(self, k3):
        for seed in range(10):
            g = gen_gnp(21, 0.35, seed)
            t = greedy_max_tiling(g, k3)
            left = sorted(set(range(g.n)) - t.covered)
            assert next(cliques_of_size(g, 3, vertex_mask(left)), None) is None
            verify_tiling(g, t)

    def test_respects_forbidden(self, k3):
        g = complete_graph(12)
        t = greedy_max_tiling(g, k3, forbidden=range(6))
        assert t.covered.isdisjoint(range(6))
        verify_tiling(g, t)

    def test_index_order_tiling(self, k3):
        # each copy is the first through the lowest vertex still available
        g = gen_gnp(18, 0.6, 2)
        t = greedy_max_tiling(g, k3)
        verify_tiling(g, t)
        assert t.copies == ((0, 2, 3), (1, 4, 5), (6, 10, 12), (7, 8, 13), (9, 11, 14))


class TestTraversing:
    def test_k9_singletons(self, k9, k3):
        emb = traversing_copy_fixed(k9, k3, [[0], [1], [2]])
        assert emb == (0, 1, 2)

    def test_bipartite_none(self, k3):
        k66 = gen_complete_multipartite([6, 6])
        assert traversing_copy_fixed(k66, k3, [[0, 1], [4, 5], [8, 9]]) is None

    def test_multipartite_parts(self, k3):
        g = gen_complete_multipartite([4, 4, 4])
        parts = [list(range(0, 4)), list(range(4, 8)), list(range(8, 12))]
        emb = traversing_copy_fixed(g, k3, parts)
        assert emb is not None
        assert [emb[i] in parts[i] for i in range(3)] == [True] * 3

    def test_any_assignment_needed_for_general_patterns(self):
        # path on 3 vertices: ends must go to the degree-1 slots
        p3path = Pattern(parse_graph("3 2\n0 1\n1 2"))
        g = parse_graph("3 2\n0 1\n1 2")
        parts = [[0], [2], [1]]  # fixed assignment fails, permuted succeeds
        assert traversing_copy_fixed(g, p3path, parts) is None
        assert traversing_copy(g, p3path, parts) is not None


@st.composite
def small_graph_and_pattern(draw):
    """A graph on 1..10 vertices and a pattern on 2..4 vertices, a clique
    about half the time."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, k in zip(pairs, keep) if k])
    h = draw(st.integers(2, 4))
    if draw(st.booleans()):
        return g, Pattern.clique(h)
    ppairs = [(i, j) for i in range(h) for j in range(i + 1, h)]
    pkeep = draw(st.lists(st.booleans(), min_size=len(ppairs), max_size=len(ppairs)))
    return g, Pattern(Graph(h, [e for e, k in zip(ppairs, pkeep) if k]))


@st.composite
def host_and_pattern(draw):
    """(edges, g, p): an edge set as (u, v) with u < v, the graph on 1..10
    vertices built from it, and a pattern on 2..4 vertices."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {e for e, k in zip(pairs, keep) if k}
    h = draw(st.integers(2, 4))
    ppairs = [(i, j) for i in range(h) for j in range(i + 1, h)]
    pkeep = draw(st.lists(st.booleans(), min_size=len(ppairs), max_size=len(ppairs)))
    return edges, Graph(n, edges), Pattern(Graph(h, [e for e, k in zip(ppairs, pkeep) if k]))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestEmbedderMatchesReferences:
    """traversing_copy_fixed returns exactly what the search it replaced
    returns, None and errors included."""

    @settings(max_examples=300, deadline=None)
    @given(small_graph_and_pattern(), st.data())
    def test_traversing_copy_fixed(self, gp, data):
        g, p = gp
        count = data.draw(st.sampled_from([p.h] * 4 + [p.h - 1, p.h + 1]))
        # parts may be empty, overlap, and repeat a vertex
        part = st.lists(st.integers(0, g.n - 1), max_size=g.n + 1)
        parts = data.draw(st.lists(part, min_size=count, max_size=count))
        assert (outcome(traversing_copy_fixed, g, p, parts)
                == outcome(traversing_copy_fixed_reference, g, p, parts))


class TestBitsetKernelsMatchBruteForce:
    """The mask-based clique and embedding searches return the same tuples,
    in the same order, as filters over combinations and permutations of a
    graph's input edge set."""

    @settings(max_examples=200, deadline=None)
    @given(host_and_pattern(), st.integers(1, 4), st.data())
    def test_cliques_of_size(self, host, k, data):
        edges, g, _ = host
        allowed = data.draw(st.none() | st.lists(st.integers(0, g.n - 1)), label="allowed")
        require = data.draw(st.none() | st.integers(0, g.n - 1), label="require")
        mask = None if allowed is None else vertex_mask(allowed)
        assert (list(cliques_of_size(g, k, mask, require))
                == cliques_bruteforce(g.n, edges, k, allowed, require))

    @settings(max_examples=200, deadline=None)
    @given(host_and_pattern(), st.data())
    def test_traversing_copy_fixed(self, host, data):
        edges, g, p = host
        part = st.lists(st.integers(0, g.n - 1), max_size=g.n + 1)
        parts = data.draw(st.lists(part, min_size=p.h, max_size=p.h), label="parts")
        assert (traversing_copy_fixed(g, p, parts)
                == traversing_copy_bruteforce(g.n, edges, p, parts))

    @settings(max_examples=200, deadline=None)
    @given(host_and_pattern(), st.data())
    def test_embeddings(self, host, data):
        edges, g, p = host
        allowed = data.draw(st.none() | st.lists(st.integers(0, g.n - 1)), label="allowed")
        anchor = data.draw(st.integers(0, g.n - 1), label="anchor")
        mask = (1 << g.n) - 1 if allowed is None else vertex_mask(allowed)
        assert (list(embeddings(g, p, mask, anchor=anchor))
                == embeddings_bruteforce(g.n, edges, p, allowed, anchor))

    @settings(max_examples=200, deadline=None)
    @given(host_and_pattern(), st.data())
    def test_copy_sets_through(self, host, data):
        # a disconnected pattern keeps the search from being cut to a ball
        _, g, p = host
        dropped = data.draw(st.sets(st.integers(0, g.n - 1), max_size=3), label="dropped")
        allowed = frozenset(range(g.n)) - dropped
        anchor = data.draw(st.integers(0, g.n - 1), label="anchor")
        assert (list(copy_sets_through(g, p, anchor, vertex_mask(allowed)))
                == copy_sets_through_bruteforce(g, p, anchor, allowed))


class TestCopySetsThrough:
    PATTERNS = {
        "K3": "3 3\n0 1\n1 2\n0 2",
        "P3": "3 2\n0 1\n1 2",
        "C4": "4 4\n0 1\n1 2\n2 3\n0 3",
    }

    def test_returns_an_iterator(self, k9, k3, c4_pattern):
        for p in (k3, c4_pattern):
            it = copy_sets_through(k9, p, 0, (1 << 9) - 1)
            assert iter(it) is it
            assert next(it)[0] == tuple(range(p.h))

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_matches_bruteforce_on_gnp(self, name):
        p = Pattern(parse_graph(self.PATTERNS[name]))
        rng = rng_for(23, "copy-sets", name)
        for i in range(40):
            n = rng.randrange(4, 11)
            g = gen_gnp(n, rng.uniform(0.2, 0.9), rng.randrange(10**9))
            allowed = frozenset(v for v in range(n) if rng.random() < 0.8)
            anchor = rng.randrange(n)
            got = list(copy_sets_through(g, p, anchor, vertex_mask(allowed)))
            assert got == copy_sets_through_bruteforce(g, p, anchor, allowed), (name, i)


class TestFactorWithin:
    """find_factor_exact inside a vertex mask searches as it does on the
    induced subgraph: the same status and node count, and the same copies
    once mapped back through the subgraph's order."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 14), st.floats(0.2, 0.9), st.integers(0, 10**6),
           st.sampled_from(sorted(TestCopySetsThrough.PATTERNS)), st.data())
    def test_matches_induced_subgraph(self, n, q, seed, name, data):
        g = gen_gnp(n, q, seed)
        p = Pattern(parse_graph(TestCopySetsThrough.PATTERNS[name]))
        s = data.draw(st.sets(st.integers(0, n - 1)), label="S")
        got = find_factor_exact(g, p, within=vertex_mask(s))
        sub, order = induced_subgraph_reference(g, s)
        want = find_factor_exact(sub, p)
        assert (got.status, got.nodes) == (want.status, want.nodes)
        if want.found:
            assert got.tiling.copies == tuple(tuple(order[i] for i in emb)
                                              for emb in want.tiling.copies)
        if len(s) % p.h:
            assert (got.status, got.nodes) == ("none", 0)

    def test_vertex_outside_the_graph(self, k3):
        with pytest.raises(ValueError, match="outside the graph"):
            find_factor_exact(complete_graph(6), k3, within=vertex_mask([0, 1, 6]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.3, 0.9))
def test_factor_verifier_rejects_tampering(seed, p):
    k3 = Pattern.clique(3)
    g = gen_gnp(9, p, seed)
    res = find_factor_exact(g, k3)
    if not res.found:
        return
    tampered = list(res.tiling.copies)
    a = list(tampered[0])
    a[0] = tampered[-1][0]  # duplicate a vertex across copies
    tampered[0] = tuple(a)
    from tilinglab.factor import Tiling

    with pytest.raises(VerificationError):
        verify_tiling(g, Tiling(pattern=k3, copies=tuple(tampered)),
                      require_factor=True)
