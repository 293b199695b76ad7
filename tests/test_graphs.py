import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gen_gnp_reference, has_clique, induced_subgraph_reference, lower_bound_parts
from tilinglab.generators import (
    decompose_r,
    gamma_graph,
    gen_complete_multipartite,
    gen_gnp,
    gen_hs_tripartite,
    gen_lower_bound_construction,
    gen_two_cliques,
)
from tilinglab.graphs import (
    Graph,
    GraphParseError,
    Pattern,
    complete_graph,
    emit_graph,
    induced_subgraph,
    parse_graph,
)
from tilinglab.invariants import max_clique, min_degree
from tilinglab.serialize import pattern_from_obj, pattern_to_obj


def graphs_strategy(max_n=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                     else st.just([]))
        return Graph(n, edges)

    return build()


@st.composite
def edge_lists(draw, max_n=12):
    """(n, edges) with each edge in either orientation, repeats allowed."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=40) if pairs else st.just([]))
    return n, edges


class TestGraphCore:
    """Adjacency is the one stored fact; m, edges(), == and hash read it."""

    @settings(max_examples=100, deadline=None)
    @given(edge_lists(), st.randoms(use_true_random=False))
    def test_derived_facts(self, n_edges, rnd):
        n, edges = n_edges
        g = Graph(n, edges)
        want = {(min(u, v), max(u, v)) for u, v in edges}
        assert g.edges() == sorted(want)
        assert g.m == len(want)
        reordered = [(v, u) for u, v in edges] + edges[: len(edges) // 2]
        rnd.shuffle(reordered)
        same = Graph(n, reordered)
        assert same == g and hash(same) == hash(g)
        assert Graph(n + 1, edges) != g

    @settings(max_examples=100, deadline=None)
    @given(edge_lists())
    def test_adjacency_queries(self, n_edges):
        n, edges = n_edges
        g = Graph(n, edges)
        want = {(min(u, v), max(u, v)) for u, v in edges}
        assert g.edges() == sorted(want)
        for u in range(n):
            nbrs = sorted({v for e in want for v in e if u in e and v != u})
            assert g.neighbors(u) == tuple(nbrs)
            assert g.degree(u) == len(nbrs)
            for v in range(n):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in want)

    def test_gnp120_memory(self):
        # the edge list is not stored next to the adjacency sets: 1.12 MiB
        # with both, 0.60 MiB with adjacency alone
        gen_gnp(5, 0.5, 0)
        gc.collect()
        tracemalloc.start()
        try:
            g = gen_gnp(120, 0.7, 3)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m > 4000
        assert held < 0.85 * 2**20

    def test_gnp120_bitset_memory(self):
        # one int per vertex instead of a frozenset: 0.60 MiB -> about 0.11
        gen_gnp(5, 0.5, 0)
        gc.collect()
        tracemalloc.start()
        try:
            g = gen_gnp(120, 0.7, 3)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m > 4000
        assert held < 0.2 * 2**20


class TestParse:
    def test_triangle(self):
        g = parse_graph("3 3\n0 1\n0 2\n1 2")
        assert g == complete_graph(3)

    def test_edgeless(self):
        g = parse_graph("2 0")
        assert g.n == 2 and g.m == 0

    def test_cycle_degrees(self):
        g = parse_graph("4 4\n0 1\n1 2\n2 3\n0 3")
        assert sorted(g.degree(v) for v in range(4)) == [2, 2, 2, 2]

    def test_duplicate_edges_collapse(self):
        g = parse_graph("3 3\n0 1\n0 1\n1 2")
        assert g.m == 2

    def test_errors_name_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("3 1\n0 0")
        with pytest.raises(GraphParseError, match="line 3"):
            parse_graph("3 2\n0 1\n1 7")
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("3 1\nnope")
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("x y\n")
        # u < v is part of the format
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("3 1\n2 1")

    def test_missing_edges(self):
        with pytest.raises(GraphParseError):
            parse_graph("4 3\n0 1")

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy())
    def test_roundtrip(self, g):
        assert parse_graph(emit_graph(g)) == g


class TestGenerators:
    def test_gnp_extremes_ignore_seed(self):
        for seed in (0, 1, 999):
            assert gen_gnp(10, 0.0, seed).m == 0
            assert gen_gnp(10, 1.0, seed) == complete_graph(10)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_gnp_negative_vertex_count(self, p):
        # the random path builds its graph from neighbour masks, not Graph(n)
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            gen_gnp(-3, p, 1)

    def test_gnp_deterministic(self):
        assert gen_gnp(25, 0.4, 7) == gen_gnp(25, 0.4, 7)
        assert gen_gnp(25, 0.4, 7) != gen_gnp(25, 0.4, 8)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=40),
           st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
           st.integers(min_value=0, max_value=2**63))
    def test_gnp_matches_reference(self, n, p, seed):
        assert emit_graph(gen_gnp(n, p, seed)) == emit_graph(gen_gnp_reference(n, p, seed))

    def test_gnp_edge_counts_binomial_band(self):
        # 435 pairs at p = 1/2: mean 217.5, sd 10.43; 4 sd gives [176, 259]
        counts = [gen_gnp(30, 0.5, s).m for s in range(100)]
        assert all(176 <= c <= 259 for c in counts)

    def test_multipartite_345(self):
        g = gen_complete_multipartite([3, 4, 5])
        assert g.n == 12
        assert min_degree(g) == 7
        assert max_clique(g).value == 3

    def test_multipartite_degenerate(self):
        assert gen_complete_multipartite([1, 1, 1]) == complete_graph(3)
        k66 = gen_complete_multipartite([6, 6])
        assert k66.n == 12 and not has_clique(k66, 3)

    def test_multipartite_min_degree_formula(self):
        for sizes in ([2, 3], [3, 4, 5], [1, 1, 6], [4, 4, 4, 4]):
            g = gen_complete_multipartite(sizes)
            assert min_degree(g) == g.n - max(sizes)

    def test_multipartite_rejects_empty(self):
        with pytest.raises(ValueError):
            gen_complete_multipartite([])

    def test_two_cliques(self):
        g = gen_two_cliques(12)
        assert min_degree(g) == 4
        assert max_clique(g).value == 7
        small = gen_two_cliques(4)
        assert small.m == 3  # one isolated vertex plus a triangle

    def test_two_cliques_rejects_odd(self):
        with pytest.raises(ValueError):
            gen_two_cliques(11)

    def test_hs_tripartite(self):
        assert gen_hs_tripartite(12) == gen_complete_multipartite([3, 4, 5])

    def test_gamma_clique_free(self):
        for ell in (2, 3):
            for n in (15, 30, 60):
                for seed in range(20):
                    g = gamma_graph(ell, n, seed)
                    assert not has_clique(g, ell + 1), (ell, n, seed)

    def test_decompose(self):
        assert decompose_r(4, 2) == (1, 2)
        assert decompose_r(5, 2) == (2, 1)
        assert decompose_r(6, 3) == (1, 3)

    def test_lower_bound_construction(self):
        g = gen_lower_bound_construction(4, 2, 16, 1)
        parts = lower_bound_parts(4, 2, 16)
        assert [len(p) for p in parts] == [7, 9]
        assert sum(len(p) for p in parts) == 16
        # cliques larger than ell must straddle parts
        from tilinglab.embed import cliques_of_size

        part_of = {}
        for i, p in enumerate(parts):
            for v in p:
                part_of[v] = i
        for cl in cliques_of_size(g, 3):
            assert len({part_of[v] for v in cl}) >= 2

    def test_lower_bound_guards(self):
        with pytest.raises(ValueError):
            gen_lower_bound_construction(3, 2, 12, 1)  # ell > r/2
        with pytest.raises(ValueError):
            gen_lower_bound_construction(4, 2, 18, 1)  # r does not divide n


class TestInducedSubgraph:
    def test_k5_triangle(self):
        sub, order = induced_subgraph(complete_graph(5), [0, 1, 2])
        assert sub == complete_graph(3)
        assert order == [0, 1, 2]

    def test_c4_opposite(self):
        c4 = parse_graph("4 4\n0 1\n1 2\n2 3\n0 3")
        sub, _ = induced_subgraph(c4, [0, 2])
        assert sub.m == 0

    def test_one_part_is_edgeless(self):
        g = gen_complete_multipartite([3, 4, 5])
        sub, _ = induced_subgraph(g, range(3, 7))
        assert sub.m == 0

    def test_bad_vertex(self):
        with pytest.raises(ValueError):
            induced_subgraph(complete_graph(3), [0, 5])

    @settings(max_examples=40, deadline=None)
    @given(graphs_strategy(), st.data())
    def test_preserves_inside_edges(self, g, data):
        verts = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), unique=True)
                          if g.n else st.just([]))
        verts = [v for v in verts if v < g.n]
        sub, order = induced_subgraph(g, verts)
        for i in range(sub.n):
            for j in range(i + 1, sub.n):
                assert sub.has_edge(i, j) == g.has_edge(order[i], order[j])

    @settings(max_examples=100, deadline=None)
    @given(graphs_strategy(max_n=12), st.data())
    def test_matches_sort_and_filter_reference(self, g, data):
        # vertex lists with repeats, in any order
        verts = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n)
                          if g.n else st.just([]))
        sub, order = induced_subgraph(g, verts)
        ref, ref_order = induced_subgraph_reference(g, verts)
        assert order == ref_order
        assert sub == ref and sub.edges() == ref.edges()


class TestPattern:
    def test_clique_detection(self):
        assert Pattern(complete_graph(4)).is_clique
        assert not Pattern(parse_graph("4 4\n0 1\n1 2\n2 3\n0 3")).is_clique

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Pattern.clique(1)

    def test_clique_read_off_the_graph(self):
        p = Pattern(complete_graph(4))
        assert p.is_clique and p.r == 4 and p == Pattern.clique(4)
        c4 = Pattern(parse_graph("4 4\n0 1\n1 2\n2 3\n0 3"))
        assert not c4.is_clique and c4.r is None
        # a document that calls a complete graph "general" loads as a clique
        doc = {"kind": "general", "n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
        loaded = pattern_from_obj(doc)
        assert loaded.is_clique and loaded.r == 3
        assert pattern_to_obj(loaded) == {"kind": "clique", "r": 3}


class TestGammaReport:
    def test_report_fields(self):
        from tilinglab.generators import gen_gamma

        rep = gen_gamma(3, 40, 1)
        assert not has_clique(rep.graph, 4)
        assert rep.alpha_exact
        assert rep.alpha_ell < 40  # the core contains triangles
        assert rep.max_degree == max(rep.graph.degree(v) for v in range(40))
