import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    SMALL_PATTERNS,
    alpha_exhaustive,
    has_clique,
    max_density_subgraphs,
    traversing_families_bruteforce,
)
from tilinglab.embed import cliques_of_size, traversing_copy
from tilinglab.generators import gen_complete_multipartite, gen_gnp
from tilinglab import invariants
from tilinglab.graphs import Graph, Pattern, complete_graph, parse_graph, vertex_mask
from tilinglab.invariants import (
    alpha_ell,
    max_clique,
    min_degree,
    one_density,
    param_report,
    traversing_check,
    traversing_threshold,
)
from tilinglab.rng import rng_for
from tilinglab.verify import VerificationError, verify_traversing_witness


def random_graph(n, p, seed):
    return gen_gnp(n, p, seed)


class TestMinDegree:
    def test_complete(self):
        assert min_degree(complete_graph(4)) == 3

    def test_multipartite(self):
        assert min_degree(gen_complete_multipartite([3, 4, 5])) == 7

    def test_path(self):
        assert min_degree(parse_graph("3 2\n0 1\n1 2")) == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            min_degree(Graph(0))


class TestMaxClique:
    def test_examples(self):
        assert max_clique(complete_graph(5)).value == 5
        c5 = parse_graph("5 5\n0 1\n1 2\n2 3\n3 4\n0 4")
        assert max_clique(c5).value == 2
        assert max_clique(gen_complete_multipartite([3, 4, 5])).value == 3

    def test_enumeration_lex_and_deterministic(self):
        g = gen_gnp(12, 0.6, 3)
        triangles = list(cliques_of_size(g, 3))
        assert triangles == sorted(triangles)
        assert triangles == list(cliques_of_size(g, 3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_alpha_relation(self, seed):
        g = random_graph(9, 0.5, seed)
        w = max_clique(g).value
        for ell in (2, 3, 4):
            res = alpha_ell(g, ell)
            assert (res.value == g.n) == (w < ell)

    def test_budget_stops_with_a_clique(self, monkeypatch):
        monkeypatch.setattr(invariants, "PARAM_BUDGET", 50)
        g = gen_gnp(60, 0.9, 1)
        res = max_clique(g)
        assert not res.exact and res.nodes == 51
        assert len(res.witness) == res.value
        assert all(g.has_edge(u, v) for i, u in enumerate(res.witness)
                   for v in res.witness[i + 1:])


class TestAlphaEll:
    def test_trivials(self):
        assert alpha_ell(complete_graph(7), 2).value == 1
        assert alpha_ell(gen_complete_multipartite([6, 6]), 3).value == 12
        c5 = parse_graph("5 5\n0 1\n1 2\n2 3\n3 4\n0 4")
        assert alpha_ell(c5, 2).value == 2

    def test_witness_is_clique_free(self):
        g = gen_gnp(14, 0.5, 11)
        for ell in (2, 3):
            res = alpha_ell(g, ell)
            assert res.exact
            sub = frozenset(res.witness)
            assert len(sub) == res.value
            assert not has_clique(g, ell, vertex_mask(sub))

    def test_agrees_with_exhaustive_corpus(self):
        rng = rng_for(2024, "alpha-corpus")
        for i in range(60):
            n = rng.randrange(4, 13)
            p = rng.uniform(0.2, 0.8)
            g = random_graph(n, p, rng.randrange(10**9))
            for ell in (2, 3):
                assert alpha_ell(g, ell).value == alpha_exhaustive(g, ell), (i, ell)

    def test_deep_descent_runs_under_the_recursion_limit(self):
        # alpha_2(K_1020) = 1: the first descent deletes 1,019 vertices
        res = alpha_ell(complete_graph(1020), 2, budget=20_000)
        assert (res.value, res.exact, res.nodes) == (1, False, 20_001)

    def test_budget_exhaustion_flags_inexact(self):
        g = random_graph(24, 0.3, 5)
        res = alpha_ell(g, 2, budget=10)
        assert not res.exact
        assert res.value <= alpha_exhaustive(g, 2) if g.n <= 12 else True
        assert res.value >= 1


class TestTraversing:
    def test_k9_singletons_hold(self, k9, k3):
        v = traversing_check(k9, k3, 1)
        assert v.holds and v.families_checked == 84 and v.mode == "exhaustive"

    def test_k66_fails_with_witness(self, k3):
        k66 = gen_complete_multipartite([6, 6])
        v = traversing_check(k66, k3, 4, trials=5_775)  # every family
        assert not v.holds and v.mode == "exhaustive"
        verify_traversing_witness(k66, k3, 4, [list(x) for x in v.witness])

    def test_sampled_fixture_holds(self, k3):
        g = gen_gnp(60, 0.5, 3)
        v = traversing_check(g, k3, 6, trials=500, seed=9)
        assert v.holds and v.mode == "sampled"
        assert v.families_checked == 500

    def test_sampled_families_are_distinct(self):
        # 420 families of three disjoint pairs of 8 vertices, one more than the draws
        families = list(invariants._sample_families(8, 3, 2, 419, 0))
        assert len({tuple(sorted(f)) for f in families}) == len(families) == 419

    @pytest.mark.parametrize("seed", [2, 67])
    def test_sampled_just_short_of_all_families_agrees(self, k3, seed):
        # with repeats, 419 draws said "holds" on these graphs
        g = gen_gnp(8, 0.8, seed)
        sampled = traversing_check(g, k3, 2, trials=419)
        assert sampled.mode == "sampled" and not sampled.holds
        assert not traversing_check(g, k3, 2, trials=420).holds

    @pytest.mark.parametrize("trials", [0, -1])
    def test_sampled_needs_a_trial(self, k3, trials):
        # with no family drawn, "holds" would be a verdict on nothing
        with pytest.raises(ValueError, match="trials >= 1"):
            traversing_check(gen_gnp(12, 0.3, 1), k3, 2, trials=trials)

    def test_threshold_complete(self, k3):
        s, _ = traversing_threshold(complete_graph(9), k3)
        assert s == 1

    def test_threshold_bipartite_sentinel(self, k3):
        # at most 61,600 families at each s (s = 3): every one is enumerated
        s, verdict = traversing_threshold(gen_complete_multipartite([6, 6]), k3,
                                          trials=61_600)
        assert s == math.inf and verdict is None

    def test_threshold_multipartite_444(self, k3):
        # computed with the exhaustive checker: families of two 2-subsets of
        # one part block every traversing triangle, but at s = 3 no blocking
        # family fits inside the parts of size 4
        g = gen_complete_multipartite([4, 4, 4])
        v2 = traversing_check(g, k3, 2, trials=13_860)  # every family
        assert not v2.holds and v2.mode == "exhaustive"
        s, _ = traversing_threshold(g, k3, trials=13_860)
        assert s == 3

    def test_monotone_in_s(self, k3):
        g = gen_gnp(9, 0.7, 13)
        # 84, 1,260 and 280 families at s = 1, 2, 3: every one is enumerated
        verdicts = [traversing_check(g, k3, s, trials=1_260) for s in (1, 2, 3)]
        assert all(v.mode == "exhaustive" for v in verdicts)
        held = [v.holds for v in verdicts]
        for a, b in zip(held, held[1:]):
            assert (not a) or b

    def test_cap_guard(self, k3):
        # about 5*10^15 families, far past the trials: a sample is drawn
        g = gen_gnp(40, 0.5, 1)
        v = traversing_check(g, k3, 5, trials=300)
        assert v.mode == "sampled" and v.families_checked == 300

    def test_precondition(self, k3):
        with pytest.raises(ValueError):
            traversing_check(complete_graph(5), k3, 2)

    def test_failing_witness_reverifies(self, k3):
        g = gen_complete_multipartite([4, 4, 4])
        v = traversing_check(g, k3, 2, trials=13_860)
        assert v.witness is not None
        verify_traversing_witness(g, k3, 2, [list(x) for x in v.witness])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_witness_check_agrees_with_traversing_copy(self, data):
        # the verifier's brute force over picks and orderings accepts a
        # family exactly when the solver's search finds no traversing copy
        p = SMALL_PATTERNS[data.draw(st.sampled_from(sorted(SMALL_PATTERNS)))]
        sizes = [data.draw(st.integers(1, 3)) for _ in range(p.h)]
        n = data.draw(st.integers(sum(sizes), 12))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [e for e, kept in zip(pairs, keep) if kept])
        order = data.draw(st.permutations(range(n)))
        cuts = [sum(sizes[:i]) for i in range(p.h + 1)]
        parts = [list(order[a:b]) for a, b in zip(cuts, cuts[1:])]
        try:
            verify_traversing_witness(g, p, min(sizes), parts)
            accepted = True
        except VerificationError:
            accepted = False
        assert accepted == (traversing_copy(g, p, parts) is None)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_trials_pick_the_path(self, data):
        # every family is enumerated exactly when they number at most
        # `trials`; an exhaustive verdict agrees with a brute force over every
        # family, and any witness is a family with no traversing copy
        p = SMALL_PATTERNS[data.draw(st.sampled_from(sorted(SMALL_PATTERNS)))]
        s = data.draw(st.integers(1, 2))
        n = data.draw(st.integers(p.h * s, 8))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = {e for e, kept in zip(pairs, keep) if kept}
        g = Graph(n, sorted(edges))
        trials = data.draw(st.integers(1, 500))
        families = traversing_families_bruteforce(n, edges, p, s)
        v = traversing_check(g, p, s, trials=trials, seed=data.draw(st.integers(0, 99)))
        assert v.mode == ("exhaustive" if len(families) <= trials else "sampled")
        assert v.families_checked <= max(len(families), trials)
        if v.mode == "exhaustive":
            assert v.holds == all(families.values())
        if v.witness is None:
            assert v.holds
        else:
            assert not v.holds and families[tuple(sorted(v.witness))] is False
            verify_traversing_witness(g, p, s, [list(x) for x in v.witness])


class TestOneDensity:
    def test_k2(self):
        assert one_density(Pattern.clique(2)) == 1

    def test_cliques_r_over_2(self):
        for r in range(2, 8):
            assert one_density(Pattern.clique(r)) == Fraction(r, 2)

    def test_c4(self, c4_pattern):
        assert one_density(c4_pattern) == Fraction(4, 3)

    def test_matches_subgraph_oracle(self):
        for seed in range(6):
            h = gen_gnp(6, 0.55, seed)
            if h.n < 2:
                continue
            p = Pattern(h)
            assert one_density(p) == max_density_subgraphs(p)


class TestParamReport:
    def test_flat_serialization(self, k3):
        g = gen_complete_multipartite([3, 4, 5])
        # C(12, 3) = 220 families at s = 1: every one is enumerated
        report = param_report(g, ells=[2, 3], pattern=k3, traversing_s=1, trials=220)
        assert report["min_degree"] == 7
        assert report["alpha_2"] == 5
        assert report["max_clique"] == 3
        assert report["max_clique_exact"] is True
        assert len(report["max_clique_witness"]) == 3
        assert report["one_density"] == "3/2"
        assert report["traversing_mode"] == "exhaustive"
        assert report["traversing_holds"] is False
        assert isinstance(report["traversing_witness"], list)
        assert report["schema"] == "param-report/v1"


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_alpha_monotone_in_ell(seed):
    g = gen_gnp(10, 0.5, seed)
    values = [alpha_ell(g, ell).value for ell in (2, 3, 4)]
    assert values == sorted(values)
    assert values[-1] <= g.n
