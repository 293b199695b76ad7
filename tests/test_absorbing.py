import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs  # `st` names structures below

from oracles import (
    SMALL_PATTERNS,
    _choose_disjoint_members,
    _cover_buffer,
    copies_into_buffer_count,
    copy_families_reference,
    factor_exists_bruteforce,
)
from tilinglab import absorbing, absorption, factor
from tilinglab.absorbers import absorber_tilings
from tilinglab.absorbing import (
    AbsorberConfig,
    AbsorbingStructure,
    CertificateBugError,
    StageFailure,
    TemplateGraph,
    absorb,
    build_absorbing_set,
    build_template,
    disjoint_absorber_family_clique,
    disjoint_absorber_family_direct,
    disjoint_absorber_family_general,
)
from tilinglab.factor import Tiling
from tilinglab.generators import gen_complete_multipartite, gen_gnp, gen_two_cliques
from tilinglab.graphs import Graph, Pattern, complete_graph, induced_subgraph, vertex_mask
from tilinglab.rng import rng_for
from tilinglab.cli import main
from tilinglab.graphs import emit_graph
from tilinglab.serialize import (
    EDGE_ABSORBER_KEYS,
    PATTERN_KEYS,
    STRUCTURE_KEYS,
    TEMPLATE_KEYS,
    TILING_KEYS,
    dump_json,
    structure_from_obj,
    structure_to_obj,
    tiling_to_obj,
)
from tilinglab.verify import (
    TEMPLATE_EXHAUSTIVE_CAP,
    VerificationError,
    check_template,
    verify_absorber,
    verify_structure,
    verify_tiling,
)


# sha256 of the K60/K2 direct structure document (the k60_structure fixture)
# as dump_json writes it.  A change that alters the document on purpose
# updates this constant and says why.  absorbing-structure/v6 stores the
# structure's `t` and `surplus_ratio` in place of v5's build `config` and
# `seed`, which nothing read.  Its m = 1 template is the sparse one: 5 rows
# and 5 edges, each with its absorber, where the complete template had 15.
K60_DIRECT_DOCUMENT_SHA256 = "94da4e2c764df0a65594ec256cd84c264a1cb328a623cfcea27bb047bcfd8e67"


def desk_k2(t=1, **kw):
    kw.setdefault("absorber_frac", 0.2)
    kw.setdefault("sample_prob", 0.06)
    kw.setdefault("surplus_ratio", 2.0)
    kw.setdefault("m_cap", 1)
    return AbsorberConfig.desk_scale(h=2, t=t, **kw)


class TestConfig:
    def test_asymptotic_bindings(self):
        c = AbsorberConfig.asymptotic(h=3, t=3, absorber_frac=0.1)
        assert math.isclose(c.sample_prob, 0.1 / (500 * 9))
        assert math.isclose(c.surplus_ratio, c.sample_prob**2 * 0.1 / 4)

    @pytest.mark.parametrize("frac", [0.0, 1.0])
    def test_asymptotic_absorber_frac_is_open_interval(self, frac):
        # the theory's density lies strictly inside (0, 1)
        with pytest.raises(ValueError, match=r"absorber_frac must lie in \(0, 1\)"):
            AbsorberConfig.asymptotic(h=3, t=1, absorber_frac=frac)

    def test_identity_enforced_even_with_overrides(self):
        # the remainder fraction is surplus_ratio/(h-1), so it cannot be set
        with pytest.raises(TypeError):
            AbsorberConfig(h=3, t=1, absorber_frac=0.1, sample_prob=0.1,
                           surplus_ratio=6.0, remainder_frac=1.0)
        # h = 3 and surplus_ratio 6.0 give the fraction 3.0: 30 on 10 vertices,
        # below the surplus's 100 // 2, and the surplus's 7 // 2 on 100
        assert absorbing._max_remainder(3, 6.0, 100, 10) == 30
        assert absorbing._max_remainder(3, 6.0, 7, 100) == 3
        # 1e308 / 2 * 100 is inf, which math.floor cannot take
        assert absorbing._max_remainder(3, 1e308, 7, 100) == 3

    def test_overrides_keyword_is_gone(self):
        # there is no overrides flag: asymptotic() binds the constants itself
        with pytest.raises(TypeError):
            AbsorberConfig(h=3, t=1, absorber_frac=0.1, sample_prob=0.5,
                           surplus_ratio=1.0, overrides=False)

    def test_from_overrides_sets_every_field(self):
        # every field but h, which the pattern fixes
        values = dict(t=2, absorber_frac=0.3, sample_prob=0.2, surplus_ratio=1.5,
                      degree_frac=0.15, threshold_frac=0.25, pool_size=7,
                      part_degree_min=3, common_nbhd_min=2, m_cap=4)
        fields = dataclasses.fields(AbsorberConfig)
        assert {f.name for f in fields} == set(values) | {"h"}
        assert all(values[f.name] != f.default for f in fields if f.name in values)
        assert AbsorberConfig.from_overrides(4, json.loads(json.dumps(values))) == \
            AbsorberConfig(h=4, **values)


class TestTemplate:
    def test_failed_check_is_a_template_stage_failure(self, monkeypatch):
        from tilinglab import templates
        monkeypatch.setattr(templates, "check_template", lambda tpl: (0,))
        with pytest.raises(StageFailure) as exc:
            build_template(1, 1.0)
        assert (exc.value.stage, exc.value.blocking) == ("template", (0,))

    def test_complete_bipartite_m4(self):
        # the sizes of a build, and the complete template on them, which a
        # document may bring: its rows hold the sparse ones, so its shape
        # certifies it too
        tpl = build_template(4, 0.25)
        assert (tpl.flex_size, tpl.core_size, tpl.slot_count) == (5, 8, 12)
        complete = TemplateGraph(m=4, left_adj=(tuple(range(12)),) * 13)
        assert check_template(tpl) is None and check_template(complete) is None
        assert (tpl.max_degree, complete.max_degree) == (5, 13)

    def test_m1(self):
        tpl = build_template(1, 0.9)
        assert (tpl.slot_count, tpl.flex_size) == (3, 2)
        assert check_template(tpl) is None

    def test_degree_bound_guard(self):
        # 50 + ceil(5) = 55 flex vertices: each joins the top slots, whose
        # degree would pass the bound of 40
        with pytest.raises(StageFailure, match="flex side of 55 exceeds the degree bound "
                                               "of 40") as exc:
            build_template(50, 0.1)
        assert exc.value.stage == "template"

    @pytest.mark.parametrize("beta", [-1.0, -0.1, float("nan"), float("inf")])
    def test_beta_out_of_range_is_a_value_error(self, beta):
        # the flex side is m + ceil(beta * m), so beta must be finite and >= 0
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            build_template(3, beta)

    def test_exhaustive_small_complete_windows(self):
        # the sparse template a build makes and the complete one on the same
        # sides are robust by Hall's condition: certified with no subset
        # enumerated, which every subset's matching confirms
        for m in range(1, 7):
            tpl = build_template(m, 0.3)
            complete = TemplateGraph(m=m, left_adj=(tuple(range(3 * m)),) * tpl.left_size)
            for t in (tpl, complete):
                assert check_template(t) is None
                assert all(t.slot_matching(sub) is not None
                           for sub in itertools.combinations(range(t.flex_size), m))

    def test_complete_template_past_the_cap_needs_no_matching(self, monkeypatch):
        # C(30, 5) = 142,506 flex subsets, more than a check enumerates
        def no_matching(self, flex_subset):
            raise AssertionError("a complete template needs no slot matching")
        monkeypatch.setattr(TemplateGraph, "slot_matching", no_matching)
        tpl = TemplateGraph(m=5, left_adj=(tuple(range(15)),) * 40)
        assert math.comb(tpl.flex_size, tpl.m) == 142_506 > TEMPLATE_EXHAUSTIVE_CAP
        assert check_template(tpl) is None

    def test_sparse_fixture(self):
        # core j joins slot j alone and each of the 15 flex vertices the top
        # 13 slots; every one of C(15, 13) = 105 flex subsets matches
        tpl = build_template(13, 0.1)
        assert (tpl.left_size, math.comb(tpl.flex_size, tpl.m)) == (41, 105)
        assert tpl.left_adj == ((tuple(range(26, 39)),) * 15
                                + tuple((j,) for j in range(26)))
        assert (tpl.max_degree, len(tpl.edges())) == (15, 13 * 15 + 26)
        assert check_template(tpl) is None
        assert all(tpl.slot_matching(sub) is not None
                   for sub in itertools.combinations(range(tpl.flex_size), tpl.m))

    def test_sparse_template_past_the_cap_needs_no_matching(self, monkeypatch):
        # C(30, 20) = 30,045,015 flex subsets: the shape certifies them all.
        # A build at any size makes the sparse rows and certifies them by
        # shape, with no slot matching, up to the flex side of 40
        def no_matching(self, flex_subset):
            raise AssertionError("a sparse template needs no slot matching")
        monkeypatch.setattr(TemplateGraph, "slot_matching", no_matching)
        tpl = build_template(20, 0.5)
        assert (tpl.left_size, tpl.max_degree) == (70, 30)
        assert math.comb(tpl.flex_size, tpl.m) == 30_045_015 > TEMPLATE_EXHAUSTIVE_CAP
        assert check_template(tpl) is None
        for m, beta in itertools.product(range(1, 41), (0.0, 0.3, 1.0, 6.0, 39.0)):
            flex = m + math.ceil(beta * m)
            if flex > 40:
                continue
            tpl = build_template(m, beta)
            assert tpl.left_adj == ((tuple(range(2 * m, 3 * m)),) * flex
                                    + tuple((j,) for j in range(2 * m)))
            assert check_template(tpl) is None

    @pytest.mark.parametrize("rows", [4, 5, 0, 3])
    def test_check_template_refuses_fewer_than_3m_left_vertices(self, rows):
        # at m = 2 a template needs 6 left vertices: 4 or 5 leave fewer than
        # m flex vertices, and fewer than 4 leave none and a short core
        tpl = TemplateGraph(m=2, left_adj=((4, 5),) * rows)
        with pytest.raises(VerificationError, match=f"{rows} left vertices are fewer than "
                                                    f"3m = 6"):
            check_template(tpl)

    @settings(max_examples=300, deadline=None)
    @given(hs.data())
    def test_check_template_agrees_with_bruteforce(self, data):
        # templates at m <= 2 with at most 6 flex vertices: random ones,
        # sparse ones with one edge removed, and sparse ones with each row's
        # slots toggled at random.  Each is certified exactly when every
        # flex m-subset with the core matches the slots under some permutation
        m = data.draw(hs.integers(1, 2), label="m")
        flex = data.draw(hs.integers(m, 6), label="flex")
        slots = range(3 * m)
        sparse = [set(range(2 * m, 3 * m))] * flex + [{j} for j in range(2 * m)]
        kind = data.draw(hs.sampled_from(["random", "sparse less one", "toggled"]))
        if kind == "random":
            rows = [data.draw(hs.sets(hs.sampled_from(slots)), label="row") for _ in sparse]
        elif kind == "sparse less one":
            rows = list(sparse)
            l = data.draw(hs.integers(0, len(rows) - 1), label="row")
            rows[l] = rows[l] - {data.draw(hs.sampled_from(sorted(rows[l])), label="slot")}
        else:
            rows = [row ^ data.draw(hs.sets(hs.sampled_from(slots), max_size=2), label="toggle")
                    for row in sparse]
        tpl = TemplateGraph(m=m, left_adj=tuple(tuple(sorted(row)) for row in rows))
        core = tuple(range(flex, flex + 2 * m))
        robust = all(any(all(slot in rows[l] for l, slot in zip(sub + core, perm))
                         for perm in itertools.permutations(slots))
                     for sub in itertools.combinations(range(flex), m))
        assert (check_template(tpl) is None) == robust

    def test_check_template_finds_falsifying_subset(self):
        tpl = build_template(2, 0.5)
        # flex vertex 0 loses its edges: every flex subset containing it fails
        broken = TemplateGraph(m=tpl.m, left_adj=((),) + tpl.left_adj[1:])
        assert check_template(broken) == (0, 1)
        # one missing edge makes the template incomplete but still robust
        thinned = TemplateGraph(m=tpl.m, left_adj=(tpl.left_adj[0][1:],) + tpl.left_adj[1:])
        assert check_template(thinned) is None

    def test_slot_matching(self):
        tpl = build_template(2, 0.5)
        matching = tpl.slot_matching([2, 0])
        assert sorted(matching) == [0, 2, 3, 4, 5, 6]  # flex 0 and 2, then the core
        assert sorted(matching.values()) == list(range(tpl.slot_count))
        for bad in ([0], [0, 0], [0, 3], [-1, 0]):  # size, duplicate, range
            with pytest.raises(ValueError, match="exactly m flex indices"):
                tpl.slot_matching(bad)
        broken = TemplateGraph(m=tpl.m, left_adj=((),) + tpl.left_adj[1:])
        assert broken.slot_matching([0, 1]) is None

    @pytest.mark.parametrize("m, beta", [(1, 0.5), (2, 0.5), (3, 2.0)])
    def test_sparse_slot_matching_in_order(self, m, beta):
        # core j takes slot j and the i-th of the sorted flex subset slot
        # 2m + i, which keeps every absorb's pairing fixed
        tpl = build_template(m, beta)
        core = {tpl.flex_size + j: j for j in range(2 * m)}
        for sub in itertools.combinations(range(tpl.flex_size), m):
            flex = {l: 2 * m + i for i, l in enumerate(sorted(sub))}
            assert tpl.slot_matching(reversed(sub)) == flex | core


# K9 without the edge (2, 3): with the core [0, 1, 2] and the absorber
# {3, 4, 5}, a copy through both 2 and 3 is not a triangle
K9_CUT = Graph(9, [e for e in complete_graph(9).edges() if e != (2, 3)])


class TestIsAbsorber:
    """absorber_tilings finds an absorber's two tilings by exact search;
    verify_absorber checks the tilings it is given, and searches nothing."""

    def test_complete_graph(self, k9, k3):
        alone, with_core = absorber_tilings(k9, k3, [0, 1, 2], [3, 4, 5])
        assert alone.copies == ((3, 4, 5),)
        assert with_core.covered == set(range(6))
        verify_absorber(k9, [0, 1, 2], alone, with_core, 1)

    def test_triangle_free(self, k3):
        k66 = gen_complete_multipartite([6, 6])
        assert absorber_tilings(k66, k3, [0, 1, 2], [6, 7, 8]) is None

    def test_one_part_core_cannot_absorb(self, k3):
        g = gen_complete_multipartite([4, 4, 4])
        core = [0, 1, 2]  # inside the first part
        for cand in ([3, 4, 5], [4, 5, 8], [5, 8, 9]):
            assert absorber_tilings(g, k3, core, cand) is None

    def test_order_invariant(self, k9, k3):
        tilings = absorber_tilings(k9, k3, [2, 0, 1], [5, 3, 4])
        assert tilings == absorber_tilings(k9, k3, [0, 1, 2], [3, 4, 5])
        verify_absorber(k9, [2, 0, 1], *tilings, 1)

    def test_given_tilings_accepted(self, k3):
        verify_absorber(K9_CUT, [0, 1, 2], Tiling(k3, ((3, 4, 5),)),
                        Tiling(k3, ((0, 1, 2), (3, 4, 5))), 1)

    @pytest.mark.parametrize("core,alone,with_core,message", [
        ([0, 1, 2], [(3, 4, 5)], [(0, 1, 4), (2, 3, 5)],
         r"copy 1 does not preserve pattern edge \(0,1\): \(2,3\) is not an edge"),
        ([0, 1, 2], [(3, 4, 5)], [(0, 1, 2)],
         "tiling of the absorber plus core does not cover exactly its vertices"),
        ([0, 1, 2], [(3, 4, 5)], [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
         "tiling of the absorber plus core does not cover exactly its vertices"),
        ([0, 1, 2], [(3, 4, 5)], [(0, 1, 2), (2, 4, 5)], "share vertex 2"),
        ([0, 1, 2], [(2, 4, 5)], [(0, 1, 3), (2, 4, 5)], "absorber intersects its core set"),
        ([0, 1, 2], [(3, 4, 5), (6, 7, 8)], [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
         "absorber has 6 vertices, expected 3"),
        ([0, 1], [(3, 4, 5)], [(0, 1, 3), (2, 4, 5)], "core has 2 vertices, expected 3"),
        ([0, 1, 2], [(3, 4, 9)], [(0, 1, 2), (3, 4, 9)], "out-of-range vertex 9"),
    ], ids=["non_edge", "missing_vertex", "extra_vertex", "overlapping_copies",
            "core_overlap", "size", "core_size", "out_of_range"])
    def test_given_tilings_rejected(self, k3, core, alone, with_core, message):
        with pytest.raises(VerificationError, match=message):
            verify_absorber(K9_CUT, core, Tiling(k3, tuple(alone)),
                            Tiling(k3, tuple(with_core)), 1)

    def test_tilings_of_different_patterns_rejected(self, k3, k2):
        with pytest.raises(VerificationError, match="different patterns"):
            verify_absorber(K9_CUT, [0, 1], Tiling(k2, ((3, 4),)),
                            Tiling(k3, ((0, 1, 4), (3, 5, 6))), 1)

    @settings(max_examples=300, deadline=None)
    @given(hs.data())
    def test_tilings_exist_exactly_when_bruteforce_finds_both(self, data):
        # an absorber candidate is accepted exactly when G[A] and G[A + S]
        # both have a perfect tiling, and the tilings it returns pass the check
        p = SMALL_PATTERNS[data.draw(hs.sampled_from(sorted(SMALL_PATTERNS)))]
        h = p.h
        t = data.draw(hs.integers(1, 12 // h - 1))
        n = data.draw(hs.integers(h * (t + 1), 12))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        # each pair is an edge with probability 3/4, so that both verdicts are common
        keep = data.draw(hs.lists(hs.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [e for e, k in zip(pairs, keep) if k])
        order = data.draw(hs.permutations(range(n)))
        core, absorber = order[:h], order[h:h * (t + 1)]
        expected = all(factor_exists_bruteforce(induced_subgraph(g, vs)[0], p)
                       for vs in (absorber, absorber + core))
        tilings = absorber_tilings(g, p, core, absorber)
        assert (tilings is not None) == expected
        if tilings is not None:
            assert tilings[0].covered == set(absorber)
            verify_absorber(g, core, *tilings, t)


class TestFamilyBuilders:
    def test_direct_family(self, k3):
        k30 = complete_graph(30)
        fams = disjoint_absorber_family_direct(k30, k3, [0, 1, 2], t=3, target=2)
        assert len(fams) == 2
        assert not (fams[0][0].covered & fams[1][0].covered)
        for alone, with_core in fams:
            verify_absorber(k30, [0, 1, 2], alone, with_core, 3)

    def test_general_on_complete(self, k3):
        cfg = AbsorberConfig.desk_scale(h=3, t=3, pool_size=9)
        k30 = complete_graph(30)
        fams = disjoint_absorber_family_general(k30, k3, [0, 1, 2], target=2,
                                                config=cfg)
        assert len(fams) == 2
        seen = set()
        for alone, with_core in fams:
            verify_absorber(k30, [0, 1, 2], alone, with_core, 3)
            assert not (alone.covered & seen)
            seen |= alone.covered

    def test_general_pool_size_zero_is_honoured(self, k3):
        # 0 is a size like any other, not a request for the derived one
        cfg = AbsorberConfig.desk_scale(h=3, t=3, pool_size=0)
        assert disjoint_absorber_family_general(complete_graph(30), k3, [0, 1, 2],
                                                target=1, config=cfg) == []

    def test_general_traversing_failure_on_bipartite(self, k3):
        k66 = gen_complete_multipartite([6, 6])
        cfg = AbsorberConfig.desk_scale(h=3, t=3, pool_size=2)
        assert disjoint_absorber_family_general(k66, k3, [0, 1, 6], target=1,
                                                config=cfg) == []

    def test_general_pool_failure_names_vertex(self, k3):
        g = gen_gnp(12, 0.3, 3)
        cfg = AbsorberConfig.desk_scale(h=3, t=3, pool_size=11)
        assert disjoint_absorber_family_general(g, k3, [0, 1, 2], target=1,
                                                config=cfg) == []

    def test_general_verified_on_gnp(self, k3):
        g = gen_gnp(90, 0.6, 5)
        cfg = AbsorberConfig.desk_scale(h=3, t=3, pool_size=22, degree_frac=0.3)
        core = sorted(rng_for(7, "core").sample(range(90), 3))
        fams = disjoint_absorber_family_general(g, k3, core, target=5,
                                                config=cfg)
        assert len(fams) == 5
        seen = set()
        for alone, with_core in fams:
            verify_absorber(g, core, alone, with_core, 3)
            assert not (alone.covered & seen)
            seen |= alone.covered

    def test_clique_on_complete(self):
        cfg = AbsorberConfig.desk_scale(h=3, t=3)
        k40 = complete_graph(40)
        fams = disjoint_absorber_family_clique(k40, 3, 2, [0, 1, 2], target=3,
                                               config=cfg, seed=1)
        assert len(fams) == 3
        for alone, with_core in fams:
            verify_absorber(k40, [0, 1, 2], alone, with_core, 3)

    def test_clique_two_cliques_stays_inside(self):
        g = gen_two_cliques(40)  # parts 0..18 and 19..39
        cfg = AbsorberConfig.desk_scale(h=3, t=3, part_degree_min=1,
                                        common_nbhd_min=2)
        fams = disjoint_absorber_family_clique(g, 3, 2, [0, 1, 2], target=1,
                                               config=cfg, seed=3)
        assert len(fams) == 1
        alone, with_core = fams[0]
        assert all(v < 19 for v in with_core.covered)
        verify_absorber(g, [0, 1, 2], alone, with_core, 3)

    def test_clique_fails_on_large_independent_sets(self):
        g = gen_complete_multipartite([13, 13, 14])
        cfg = AbsorberConfig.desk_scale(h=3, t=3, part_degree_min=1,
                                        common_nbhd_min=2)
        assert disjoint_absorber_family_clique(g, 3, 2, [0, 1, 2], target=1,
                                               config=cfg, seed=1) == []


class TestBuildAbsorbingSet:
    def test_k60_k2_build_verify_absorb(self, k2):
        k60 = complete_graph(60)
        cfg = desk_k2(t=1)
        st = build_absorbing_set(k60, k2, cfg, seed=1)
        verify_structure(k60, st)
        # of the config, the structure keeps t and surplus_ratio
        assert (st.t, st.surplus_ratio) == (cfg.t, cfg.surplus_ratio)
        # buffer, core and slots hold 3mh + s vertices, each absorber h*t
        m, h, t = st.template.m, k2.h, cfg.t
        assert len(st.absorbing_set) == (3 * m * h + st.template.surplus
                                         + h * t * len(st.edge_absorbers))
        sizes = st.valid_remainder_sizes()
        assert 0 in sizes and 2 in sizes
        outside = sorted(set(range(60)) - st.absorbing_set)
        t0 = absorb(k60, st, [])
        verify_tiling(k60, t0, require_cover=st.absorbing_set)
        t2 = absorb(k60, st, outside[:2])
        assert t2.covered == st.absorbing_set | set(outside[:2])

    def test_k60_k2_through_general_builder(self, k60_general_structure):
        k60, st = k60_general_structure
        assert st.builder == "general"
        verify_structure(k60, st)
        assert st.valid_remainder_sizes() == [1]
        outside = sorted(set(range(60)) - st.absorbing_set)
        absorb(k60, st, outside[:1])

    def test_builder_runs_only_at_t_equal_h(self, k2):
        k60 = complete_graph(60)
        cfg = desk_k2(t=1)  # the traversing construction needs t = h = 2
        direct = build_absorbing_set(k60, k2, cfg, seed=1)
        general = build_absorbing_set(k60, k2, cfg, seed=1, builder="general")
        assert general.builder == direct.builder == "direct"
        assert structure_to_obj(general) == structure_to_obj(direct)

    def test_absorber_builder_runs_only_for_template_edges(self, k2, monkeypatch):
        calls = []
        real = absorbing.disjoint_absorber_family_direct

        def spy(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(absorbing, "disjoint_absorber_family_direct", spy)
        st = build_absorbing_set(complete_graph(60), k2, desk_k2(t=1), seed=1)
        # the sparse m = 1 template: 3 flex rows to slot 2, core j to slot j
        assert len(calls) == len(st.edge_absorbers) == len(st.template.edges()) == 5

    @pytest.mark.parametrize("kw,detail", [
        (dict(sample_prob=0.1),
         "no sample can pass: it keeps at most ceil(2nq) = 6 vertices, and m = 1 needs 7"),
        (dict(sample_prob=0.2, m_cap=0), "no sample can pass: m_cap = 0"),
    ], ids=["cap", "m_cap"])
    def test_buffer_sample_fails_before_sampling(self, k3, monkeypatch, kw, detail):
        # on K30 a sample keeps at most ceil(2 * 30 * 0.1) = 6 vertices, and
        # m = 1 needs 1 + ceil(surplus_ratio) = 7; m_cap = 0 allows no round
        def draw(*args):
            raise AssertionError("a buffer sample was drawn")
        monkeypatch.setattr(absorbing, "rng_for", draw)
        cfg = AbsorberConfig.desk_scale(h=3, t=1, surplus_ratio=6.0, **kw)
        with pytest.raises(StageFailure) as exc:
            build_absorbing_set(complete_graph(30), k3, cfg, seed=1)
        assert (exc.value.stage, exc.value.detail) == ("buffer-sample", detail)

    def test_no_absorbable_remainder_size_fails_the_build(self, monkeypatch):
        # K4 at m = 1 and s = ceil(5.0) = 5: |A| is 5 mod 4, so the least
        # remainder size is 3, and max_remainder = 5 // 3 = 1
        def template(*args, **kwargs):
            raise AssertionError("a template was built")
        monkeypatch.setattr(absorbing, "build_template", template)
        cfg = AbsorberConfig.from_overrides(4, {"surplus_ratio": 5.0, "m_cap": 1})
        with pytest.raises(StageFailure) as exc:
            build_absorbing_set(complete_graph(120), Pattern.clique(4), cfg, seed=1)
        assert (exc.value.stage, exc.value.detail) == (
            "remainder-sizes", "no remainder size is absorbable: h = 4 must divide |A| + k, "
                               "|A| is s = 5 mod h, so k >= 3 > max_remainder = 1")

    def test_triangle_free_fails_at_buffer_sample(self, k3):
        # no vertex lies in a triangle, so every sample falls short
        k66 = gen_complete_multipartite([6, 6])
        cfg = AbsorberConfig.desk_scale(h=3, t=1, absorber_frac=0.1,
                                        sample_prob=0.2, surplus_ratio=2.0)
        with pytest.raises(StageFailure) as exc:
            build_absorbing_set(k66, k3, cfg, seed=1)
        assert (exc.value.stage, exc.value.detail) == (
            "buffer-sample", "no acceptable buffer in 50 samples")

    def test_asymptotic_constants_fail_structurally(self, k2):
        k60 = complete_graph(60)
        cfg = AbsorberConfig.asymptotic(h=2, t=2, absorber_frac=0.2)
        with pytest.raises(StageFailure):
            build_absorbing_set(k60, k2, cfg, seed=1)

    def test_structure_roundtrips_through_json(self, k2):
        k60 = complete_graph(60)
        st = build_absorbing_set(k60, k2, desk_k2(t=1), seed=1)
        st2 = structure_from_obj(structure_to_obj(st), k60.n)
        assert st2.buffer == st.buffer
        assert st2.edge_absorbers == st.edge_absorbers
        verify_structure(k60, st2)
        outside = sorted(set(range(60)) - st2.absorbing_set)
        absorb(k60, st2, outside[:2])

    def test_verifier_catches_tampering(self, k2):
        k60 = complete_graph(60)
        st = build_absorbing_set(k60, k2, desk_k2(t=1), seed=1)
        first, second = sorted(st.edge_absorbers)[:2]
        tampered = dataclasses.replace(st, edge_absorbers={
            **st.edge_absorbers, first: st.edge_absorbers[second]})
        bad = structure_from_obj(structure_to_obj(tampered), k60.n)
        with pytest.raises(VerificationError):
            verify_structure(k60, bad)

    @pytest.mark.parametrize("tamper,message", [
        (lambda obj: obj.update(harvest_sizes={str(v): 12 for v in range(60)}),
         "unknown structure key(s): harvest_sizes"),
        (lambda obj: obj.update(copy_families={"0": [[31]], "1": [[31], [44]]}),
         "unknown structure key(s): copy_families"),
        (lambda obj: obj["edge_absorbers"][0].update(vertices=[5, 6]),
         "unknown edge absorber key(s): vertices"),
        (lambda obj: obj.update(slots=[v for b in obj["slot_blocks"] for v in b]),
         "unknown structure key(s): slots"),
        (lambda obj: obj.update(size_report={"builder": obj["builder"]}),
         "unknown structure key(s): size_report"),
        (lambda obj: obj["template"].update(surplus=2), "unknown template key(s): surplus"),
        (lambda obj: obj.update(remainder_frac=2.0), "unknown structure key(s): remainder_frac"),
        # v5 stored the build's whole config and seed, and nothing read them
        (lambda obj: obj.update(config={
            "h": 2, "t": 1, "absorber_frac": 0.9, "sample_prob": 0.9, "surplus_ratio": 2.0,
            "degree_frac": 0.9, "threshold_frac": 0.9, "overrides": True, "pool_size": 5,
            "part_degree_min": 50, "common_nbhd_min": 50, "m_cap": 99}),
         "unknown structure key(s): config"),
        (lambda obj: obj.update(seed=123456), "unknown structure key(s): seed"),
        (lambda obj: obj["template"].update(extra=1), "unknown template key(s): extra"),
        (lambda obj: obj["template"].update(mode="random-regular"),
         "unknown template key(s): mode"),
        (lambda obj: obj["template"].update(
            verification={"mode": "exhaustive", "checks": 1000000000, "forged": [1]}),
         "unknown template key(s): verification"),
        (lambda obj: obj["pattern"].update(edges="junk"),
         "unknown clique pattern key(s): edges"),
        (lambda obj: dict(tiling_to_obj(Tiling(Pattern.clique(2), ())), extra=1),
         "unknown tiling key(s): extra"),
    ], ids=["harvest_sizes", "copy_families", "absorber_vertices", "slots", "size_report",
            "surplus", "remainder_frac", "config", "seed", "template_extra", "template_mode",
            "template_verification", "clique_pattern_edges", "tiling_extra"])
    def test_unread_key_is_refused(self, k60_structure, tmp_path, capsys, tamper, message):
        # keys older documents carried, derived values v4 no longer stores,
        # v4's template `mode` and `verification` and v5's `config` and
        # `seed`, which nothing checked, and keys no writer emits; a tamper
        # may return another document
        k60, st = k60_structure
        graph = tmp_path / "k60.el"
        graph.write_text(emit_graph(k60))
        obj = structure_to_obj(st)
        obj = tamper(obj) or obj
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 2
        assert f"malformed certificate: {message}" in capsys.readouterr().err

    def test_structure_document_is_unchanged(self, k60_structure, tmp_path):
        _k60, st = k60_structure
        doc = tmp_path / "structure.json"
        dump_json(structure_to_obj(st), str(doc))
        assert hashlib.sha256(doc.read_bytes()).hexdigest() == K60_DIRECT_DOCUMENT_SHA256

    def test_structure_that_absorbs_no_remainder_is_invalid(self, k60_structure, tmp_path,
                                                             capsys):
        # only the template's 2 core rows at m = 1: surplus -1 and an empty
        # buffer, so the robustness check has no flex m-subset to fail on
        k60, st = k60_structure
        graph = tmp_path / "k60.el"
        graph.write_text(emit_graph(k60))
        obj = structure_to_obj(st)
        flex = len(obj["buffer"])
        obj["template"]["left_adj"] = obj["template"]["left_adj"][flex:]
        obj["buffer"] = []
        obj["edge_absorbers"] = [dict(e, left=e["left"] - flex) for e in obj["edge_absorbers"]
                                 if e["left"] >= flex]
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 1
        assert ("INVALID: no remainder size k <= max_remainder = -1 makes |A| + k divisible "
                "by h = 2") in capsys.readouterr().err

    def test_incomplete_template_past_the_cap_is_invalid(self, k2, tmp_path, capsys):
        # a robust template is refused, not sampled, when it has more flex
        # m-subsets than a check enumerates and is not complete
        g, st = _sparse_robust_structure(k2)
        graph = tmp_path / "g.el"
        graph.write_text(emit_graph(g))
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(structure_to_obj(st)))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 1
        assert ("INVALID: 20825 flex m-subsets exceed the 20000 a template check "
                "enumerates") in capsys.readouterr().err

    def test_unsorted_buffer_rejected(self, k60_structure):
        k60, st = k60_structure
        obj = structure_to_obj(st)
        obj["buffer"] = obj["buffer"][::-1]
        with pytest.raises(VerificationError, match="buffer is not strictly increasing"):
            verify_structure(k60, structure_from_obj(obj, k60.n))

    @pytest.mark.parametrize("builder", ["direct", "general", "clique"])
    def test_document_round_trips(self, builder, k60_structure, k60_general_structure,
                                  k150_clique_structure):
        g, st = {"direct": k60_structure, "general": k60_general_structure,
                 "clique": k150_clique_structure}[builder]
        assert st.builder == builder
        doc = json.loads(json.dumps(structure_to_obj(st)))
        assert structure_to_obj(structure_from_obj(doc, g.n)) == doc
        assert doc["builder"] == builder
        # derived values are not stored
        assert not doc.keys() & {"slots", "size_report"}
        assert doc["template"].keys() == {"m", "left_adj"}
        # nor are the build's inputs beyond t and surplus_ratio
        assert not doc.keys() & {"config", "seed"}

    @pytest.mark.parametrize("tamper,message", [
        (lambda obj: obj.update(n="60"), 'structure n must be an integer >= 0, not "60"'),
        (lambda obj: obj["pattern"].update(r=3000),
         "pattern r 3000 has more vertices than the graph's 60"),
        (lambda obj: (obj.update(n=100000), obj["pattern"].update(r=3000)),
         "pattern r 3000 has more vertices than the graph's 60"),
        (lambda obj: obj.update(t="1"), 'structure t must be an integer >= 1, not "1"'),
        (lambda obj: obj.update(t=0), "structure t must be an integer >= 1, not 0"),
        (lambda obj: obj.update(t=True), "structure t must be an integer >= 1, not true"),
        (lambda obj: obj.update(t=1.0), "structure t must be an integer >= 1, not 1.0"),
        # json.dumps writes these two as the bare tokens Infinity and NaN,
        # which json.load reads back
        (lambda obj: obj.update(surplus_ratio=math.inf),
         "structure surplus_ratio must be a finite number > 0, not Infinity"),
        (lambda obj: obj.update(surplus_ratio=math.nan),
         "structure surplus_ratio must be a finite number > 0, not NaN"),
        (lambda obj: obj.update(surplus_ratio=10**400),
         f"structure surplus_ratio must be a finite number > 0, not {10**400}"),
        (lambda obj: obj.update(surplus_ratio=0),
         "structure surplus_ratio must be a finite number > 0, not 0"),
        (lambda obj: obj.update(surplus_ratio=-2),
         "structure surplus_ratio must be a finite number > 0, not -2"),
        (lambda obj: obj.update(surplus_ratio=True),
         "structure surplus_ratio must be a finite number > 0, not true"),
        (lambda obj: obj.update(surplus_ratio="6"),
         'structure surplus_ratio must be a finite number > 0, not "6"'),
        (lambda obj: obj["template"].update(m="1"),
         'template m must be an integer >= 1, not "1"'),
        (lambda obj: obj.update(pattern=[1]), "pattern must be an object, not [1]"),
        (lambda obj: obj.update(template=[1]), "template must be an object, not [1]"),
        (lambda obj: obj["template"]["left_adj"][0].append(7),
         "template left_adj entries must lie in 0..2"),
        (lambda obj: obj["template"].update(left_adj=5),
         "template left_adj must be a list, not 5"),
        (lambda obj: obj["template"].update(left_adj=None),
         "template left_adj must be a list, not null"),
        (lambda obj: obj["template"].update(left_adj="abc"),
         'template left_adj must be a list, not "abc"'),
        # a repeated slot doubles a template edge, which absorb then tiles twice
        (lambda obj: obj["template"]["left_adj"].__setitem__(0, [0, 0, 1, 2]),
         "template left_adj rows must be strictly increasing"),
        (lambda obj: obj["template"]["left_adj"].__setitem__(0, [2, 1, 0]),
         "template left_adj rows must be strictly increasing"),
        (lambda obj: obj["buffer"].__setitem__(0, str(obj["buffer"][0])),
         "structure buffer must be a list of integers, not [\"31\", 44, 50]"),
        (lambda obj: obj["core"].__setitem__(0, 60),
         "structure core must lie in 0..59, not [60, 1]"),
        (lambda obj: obj["slot_blocks"].__setitem__(0, [True]),
         "structure slot block must be a list of integers, not [true]"),
        (lambda obj: obj["edge_absorbers"][0]["alone"][0].__setitem__(1, 1.5),
         "edge absorber alone copy must be a list of integers, not [5, 1.5]"),
        (lambda obj: obj["edge_absorbers"][0].update(left="0"),
         'edge absorber left must be an integer >= 0, not "0"'),
        (lambda obj: obj["edge_absorbers"][0].update(right=-1),
         "edge absorber right must be an integer >= 0, not -1"),
        (lambda obj: obj.update(edge_absorbers=[5]), "edge absorber must be an object, not 5"),
        (lambda obj: obj.update(edge_absorbers={}),
         "structure edge_absorbers must be a list, not {}"),
        # a second absorber for a template edge would replace the first
        (lambda obj: obj["edge_absorbers"].insert(0, FORGED_EDGE_ABSORBER),
         "template edge (0, 2) has more than one edge absorber"),
        (lambda obj: obj["edge_absorbers"].append(FORGED_EDGE_ABSORBER),
         "template edge (0, 2) has more than one edge absorber"),
        (lambda obj: obj.update(builder="clique"),
         "structure builder clique cannot have built a structure for this pattern at t=1"),
        (lambda obj: obj.update(builder="exact"),
         'structure builder must be one of direct, general, clique, not "exact"'),
    ], ids=["n", "pattern_above_n", "pattern_above_graph_n", "t_string", "t_zero", "t_bool",
            "t_float", "surplus_ratio_infinity", "surplus_ratio_nan", "surplus_ratio_huge",
            "surplus_ratio_zero", "surplus_ratio_negative", "surplus_ratio_bool",
            "surplus_ratio_string", "m",
            "pattern_type", "template_type", "left_adj", "left_adj_int", "left_adj_null",
            "left_adj_str", "repeated_slot", "unsorted_row",
            "buffer", "core", "slot_block", "absorber_vertex", "absorber_left",
            "absorber_right", "absorber_entry", "absorbers_type", "repeated_edge_first",
            "repeated_edge_last", "builder", "unknown_builder"])
    def test_tampered_document_is_malformed(self, k60_structure, tmp_path, capsys,
                                            tamper, message):
        k60, st = k60_structure
        graph = tmp_path / "k60.el"
        graph.write_text(emit_graph(k60))
        obj = structure_to_obj(st)
        assert obj["template"]["m"] == 1
        tamper(obj)
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 2
        assert f"malformed certificate: {message}" in capsys.readouterr().err

    def test_pattern_size_differs_from_slots_is_invalid(self, k60_structure, tmp_path, capsys):
        # the pattern alone fixes h, so a K3 over K2 slot blocks loads and
        # verify refuses it
        k60, st = k60_structure
        graph = tmp_path / "k60.el"
        graph.write_text(emit_graph(k60))
        obj = structure_to_obj(st)
        obj["pattern"]["r"] = 3
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 1
        assert "INVALID: slot count differs from template * (h-1)" in capsys.readouterr().err

    def test_huge_n_is_invalid_for_the_graph(self, k60_structure, tmp_path, capsys):
        # a JSON integer, so it loads; verify rejects it against the graph
        k60, st = k60_structure
        graph = tmp_path / "k60.el"
        graph.write_text(emit_graph(k60))
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(dict(structure_to_obj(st), n=10**400)))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 1
        assert f"INVALID: structure built for n={10**400}, graph has 60" in capsys.readouterr().err

    def test_writers_emit_the_keys_loaders_read(self, k60_structure, c4_pattern):
        _k60, st = k60_structure
        doc = structure_to_obj(st)
        assert doc.keys() == STRUCTURE_KEYS
        # a structure keeps in memory exactly what its document stores
        assert ({f.name for f in dataclasses.fields(AbsorbingStructure)}
                == STRUCTURE_KEYS - {"schema"})
        assert doc["template"].keys() == TEMPLATE_KEYS
        assert all(e.keys() == EDGE_ABSORBER_KEYS for e in doc["edge_absorbers"])
        for document in ("clique_tiling", "general_tiling"):
            tiling = _document(document, st, c4_pattern)
            assert tiling.keys() == TILING_KEYS
            assert tiling["pattern"].keys() == PATTERN_KEYS[tiling["pattern"]["kind"]]

    @pytest.mark.parametrize("document", ["structure", "clique_tiling", "general_tiling"])
    def test_every_written_key_is_read(self, k60_structure, c4_pattern, tmp_path, capsys,
                                       document):
        # in each object a loader reads, deleting a written key is malformed,
        # and so is adding a key
        k60, st = k60_structure
        graph = tmp_path / "k60.el"
        graph.write_text(emit_graph(k60))
        doc = tmp_path / "document.json"
        written = _document(document, st, c4_pattern)

        def verify(obj):
            doc.write_text(json.dumps(obj))
            return main(["verify", "--certificate", str(doc), "--graph", str(graph)])

        assert verify(written) == 0
        paths = [(), ("pattern",)]
        if document == "structure":
            paths += [("template",), ("edge_absorbers", 0)]
        for path in paths:
            for key in [*_at(written, path), None]:
                obj = json.loads(json.dumps(written))
                if key is None:
                    _at(obj, path)["extra"] = 1
                else:
                    del _at(obj, path)[key]
                capsys.readouterr()
                assert verify(obj) == 2, (path, key)
                if key is None:
                    assert "key(s): extra" in capsys.readouterr().err

    @pytest.mark.parametrize("document", ["structure", "clique_tiling", "general_tiling"])
    @settings(max_examples=200, deadline=None)
    @given(hs.data())
    def test_one_replaced_leaf_never_crashes_verify(self, k60_structure, c4_pattern,
                                                    tmp_path_factory, document, data):
        k60, st = k60_structure
        folder = tmp_path_factory.mktemp("leaf")
        graph = folder / "k60.el"
        graph.write_text(emit_graph(k60))
        obj = _document(document, st, c4_pattern)
        path = data.draw(hs.sampled_from(sorted(_leaf_paths(obj), key=str)))
        _at(obj, path[:-1])[path[-1]] = data.draw(JSON_VALUES)
        doc = folder / "document.json"
        doc.write_text(json.dumps(obj))
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["verify", "--certificate", str(doc), "--graph", str(graph)])
        assert code in (0, 1, 2)
        if code == 2:  # a replaced schema tag makes the document another kind
            assert err.getvalue().startswith(("malformed certificate:", "error:",
                                              "unknown certificate schema:"))
        if code == 0 and document == "structure":
            _absorbs_each_valid_size(k60, json.loads(doc.read_text()))

    @settings(max_examples=200, deadline=None)
    @given(hs.data())
    def test_plausible_mutation_never_crashes_verify(self, k60_complete_structure,
                                                     tmp_path_factory, data):
        # one change that keeps the document well formed, so that verify
        # reaches its checks: swap two stored vertices, rename one to a
        # vertex outside A, or move a template edge, with its absorber, to
        # the free slot of its row.  K60 looks the same from every vertex,
        # so a renamed structure stays valid unless its buffer falls out of
        # order, and a moved edge's absorber no longer tiles with its core
        k60, st = k60_complete_structure
        folder = tmp_path_factory.mktemp("plausible")
        graph = folder / "k60.el"
        graph.write_text(emit_graph(k60))
        obj = _thinned(structure_to_obj(st))
        kind = data.draw(hs.sampled_from(["swap", "outside", "move"]))
        if kind == "move":
            rows = obj["template"]["left_adj"]
            l, old, new = data.draw(hs.sampled_from(
                [(l, old, new) for l, row in enumerate(rows) for old in row
                 for new in range(3 * obj["template"]["m"]) if new not in row]))
            rows[l] = sorted({*rows[l], new} - {old})
            moved = next(e for e in obj["edge_absorbers"] if (e["left"], e["right"]) == (l, old))
            moved["right"] = new
            expected = ("INVALID: tiling of the absorber plus core does not cover exactly "
                        "its vertices")
        else:
            stored = sorted({v for vs in _stored_vertex_lists(obj) for v in vs})
            a = data.draw(hs.sampled_from(stored))
            others = ([v for v in stored if v != a] if kind == "swap"
                      else sorted(set(range(k60.n)) - set(stored)))
            b = data.draw(hs.sampled_from(others))
            for vs in _stored_vertex_lists(obj):
                vs[:] = [{a: b, b: a}.get(v, v) for v in vs]
            buffer = obj["buffer"]
            in_order = all(u < v for u, v in zip(buffer, buffer[1:]))
            expected = "valid" if in_order else "INVALID: buffer is not strictly increasing"
        doc = folder / "document.json"
        doc.write_text(json.dumps(obj))
        out = io.StringIO()
        with redirect_stderr(out), redirect_stdout(out):
            code = main(["verify", "--certificate", str(doc), "--graph", str(graph)])
        assert (code, out.getvalue().strip()) == (0 if expected == "valid" else 1, expected)
        if code == 0:
            _absorbs_each_valid_size(k60, obj)


def _absorbs_each_valid_size(g, obj):
    """Absorb a remainder of each valid size into the structure in `obj`,
    which verify accepts on g; only a search that comes up short may stop it."""
    loaded = structure_from_obj(obj, g.n)
    outside = sorted(set(range(g.n)) - loaded.absorbing_set)
    for size in loaded.valid_remainder_sizes():
        try:
            absorb(g, loaded, outside[:size])
        except StageFailure:
            pass


def _thinned(obj):
    """The k60_complete_structure document, whose m = 1 template is complete,
    with slot l and that edge's absorber gone from each flex row l.  One flex
    vertex and the two core vertices still match onto the three slots."""
    flex = len(obj["buffer"])
    assert obj["template"]["m"] == 1 and flex == 3
    for l in range(flex):
        obj["template"]["left_adj"][l].remove(l)
    obj["edge_absorbers"] = [e for e in obj["edge_absorbers"]
                             if not (e["left"] < flex and e["right"] == e["left"])]
    return obj


def _sparse_robust_structure(k2):
    """A K2 structure at m = 3 whose template is robust but not complete:
    the 6 core rows are complete and each of the 51 flex rows has 3 slots,
    so every 3 flex vertices and the core match onto the 9 slots, and
    C(51, 3) = 20,825 flex subsets exceed the check's cap.  The graph has
    just the edges the structure's tilings use."""
    m, flex = 3, 51
    buffer, core = tuple(range(flex)), tuple(range(flex, flex + 2 * m))
    slot_blocks = tuple((v,) for v in range(flex + 2 * m, flex + 5 * m))
    left_adj = tuple(tuple(sorted({l % 9, (l + 1) % 9, (l + 2) % 9})) for l in range(flex))
    template = TemplateGraph(m=m, left_adj=left_adj + (tuple(range(3 * m)),) * (2 * m))
    free = itertools.count(flex + 5 * m, 2)
    edge_absorbers, edges = {}, []
    for l, r in template.edges():
        a = next(free)
        left, slot = (buffer + core)[l], slot_blocks[r][0]
        edge_absorbers[(l, r)] = (Tiling(k2, ((a, a + 1),)),
                                  Tiling(k2, ((left, slot), (a, a + 1))))
        edges += [(a, a + 1), (left, slot)]
    n = next(free)
    st = AbsorbingStructure(n=n, pattern=k2, t=1, surplus_ratio=1.0, builder="direct",
                            buffer=buffer, core=core, slot_blocks=slot_blocks,
                            template=template, edge_absorbers=edge_absorbers)
    return Graph(n, edges), st


def _stored_vertex_lists(obj):
    """The lists of graph vertices in a structure document."""
    return [obj["buffer"], obj["core"], *obj["slot_blocks"],
            *(copy for e in obj["edge_absorbers"] for key in ("alone", "with_core")
              for copy in e[key])]


# a second absorber for template edge (0, 2) of the k60_structure document:
# a K2 on {0, 59} and, with the core, {0, 59, 58, 57}
FORGED_EDGE_ABSORBER = {"left": 0, "right": 2, "alone": [[0, 59]],
                        "with_core": [[0, 59], [58, 57]]}


def _document(kind, st, c4_pattern):
    """The written document of the structure `st`, or a valid tiling of
    K60 by its clique pattern or by C4.  The tilings are small, so that the
    pattern's size is often the leaf a fuzz test replaces."""
    if kind == "structure":
        return structure_to_obj(st)
    if kind == "clique_tiling":
        return tiling_to_obj(Tiling(st.pattern, ((0, 1), (2, 3))))
    return tiling_to_obj(Tiling(c4_pattern, ((0, 1, 2, 3),)))


def _at(obj, path):
    """The value at key path `path` inside a JSON value."""
    for key in path:
        obj = obj[key]
    return obj


# any JSON value, as json.loads returns it
JSON_VALUES = hs.recursive(
    hs.none() | hs.booleans() | hs.integers() | hs.text(max_size=8)
    | hs.floats(allow_nan=False, allow_infinity=False),
    lambda inner: hs.lists(inner, max_size=3) | hs.dictionaries(hs.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _leaf_paths(obj, path=()):
    """Key paths to the scalars and empty containers inside a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    paths = [p for key, value in items for p in _leaf_paths(value, path + (key,))]
    return paths or [path]


@pytest.fixture(scope="module")
def k60_structure(k2):
    k60 = complete_graph(60)
    return k60, build_absorbing_set(k60, k2, desk_k2(t=1), seed=1)


@pytest.fixture(scope="module")
def k60_complete_structure(k2):
    # the k60_structure build on the complete m = 1 template, which a build
    # no longer makes but a document may bring: every left row holds every slot
    def complete(m, beta):
        return TemplateGraph(m=m, left_adj=(tuple(range(3 * m)),) * (3 * m + math.ceil(beta * m)))

    k60 = complete_graph(60)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(absorbing, "build_template", complete)
        return k60, build_absorbing_set(k60, k2, desk_k2(t=1), seed=1)


@pytest.fixture(scope="module")
def k60_general_structure(k2):
    k60 = complete_graph(60)
    cfg = AbsorberConfig.desk_scale(h=2, t=2, absorber_frac=0.2, sample_prob=0.06,
                                    surplus_ratio=1.0, m_cap=1, pool_size=2)
    return k60, build_absorbing_set(k60, k2, cfg, seed=1, builder="general")


@pytest.fixture(scope="module")
def k150_clique_structure(k3):
    # the partition construction at t = h = 3 needs 146 vertices at m = 1
    k150 = complete_graph(150)
    cfg = AbsorberConfig.desk_scale(h=3, t=3, absorber_frac=0.001, sample_prob=0.03,
                                    surplus_ratio=2.0, m_cap=1, part_degree_min=1,
                                    common_nbhd_min=1)
    return k150, build_absorbing_set(k150, k3, cfg, seed=1, builder="clique", ell=2)


class TestAbsorb:

    def test_remainder_guards(self, k60_structure):
        g, st = k60_structure
        outside = sorted(set(range(g.n)) - st.absorbing_set)
        with pytest.raises(ValueError, match="intersects"):
            absorb(g, st, [min(st.absorbing_set)])
        with pytest.raises(ValueError, match="divide"):
            absorb(g, st, outside[:1])
        too_many = outside[: st.max_remainder + 2]
        with pytest.raises(ValueError):
            absorb(g, st, too_many)

    def test_many_seeded_remainders(self, k60_structure):
        g, st = k60_structure
        outside = sorted(set(range(g.n)) - st.absorbing_set)
        sizes = st.valid_remainder_sizes()
        for i in range(25):
            rng = rng_for(17, "rem", i)
            size = sizes[rng.randrange(len(sizes))]
            rem = sorted(rng.sample(outside, size)) if size else []
            tiling = absorb(g, st, rem)
            assert tiling.covered == st.absorbing_set | set(rem)

    def test_absorption_deterministic(self, k60_structure):
        g, st = k60_structure
        outside = sorted(set(range(g.n)) - st.absorbing_set)
        a = absorb(g, st, outside[:2])
        b = absorb(g, st, outside[:2])
        assert a.copies == b.copies

    def test_disjoint_copy_budget_is_a_stage_failure(self, k60_structure, monkeypatch):
        g, st = k60_structure
        outside = sorted(set(range(g.n)) - st.absorbing_set)
        # two remainder vertices need two search nodes; the budget is read per call
        monkeypatch.setattr(factor, "DEFAULT_BUDGET", 1)
        with pytest.raises(StageFailure, match="exceeded its 1-node budget") as exc:
            absorb(g, st, outside[:2])
        assert exc.value.stage == "absorb-budget"

    def test_short_buffer_cover_is_a_certificate_bug(self, k60_structure, monkeypatch):
        g, st = k60_structure
        monkeypatch.setattr(absorption, "_disjoint_copies", lambda *args: [])
        with pytest.raises(CertificateBugError, match="survivors"):
            absorb(g, st, [])


# the K3 desk-scale constants of tests/test_pipeline.py
K3_DESK = dict(t=1, absorber_frac=0.05, sample_prob=0.08, surplus_ratio=6.0,
               m_cap=1, degree_frac=0.1, threshold_frac=0.1)


@hs.composite
def buffer_checks(draw):
    """(graph, pattern, buffer, need): a random graph on n <= 12 vertices, one
    of SMALL_PATTERNS, a random buffer and a threshold of 1 to 4 copies."""
    n = draw(hs.integers(1, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(hs.lists(hs.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, kept in zip(pairs, keep) if kept]
    p = SMALL_PATTERNS[draw(hs.sampled_from(sorted(SMALL_PATTERNS)))]
    buffer = sorted(draw(hs.sets(hs.integers(0, n - 1))))
    return Graph(n, edges), p, buffer, draw(hs.integers(1, 4))


class TestDisjointCopies:
    """absorption._disjoint_copies returns exactly what the reference
    searches in tests/oracles.py return, for both of absorb()'s uses, over
    copy families built by brute force: the same copies, in anchor order,
    with the same embeddings."""

    @settings(max_examples=300, deadline=None)
    @given(buffer_checks(), hs.data())
    def test_remainder_choice_matches_reference(self, drawn, data):
        g, p, pool, _need = drawn
        # absorb() guarantees that remainder vertices lie outside the buffer
        outside = [v for v in range(g.n) if v not in pool]
        rem = sorted(data.draw(hs.sets(hs.sampled_from(outside)))) if outside else []
        families, embedding = copy_families_reference(g, p, rem, pool)
        expected = _choose_disjoint_members(rem, families, frozenset(pool))
        got = absorption._disjoint_copies(g, p, rem, pool, len(rem), 0)
        assert got == (None if expected is None
                       else [embedding[v, expected[v]] for v in rem])

    @settings(max_examples=300, deadline=None)
    @given(buffer_checks(), hs.data())
    def test_surplus_cover_matches_reference(self, drawn, data):
        g, p, remaining, _need = drawn
        need = data.draw(hs.integers(0, 4))
        m = data.draw(hs.integers(0, 4))
        families, embedding = copy_families_reference(g, p, remaining, remaining)
        expected = _cover_buffer(remaining, families, need, m)
        got = absorption._disjoint_copies(g, p, remaining, remaining, need, m)
        assert got == (None if expected is None
                       else [embedding[v, member] for v, member in expected])


class TestBufferSample:
    """Stage 1 of build_absorbing_set counts each vertex's copies into the
    buffer, up to the threshold, instead of building its copy family."""

    @settings(max_examples=300, deadline=None)
    @given(buffer_checks())
    def test_count_matches_bruteforce(self, drawn):
        g, p, buffer, need = drawn
        expected = all(copies_into_buffer_count(g, p, buffer, v) >= need for v in range(g.n))
        assert absorbing._every_vertex_reaches(g, p, vertex_mask(buffer), need) == expected

    @pytest.mark.parametrize("graph_seed", [1, 2, 3])
    def test_gnp120_build_memory(self, k3, graph_seed):
        # families for every vertex peaked at 273-411 KiB; counting keeps about 41
        g = gen_gnp(120, 0.7, graph_seed)
        cfg = AbsorberConfig.desk_scale(h=3, **K3_DESK)
        gc.collect()
        tracemalloc.start()
        try:
            build_absorbing_set(g, k3, cfg, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**10
