import ast
import dataclasses
import gc
import hashlib
import io
import json
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

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
    has_perfect_matching,
)
import tilinglab
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
    TILING_KEYS,
    dump_json,
    structure_from_obj,
    structure_to_obj,
    tiling_to_obj,
)
from tilinglab.verify import (
    VerificationError,
    verify_absorber,
    verify_structure,
    verify_tiling,
)


# sha256 of the K60/K2 direct structure document (the k60_structure fixture)
# as dump_json writes it.  A change that alters the document on purpose
# updates this constant and says why.  absorbing-structure/v8 stores no
# template: its sparse template, 5 rows and 5 edges, each with its
# absorber, derives from the 3 buffer vertices.  Nor does it
# store n, t or surplus_ratio: the graph, the tilings and the template
# give what a reader needs of them.
K60_DIRECT_DOCUMENT_SHA256 = "b8a0a5645c93b0524c7b2ba4a9814dcb8905ef3b427c651f6315367eb5607d3d"


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
        # the absorbable remainder is the template's surplus over h-1, so
        # no remainder fraction can be set
        with pytest.raises(TypeError):
            AbsorberConfig(h=3, t=1, absorber_frac=0.1, sample_prob=0.1,
                           surplus_ratio=6.0, remainder_frac=1.0)

    def test_overrides_keyword_is_gone(self):
        # there is no overrides flag: asymptotic() binds the constants itself
        with pytest.raises(TypeError):
            AbsorberConfig(h=3, t=1, absorber_frac=0.1, sample_prob=0.5,
                           surplus_ratio=1.0, overrides=False)

    def test_from_overrides_sets_every_field(self):
        # every field but h, which the pattern fixes
        values = dict(t=2, absorber_frac=0.3, sample_prob=0.2, surplus_ratio=1.5,
                      degree_frac=0.15, threshold_frac=0.25, pool_size=7, m_cap=4)
        fields = dataclasses.fields(AbsorberConfig)
        assert {f.name for f in fields} == set(values) | {"h"}
        assert all(values[f.name] != f.default for f in fields if f.name in values)
        assert AbsorberConfig.from_overrides(4, json.loads(json.dumps(values))) == \
            AbsorberConfig(h=4, **values)

    def test_every_field_is_read_outside_config(self):
        # a field that no module reads as `<obj>.<field>` is a knob that
        # changes nothing
        read = {node.attr for path in Path(tilinglab.__file__).parent.glob("*.py")
                if path.name != "config.py"
                for node in ast.walk(ast.parse(path.read_text(encoding="ascii")))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        unread = {f.name for f in dataclasses.fields(AbsorberConfig)} - read
        assert not unread


class TestTemplate:
    def test_flex_2(self):
        tpl = build_template(0.9)
        assert tpl == TemplateGraph(flex_size=2)
        assert tpl.surplus == 1
        assert tpl.edges() == [(0, 2), (1, 2), (2, 0), (3, 1)]

    @pytest.mark.parametrize("beta,flex", [
        (0.0, 1), (0.01, 2), (1.025, 3), (39.0, 40), (40.0, 41), (54.0, 55)])
    def test_flex_side_is_one_plus_ceil_beta(self, beta, flex):
        # the flex side is 1 + ceil(beta), with no bound: the former degree
        # bound of 40 is built on both sides, as is a flex side of 55
        tpl = build_template(beta)
        assert tpl == TemplateGraph(flex_size=flex)
        assert (tpl.surplus, len(tpl.edges())) == (flex - 1, flex + 2)

    def test_sparse_fixture(self):
        # each of the 15 flex rows joins slot 2 alone and core j slot j, so
        # the template has 15 + 2 edges and each of its 3 slots is filled
        tpl = build_template(14.0)
        assert tpl.flex_size == 15
        assert tpl.edges() == [(l, 2) for l in range(15)] + [(15, 0), (16, 1)]
        assert all(sorted(tpl.slot_matching(l).values()) == [0, 1, 2] for l in range(15))

    @pytest.mark.parametrize("beta", [-1.0, -0.1, float("nan"), float("inf")])
    def test_beta_out_of_range_is_a_value_error(self, beta):
        # the flex side is 1 + ceil(beta), so beta must be finite and >= 0
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            build_template(beta)

    def test_slot_matching(self):
        tpl = build_template(2.5)
        assert tpl.slot_matching(2) == {2: 2, 4: 0, 5: 1}  # flex 2, then the core
        for bad in (-1, 4, 5):  # below the flex side, the core rows
            with pytest.raises(ValueError, match="is not a flex index below 4"):
                tpl.slot_matching(bad)

    def test_every_survivor_matches_on_template_edges(self):
        # at every flex size from 1 to 60, the formula's matching for each
        # survivor uses only template edges and fills the 3 slots, and the
        # matching oracle agrees on the survivor's and the core's rows
        for flex in range(1, 61):
            tpl = TemplateGraph(flex_size=flex)
            edges = tpl.edges()
            assert tpl.surplus == flex - 1 and len(edges) == flex + 2
            for survivor in range(flex):
                matching = tpl.slot_matching(survivor)
                rows = [survivor, flex, flex + 1]
                assert sorted(matching) == rows and sorted(matching.values()) == [0, 1, 2]
                assert set(matching.items()) <= set(edges)
                assert has_perfect_matching(3, 3, [[r for l, r in edges if l == row]
                                                   for row in rows])


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
        verify_absorber(k9, [0, 1, 2], alone, with_core)

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
        verify_absorber(k9, [2, 0, 1], *tilings)

    def test_given_tilings_accepted(self, k3):
        verify_absorber(K9_CUT, [0, 1, 2], Tiling(k3, ((3, 4, 5),)),
                        Tiling(k3, ((0, 1, 2), (3, 4, 5))))
        # an absorber's size is whatever its tilings cover: a multiple of h
        verify_absorber(K9_CUT, [0, 1, 2], Tiling(k3, ((3, 4, 5), (6, 7, 8))),
                        Tiling(k3, ((0, 1, 2), (3, 4, 5), (6, 7, 8))))

    @pytest.mark.parametrize("core,alone,with_core,message", [
        ([0, 1, 2], [(3, 4, 5)], [(0, 1, 4), (2, 3, 5)],
         r"copy 1 does not preserve pattern edge \(0,1\): \(2,3\) is not an edge"),
        ([0, 1, 2], [(3, 4, 5)], [(0, 1, 2)],
         "tiling of the absorber plus core does not cover exactly its vertices"),
        ([0, 1, 2], [(3, 4, 5)], [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
         "tiling of the absorber plus core does not cover exactly its vertices"),
        ([0, 1, 2], [(3, 4, 5)], [(0, 1, 2), (2, 4, 5)], "share vertex 2"),
        ([0, 1, 2], [(2, 4, 5)], [(0, 1, 3), (2, 4, 5)], "absorber intersects its core set"),
        ([0, 1], [(3, 4, 5)], [(0, 1, 3), (2, 4, 5)], "core has 2 vertices, expected 3"),
        ([0, 1, 2], [(3, 4, 9)], [(0, 1, 2), (3, 4, 9)], "out-of-range vertex 9"),
    ], ids=["non_edge", "missing_vertex", "extra_vertex", "overlapping_copies",
            "core_overlap", "core_size", "out_of_range"])
    def test_given_tilings_rejected(self, k3, core, alone, with_core, message):
        with pytest.raises(VerificationError, match=message):
            verify_absorber(K9_CUT, core, Tiling(k3, tuple(alone)),
                            Tiling(k3, tuple(with_core)))

    def test_tilings_of_different_patterns_rejected(self, k3, k2):
        with pytest.raises(VerificationError, match="different patterns"):
            verify_absorber(K9_CUT, [0, 1], Tiling(k2, ((3, 4),)),
                            Tiling(k3, ((0, 1, 4), (3, 5, 6))))

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
            verify_absorber(g, core, *tilings)


class TestFamilyBuilders:
    def test_direct_family(self, k3):
        k30 = complete_graph(30)
        fams = disjoint_absorber_family_direct(k30, k3, [0, 1, 2], t=3, target=2)
        assert len(fams) == 2
        assert not (fams[0][0].covered & fams[1][0].covered)
        for alone, with_core in fams:
            assert len(alone.covered) == 3 * 3
            verify_absorber(k30, [0, 1, 2], alone, with_core)

    def test_general_on_complete(self, k3):
        cfg = AbsorberConfig.desk_scale(h=3, t=3, pool_size=9)
        k30 = complete_graph(30)
        fams = disjoint_absorber_family_general(k30, k3, [0, 1, 2], target=2,
                                                config=cfg)
        assert len(fams) == 2
        seen = set()
        for alone, with_core in fams:
            assert len(alone.covered) == 3 * 3
            verify_absorber(k30, [0, 1, 2], alone, with_core)
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
            assert len(alone.covered) == 3 * 3
            verify_absorber(g, core, alone, with_core)
            assert not (alone.covered & seen)
            seen |= alone.covered

    def test_clique_on_complete(self):
        k40 = complete_graph(40)
        fams = disjoint_absorber_family_clique(k40, 3, [0, 1, 2], target=3, seed=1)
        assert len(fams) == 3
        for alone, with_core in fams:
            assert len(alone.covered) == 3 * 3
            verify_absorber(k40, [0, 1, 2], alone, with_core)

    def test_clique_two_cliques_stays_inside(self):
        g = gen_two_cliques(40)  # parts 0..18 and 19..39
        fams = disjoint_absorber_family_clique(g, 3, [0, 1, 2], target=1, seed=3)
        assert len(fams) == 1
        alone, with_core = fams[0]
        assert all(v < 19 for v in with_core.covered)
        assert len(alone.covered) == 3 * 3
        verify_absorber(g, [0, 1, 2], alone, with_core)

    def test_clique_fails_on_large_independent_sets(self):
        g = gen_complete_multipartite([13, 13, 14])
        assert disjoint_absorber_family_clique(g, 3, [0, 1, 2], target=1, seed=1) == []


class TestBuildAbsorbingSet:
    def test_k60_k2_build_verify_absorb(self, k2):
        k60 = complete_graph(60)
        cfg = desk_k2(t=1)
        st = build_absorbing_set(k60, k2, cfg, seed=1)
        verify_structure(k60, st)
        # buffer, core and slots hold 3h + s vertices, each absorber h*t
        h, t = k2.h, cfg.t
        assert all(len(alone.covered) == h * t for alone, _ in st.edge_absorbers.values())
        # each remainder vertex takes h - 1 of the surplus's vertices
        assert st.max_remainder == st.template.surplus // (h - 1) == 2
        assert len(st.absorbing_set) == (3 * h + st.template.surplus
                                         + h * t * len(st.edge_absorbers))
        sizes = st.valid_remainder_sizes()
        assert 0 in sizes and 2 in sizes
        outside = sorted(set(range(60)) - st.absorbing_set)
        t0 = absorb(k60, st, [])
        verify_tiling(k60, t0, require_cover=st.absorbing_set)
        t2 = absorb(k60, st, outside[:2])
        assert t2.covered == st.absorbing_set | set(outside[:2])

    def test_tiny_surplus_ratio_absorbs_its_template_surplus(self, k2):
        # a ratio of 0.01 gives a surplus of ceil(0.01) = 1, and the
        # structure absorbs that many vertices whatever the ratio is
        k60 = complete_graph(60)
        st = build_absorbing_set(k60, k2, desk_k2(t=1, surplus_ratio=0.01), seed=1)
        verify_structure(k60, st)
        assert (len(st.absorbing_set), st.max_remainder, st.valid_remainder_sizes()) == (15, 1, [1])
        outside = sorted(set(range(60)) - st.absorbing_set)
        assert absorb(k60, st, outside[:1]).covered == st.absorbing_set | {outside[0]}

    @pytest.mark.parametrize("fixture", ["k60_structure", "k60_general_structure",
                                         "k150_clique_structure", "k36_k3_structure"],
                             ids=["direct_k2", "general", "clique", "direct_k3"])
    def test_max_remainder_is_the_template_surplus_over_h_minus_1(self, request, fixture):
        # every build's cap is its template's own capacity, and a remainder
        # of the largest valid size is absorbed
        g, st = request.getfixturevalue(fixture)
        h = st.pattern.h
        assert st.max_remainder == st.template.surplus // (h - 1) >= 1
        sizes = st.valid_remainder_sizes()
        assert sizes and all(k <= st.max_remainder and (len(st.absorbing_set) + k) % h == 0
                             for k in sizes)
        outside = sorted(set(range(g.n)) - st.absorbing_set)
        rem = outside[:sizes[-1]]
        assert absorb(g, st, rem).covered == st.absorbing_set | set(rem)

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
        # the sparse template: 3 flex rows to slot 2, core j to slot j
        assert len(calls) == len(st.edge_absorbers) == len(st.template.edges()) == 5

    @pytest.mark.parametrize("kw,detail", [
        (dict(sample_prob=0.1),
         "no sample can pass: it keeps at most ceil(2nq) = 6 vertices, and the flex side "
         "needs 7"),
        (dict(sample_prob=0.2, m_cap=0), "no sample can pass: m_cap = 0"),
    ], ids=["cap", "m_cap"])
    def test_buffer_sample_fails_before_sampling(self, k3, monkeypatch, kw, detail):
        # on K30 a sample keeps at most ceil(2 * 30 * 0.1) = 6 vertices, and
        # the flex side is 1 + ceil(surplus_ratio) = 7; m_cap = 0 allows none
        def draw(*args):
            raise AssertionError("a buffer sample was drawn")
        monkeypatch.setattr(absorbing, "rng_for", draw)
        cfg = AbsorberConfig.desk_scale(h=3, t=1, surplus_ratio=6.0, **kw)
        with pytest.raises(StageFailure) as exc:
            build_absorbing_set(complete_graph(30), k3, cfg, seed=1)
        assert (exc.value.stage, exc.value.detail) == ("buffer-sample", detail)

    def test_no_absorbable_remainder_size_fails_the_build(self, monkeypatch):
        # K4 at s = ceil(5.0) = 5: |A| is 5 mod 4, so the least remainder
        # size is 3, and max_remainder = 5 // 3 = 1; the template fixes
        # that, so the build stops before it draws a buffer sample
        def draw(*args):
            raise AssertionError("a buffer sample was drawn")
        monkeypatch.setattr(absorbing, "rng_for", draw)
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

    @pytest.mark.parametrize("graph_seed", [1, 2, 3])
    def test_flex_side_past_40_builds_verifies_and_absorbs(self, k3, graph_seed):
        # a surplus of 59 makes a flex side of 60, past the former degree
        # bound of 40: on G(480, 0.9) the structure verifies, and absorb
        # tiles 3 seeded remainders of every valid size
        g = gen_gnp(480, 0.9, graph_seed)
        cfg = AbsorberConfig.desk_scale(h=3, t=1, surplus_ratio=59.0, sample_prob=0.1875,
                                        m_cap=1)
        st = build_absorbing_set(g, k3, cfg, seed=1)
        verify_structure(g, st)
        assert (len(st.buffer), len(st.absorbing_set), st.max_remainder) == (60, 254, 29)
        sizes = st.valid_remainder_sizes()
        assert sizes == list(range(1, 30, 3))
        outside = sorted(set(range(g.n)) - st.absorbing_set)
        for k in sizes:
            for i in range(3):
                rem = sorted(rng_for(graph_seed, "remainder", k, i).sample(outside, k))
                assert absorb(g, st, rem).covered == st.absorbing_set | set(rem)

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
        (lambda obj: obj.update(remainder_frac=2.0), "unknown structure key(s): remainder_frac"),
        # v5 stored the build's whole config and seed, and nothing read them
        (lambda obj: obj.update(config={
            "h": 2, "t": 1, "absorber_frac": 0.9, "sample_prob": 0.9, "surplus_ratio": 2.0,
            "degree_frac": 0.9, "threshold_frac": 0.9, "overrides": True, "pool_size": 5,
            "part_degree_min": 50, "common_nbhd_min": 50, "m_cap": 99}),
         "unknown structure key(s): config"),
        (lambda obj: obj.update(seed=123456), "unknown structure key(s): seed"),
        # v6 stored the template's rows, which its sizes fix
        (lambda obj: obj.update(template={"m": 1, "left_adj": [[2], [2], [2], [0], [1]]}),
         "unknown structure key(s): template"),
        # v7 stored the graph's n, the absorbers' multiplicity t and the
        # build's surplus_ratio: the graph, the tilings and the template
        # give what a reader needs of them
        (lambda obj: obj.update(n=60), "unknown structure key(s): n"),
        (lambda obj: obj.update(t=1), "unknown structure key(s): t"),
        (lambda obj: obj.update(surplus_ratio=2.0), "unknown structure key(s): surplus_ratio"),
        (lambda obj: obj["pattern"].update(edges="junk"),
         "unknown clique pattern key(s): edges"),
        (lambda obj: dict(tiling_to_obj(Tiling(Pattern.clique(2), ())), extra=1),
         "unknown tiling key(s): extra"),
    ], ids=["harvest_sizes", "copy_families", "absorber_vertices", "slots", "size_report",
            "remainder_frac", "config", "seed", "template", "n", "t", "surplus_ratio",
            "clique_pattern_edges", "tiling_extra"])
    def test_unread_key_is_refused(self, k60_structure, tmp_path, capsys, tamper, message):
        # keys older documents carried, derived values v4 no longer stores,
        # v5's `config` and `seed`, which nothing checked, v6's template,
        # v7's build values, and keys no writer emits; a tamper may return
        # another document
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

    def test_structure_that_absorbs_no_remainder_is_invalid(self, k36_k3_structure, tmp_path,
                                                             capsys):
        # the last of the 3 buffer vertices and its edge absorber go: the
        # surplus is 1, so |A| is 1 mod 3, the least remainder size is 2,
        # and the surplus absorbs 1 // 2 = 0 vertices
        g, st = k36_k3_structure
        graph = tmp_path / "k36.el"
        graph.write_text(emit_graph(g))
        obj = structure_to_obj(st)
        flex = len(obj["buffer"]) - 1
        obj["buffer"] = obj["buffer"][:flex]
        obj["edge_absorbers"] = [dict(e, left=e["left"] - (e["left"] > flex))
                                 for e in obj["edge_absorbers"] if e["left"] != flex]
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 1
        assert ("INVALID: no remainder size k <= max_remainder = 0 makes |A| + k divisible "
                "by h = 3") in capsys.readouterr().err

    @pytest.mark.parametrize("builder", ["general", "clique"])
    def test_builder_label_over_absorbers_it_cannot_build_is_invalid(
            self, k36_k3_structure, tmp_path, capsys, builder):
        # the traversing and partition constructions build absorbers on
        # h^2 = 9 vertices; this structure's direct absorbers have 3
        g, st = k36_k3_structure
        graph = tmp_path / "k36.el"
        graph.write_text(emit_graph(g))
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(dict(structure_to_obj(st), builder=builder)))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 1
        assert (f"INVALID: absorber for edge (0,2) has 3 vertices, but the {builder} builder "
                "builds h^2 = 9") in capsys.readouterr().err

    def test_direct_absorbers_of_different_sizes_are_valid(self, k60_structure, tmp_path,
                                                            capsys):
        # the absorber of edge (0, 2) gains the K2 {15, 16} in both tilings:
        # 4 vertices beside the others' 2, and each tiling is still perfect
        k60, st = k60_structure
        graph = tmp_path / "k60.el"
        graph.write_text(emit_graph(k60))
        obj = structure_to_obj(st)
        first = obj["edge_absorbers"][0]
        assert (first["left"], first["right"]) == (0, 2)
        assert not {15, 16} & st.absorbing_set
        first["alone"].append([15, 16])
        first["with_core"].append([15, 16])
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 0
        loaded = structure_from_obj(obj, k60.n)
        assert sorted(len(alone.covered) for alone, _ in loaded.edge_absorbers.values()) \
            == [2, 2, 2, 2, 4]
        outside = sorted(set(range(60)) - loaded.absorbing_set)
        assert absorb(k60, loaded, outside[:2]).covered == loaded.absorbing_set | set(outside[:2])

    @pytest.mark.parametrize("tamper,message", [
        (lambda obj, free: obj.update(core=[]), "core has 0 vertices, not 2"),
        (lambda obj, free: obj["core"].pop(), "core has 1 vertices, not 2"),
        (lambda obj, free: obj.update(core=sorted(obj["core"] + free[:2])),
         "core has 4 vertices, not 2"),
        (lambda obj, free: obj["slot_blocks"].pop(), "2 slot blocks, not 3"),
        # an empty buffer whose core keeps its absorbers: the flex side
        # has no survivor, so no remainder size is absorbable
        (lambda obj, free: obj.update(buffer=[], edge_absorbers=[
            dict(e, left=e["left"] - 3) for e in obj["edge_absorbers"] if e["left"] >= 3]),
         "no remainder size k <= max_remainder = -1 makes |A| + k divisible by h = 2"),
    ], ids=["core_empty", "core_odd", "core_4", "slot_blocks_2", "buffer_short"])
    def test_structure_sizes_outside_the_template_are_invalid(self, k60_structure, tmp_path,
                                                              capsys, tamper, message):
        # the core and slot-block counts are fixed and the buffer's size
        # fixes the template, so each is checked before the template is used
        k60, st = k60_structure
        graph = tmp_path / "k60.el"
        graph.write_text(emit_graph(k60))
        obj = structure_to_obj(st)
        tamper(obj, sorted(set(range(k60.n)) - st.absorbing_set))
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 1
        assert f"INVALID: {message}" in capsys.readouterr().err

    def test_structure_template_is_the_build_template(self, k60_structure):
        _k60, st = k60_structure
        assert st.template == build_template(desk_k2().surplus_ratio) \
            == TemplateGraph(flex_size=3)

    @pytest.mark.parametrize("builder", ["general", "clique"])
    def test_every_builder_derives_the_build_template(self, builder, k60_general_structure,
                                                      k150_clique_structure):
        # the sizes a builder stores give back the template it built from
        _g, st = {"general": k60_general_structure, "clique": k150_clique_structure}[builder]
        cfg = {"general": K60_GENERAL_CONFIG, "clique": K150_CLIQUE_CONFIG}[builder]
        tpl = st.template
        assert (len(st.core), len(st.buffer)) == (2, tpl.flex_size)
        assert tpl == build_template(cfg.surplus_ratio)
        assert set(st.edge_absorbers) == set(tpl.edges())

    @pytest.mark.parametrize("flex", [1, 41], ids=["buffer_1", "buffer_41"])
    def test_structure_sizes_at_the_bounds_pass_the_size_checks(self, k60_structure, flex):
        # a buffer has no upper bound: a buffer of 1 with its absorbers
        # kept is valid, and one of 41, past the former degree bound of 40,
        # fails only on the edges its derived template has and the document
        # does not
        k60, st = k60_structure
        obj = structure_to_obj(st)
        kept = len(st.buffer)  # 3; the core's left indices follow the buffer's
        free = sorted(set(range(k60.n)) - st.absorbing_set)
        obj["buffer"] = sorted(obj["buffer"] + free[:max(0, flex - kept)])[:flex]
        dropped = max(0, kept - flex)
        obj["edge_absorbers"] = [dict(e, left=e["left"] - dropped * (e["left"] >= kept))
                                 for e in obj["edge_absorbers"]
                                 if not flex <= e["left"] < kept]
        bad = structure_from_obj(obj, k60.n)
        assert bad.template == TemplateGraph(flex_size=flex)
        if flex < kept:
            verify_structure(k60, bad)
            return
        with pytest.raises(VerificationError,
                           match="edge absorbers do not cover the template edges"):
            verify_structure(k60, bad)

    @pytest.mark.parametrize("tamper,message", [
        (lambda obj: obj.update(slot_blocks=[[2, 3], [], [4]]),
         "slot blocks are not all \\(h-1\\)-sets"),
        (lambda obj: obj["buffer"].__setitem__(0, 1), "buffer, core and slots overlap"),
        (lambda obj: obj["buffer"].__setitem__(0, 2), "buffer, core and slots overlap"),
        (lambda obj: obj["edge_absorbers"][0].update(alone=[[5, 31]]),
         "absorber for edge \\(0,2\\) overlaps earlier structure vertices"),
        (lambda obj: obj["edge_absorbers"][1].update(alone=[[5, 6]]),
         "absorber for edge \\(1,2\\) overlaps earlier structure vertices"),
    ], ids=["slot_blocks_uneven", "buffer_meets_core", "buffer_meets_slots",
            "absorber_meets_buffer", "absorbers_overlap"])
    def test_structure_that_shares_a_vertex_is_invalid(self, k60_structure, tamper, message):
        # buffer, core, slot blocks and each absorber's copies are disjoint,
        # and each slot block holds h - 1 = 1 vertex
        k60, st = k60_structure
        obj = structure_to_obj(st)
        tamper(obj)
        with pytest.raises(VerificationError, match=message):
            verify_structure(k60, structure_from_obj(obj, k60.n))

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
        assert not doc.keys() & {"slots", "size_report", "template"}
        # nor are the build's inputs, nor the graph's n
        assert not doc.keys() & {"config", "seed", "t", "surplus_ratio", "n"}

    @pytest.mark.parametrize("tamper,message", [
        (lambda obj: obj["pattern"].update(r=3000),
         "pattern r 3000 has more vertices than the graph's 60"),
        (lambda obj: obj.update(pattern={"kind": "general", "n": 3000, "edges": []}),
         "pattern n 3000 has more vertices than the graph's 60"),
        (lambda obj: obj.update(pattern=[1]), "pattern must be an object, not [1]"),
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
         "structure builder clique needs a clique pattern K_r with r >= 3"),
        (lambda obj: obj.update(builder="exact"),
         'structure builder must be one of direct, general, clique, not "exact"'),
    ], ids=["pattern_above_n", "pattern_above_graph_n", "pattern_type", "buffer", "core",
            "slot_block", "absorber_vertex", "absorber_left", "absorber_right", "absorber_entry",
            "absorbers_type", "repeated_edge_first", "repeated_edge_last", "builder",
            "unknown_builder"])
    def test_tampered_document_is_malformed(self, k60_structure, tmp_path, capsys,
                                            tamper, message):
        k60, st = k60_structure
        graph = tmp_path / "k60.el"
        graph.write_text(emit_graph(k60))
        obj = structure_to_obj(st)
        tamper(obj)
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 2
        assert f"malformed certificate: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper,message", [
        (lambda obj: obj["buffer"].__setitem__(-1, 60),
         "structure buffer must lie in 0..59, not [31, 44, 60]"),
        (lambda obj: obj["slot_blocks"].__setitem__(1, [60]),
         "structure slot block must lie in 0..59, not [60]"),
        (lambda obj: obj["edge_absorbers"][0]["alone"].__setitem__(0, [5, 60]),
         "edge absorber alone copy must lie in 0..59, not [5, 60]"),
        (lambda obj: obj["edge_absorbers"][0]["with_core"].__setitem__(1, [6, 60]),
         "edge absorber with_core copy must lie in 0..59, not [6, 60]"),
    ], ids=["buffer", "slot_block", "alone", "with_core"])
    def test_vertex_outside_the_graph_is_refused(self, k60_structure, tmp_path, capsys,
                                                 tamper, message):
        # no n is stored: the graph's own n bounds every stored vertex
        k60, st = k60_structure
        graph = tmp_path / "k60.el"
        graph.write_text(emit_graph(k60))
        obj = structure_to_obj(st)
        tamper(obj)
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 2
        assert f"malformed certificate: {message}" in capsys.readouterr().err

    def test_structure_is_checked_on_the_graph_it_is_given(self, k60_structure, tmp_path,
                                                           capsys):
        # K70 holds the K60 the structure was built on, so the same document
        # is valid on it and absorbs vertices the build never saw
        _k60, st = k60_structure
        k70 = complete_graph(70)
        graph = tmp_path / "k70.el"
        graph.write_text(emit_graph(k70))
        obj = structure_to_obj(st)
        doc = tmp_path / "structure.json"
        doc.write_text(json.dumps(obj))
        assert main(["verify", "--certificate", str(doc), "--graph", str(graph)]) == 0
        assert capsys.readouterr().out.strip() == "valid"
        loaded = structure_from_obj(obj, k70.n)
        assert absorb(k70, loaded, [68, 69]).covered == st.absorbing_set | {68, 69}

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
        assert "INVALID: slot blocks are not all (h-1)-sets" in capsys.readouterr().err

    def test_writers_emit_the_keys_loaders_read(self, k60_structure, c4_pattern):
        _k60, st = k60_structure
        doc = structure_to_obj(st)
        assert doc.keys() == STRUCTURE_KEYS
        # a structure keeps in memory exactly what its document stores
        assert ({f.name for f in dataclasses.fields(AbsorbingStructure)}
                == STRUCTURE_KEYS - {"schema"})
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
            paths += [("edge_absorbers", 0)]
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
    def test_plausible_mutation_never_crashes_verify(self, k60_structure,
                                                     tmp_path_factory, data):
        # one change that keeps the document well formed, so that verify
        # reaches its checks: swap two stored vertices, rename one to a
        # vertex outside A, or move an edge absorber to a slot off its
        # template row.  K60 looks the same from every vertex, so a renamed
        # structure stays valid unless its buffer falls out of order, and a
        # moved absorber leaves the edges the sizes fix
        k60, st = k60_structure
        folder = tmp_path_factory.mktemp("plausible")
        graph = folder / "k60.el"
        graph.write_text(emit_graph(k60))
        obj = structure_to_obj(st)
        kind = data.draw(hs.sampled_from(["swap", "outside", "move"]))
        if kind == "move":
            edges = set(st.template.edges())
            moved, new = data.draw(hs.sampled_from(
                [(e, new) for e in obj["edge_absorbers"] for new in range(3)
                 if (e["left"], new) not in edges]))
            moved["right"] = new
            expected = "INVALID: edge absorbers do not cover the template edges"
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


K60_GENERAL_CONFIG = AbsorberConfig.desk_scale(h=2, t=2, absorber_frac=0.2, sample_prob=0.06,
                                                surplus_ratio=1.0, m_cap=1, pool_size=2)
# the partition construction at t = h = 3 needs 146 vertices
K150_CLIQUE_CONFIG = AbsorberConfig.desk_scale(h=3, t=3, absorber_frac=0.001, sample_prob=0.03,
                                                surplus_ratio=2.0, m_cap=1)


@pytest.fixture(scope="module")
def k60_general_structure(k2):
    k60 = complete_graph(60)
    return k60, build_absorbing_set(k60, k2, K60_GENERAL_CONFIG, seed=1, builder="general")


@pytest.fixture(scope="module")
def k150_clique_structure(k3):
    k150 = complete_graph(150)
    return k150, build_absorbing_set(k150, k3, K150_CLIQUE_CONFIG, seed=1, builder="clique",
                                     ell=2)


@pytest.fixture(scope="module")
def k36_k3_structure(k3):
    # a direct K3 structure with surplus ceil(2.0) = 2: |A| is
    # 2 mod 3, so it absorbs k = 1 <= 2 // 2
    k36 = complete_graph(36)
    cfg = AbsorberConfig.desk_scale(h=3, t=1, sample_prob=0.1, surplus_ratio=2.0, m_cap=1)
    return k36, build_absorbing_set(k36, k3, cfg, seed=1)


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
