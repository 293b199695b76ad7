import dataclasses
import hashlib

import pytest

from tilinglab import absorption, pipeline, templates
from tilinglab.absorbing import AbsorberConfig, build_absorbing_set, build_template
from tilinglab.config import StageFailure
from tilinglab.embed import cliques_of_size
from tilinglab.factor import FactorResult, find_factor_exact, greedy_max_tiling
from tilinglab.generators import (
    GENERATORS,
    Construction,
    GammaReport,
    gen_complete_multipartite,
    gen_gnp,
    gen_two_cliques,
)
from tilinglab.graphs import Graph, complete_graph, parse_pattern_spec, vertex_mask
from tilinglab.invariants import SearchResult, TraversingVerdict, traversing_threshold
from tilinglab.pipeline import StageOutcome, check_hypotheses, find_factor_absorbing
from tilinglab.rng import derive_seed, rng_for
from tilinglab.sweep import ExperimentSpec, rows_to_csv, run_sweep
from tilinglab.verify import verify_structure, verify_tiling

K3_DESK = dict(t=1, absorber_frac=0.05, sample_prob=0.08, surplus_ratio=6.0,
               m_cap=1, degree_frac=0.1, threshold_frac=0.1)
K2_DESK = AbsorberConfig.desk_scale(h=2, absorber_frac=0.2, sample_prob=0.06,
                                    surplus_ratio=2.0, m_cap=1)


def t_equal_h_desk(h):
    """The desk config that runs the partition construction for K_h."""
    return AbsorberConfig.desk_scale(h=h, t=h, sample_prob=0.1, absorber_frac=0.05,
                                     surplus_ratio=6.0, m_cap=1)


@pytest.mark.parametrize("record", [
    FactorResult(status="none", tiling=None, nodes=0),
    SearchResult(value=1, witness=(0,), exact=True, nodes=1),
    TraversingVerdict(s=1, mode="exhaustive", holds=True),
    templates.TemplateGraph(m=1, flex_size=2),
    StageOutcome("cover", True),
    GammaReport(graph=Graph(1), ell=2, max_degree=0, alpha_ell=1, alpha_exact=True),
    Construction(("n",), lambda c, seed: Graph(int(c["n"]))),
], ids=lambda r: type(r).__name__)
def test_value_records_refuse_assignment(record):
    first = next(iter(type(record).__annotations__))
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.unknown = None


class TestHypotheses:
    def test_clique_mode_detects_violation(self, k3):
        g = gen_complete_multipartite([13, 13, 14])
        cfg = AbsorberConfig.desk_scale(h=3, **K3_DESK)
        held, detail = check_hypotheses(g, k3, "clique", cfg, ell=2)
        assert not held
        assert "alpha_2" in detail and "exact" in detail

    @pytest.mark.parametrize("mode", ["clique", "general"])
    def test_empty_graph_holds_no_hypothesis(self, k3, mode):
        # min_degree raises on the empty graph, and the run raised with it;
        # the fallback settles n = 0 as it settles any small n
        g = Graph(0)
        cfg = AbsorberConfig.desk_scale(h=3, **K3_DESK)
        assert check_hypotheses(g, k3, mode, cfg) == (False,
                                                      "the empty graph has no minimum degree")
        rep = find_factor_absorbing(g, k3, mode=mode, config=cfg)
        assert not rep.hypothesis_held
        assert rep.factor_found and rep.fallback_used and len(rep.tiling) == 0

    def test_clique_mode_discloses_bound_kind(self, k3):
        g = gen_gnp(120, 0.7, 9)
        cfg = AbsorberConfig.desk_scale(h=3, **K3_DESK)
        held, detail = check_hypotheses(g, k3, "clique", cfg, ell=2)
        assert held
        assert "lower bound" in detail

    def test_bound_kind_comes_from_the_search(self, k3, monkeypatch):
        cfg = AbsorberConfig.desk_scale(h=3, **K3_DESK)
        # K60 is past n = 40, yet its alpha_2 search finishes in 1,830 nodes
        held, detail = check_hypotheses(complete_graph(60), k3, "clique", cfg, ell=2)
        assert held and "alpha_2=1 [exact]" in detail
        # a search stopped at its budget on a small graph is still a bound
        monkeypatch.setattr(pipeline, "alpha_ell",
                            lambda g, ell, budget=0: SearchResult(1, (0,), False, budget))
        _, detail = check_hypotheses(complete_graph(30), k3, "clique", cfg, ell=2)
        assert "alpha_2=1 [branch-and-bound lower bound]" in detail

    def test_general_mode(self, k3):
        g = gen_gnp(60, 0.6, 2)
        cfg = AbsorberConfig.desk_scale(h=3, **K3_DESK)
        held, detail = check_hypotheses(g, k3, "general", cfg, seed=1)
        assert held
        assert "traversing" in detail
        # K(6,6) has no triangle, so no triangle traverses any probe parts
        held, detail = check_hypotheses(gen_complete_multipartite([6, 6]), k3,
                                        "general", cfg, seed=1)
        assert not held
        assert "traversing at s=2 sampled(100): fails" in detail

    def test_general_mode_checks_every_family_when_few(self, k3):
        # at n = 6 and s = 2 there are 15 families, no more than
        # HYPOTHESIS_TRIALS, so all of them are checked and the verdict is exact
        cfg = AbsorberConfig.desk_scale(h=3, **{**K3_DESK, "threshold_frac": 0.2})
        held, detail = check_hypotheses(complete_graph(6), k3, "general", cfg)
        assert held and "traversing at s=2 exhaustive: holds" in detail
        held, detail = check_hypotheses(gen_complete_multipartite([3, 3]), k3, "general", cfg)
        assert not held and "traversing at s=2 exhaustive: fails" in detail


class TestPipeline:
    def test_complete_graph_clique_mode(self, k3):
        rep = find_factor_absorbing(complete_graph(30), k3, mode="clique",
                                    ell=2, seed=1)
        assert rep.factor_found
        verify_tiling(complete_graph(30), rep.tiling, require_factor=True)

    def test_tripartite_counterexample(self, k3):
        rep = find_factor_absorbing(gen_complete_multipartite([3, 4, 5]), k3,
                                    mode="clique", ell=2, seed=1)
        assert not rep.factor_found
        assert not rep.hypothesis_held
        assert rep.fallback_used and rep.exact_status == "none"

    def test_indivisible_short_circuit(self, k3):
        rep = find_factor_absorbing(complete_graph(10), k3, mode="clique", seed=0)
        assert rep.failure_stage == "divisibility"
        assert not rep.factor_found

    def test_full_absorbing_path_on_gnp(self, k3):
        g = gen_gnp(120, 0.7, 9)
        cfg = AbsorberConfig.desk_scale(h=3, **K3_DESK)
        rep = find_factor_absorbing(g, k3, mode="clique", ell=2, config=cfg, seed=2)
        assert rep.factor_found
        assert not rep.fallback_used
        assert rep.stage_ok("absorbing-set") and rep.stage_ok("cover")
        assert rep.stage_ok("absorb")
        assert rep.leftover is not None and rep.leftover <= 3
        verify_tiling(g, rep.tiling, require_factor=True)

    def test_partition_construction_at_t_equal_h(self, k3):
        # the partition construction at t = h = 3: every absorber is checked
        # by its tilings, so no degree floor on the partition is needed
        g = gen_gnp(240, 0.9, 1)
        cfg = t_equal_h_desk(3)
        st = build_absorbing_set(g, k3, cfg, seed=1, builder="clique", ell=2)
        assert st.builder == "clique"
        assert st.template == build_template(1, cfg.surplus_ratio)
        verify_structure(g, st)
        rep = find_factor_absorbing(g, k3, mode="clique", ell=2, config=cfg, seed=1,
                                    fallback_cap=0)
        assert rep.factor_found and not rep.fallback_used
        verify_tiling(g, rep.tiling, require_factor=True)

    @pytest.mark.parametrize("p, s", [(p, s) for p in (0.8, 0.9) for s in range(1, 6)])
    def test_partition_construction_needs_no_degree_floor(self, k3, p, s):
        # a per-class degree floor on the partition stopped 7 of these 10
        # runs at absorbing-set/edge-absorbers
        g = gen_gnp(120, p, s)
        rep = find_factor_absorbing(g, k3, mode="clique", ell=2, config=t_equal_h_desk(3),
                                    seed=1, fallback_cap=0)
        assert rep.factor_found and not rep.fallback_used
        verify_tiling(g, rep.tiling, require_factor=True)

    def test_partition_construction_for_k4(self):
        # K4 with ell = 2 on G(240, 0.9): the degree floor stopped this build
        # at edge-absorbers
        g = gen_gnp(240, 0.9, 1)
        st = build_absorbing_set(g, parse_pattern_spec("K4"), t_equal_h_desk(4), seed=1,
                                 builder="clique", ell=2)
        assert st.builder == "clique"
        verify_structure(g, st)

    def test_general_mode_on_gnp(self, k3):
        g = gen_gnp(120, 0.7, 4)
        cfg = AbsorberConfig.desk_scale(h=3, **K3_DESK)
        rep = find_factor_absorbing(g, k3, mode="general", config=cfg, seed=2)
        assert rep.factor_found
        assert rep.hypothesis_held

    def test_cover_search_absorbs_with_no_retry(self, k3):
        # a greedy cover here leaves 3 vertices that no disjoint copy choice
        # absorbs; the cover search leaves none
        g = gen_gnp(120, 0.7, derive_seed(1, "pipeline-graph", 4))
        cfg = AbsorberConfig.desk_scale(h=3, **K3_DESK)
        rep = find_factor_absorbing(g, k3, mode="general", ell=2, config=cfg,
                                    seed=derive_seed(1, "pipeline", 4))
        assert rep.factor_found and not rep.fallback_used
        assert rep.leftover == 0
        absorb_stage = [s for s in rep.stages if s.name == "absorb"]
        assert [(s.ok, s.detail) for s in absorb_stage] == [(True, "")]
        verify_tiling(g, rep.tiling, require_factor=True)

    def test_remainder_size_that_does_not_absorb_is_skipped(self, k3):
        # sizes 0 and 3 are valid here, but absorb refuses the empty
        # remainder (absorb-surplus); a cover leaving 3 then absorbs
        g = gen_gnp(120, 0.7, derive_seed(7, "pipeline-graph", 2))
        cfg = AbsorberConfig.desk_scale(h=3, **K3_DESK)
        rep = find_factor_absorbing(g, k3, mode="general", ell=2, config=cfg,
                                    seed=derive_seed(7, "pipeline", 2))
        assert rep.factor_found and not rep.fallback_used
        assert rep.leftover == 3
        verify_tiling(g, rep.tiling, require_factor=True)

    def test_every_leftover_refused_is_an_absorb_failure(self, k2, monkeypatch):
        seen = []

        def refuse(g, structure, remainder):
            seen.append((len(remainder), structure))
            raise StageFailure("absorb-remainder", "refused")
        monkeypatch.setattr(pipeline, "check_hypotheses", lambda *a, **kw: (True, ""))
        monkeypatch.setattr(absorption, "absorb", refuse)
        rep = find_factor_absorbing(complete_graph(60), k2, config=K2_DESK, seed=1)
        assert not rep.factor_found and not rep.fallback_used
        assert rep.failure_stage == "absorb"
        sizes = [k for k, _ in seen]
        assert len(sizes) > 1 and sizes == seen[0][1].valid_remainder_sizes()
        assert [(s.name, s.ok) for s in rep.stages[-2:]] == [("cover", True), ("absorb", False)]
        assert rep.stages[-1].detail == "; ".join(f"k={k}: absorb-remainder" for k in sizes)

    def test_no_cover_is_a_cover_failure(self, k2, monkeypatch):
        monkeypatch.setattr(pipeline, "check_hypotheses", lambda *a, **kw: (True, ""))
        monkeypatch.setattr(absorption, "_disjoint_copies", lambda *a: None)
        rep = find_factor_absorbing(complete_graph(60), k2, config=K2_DESK, seed=1)
        assert rep.failure_stage == "cover" and rep.leftover is None
        assert rep.stages[-1].name == "cover" and not rep.stages[-1].ok
        assert rep.stages[-1].detail.startswith("k=0: no cover; k=2: no cover")

    def test_two_cliques_hypothesis_sensitivity(self, k3):
        # r | (n/2 - 1) fails on both sides, so no factor exists; the clique
        # pipeline reports failure and the exact oracle confirms
        g = gen_two_cliques(12)
        rep = find_factor_absorbing(g, k3, mode="clique", ell=2, seed=1)
        assert not rep.hypothesis_held
        assert not rep.factor_found
        assert rep.exact_status == "none"

    def test_agreement_with_exact_on_small(self, k3):
        rng = rng_for(5, "agreement")
        hits = 0
        for i in range(12):
            n = 3 * rng.randrange(3, 9)
            g = gen_gnp(n, rng.uniform(0.5, 0.85), rng.randrange(10**9))
            rep = find_factor_absorbing(g, k3, mode="clique", ell=2,
                                        seed=rng.randrange(10**9))
            if rep.factor_found:
                hits += 1
                assert find_factor_exact(g, k3).found
        assert hits > 0

    def test_monotone_under_edge_addition(self, k3):
        # adding edges never flips the exact verdict away from a factor
        rng = rng_for(9, "monotone")
        checked = 0
        while checked < 50:
            n = 3 * rng.randrange(3, 7)
            g = gen_gnp(n, rng.uniform(0.5, 0.8), rng.randrange(10**9))
            if not find_factor_exact(g, k3).found:
                continue
            checked += 1
            extra = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not g.has_edge(u, v)]
            rng.shuffle(extra)
            g2 = Graph(n, g.edges() + extra[:3])
            assert find_factor_exact(g2, k3).found

    def test_absorb_input_guard_is_not_an_absorb_failure(self, k2, monkeypatch):
        # the pipeline cannot trip absorb's input guards, so a ValueError
        # from absorb is a bug to surface, not a failed stage to record
        def guard(*args):
            raise ValueError("remainder guard")
        monkeypatch.setattr(pipeline, "check_hypotheses", lambda *a, **kw: (True, ""))
        monkeypatch.setattr(absorption, "absorb", guard)
        with pytest.raises(ValueError, match="remainder guard"):
            find_factor_absorbing(complete_graph(60), k2, config=K2_DESK, seed=1)

    def test_failed_template_is_an_absorbing_set_stage(self, k2, monkeypatch):
        # m = 1 and a surplus of ceil(40.0) make a flex side of 41, past the
        # degree bound; a sample of 0.75 * 60 vertices has room for it
        monkeypatch.setattr(pipeline, "check_hypotheses", lambda *a, **kw: (True, ""))
        cfg = dataclasses.replace(K2_DESK, sample_prob=0.75, surplus_ratio=40.0)
        rep = find_factor_absorbing(complete_graph(60), k2, config=cfg, seed=1)
        assert rep.failure_stage == "absorbing-set/template"
        assert rep.stages[-1].detail == ("template: stage 'template' failed: "
                                         "a flex side of 41 exceeds the degree bound of 40")

    def test_report_serializes(self, k3):
        rep = find_factor_absorbing(complete_graph(12), k3, mode="clique", seed=1)
        obj = rep.to_obj()
        assert obj["schema"] == "pipeline-report/v1"
        assert obj["factor_found"] == rep.factor_found
        assert isinstance(obj["stages"], list)


class TestCoverCheck:
    def test_complete_graph_no_leftover(self, k3):
        avoid = list(range(6))
        tiling = greedy_max_tiling(complete_graph(30), k3, forbidden=avoid)
        left = sorted(set(range(30)) - tiling.covered - set(avoid))
        assert left == [] and len(left) <= 0.1 * 30
        assert tiling.covered.isdisjoint(avoid)
        verify_tiling(complete_graph(30), tiling)

    def test_bipartite_all_leftover(self, k3):
        k66 = gen_complete_multipartite([6, 6])
        left = sorted(set(range(k66.n)) - greedy_max_tiling(k66, k3).covered)
        assert len(left) == 12 and not len(left) <= 0.5 * 12

    def test_gnp_small_leftover(self, k3):
        g = gen_gnp(90, 0.6, 5)
        avoid = sorted(rng_for(3, "avoid").sample(range(90), 9))
        tiling = greedy_max_tiling(g, k3, forbidden=avoid)
        left = sorted(set(range(g.n)) - tiling.covered - set(avoid))
        assert len(left) <= 9 and len(left) <= 0.1 * 90
        assert tiling.covered.isdisjoint(avoid)
        verify_tiling(g, tiling)

    def test_leftover_below_pattern_times_threshold(self, k3):
        # greedy leftover is copy-free, so it stays below h * s where s is
        # the smallest probe size passing the sampled traversing check
        rng = rng_for(41, "cover-bound")
        for i in range(6):
            n = rng.randrange(45, 61)
            g = gen_gnp(n, rng.uniform(0.55, 0.75), rng.randrange(10**9))
            avoid = sorted(rng.sample(range(n), max(1, n // 12)))
            tiling = greedy_max_tiling(g, k3, forbidden=avoid)
            left = sorted(set(range(g.n)) - tiling.covered - set(avoid))
            s, _ = traversing_threshold(g, k3, trials=150,
                                        seed=rng.randrange(10**9))
            assert next(cliques_of_size(g, 3, vertex_mask(left)), None) is None
            assert len(left) < 3 * s, (i, len(left), s)


# sha256 of the acceptance sweep's CSV (test_08's spec).  A change that
# alters that CSV on purpose updates this constant and says why.  With the
# sparse template the 20 rows at n = 60, p = 0.7 absorb.
ACCEPTANCE_CSV_SHA256 = "05ac3d6c75615d1fe04b986bc23dcb96efd48767bd873791c4446079837e56ef"

# sha256 of the CSV of the cell inside the theorem (the spec below)
THEOREM_CELL_CSV_SHA256 = "937701e32f53204522c76d9441ec8193f98bc02c6a7860081da7ba118583fdfb"


def test_acceptance_sweep_csv_is_unchanged():
    spec = ExperimentSpec.from_obj({
        "generator": "gnp",
        "grid": {"n": [30, 60], "p": [0.5, 0.7]},
        "pattern": "K3",
        "mode": "clique",
        "ell": 2,
        "trials": 20,
        "seed_base": 31337,
        "config": {"t": 1, "sample_prob": 0.1, "surplus_ratio": 6.0,
                   "m_cap": 1, "absorber_frac": 0.05},
    })
    csv_text = rows_to_csv(spec, run_sweep(spec, threads=1))
    assert hashlib.sha256(csv_text.encode()).hexdigest() == ACCEPTANCE_CSV_SHA256


def _theorem_cell_spec():
    return ExperimentSpec.from_obj({
        "generator": "gnp",
        "grid": {"n": [60, 120], "p": [0.8, 0.9]},
        "pattern": "K3",
        "mode": "clique",
        "ell": 2,
        "trials": 10,
        "seed_base": 31337,
        "fallback_cap": 0,
        "config": {"t": 1, "degree_frac": 0.1, "threshold_frac": 0.2, "m_cap": 1},
    })


def test_theorem_cell_absorbs_every_row_without_fallback():
    """Dense G(n, p) at n in {60, 120}, where check_hypotheses says the
    paper's hypotheses hold, with the exact fallback off: every factor comes
    from the absorbing path.  "Held" at n > 40 rests on a lower bound from
    an alpha_2 search that its budget stopped (ROADMAP item 15), not on a
    certified alpha_2.  The acceptance spec above is kept as it is."""
    spec = _theorem_cell_spec()
    rows = run_sweep(spec, threads=1)
    assert len(rows) == 40
    assert all(r["hypothesis_held"] and r["absorbed"] and r["factor_found"]
               and not r["fallback_used"] for r in rows)
    csv_text = rows_to_csv(spec, rows)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == THEOREM_CELL_CSV_SHA256


def test_theorem_cell_structure_template_is_the_build_template():
    # the first row's structure, built as run_trial and the pipeline build it
    spec = _theorem_cell_spec()
    seed = derive_seed(spec.seed_base, "cell", 0, "trial", 0)
    g = GENERATORS[spec.generator].build(spec.cells()[0], derive_seed(seed, "instance"))
    pattern = parse_pattern_spec(spec.pattern)
    config = AbsorberConfig.from_overrides(pattern.h, spec.config)
    st = build_absorbing_set(g, pattern, config, seed=derive_seed(seed, "build"),
                             builder=spec.mode, ell=spec.ell)
    assert st.template == build_template(1, config.surplus_ratio)
    verify_structure(g, st)
