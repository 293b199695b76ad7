import json
import subprocess
import sys
from pathlib import Path

import pytest

from tilinglab import sweep
from tilinglab.cli import main
from tilinglab.generators import GENERATORS
from tilinglab.graphs import parse_graph
from tilinglab.pipeline import PipelineReport
from tilinglab.rng import derive_seed
from tilinglab.serialize import load_json


def run_cli(*args):
    return main(list(args))


@pytest.fixture()
def g30(tmp_path):
    path = tmp_path / "g30.el"
    assert run_cli("gen", "--construction", "gnp", "--n", "30", "--p", "0.6",
                   "--seed", "7", "--out", str(path)) == 0
    return path


class TestGen:
    def test_hs_tripartite(self, tmp_path):
        out = tmp_path / "hs.el"
        assert run_cli("gen", "--construction", "hs-tripartite", "--n", "12",
                       "--out", str(out)) == 0
        g = parse_graph(out.read_text())
        from tilinglab.generators import gen_complete_multipartite

        assert g == gen_complete_multipartite([3, 4, 5])

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        run_cli("gen", "--construction", "gnp", "--n", "20", "--p", "0.5",
                "--seed", "3", "--out", str(a))
        run_cli("gen", "--construction", "gnp", "--n", "20", "--p", "0.5",
                "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_2(self):
        assert run_cli("gen", "--construction", "nonsense") == 2

    def test_negative_vertex_count_exit_2(self, capsys):
        assert run_cli("gen", "--construction", "gnp", "--n", "-5") == 2
        assert "vertex count must be nonnegative" in capsys.readouterr().err

    def test_gamma_reports(self, tmp_path, capsys):
        out = tmp_path / "gamma.el"
        assert run_cli("gen", "--construction", "gamma", "--ell", "2",
                       "--n", "25", "--seed", "1", "--out", str(out)) == 0
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["ell"] == 2 and "max_degree" in report


# one small parameter set per registered generator
GEN_PARAMS = {
    "gnp": {"n": 12, "p": 0.5},
    "complete-multipartite": {"sizes": [2, 3, 4]},
    "two-cliques": {"n": 12},
    "hs-tripartite": {"n": 12},
    "gamma": {"ell": 2, "n": 12},
    "lower-bound": {"r": 4, "ell": 2, "n": 16},
}


def test_every_generator_has_sample_params():
    assert set(GEN_PARAMS) == set(GENERATORS)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_gen_and_sweep_build_the_same_graph(name, tmp_path, monkeypatch):
    params = GEN_PARAMS[name]
    spec = sweep.ExperimentSpec.from_obj({
        "generator": name, "grid": {k: [v] for k, v in params.items()},
        "pattern": "K3", "trials": 1, "seed_base": 8,
    })
    built = []

    def capture(g, p, **kwargs):
        built.append(g)
        return PipelineReport(mode="clique", n=g.n, h=p.h, seed=0)

    monkeypatch.setattr(sweep, "find_factor_absorbing", capture)
    sweep.run_trial(spec, 0, 0)
    seed = derive_seed(derive_seed(8, "cell", 0, "trial", 0), "instance")
    args = [x for k, v in params.items()
            for x in (f"--{k}", ",".join(map(str, v)) if isinstance(v, list) else str(v))]
    out = tmp_path / "g.el"
    assert run_cli("gen", "--construction", name, *args, "--seed", str(seed),
                   "--out", str(out)) == 0
    assert built == [parse_graph(out.read_text())]


class TestParams:
    def test_flat_json(self, tmp_path):
        g = tmp_path / "hs.el"
        run_cli("gen", "--construction", "hs-tripartite", "--n", "12",
                "--out", str(g))
        out = tmp_path / "params.json"
        assert run_cli("params", "--graph", str(g), "--ell", "2,3",
                       "--pattern", "K3", "--out", str(out)) == 0
        obj = load_json(str(out))
        assert obj["min_degree"] == 7
        assert obj["alpha_2"] == 5 and obj["alpha_3"] == 9
        assert obj["one_density"] == "3/2"

    @pytest.mark.parametrize("s,message", [
        ("20", "error: need h*s <= n"),
    ])
    def test_traversing_probe_out_of_reach_exit_2(self, g30, capsys, s, message):
        assert run_cli("params", "--graph", str(g30), "--pattern", "K3",
                       "--traversing-s", s) == 2
        assert message in capsys.readouterr().err

    def test_traversing_probe_past_the_trials_is_sampled(self, g30, tmp_path):
        # 8,906,625 families at s = 2, more than the 200 trials
        out = tmp_path / "params.json"
        assert run_cli("params", "--graph", str(g30), "--pattern", "K3",
                       "--traversing-s", "2", "--out", str(out)) == 0
        assert load_json(str(out))["traversing_mode"] == "sampled"

    def test_traversing_probe_without_pattern_exit_2(self, g30, capsys):
        assert run_cli("params", "--graph", str(g30), "--traversing-s", "3") == 2
        assert "error: --traversing-s needs --pattern" in capsys.readouterr().err

    @pytest.mark.parametrize("ell,message", [
        ("abc", "argument --ell: invalid"),
        (",", "--ell must name at least one integer"),
    ])
    def test_malformed_ell_exit_2(self, g30, capsys, ell, message):
        assert run_cli("params", "--graph", str(g30), "--ell", ell) == 2
        assert message in capsys.readouterr().err

    def test_sampled_probe_without_trials_exit_2(self, g30, capsys):
        assert run_cli("params", "--graph", str(g30), "--pattern", "K3",
                       "--traversing-s", "2", "--trials", "0") == 2
        assert "error: traversing check needs trials >= 1" in capsys.readouterr().err


class TestFactor:
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_exit_2(self, g30, capsys, budget):
        assert run_cli("factor", "--graph", str(g30), "--pattern", "K3",
                       "--budget-nodes", budget) == 2
        assert f"error: --budget-nodes must be >= 1, not {budget}" in capsys.readouterr().err

    def test_fallback_cap_below_zero_exit_2(self, tmp_path, capsys):
        # refused before any search, as a sweep spec's fallback_cap is
        g12 = tmp_path / "g12.el"
        assert run_cli("gen", "--construction", "gnp", "--n", "12", "--p", "0.6",
                       "--seed", "3", "--out", str(g12)) == 0
        assert run_cli("factor", "--graph", str(g12), "--pattern", "K3", "--solver",
                       "absorbing", "--mode", "clique", "--fallback-cap", "-1") == 2
        captured = capsys.readouterr()
        assert "error: --fallback-cap must be >= 0, not -1" in captured.err
        assert "no factor" not in captured.out

    @pytest.mark.parametrize("solver", ["exact", "absorbing"])
    def test_empty_graph_has_the_empty_factor(self, tmp_path, capsys, solver):
        # the absorbing solver exited 2: min_degree of the empty graph raised
        g = tmp_path / "empty.el"
        g.write_text("0 0\n")
        assert run_cli("factor", "--graph", str(g), "--pattern", "K3",
                       "--solver", solver) == 0
        assert capsys.readouterr().out.startswith("factor: 0 copies")

    def test_exact_failure_exit_1(self, tmp_path):
        g = tmp_path / "hs.el"
        run_cli("gen", "--construction", "hs-tripartite", "--n", "12",
                "--out", str(g))
        assert run_cli("factor", "--graph", str(g), "--pattern", "K3") == 1

    def test_absorbing_emits_verifiable_tiling(self, g30, tmp_path):
        tiling = tmp_path / "tiling.json"
        report = tmp_path / "report.json"
        assert run_cli("factor", "--graph", str(g30), "--pattern", "K3",
                       "--solver", "absorbing", "--mode", "clique",
                       "--seed", "3", "--out", str(tiling),
                       "--report", str(report)) == 0
        assert run_cli("verify", "--certificate", str(tiling),
                       "--graph", str(g30), "--factor") == 0
        rep = load_json(str(report))
        assert rep["schema"] == "pipeline-report/v1"

    def test_absorbing_default_config_absorbs(self, tmp_path, capsys):
        # with no --config the build makes one round of the template, and
        # its direct absorbers fit on G(120, 0.7)
        g, tiling = tmp_path / "g120.el", tmp_path / "tiling.json"
        assert run_cli("gen", "--construction", "gnp", "--n", "120", "--p", "0.7",
                       "--seed", "1", "--out", str(g)) == 0
        capsys.readouterr()
        assert run_cli("factor", "--graph", str(g), "--pattern", "K3", "--solver", "absorbing",
                       "--fallback-cap", "0", "--seed", "1", "--out", str(tiling)) == 0
        assert "factor: 40 copies (fallback=no)" in capsys.readouterr().out
        assert run_cli("verify", "--certificate", str(tiling), "--graph", str(g),
                       "--factor") == 0

    def test_absorbing_runs_past_the_recursion_limit(self, tmp_path, capsys):
        # at n = 1,020 alpha_ell's first descent and the cover's copies are
        # each deeper than Python's default recursion limit
        g, tiling = tmp_path / "g1020.el", tmp_path / "tiling.json"
        assert run_cli("gen", "--construction", "gnp", "--n", "1020", "--p", "0.9",
                       "--seed", "1", "--out", str(g)) == 0
        config = json.dumps({"t": 1, "absorber_frac": 0.05, "sample_prob": 0.08,
                             "surplus_ratio": 6.0, "m_cap": 1, "degree_frac": 0.1,
                             "threshold_frac": 0.1})
        capsys.readouterr()
        assert run_cli("factor", "--graph", str(g), "--pattern", "K3",
                       "--solver", "absorbing", "--mode", "clique", "--config", config,
                       "--fallback-cap", "0", "--seed", "1", "--out", str(tiling)) == 0
        assert "factor: 340 copies (fallback=no)" in capsys.readouterr().out
        assert run_cli("verify", "--certificate", str(tiling), "--graph", str(g),
                       "--factor") == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("3 1\n0 0\n")
        assert run_cli("factor", "--graph", str(bad), "--pattern", "K3") == 2

    @pytest.mark.parametrize("command", [
        ["factor", "--solver", "absorbing", "--mode", "clique"],
        ["absorb", "--builder", "clique"],
    ])
    def test_clique_construction_on_path_pattern_exit_2(self, g30, tmp_path, capsys, command):
        path3 = tmp_path / "p3.el"
        path3.write_text("3 2\n0 1\n1 2\n")
        assert run_cli(*command, "--graph", str(g30), "--pattern", str(path3)) == 2
        assert "clique builder needs a clique pattern K_r" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["factor", "absorb"])
    @pytest.mark.parametrize("config,message", [
        ('{"bogus": 1}', "unknown AbsorberConfig key(s): bogus"),
        ('{"remainder_frac": 0.5}', "unknown AbsorberConfig key(s): remainder_frac"),
        ('{"sample_retries": 5}', "unknown AbsorberConfig key(s): sample_retries"),
        ('{"partition_retries": 5}', "unknown AbsorberConfig key(s): partition_retries"),
        ('{"template_retries": 5}', "unknown AbsorberConfig key(s): template_retries"),
        ('{"h": 3}', "config may not set h"),
        ('{"overrides": false}', "unknown AbsorberConfig key(s): overrides"),
        ('{"common_nbhd_min": 2}', "unknown AbsorberConfig key(s): common_nbhd_min"),
        ("[1]", "--config must be a JSON object, not list"),
        ("{", "error:"),
        ("{bad", "error: --config is not JSON: Expecting property name"),
        ('{"m_cap": "x"}', "AbsorberConfig.m_cap must be"),
        ('{"t": 1.5}', "AbsorberConfig.t must be"),
        ('{"t": true}', "AbsorberConfig.t must be"),
        ('{"surplus_ratio": "6"}', "AbsorberConfig.surplus_ratio must be"),
        ('{"sample_prob": -1}', "AbsorberConfig.sample_prob must lie in [0, 1]"),
        ('{"absorber_frac": 1%s}' % ("0" * 400), "AbsorberConfig.absorber_frac must be"),
        ('{"surplus_ratio": %s}' % ("9" * 400), "AbsorberConfig.surplus_ratio must be"),
    ])
    def test_malformed_config_exit_2(self, g30, capsys, command, config, message):
        extra = ["--solver", "absorbing"] if command == "factor" else []
        assert run_cli(command, "--graph", str(g30), "--pattern", "K3", *extra,
                       "--config", config) == 2
        assert message in capsys.readouterr().err

    def test_exact_solver_reads_config(self, g30, capsys):
        assert run_cli("factor", "--graph", str(g30), "--pattern", "K3",
                       "--config", "{bad") == 2
        assert "error: --config is not JSON" in capsys.readouterr().err

    def test_graph_that_is_a_directory_exit_2(self, tmp_path, capsys):
        assert run_cli("factor", "--graph", str(tmp_path), "--pattern", "K3") == 2
        assert f"file error: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err

    def test_graph_that_is_not_ascii_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_bytes(b"\xff\xfe3 0\n")
        assert run_cli("factor", "--graph", str(bad), "--pattern", "K3") == 2
        assert (f"error: --graph {bad} is not ASCII: 'ascii' codec can't decode byte 0xff"
                in capsys.readouterr().err)


class TestVerify:
    def test_tampered_tiling_names_invariant(self, g30, tmp_path, capsys):
        tiling = tmp_path / "tiling.json"
        run_cli("factor", "--graph", str(g30), "--pattern", "K3",
                "--solver", "absorbing", "--mode", "clique",
                "--seed", "3", "--out", str(tiling))
        obj = load_json(str(tiling))
        obj["copies"][0] = list(obj["copies"][1])  # duplicate a copy wholesale
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run_cli("verify", "--certificate", str(tampered),
                       "--graph", str(g30), "--factor") == 1
        err = capsys.readouterr().err
        assert "INVALID" in err and "share vertex" in err

    def test_verify_takes_no_seed(self, capsys):
        # verify derives a structure's template from its sizes, so it has
        # nothing to seed
        assert run_cli("verify", "--certificate", "s.json", "--graph", "g.el",
                       "--seed", "1") == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_unknown_schema_exit_2(self, g30, tmp_path, capsys):
        doc = tmp_path / "junk.json"
        # absorber/v1, traversing-witness/v1 and absorbing-structure/v1 to
        # v7 are no longer read
        absorber = {"schema": "absorber/v1", "pattern": {"kind": "clique", "r": 3},
                    "t": 1, "core": [0, 1, 2], "absorber": [3, 4, 5]}
        structure_v1 = {"schema": "absorbing-structure/v1", "n": 30,
                        "pattern": {"kind": "clique", "r": 3}, "buffer": [0, 1, 2],
                        "buffer_map": [0, 1, 2], "core": [3], "core_map": [3]}
        # v2 stored each edge absorber's vertices, not its two tilings
        structure_v2 = dict(structure_v1, schema="absorbing-structure/v2",
                            edge_absorbers=[{"left": 0, "right": 0, "vertices": [4, 5, 6]}])
        # v3 also stored the derived slots, size report, template surplus and
        # config remainder fraction
        structure_v3 = dict(structure_v1, schema="absorbing-structure/v3", slots=[4, 5],
                            size_report={"builder": "direct"},
                            edge_absorbers=[{"left": 0, "right": 0, "alone": [[4, 5, 6]],
                                             "with_core": [[0, 1, 2], [4, 5, 6]]}])
        # v4 dropped v3's derived values but stored the template's `mode`
        # and `verification` record
        structure_v4 = dict(structure_v1, schema="absorbing-structure/v4", builder="direct",
                            template={"m": 1, "mode": "complete-bipartite",
                                      "left_adj": [[0, 1, 2]] * 5,
                                      "verification": {"mode": "exhaustive", "checks": 3}},
                            edge_absorbers=structure_v3["edge_absorbers"])
        # v5 wrote the template as {m, left_adj} but stored the build's
        # whole config and seed
        structure_v5 = dict(structure_v4, schema="absorbing-structure/v5", seed=1,
                            template={"m": 1, "left_adj": [[0, 1, 2]] * 5},
                            config={"h": 3, "t": 1, "absorber_frac": 0.05, "sample_prob": 0.08,
                                    "surplus_ratio": 6.0, "overrides": True})
        # v6 stored the template's rows, which v7 derives from its sizes
        structure_v6 = dict(structure_v1, schema="absorbing-structure/v6", t=1,
                            surplus_ratio=6.0, builder="direct", slot_blocks=[[4, 5]] * 3,
                            template=structure_v5["template"],
                            edge_absorbers=structure_v3["edge_absorbers"])
        # v7 derived the template but stored the graph's n, t and surplus_ratio
        structure_v7 = {k: v for k, v in structure_v6.items() if k != "template"}
        structure_v7["schema"] = "absorbing-structure/v7"
        for obj in ({"schema": "mystery/v9"}, absorber, structure_v1, structure_v2, structure_v3,
                    structure_v4, structure_v5, structure_v6, structure_v7,
                    {"schema": "traversing-witness/v1", "pattern": {"kind": "clique", "r": 3},
                     "s": 1, "parts": [[0], [1], [2]]}):
            doc.write_text(json.dumps(obj))
            assert run_cli("verify", "--certificate", str(doc),
                           "--graph", str(g30)) == 2
            err = capsys.readouterr().err
            assert f"unknown certificate schema: {obj['schema']}" in err

    def test_tiling_without_pattern_is_malformed(self, g30, tmp_path, capsys):
        doc = tmp_path / "nopattern.json"
        doc.write_text('{"schema": "tiling/v1", "copies": [[0, 1, 2]]}')
        assert run_cli("verify", "--certificate", str(doc),
                       "--graph", str(g30)) == 2
        err = capsys.readouterr().err
        assert "malformed certificate" in err and "'pattern'" in err

    @pytest.mark.parametrize("pattern,copies,message", [
        ({"kind": "clique", "r": 2.9}, [[0, 1]], "pattern r must be an integer, not 2.9"),
        ({"kind": "bogus", "n": 2, "edges": [[0, 1]]}, [[0, 1]],
         'pattern kind must be "clique" or "general", not "bogus"'),
        ({"kind": "general", "n": "2", "edges": [[0, 1]]}, [[0, 1]],
         'pattern n must be an integer, not "2"'),
        ({"kind": "clique", "r": 3}, [[0, "a", 2]],
         'tiling copy must be a list of integers, not [0, "a", 2]'),
        ({"kind": "clique", "r": 3}, 5, "tiling copies must be a list, not 5"),
        ({"kind": "clique", "r": 3}, None, "tiling copies must be a list, not null"),
        ({"kind": "clique", "r": 3}, "abc", 'tiling copies must be a list, not "abc"'),
        ({"kind": "general", "n": 3, "edges": 5}, [], "pattern edges must be a list, not 5"),
        ({"kind": "general", "n": 3, "edges": None}, [],
         "pattern edges must be a list, not null"),
        ({"kind": "general", "n": 3, "edges": "abc"}, [],
         'pattern edges must be a list, not "abc"'),
    ], ids=["r", "kind", "n", "copies", "copies-int", "copies-null", "copies-str",
            "edges-int", "edges-null", "edges-str"])
    def test_tiling_values_must_be_json_integers(self, g30, tmp_path, capsys,
                                                  pattern, copies, message):
        doc = tmp_path / "tiling.json"
        doc.write_text(json.dumps({"schema": "tiling/v1", "pattern": pattern,
                                   "copies": copies}))
        assert run_cli("verify", "--certificate", str(doc), "--graph", str(g30)) == 2
        assert f"malformed certificate: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("pattern,message", [
        ({"kind": "clique", "r": 1000}, "pattern r 1000 has more vertices than the graph's 3"),
        ({"kind": "general", "n": 4, "edges": []}, "pattern n 4 has more vertices than the graph's 3"),
    ], ids=["clique", "general"])
    def test_pattern_larger_than_graph_is_malformed(self, tmp_path, capsys, pattern, message):
        # refused before the pattern is built: K_1000 alone takes 69 MB
        graph = tmp_path / "k3.el"
        graph.write_text("3 3\n0 1\n0 2\n1 2\n")
        doc = tmp_path / "tiling.json"
        doc.write_text(json.dumps({"schema": "tiling/v1", "pattern": pattern, "copies": []}))
        assert run_cli("verify", "--certificate", str(doc), "--graph", str(graph)) == 2
        assert f"malformed certificate: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("data,message", [
        (b'{"schema": ', "is not JSON: Expecting value"),
        ('{"schema": "tiling/v1\u00e9"}'.encode(), "is not JSON: 'ascii' codec"),
    ], ids=["not-json", "not-ascii"])
    def test_unreadable_certificate_is_malformed(self, g30, tmp_path, capsys, data, message):
        doc = tmp_path / "bad.json"
        doc.write_bytes(data)
        assert run_cli("verify", "--certificate", str(doc), "--graph", str(g30)) == 2
        assert f"malformed certificate: {doc} {message}" in capsys.readouterr().err

    def test_certificate_that_is_a_directory_exit_2(self, g30, tmp_path, capsys):
        assert run_cli("verify", "--certificate", str(tmp_path), "--graph", str(g30)) == 2
        assert f"file error: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err

    def test_top_level_list_is_malformed(self, g30, tmp_path, capsys):
        doc = tmp_path / "list.json"
        doc.write_text("[1, 2, 3]")
        assert run_cli("verify", "--certificate", str(doc),
                       "--graph", str(g30)) == 2
        assert "malformed certificate" in capsys.readouterr().err


K60_K2_CONFIG = json.dumps({"t": 1, "absorber_frac": 0.2, "sample_prob": 0.06,
                            "surplus_ratio": 2.0, "m_cap": 1})


@pytest.fixture()
def k60(tmp_path):
    path = tmp_path / "k60.el"
    assert run_cli("gen", "--construction", "gnp", "--n", "60", "--p", "1.0",
                   "--out", str(path)) == 0
    return path


class TestAbsorbCommand:
    def test_build_trials_and_verify(self, k60, tmp_path):
        structure = tmp_path / "structure.json"
        assert run_cli("absorb", "--graph", str(k60), "--pattern", "K2",
                       "--config", K60_K2_CONFIG, "--trials", "5", "--seed", "1",
                       "--out", str(structure)) == 0
        assert run_cli("verify", "--certificate", str(structure),
                       "--graph", str(k60)) == 0

    @pytest.mark.parametrize("trials", [0, -2])
    def test_trials_below_one_exit_2(self, k60, capsys, trials):
        # 0 trials printed "0/0 ok" and exited 0, a verdict on no trial
        assert run_cli("absorb", "--graph", str(k60), "--pattern", "K2",
                       "--config", K60_K2_CONFIG, "--trials", str(trials),
                       "--seed", "1") == 2
        assert f"error: --trials must be >= 1, not {trials}" in capsys.readouterr().err

    def test_tampered_absorber_tiling_is_invalid(self, k60, tmp_path, capsys):
        structure = tmp_path / "structure.json"
        assert run_cli("absorb", "--graph", str(k60), "--pattern", "K2",
                       "--config", K60_K2_CONFIG, "--trials", "1", "--seed", "1",
                       "--out", str(structure)) == 0
        obj = load_json(str(structure))
        named = {*obj["buffer"], *obj["core"], *(v for b in obj["slot_blocks"] for v in b)}
        named |= {v for e in obj["edge_absorbers"] for copy in e["alone"] for v in copy}
        # a K60 vertex outside the structure, so the copy still maps onto edges
        obj["edge_absorbers"][0]["with_core"][0][0] = min(set(range(60)) - named)
        structure.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run_cli("verify", "--certificate", str(structure), "--graph", str(k60)) == 1
        err = capsys.readouterr().err
        assert "INVALID: tiling of the absorber plus core does not cover exactly" in err

    def test_no_remainder_size_fits_outside_exit_1(self, tmp_path, capsys):
        # the structure covers all of K26 and absorbs only |R| = 1; drawing
        # that remainder from no vertex raised a ValueError, exit 2
        g = tmp_path / "k26.el"
        run_cli("gen", "--construction", "gnp", "--n", "26", "--p", "1.0", "--out", str(g))
        capsys.readouterr()
        assert run_cli("absorb", "--graph", str(g), "--pattern", "K3", "--config",
                       '{"t": 1, "sample_prob": 0.1, "surplus_ratio": 2.0, "m_cap": 1}',
                       "--seed", "1") == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("absorbing set: 26 vertices")
        assert captured.err == ("no absorbable remainder size fits the 0 vertices outside "
                                "the absorbing set\n")

    @pytest.mark.parametrize("builder", ["general", "clique"])
    def test_prints_hypothesis_verdict(self, tmp_path, capsys, builder):
        # triangle-free, and large enough that buffer samples are drawn
        g = tmp_path / "k3030.el"
        run_cli("gen", "--construction", "complete-multipartite", "--sizes", "30,30",
                "--out", str(g))
        capsys.readouterr()
        assert run_cli("absorb", "--graph", str(g), "--pattern", "K3",
                       "--builder", builder, "--trials", "1") == 1
        verdict, failure = capsys.readouterr().err.splitlines()[:2]
        assert verdict.startswith("hypotheses violated: delta=30 (need ")
        assert failure == ("build failed: stage 'buffer-sample' failed: "
                           "no acceptable buffer in 50 samples")


SWEEP_SPEC = {
    "generator": "gnp",
    "grid": {"n": [12, 18], "p": [0.6, 0.8]},
    "pattern": "K3",
    "mode": "clique",
    "ell": 2,
    "trials": 2,
    "seed_base": 5,
}


class TestSweep:
    def test_row_count_and_schema(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SWEEP_SPEC))
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema: sweep/v1"
        assert lines[1].split(",")[:2] == ["n", "p"]
        assert len(lines) == 2 + 2 * 2 * 2

    def test_byte_identical_across_processes(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SWEEP_SPEC))
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "tilinglab", "sweep", "--spec", str(spec),
                 "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_empty_graph_row(self, tmp_path):
        # n = 0 passes the grid check, and the row settles it by the fallback
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(SWEEP_SPEC, grid={"n": [0], "p": [0.6]}, trials=1)))
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 0
        header, row = out.read_text().splitlines()[1:]
        row = dict(zip(header.split(","), row.split(",")))
        assert (row["n"], row["hypothesis_held"], row["absorbing_built"]) == ("0", "0", "0")
        assert (row["fallback_used"], row["factor_found"]) == ("1", "1")

    def test_threads_match_serial(self, tmp_path):
        from tilinglab.sweep import ExperimentSpec, rows_to_csv, run_sweep

        spec = ExperimentSpec.from_obj(SWEEP_SPEC)
        serial = rows_to_csv(spec, run_sweep(spec, threads=1))
        parallel = rows_to_csv(spec, run_sweep(spec, threads=2))
        assert serial == parallel

    @pytest.mark.parametrize("spec,message", [
        ([SWEEP_SPEC], "sweep spec must be a JSON object, not list"),
        (dict(SWEEP_SPEC, trails=1), "unknown sweep spec key(s): trails"),
        ({k: v for k, v in SWEEP_SPEC.items() if k != "pattern"}, "lacks key(s): pattern"),
        (dict(SWEEP_SPEC, generator="gmp"), "unknown generator: gmp"),
        (dict(SWEEP_SPEC, grid={"n": [12]}), "generator gnp needs grid parameter(s): p"),
        (dict(SWEEP_SPEC, config={"bogus": 1}), "unknown AbsorberConfig key(s): bogus"),
        (dict(SWEEP_SPEC, config=[1]), "'grid' and 'config' must be JSON objects"),
        (dict(SWEEP_SPEC, solver="exakt"), "unknown solver: exakt"),
        (dict(SWEEP_SPEC, mode="cliqe"), "unknown mode: cliqe"),
        (dict(SWEEP_SPEC, config={"h": 3}), "config may not set h"),
        (dict(SWEEP_SPEC, ell=3), "clique builder needs a clique pattern K_r and r > ell"),
        (dict(SWEEP_SPEC, grid={"n": [12.9], "p": [0.6]}),
         "grid parameter 'n' value 12.9 is not an integer"),
        (dict(SWEEP_SPEC, grid={"n": [12, True], "p": [0.6]}),
         "grid parameter 'n' value true is not an integer"),
        (dict(SWEEP_SPEC, grid={"n": ["30"], "p": [0.6]}),
         "grid parameter 'n' value \"30\" is not an integer"),
        (dict(SWEEP_SPEC, grid={"n": "30", "p": [0.6]}),
         "sweep spec grid 'n' must be a JSON list of values"),
        (dict(SWEEP_SPEC, grid={"n": [12], "p": [1.5]}),
         "grid parameter 'p' value 1.5 is not a number in [0, 1]"),
        (dict(SWEEP_SPEC, grid={"n": [12], "p": ["0.6"]}),
         "grid parameter 'p' value \"0.6\" is not a number in [0, 1]"),
        (dict(SWEEP_SPEC, grid={"n": [12], "p": [True]}),
         "grid parameter 'p' value true is not a number in [0, 1]"),
        (dict(SWEEP_SPEC, generator="complete-multipartite", grid={"sizes": [[3, 3.5]]}),
         "grid parameter 'sizes' value [3, 3.5] is not a list of integers"),
        (dict(SWEEP_SPEC, generator="complete-multipartite", grid={"sizes": [6]}),
         "grid parameter 'sizes' value 6 is not a list of integers"),
        (dict(SWEEP_SPEC, generator="gamma", grid={"ell": [2.0], "n": [12]}),
         "grid parameter 'ell' value 2.0 is not an integer"),
        (dict(SWEEP_SPEC, trials=2.5), "sweep spec 'trials' must be an integer >= 1, not 2.5"),
        (dict(SWEEP_SPEC, trials=-1), "sweep spec 'trials' must be an integer >= 1, not -1"),
        (dict(SWEEP_SPEC, ell="2"), "sweep spec 'ell' must be an integer >= 2, not \"2\""),
        (dict(SWEEP_SPEC, budget="x"), "sweep spec 'budget' must be an integer >= 1, not \"x\""),
        (dict(SWEEP_SPEC, fallback_cap=-1),
         "sweep spec 'fallback_cap' must be an integer >= 0, not -1"),
        (dict(SWEEP_SPEC, seed_base=True), "sweep spec 'seed_base' must be an integer, not true"),
        (dict(SWEEP_SPEC, generator=3), "sweep spec 'generator' must be a string, not 3"),
        (dict(SWEEP_SPEC, pattern=["K3"]), "sweep spec 'pattern' must be a string, not [\"K3\"]"),
        (dict(SWEEP_SPEC, solver=None), "sweep spec 'solver' must be a string, not null"),
        (dict(SWEEP_SPEC, mode=1), "sweep spec 'mode' must be a string, not 1"),
        (dict(SWEEP_SPEC, grid={"n": [12, -1], "p": [0.5]}),
         "grid parameter 'n' value -1 is not an integer >= 0"),
        (dict(SWEEP_SPEC, generator="complete-multipartite", grid={"sizes": [[3, 3], []]}),
         "grid parameter 'sizes' value [] is not a list of integers >= 1, with at least one part"),
        (dict(SWEEP_SPEC, generator="complete-multipartite", grid={"sizes": [[3, 0]]}),
         "grid parameter 'sizes' value [3, 0] is not a list of integers >= 1"),
        (dict(SWEEP_SPEC, generator="gamma", grid={"ell": [1], "n": [12]}),
         "grid parameter 'ell' value 1 is not an integer >= 2"),
        (dict(SWEEP_SPEC, generator="lower-bound", grid={"r": [1], "ell": [2], "n": [12]}),
         "grid parameter 'r' value 1 is not an integer >= 2"),
    ])
    def test_malformed_spec_exit_2(self, tmp_path, capsys, monkeypatch, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        monkeypatch.setattr(sweep, "run_trial", None)  # no trial may start
        assert run_cli("sweep", "--spec", str(path)) == 2
        assert message in capsys.readouterr().err

    def test_spec_that_is_not_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"generator": ')
        assert run_cli("sweep", "--spec", str(path)) == 2
        assert (f"error: sweep spec {path} is not JSON: Expecting value"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("solver,code", [("pipeline", 2), ("exact", 0)])
    def test_clique_mode_on_path_pattern(self, tmp_path, capsys, monkeypatch, solver, code):
        # only the pipeline runs the clique construction, so only it refuses
        path3 = tmp_path / "p3.el"
        path3.write_text("3 2\n0 1\n1 2\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(SWEEP_SPEC, pattern=str(path3), solver=solver,
                                        grid={"n": [12], "p": [0.6]}, trials=1)))
        if code == 2:
            monkeypatch.setattr(sweep, "run_trial", None)  # no trial may start
        assert run_cli("sweep", "--spec", str(spec)) == code
        err = capsys.readouterr().err
        assert ("clique builder needs a clique pattern K_r" in err) == (code == 2)

    def test_threads_below_one_exit_2(self, tmp_path, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SWEEP_SPEC))
        monkeypatch.setattr(sweep, "run_trial", None)
        assert run_cli("sweep", "--spec", str(spec), "--threads", "0") == 2

    def test_workers_bounded_by_cpus_and_jobs(self, monkeypatch):
        started = []

        class FakePool:  # records the pool size, runs the jobs in-process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(sweep, "run_trial", lambda spec, cell, trial: {"millis": ""})
        spec = sweep.ExperimentSpec.from_obj(SWEEP_SPEC)  # 8 jobs
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)
        assert len(sweep.run_sweep(spec, threads=10**6)) == 8
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 64)
        sweep.run_sweep(spec, threads=10**6)
        sweep.run_sweep(spec, threads=3)
        assert started == [4, 8, 3]
        sweep.run_sweep(spec, threads=1)
        assert started == [4, 8, 3]

    def test_import_loads_no_process_pool(self):
        # only a sweep on more than one worker pays for multiprocessing
        code = ("import sys, tilinglab, tilinglab.cli, tilinglab.sweep\n"
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
                " if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_timings_recorded_with_threads(self):
        from tilinglab.sweep import ExperimentSpec, run_sweep

        spec = ExperimentSpec.from_obj(SWEEP_SPEC)
        rows = run_sweep(spec, threads=2, timings=True)
        assert len(rows) == 2 * 2 * 2
        assert all(isinstance(row["millis"], float) for row in rows)


class TestCommonFlags:
    @pytest.mark.parametrize("command", [
        ["gen", "--construction", "gnp"],
        ["params", "--graph", "g.el"],
        ["factor", "--graph", "g.el", "--pattern", "K3"],
        ["absorb", "--graph", "g.el", "--pattern", "K3"],
        ["sweep", "--spec", "spec.json"],
    ], ids=lambda command: command[0])
    def test_format_flag_is_usage_error(self, command, capsys):
        for value in ("json", "csv", "edgelist"):
            assert run_cli(*command, "--format", value) == 2
            assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_format_mismatch_is_usage_error(self, tmp_path):
        assert run_cli("gen", "--construction", "gnp", "--n", "6", "--p", "0.5",
                       "--format", "csv") == 2

    def test_env_seed_not_an_integer_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("TILINGLAB_SEED", "abc")
        assert run_cli("gen", "--construction", "gnp", "--n", "5") == 2
        assert "error: TILINGLAB_SEED must be an integer, not 'abc'" in capsys.readouterr().err

    def test_env_seed_default(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        monkeypatch.setenv("TILINGLAB_SEED", "91")
        run_cli("gen", "--construction", "gnp", "--n", "15", "--p", "0.5",
                "--out", str(a))
        monkeypatch.delenv("TILINGLAB_SEED")
        run_cli("gen", "--construction", "gnp", "--n", "15", "--p", "0.5",
                "--seed", "91", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


def test_demo_sweep_spec_loads(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "scripts"))
    import demo_sweep

    monkeypatch.setattr(sweep, "run_trial", None)  # loading starts no trial
    spec = sweep.ExperimentSpec.from_obj(demo_sweep.SPEC)
    assert spec.config["threshold_frac"] == 0.1


def test_reproduce_counterexamples_script():
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_counterexamples.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "all constructions certified factor-free" in proc.stdout
