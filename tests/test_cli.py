import json
import subprocess
import sys

import pytest

from tilinglab.cli import main
from tilinglab.graphs import parse_graph
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

    def test_gamma_reports(self, tmp_path, capsys):
        out = tmp_path / "gamma.el"
        assert run_cli("gen", "--construction", "gamma", "--ell", "2",
                       "--n", "25", "--seed", "1", "--out", str(out)) == 0
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["ell"] == 2 and "max_degree" in report


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


class TestFactor:
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

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("3 1\n0 0\n")
        assert run_cli("factor", "--graph", str(bad), "--pattern", "K3") == 2


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

    def test_unknown_schema_exit_2(self, g30, tmp_path):
        doc = tmp_path / "junk.json"
        doc.write_text('{"schema": "mystery/v9"}')
        assert run_cli("verify", "--certificate", str(doc),
                       "--graph", str(g30)) == 2

    def test_tiling_without_pattern_is_malformed(self, g30, tmp_path, capsys):
        doc = tmp_path / "nopattern.json"
        doc.write_text('{"schema": "tiling/v1", "copies": [[0, 1, 2]]}')
        assert run_cli("verify", "--certificate", str(doc),
                       "--graph", str(g30)) == 2
        err = capsys.readouterr().err
        assert "malformed certificate" in err and "'pattern'" in err

    def test_top_level_list_is_malformed(self, g30, tmp_path, capsys):
        doc = tmp_path / "list.json"
        doc.write_text("[1, 2, 3]")
        assert run_cli("verify", "--certificate", str(doc),
                       "--graph", str(g30)) == 2
        assert "malformed certificate" in capsys.readouterr().err


class TestAbsorbCommand:
    def test_build_trials_and_verify(self, tmp_path):
        g = tmp_path / "k60.el"
        run_cli("gen", "--construction", "gnp", "--n", "60", "--p", "1.0",
                "--out", str(g))
        structure = tmp_path / "structure.json"
        config = json.dumps({"t": 1, "absorber_frac": 0.2, "sample_prob": 0.06,
                             "surplus_ratio": 2.0, "m_cap": 1})
        assert run_cli("absorb", "--graph", str(g), "--pattern", "K2",
                       "--config", config, "--trials", "5", "--seed", "1",
                       "--out", str(structure)) == 0
        assert run_cli("verify", "--certificate", str(structure),
                       "--graph", str(g)) == 0


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

    def test_threads_match_serial(self, tmp_path):
        from tilinglab.sweep import ExperimentSpec, rows_to_csv, run_sweep

        spec = ExperimentSpec.from_obj(SWEEP_SPEC)
        serial = rows_to_csv(spec, run_sweep(spec, threads=1))
        parallel = rows_to_csv(spec, run_sweep(spec, threads=2))
        assert serial == parallel

    def test_timings_recorded_with_threads(self):
        from tilinglab.sweep import ExperimentSpec, run_sweep

        spec = ExperimentSpec.from_obj(SWEEP_SPEC)
        rows = run_sweep(spec, threads=2, timings=True)
        assert len(rows) == 2 * 2 * 2
        assert all(isinstance(row["millis"], float) for row in rows)


class TestCommonFlags:
    def test_format_native_accepted(self, tmp_path):
        out = tmp_path / "g.el"
        assert run_cli("gen", "--construction", "gnp", "--n", "6", "--p", "0.5",
                       "--format", "edgelist", "--out", str(out)) == 0

    def test_format_mismatch_is_usage_error(self, tmp_path):
        assert run_cli("gen", "--construction", "gnp", "--n", "6", "--p", "0.5",
                       "--format", "csv") == 2

    def test_env_seed_default(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        monkeypatch.setenv("TILINGLAB_SEED", "91")
        run_cli("gen", "--construction", "gnp", "--n", "15", "--p", "0.5",
                "--out", str(a))
        monkeypatch.delenv("TILINGLAB_SEED")
        run_cli("gen", "--construction", "gnp", "--n", "15", "--p", "0.5",
                "--seed", "91", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
