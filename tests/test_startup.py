"""Start-up contracts.  Each check runs in a fresh `python3 -B` process, so
that nothing it measures is cached or already imported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tilinglab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(p.name for p in (SRC / "tilinglab").glob("*.py"))
# modules that load only for the command line; every other one is a library module
COMMAND_LINE_ONLY = {"__init__", "__main__", "cli", "serialize"}
LIBRARY = sorted(p.stem for p in (SRC / "tilinglab").glob("*.py") if p.stem not in COMMAND_LINE_ONLY)
# the benchmark's import line (perfbench/workloads.py)
BENCH_IMPORT = "from tilinglab import absorbing, factor, generators, graphs, pipeline, sweep, verify\n"
# the modules of the absorbing method, which the exact solver never needs
ABSORBING_STACK = ["absorbers", "absorbing", "absorption", "invariants", "matching",
                   "pipeline", "sweep", "templates", "verify"]
# records the file of every module body and exec() the process runs
AUDIT_EXEC = ("import os, sys\n"
              "ran = set()\n"
              "def audit(event, args):\n"
              "    if event == 'exec':\n"
              "        ran.add(os.path.basename(args[0].co_filename))\n"
              "sys.addaudithook(audit)\n")
LOAD_TRACER = ("import importlib.util\n"
               "spec = importlib.util.spec_from_file_location("
               f"'perfbench_tracer', {str(ROOT / 'perfbench' / 'tracer.py')!r})\n"
               "tracer = importlib.util.module_from_spec(spec)\n"
               "spec.loader.exec_module(tracer)\n"
               "t = tracer.Tracer()\n")
# the largest modules the benchmark compiles peak at about 0.9 MiB
COMPILE_PEAK_LIMIT = 1.1 * 2**20


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_csv_loads_only_to_write_a_csv():
    out = run_fresh("import sys, tilinglab.sweep, tilinglab.generators, tilinglab.verify; "
                    "print('csv' in sys.modules)")
    assert out.strip() == "False"


def test_serialize_loads_only_for_the_cli():
    out = run_fresh("import sys, tilinglab, tilinglab.sweep, tilinglab.generators; "
                    "print('tilinglab.serialize' in sys.modules)")
    assert out.strip() == "False"


@pytest.mark.parametrize("module", MODULES)
def test_module_compile_peak(module):
    path = SRC / "tilinglab" / module
    out = run_fresh("import sys, tracemalloc\n"
                    f"source = open({str(path)!r}, 'rb').read()\n"
                    "tracemalloc.start()\n"
                    f"compile(source, {str(path)!r}, 'exec')\n"
                    "print(tracemalloc.get_traced_memory()[1])\n")
    peak = int(out)
    assert peak < COMPILE_PEAK_LIMIT, f"{module} compiles with a {peak / 2**20:.2f} MiB peak"


def test_import_registers_every_library_module_and_runs_none():
    out = run_fresh(AUDIT_EXEC + "import tilinglab\n"
                    "print(sorted(ran))\n"
                    "print(sorted(m for m in sys.modules if m.startswith('tilinglab.')))\n")
    ran, registered = out.splitlines()
    assert ran == "['__init__.py']"
    assert registered == str([f"tilinglab.{m}" for m in LIBRARY])


def test_the_exact_path_runs_none_of_the_absorbing_stack():
    out = run_fresh(AUDIT_EXEC + BENCH_IMPORT
                    + "g = generators.gen_gnp(30, 0.6, seed=1)\n"
                    "factor.find_factor_exact(g, graphs.Pattern.clique(3))\n"
                    "print(' '.join(sorted(ran)))\n")
    ran = set(out.split())
    assert {"factor.py", "generators.py", "graphs.py"} <= ran
    assert ran.isdisjoint(f"{m}.py" for m in ABSORBING_STACK)


def test_lazy_registration_keeps_the_tracer_whole():
    """perfbench's tracer rebinds what the modules in sys.modules bind when it
    installs; it must find as many bindings after the benchmark's import
    line as after every module has run."""
    lazy = run_fresh(BENCH_IMPORT + LOAD_TRACER + "t.install()\nprint(t.bindings)\n")
    loaded = run_fresh("import importlib, tilinglab\n"
                       f"for m in {LIBRARY!r}:\n"
                       "    vars(importlib.import_module(f'tilinglab.{m}'))\n"
                       + LOAD_TRACER + "t.install()\nprint(t.bindings)\n")
    assert int(lazy) == int(loaded) > 0


def test_public_names_resolve():
    namespace = {}
    exec("from tilinglab import *", namespace)
    for name in tilinglab.__all__:
        obj = getattr(tilinglab, name)
        assert obj is vars(sys.modules[obj.__module__])[name]
        assert namespace[name] is obj
        assert name in dir(tilinglab)
    with pytest.raises(AttributeError):
        tilinglab.no_such_name
