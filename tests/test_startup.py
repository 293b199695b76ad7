"""Start-up contracts.  Each check runs in a fresh `python3 -B` process, so
that nothing it measures is cached or already imported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.name for p in (SRC / "tilinglab").glob("*.py"))
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
