"""The benchmark's tracer must find every function it traces.

perfbench/tracer.py wraps the functions it lists by module and name, and
refuses to install when one is missing or bound nowhere.  Installing it here
turns a rename or deletion of a traced function into a test failure instead
of a benchmark failure.  No workload runs.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_function():
    tracer = load_tracer()
    homes = {module: importlib.import_module(f"tilinglab.{module}") for module in tracer.LAYERS}
    originals = {(module, name): getattr(homes[module], name, None)
                 for module, names in tracer.LAYERS.items() for name in names}
    t = tracer.Tracer()
    try:
        t.install()  # raises RuntimeError naming a missing or unbound function
        assert t.bindings >= len(originals)
        for (module, name), fn in originals.items():
            assert getattr(homes[module], name) is not fn, f"{module}.{name} not wrapped"
    finally:
        t.uninstall()
    for (module, name), fn in originals.items():
        assert getattr(homes[module], name) is fn


def test_yield_ratio_functions_take_target():
    # the tracer binds `target` by name only when a traced call happens, so a
    # renamed parameter would otherwise surface only in a benchmark run
    tracer = load_tracer()
    spans = [span for span, stats in tracer.EXTRA_STATS.items() if "yield_ratio" in stats]
    assert spans
    for span in spans:
        module, name = span.split(".")
        fn = getattr(importlib.import_module(f"tilinglab.{module}"), name)
        assert "target" in inspect.signature(fn).parameters, span
