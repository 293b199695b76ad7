"""tilinglab: a desk-scale laboratory for graph tilings and absorbers.

Importing the package runs none of its modules.  Every library module is
registered in `sys.modules`, and as an attribute of the package, through
`importlib.util.LazyLoader`, so its code runs when one of its names is first
read.  The public names below resolve through `__getattr__` at each read,
to what their module binds at the time.  `cli` and `serialize` are not
registered: they load only for the command line.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "AbsorberConfig": "config",
    "AbsorbingStructure": "absorbing",
    "FactorResult": "factor",
    "Graph": "graphs",
    "Pattern": "graphs",
    "PipelineReport": "pipeline",
    "TemplateGraph": "templates",
    "Tiling": "graphs",
    "absorb": "absorption",
    "alpha_ell": "invariants",
    "build_absorbing_set": "absorbing",
    "build_template": "templates",
    "emit_graph": "graphs",
    "find_factor_absorbing": "pipeline",
    "find_factor_exact": "factor",
    "greedy_max_tiling": "factor",
    "min_degree": "invariants",
    "one_density": "invariants",
    "parse_graph": "graphs",
    "traversing_threshold": "invariants",
}

__all__ = list(_EXPORTS)

_LIBRARY = ("absorbers", "absorbing", "absorption", "config", "embed", "factor", "generators",
            "graphs", "invariants", "matching", "pipeline", "rng", "sweep", "templates", "verify")


def _register(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _LIBRARY:
    _register(_name)
del _name


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
