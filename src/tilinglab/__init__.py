"""tilinglab: a desk-scale laboratory for graph tilings and absorbers."""

from .absorbing import AbsorbingStructure, build_absorbing_set
from .absorption import absorb
from .config import AbsorberConfig
from .factor import FactorResult, Tiling, find_factor_exact, greedy_max_tiling
from .graphs import Graph, Pattern, emit_graph, parse_graph
from .invariants import alpha_ell, min_degree, one_density, traversing_threshold
from .pipeline import PipelineReport, find_factor_absorbing
from .templates import TemplateGraph, build_template

__version__ = "0.1.0"

__all__ = [
    "AbsorberConfig",
    "AbsorbingStructure",
    "FactorResult",
    "Graph",
    "Pattern",
    "PipelineReport",
    "TemplateGraph",
    "Tiling",
    "absorb",
    "alpha_ell",
    "build_absorbing_set",
    "build_template",
    "emit_graph",
    "find_factor_absorbing",
    "find_factor_exact",
    "greedy_max_tiling",
    "min_degree",
    "one_density",
    "parse_graph",
    "traversing_threshold",
]
