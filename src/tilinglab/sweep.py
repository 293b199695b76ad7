"""Seeded experiment sweeps over generator parameter grids.

Grid cells enumerate deterministically (sorted parameter names, row-major
product); the seed of cell c, trial t is derive_seed(seed_base, "cell", c,
"trial", t).  Two runs of the same spec with the same seed base produce
byte-identical CSV.  Wall-clock timings are therefore left out of the CSV
unless explicitly requested.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import MISSING, dataclass, field, fields
from itertools import product

from .absorbers import check_builder
from .config import AbsorberConfig, json_int, load_json_text, refuse_unknown_keys
from .factor import DEFAULT_BUDGET, find_factor_exact
from .generators import GENERATORS, check_param
from .graphs import parse_pattern_spec
from .pipeline import FALLBACK_CAP, find_factor_absorbing
from .rng import derive_seed

CSV_SCHEMA = "sweep/v1"

SOLVERS = ("pipeline", "exact")
MODES = ("clique", "general")

# a spec's integer keys with their least value, and its string keys
SPEC_INTS = {"trials": 1, "ell": 2, "fallback_cap": 0, "budget": 1, "seed_base": None}
SPEC_STRS = ("generator", "pattern", "solver", "mode")

RESULT_COLUMNS = [
    "trial", "seed", "hypothesis_held", "absorbing_built", "cover_ok",
    "absorbed", "fallback_used", "factor_found", "leftover", "nodes", "millis",
]


@dataclass
class ExperimentSpec:
    """One sweep: a generator, a parameter grid, a pattern, and a solver.

    `config` sets AbsorberConfig fields for the pipeline solver, as
    `--config` does (AbsorberConfig.from_overrides)."""

    generator: str
    grid: dict[str, list]
    pattern: str
    mode: str = "clique"
    ell: int = 2
    trials: int = 5
    seed_base: int = 0
    solver: str = "pipeline"
    fallback_cap: int = FALLBACK_CAP
    budget: int = DEFAULT_BUDGET
    config: dict = field(default_factory=dict)

    @classmethod
    def from_obj(cls, obj: dict) -> "ExperimentSpec":
        """Validated spec; raises ValueError naming what is malformed."""
        if not isinstance(obj, dict):
            raise ValueError(f"sweep spec must be a JSON object, not {type(obj).__name__}")
        refuse_unknown_keys(obj, {f.name for f in fields(cls)}, "sweep spec")
        required = {f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
        if required - obj.keys():
            raise ValueError(f"sweep spec lacks key(s): {', '.join(sorted(required - obj.keys()))}")
        spec = cls(**obj)
        for key, lo in SPEC_INTS.items():
            json_int(getattr(spec, key), f"sweep spec {key!r}", lo)
        for key in SPEC_STRS:
            if not isinstance(getattr(spec, key), str):
                raise ValueError(f"sweep spec {key!r} must be a string, "
                                 f"not {json.dumps(getattr(spec, key))}")
        if spec.generator not in GENERATORS:
            raise ValueError(f"unknown generator: {spec.generator}; "
                             f"choose from {', '.join(sorted(GENERATORS))}")
        if spec.solver not in SOLVERS:
            raise ValueError(f"unknown solver: {spec.solver}; choose from {', '.join(SOLVERS)}")
        if spec.mode not in MODES:
            raise ValueError(f"unknown mode: {spec.mode}; choose from {', '.join(MODES)}")
        if not isinstance(spec.grid, dict) or not isinstance(spec.config, dict):
            raise ValueError("sweep spec 'grid' and 'config' must be JSON objects")
        missing = set(GENERATORS[spec.generator].params) - spec.grid.keys()
        if missing:
            raise ValueError(f"generator {spec.generator} needs grid parameter(s): "
                             f"{', '.join(sorted(missing))}")
        for key in spec.grid_keys():
            if not isinstance(spec.grid[key], list):
                raise ValueError(f"sweep spec grid {key!r} must be a JSON list of values")
        for key in GENERATORS[spec.generator].params:
            for value in spec.grid[key]:
                check_param(key, value)
        pattern = parse_pattern_spec(spec.pattern)
        if spec.solver == "pipeline":
            check_builder(spec.mode, pattern, spec.ell)
        AbsorberConfig.from_overrides(pattern.h, spec.config)
        return spec

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_obj(load_json_text(fh, f"sweep spec {path}"))

    def grid_keys(self) -> list[str]:
        return sorted(self.grid)

    def cells(self) -> list[dict]:
        keys = self.grid_keys()
        out = []
        for values in product(*(self.grid[k] for k in keys)):
            out.append(dict(zip(keys, values)))
        return out


def run_trial(spec: ExperimentSpec, cell_index: int, trial: int) -> dict:
    cell = spec.cells()[cell_index]
    seed = derive_seed(spec.seed_base, "cell", cell_index, "trial", trial)
    g = GENERATORS[spec.generator].build(cell, derive_seed(seed, "instance"))
    pattern = parse_pattern_spec(spec.pattern)
    row: dict = {k: cell[k] for k in spec.grid_keys()}
    row["trial"] = trial
    row["seed"] = seed

    if spec.solver == "exact":
        res = find_factor_exact(g, pattern, budget=spec.budget)
        row.update({
            "hypothesis_held": "", "absorbing_built": "", "cover_ok": "",
            "absorbed": "", "fallback_used": "",
            "factor_found": int(res.found), "leftover": "",
            "nodes": res.nodes, "millis": "",
        })
        return row

    config = AbsorberConfig.from_overrides(pattern.h, spec.config)
    report = find_factor_absorbing(
        g, pattern, mode=spec.mode, ell=spec.ell, config=config,
        seed=seed, fallback_cap=spec.fallback_cap, budget=spec.budget,
    )
    row.update({
        "hypothesis_held": int(report.hypothesis_held),
        "absorbing_built": int(report.stage_ok("absorbing-set")),
        "cover_ok": int(report.stage_ok("cover")),
        "absorbed": int(report.stage_ok("absorb")),
        "fallback_used": int(report.fallback_used),
        "factor_found": int(report.factor_found),
        "leftover": report.leftover if report.leftover is not None else "",
        "nodes": report.nodes,
        "millis": "",
    })
    return row


def _timed_trial(spec: ExperimentSpec, cell_index: int, trial: int, timings: bool) -> dict:
    """run_trial, recording its wall time in `millis` when `timings` is set."""
    t0 = time.perf_counter()
    row = run_trial(spec, cell_index, trial)
    if timings:
        row["millis"] = round((time.perf_counter() - t0) * 1000, 3)
    return row


def run_sweep(spec: ExperimentSpec, threads: int = 1, timings: bool = False) -> list[dict]:
    """All rows of the sweep, ordered by (cell index, trial index).

    Runs on at most `threads` worker processes, and never more than there
    are CPUs or jobs: the pool starts every worker it is allowed at once.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    jobs = [
        (spec, cell_index, trial, timings)
        for cell_index in range(len(spec.cells()))
        for trial in range(spec.trials)
    ]
    workers = min(threads, os.cpu_count() or 1, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_timed_trial, *zip(*jobs)))
    return [_timed_trial(*job) for job in jobs]


def rows_to_csv(spec: ExperimentSpec, rows: list[dict]) -> str:
    import csv  # only a process that writes a CSV loads it

    columns = spec.grid_keys() + RESULT_COLUMNS
    buf = io.StringIO()
    buf.write(f"# schema: {CSV_SCHEMA}\n")
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
