"""JSON serialization for every certificate the tools emit.

Each document carries a `schema` tag so the verifier can dispatch on kind:
tiling/v1 or absorbing-structure/v2.  Documents tagged absorbing-structure/v1
are still read: v1 also carried an index-map copy of `buffer` and of `core`,
which the loader ignores.  Patterns serialize inline (clique order, or an
explicit edge list).

A structure's `config` object holds every AbsorberConfig field plus the
derived `remainder_frac`.  The loader takes the field list from the
dataclass: a missing optional field takes its default, an unknown key or a
`remainder_frac` other than surplus_ratio/(h-1) raises ValueError.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from typing import Any

from .absorbing import AbsorberConfig, AbsorbingStructure, TemplateGraph
from .factor import Tiling
from .graphs import Graph, Pattern

SCHEMA_TILING = "tiling/v1"
SCHEMA_STRUCTURE = "absorbing-structure/v2"
STRUCTURE_SCHEMAS = ("absorbing-structure/v1", SCHEMA_STRUCTURE)


def pattern_to_obj(p: Pattern) -> dict:
    if p.is_clique:
        return {"kind": "clique", "r": p.r}
    return {"kind": "general", "n": p.h, "edges": [list(e) for e in p.graph.edges()]}


def pattern_from_obj(obj: dict) -> Pattern:
    if obj["kind"] == "clique":
        return Pattern.clique(int(obj["r"]))
    g = Graph(int(obj["n"]), [tuple(e) for e in obj["edges"]])
    return Pattern(graph=g, kind="general")


def parse_pattern_spec(spec: str) -> Pattern:
    """Parse 'K<r>' into a clique pattern, or read an edge-list file path."""
    s = spec.strip()
    if s.upper().startswith("K") and s[1:].isdigit():
        return Pattern.clique(int(s[1:]))
    from .graphs import parse_graph

    with open(s, "r", encoding="ascii") as fh:
        return Pattern.from_graph(parse_graph(fh.read()))


def tiling_to_obj(t: Tiling) -> dict:
    return {
        "schema": SCHEMA_TILING,
        "pattern": pattern_to_obj(t.pattern),
        "copies": [list(c) for c in t.copies],
    }


def tiling_from_obj(obj: dict) -> Tiling:
    p = pattern_from_obj(obj["pattern"])
    return Tiling(pattern=p, copies=tuple(tuple(c) for c in obj["copies"]))


def config_to_obj(c: AbsorberConfig) -> dict:
    obj = {f.name: getattr(c, f.name) for f in fields(AbsorberConfig)}
    obj["remainder_frac"] = c.remainder_frac
    return obj


def config_from_obj(obj: dict) -> AbsorberConfig:
    kw = dict(obj)
    stored = kw.pop("remainder_frac", None)
    unknown = kw.keys() - {f.name for f in fields(AbsorberConfig)}
    if unknown:
        raise ValueError(f"unknown AbsorberConfig key(s): {', '.join(sorted(unknown))}")
    c = AbsorberConfig(**kw)
    if stored is not None and not math.isclose(stored, c.remainder_frac,
                                               rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(f"config remainder_frac {stored} is not "
                         f"surplus_ratio/(h-1) = {c.remainder_frac}")
    return c


def template_to_obj(t: TemplateGraph) -> dict:
    return {
        "m": t.m,
        "surplus": t.surplus,
        "mode": t.mode,
        "left_adj": [list(row) for row in t.left_adj],
        "verification": t.verification,
    }


def template_from_obj(obj: dict) -> TemplateGraph:
    return TemplateGraph(
        m=obj["m"], surplus=obj["surplus"], mode=obj["mode"],
        left_adj=tuple(tuple(row) for row in obj["left_adj"]),
        verification=dict(obj["verification"]),
    )


def structure_to_obj(s: AbsorbingStructure) -> dict:
    return {
        "schema": SCHEMA_STRUCTURE,
        "n": s.n,
        "pattern": pattern_to_obj(s.pattern),
        "config": config_to_obj(s.config),
        "seed": s.seed,
        "buffer": list(s.buffer),
        "core": list(s.core),
        "slots": list(s.slots),
        "slot_blocks": [list(b) for b in s.slot_blocks],
        "template": template_to_obj(s.template),
        "edge_absorbers": [
            {"left": l, "right": r, "vertices": list(a)}
            for (l, r), a in sorted(s.edge_absorbers.items())
        ],
        "copy_families": {str(v): [list(mem) for mem in fams]
                          for v, fams in sorted(s.copy_families.items())},
        "harvest_sizes": {str(v): k for v, k in sorted(s.harvest_sizes.items())},
        "size_report": s.size_report,
    }


def structure_from_obj(obj: dict) -> AbsorbingStructure:
    return AbsorbingStructure(
        n=obj["n"],
        pattern=pattern_from_obj(obj["pattern"]),
        config=config_from_obj(obj["config"]),
        seed=obj["seed"],
        buffer=tuple(obj["buffer"]),
        core=tuple(obj["core"]),
        slots=tuple(obj["slots"]),
        slot_blocks=tuple(tuple(b) for b in obj["slot_blocks"]),
        template=template_from_obj(obj["template"]),
        edge_absorbers={
            (e["left"], e["right"]): tuple(e["vertices"])
            for e in obj["edge_absorbers"]
        },
        copy_families={int(v): tuple(tuple(mem) for mem in fams)
                       for v, fams in obj["copy_families"].items()},
        harvest_sizes={int(v): k for v, k in obj["harvest_sizes"].items()},
        size_report=dict(obj["size_report"]),
    )


def dump_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)
