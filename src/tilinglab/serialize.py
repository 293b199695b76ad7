"""The CLI's document codec: JSON for every certificate the tools emit.

Only `cli` imports this module; the JSON value checks it shares with the
config, the generator grid and the sweep spec live in `config`, and
`graphs.parse_pattern_spec` reads a pattern argument.

Each document carries a `schema` tag so the verifier can dispatch on kind:
tiling/v1 or absorbing-structure/v8, whose edge absorbers are {left, right,
alone, with_core}, the last two tilings as lists of copies.  A document
stores each fact once and only what `verify` and `absorb` read: a structure
is its pattern, builder, vertex sets and tilings; the graph it is checked
on gives n, and its slots and template derive from the rest (the template
from the sizes of core and buffer), so none of them, nor the build's
config or seed, is written.  Every loader refuses a key it does not read,
in every object.  Patterns serialize inline (clique order, or an explicit
edge list); a complete graph loads as a clique whatever its `kind`.

A loader raises ValueError on a count, vertex or edge that is not a JSON
integer, on a list or object of the wrong JSON type, on a structure's
vertex outside 0..n-1 for the graph's n, on a pattern with more vertices
than the graph, checked before the pattern is built, on a template edge
with two edge absorbers, and on a structure `builder` that is not one of
BUILDERS, or is `clique` on a pattern other than K_r with r >= 3.
"""

from __future__ import annotations

import json
from typing import Any

from .absorbers import BUILDERS
from .absorbing import AbsorbingStructure
from .config import is_json_int, json_int, load_json_text, refuse_unknown_keys
from .graphs import Graph, Pattern, Tiling

SCHEMA_TILING = "tiling/v1"
SCHEMA_STRUCTURE = "absorbing-structure/v8"
# the keys each loader reads, which are exactly the keys each writer emits
TILING_KEYS = {"schema", "pattern", "copies"}
PATTERN_KEYS = {"clique": {"kind", "r"}, "general": {"kind", "n", "edges"}}
STRUCTURE_KEYS = {"schema", "pattern", "builder", "buffer", "core", "slot_blocks",
                  "edge_absorbers"}
EDGE_ABSORBER_KEYS = {"left", "right", "alone", "with_core"}


def _ints(values: Any, what: str, size: int | None = None) -> tuple[int, ...]:
    if not (isinstance(values, list) and all(map(is_json_int, values))
            and size in (None, len(values))):
        want = "a list of integers" if size is None else f"a list of {size} integers"
        raise ValueError(f"{what} must be {want}, not {json.dumps(values)}")
    return tuple(values)


def _typed(value: Any, kind: type, what: str) -> Any:
    """`value` if it is a JSON object (kind dict) or list (kind list); else
    ValueError naming `what`."""
    if not isinstance(value, kind):
        want = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {want}, not {json.dumps(value)}")
    return value


def _vertices(values: Any, what: str, n: int) -> tuple[int, ...]:
    """`values` as by `_ints`, each a vertex in 0..n-1."""
    vs = _ints(values, what)
    if any(not 0 <= v < n for v in vs):
        raise ValueError(f"{what} must lie in 0..{n - 1}, not {json.dumps(values)}")
    return vs


def pattern_to_obj(p: Pattern) -> dict:
    if p.is_clique:
        return {"kind": "clique", "r": p.r}
    return {"kind": "general", "n": p.h, "edges": [list(e) for e in p.graph.edges()]}


def pattern_from_obj(obj: dict, n: int | None = None) -> Pattern:
    """The pattern in `obj`, checked before it is built to have at most `n`
    vertices, the vertex count of the graph, if given."""
    kind = _typed(obj, dict, "pattern")["kind"]
    if kind not in ("clique", "general"):
        raise ValueError(f'pattern kind must be "clique" or "general", not {json.dumps(kind)}')
    refuse_unknown_keys(obj, PATTERN_KEYS[kind], f"{kind} pattern")
    key = "r" if kind == "clique" else "n"
    size = json_int(obj[key], f"pattern {key}")
    if n is not None and size > n:
        raise ValueError(f"pattern {key} {size} has more vertices than the graph's {n}")
    if kind == "clique":
        return Pattern.clique(size)
    return Pattern(Graph(size, [_ints(e, "pattern edge", 2)
                                for e in _typed(obj["edges"], list, "pattern edges")]))


def tiling_to_obj(t: Tiling) -> dict:
    return {
        "schema": SCHEMA_TILING,
        "pattern": pattern_to_obj(t.pattern),
        "copies": [list(c) for c in t.copies],
    }


def tiling_from_obj(obj: dict, n: int) -> Tiling:
    """The tiling in `obj`, for a graph on `n` vertices: a pattern with more
    vertices than the graph is refused before it is built."""
    refuse_unknown_keys(obj, TILING_KEYS, "tiling")
    p = pattern_from_obj(obj["pattern"], n=n)
    return Tiling(pattern=p, copies=tuple(_ints(c, "tiling copy")
                                          for c in _typed(obj["copies"], list, "tiling copies")))


def structure_to_obj(s: AbsorbingStructure) -> dict:
    return {
        "schema": SCHEMA_STRUCTURE,
        "pattern": pattern_to_obj(s.pattern),
        "builder": s.builder,
        "buffer": list(s.buffer),
        "core": list(s.core),
        "slot_blocks": [list(b) for b in s.slot_blocks],
        "edge_absorbers": [
            {"left": l, "right": r, "alone": [list(c) for c in alone.copies],
             "with_core": [list(c) for c in with_core.copies]}
            for (l, r), (alone, with_core) in sorted(s.edge_absorbers.items())
        ],
    }


def _edge_absorbers(entries: Any, p: Pattern,
                    n: int) -> dict[tuple[int, int], tuple[Tiling, Tiling]]:
    """The stored edge absorbers, each as its template edge and its two
    tilings; a template edge has at most one."""
    out = {}
    for e in _typed(entries, list, "structure edge_absorbers"):
        refuse_unknown_keys(_typed(e, dict, "edge absorber"), EDGE_ABSORBER_KEYS, "edge absorber")
        edge = (json_int(e["left"], "edge absorber left", 0),
                json_int(e["right"], "edge absorber right", 0))
        if edge in out:
            raise ValueError(f"template edge {edge} has more than one edge absorber")
        out[edge] = tuple(Tiling(p, tuple(_vertices(c, f"edge absorber {key} copy", n)
                                          for c in _typed(e[key], list, f"edge absorber {key}")))
                          for key in ("alone", "with_core"))
    return out


def structure_from_obj(obj: dict, n: int) -> AbsorbingStructure:
    """The structure in `obj`, for a graph on `n` vertices: a pattern with
    more vertices than the graph is refused before it is built, and so is a
    vertex outside the graph."""
    refuse_unknown_keys(obj, STRUCTURE_KEYS, "structure")
    p = pattern_from_obj(obj["pattern"], n)
    s = AbsorbingStructure(
        pattern=p,
        builder=obj["builder"],
        buffer=_vertices(obj["buffer"], "structure buffer", n),
        core=_vertices(obj["core"], "structure core", n),
        slot_blocks=tuple(_vertices(b, "structure slot block", n)
                          for b in _typed(obj["slot_blocks"], list, "structure slot_blocks")),
        edge_absorbers=_edge_absorbers(obj["edge_absorbers"], p, n),
    )
    if s.builder not in BUILDERS:
        raise ValueError(f"structure builder must be one of {', '.join(BUILDERS)}, "
                         f"not {json.dumps(s.builder)}")
    if s.builder == "clique" and (s.pattern.r or 0) < 3:
        raise ValueError("structure builder clique needs a clique pattern K_r with r >= 3")
    return s


def dump_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="ascii") as fh:
        return load_json_text(fh, path)
