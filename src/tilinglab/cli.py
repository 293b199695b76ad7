"""Command-line surface: gen, params, factor, absorb, verify, sweep.

Exit codes: 0 success, 1 solver or verification failure, 2 usage error.
gen, params, factor and absorb take --seed, whose default is the
TILINGLAB_SEED environment variable, falling back to 0; sweep takes
--seed-base, and verify draws nothing at random.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from .absorbers import BUILDERS
from .absorbing import build_absorbing_set
from .absorption import absorb
from .config import AbsorberConfig, StageFailure, load_json_text
from .factor import DEFAULT_BUDGET, find_factor_exact
from .generators import GENERATORS, gen_gamma
from .graphs import GraphParseError, emit_graph, parse_graph, parse_pattern_spec
from .invariants import param_report
from .pipeline import FALLBACK_CAP, check_hypotheses, find_factor_absorbing
from .rng import rng_for
from .serialize import (
    SCHEMA_STRUCTURE,
    SCHEMA_TILING,
    dump_json,
    load_json,
    structure_from_obj,
    structure_to_obj,
    tiling_from_obj,
    tiling_to_obj,
)
from .sweep import ExperimentSpec, rows_to_csv, run_sweep
from .verify import VerificationError, verify_structure, verify_tiling

USAGE_ERROR = 2
FAILURE = 1
OK = 0


def _default_seed() -> int:
    env = os.environ.get("TILINGLAB_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"TILINGLAB_SEED must be an integer, not {env!r}") from None


def _read_graph(path: str):
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"--graph {path} is not ASCII: {exc}") from None
    return parse_graph(text)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


def _config(args, h: int) -> AbsorberConfig:
    """The config that `--config` sets for pattern size h."""
    return AbsorberConfig.from_overrides(h, load_json_text(args.config or "{}", "--config"))


def cmd_gen(args) -> int:
    if args.construction == "gamma":  # gen_gamma also reports its alpha_ell
        rep = gen_gamma(args.ell, args.n, args.seed)
        g = rep.graph
        print(json.dumps({
            "ell": rep.ell, "n": g.n, "m": g.m,
            "max_degree": rep.max_degree,
            "alpha_ell": rep.alpha_ell, "alpha_exact": rep.alpha_exact,
        }), file=sys.stderr)
    else:
        g = GENERATORS[args.construction].build(vars(args), args.seed)
    _write_text(args.out, emit_graph(g))
    return OK


def cmd_params(args) -> int:
    g = _read_graph(args.graph)
    pattern = parse_pattern_spec(args.pattern) if args.pattern else None
    if not args.ell:
        raise ValueError("--ell must name at least one integer")
    if args.traversing_s is not None and pattern is None:
        raise ValueError("--traversing-s needs --pattern")
    report = param_report(
        g, ells=args.ell, pattern=pattern,
        traversing_s=args.traversing_s,
        trials=args.trials, seed=args.seed,
    )
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    _write_text(args.out, text)
    return OK


def cmd_factor(args) -> int:
    if args.budget_nodes < 1:
        raise ValueError(f"--budget-nodes must be >= 1, not {args.budget_nodes}")
    if args.fallback_cap < 0:
        raise ValueError(f"--fallback-cap must be >= 0, not {args.fallback_cap}")
    g = _read_graph(args.graph)
    pattern = parse_pattern_spec(args.pattern)
    config = _config(args, pattern.h)
    if args.solver == "exact":
        res = find_factor_exact(g, pattern, budget=args.budget_nodes)
        if res.found:
            if args.out:
                dump_json(tiling_to_obj(res.tiling), args.out)
            print(f"factor: {len(res.tiling)} copies ({res.nodes} nodes)")
            return OK
        print(f"no factor: {res.status} ({res.nodes} nodes)")
        return FAILURE
    report = find_factor_absorbing(
        g, pattern, mode=args.mode, ell=args.ell, config=config,
        seed=args.seed, fallback_cap=args.fallback_cap, budget=args.budget_nodes,
    )
    if args.report:
        dump_json(report.to_obj(), args.report)
    if report.factor_found:
        if args.out:
            dump_json(tiling_to_obj(report.tiling), args.out)
        print(f"factor: {len(report.tiling)} copies "
              f"(fallback={'yes' if report.fallback_used else 'no'})")
        return OK
    print(f"no factor: stage {report.failure_stage}; "
          f"hypotheses {'held' if report.hypothesis_held else 'violated'}")
    return FAILURE


def cmd_absorb(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, not {args.trials}")
    g = _read_graph(args.graph)
    pattern = parse_pattern_spec(args.pattern)
    config = _config(args, pattern.h)
    if args.builder != "direct":
        held, detail = check_hypotheses(g, pattern, args.builder, config,
                                        ell=args.ell, seed=args.seed)
        print(f"hypotheses {'held' if held else 'violated'}: {detail}", file=sys.stderr)
    try:
        structure = build_absorbing_set(g, pattern, config, seed=args.seed,
                                        builder=args.builder, ell=args.ell)
    except StageFailure as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return FAILURE
    if args.out:
        dump_json(structure_to_obj(structure), args.out)
    print(f"absorbing set: {len(structure.absorbing_set)} vertices, "
          f"m={structure.template.m}, template edges "
          f"{len(structure.edge_absorbers)}")

    aset = structure.absorbing_set
    outside = sorted(set(range(g.n)) - aset)
    sizes = [k for k in structure.valid_remainder_sizes() if k <= len(outside)]
    if not sizes:
        print(f"no absorbable remainder size fits the {len(outside)} vertices outside "
              f"the absorbing set", file=sys.stderr)
        return FAILURE
    ok = 0
    for i in range(args.trials):
        rng = rng_for(args.seed, "trial", i)
        size = sizes[rng.randrange(len(sizes))]
        rem = sorted(rng.sample(outside, size)) if size else []
        try:
            absorb(g, structure, rem)
            ok += 1
        except (StageFailure, ValueError) as exc:
            print(f"trial {i} (|R|={size}): {exc}", file=sys.stderr)
    print(f"absorption trials: {ok}/{args.trials} ok")
    return OK if ok == args.trials else FAILURE


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)  # first: the loaders check the pattern against g.n
    try:  # load only; the checks run below
        obj = load_json(args.certificate)  # a ValueError if not JSON or not ASCII
        if not isinstance(obj, dict):
            raise ValueError(f"a JSON {type(obj).__name__}, not an object")
        schema = obj.get("schema")
        if schema == SCHEMA_TILING:
            check = partial(verify_tiling, tiling=tiling_from_obj(obj, g.n),
                            require_factor=args.factor)
        elif schema == SCHEMA_STRUCTURE:
            check = partial(verify_structure, structure=structure_from_obj(obj, g.n))
        else:
            print(f"unknown certificate schema: {schema}", file=sys.stderr)
            return USAGE_ERROR
    except KeyError as exc:
        print(f"malformed certificate: missing key {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        check(g)
    except VerificationError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return FAILURE
    print("valid")
    return OK


def cmd_sweep(args) -> int:
    spec = ExperimentSpec.load(args.spec)
    if args.seed_base is not None:
        spec.seed_base = args.seed_base
    rows = run_sweep(spec, threads=args.threads, timings=args.timings)
    text = rows_to_csv(spec, rows)
    _write_text(args.out, text)
    print(f"{len(rows)} rows", file=sys.stderr)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilinglab",
        description="graph tiling laboratory: generators, invariants, "
                    "exact factors, absorbers, sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed_default = _default_seed()

    p = sub.add_parser("gen", help="write a generated graph as an edge list")
    p.add_argument("--construction", required=True, choices=list(GENERATORS))
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--sizes", type=_int_list, default="")
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("params", help="compute graph parameters as JSON")
    p.add_argument("--graph", required=True)
    p.add_argument("--ell", type=_int_list, default="2")
    p.add_argument("--pattern", type=str, default=None)
    p.add_argument("--traversing-s", type=int, default=None)
    p.add_argument("--trials", type=int, default=200,
                   help="traversing families examined: all of them when they number at "
                        "most this, else this many sampled")
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("factor", help="find a perfect tiling")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--solver", choices=["exact", "absorbing"], default="exact")
    p.add_argument("--mode", choices=["general", "clique"], default="general")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--config", type=str, default=None,
                   help="JSON object of AbsorberConfig fields (any field but h)")
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--fallback-cap", type=int, default=FALLBACK_CAP)
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--report", type=str, default=None)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("absorb", help="build an absorbing structure and test it")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--builder", choices=BUILDERS, default="direct")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--config", type=str, default=None,
                   help="JSON object of AbsorberConfig fields (any field but h)")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_absorb)

    p = sub.add_parser("verify", help="check a serialized certificate")
    p.add_argument("--certificate", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--factor", action="store_true",
                   help="require the tiling to cover every vertex")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run an experiment spec, write CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--seed-base", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--timings", action="store_true",
                   help="record wall-clock millis (breaks byte determinism)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return USAGE_ERROR if exc.code not in (0, None) else OK
        return args.func(args)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # a path that is missing, a directory or unreadable
        print(f"file error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
