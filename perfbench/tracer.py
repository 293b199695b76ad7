"""Spans around calls into tilinglab's public functions, made from outside.

`Tracer.install` wraps every listed function and rebinds each module-level
name bound to it across `tilinglab.*`, found by identity, so that copies made
by `from .embed import copy_sets_through` are traced too.  Aggregates are
kept per (phase, span, parent span): calls, total time and self time, where
self time is the span's duration minus the time its child spans cover.  A
generator result is timed across its iteration, so a lazy result cannot hide
its cost; a list result counts the items its caller pulls.  Root spans are
the benchmark's own: "setup", and one "instance" span per timed instance,
which also carries the instance id.  Everything stays in memory until
`dump` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from collections import defaultdict

LAYERS: dict[str, list[str]] = {
    "graphs": ["induced_subgraph"],
    "embed": ["copy_sets_through", "cliques_of_size", "find_embedding", "embeddings"],
    "factor": ["find_factor_exact", "greedy_max_tiling"],
    "invariants": ["alpha_ell", "traversing_check"],
    "matching": ["max_bipartite_matching"],
    "absorbing": [
        "build_absorbing_set",
        "disjoint_absorber_family_direct",
        "disjoint_absorber_family_clique",
        "disjoint_absorber_family_general",
        "absorb",
        "build_template",
    ],
    "pipeline": ["find_factor_absorbing", "check_hypotheses"],
    "sweep": ["run_trial"],
    "verify": ["verify_tiling"],
    "generators": [
        "gen_gnp",
        "gen_complete_multipartite",
        "gen_two_cliques",
        "gen_gamma",
        "gen_lower_bound_construction",
        "gen_hs_tripartite",
    ],
}

# stats beyond calls and self_s
EXTRA_STATS: dict[str, list[str]] = {
    "embed.copy_sets_through": ["items_built", "items_used", "used_ratio"],
    "factor.find_factor_exact": ["nodes", "budget_ratio"],
    "invariants.alpha_ell": ["nodes", "exact_ratio"],
    "absorbing.disjoint_absorber_family_direct": ["yield_ratio"],
    "absorbing.disjoint_absorber_family_clique": ["yield_ratio"],
    "absorbing.disjoint_absorber_family_general": ["yield_ratio"],
}

COPY_SETS = "embed.copy_sets_through"


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for module, funcs in LAYERS.items():
        for fn in funcs:
            span = f"{module}.{fn}"
            out.append((f"{span}.calls", "count"))
            out.append((f"{span}.self_s", "s"))
            for stat in EXTRA_STATS.get(span, []):
                out.append((f"{span}.{stat}", "ratio" if stat.endswith("_ratio") else "count"))
    return out


class _CountingList(list):
    """A list result that counts the items its caller pulls."""

    def __iter__(self):
        counts = self.counts
        for item in list.__iter__(self):
            counts["items_used"] += 1
            counts["list_items"] += 1
            yield item


class Tracer:
    def __init__(self):
        # each frame: [span name, time covered by child spans]
        self.stack: list[list] = [["<none>", 0.0]]
        self.phase = "setup"
        # (phase, span, parent) -> [calls, total_s, self_s]
        self.agg: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (phase, span) -> stat -> count
        self.counts: dict[tuple[str, str], dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.instances: list[dict] = []
        self.bindings = 0
        # phase -> calls plus generator resumes
        self.segments: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    def root(self, phase: str, instance_id: int | None = None) -> "_Root":
        """Root span of one phase: "setup", or "instance" with its id."""
        return _Root(self, phase, instance_id)

    def install(self) -> None:
        """Wrap every function in LAYERS and rebind all its bindings.

        Raises RuntimeError if a function is missing or bound nowhere, so a
        rename cannot silently drop a layer from the trace.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "tilinglab" or name.startswith("tilinglab.")) and m is not None]
        for module_name, funcs in LAYERS.items():
            home = importlib.import_module(f"tilinglab.{module_name}")
            for fn_name in funcs:
                span = f"{module_name}.{fn_name}"
                fn = getattr(home, fn_name, None)
                if not callable(fn):
                    raise RuntimeError(f"traced function tilinglab.{span} is missing")
                wrapper = self._wrap(span, fn)
                found = 0
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
                            found += 1
                if found == 0:
                    raise RuntimeError(f"traced function tilinglab.{span} has no module-level binding")
                self.bindings += found

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, span: str, fn):
        stack, agg, counts = self.stack, self.agg, self.counts
        clock = time.perf_counter
        count_result = _result_counter(span, fn)

        def close_span(parent: str, frame: list, t0: float) -> None:
            dt = clock() - t0
            self.segments[self.phase] += 1
            stack.pop()
            stack[-1][1] += dt
            a = agg[(self.phase, span, parent)]
            a[1] += dt
            a[2] += dt - frame[1]

        def traced_iter(parent: str, gen, c: dict):
            try:
                while True:
                    frame = [span, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(parent, frame, t0)
                    if span == COPY_SETS:
                        c["items_built"] += 1
                        c["items_used"] += 1
                    yield item
            finally:
                gen.close()

        def wrapper(*args, **kwargs):
            parent = stack[-1][0]
            frame = [span, 0.0]
            stack.append(frame)
            c = counts[(self.phase, span)]
            agg[(self.phase, span, parent)][0] += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(parent, frame, t0)
                if count_result is not None:
                    count_result(c, args, kwargs, result)
            if isinstance(result, types.GeneratorType):
                return traced_iter(parent, result, c)
            if span == COPY_SETS and type(result) is list:
                c["items_built"] += len(result)
                c["list_calls"] += 1
                result = _CountingList(result)
                result.counts = c
            return result

        return functools.update_wrapper(wrapper, fn)

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric, over both phases."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        stats: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for (_phase, span, _parent), (n, _total, own) in self.agg.items():
            calls[span] += n
            self_s[span] += own
        for (_phase, span), c in self.counts.items():
            for k, v in c.items():
                stats[span][k] += v
        out: dict[str, float] = {}
        for name, _unit in metric_names():
            span, stat = name.rsplit(".", 1)
            c = stats[span]
            if stat == "calls":
                out[name] = calls[span]
            elif stat == "self_s":
                out[name] = self_s[span]
            elif stat == "used_ratio":
                out[name] = _ratio(c["items_used"], c["items_built"])
            elif stat == "budget_ratio":
                out[name] = _ratio(c["budget_calls"], calls[span])
            elif stat == "exact_ratio":
                out[name] = _ratio(c["exact_calls"], calls[span])
            elif stat == "yield_ratio":
                out[name] = _ratio(c["returned"], c["target"])
            else:
                out[name] = c[stat]
        return out

    def self_time(self, phase: str) -> dict[str, float]:
        """Self time of every span in one phase, the root span included."""
        out: dict[str, float] = defaultdict(float)
        for (ph, span, _parent), (_n, _total, own) in self.agg.items():
            if ph == phase:
                out[span] += own
        return dict(out)

    def overhead_estimate(self, phase: str, cost: dict[str, float]) -> float:
        """Seconds the wrappers added to one phase: calls, calls returning a
        counted list, generator resumes and list items pulled, each at its
        calibrated cost."""
        calls = sum(a[0] for (ph, span, _parent), a in self.agg.items() if ph == phase and span != phase)
        lists = defaultdict(int)
        for (ph, _span), c in self.counts.items():
            if ph == phase:
                lists["calls"] += c["list_calls"]
                lists["items"] += c["list_items"]
        return ((calls - lists["calls"]) * cost["call"] + lists["calls"] * cost["list_call"]
                + (self.segments[phase] - calls) * cost["resume"] + lists["items"] * cost["list_item"])

    def dump(self) -> dict:
        return {
            "bindings": self.bindings,
            "spans": [
                {"phase": ph, "span": span, "parent": parent,
                 "calls": n, "total_s": total, "self_s": own}
                for (ph, span, parent), (n, total, own) in sorted(self.agg.items())
            ],
            "counts": [
                {"phase": ph, "span": span, **c}
                for (ph, span), c in sorted(self.counts.items()) if c
            ],
            "instances": self.instances,
        }


class _Root:
    def __init__(self, tracer: Tracer, phase: str, instance_id: int | None):
        self.tracer, self.phase, self.instance_id = tracer, phase, instance_id

    def __enter__(self) -> None:
        t = self.tracer
        t.phase = self.phase
        self.frame = [self.phase, 0.0]
        t.stack.append(self.frame)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc) -> bool:
        t = self.tracer
        dt = time.perf_counter() - self.t0
        t.stack.pop()
        own = dt - self.frame[1]
        a = t.agg[(self.phase, self.phase, "<none>")]
        a[0] += 1
        a[1] += dt
        a[2] += own
        if self.instance_id is not None:
            t.instances.append({"id": self.instance_id, "total_s": dt, "self_s": own})
        return False


def _ratio(a: int, b: int) -> float:
    return a / b if b else 0.0


def _result_counter(span: str, fn):
    """Callback recording the deterministic counts of one call's result."""
    if span == "factor.find_factor_exact":
        def count(c, args, kwargs, result):
            if result is not None:
                c["nodes"] += result.nodes
                c["budget_calls"] += result.status == "budget"
        return count
    if span == "invariants.alpha_ell":
        def count(c, args, kwargs, result):
            if result is not None:
                c["nodes"] += result.nodes
                c["exact_calls"] += bool(result.exact)
        return count
    if span.startswith("absorbing.disjoint_absorber_family_"):
        sig = inspect.signature(fn)

        def count(c, args, kwargs, result):
            c["target"] += sig.bind(*args, **kwargs).arguments["target"]
            c["returned"] += len(result) if result is not None else 0
        return count
    return None


def calibrate(n: int = 20000) -> dict[str, float]:
    """Seconds the wrappers add per call, per call returning a counted list,
    per generator resume and per list item pulled, measured on trivial
    functions (best of five rounds)."""

    def noop():
        return None

    def gen():
        yield from range(n)

    def listed():
        return list(range(n))

    def short_list():
        return [0, 1, 2]

    def call_n(f):
        return [f() for _ in range(n)]

    def drain(f):
        return [None for _ in f()]

    def drain_n(f):
        return [[None for _ in f()] for _ in range(n)]

    def extra(traced, plain, run) -> float:
        def best(f) -> float:
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                run(f)
                times.append(time.perf_counter() - t0)
            return min(times)

        return max(0.0, best(traced) - best(plain)) / n

    t = Tracer()
    t.phase = "calibration"
    item = extra(t._wrap(COPY_SETS, listed), listed, drain)
    return {
        "call": extra(t._wrap("calibration.noop", noop), noop, call_n),
        "resume": extra(t._wrap("calibration.gen", gen), gen, drain),
        "list_call": max(0.0, extra(t._wrap(COPY_SETS, short_list), short_list, drain_n) - 3 * item),
        "list_item": item,
    }
