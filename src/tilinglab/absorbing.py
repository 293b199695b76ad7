"""Absorbing machinery: absorbers, robust templates, absorbing sets.

An absorber for an h-set S is a set A_S of h*t vertices, disjoint from S,
such that both G[A_S] and G[A_S + S] have perfect tilings.  Given enough
pairwise-disjoint absorbers for every S, an absorbing set A can be built so
that G[A + R] has a perfect tiling for every small remainder R respecting
divisibility.  The flexibility comes from a robust bipartite template: a
bounded-degree graph on (flex + core, slots) such that every m-subset of the
flex side, together with the core side, has a perfect matching onto slots.

Desk-scale runs use override constants (flagged in AbsorberConfig); the
structural identity remainder_frac = surplus_ratio/(h-1), which the
divisibility bookkeeping depends on, holds in every configuration because
remainder_frac is derived rather than set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from itertools import chain, islice, permutations
from typing import Iterable, Iterator

from .embed import cliques_of_size, copy_sets_through, embed_in_set, find_embedding, traversing_copy
from .factor import Tiling, find_factor_exact, greedy_max_tiling
from .graphs import Graph, Pattern, induced_subgraph, members, vertex_mask
from .matching import max_bipartite_matching
from .rng import derive_seed, rng_for
from .verify import VerificationError, check_template, template_check_mode, verify_absorber, verify_tiling


class StageFailure(RuntimeError):
    """A greedy stage ran out of candidates; carries the stage name."""

    def __init__(self, stage: str, detail: str = "", blocking: tuple | None = None):
        self.stage = stage
        self.detail = detail
        self.blocking = blocking
        msg = f"stage '{stage}' failed"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class TemplateBuildError(RuntimeError):
    """Template verification kept failing; carries a falsifying subset."""

    def __init__(self, msg: str, falsifying: tuple[int, ...] | None = None):
        self.falsifying = falsifying
        super().__init__(msg)


class CertificateBugError(RuntimeError):
    """A property certified at build time failed at use time."""


# ---------------------------------------------------------------------------
# configuration

# most samples of a random-regular template, of the buffer and of the partition
TEMPLATE_RETRIES = 20
SAMPLE_RETRIES = 50
PARTITION_RETRIES = 20


def _asymptotic_bindings(h: int, t: int, absorber_frac: float) -> tuple[float, float]:
    """(sample_prob, surplus_ratio) as the theory binds them."""
    q = absorber_frac / (500 * h * t)
    return q, q ** (h - 1) * absorber_frac / 4


@dataclass(frozen=True)
class AbsorberConfig:
    """Constants driving absorber construction.

    The asymptotic bindings are sample_prob = absorber_frac/(500*h*t) and
    surplus_ratio = sample_prob**(h-1)*absorber_frac/4, all in (0,1).
    Desk-scale configurations override both (overrides=True).  The
    absorbable remainder fraction remainder_frac = surplus_ratio/(h-1), on
    which the divisibility bookkeeping depends, is derived, so it holds in
    every configuration.  This class is the only place that lists the
    fields; the loaders and the codec read them from `fields()`.
    """

    h: int
    t: int
    absorber_frac: float      # required disjoint-absorber family density per core set
    sample_prob: float        # buffer sampling probability
    surplus_ratio: float      # buffer surplus per template round: |buffer| = (1+ratio)*m
    degree_frac: float = 0.1       # minimum-degree fraction for hypothesis checks
    threshold_frac: float = 0.2    # clique-free / traversing threshold fraction
    overrides: bool = False
    pool_size: int | None = None         # neighbor-pool size per core vertex
    part_degree_min: int | None = None   # per-class degree floor for the partition build
    common_nbhd_min: int | None = None   # common-neighborhood floor for clique descent
    m_cap: int | None = None             # cap on the template round size

    def __post_init__(self):
        # fields arrive from JSON, so every type and range is checked here
        for f in fields(self):
            x = getattr(self, f.name)
            is_int = isinstance(x, int) and not isinstance(x, bool)
            if f.type == "bool":
                ok = isinstance(x, bool)
            elif f.type == "float":
                ok = (is_int or isinstance(x, float)) and math.isfinite(x)
            else:  # "int" or "int | None", never negative
                ok = (is_int and x >= 0) or (x is None and f.type == "int | None")
            if not ok:
                raise ValueError(f"AbsorberConfig.{f.name} must be a non-negative "
                                 f"{f.type}, not {x!r}")
        for name in ("absorber_frac", "sample_prob", "degree_frac", "threshold_frac"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"AbsorberConfig.{name} must lie in [0, 1]")
        if self.surplus_ratio <= 0:
            raise ValueError("AbsorberConfig.surplus_ratio must be positive")
        for name, low in dict(h=2, t=1).items():
            if getattr(self, name) < low:
                raise ValueError(f"AbsorberConfig.{name} must be at least {low}")
        if not self.overrides:
            q, b = _asymptotic_bindings(self.h, self.t, self.absorber_frac)
            if not (math.isclose(self.sample_prob, q, rel_tol=1e-9)
                    and math.isclose(self.surplus_ratio, b, rel_tol=1e-9)):
                raise ValueError("non-override config must use the asymptotic bindings")
            for x in (self.absorber_frac, self.sample_prob, self.surplus_ratio):
                if not 0 < x < 1:
                    raise ValueError("asymptotic constants must lie in (0, 1)")

    @property
    def remainder_frac(self) -> float:
        """Absorbable remainder fraction, surplus_ratio/(h-1)."""
        return self.surplus_ratio / (self.h - 1)

    @classmethod
    def asymptotic(cls, h: int, t: int, absorber_frac: float, **kw) -> "AbsorberConfig":
        q, b = _asymptotic_bindings(h, t, absorber_frac)
        return cls(h=h, t=t, absorber_frac=absorber_frac, sample_prob=q,
                   surplus_ratio=b, overrides=False, **kw)

    @classmethod
    def desk_scale(
        cls,
        h: int,
        t: int = 1,
        absorber_frac: float = 0.05,
        sample_prob: float = 0.08,
        surplus_ratio: float = 6.0,
        **kw,
    ) -> "AbsorberConfig":
        """Override constants; `kw` sets any further field except overrides."""
        return cls(h=h, t=t, absorber_frac=absorber_frac, sample_prob=sample_prob,
                   surplus_ratio=surplus_ratio, overrides=True, **kw)

    @classmethod
    def from_overrides(cls, h: int, obj) -> "AbsorberConfig":
        """The desk_scale config for pattern size h with the fields set in
        `obj`, the JSON object given to `--config` or as a sweep spec's
        `config`.  `obj` may set any field except h, which the pattern
        fixes, and overrides; anything else raises a ValueError naming it."""
        if not isinstance(obj, dict):
            raise ValueError(f"--config must be a JSON object, not {type(obj).__name__}")
        fixed = obj.keys() & {"h", "overrides"}
        if fixed:
            raise ValueError(f"config may not set {', '.join(sorted(fixed))}: the pattern "
                             "fixes h, and overrides is always true here")
        unknown = obj.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown AbsorberConfig key(s): {', '.join(sorted(unknown))}")
        return cls.desk_scale(h=h, **obj)


# ---------------------------------------------------------------------------
# robust template


@dataclass(frozen=True)
class TemplateGraph:
    """Bipartite template on (flex + core, slots) with the robust property:
    for every m-subset F of the flex side, (F + core, slots) has a perfect
    matching.  Sizes: flex = m + surplus, core = 2m, slots = 3m; maximum
    degree at most 40.
    """

    m: int
    mode: str
    left_adj: tuple[tuple[int, ...], ...]
    verification: dict = field(hash=False)

    @property
    def surplus(self) -> int:
        return self.left_size - 3 * self.m

    @property
    def flex_size(self) -> int:
        return self.m + self.surplus

    @property
    def core_size(self) -> int:
        return 2 * self.m

    @property
    def slot_count(self) -> int:
        return 3 * self.m

    @property
    def left_size(self) -> int:
        return len(self.left_adj)

    @property
    def max_degree(self) -> int:
        right_deg = [0] * self.slot_count
        best = 0
        for nbrs in self.left_adj:
            best = max(best, len(nbrs))
            for r in nbrs:
                right_deg[r] += 1
        return max(best, max(right_deg, default=0))

    def edges(self) -> list[tuple[int, int]]:
        return [(l, r) for l in range(self.left_size) for r in self.left_adj[l]]

    def slot_matching(self, flex_subset: Iterable[int]) -> dict[int, int] | None:
        """Perfect matching of (flex_subset + core) onto the slots, as
        {left index: slot}, or None when there is none."""
        chosen = sorted(set(flex_subset))
        if len(chosen) != self.m or any(not 0 <= i < self.flex_size for i in chosen):
            raise ValueError("flex subset must pick exactly m flex indices")
        left = chosen + list(range(self.flex_size, self.left_size))
        adj = [list(self.left_adj[l]) for l in left]
        size, pair_l, _ = max_bipartite_matching(len(left), self.slot_count, adj)
        return dict(zip(left, pair_l)) if size == self.slot_count else None


def _surplus_of(m: int, beta: float) -> int:
    return math.ceil(beta * m)


# left degree of a random-regular template
TEMPLATE_DEGREE = 12


def build_template(
    m: int,
    beta: float,
    mode: str = "complete-bipartite",
    verify: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
    retries: int = TEMPLATE_RETRIES,
) -> TemplateGraph:
    """Build a robust template at round size m and surplus ceil(beta*m).

    complete-bipartite mode joins every left vertex to every slot; the robust
    property is then immediate from Hall's condition, and the degree-40 bound
    requires 3m + ceil(beta*m) <= 40.  random-regular mode samples a
    configuration-style pairing with all degrees in [8, 40] and certifies the
    property by matching checks (exhaustive, or `trials` sampled subsets when
    verify="sampled"), resampling on failure up to `retries` times.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    left = 3 * m + _surplus_of(m, beta)
    slots = 3 * m

    if mode == "complete-bipartite":
        if left > 40:
            raise ValueError(
                f"complete-bipartite mode needs 3m + ceil(beta*m) <= 40, got {left}"
            )
        adj = tuple(tuple(range(slots)) for _ in range(left))
        tpl = TemplateGraph(m=m, mode=mode, left_adj=adj, verification={})
        record, bad = check_template(tpl, verify, trials, seed, "template-verify")
        if bad is not None:
            raise TemplateBuildError("flex subset without perfect matching", falsifying=bad)
        return replace(tpl, verification=record)

    if mode == "random-regular":
        for attempt in range(retries):
            rng = rng_for(seed, "template", attempt)
            total = TEMPLATE_DEGREE * left
            right_stubs: list[int] = []
            base, extra = divmod(total, slots)
            for r in range(slots):
                right_stubs.extend([r] * (base + (1 if r < extra else 0)))
            rng.shuffle(right_stubs)
            adj_sets: list[set[int]] = [set() for _ in range(left)]
            idx = 0
            for l in range(left):
                for _ in range(TEMPLATE_DEGREE):
                    adj_sets[l].add(right_stubs[idx])
                    idx += 1
            left_deg = [len(s) for s in adj_sets]
            right_deg = [0] * slots
            for s in adj_sets:
                for r in s:
                    right_deg[r] += 1
            degs = left_deg + right_deg
            if min(degs) < 8 or max(degs) > 40:
                continue
            adj = tuple(tuple(sorted(s)) for s in adj_sets)
            tpl = TemplateGraph(m=m, mode=mode, left_adj=adj, verification={})
            record, bad = check_template(tpl, verify, trials,
                                         derive_seed(seed, "verify", attempt), "template-verify")
            if bad is None:
                return replace(tpl, verification=record)
        raise TemplateBuildError(
            f"no verified template after {retries} samples (m={m}, beta={beta})"
        )

    raise ValueError(f"unknown template mode: {mode}")


# ---------------------------------------------------------------------------
# absorbers


def _copies_by_min_vertex(g: Graph, p: Pattern, pool: int) -> Iterator[Iterator[tuple[int, ...]]]:
    """Per vertex of the mask `pool` in increasing order, the lazy stream of
    the sorted images of copies inside `pool` whose minimum vertex it is.
    Chained together, the streams list every copy in lex order."""
    while pool:  # v runs up through pool, which keeps v and the vertices above it
        low = pool & -pool
        v = low.bit_length() - 1
        yield (img for img, _emb in copy_sets_through(g, p, v, pool))
        pool ^= low


# the direct search tries at most DIRECT_ATTEMPTS candidates per absorber,
# DIRECT_PER_ANCHOR per anchor vertex, each under DIRECT_BUDGET exact-search nodes
DIRECT_ATTEMPTS = 64
DIRECT_PER_ANCHOR = 6
DIRECT_BUDGET = 200_000


def disjoint_absorber_family_direct(
    g: Graph,
    p: Pattern,
    core: Iterable[int],
    t: int,
    target: int,
    forbidden: Iterable[int] = (),
) -> list[frozenset[int]]:
    """Up to `target` pairwise-disjoint absorbers for `core`, found by
    direct exact search; fewer when the search runs out.

    Each absorber is assembled as t disjoint pattern copies (so its own
    tiling is immediate) and kept only if the exact oracle tiles the union
    with the core set as well.  Candidates are scanned in lexicographic
    order, so the family is deterministic.
    """
    core_t = tuple(sorted(set(core)))
    h = p.h
    if len(core_t) != h:
        raise ValueError(f"core set must have exactly {h} vertices")
    used: set[int] = set(core_t) | set(forbidden)
    out: list[frozenset[int]] = []
    while len(out) < target:
        found = _direct_absorber(g, p, core_t, t, frozenset(used))
        if found is None:
            break
        out.append(found)
        used |= found
    return out


def _direct_absorber(
    g: Graph,
    p: Pattern,
    core_t: tuple[int, ...],
    t: int,
    used: frozenset[int],
) -> frozenset[int] | None:
    """First candidate (t disjoint copies) whose union tiles together with
    the core.  Candidates rotate through anchor vertices so one anchor that
    is incompatible with the core cannot exhaust the attempt budget."""
    allowed = ((1 << g.n) - 1) & ~vertex_mask(used)
    attempts = 0
    for copies in _copies_by_min_vertex(g, p, allowed):
        for img in islice(copies, DIRECT_PER_ANCHOR):
            cand = set(img)
            for _ in range(t - 1):
                rest = allowed & ~vertex_mask(cand)
                nxt = next(chain.from_iterable(_copies_by_min_vertex(g, p, rest)), None)
                if nxt is None:
                    return None
                cand.update(nxt)
            sub, _ = induced_subgraph(g, cand | set(core_t))
            if find_factor_exact(sub, p, budget=DIRECT_BUDGET).found:
                return frozenset(cand)
            attempts += 1
            if attempts >= DIRECT_ATTEMPTS:
                return None
    return None


def disjoint_absorber_family_general(
    g: Graph,
    p: Pattern,
    core: Iterable[int],
    target: int,
    config: AbsorberConfig,
    seed: int = 0,
    forbidden: Iterable[int] = (),
) -> list[frozenset[int]]:
    """Absorber family via disjoint neighbor pools and traversing copies.

    For each core vertex w, a pool inside N(w) is reserved and greedily
    tiled; one designated vertex per copy goes into w's mark set.  Every
    copy traversing all mark sets, combined with the designated copies it
    hits, is one absorber of h*h vertices.  Extraction repeats until the
    target is met or the traversing search is exhausted; the result is
    empty when some core vertex lacks a full pool.
    """
    h = p.h
    core_t = tuple(sorted(set(core)))
    if len(core_t) != h:
        raise ValueError(f"core set must have exactly {h} vertices")
    n = g.n
    pool_size = config.pool_size or max(h, math.ceil(config.degree_frac * n / (2 * h)))
    blocked: set[int] = set(core_t) | set(forbidden)
    pools: dict[int, list[int]] = {}
    for w in core_t:
        avail = [u for u in g.neighbors(w) if u not in blocked]
        if len(avail) < pool_size:
            return []
        pools[w] = avail[:pool_size]
        blocked.update(pools[w])

    designated: dict[int, dict[int, frozenset[int]]] = {}
    for i, w in enumerate(core_t):
        outside = set(range(n)) - set(pools[w])
        tiling = greedy_max_tiling(g, p, forbidden=outside, seed=derive_seed(seed, "pool", i))
        designated[w] = {min(emb): frozenset(emb) for emb in tiling.copies}

    marks = {w: sorted(designated[w]) for w in core_t}
    absorbers: list[frozenset[int]] = []
    while len(absorbers) < target:
        trav = traversing_copy(g, p, [marks[w] for w in core_t])
        if trav is None:
            break
        absorber: set[int] = set()
        for w in core_t:
            hit = next(v for v in trav if v in designated[w])
            absorber |= designated[w][hit]
            marks[w].remove(hit)
            del designated[w][hit]
        try:
            verify_absorber(g, p, core_t, absorber, h)
        except VerificationError as exc:
            raise StageFailure(
                "verify", f"constructed absorber failed re-verification: {exc}",
                blocking=core_t,
            ) from exc
        absorbers.append(frozenset(absorber))
    return absorbers


def disjoint_absorber_family_clique(
    g: Graph,
    r: int,
    ell: int,
    core: Iterable[int],
    target: int,
    config: AbsorberConfig,
    seed: int = 0,
    forbidden: Iterable[int] = (),
) -> list[frozenset[int]]:
    """Absorber family for complete patterns via a random vertex partition.

    The vertex set (minus core and forbidden) is split into r+1 seeded
    random classes.  Each absorber is one clique on r vertices found in the
    last class by common-neighborhood descent (greedy clique of size r-ell,
    then a clique on ell vertices inside the common neighborhood), plus for
    each i a clique on r-1 vertices inside N(core_i) & N(w_i) & class_i.
    Used vertices are tracked per class; up to PARTITION_RETRIES partitions
    are drawn, a new one when the degree-into-class floor fails or candidates
    run out, and the absorbers collected over all of them are returned.
    """
    p = Pattern.clique(r)
    core_t = tuple(sorted(set(core)))
    if len(core_t) != r:
        raise ValueError(f"core set must have exactly {r} vertices")
    n = g.n
    frac = (r - ell) / (r - ell + 1)
    part_min = config.part_degree_min
    if part_min is None:
        part_min = math.ceil((frac + config.degree_frac / 2) * n / (r + 1))
    cn_min = config.common_nbhd_min
    if cn_min is None:
        cn_min = math.ceil(config.degree_frac * n / (4 * (r + 1)))

    collected: list[frozenset[int]] = []
    out_of_play: set[int] = set(core_t) | set(forbidden)
    for attempt in range(PARTITION_RETRIES):
        rest = [v for v in range(n) if v not in out_of_play]
        rng = rng_for(seed, "partition", attempt)
        rng.shuffle(rest)
        k, extra = divmod(len(rest), r + 1)
        classes: list[int] = []
        pos = 0
        for i in range(r + 1):
            size = k + (1 if i < extra else 0)
            classes.append(vertex_mask(rest[pos : pos + size]))
            pos += size
        if not all(classes):
            continue
        if not _partition_degrees_ok(g, classes, part_min):
            continue
        used = [0] * (r + 1)
        while len(collected) < target:
            got = _build_partition_absorber(g, r, ell, core_t, classes, used, cn_min)
            if got is None:
                break
            collected.append(got)
            out_of_play |= got
        if len(collected) >= target:
            break
    return collected


def _partition_degrees_ok(g: Graph, classes: list[int], part_min: int) -> bool:
    """Does every vertex have at least part_min neighbours in each class mask?"""
    return all((nb & cls).bit_count() >= part_min for nb in g.bits for cls in classes)


def _clique_by_descent(
    g: Graph,
    size: int,
    ell: int,
    avail: int,
    cn_min: int,
) -> tuple[int, ...] | None:
    """Clique on `size` vertices in the mask `avail`: greedy descent to
    size-ell, then a clique on ell vertices inside the common neighborhood."""
    if size <= 0:
        return ()
    if size <= ell:
        return next(cliques_of_size(g, size, avail), None)
    bits = g.bits
    for start in members(avail):
        base = [start]
        common = avail & bits[start]
        ok = True
        while len(base) < size - ell:
            if common.bit_count() < max(cn_min, 1):
                ok = False
                break
            low = common & -common
            base.append(low.bit_length() - 1)
            common &= bits[base[-1]]
        if not ok:
            continue
        if common.bit_count() < cn_min:
            continue
        for cl in cliques_of_size(g, ell, common):
            return tuple(sorted(base + list(cl)))
    return None


# top cliques a partition absorber search tries before giving up
PARTITION_CLIQUE_CANDIDATES = 50


def _build_partition_absorber(
    g: Graph,
    r: int,
    ell: int,
    core_t: tuple[int, ...],
    classes: list[int],
    used: list[int],
    cn_min: int,
) -> frozenset[int] | None:
    """Absorber for core_t from the class masks, none of it in the mask
    used[i] of its class i; on success the absorber's vertices join `used`."""
    p = Pattern.clique(r)
    bits = g.bits
    seen: list[tuple[int, ...]] = []
    pool = classes[r] & ~used[r]
    while len(seen) < PARTITION_CLIQUE_CANDIDATES:
        top = _clique_by_descent(g, r, ell, pool, cn_min)
        if top is None:
            return None
        seen.append(top)
        for label in permutations(top):
            legs: list[tuple[int, ...]] = []
            taken = 0
            for i in range(r):
                cand = bits[core_t[i]] & bits[label[i]] & classes[i] & ~used[i] & ~taken
                leg = _clique_by_descent(g, r - 1, ell, cand, cn_min)
                if leg is None:
                    break
                legs.append(leg)
                taken |= vertex_mask(leg)
            if len(legs) == r:
                absorber = set(top)
                for leg in legs:
                    absorber |= set(leg)
                try:
                    verify_absorber(g, p, core_t, absorber, r)
                except VerificationError:
                    continue
                used[r] |= vertex_mask(top)
                for i in range(r):
                    used[i] |= vertex_mask(legs[i])
                return frozenset(absorber)
        # exclude this clique's smallest vertex and look for another
        pool &= ~(1 << min(top))
    return None


# ---------------------------------------------------------------------------
# absorber constructions

BUILDERS = ("direct", "general", "clique")


def check_builder(builder: str, p: Pattern, ell: int | None) -> None:
    """Raise ValueError unless `builder` names a construction that can run
    on pattern p: the partition (clique) construction needs K_r with
    r > ell >= 2."""
    if builder not in BUILDERS:
        raise ValueError(f"unknown absorber builder: {builder}")
    if builder == "clique" and not (p.is_clique and ell is not None and p.r > ell >= 2):
        raise ValueError("clique builder needs a clique pattern K_r and r > ell >= 2")


# ---------------------------------------------------------------------------
# absorbing structure


@dataclass
class AbsorbingStructure:
    """The assembled absorbing set plus all bookkeeping needed to absorb.

    buffer: vertices consumed flexibly by copies so that exactly m survive,
    in increasing order; core: always matched through the template; the
    template's left side is the buffer followed by the core (left_vertex).
    slot_blocks: blocks of h-1 vertices (`slots`, in order), each tiled
    together with one matched buffer/core vertex; edge_absorbers: one absorber per
    template edge, keyed by the edge.  builder names the absorber
    construction that ran; seed records the build seed; size_report derives
    from the rest.  The copies into the buffer that absorption uses depend
    only on the graph and the buffer, so `absorb` finds them itself.
    """

    n: int
    pattern: Pattern
    config: AbsorberConfig
    seed: int
    builder: str
    buffer: tuple[int, ...]
    core: tuple[int, ...]
    slot_blocks: tuple[tuple[int, ...], ...]
    template: TemplateGraph
    edge_absorbers: dict[tuple[int, int], tuple[int, ...]]

    @property
    def slots(self) -> tuple[int, ...]:
        return tuple(v for b in self.slot_blocks for v in b)

    @property
    def absorbing_set(self) -> frozenset[int]:
        out = set(self.buffer) | set(self.core) | set(self.slots)
        for a in self.edge_absorbers.values():
            out.update(a)
        return frozenset(out)

    @property
    def size_report(self) -> dict:
        """Part sizes, |A|, and the paper's size bounds at these constants."""
        n, m, c = self.n, self.template.m, self.config
        total = len(self.absorbing_set)
        ht = self.pattern.h * c.t
        bound_total = 124 * ht * m
        bound_sample = 240 * ht * n * c.sample_prob
        bound_target = c.absorber_frac * n / 2
        return {
            "n": n,
            "m": m,
            "surplus": self.template.surplus,
            "buffer": len(self.buffer),
            "core": len(self.core),
            "slots": len(self.slots),
            "edge_absorber_vertices": sum(len(a) for a in self.edge_absorbers.values()),
            "template_edges": len(self.edge_absorbers),
            "total": total,
            "bound_total": bound_total,
            "bound_sample": bound_sample,
            "bound_target": bound_target,
            "bound_chain_holds": total < bound_total < bound_sample <= bound_target,
            "within_absorber_frac": total <= c.absorber_frac * n,
            "uses_overrides": c.overrides,
            "builder": self.builder,
        }

    @property
    def max_remainder(self) -> int:
        """Largest remainder size absorbable by this structure."""
        h = self.pattern.h
        by_surplus = self.template.surplus // (h - 1)
        by_frac = math.floor(self.config.remainder_frac * self.n)
        return min(by_surplus, by_frac)

    def valid_remainder_sizes(self) -> list[int]:
        h = self.pattern.h
        a = len(self.absorbing_set)
        return [k for k in range(self.max_remainder + 1) if (a + k) % h == 0]

    def left_vertex(self, l: int) -> int:
        """Graph vertex behind template left index l: the flex side is the
        buffer and the core side follows it."""
        return (self.buffer + self.core)[l]


def build_absorbing_set(
    g: Graph,
    p: Pattern,
    config: AbsorberConfig,
    seed: int = 0,
    builder: str = "direct",
    ell: int | None = None,
) -> AbsorbingStructure:
    """Assemble an absorbing structure.

    Every absorber comes from `builder` ('general': traversing copies;
    'clique': random partition, with ell) when config.t equals h, the
    multiplicity both build, and from the direct search otherwise; the
    structure's `builder` names the one that ran.  The paper's hypotheses
    are checked by pipeline.check_hypotheses, not here.

    Stages: (1) check that every vertex v lies in gamma =
    max(1, ceil(absorber_frac*n)) copies that share only v, taken greedily
    (each copy's other vertices leave the search); (2) sample the buffer
    with probability sample_prob, at most SAMPLE_RETRIES times, until the
    sample is small enough and every vertex has q^(h-1)*gamma/2 copies
    into the buffer: an integer count reaches that exactly when it reaches
    its ceiling, so each count stops there, the first short vertex rejects
    the sample, and no copy is kept; (3) build the template at the implied
    round size; (4) reserve core and slot vertices; (5) map template sides
    onto them; (6) pick pairwise-disjoint absorbers for every template
    edge, the only stage that runs the builder; (7) assemble.  Any stage
    that exhausts its candidates raises StageFailure naming the stage and
    the blocking vertices.
    """
    h = p.h
    if config.h != h:
        raise ValueError("config.h must match the pattern size")
    check_builder(builder, p, ell)
    n = g.n
    kind = builder if config.t == h else "direct"
    family_seed = derive_seed(seed, "families")

    def absorber_for(core: tuple[int, ...], forbidden: frozenset[int]) -> frozenset[int] | None:
        core_seed = derive_seed(family_seed, "fam", *core)
        if kind == "direct":
            got = disjoint_absorber_family_direct(g, p, core, config.t, 1, forbidden)
        elif kind == "general":
            got = disjoint_absorber_family_general(g, p, core, 1, config,
                                                   seed=core_seed, forbidden=forbidden)
        else:
            got = disjoint_absorber_family_clique(g, p.r, ell, core, 1, config,
                                                  seed=core_seed, forbidden=forbidden)
        return got[0] if got else None

    # stage 1: gamma copies through each vertex, sharing only that vertex
    gamma = max(1, math.ceil(config.absorber_frac * n))
    for v in range(n):
        allowed = (1 << n) - 1
        for found in range(gamma):
            emb = find_embedding(g, p, allowed, anchor=v)
            if emb is None:
                raise StageFailure("copy-families",
                                   f"vertex {v}: {found} disjoint copies, need {gamma}",
                                   blocking=(v,))
            allowed ^= vertex_mask(emb) ^ 1 << v

    # stage 2: buffer sampling with the concentration event checked directly
    q = config.sample_prob
    beta = config.surplus_ratio
    for attempt in range(SAMPLE_RETRIES):
        rng = rng_for(seed, "buffer", attempt)
        raw = [v for v in range(n) if rng.random() < q]
        if len(raw) > math.ceil(2 * n * q):
            continue
        mm = 0
        while (mm + 1) + _surplus_of(mm + 1, beta) <= len(raw):
            mm += 1
        if config.m_cap is not None:
            mm = min(mm, config.m_cap)
        if mm < 1:
            continue
        cand = raw[: mm + _surplus_of(mm, beta)]
        if _every_vertex_reaches(g, p, vertex_mask(cand), math.ceil(q ** (h - 1) * gamma / 2)):
            buffer, m = cand, mm
            break
    else:
        raise StageFailure("buffer-sample", f"no acceptable buffer in {SAMPLE_RETRIES} samples")
    surplus = _surplus_of(m, beta)

    # stage 3: template
    left = 3 * m + surplus
    mode = "complete-bipartite" if left <= 40 else "random-regular"
    template = build_template(m, beta, mode=mode, verify=template_check_mode(m + surplus, m),
                              seed=derive_seed(seed, "template"))

    # stages 4-5: core and slot vertices, in index order.  Slot blocks are
    # (h-1)-cliques so that every block plus a matched vertex can host a
    # copy; with multiplicity-1 edge absorbers an edgeless block would make
    # some template edges impossible to absorb.
    buffer_set = set(buffer)
    outside = [v for v in range(n) if v not in buffer_set]
    need = 2 * m + 3 * m * (h - 1)
    if len(outside) < need:
        raise StageFailure("core-slots", f"need {need} vertices outside the buffer")
    core = tuple(outside[: 2 * m])
    block_pool = vertex_mask(outside[2 * m :])
    blocks: list[tuple[int, ...]] = []
    for _ in range(3 * m):
        found = next(cliques_of_size(g, h - 1, block_pool), None)
        if found is None:
            raise StageFailure(
                "core-slots", f"no clique on {h - 1} vertices left for a slot block"
            )
        blocks.append(found)
        block_pool &= ~vertex_mask(found)
    slot_blocks = tuple(blocks)

    # stage 6: one absorber per template edge, pairwise disjoint
    used_set = set(buffer) | set(core) | set().union(*slot_blocks)
    edge_absorbers: dict[tuple[int, int], tuple[int, ...]] = {}
    left_side = tuple(buffer) + core
    for l, rgt in template.edges():
        core_e = tuple(sorted({left_side[l]} | set(slot_blocks[rgt])))
        got = absorber_for(core_e, frozenset(used_set))
        if got is None:
            raise StageFailure(
                "edge-absorbers",
                f"no absorber for template edge ({l},{rgt})",
                blocking=core_e,
            )
        edge_absorbers[(l, rgt)] = tuple(sorted(got))
        used_set |= got

    return AbsorbingStructure(
        n=n, pattern=p, config=config, seed=seed, builder=kind,
        buffer=tuple(buffer), core=core, slot_blocks=slot_blocks,
        template=template,
        edge_absorbers=edge_absorbers,
    )


def _every_vertex_reaches(g: Graph, p: Pattern, pool: int, need: int) -> bool:
    """Whether each vertex v lies in `need` copies inside pool + v; counts stop at `need`."""
    return all(sum(1 for _ in islice(copy_sets_through(g, p, v, pool | 1 << v), need)) == need
               for v in range(g.n))


def _families_in_buffer(g: Graph, p: Pattern, buffer: list[int],
                        anchors: Iterable[int]) -> dict[int, tuple]:
    """For every anchor v, all (h-1)-subsets of the buffer that form a
    pattern copy with v (sorted lexicographically): the copies through v
    inside the buffer plus v, with v taken out.  Only `absorb` builds these,
    for the remainder and the buffer; `build_absorbing_set` counts copies."""
    pool = vertex_mask(buffer)
    return {
        v: tuple(tuple(u for u in img if u != v)
                 for img, _emb in copy_sets_through(g, p, v, pool | 1 << v))
        for v in anchors
    }


# ---------------------------------------------------------------------------
# absorption


def absorb(g: Graph, structure: AbsorbingStructure, remainder: Iterable[int]) -> Tiling:
    """Perfect tiling of G[A + R] for a valid remainder R.

    Steps: cover each remainder vertex with a copy into the buffer; cover
    surplus buffer vertices with further copies until exactly m remain;
    match the m survivors plus the core side through the template; tile each
    matched edge's absorber together with its endpoint vertices, and every
    unmatched edge's absorber alone.  The copies into the buffer are read
    off g, for R and the buffer only.  The result is verified before return.
    """
    p = structure.pattern
    h = p.h
    aset = structure.absorbing_set
    rem = sorted(set(remainder))
    for v in rem:
        if not (0 <= v < g.n):
            raise ValueError(f"remainder vertex {v} out of range")
    if set(rem) & aset:
        raise ValueError("remainder intersects the absorbing set")
    if (len(aset) + len(rem)) % h != 0:
        raise ValueError(
            f"pattern size {h} must divide |A| + |R| = {len(aset) + len(rem)}"
        )
    if len(rem) > structure.max_remainder:
        raise ValueError(
            f"remainder size {len(rem)} exceeds the absorbable cap {structure.max_remainder}"
        )

    m = structure.template.m
    buffer = list(structure.buffer)
    families = _families_in_buffer(g, p, buffer, rem + buffer)

    # remainder copies into the buffer, pairwise disjoint
    chosen = _disjoint_copies(rem, families, buffer, len(rem), 0)
    if chosen is None:
        raise StageFailure("absorb-remainder", "no disjoint copy choice for the remainder")
    consumed: set[int] = set()
    for _v, mates in chosen:
        consumed |= set(mates)

    # surplus coverage: copies inside the buffer until exactly m vertices remain
    remaining = [v for v in buffer if v not in consumed]
    need_copies, leftover_check = divmod(len(remaining) - m, h)
    if leftover_check != 0:
        raise CertificateBugError("buffer arithmetic violated divisibility bookkeeping")
    cover = _disjoint_copies(remaining, families, remaining, need_copies, m)
    if cover is None:
        raise StageFailure("absorb-surplus", "no disjoint cover of the buffer surplus")
    covered_by_cover: set[int] = set()
    for anchor, mates in cover:
        covered_by_cover |= {anchor} | set(mates)
    survivors = [v for v in remaining if v not in covered_by_cover]
    if len(survivors) != m:
        raise CertificateBugError(f"buffer cover left {len(survivors)} survivors, expected {m}")

    # template matching of survivors + core onto slots
    tpl = structure.template
    pos = {v: i for i, v in enumerate(structure.buffer)}
    matching = tpl.slot_matching(pos[v] for v in survivors)
    if matching is None:
        raise CertificateBugError(
            "verified template has no perfect matching for this survivor set"
        )

    copies: list[tuple[int, ...]] = []

    def add_copy_on(vertices: Iterable[int]) -> None:
        emb = embed_in_set(g, p, vertices)
        if emb is None:
            raise CertificateBugError("copy family member is not a copy")
        copies.append(emb)

    for anchor, mates in chosen + cover:
        add_copy_on({anchor} | set(mates))

    for l, rgt in tpl.edges():
        a_e = structure.edge_absorbers[(l, rgt)]
        if matching.get(l) == rgt:
            block = set(structure.slot_blocks[rgt]) | {structure.left_vertex(l)}
            target = set(a_e) | block
        else:
            target = set(a_e)
        sub, order = induced_subgraph(g, target)
        res = find_factor_exact(sub, p)
        if not res.found:
            raise CertificateBugError(
                f"absorber for template edge ({l},{rgt}) failed to tile"
            )
        for emb in res.tiling.copies:
            copies.append(tuple(order[i] for i in emb))

    tiling = Tiling(pattern=p, copies=tuple(copies))
    verify_tiling(g, tiling, require_cover=aset | set(rem))
    if len(tiling.covered) != len(aset) + len(rem):
        raise CertificateBugError("absorption covered vertices outside A + R")
    return tiling


def _disjoint_copies(
    anchors: list[int],
    families: dict[int, tuple[tuple[int, ...], ...]],
    pool: Iterable[int],
    need: int,
    spare: int,
) -> list[tuple[int, tuple[int, ...]]] | None:
    """Backtracking choice of `need` pairwise-disjoint copies, each an
    anchor plus one of its family members inside `pool`, as (anchor, member)
    pairs in anchor order, or None.  Anchors are taken in order and may be
    passed over `spare` times in all; a reached anchor leaves the pool, and
    the vertices a copy consumes leave both the pool and the anchors."""
    result: list[tuple[int, tuple[int, ...]]] = []

    def rec(avail: list[int], live: frozenset[int], todo: int, spare: int) -> bool:
        if todo == 0:
            return True
        if not avail:
            return False
        v = avail[0]
        rest = avail[1:]
        live = live - {v}
        for member in families.get(v, ()):
            ms = set(member)
            if ms <= live:
                result.append((v, member))
                if rec([u for u in rest if u not in ms], live - ms, todo - 1, spare):
                    return True
                result.pop()
        if spare > 0:
            return rec(rest, live, todo, spare - 1)
        return False

    found = rec(list(anchors), frozenset(pool), need, spare)
    del rec  # rec refers to itself; dropping the name frees it without the gc
    return result if found else None
