"""End-to-end factor finding: absorbing set, almost-cover, absorption.

A run checks the hypotheses for the chosen construction, builds an absorbing
structure, covers the rest of the graph up to a remainder the structure
promises to absorb, absorbs it, and verifies the merged factor.  The cover
is an exact search for each valid remainder size in turn
(`absorption.cover_and_absorb`).  Any stage failure is recorded in the
report; when the graph is small enough the exact oracle is used as a
fallback so the run still settles existence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .absorbers import check_builder
from .absorbing import AbsorbingStructure, build_absorbing_set
from .absorption import cover_and_absorb
from .config import AbsorberConfig, StageFailure
from .factor import DEFAULT_BUDGET, Tiling, find_factor_exact
from .graphs import Graph, Pattern
from .invariants import alpha_ell, min_degree, traversing_check
from .rng import derive_seed
from .verify import verify_tiling


class StageOutcome(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PipelineReport:
    """Everything one run produced: hypothesis results, stage outcomes,
    the verified tiling (if any), and budgets consumed."""

    mode: str
    n: int
    h: int
    seed: int
    hypothesis_checked: bool = False
    hypothesis_held: bool = False
    hypothesis_detail: str = ""
    stages: list[StageOutcome] = field(default_factory=list)
    leftover: int | None = None
    factor_found: bool = False
    failure_stage: str | None = None
    fallback_used: bool = False
    exact_status: str | None = None
    nodes: int = 0
    millis: float | None = None
    tiling: Tiling | None = None

    def stage_ok(self, name: str) -> bool:
        return any(s.name == name and s.ok for s in self.stages)

    def to_obj(self) -> dict:
        """Every field but `tiling`, which is written as its own
        certificate."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "tiling"}
        out["schema"] = "pipeline-report/v1"
        out["stages"] = [s._asdict() for s in self.stages]
        return out


# families the general-mode hypothesis check samples
HYPOTHESIS_TRIALS = 100
# graphs on at most this many vertices fall back to the exact oracle
FALLBACK_CAP = 30


def check_hypotheses(
    g: Graph,
    p: Pattern,
    mode: str,
    config: AbsorberConfig,
    ell: int = 2,
    seed: int = 0,
) -> tuple[bool, str]:
    """Hypothesis check for the chosen construction; returns (held, detail).
    This is the only check of the paper's hypotheses: the absorber builders
    do not repeat it.

    Clique mode takes K_r with r > ell >= 2 (check_builder raises
    ValueError otherwise) and needs delta(G) >= ((r-ell)/(r-ell+1) + eps) n
    and alpha_ell at most eps' n.  alpha_ell runs under its default node
    budget up to n = 40 and 20,000 nodes beyond; the detail string says
    whether its value is exact or, stopped at the budget, a branch-and-bound
    lower bound.  General mode
    needs delta(G) >= eps n and the traversing property at probe size
    ceil(eps' n), checked on every family when they number at most
    HYPOTHESIS_TRIALS and on that many sampled ones otherwise; the detail
    string says which.  Neither mode's hypotheses hold on the empty graph,
    which has no minimum degree.
    """
    n = g.n
    if mode == "clique":
        check_builder("clique", p, ell)
    elif mode != "general":
        raise ValueError(f"unknown mode: {mode}")
    if n == 0:
        return False, "the empty graph has no minimum degree"
    eps = config.degree_frac
    eps2 = config.threshold_frac
    delta = min_degree(g)
    if mode == "clique":
        r = p.r
        frac = (r - ell) / (r - ell + 1)
        need = (frac + eps) * n
        deg_ok = delta >= need
        res = alpha_ell(g, ell) if n <= 40 else alpha_ell(g, ell, budget=20_000)
        kind = "exact" if res.exact else "branch-and-bound lower bound"
        alpha_ok = res.value <= eps2 * n
        held = deg_ok and alpha_ok
        detail = (
            f"delta={delta} (need {need:.1f}); alpha_{ell}={res.value} "
            f"[{kind}] (cap {eps2 * n:.1f})"
        )
        return held, detail
    need = eps * n
    deg_ok = delta >= need
    s = max(1, math.ceil(eps2 * n))
    if p.h * s <= n:
        verdict = traversing_check(g, p, s, trials=HYPOTHESIS_TRIALS,
                                   seed=derive_seed(seed, "hyp"))
        trav_ok = verdict.holds
        how = f"sampled({HYPOTHESIS_TRIALS})" if verdict.mode == "sampled" else "exhaustive"
        tdetail = f"traversing at s={s} {how}: {'holds' if trav_ok else 'fails'}"
    else:
        trav_ok = False
        tdetail = f"probe size s={s} infeasible (h*s > n)"
    held = deg_ok and trav_ok
    return held, f"delta={delta} (need {need:.1f}); {tdetail}"


def find_factor_absorbing(
    g: Graph,
    p: Pattern,
    mode: str = "general",
    ell: int = 2,
    config: AbsorberConfig | None = None,
    seed: int = 0,
    fallback_cap: int = FALLBACK_CAP,
    budget: int = DEFAULT_BUDGET,
) -> PipelineReport:
    """Run the absorbing pipeline; fall back to the exact oracle on failure
    when the graph is small enough.

    mode 'general' uses the neighbor-pool/traversing absorber construction;
    mode 'clique' (pattern must be a clique, with parameter ell) uses the
    random-partition construction.  Either runs only when config.t equals
    h; otherwise build_absorbing_set falls back to the direct search.  The
    emitted factor, if any, always passes the independent verifier.
    """
    t0 = time.perf_counter()
    h = p.h
    report = PipelineReport(mode=mode, n=g.n, h=h, seed=seed)
    if config is None:
        config = AbsorberConfig.desk_scale(h=h)
    if g.n % h != 0:
        report.failure_stage = "divisibility"
        report.stages.append(StageOutcome("divisibility", False,
                                          f"{h} does not divide {g.n}"))
        report.millis = (time.perf_counter() - t0) * 1000
        return report
    report.stages.append(StageOutcome("divisibility", True))

    report.hypothesis_checked = True
    held, detail = check_hypotheses(g, p, mode, config, ell=ell, seed=seed)
    report.hypothesis_held = held
    report.hypothesis_detail = detail

    structure: AbsorbingStructure | None = None
    try:
        structure = build_absorbing_set(
            g, p, config, seed=derive_seed(seed, "build"), builder=mode, ell=ell
        )
        report.stages.append(StageOutcome(
            "absorbing-set", True,
            f"|A|={len(structure.absorbing_set)} m={structure.template.m} "
            f"builder={structure.builder}"))
    except StageFailure as exc:
        report.stages.append(StageOutcome("absorbing-set", False, f"{exc.stage}: {exc}"))
        report.failure_stage = f"absorbing-set/{exc.stage}"

    tiling: Tiling | None = None
    if structure is not None:
        try:
            tiling, report.leftover = cover_and_absorb(g, structure)
            report.stages.append(StageOutcome("cover", True, f"leftover={report.leftover}"))
            report.stages.append(StageOutcome("absorb", True))
        except StageFailure as exc:
            if exc.stage == "absorb":
                report.stages.append(StageOutcome("cover", True))
            report.stages.append(StageOutcome(exc.stage, False, exc.detail))
            report.failure_stage = exc.stage

    if tiling is None and g.n <= fallback_cap:
        report.fallback_used = True
        res = find_factor_exact(g, p, budget=budget)
        report.exact_status = res.status
        report.nodes += res.nodes
        if res.found:
            tiling = res.tiling
            report.stages.append(StageOutcome("exact-fallback", True,
                                              f"nodes={res.nodes}"))
        else:
            report.stages.append(StageOutcome("exact-fallback", False, res.status))

    if tiling is not None:
        verify_tiling(g, tiling, require_factor=True)
        report.factor_found = True
        report.tiling = tiling
        report.failure_stage = None
    report.millis = (time.perf_counter() - t0) * 1000
    return report

