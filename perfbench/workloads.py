"""The four workloads of the tilinglab benchmark.

Each workload turns the workload seed into a fixed list of inputs (one
*pass*) and runs them closed-loop in a single process, one instance after
another, in *rounds* that keep the mix of a run the same whatever its
length.  When a run outlasts a pass it starts the pass again; a repeated
instance must reproduce its first answer exactly.

The program receives only the generated inputs.  Every answer is checked by
`checker`, which shares no code with tilinglab's search or verify modules.

    pipeline_gnp120  find_factor_absorbing on G(120, 0.7), K3, alternating
                     clique and general mode: the paper's end-to-end path at
                     the smallest n where it absorbs at all.
    exact_certify    find_factor_exact on extremal refutations, positive
                     controls and small random instances: factor, embed and
                     graphs only.
    sweep_desk       the acceptance sweep spec (G(n, p), n in {30, 60}, p in
                     {0.5, 0.7}, K3, clique mode, 20 trials per cell), one
                     sweep.run_trial per instance: hypothesis checks, the
                     pipeline's failure path and the exact fallback.
    absorb_trials    one absorbing structure on G(120, 0.7) built and checked
                     in set-up, then absorb() of random valid remainders.  Its
                     15 s set-up keeps it out of BENCHMARK.json; run it by name.

Known failures (they count as failed instances and are not seeded away):
hs-tripartite(18) ends at the exact search's node budget; every n = 60 sweep
row fails before absorption, and the exact fallback of an n = 30 row can
exhaust its budget; some G(120, 0.7) pipeline runs fail at absorb; absorb
raises absorb-remainder on a share of valid remainders that depends on the
structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import checker
from tilinglab import absorbing, factor, generators, graphs, pipeline, sweep, verify
from tilinglab.rng import derive_seed

K3_DESK = dict(t=1, absorber_frac=0.05, sample_prob=0.08, surplus_ratio=6.0,
               m_cap=1, degree_frac=0.1, threshold_frac=0.1)

K3 = graphs.Pattern.clique(3)
P3 = graphs.Pattern(graphs.Graph(3, [(0, 1), (1, 2)]))
C4 = graphs.Pattern(graphs.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))


@dataclass
class Outcome:
    """One instance's answer: `status` and `copies` go into the behaviour
    digest; `failed` means the instance ended without a verified answer;
    `check` keeps what the checker needs beyond the workload's inputs."""

    status: object
    copies: list | None
    failed: bool
    check: tuple = ()


def _copies(tiling) -> list | None:
    return None if tiling is None else [list(c) for c in tiling.copies]


def _check_factor(g, p, copies, cover=None) -> None:
    checker.check_copies(g.n, g.edges(), p.graph.edges(), p.h, copies,
                         range(g.n) if cover is None else cover)


class Workload:
    name = ""
    round_size = 1
    min_instances = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.unchecked_none = 0

    def prepare(self) -> None:
        """Generate the pass's inputs into `self.inputs` (the cheap part of set-up)."""
        raise NotImplementedError

    def build(self) -> None:
        """Set-up work that consumes the program beyond input generation."""

    def pass_length(self) -> int:
        return len(self.inputs)

    def run(self, k: int) -> Outcome:
        raise NotImplementedError

    def check(self, k: int, out: Outcome) -> None:
        raise NotImplementedError


class PipelineGnp120(Workload):
    name = "pipeline_gnp120"
    # an instance takes 10-15 s today; a run has at least two, one per mode
    # (the mode alternates within a run, and across seeds by the seed's parity)
    min_instances = 2
    graphs_per_pass = 8

    def prepare(self) -> None:
        self.config = absorbing.AbsorberConfig.desk_scale(h=3, **K3_DESK)
        self.inputs = [generators.gen_gnp(120, 0.7, derive_seed(self.seed, "pipeline-graph", i))
                       for i in range(self.graphs_per_pass)]

    def run(self, k: int) -> Outcome:
        i = k % self.graphs_per_pass
        report = pipeline.find_factor_absorbing(
            self.inputs[i], K3, mode=("clique", "general")[(i + self.seed) % 2], ell=2,
            config=self.config, seed=derive_seed(self.seed, "pipeline", i))
        status = "factor" if report.factor_found else f"failed:{report.failure_stage}"
        return Outcome(status, _copies(report.tiling), not report.factor_found)

    def check(self, k: int, out: Outcome) -> None:
        if out.copies is not None:
            _check_factor(self.inputs[k % self.graphs_per_pass], K3, out.copies)


class ExactCertify(Workload):
    name = "exact_certify"

    def prepare(self) -> None:
        gen = generators
        k = graphs.Pattern.clique
        rng = random.Random(derive_seed(self.seed, "exact-random"))

        def multipartite(sizes):
            return (f"multipartite{sizes}", "multipartite", {"sizes": sizes},
                    gen.gen_complete_multipartite(sizes), k(len(sizes)))

        def gnp(n, p, pattern, label):
            return (f"G({n},{p})/{label}", "random", {}, gen.gen_gnp(n, p, rng.randrange(2**32)), pattern)

        def lower_bound(r):
            return (f"lower-bound({r},2,24)", "lower-bound", {"r": r, "ell": 2},
                    gen.gen_lower_bound_construction(r, 2, 24, 2), k(r))

        def complete(n):
            return (f"K{n}/K{n // 2}", "complete", {}, graphs.complete_graph(n), k(n // 2))

        # Constructed instances are fixed; the seed draws the random ones.
        # The three longest instances split the pass into stretches that run
        # seconds apart, and every cost group is dealt across the stretches,
        # so the median and the tail are read from samples taken at different
        # times of the run rather than from one burst.
        longest = [
            ("hs-tripartite(18)", "multipartite", {"sizes": [5, 6, 7]}, gen.gen_hs_tripartite(18), K3),
            complete(24),
            complete(22),
        ]
        long = [
            complete(20),
            ("hs-tripartite(15)", "multipartite", {"sizes": [4, 5, 6]}, gen.gen_hs_tripartite(15), K3),
            multipartite([3, 4, 4, 5]),
            multipartite([2, 3, 3, 3, 3, 4]),
        ]
        # the 11th most expensive instance, which sets the tail, falls in the
        # first group; the median falls in the middle of the P3 group
        short = (
            [lower_bound(6), ("two-cliques(24)/K3", "two-cliques", {}, gen.gen_two_cliques(24), K3),
             multipartite([2, 3, 3, 3, 4]), multipartite([4, 3, 3, 3, 3, 2])]
            + [gnp(28, 0.5, C4, "C4") for _ in range(4)]
            + [("two-cliques(24)/K4", "two-cliques", {}, gen.gen_two_cliques(24), k(4)),
               multipartite([3, 4, 5]), lower_bound(4)]
            + [gnp(30, 0.5, P3, "P3") for _ in range(12)]
            + [gnp(30, 0.6, K3, "K3") for _ in range(15)]
            + [multipartite([2, 3, 3, 4]), gnp(30, 0.5, C4, "C4")]
        )
        stretches = [short[i::4] for i in range(4)]
        self.inputs = (stretches[0] + longest[:1] + stretches[1] + longest[1:2]
                       + stretches[2] + longest[2:] + stretches[3] + long)
        self.known: dict[int, str | None] = {}
        self.round_size = len(self.inputs)

    def run(self, k: int) -> Outcome:
        _label, _kind, _params, g, p = self.inputs[k % len(self.inputs)]
        res = factor.find_factor_exact(g, p)
        return Outcome(res.status, _copies(res.tiling), res.status == "budget")

    def check(self, k: int, out: Outcome) -> None:
        i = k % len(self.inputs)
        label, kind, params, g, p = self.inputs[i]
        if i not in self.known:
            self.known[i] = checker.known_answer(kind, params, g.n, g.edges(), p.h, p.is_clique)
        known = self.known[i]
        if out.status == "factor":
            _check_factor(g, p, out.copies)
            if known == "none":
                raise checker.CertificateError(f"{label}: factor on an instance with none")
        elif out.status == "none":
            if known == "factor":
                raise checker.CertificateError(f"{label}: verdict none, but a factor exists")
            if known is None:
                self.unchecked_none += 1


class SweepDesk(Workload):
    name = "sweep_desk"
    round_size = 4
    # half the trials (n = 60) are ten times slower than the other half; with
    # 32 instances the tail's ten slowest samples stay well inside the slow half
    min_instances = 32

    def prepare(self) -> None:
        self.spec = sweep.ExperimentSpec.from_obj({
            "generator": "gnp",
            "grid": {"n": [30, 60], "p": [0.5, 0.7]},
            "pattern": "K3",
            "mode": "clique",
            "ell": 2,
            "trials": 20,
            "seed_base": self.seed,
            "config": {"t": 1, "sample_prob": 0.1, "surplus_ratio": 6.0,
                       "m_cap": 1, "absorber_frac": 0.05},
        })
        cells = len(self.spec.cells())
        # round-robin over the cells, so every prefix of the pass keeps the mix
        self.inputs = [(k % cells, k // cells) for k in range(cells * self.spec.trials)]
        self.rows: dict[tuple[int, int], dict] = {}

    def run(self, k: int) -> Outcome:
        cell, trial = self.inputs[k % len(self.inputs)]
        captured = []
        original = sweep.find_factor_absorbing

        def capture(g, p, *args, **kwargs):
            report = original(g, p, *args, **kwargs)
            captured.append((g, p, report))
            return report

        sweep.find_factor_absorbing = capture
        try:
            row = sweep.run_trial(self.spec, cell, trial)
        finally:
            sweep.find_factor_absorbing = original
        (g, p, report), = captured
        self.rows.setdefault((cell, trial), row)
        settled_none = report.fallback_used and report.exact_status == "none"
        return Outcome(row, _copies(report.tiling), not (row["factor_found"] or settled_none),
                       (g, p, report))

    def check(self, k: int, out: Outcome) -> None:
        g, p, report = out.check
        if out.status["factor_found"] != int(report.tiling is not None):
            raise checker.CertificateError("sweep row and pipeline report disagree on the factor")
        if out.copies is not None:
            _check_factor(g, p, out.copies)
        elif report.exact_status == "none":
            self.unchecked_none += 1

    def csv_text(self) -> str:
        """CSV of the rows of the first pass, as `tilinglab sweep` writes it."""
        return sweep.rows_to_csv(self.spec, [self.rows[key] for key in sorted(self.rows)])


class AbsorbTrials(Workload):
    name = "absorb_trials"
    remainders_per_pass = 400

    def prepare(self) -> None:
        self.config = absorbing.AbsorberConfig.desk_scale(h=3, **K3_DESK)
        self.graph = generators.gen_gnp(120, 0.7, derive_seed(self.seed, "absorb-graph"))

    def build(self) -> None:
        g = self.graph
        self.structure = absorbing.build_absorbing_set(
            g, K3, self.config, seed=derive_seed(self.seed, "absorb-build"))
        verify.verify_structure(g, self.structure)
        self.aset = self.structure.absorbing_set
        outside = sorted(set(range(g.n)) - self.aset)
        sizes = self.structure.valid_remainder_sizes()
        rng = random.Random(derive_seed(self.seed, "absorb-remainders"))
        self.inputs = [sorted(rng.sample(outside, rng.choice(sizes)))
                       for _ in range(self.remainders_per_pass)]

    def run(self, k: int) -> Outcome:
        rem = self.inputs[k % self.remainders_per_pass]
        try:
            tiling = absorbing.absorb(self.graph, self.structure, rem)
        except absorbing.StageFailure as exc:
            return Outcome(f"failed:{exc.stage}", None, True)
        return Outcome("absorbed", _copies(tiling), False)

    def check(self, k: int, out: Outcome) -> None:
        if out.copies is not None:
            rem = self.inputs[k % self.remainders_per_pass]
            _check_factor(self.graph, K3, out.copies, self.aset | set(rem))


WORKLOADS = {w.name: w for w in (PipelineGnp120, ExactCertify, SweepDesk, AbsorbTrials)}
