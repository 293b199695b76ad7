"""Acceptance suite: every release criterion, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion (prints also appear in failure output without -s).
"""

import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

from oracles import alpha_exhaustive, factor_exists_bruteforce
from tilinglab.absorbing import (
    AbsorberConfig,
    StageFailure,
    absorb,
    build_absorbing_set,
    build_template,
)
from tilinglab.factor import find_factor_exact, greedy_max_tiling
from tilinglab.generators import (
    gen_complete_multipartite,
    gen_gnp,
    gen_lower_bound_construction,
    gen_two_cliques,
)
from tilinglab.graphs import Pattern, complete_graph, parse_graph
from tilinglab.invariants import alpha_ell, one_density, traversing_threshold
from tilinglab.pipeline import check_hypotheses, find_factor_absorbing
from tilinglab.rng import rng_for
from tilinglab.verify import verify_structure, verify_tiling

K3_DESK = dict(t=1, absorber_frac=0.05, sample_prob=0.08, surplus_ratio=6.0,
               m_cap=1, degree_frac=0.1, threshold_frac=0.1)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_01_oracle_equivalence():
    patterns = [Pattern.clique(2), Pattern.clique(3), Pattern.clique(4)]
    rng = rng_for(10_001, "acceptance-oracle")
    t0 = time.perf_counter()
    disagreements = 0
    checked = 0
    for i in range(500):
        p = patterns[i % 3]
        n = p.h * rng.randrange(1, 8 // p.h + 1)
        g = gen_gnp(n, rng.uniform(0.15, 0.9), rng.randrange(10**9))
        res = find_factor_exact(g, p)
        if res.found != factor_exists_bruteforce(g, p):
            disagreements += 1
        if res.found:
            verify_tiling(g, res.tiling, require_factor=True)
        checked += 1
    elapsed = time.perf_counter() - t0
    report("1 oracle-equivalence", disagreements == 0 and checked == 500
           and elapsed < 60.0,
           f"{checked} instances, {disagreements} disagreements, {elapsed:.1f}s")


def test_02_counterexamples_certified():
    k3 = Pattern.clique(3)
    k4 = Pattern.clique(4)
    results = []
    for name, g, p in [
        ("tripartite(3,4,5)", gen_complete_multipartite([3, 4, 5]), k3),
        ("K5+K7", gen_two_cliques(12), k3),
        ("lower-bound(4,2,16)", gen_lower_bound_construction(4, 2, 16, 1), k4),
    ]:
        t0 = time.perf_counter()
        res = find_factor_exact(g, p)
        elapsed = time.perf_counter() - t0
        results.append((name, res.status == "none", elapsed))
    ok = all(good and dt < 10.0 for _, good, dt in results)
    report("2 counterexamples", ok,
           "; ".join(f"{n}: {'none' if g else 'BAD'} {dt:.2f}s"
                     for n, g, dt in results))


def test_03_positive_controls():
    failures = []
    for n in range(2, 25):
        for r in range(2, n + 1):
            if n % r != 0:
                continue
            g = complete_graph(n)
            p = Pattern.clique(r)
            if not find_factor_exact(g, p).found:
                failures.append(f"oracle K_{n}/K_{r}")
            mode = "clique" if r >= 3 else "general"
            rep = find_factor_absorbing(g, p, mode=mode, ell=2, seed=1)
            if not rep.factor_found:
                failures.append(f"pipeline K_{n}/K_{r}")
    for r, size in [(2, 6), (3, 4), (4, 3), (3, 8)]:
        g = gen_complete_multipartite([size] * r)
        p = Pattern.clique(r)
        if not find_factor_exact(g, p).found:
            failures.append(f"oracle partite r={r} size={size}")
        mode = "clique" if r >= 3 else "general"
        rep = find_factor_absorbing(g, p, mode=mode, ell=2, seed=1)
        if not rep.factor_found:
            failures.append(f"pipeline partite r={r} size={size}")
    report("3 positive-controls", not failures, "; ".join(failures) or "all found")


def test_04_template_robustness():
    # the template is robust by Hall's condition: every flex m-subset with
    # the core matches onto the slots, shown here subset by subset, up to
    # 40 flex vertices; past the degree bound it is refused
    def robust(tpl):
        return all(tpl.slot_matching(sub) is not None
                   for sub in itertools.combinations(range(tpl.flex_size), tpl.m))

    tpl = build_template(4, 0.25)
    ok_small = tpl.flex_size == 5 and robust(tpl)
    t0 = time.perf_counter()
    tpl13 = build_template(13, 0.1)
    ok_mid = (math.comb(tpl13.flex_size, 13) == 105 and tpl13.flex_size <= 40
              and robust(tpl13))
    elapsed = time.perf_counter() - t0
    try:
        build_template(50, 0.1)
        refusal = None
    except StageFailure as exc:
        refusal = exc
    ok_big = (refusal is not None and refusal.stage == "template"
              and "exceeds the degree bound of 40" in str(refusal))
    report("4 template-robustness", ok_small and ok_mid and ok_big,
           f"m=4, 5 subsets; m=13, 105 subsets, in {elapsed:.2f}s; m=50 refused: {refusal}")


def test_05_absorbing_soundness():
    t0 = time.perf_counter()
    g = gen_gnp(120, 0.7, 4)
    k3 = Pattern.clique(3)
    config = AbsorberConfig.desk_scale(h=3, **K3_DESK)
    held, detail = check_hypotheses(g, k3, "clique", config, ell=2, seed=1)
    assert held, detail
    structure = build_absorbing_set(g, k3, config, seed=2)
    verify_structure(g, structure)
    aset = structure.absorbing_set
    outside = sorted(set(range(g.n)) - aset)
    sizes = structure.valid_remainder_sizes()
    ok = 0
    for i in range(100):
        rng = rng_for(99, "trial", i)
        size = sizes[rng.randrange(len(sizes))]
        rem = sorted(rng.sample(outside, size)) if size else []
        tiling = absorb(g, structure, rem)
        verify_tiling(g, tiling, require_factor=False, require_cover=aset | set(rem))
        assert tiling.covered == aset | set(rem)
        ok += 1
    elapsed = time.perf_counter() - t0
    report("5 absorbing-soundness", ok == 100 and elapsed < 300.0,
           f"|A|={len(aset)}, remainder sizes {sizes}, {ok}/100 absorbed, "
           f"{elapsed:.1f}s")


def test_06_greedy_cover_bound():
    k3 = Pattern.clique(3)
    config = AbsorberConfig.desk_scale(h=3, **K3_DESK)
    rng = rng_for(606, "cover")
    done = 0
    worst = ""
    while done < 20:
        n = rng.randrange(45, 61)
        g = gen_gnp(n, rng.uniform(0.55, 0.75), rng.randrange(10**9))
        held, _ = check_hypotheses(g, k3, "general", config,
                                   seed=rng.randrange(10**9))
        if not held:
            continue
        avoid = sorted(rng.sample(range(n), max(1, n // 12)))
        tiling = greedy_max_tiling(g, k3, forbidden=avoid)
        left = sorted(set(range(g.n)) - tiling.covered - set(avoid))
        s_star, _ = traversing_threshold(g, k3, trials=150,
                                         seed=rng.randrange(10**9))
        assert len(left) < 3 * s_star, (n, len(left), s_star)
        worst = f"last: leftover {len(left)} < 3*{s_star}"
        done += 1
    report("6 greedy-cover-bound", done == 20, f"20 instances; {worst}")


def test_07_invariant_computations():
    dens_ok = all(one_density(Pattern.clique(r)) == Fraction(r, 2)
                  for r in range(2, 8))
    c4 = Pattern(parse_graph("4 4\n0 1\n1 2\n2 3\n0 3"))
    dens_ok = dens_ok and one_density(c4) == Fraction(4, 3)

    rng = rng_for(707, "alpha-corpus")
    mismatches = 0
    for i in range(200):
        n = rng.randrange(4, 13)
        g = gen_gnp(n, rng.uniform(0.15, 0.85), rng.randrange(10**9))
        for ell in (2, 3):
            if alpha_ell(g, ell).value != alpha_exhaustive(g, ell):
                mismatches += 1
    report("7 invariant-computations", dens_ok and mismatches == 0,
           f"densities ok={dens_ok}; 200-graph corpus, {mismatches} mismatches")


def test_08_sweep_determinism(tmp_path):
    spec = {
        "generator": "gnp",
        "grid": {"n": [30, 60], "p": [0.5, 0.7]},
        "pattern": "K3",
        "mode": "clique",
        "ell": 2,
        "trials": 20,
        "seed_base": 31337,
        "config": {"t": 1, "sample_prob": 0.1, "surplus_ratio": 6.0,
                   "m_cap": 1, "absorber_frac": 0.05},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "tilinglab", "sweep", "--spec",
             str(spec_path), "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    rows = outputs[0].decode().splitlines()
    ok = outputs[0] == outputs[1] and len(rows) == 2 + 80
    report("8 sweep-determinism", ok,
           f"{len(rows) - 2} rows, byte-identical={outputs[0] == outputs[1]}")
