#!/usr/bin/env python3
"""Run a small clique-factor sweep over G(n, p) and summarize stage outcomes.

Writes the full CSV next to a per-cell success summary on stdout.

Usage:
    python scripts/demo_sweep.py [--out sweep.csv] [--trials T] [--threads K]
"""

import argparse
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tilinglab.sweep import ExperimentSpec, rows_to_csv, run_sweep

# n = 30 settles through the exact fallback; n = 120 runs the full
# absorbing path (the absorbing set needs roughly 36 + 10*surplus vertices,
# so size the grid or the surplus_ratio accordingly)
SPEC = {
    "generator": "gnp",
    "grid": {"n": [30, 120], "p": [0.7]},
    "pattern": "K3",
    "mode": "clique",
    "ell": 2,
    "seed_base": 2026,
    "config": {"t": 1, "sample_prob": 0.08, "surplus_ratio": 6.0,
               "m_cap": 1, "absorber_frac": 0.05,
               "degree_frac": 0.1, "threshold_frac": 0.1},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=str, default="sweep.csv")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    spec = ExperimentSpec.from_obj({**SPEC, "trials": args.trials})
    rows = run_sweep(spec, threads=args.threads)
    Path(args.out).write_text(rows_to_csv(spec, rows))

    by_cell = defaultdict(lambda: [0, 0, 0])
    for row in rows:
        key = (row["n"], row["p"])
        by_cell[key][0] += 1
        by_cell[key][1] += row["factor_found"]
        by_cell[key][2] += row["absorbed"]
    print(f"{'n':>4} {'p':>5} {'trials':>7} {'factors':>8} {'absorbed':>9}")
    for (n, p), (t, f, a) in sorted(by_cell.items()):
        print(f"{n:>4} {p:>5} {t:>7} {f:>8} {a:>9}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
