"""scripts/bench_pairs.py pools each side's failed share over the workloads.

Each workload's own share is weighted by the base's attempted count on it,
so a change that attempts more instances of a workload that fails by
construction reads the same pooled share as the base.  No benchmark runs.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

SCRIPT_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# {workload: {side: (attempted, failed)}} of a --seed 1 run in which every
# workload's own share was equal on both sides, while raw counts pooled
# read 12.11% against 12.68%
EQUAL_SHARES = {
    "pipeline_gnp120": {"base": (2203, 0), "change": (2159, 0)},
    "exact_certify": {"base": (940, 20), "change": (893, 19)},
    "sweep_desk": {"base": (2796, 699), "change": (2988, 747)},
}


def test_equal_shares_pool_to_equal_shares(capsys):
    bench_pairs = load_bench_pairs()
    share = bench_pairs.pooled_share(EQUAL_SHARES)
    # the base's share is its raw pooled one, 719 of 5,939
    assert share["change"] == share["base"] == Fraction(719, 5939)
    assert not bench_pairs.share_above(share)
    assert "the change's is not above the base's" in capsys.readouterr().out


def test_one_workload_with_more_failures_reads_above(capsys):
    bench_pairs = load_bench_pairs()
    counts = dict(EQUAL_SHARES, exact_certify={"base": (940, 20), "change": (893, 20)})
    assert bench_pairs.share_above(bench_pairs.pooled_share(counts))
    assert bench_pairs.share_above(bench_pairs.pooled_share({"exact_certify":
                                                              counts["exact_certify"]}))
    assert "the change's is above the base's" in capsys.readouterr().out
