"""The benchmark's gated outputs at seed 1, pinned.

Each case runs `perfbench/run.py` for a fixed number of instances, untraced,
and compares its report line with the values the current program gives: the
behaviour digest, the count of failed instances and, for sweep_desk, the
sha256 of the CSV it writes.  A change that moves one of them fails here
before the benchmark runs it; a change that moves one on purpose re-pins it
here and says why, as the CSV pins of the sweep tests are re-pinned.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# workload: (instances, digest, failed, csv sha256 or None)
SEED_1_PINS = {
    "pipeline_gnp120": (8, "5374db2b40d4e11b33cd4c45e85c58d08897babe6c1637d6065dcc091d6447c2",
                        0, None),
    "sweep_desk": (80, "a19cebbdba5db6b110556bf09f82049ab13af20dcd1172fdddc00e6c895f3ed3",
                   20, "9831673056afd43b498d8e1e62ed92e4be713126f01966b513b89458eec84d40"),
    "absorb_trials": (400, "6dd923e3566708d1b20883ee12e2bc3245b8fdd8ae58f4af719aafbac69373d7",
                      13, None),
}


@pytest.mark.parametrize("workload", sorted(SEED_1_PINS))
def test_gated_outputs_at_seed_1(workload):
    instances, digest, failed, csv_sha256 = SEED_1_PINS[workload]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--instances", str(instances)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    line = next(ln for ln in out.stdout.splitlines() if ln.startswith("report "))
    report = json.loads(line[len("report "):])
    assert report["correct"], report["problem"]
    assert (report["attempted"], report["digest"], report["failed"],
            report.get("csv_sha256")) == (instances, digest, failed, csv_sha256)
