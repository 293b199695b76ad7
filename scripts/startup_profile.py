#!/usr/bin/env python3
"""What `import tilinglab` costs a process that has no bytecode cache.

    python3 -B scripts/startup_profile.py

It reads no cached bytecode, so every module is compiled from source, as in
a fresh checkout; -B keeps it from writing any.  It imports the package once
and prints, for each tilinglab module in the order its import finished, the
source size, the time and the tracemalloc peak of compiling that source,
and the totals of size and compile time.  Then it prints how many
dataclasses the package defines, each of which the import generates code
for, the peak RSS (ru_maxrss) before and after the import, and the
standard-library modules that the import loaded.  Stdlib only.
"""

import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
# read no cached bytecode either: look for it only where none can exist
sys.pycache_prefix = os.path.join(os.devnull, "pycache")


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def compile_cost(path: Path) -> tuple[int, float, int]:
    """(source bytes, compile seconds, compile peak bytes) of one file."""
    source = path.read_bytes()
    t0 = time.perf_counter()
    compile(source, str(path), "exec")
    seconds = time.perf_counter() - t0
    tracemalloc.start()
    compile(source, str(path), "exec")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return len(source), seconds, peak


def main() -> int:
    if not sys.dont_write_bytecode:
        sys.exit("run as python3 -B, so that the profile writes no bytecode cache")
    before = maxrss_mb()
    loaded = set(sys.modules)
    import tilinglab  # noqa: F401

    after = maxrss_mb()
    # a module moves to the end of sys.modules when its import finishes
    added = [name for name in sys.modules if name not in loaded]
    ours = [name for name in added if name == "tilinglab" or name.startswith("tilinglab.")]

    print(f"{'module':<24}{'bytes':>8}{'compile ms':>12}{'peak MiB':>10}")
    total, total_s = 0, 0.0
    for name in ours:
        size, seconds, peak = compile_cost(Path(sys.modules[name].__file__))
        total += size
        total_s += seconds
        print(f"{name:<24}{size:>8}{seconds * 1e3:>12.2f}{peak / 2**20:>10.3f}")
    print(f"{'total':<24}{total:>8}{total_s * 1e3:>12.2f}")
    import dataclasses  # only now, so that the stdlib list below is the import's

    made = sorted(f"{name}.{obj.__name__}" for name in ours
                  for obj in vars(sys.modules[name]).values()
                  if isinstance(obj, type) and obj.__module__ == name
                  and dataclasses.is_dataclass(obj))
    print(f"dataclasses the import created ({len(made)}): {' '.join(made)}")
    print(f"ru_maxrss before import tilinglab: {before:.2f} MB")
    print(f"ru_maxrss after import tilinglab:  {after:.2f} MB")
    stdlib = sorted(name for name in added if name not in ours)
    print(f"stdlib modules the import loaded ({len(stdlib)}): {' '.join(stdlib)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
