#!/usr/bin/env python3
"""What `import tilinglab`, and then loading the whole library, cost a
process that has no bytecode cache.

    python3 -B scripts/startup_profile.py

It reads no cached bytecode, so every module is compiled from source, as in
a fresh checkout; -B keeps it from writing any.

`import tilinglab` runs no library module: it registers each one to run on
first use.  The first part prints what that import alone costs: its time,
the peak RSS (ru_maxrss) before and after, the tilinglab modules it put in
`sys.modules` and the standard-library modules it loaded.

The second part loads the full library, one import of each registered
module, as a process that uses all of it does.  It prints, for each
tilinglab module, the source size, the time and the tracemalloc peak of
compiling that source, and the totals of size and compile time.  Then it
prints how many dataclasses the library defines, each of which its load
generates code for, the peak RSS after the load, and the standard-library
modules the load brought in.  Stdlib only.
"""

import importlib
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


def is_ours(name: str) -> bool:
    return name == "tilinglab" or name.startswith("tilinglab.")


def main() -> int:
    if not sys.dont_write_bytecode:
        sys.exit("run as python3 -B, so that the profile writes no bytecode cache")
    before = maxrss_mb()
    loaded = set(sys.modules)
    t0 = time.perf_counter()
    import tilinglab  # noqa: F401

    import_s = time.perf_counter() - t0
    after_import = maxrss_mb()
    registered = sorted(name for name in sys.modules if name not in loaded and is_ours(name))
    stdlib = sorted(name for name in sys.modules if name not in loaded and not is_ours(name))
    print(f"import tilinglab: {import_s * 1e3:.2f} ms, "
          f"ru_maxrss {before:.2f} -> {after_import:.2f} MB")
    print(f"tilinglab modules it put in sys.modules ({len(registered)}): {' '.join(registered)}")
    print(f"stdlib modules it loaded ({len(stdlib)}): {' '.join(stdlib)}")
    print()

    loaded = set(sys.modules)
    t0 = time.perf_counter()
    for name in registered:
        importlib.import_module(name)  # reads the module's __spec__, which runs it
    load_s = time.perf_counter() - t0
    after_load = maxrss_mb()
    print(f"loading the library: {load_s * 1e3:.2f} ms")
    print(f"{'module':<24}{'bytes':>8}{'compile ms':>12}{'peak MiB':>10}")
    total, total_s = 0, 0.0
    for name in registered:
        size, seconds, peak = compile_cost(Path(sys.modules[name].__file__))
        total += size
        total_s += seconds
        print(f"{name:<24}{size:>8}{seconds * 1e3:>12.2f}{peak / 2**20:>10.3f}")
    print(f"{'total':<24}{total:>8}{total_s * 1e3:>12.2f}")
    stdlib = sorted(name for name in sys.modules if name not in loaded and not is_ours(name))
    import dataclasses  # only now, so that the stdlib list above is the load's

    made = sorted(f"{name}.{obj.__name__}" for name in registered
                  for obj in vars(sys.modules[name]).values()
                  if isinstance(obj, type) and obj.__module__ == name
                  and dataclasses.is_dataclass(obj))
    print(f"dataclasses the load created ({len(made)}): {' '.join(made)}")
    print(f"ru_maxrss after loading the library: {after_load:.2f} MB")
    print(f"stdlib modules the load brought in ({len(stdlib)}): {' '.join(stdlib)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
