#!/usr/bin/env python3
"""List the functions in src/tilinglab that no benchmark or CLI run reaches.

    python3 scripts/reach.py

Under `sys.setprofile` the script runs one pass of each workload in
`perfbench/workloads.py` at seed 1 (prepare, build, then every instance of
the pass, unchecked), then a CLI pass on small temporary inputs: `gen`,
`params` with `--pattern` and `--traversing-s`, `factor` with the exact and
the absorbing solver, `absorb`, `verify` on a tiling and on a structure, and
`sweep`.  Profiling starts before the package is imported.  The script
prints each CLI command's exit code, then every function and method defined
in `src/tilinglab` whose code was never entered, one per line as
`module.qualname:line`.  Class bodies, comprehensions and lambdas are not
listed.  It imports the workloads and edits nothing.  Stdlib only; it takes
about half a minute.
"""

import contextlib
import importlib
import inspect
import io
import json
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tilinglab"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# the K3 configuration of the theorem cell in tests/test_pipeline.py
CONFIG = json.dumps({"t": 1, "degree_frac": 0.1, "threshold_frac": 0.2, "m_cap": 1})
SWEEP_SPEC = {"generator": "gnp", "grid": {"n": [30], "p": [0.7]}, "pattern": "K3",
              "mode": "clique", "ell": 2, "trials": 2, "seed_base": 1}


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every function in the package, mapped
    to its `module.qualname:line`."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                out[(str(path), code.co_firstlineno, code.co_name)] = (
                    f"{path.stem}.{code.co_qualname}:{code.co_firstlineno}")
    return out


def run_workloads() -> None:
    for cls in importlib.import_module("workloads").WORKLOADS.values():
        wl = cls(1)
        wl.prepare()
        wl.build()
        for k in range(wl.pass_length()):
            wl.run(k)


def run_cli(folder: Path) -> list[tuple[str, int]]:
    """Run each CLI command in `folder`; return (command, exit code) pairs."""
    f = {name: str(folder / name) for name in
         ("g30.el", "g60.el", "tiling.json", "structure.json", "spec.json", "rows.csv")}
    Path(f["spec.json"]).write_text(json.dumps(SWEEP_SPEC))
    commands = [
        ["gen", "--construction", "gnp", "--n", "30", "--p", "0.7", "--seed", "1",
         "--out", f["g30.el"]],
        ["gen", "--construction", "gnp", "--n", "60", "--p", "0.8", "--seed", "1",
         "--out", f["g60.el"]],
        ["params", "--graph", f["g30.el"], "--pattern", "K3", "--traversing-s", "2"],
        ["factor", "--graph", f["g30.el"], "--pattern", "K3", "--out", f["tiling.json"]],
        ["factor", "--graph", f["g60.el"], "--pattern", "K3", "--solver", "absorbing",
         "--mode", "clique", "--config", CONFIG, "--fallback-cap", "0"],
        ["absorb", "--graph", f["g60.el"], "--pattern", "K3", "--config", CONFIG,
         "--trials", "3", "--out", f["structure.json"]],
        ["verify", "--certificate", f["tiling.json"], "--graph", f["g30.el"], "--factor"],
        ["verify", "--certificate", f["structure.json"], "--graph", f["g60.el"]],
        ["sweep", "--spec", f["spec.json"], "--out", f["rows.csv"]],
    ]
    main = importlib.import_module("tilinglab.cli").main
    codes = []
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append((argv[0], main(argv)))
    return codes


def reach() -> int:
    reached: set[tuple[str, int, str]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run_workloads()
        with tempfile.TemporaryDirectory() as tmp:
            codes = run_cli(Path(tmp))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    for command, code in codes:
        print(f"# {command}: exit {code}")
    for key, name in sorted(defined_functions().items(), key=lambda kv: kv[1]):
        if key not in reached:
            print(name)
    return 0


if __name__ == "__main__":
    sys.exit(reach())
