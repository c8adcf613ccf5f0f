"""Every function in src/genkummer runs on a path that the CLI or the
benchmark takes.

One profiled pass runs every CLI command, `search 12` included (the only
L^2 < 400 whose accepted maps reach charpoly), and each workload's probe
inputs as perfbench/workloads.py runs them: the operation (run_op), its
check (check_op) and its traced replay.  A function that the pass never
enters is code that only the tests run: it belongs in the tests (as
tests/families.py and tests/dual_lattice.py hold), or it goes.

The pass runs in a fresh interpreter, since the package caches per-case
work on first use and earlier tests would have warmed those caches:

    PYTHONPATH=src python tests/test_reachability.py OUT.json
"""

import json
import os
import subprocess
import sys
from inspect import CO_NEWLOCALS
from pathlib import Path

import genkummer

PACKAGE_DIR = Path(genkummer.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1
# function bodies that are not functions a caller enters by name
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}
# functions the pass may miss, by file and name, each with the reason
ALLOWED = {
    ("cli.py", "main"): "the console-script entry: it exits the interpreter "
                        "with run's code, and run is the rest of its body",
}
COMMANDS = (
    ["pell", "120"], ["pell", "16"], ["pell", "1"],
    ["ns", "20"], ["ns", "24"], ["ns", "x"],
    ["decide", "20"], ["decide", "36"], ["decide", "24"],
    ["scan", "20", "36"],
    ["search", "12"], ["search", "20"], ["search", "24"],
    ["aut20"],
    ["fm", "1", "1", "1", "1"], ["fm", "1", "1", "0", "0"], ["fm", "0", "0", "0", "0"],
)


def _key(code):
    return Path(code.co_filename).name, code.co_name, code.co_firstlineno


def _functions(code):
    """(file name, name, first line) of every function compiled into code;
    module and class bodies run in the enclosing namespace."""
    found = set()
    if code.co_flags & CO_NEWLOCALS and code.co_name not in COMPREHENSIONS:
        found.add(_key(code))
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            found |= _functions(const)
    return found


def profiled_pass(workdir):
    """(file name, name, first line) of every genkummer function that the
    commands and the probe inputs enter; reports go under workdir."""
    sys.path.insert(0, str(BENCH_DIR))
    import run as bench_run
    import workloads
    from genkummer import cli

    ranks = workloads.load_ranks(bench_run.RANKS_PATH)
    probes = [(w, workloads.make_inputs(w, SEED, ranks)[k])
              for w in workloads.WORKLOADS for k in workloads.PROBES[w]]
    out_path = str(workdir / "out.json")
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in COMMANDS:
            cli.run(argv + ["--out", str(workdir / "report")])
        for workload, inp in probes:
            state = workloads.run_op(inp, out_path)
            workloads.check_op(inp, state, out_path)
            workloads.REPLAYS[workload](inp, bench_run.Tracer(), out_path)
    finally:
        sys.setprofile(None)
    return {_key(c) for c in entered
            if Path(c.co_filename).resolve().parent == PACKAGE_DIR}


def test_every_function_runs_on_a_command_or_benchmark_path(tmp_path):
    defined = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        defined |= _functions(compile(path.read_text(), str(path), "exec"))
    assert set(ALLOWED) <= {f[:2] for f in defined}

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_DIR.parent), *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))])
    out = tmp_path / "reached.json"
    proc = subprocess.run([sys.executable, __file__, str(out)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    reached = {tuple(f) for f in json.loads(out.read_text())}
    missed = sorted(f for f in defined - reached if f[:2] not in ALLOWED)
    assert missed == [], missed


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.write_text(json.dumps(sorted(profiled_pass(out.parent))))
