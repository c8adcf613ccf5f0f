"""The genkummer benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run it from anywhere; it measures the package in ../src next to this
directory.  With --trace 0 it runs the workload's operations in a closed
loop from this one process for --seconds and reports the end-to-end
metrics.  With --trace 1 it replays every operation as direct calls into
the layers and reports the per-layer metrics.  Every output is checked by
oracle.py.  Human-readable lines start with '#'; the last line of stdout is
the JSON result.  README.md explains the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from itertools import cycle
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RANKS_PATH = BENCH_DIR / "cost_ranks.json"
SETUP_REPEATS = 5
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
# largest-of-many counts; every other count is summed over inputs
MAX_COUNTS = {"exact_linalg.gram_bits"}
# counts that a change may rightly lower (a sharper prune, a better reduced
# Gram matrix), reported as per-layer metrics; every other count is an
# invariant of the inputs and the mathematics, compared for equality only
COUNT_METRICS = ("isometry_search.prune_count", "exact_linalg.gram_bits")


def load_package():
    """Put ROOT/src first on sys.path and import the workloads module.

    Exits with status 2 when the checkout holds no genkummer sources.
    """
    if not (SRC / "genkummer" / "__init__.py").is_file():
        sys.stderr.write(f"error: no genkummer sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import genkummer
    import workloads

    if Path(genkummer.__file__).resolve().parent != SRC / "genkummer":
        sys.stderr.write(f"error: imported genkummer from {genkummer.__file__}\n")
        raise SystemExit(2)
    return workloads


# ---------------------------------------------------------------------------
# provenance, read from /proc


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def load_average():
    return [float(x) for x in _read("/proc/loadavg").split()[:3]]


def cpu_ticks():
    """Per CPU, (stolen, busy) clock ticks since boot, from /proc/stat;
    busy excludes idle, iowait and steal."""
    out = []
    for line in _read("/proc/stat").splitlines():
        if line.startswith("cpu") and line[3:4].isdigit():
            f = [int(x) for x in line.split()[1:9]]
            out.append((f[7], f[0] + f[1] + f[2] + f[5] + f[6]))
    return out


def steal_seconds():
    """CPU time the hypervisor has taken from this machine since boot."""
    return sum(stolen for stolen, _ in cpu_ticks()) * TICK_S


def timed(fn, *args, **kwargs):
    """(fn's result, its run time).

    The run time is the wall time of the call less the time the hypervisor
    stole meanwhile from the CPUs doing work: each CPU's stolen time counts
    in proportion to how busy that CPU was, so a neighbour on a shared
    virtual machine is not charged to the program, and the steal an idle
    CPU reports is ignored.  The counters tick in 1/100 s.
    """
    before = cpu_ticks()
    start = perf_counter()
    result = fn(*args, **kwargs)
    elapsed = perf_counter() - start
    stolen = 0.0
    for (s0, b0), (s1, b1) in zip(before, cpu_ticks()):
        steal, busy = (s1 - s0) * TICK_S, (b1 - b0) * TICK_S
        stolen += steal * min(1.0, busy / max(elapsed - steal, TICK_S))
    return result, max(0.0, elapsed - stolen)


def _allowed_cpus():
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("Cpus_allowed_list:"):
            count = 0
            for part in line.split(":", 1)[1].strip().split(","):
                lo, _, hi = part.partition("-")
                count += int(hi or lo) - int(lo) + 1
            return count
    return None


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _commit():
    """HEAD of the checkout's git metadata, or 'unknown' outside git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    value = _read(git / ref).strip()
    if value:
        return value
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def provenance(seed):
    return {"seed": seed, "nproc": _allowed_cpus(), "cpu": _cpu_model(),
            "python": platform.python_version(), "commit": _commit()}


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, or the maximum when that percentile would not lie above the
    median (fewer than 21 samples)."""
    s = sorted(values)
    n = len(s)
    if n < 21:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def merge_counts(total, counts):
    for key, value in counts.items():
        total[key] = max(total.get(key, 0), value) if key in MAX_COUNTS \
            else total.get(key, 0) + value


def peak_rss_mb():
    """Peak resident memory of this process plus its largest reaped child,
    in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def time_setup(workload, seed):
    """Wall time of one fresh interpreter importing genkummer and generating
    this seed's inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    proc, elapsed = timed(subprocess.run, argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup interpreter failed: {proc.stderr.strip()}")
    return elapsed


# ---------------------------------------------------------------------------
# runs


class Tracer:
    """Spans around calls into the layers, kept in memory until the run ends.

    A span is (input id, name, start, duration); the spans of one input
    share its id, and all of them are children of that input's replay.
    Derived values are recorded with no start.
    """

    def __init__(self):
        self.spans = []
        self.input_id = None
        self.last = 0.0

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        result, self.last = timed(fn, *args, **kwargs)
        self.spans.append((self.input_id, name, start, self.last))
        return result

    def record(self, name, seconds):
        self.spans.append((self.input_id, name, None, seconds))

    def durations(self):
        out = {}
        for _, name, _, seconds in self.spans:
            out.setdefault(name, []).append(seconds)
        return out


class Outcome:
    """Attempts, failures and the first few problems of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, inp, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{inp}: {p}" for p in problems[:2])


def _attempt(outcome, inp, fn):
    """fn() -> (result, problems); a raised exception is a failed op."""
    try:
        result, problems = fn()
    except Exception:  # the loop must go on; the failure is reported
        outcome.add(inp, [traceback.format_exc(limit=3).strip().splitlines()[-1]])
        return None
    outcome.add(inp, problems)
    return result


def untraced_run(wl, workload, seed, seconds, ranks, out_path):
    inputs = wl.make_inputs(workload, seed, ranks)
    outcome = Outcome()
    times, work, counts = [], 0, {}

    def one(inp):
        state, elapsed = timed(wl.run_op, inp, out_path)
        units, problems, found = wl.check_op(inp, state, out_path)
        return (elapsed, units, found), problems

    start = perf_counter()
    for i, inp in enumerate(cycle(inputs)):
        if i >= wl.N_COUNTED[workload] and perf_counter() - start >= seconds:
            break
        result = _attempt(outcome, inp, lambda: one(inp))
        if result is None:
            continue
        op_time, units, found = result
        times.append(op_time)
        work += units
        if i < wl.N_COUNTED[workload]:
            merge_counts(counts, found)
    if not times:
        raise RuntimeError("no operation completed")
    # read before the setup interpreters start, so the only children counted
    # are the ones that ran operations (the pool workers of scan --jobs 2)
    rss = peak_rss_mb()
    setup_times = [time_setup(workload, seed) for _ in range(SETUP_REPEATS)]
    tail_value, tail_pct = tail(times)
    metrics = {
        "throughput_per_s": work / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    notes = {
        "op_tail_s": f"p{tail_pct:.1f} of {len(times)} operations",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
    }
    details = {"work_units": work, "setup_times_s": setup_times}
    return metrics, notes, details, counts, outcome


def traced_run(wl, workload, seed, seconds, ranks, out_path):
    inputs = wl.make_inputs(workload, seed, ranks)
    tracer = Tracer()
    outcome = Outcome()
    counts = {}
    ratios = []
    bare_total = traced_total = 0.0

    def op_time(inp, call):
        """Run time of one operation, made with call, and its check."""
        state, elapsed = timed(wl.run_op, inp, out_path, call)
        _, problems, found = wl.check_op(inp, state, out_path)
        return elapsed, problems, found

    def one(inp, i):
        # the operation bare and under spans (kept apart from the replay's),
        # timed from outside so span bookkeeping counts; which goes first
        # alternates, so neither is always the one that warms the caches
        calls = {"bare": wl.direct, "traced": Tracer().call}
        order = ("bare", "traced") if i % 2 == 0 else ("traced", "bare")
        runs = {name: op_time(inp, calls[name]) for name in order}
        (bare, p1, found), (traced, p2, _) = runs["bare"], runs["traced"]
        more, replayed = wl.REPLAYS[inp[0]](inp, tracer, out_path)
        differ = sorted(k for k in found if k in replayed and found[k] != replayed[k])
        if differ:
            more.append(f"counts differ between the operation and its replay: {differ}")
        return (bare, traced, replayed), p1 + p2 + more

    start = perf_counter()
    for i, inp in enumerate(cycle(inputs)):
        if i >= wl.N_COUNTED[workload] and perf_counter() - start >= seconds:
            break
        tracer.input_id = f"{workload}#{i}"
        result = _attempt(outcome, inp, lambda: one(inp, i))
        if result is None:
            continue
        bare, traced, found = result
        ratios.append(traced / bare)
        bare_total += bare
        traced_total += traced
        if i < wl.N_COUNTED[workload]:
            merge_counts(counts, found)
    for other in wl.WORKLOADS:
        if other == workload:
            continue
        other_inputs = wl.make_inputs(other, seed, ranks)
        for k in wl.PROBES[other]:
            inp = other_inputs[k]
            tracer.input_id = f"{other}#{k}"

            def probe():
                problems, found = wl.REPLAYS[other](inp, tracer, out_path)
                return found, problems

            found = _attempt(outcome, inp, probe)
            if found is not None:
                merge_counts(counts, found)
    if not ratios:
        raise RuntimeError("no operation completed")

    metrics, samples = {}, {}
    durations = tracer.durations()
    for name, values in durations.items():
        # "exact_linalg.has_norm_vector.small" -> "..._s.small", "..._tail_s.small"
        stem, _, band = name.rpartition(".")
        if band not in ("small", "large"):
            stem, band = name, ""
        suffix = f".{band}" if band else ""
        metrics[f"{stem}_s{suffix}"] = statistics.median(values)
        metrics[f"{stem}_tail_s{suffix}"] = tail(values)[0]
        samples[name] = len(values)
    metrics["cli.jobs2_speedup"] = (sum(durations["cli.scan_jobs1"])
                                    / sum(durations["cli.scan_jobs2"]))
    accepted = counts["isometry_search.accepted"]
    base = accepted + counts["isometry_search.disc_fail"]
    counts["isometry_search.accept_ratio"] = accepted / base
    counts["isometry_search.accept_ratio_base"] = base
    # a median of per-input ratios, so the input that first warms the
    # process's caches does not decide it
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    for name in COUNT_METRICS:
        metrics[name] = counts[name]
    notes = {"trace.overhead_ratio": f"median of {len(ratios)} inputs; in sum "
                                     f"{traced_total:.3f} s traced over "
                                     f"{bare_total:.3f} s bare"}
    details = {"calls": samples, "spans": len(tracer.spans)}
    return metrics, notes, details, counts, outcome


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "search", "roots"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import genkummer, generate the inputs and exit "
                             "(what setup_s times)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    wl = load_package()
    ranks = wl.load_ranks(RANKS_PATH)
    if args.setup_only:
        wl.make_inputs(args.workload, args.seed, ranks)
        return 0
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = BENCH_DIR / f".tmp-{os.getpid()}"
    out_dir.mkdir()
    load_before, steal_before = load_average(), steal_seconds()
    try:
        run = traced_run if args.trace else untraced_run
        metrics, notes, details, counts, outcome = run(wl, args.workload, args.seed,
                                               args.seconds, ranks,
                                               str(out_dir / "out.json"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    info = provenance(args.seed)
    info.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                load_before=load_before, load_after=load_average(),
                steal_s=steal_seconds() - steal_before)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(f"# genkummer benchmark: {json.dumps(info, sort_keys=True)}")
    for m in wanted:
        note = f" ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"# {m['name']} = {metrics[m['name']]!r} {m['unit']}{note}")
    print(f"# failed_ratio = {outcome.failed / outcome.attempted!r} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")
    print(f"# counts (seed {args.seed}): {json.dumps(counts, sort_keys=True)}")
    print(f"# details: {json.dumps(details, sort_keys=True)}")
    for problem in outcome.problems[:10]:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
