"""The probe inputs that a traced benchmark run replays from the other
workloads (perfbench/workloads.py PROBES) replay cleanly, and between them
measure what perfbench/run.py's traced_run reads: a traced run stops with an
error when a probe raises, when a count it reads is missing, or when a
per-layer metric has no span."""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1
# per-layer metrics that come from the workload's own operations or from
# counts rather than from spans
NOT_SPANS = {"trace.overhead_ratio", *run.COUNT_METRICS}


@pytest.fixture(scope="module")
def probes(tmp_path_factory):
    """(problems, counts, span names) of every workload's probes, replayed
    as traced_run replays them."""
    out_path = str(tmp_path_factory.mktemp("probes") / "out.json")
    ranks = workloads.load_ranks(run.RANKS_PATH)
    tracer = run.Tracer()
    problems, counts = {}, {}
    for workload in workloads.WORKLOADS:
        inputs = workloads.make_inputs(workload, SEED, ranks)
        for k in workloads.PROBES[workload]:
            tracer.input_id = f"{workload}#{k}"
            found_problems, found = workloads.REPLAYS[workload](inputs[k], tracer, out_path)
            problems[(workload, k)] = found_problems
            run.merge_counts(counts, found)
    return problems, counts, set(tracer.durations())


def test_probes_report_no_problems(probes):
    problems, _, _ = probes
    assert {key: p for key, p in problems.items() if p} == {}


def test_probes_count_what_traced_run_reads(probes):
    _, counts, _ = probes
    for key in ("isometry_search.accepted", "isometry_search.disc_fail",
                *run.COUNT_METRICS):
        assert key in counts, key
    # the search probe accepts maps, so their orders are classified
    assert counts["isometry_search.accepted"] > 0


def test_probes_time_every_per_layer_span(probes):
    _, _, spans = probes
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in NOT_SPANS:
            continue
        if name == "cli.jobs2_speedup":
            wanted = ["cli.scan_jobs1", "cli.scan_jobs2"]
        else:
            stem, _, band = re.fullmatch(r"(.+?)(_tail)?_s(\.small|\.large)?", name).groups()
            wanted = [stem + (band or "")]
        missing += [span for span in wanted if span not in spans]
    assert missing == []
