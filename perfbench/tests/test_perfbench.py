"""Tests of the benchmark itself: tiny runs of each workload, the result
schema, failure counting, the reference decider, tracing and compare.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import common
import compare
import meter
import reference
import run
import workloads
from spans import Tracer

REPORT = json.loads(
    (Path(__file__).parent / "data" / "verify_report_small_seed0.json").read_text()
)

TINY = workloads.Sizes(
    setup_repeats=1,
    paper_searches=tuple(s for s in workloads.PAPER_SEARCHES if s != ("H49", "T11")),
    color_grids=((2, 2), (3, 3)),
    color_trace_ops=2,
    hom_small_count=3,
    hom_deep=(((3, 3), 2),),
    hom_probe=(((30, 30), 1),),
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def canned_verify(monkeypatch):
    """Stand in for the verify-paper child with a recorded report."""
    reports = []

    def fake(seed, timeout_s, meter):
        report = reports.pop(0) if reports else copy.deepcopy(REPORT)
        return 1.5, 1.4, report, 30.0

    monkeypatch.setattr(workloads, "run_verify_child", fake)
    return reports


def check_line(line: dict, trace: bool) -> None:
    spec = common.load_benchmark_spec()
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert isinstance(line["correct"], bool)
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and 0 <= line["failed"] <= line["attempted"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]
    json.dumps(line, allow_nan=False)


def test_benchmark_json_is_well_formed():
    spec = common.load_benchmark_spec()
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["better"] in ("lower", "higher") and UNIT.match(m["unit"])
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


@pytest.mark.parametrize("workload", ["color-grid", "hom-grid", "paper"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload(workload, trace, canned_verify):
    line, record, tr = run.run(workload, seed=3, seconds=0.2, trace=trace, sizes=TINY)
    check_line(line, trace)
    assert line["correct"] and line["failed"] == 0, record["failures"]
    assert record["env"]["seed"] == 3 and record["env"]["nproc"] >= 1
    if trace:
        named = record["named"]
        assert tr.spans and all(s["end"] >= s["start"] for s in tr.spans)
        for layer in ("tournaments", "hexgrid", "digraph", "hexcolor"):
            assert named[f"{layer}.self_s"]["value"] > 0
        # the benchmark's own witness checks are not the search layer's work
        assert named["homomorphism.validate_s"]["value"] > 0
        searched = workload != "color-grid"
        assert (named["homomorphism.self_s"]["value"] > 0) == searched
        assert (named["homomorphism.nodes"]["value"] > 0) == searched
        assert 0 < named["trace.overhead_s"]["value"] < named["hexgrid.build_s"]["value"] + 1


def test_traced_node_counts_repeat(canned_verify):
    counts = [run.run("hom-grid", 5, 0.2, True, TINY)[0]["metrics"]["homomorphism.nodes"]
              for _ in range(2)]
    assert counts[0] == counts[1] and counts[0]["value"] > 0


def test_hom_grid_reports_the_deep_probe_outside_the_counts():
    record = run.run("hom-grid", 1, 0.2, False, TINY)[1]
    assert sum(record["detail"]["probe"].values()) == 1


def test_injected_wrong_verdict_fails_and_is_incorrect(monkeypatch):
    orihex = common.import_program()
    real = orihex.homomorphism_exists

    def lying(g, t, time_budget_s=None):
        r = real(g, t, time_budget_s)
        return r if t.order == 6 else type(r)(not r.found, None, 0, 0)

    monkeypatch.setattr(orihex, "homomorphism_exists", lying)
    line, record, _ = run.run("hom-grid", 2, 0.2, False, TINY)
    assert line["failed"] > 0 and not line["correct"]
    assert record["named"]["fail_ratio"]["value"] == line["failed"] / line["attempted"]
    assert record["failures"] == {"wrong verdict": line["failed"]}


@pytest.mark.parametrize("exc", [RecursionError, MemoryError, "budget"])
def test_injected_exception_fails_but_is_not_a_verdict(monkeypatch, exc):
    orihex = common.import_program()
    real = orihex.homomorphism_exists
    calls = []
    if exc == "budget":
        exc = orihex.homomorphism.SearchBudgetExceeded

    def flaky(g, t, time_budget_s=None):
        calls.append(1)
        if len(calls) % 3 == 0:
            raise exc("injected")
        return real(g, t, time_budget_s)

    monkeypatch.setattr(orihex, "homomorphism_exists", flaky)
    line, record, _ = run.run("hom-grid", 2, 0.2, False, TINY)
    assert line["failed"] > 0 and line["correct"]
    assert record["failures"] == {exc.__name__: line["failed"]}
    assert 0 < record["named"]["fail_ratio"]["value"] < 1
    # a failed search misses every latency limit, however fast it failed
    assert record["named"]["hom_p95_s"]["value"] == workloads.HOM_BUDGET_S


def test_wrong_paper_report_fails(canned_verify):
    bad = copy.deepcopy(REPORT)
    for check in bad["checks"]:
        if check["name"] == "lower_bound_h49_t11":
            check["details"]["verdict"] = "FOUND"
    canned_verify.append(bad)
    line, record, _ = run.run("paper", 0, 0.2, False, TINY)
    assert line["failed"] == 1 and not line["correct"]
    assert any("H49->T11" in e for e in record["detail"]["errors"])


def test_invalid_paper_witness_fails(canned_verify):
    bad = copy.deepcopy(REPORT)
    for check in bad["checks"]:
        if check["name"] == "derived_hom_h49_t5":
            check["details"]["witness"] = [0] * len(check["details"]["witness"])
    canned_verify.append(bad)
    line, _, _ = run.run("paper", 0, 0.2, False, TINY)
    assert line["failed"] == 1 and not line["correct"]


def test_crashed_verify_child_fails_without_crashing(monkeypatch):
    def crash(seed, timeout_s, meter):
        time.sleep(0.05)
        raise workloads.VerifyChildFailed("exit 1: Traceback")

    monkeypatch.setattr(workloads, "run_verify_child", crash)
    line, record, _ = run.run("paper", 0, 0.2, False, TINY)
    assert line["failed"] == line["attempted"] >= 1 and line["correct"]
    assert record["failures"] == {"VerifyChildFailed": line["failed"]}
    assert line["metrics"]["op_ref_p50_s"]["value"] == workloads.VERIFY_TIMEOUT_S


def test_report_split_uses_the_check_times():
    out = workloads.Outcome()
    workloads.report_metrics(out, REPORT, verify_s=30.0)
    checks_s = sum(c["elapsed_s"] for c in REPORT["checks"])
    assert out.metrics["verify.other_s"]["value"] == pytest.approx(30.0 - checks_s)
    assert out.metrics["homomorphism.h49_t11_nodes"]["value"] == 32904485
    assert len(out.detail["searches"]) == 24


def test_reference_decider_agrees_with_the_oracle():
    orihex = common.import_program()
    grid = orihex.build_hex_grid(1, 1)
    targets = [orihex.named_tournament(f"T{i}") for i in range(1, 13)]
    for seed in range(4):
        g = orihex.random_orientation(grid.graph, seed)
        for t in targets:
            expected = orihex.brute_force_hom(g, t).found
            assert reference.hom_exists(g.n_vertices, g.arcs, t.arcs) == expected


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    with tr.span("hexcolor.outer"):
        tr.call("digraph.inner", sum, range(10000))
    selfs = tr.self_by_layer()
    total = tr.spans[0]["end"] - tr.spans[0]["start"]
    assert selfs["hexcolor"] + selfs["digraph"] == pytest.approx(total)
    assert selfs["digraph"] > 0


def _result_set(values, metric="op_ref_p50_s", failed=0, correct=True):
    runs = [{"args": {"workload": "paper", "seed": s, "trace": 0},
             "result": {"correct": correct, "attempted": 10, "failed": failed,
                        "metrics": {metric: {"value": v, "unit": "s"}}},
             "detail": {}}
            for s, v in enumerate(values)]
    spec = {"workloads": [{"name": "paper"}],
            "end_to_end": [{"name": metric, "unit": "s", "better": "lower", "bound": 0.1}]}
    return {"env": {}, "benchmark": spec, "runs": runs}


@pytest.mark.parametrize("old, new, expected", [
    ([10, 10.2, 10.1, 9.9, 10.0] * 2, [5, 5.1, 5.2, 4.9, 5.0] * 2, "improved"),
    ([10, 10.2, 10.1, 9.9, 10.0] * 2, [12, 12.1, 12.2, 11.9, 12.0] * 2, "regressed"),
    ([10, 10.2, 10.1, 9.9, 10.0] * 2, [10.1, 10.0, 10.2, 9.8, 10.0] * 2, "unchanged"),
    ([10, 14, 8, 12, 9] * 2, [13, 9, 12, 8, 14] * 2, "unresolved"),
])
def test_compare_verdicts(old, new, expected):
    lines = compare.compare(_result_set(old), _result_set(new))
    assert f"  {expected} (bound" in lines[3]


@pytest.mark.parametrize("failed, correct", [(1, True), (0, False)])
def test_compare_calls_a_faster_side_that_fails_more_regressed(failed, correct):
    old = _result_set([10, 10.2, 10.1, 9.9, 10.0] * 2)
    new = _result_set([5, 5.1, 5.2, 4.9, 5.0] * 2, failed=failed, correct=correct)
    lines = compare.compare(old, new)
    assert "  regressed (bound" in lines[3]


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(common.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_setup_probes_are_spread_through_the_run():
    ran = []

    class FakeMeter:
        def run_child(self, argv, timeout_s):
            ran.append(argv)
            return meter.ChildRun(0, "", "", 0.5, 0.4)

    probes = workloads.SetupProbes([(1, 1)], 5, FakeMeter())
    for done, total in [(0.0, 1), (0.2, 1), (0.3, 2), (0.75, 4), (1.0, 5), (1.0, 5)]:
        probes.run_due(done)
        assert len(probes.times) == len(ran) == total
    assert probes.times == [0.4] * 5 and probes.walls == [0.5] * 5


def test_meter_scales_by_the_samples_around_an_operation(monkeypatch):
    samples = iter([0.01, 0.03, 0.02])
    monkeypatch.setattr(meter, "calibration_sample", lambda: next(samples))
    m = meter.Meter()
    m.record(1.0)
    m.record(2.0)
    m.record_failed(10.0)
    m.sample()
    m.record(1.0)
    m.sample()
    factor = meter.REFERENCE_S / 0.02, meter.REFERENCE_S / 0.025
    assert list(m.scaled) == pytest.approx([10.0, factor[0], 2 * factor[0], factor[1]])
    assert m.speed() == pytest.approx(meter.REFERENCE_S / 0.02)


def test_meter_stops_a_child_for_samples_and_leaves_its_stops_out():
    m = meter.Meter()
    code = "import time\nt = time.perf_counter()\nwhile time.perf_counter() - t < 0.8: pass\nprint('done')"
    before = len(m.samples)
    start = time.perf_counter()
    done = m.run_child([sys.executable, "-c", code], timeout_s=30)
    stops = len(m.samples) - before - 2  # the samples just before and after
    assert done.returncode == 0 and done.stdout == "done\n"
    assert stops >= 2
    assert 0.8 <= done.run_s < time.perf_counter() - start - stops * min(m.samples)
    assert done.scaled_s > 0


def test_meter_kills_and_reaps_a_child_past_its_timeout():
    m = meter.Meter()
    with pytest.raises(subprocess.TimeoutExpired):
        m.run_child([sys.executable, "-c", "while True: pass"], timeout_s=0.6)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child is left, not even a zombie
