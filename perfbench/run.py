"""Run one workload of the orihex benchmark and print its metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Workloads: ``paper``, ``color-grid`` and ``hom-grid`` (see README.md in this
directory). With ``--trace 0`` the run measures the end-to-end metrics,
with tracing off; with ``--trace 1`` it records spans around every call
into the package and reports per-layer metrics. The gated times are
scaled to a reference speed of the machine (see meter.py); the process and
its children are kept on one CPU. Every metric is printed
by name with its unit and sample count; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``, holding the metrics BENCHMARK.json lists for the mode.
The full record, environment included, goes to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.

Exit status 2 when the checkout holds no ``src/orihex`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import OUT_DIR, ProgramMissing, check_program, environment, load_benchmark_spec
from common import quartiles
from meter import Meter, pin_to_one_cpu
from spans import NullTracer, Tracer, span_cost_s
from workloads import WORKLOADS, Outcome, SetupProbes, Sizes, setup


def layer_metrics(tr: Tracer, out: Outcome) -> None:
    """Per-layer metrics of a traced run, from its spans and counts."""
    incl = tr.inclusive_by_name()

    def spent(*names):
        return sum(incl.get(name, 0.0) for name in names)

    out.metric("tournaments.census_s", spent("tournaments.enumerate_tournaments"), "s")
    out.metric("hexgrid.fixture_load_s", spent("hexgrid.fixture_h4", "hexgrid.fixture_h49"), "s")
    out.metric("hexgrid.lattice_validate_s", spent("hexgrid.validate_axial_fixture"), "s")
    out.metric("hexgrid.build_s", spent("hexgrid.build_hex_grid"), "s")
    out.metric("hexcolor.path_table_s", spent("hexcolor.a6_path_table"), "s")
    color_s = spent("hexcolor.color_hex")
    vertices = tr.counts["hexcolor.vertices"]
    out.metric("hexcolor.color_s", color_s, "s")
    out.metric("hexcolor.color_vps", vertices / color_s if color_s else 0.0, "vertices/s", vertices)
    out.metric("digraph.orient_s",
               spent("digraph.random_orientation", "digraph.enumerate_orientations"), "s")
    out.metric("digraph.write_s", spent("digraph.serialize_digraph"), "s")
    out.metric("digraph.read_s", spent("digraph.parse_digraph"), "s")
    out.metric("digraph.bytes", tr.counts["digraph.bytes"], "count")
    search_s = spent("homomorphism.homomorphism_exists")
    nodes = tr.counts["homomorphism.nodes"]
    out.metric("homomorphism.search_s", search_s, "s")
    out.metric("homomorphism.nodes", nodes, "count")
    out.metric("homomorphism.nodes_per_s", nodes / search_s if search_s else 0.0, "1/s")
    out.metric("homomorphism.validate_s", spent("bench.validate"), "s")
    for layer, seconds in tr.self_by_layer().items():
        if layer not in ("verify", "cli"):  # not called in-process; see the paper report split
            out.metric(f"{layer}.self_s", seconds, "s")

    # Timing the same calls again untraced would measure the machine's
    # drift more than the spans, so the overhead is the span count times
    # the cost of one span, measured in this process.
    cost = span_cost_s()
    overhead = len(tr.spans) * cost
    out.metric("trace.spans", len(tr.spans), "count")
    out.metric("trace.span_cost_s", cost, "s")
    out.metric("trace.overhead_s", overhead, "s")
    out.metric("trace.overhead_share", overhead / (tr.traced_s() - overhead), "ratio")


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()):
    """Run one workload; returns (result line, full record, tracer)."""
    spec = load_benchmark_spec()
    tr = Tracer() if trace else NullTracer()
    out = Outcome()
    grids = sizes.grids(workload)
    meter = Meter()
    probes = SetupProbes(grids, 0 if trace else sizes.setup_repeats, meter)
    prog = setup(grids, tr)
    WORKLOADS[workload](prog, seed, seconds, sizes, tr, out, probes, meter)
    if not trace:
        out.metric("setup_s", quartiles(probes.times)[1], "s", len(probes.times))
        out.metric("setup_wall_s", quartiles(probes.walls)[1], "s", len(probes.walls))
        out.detail["setup_s_each"] = probes.times
        out.detail["setup_wall_s_each"] = probes.walls
    out.detail["calibration_s"] = meter.samples
    out.metric("fail_ratio", out.failed / out.attempted, "ratio", out.attempted)
    if trace:
        layer_metrics(tr, out)

    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = out.metrics[m["name"]]
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} is in {got['unit']}; BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    line = {
        "correct": out.wrong == 0 and not prog.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    record = {
        "env": environment(workload, seed),
        "args": {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)},
        "result": line,
        "named": out.metrics,
        "failures": dict(out.reasons),
        "setup_problems": prog.problems,
        "detail": out.detail,
    }
    return line, record, tr


def report_lines(record: dict) -> list[str]:
    env, args = record["env"], record["args"]
    lines = [
        f"# perfbench workload={args['workload']} seed={args['seed']} "
        f"seconds={args['seconds']} trace={args['trace']}",
        "# env " + " ".join(f"{k}={env[k]}" for k in ("python", "platform", "nproc", "git_sha")),
    ]
    for name, m in sorted(record["named"].items()):
        n = "" if m["n"] is None else f"n={m['n']}"
        lines.append(f"{name:<34} {m['value']:>16.6g} {m['unit']:<11} {n}")
    if record["failures"]:
        lines.append("failures: " + ", ".join(f"{k} x{v}" for k, v in record["failures"].items()))
    for problem in record["setup_problems"] + record["detail"].get("errors", []):
        lines.append(f"problem: {problem}")
    if "probe" in record["detail"]:
        lines.append("deep-grid probe (not counted above): " + ", ".join(
            f"{k} x{v}" for k, v in sorted(record["detail"]["probe"].items())))
    for name, s in record["detail"].get("searches", {}).items():
        lines.append(f"search {name:<10} {s['verdict']:<6} nodes={s['nodes']} "
                     f"elapsed_s={s['elapsed_s']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    line, record, tr = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["env"]["pinned_cpu"] = cpu

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tr.spans) + "\n")
    print("\n".join(report_lines(record)))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
