"""Run the benchmark over several seeds and collect one result set.

    python3 perfbench/sweep.py --seeds 1-10 --out results.json
    python3 perfbench/sweep.py --workloads hom-grid --seeds 1-5 --out tune.json

Each run is a separate ``run.py`` process with BENCHMARK.json's
``run_seconds``; runs go seed by seed, each seed through every chosen
workload. ``--traced`` adds one ``--trace 1`` run per workload on the
first seed. The result set holds the environment and every run's full
record. The table printed at the end gives, per workload and end-to-end
metric, the median and quartiles over the seeds and the spread
(q3 - q1) / median against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, OUT_DIR, ROOT, environment, load_benchmark_spec, quartiles


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py process; its full record, with the printed last line."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    if record["result"] != line:
        raise RuntimeError(f"{workload} seed {seed}: record and printed result differ")
    return record


def spread_table(result_set: dict, spec: dict) -> list[str]:
    lines = [f"{'workload':<11} {'metric':<12} {'q1':>12} {'median':>12} {'q3':>12} "
             f"{'spread':>8} {'bound':>6}  n"]
    workloads = dict.fromkeys(r["args"]["workload"] for r in result_set["runs"])
    for workload in workloads:
        runs = [r for r in result_set["runs"]
                if r["args"]["workload"] == workload and r["args"]["trace"] == 0]
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 else "  above a third of the bound"
            lines.append(f"{workload:<11} {m['name']:<12} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} "
                         f"{spread:>8.4f} {m['bound']:>6}  {len(values)}{flag}")
    return lines


def main(argv: list[str] | None = None) -> int:
    spec = load_benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    result_set = {"env": environment("sweep", args.seeds[0]), "benchmark": spec, "runs": []}
    plan = [(w, s, 0) for s in args.seeds for w in args.workloads]
    if args.traced:
        plan += [(w, args.seeds[0], 1) for w in args.workloads]
    for workload, seed, trace in plan:
        record = run_once(workload, seed, spec["run_seconds"], trace)
        result_set["runs"].append(record)
        print(f"{workload} seed={seed} trace={trace}: {json.dumps(record['result'])}",
              flush=True)
        args.out.write_text(json.dumps(result_set, indent=1) + "\n")
    print("\n".join(spread_table(result_set, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
