"""Compare the result sets of two commits, as ``sweep.py`` writes them.

    python3 perfbench/compare.py OLD.json NEW.json

For each workload it prints both sides' failed and attempted operations,
and for each of its end-to-end metrics both sides' quartiles, the share
of seed-matched pairs the new side won (ties count for neither), and a
verdict by the rule of the choosing-metrics guide:

- regressed, whatever the timings: the new side failed a larger share of
  its operations than the old side, or one of its runs was incorrect (a
  gain does not count when more operations fail);
- improved: the new side won at least nine tenths of the pairs, and the
  medians differ by more than the old side's spread (q3 - q1);
- unresolved: otherwise, when the old side's spread, as a share of its
  median, is wider than the metric's bound, unless every new run reads
  better than every old run;
- regressed: the new median is worse than the old one by more than the
  bound, as a share of the old median;
- unchanged: anything else.

Exact counts the runs recorded (the node count of every paper search and
each traced run's per-layer counts) are listed where they differ.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import quartiles


def verdict(old: list[float], new: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, float]:
    """(verdict, share of pairs won by the new side)."""
    sign = 1 if better == "lower" else -1  # sign * (old - new) > 0: new is better
    wins = sum(1 for o, n in pairs if sign * (o - n) > 0)
    share = wins / len(pairs) if pairs else 0.0
    q1, med_old, q3 = quartiles(old)
    med_new = quartiles(new)[1]
    gain = sign * (med_old - med_new)
    if share >= 0.9 and gain > q3 - q1:
        return "improved", share
    all_better = all(sign * (o - n) > 0 for o in old for n in new)
    if (q3 - q1) / abs(med_old) > bound and not all_better:
        return "unresolved", share
    if -gain / abs(med_old) > bound:
        return "regressed", share
    return "unchanged", share


def untraced_by_seed(result_set: dict, workload: str) -> dict[int, dict]:
    return {r["args"]["seed"]: r for r in result_set["runs"]
            if r["args"]["workload"] == workload and r["args"]["trace"] == 0}


def failures(runs) -> tuple[int, int, int]:
    """(failed, attempted, incorrect runs) summed over runs."""
    runs = list(runs)
    return (sum(r["result"]["failed"] for r in runs),
            sum(r["result"]["attempted"] for r in runs),
            sum(not r["result"]["correct"] for r in runs))


def compare(old_set: dict, new_set: dict) -> list[str]:
    spec = new_set["benchmark"]
    lines = [f"old {old_set['env'].get('git_sha')}  new {new_set['env'].get('git_sha')}",
             f"{'workload':<11} {'metric':<12} {'old q1/median/q3':>36} "
             f"{'new q1/median/q3':>36} {'won':>5}  verdict"]
    for w in spec["workloads"]:
        old, new = untraced_by_seed(old_set, w["name"]), untraced_by_seed(new_set, w["name"])
        if not old or not new:
            continue
        common = sorted(set(old) & set(new))
        if common:
            run_pairs = [(old[s], new[s]) for s in common]
        else:  # no shared seeds: pair the runs in the order they were made
            run_pairs = list(zip(old.values(), new.values()))
        (of, oa, _), (nf, na, n_wrong) = failures(old.values()), failures(new.values())
        more_failures = nf / na > of / oa or n_wrong > 0
        lines.append(f"{w['name']:<11} failed: old {of}/{oa}, new {nf}/{na}, "
                     f"{n_wrong} incorrect new runs")
        for m in spec["end_to_end"]:
            def values(runs):
                return [r["result"]["metrics"][m["name"]]["value"] for r in runs]

            o, n = values(old.values()), values(new.values())
            pairs = [(a["result"]["metrics"][m["name"]]["value"],
                      b["result"]["metrics"][m["name"]]["value"]) for a, b in run_pairs]
            label, share = verdict(o, n, pairs, m["better"], m["bound"])
            if more_failures:
                label = "regressed"
            fmt = "{:>11.5g} {:>11.5g} {:>11.5g}"
            lines.append(f"{w['name']:<11} {m['name']:<12} {fmt.format(*quartiles(o)):>36} "
                         f"{fmt.format(*quartiles(n)):>36} {share:>5.2f}  {label} "
                         f"(bound {m['bound']}, {len(o)} vs {len(n)} runs)")
    lines += count_changes(old_set, new_set)
    return lines


def count_changes(old_set: dict, new_set: dict) -> list[str]:
    def counts(result_set):
        found = {}
        for r in result_set["runs"]:
            w = r["args"]["workload"]
            for name, s in r["detail"].get("searches", {}).items():
                found.setdefault(f"{w} nodes {name}", s["nodes"])
            if r["args"]["trace"] == 1:
                for name, m in r["result"]["metrics"].items():
                    if m["unit"] == "count":
                        found.setdefault(f"{w} seed {r['args']['seed']} {name}", m["value"])
        return found

    old, new = counts(old_set), counts(new_set)
    changed = [f"count {k}: {old[k]} -> {new[k]}" for k in sorted(set(old) & set(new))
               if old[k] != new[k]]
    return changed or ["counts: no recorded count changed"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    old_set = json.loads(args.old.read_text())
    new_set = json.loads(args.new.read_text())
    print("\n".join(compare(old_set, new_set)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
