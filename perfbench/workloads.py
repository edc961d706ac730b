"""Set-up and the three workloads.

Each workload is a closed loop with one client in this process: the next
operation starts when the previous one has ended. ``paper`` runs its
operation in one child interpreter at a time. Inputs come from the seed
alone and are made before the timed calls; every output is checked after
its timed call, and checking time is never counted. Every operation's time
also goes to a ``meter.Meter``, which scales it to the reference speed of
the machine; the gated metrics are read from the scaled times.

An operation fails when it raises (RecursionError, MemoryError and
SearchBudgetExceeded included), exceeds a budget, or returns a wrong
output; a wrong output also makes the run incorrect. A failed operation
misses every latency limit: its latency is recorded as the workload's
budget, never as the time it took to fail.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import resource
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

import reference
from common import BENCH_DIR, import_program, percentile, quartiles
from meter import Meter
from spans import NullTracer

TOURNAMENT_NAMES = tuple(f"T{i}" for i in range(1, 13)) + ("A6",)

#: the 24 fixture searches, in the order ``verify_paper`` runs them
PAPER_SEARCHES = tuple(reference.PAPER_VERDICTS)

#: per-search budget of the traced paper run, the one ``verify_paper`` uses
PAPER_SEARCH_BUDGET_S = 60.0

#: the colorings ``verify-paper --scale small`` checks: every orientation of
#: the first grid, and seeded random orientations of the second
PAPER_EXHAUSTIVE_GRID = (1, 1)
PAPER_SAMPLED = ((5, 5), 200)

#: a verify run takes 20-36 s at the seed commit
VERIFY_TIMEOUT_S = 100.0

#: the latency recorded for a failed color-grid operation, which takes
#: about 0.3 s at the seed commit
COLOR_LIMIT_S = 10.0

#: hom-grid's small grid, and the budget of each of its searches
HOM_SMALL_GRID = (2, 2)
HOM_BUDGET_S = 10.0


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; tests shrink it."""

    setup_repeats: int = 15
    paper_searches: tuple = PAPER_SEARCHES
    color_grids: tuple = ((50, 50), (100, 100))
    color_trace_ops: int = 4
    hom_small_count: int = 512
    hom_deep: tuple = (((10, 10), 32), ((20, 20), 16))
    hom_probe: tuple = (((30, 30), 2),)

    def grids(self, workload: str) -> tuple:
        """Grids the workload's set-up builds."""
        if workload == "paper":
            return (PAPER_EXHAUSTIVE_GRID, PAPER_SAMPLED[0])
        if workload == "color-grid":
            return tuple(self.color_grids)
        return (HOM_SMALL_GRID,) + tuple(mn for (mn, _) in self.hom_deep + self.hom_probe)


@dataclass
class Program:
    """orihex after set-up: the package and what the workloads reuse."""

    api: object
    fixtures: dict
    targets: dict
    table: dict
    grids: dict
    problems: list[str]


@dataclass
class Outcome:
    """Counts, metrics and details of one run of one workload."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: Counter = field(default_factory=Counter)
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        self.reasons[reason] += 1

    def metric(self, name: str, value, unit: str, n: int | None = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "n": n}


def setup(grids, tr=NullTracer()) -> Program:
    """Make a fresh interpreter ready: import orihex, run the order-5
    census, load and validate both fixtures, build the A6 path table and
    the grids the workload uses."""
    with tr.span("setup.import"):
        api = import_program()
        from orihex import hexcolor

    census = tr.call("tournaments.enumerate_tournaments", api.enumerate_tournaments, 5)
    targets = {
        name: tr.call("tournaments.named_tournament", api.named_tournament, name)
        for name in TOURNAMENT_NAMES
    }
    fixtures = {
        "H4": tr.call("hexgrid.fixture_h4", api.fixture_h4),
        "H49": tr.call("hexgrid.fixture_h49", api.fixture_h49),
    }
    lattice = {
        name: tr.call("hexgrid.validate_axial_fixture", api.validate_axial_fixture, fx)
        for name, fx in fixtures.items()
    }
    table = tr.call("hexcolor.a6_path_table", hexcolor.a6_path_table)
    built = {mn: tr.call("hexgrid.build_hex_grid", api.build_hex_grid, *mn) for mn in grids}

    problems = []
    if len(census) != 12:
        problems.append(f"census found {len(census)} classes of 5-tournaments, not 12")
    for name, (n, m) in {"H4": (18, 21), "H49": (126, 174)}.items():
        g = fixtures[name].graph
        if (g.n_vertices, len(g.arcs)) != (n, m):
            problems.append(f"{name} has {g.n_vertices} vertices and {len(g.arcs)} arcs")
        if not lattice[name].ok:
            problems.append(f"{name} fails lattice validation")
    return Program(api, fixtures, targets, table, built, problems)


SETUP_PROBE = (
    "import sys; sys.path.insert(0, {bench!r}); import workloads; workloads.setup({grids!r})"
)


class SetupProbes:
    """Set-up timed in fresh interpreters, spread evenly through a run.

    The machine's speed changes every few seconds, so probes made back to
    back would all land in one spell of it. A workload calls ``run_due``
    between operations with the share of the run done so far; the probes
    whose turn has come run then, the first one before the first operation.
    ``times`` holds each probe's time at the reference speed, ``walls`` its
    wall time.
    """

    def __init__(self, grids, repeats: int, meter: Meter):
        self.argv = [sys.executable, "-c",
                     SETUP_PROBE.format(bench=str(BENCH_DIR), grids=tuple(grids))]
        self.due = [k / max(repeats - 1, 1) for k in range(repeats)]
        self.meter = meter
        self.times: list[float] = []
        self.walls: list[float] = []

    def run_due(self, done: float) -> None:
        while len(self.times) < len(self.due) and self.due[len(self.times)] <= done:
            probe = self.meter.run_child(self.argv, timeout_s=60)
            if probe.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
            self.times.append(probe.scaled_s)
            self.walls.append(probe.run_s)


def _validated(prog: Program, tr, g, t, phi) -> bool:
    """The benchmark's check of a witness or coloring; never raises. Its
    span is the benchmark's, so that it adds nothing to the homomorphism
    layer's self time."""
    try:
        return tr.call("bench.validate", prog.api.validate_homomorphism, g, t, phi)
    except (TypeError, ValueError):  # no witness, or one of the wrong shape
        return False


def _settle() -> None:
    """Collect garbage and keep the objects made so far (the program's
    set-up and the benchmark's inputs) out of later collections, so that
    collection pauses in timed calls depend on what the calls allocate."""
    gc.collect()
    gc.freeze()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _op_metric(out: Outcome, meter: Meter) -> None:
    """The gated latency: the median operation time at the reference speed."""
    meter.sample()
    out.metric("op_ref_p50_s", quartiles(meter.scaled)[1], "s", len(meter.scaled))
    out.metric("machine_speed", meter.speed(), "ratio", len(meter.samples))


# --- paper ---------------------------------------------------------------

VERIFY_CHILD = (
    "import atexit, resource, sys\n"
    "atexit.register(lambda: print('maxrss_kb', resource.getrusage("
    "resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr))\n"
    "from orihex.cli import main\n"
    "main()\n"
)


class VerifyChildFailed(RuntimeError):
    pass


def run_verify_child(seed: int, timeout_s: float, meter: Meter) -> tuple[float, float, dict, float]:
    """One ``orihex verify-paper --scale small --json`` child: its time from
    start to exit, in wall seconds and at the reference speed, its report
    and its peak resident memory in MB."""
    done = meter.run_child([sys.executable, "-c", VERIFY_CHILD, "verify-paper", "--scale",
                            "small", "--json", "--seed", str(seed)], timeout_s)
    if done.returncode not in (0, 1):
        raise VerifyChildFailed(f"exit {done.returncode}: {done.stderr[-2000:]}")
    rss_kb = [line.split()[1] for line in done.stderr.splitlines()
              if line.startswith("maxrss_kb ")]
    if not rss_kb:
        raise VerifyChildFailed("child did not report its peak memory")
    try:
        report = json.loads(done.stdout)
    except json.JSONDecodeError as exc:
        raise VerifyChildFailed(f"report is not JSON: {exc}") from exc
    return done.run_s, done.scaled_s, report, int(rss_kb[-1]) / 1024


def _search_record_name(fixture: str, target: str) -> str:
    if (fixture, target) == ("H49", "T5") or (fixture == "H4" and target != "T5"):
        return f"derived_hom_{fixture.lower()}_{target.lower()}"
    return f"lower_bound_{fixture.lower()}_{target.lower()}"


def check_report(prog: Program, report: dict, tr=NullTracer()) -> list[str]:
    """Problems with a verify-paper report: overall verdict, the verdict
    table, and every FOUND witness re-validated here."""
    problems = []
    if report.get("overall") != "PASS":
        problems.append(f"overall is {report.get('overall')!r}, not PASS")
    checks = {c["name"]: c for c in report.get("checks", [])}
    for (fixture, target), expected in reference.PAPER_VERDICTS.items():
        rec = checks.get(_search_record_name(fixture, target))
        if rec is None:
            problems.append(f"no record of {fixture}->{target}")
            continue
        got = rec["details"].get("verdict")
        if got != expected:
            problems.append(f"{fixture}->{target}: {got}, expected {expected}")
        elif got == "FOUND":
            g, t = prog.fixtures[fixture].graph, prog.targets[target]
            if not _validated(prog, tr, g, t, rec["details"].get("witness") or ()):
                problems.append(f"{fixture}->{target}: witness is not a homomorphism")
    return problems


def report_metrics(out: Outcome, report: dict, verify_s: float) -> None:
    """Per-search node counts and the verify layer's split of one report."""
    checks = {c["name"]: c for c in report["checks"]}
    searches = {}
    for fixture, target in PAPER_SEARCHES:
        rec = checks.get(_search_record_name(fixture, target))
        if rec is not None:
            searches[f"{fixture}->{target}"] = {
                "verdict": rec["details"].get("verdict"),
                "nodes": rec["details"].get("nodes_expanded"),
                "elapsed_s": rec["elapsed_s"],
            }
    out.detail["searches"] = searches
    t11 = searches.get("H49->T11")
    if t11:
        out.metric("homomorphism.h49_t11_nodes", t11["nodes"], "count")
        out.metric("homomorphism.h49_t11_s", t11["elapsed_s"], "s")

    def total(prefixes):
        return sum(c["elapsed_s"] for n, c in checks.items() if n.startswith(prefixes))

    lower = total(("lower_bound_", "derived_"))
    upper = total(("upper_bound_",))
    checked = total(("",))
    out.metric("verify.lower_bound_s", lower, "s")
    out.metric("verify.upper_bound_s", upper, "s")
    out.metric("verify.other_checks_s", checked - lower - upper, "s")
    out.metric("verify.other_s", verify_s - checked, "s")


def paper(prog: Program, seed: int, seconds: float, sizes: Sizes, tr, out: Outcome,
          probes: SetupProbes, meter: Meter) -> None:
    walls, rss = [], []
    report = None
    # Verify runs follow each other until they have taken the run's seconds;
    # at the seed commit one run takes longer than that. A traced run makes
    # one, for the verify layer's split.
    while not walls or (not tr.traced and sum(walls) < seconds):
        probes.run_due(sum(walls) / seconds)
        out.attempted += 1
        try:
            wall, scaled, report_i, rss_mb = run_verify_child(seed, VERIFY_TIMEOUT_S, meter)
        except (VerifyChildFailed, subprocess.TimeoutExpired) as exc:
            walls.append(VERIFY_TIMEOUT_S)
            meter.record_failed(VERIFY_TIMEOUT_S)
            out.fail(type(exc).__name__)
            out.detail.setdefault("errors", []).append(str(exc)[-2000:])
            continue
        rss.append(rss_mb)
        try:
            problems = check_report(prog, report_i, tr)
        except (AttributeError, KeyError, TypeError) as exc:
            problems = [f"malformed report: {exc!r}"]
        if problems:
            walls.append(VERIFY_TIMEOUT_S)
            meter.record_failed(VERIFY_TIMEOUT_S)
            out.fail("wrong report", wrong=True)
            out.detail.setdefault("errors", []).extend(problems)
            continue
        walls.append(wall)
        meter.scaled.append(scaled)
        if report is None:
            report = report_i
            report_metrics(out, report, wall)
    probes.run_due(1.0)
    _op_metric(out, meter)
    out.metric("verify_s", quartiles(walls)[1], "s", len(walls))
    out.detail["verify_s_each"] = walls
    out.detail["verify_ref_s_each"] = list(meter.scaled)
    out.metric("peak_rss_mb", max(rss) if rss else _peak_rss_mb(), "MB", len(rss))
    if tr.traced:
        traced_paper(prog, seed, out, tr, sizes)


def traced_paper(prog: Program, seed: int, out: Outcome, tr, sizes: Sizes) -> None:
    """Call in turn what ``verify_paper`` calls (the census and fixtures
    were traced in set-up): the fixture searches, then the colorings."""
    api = prog.api
    for op, (fixture, target) in enumerate(sizes.paper_searches):
        g, t = prog.fixtures[fixture].graph, prog.targets[target]
        out.attempted += 1
        with tr.operation(op):
            try:
                r = tr.call("homomorphism.homomorphism_exists", api.homomorphism_exists,
                            g, t, time_budget_s=PAPER_SEARCH_BUDGET_S)
            except Exception as exc:  # any exception fails the search, never reads as NONE
                out.fail(type(exc).__name__)
                continue
            tr.count("homomorphism.nodes", r.nodes_expanded)
            if (fixture, target) == ("H49", "T11"):
                out.metric("homomorphism.h49_t11_nodes", r.nodes_expanded, "count")
            expected = reference.PAPER_VERDICTS[(fixture, target)]
            if ("FOUND" if r.found else "NONE") != expected or (
                r.found and not _validated(prog, tr, g, t, r.witness)
            ):
                out.fail("wrong verdict", wrong=True)

    a6 = prog.targets["A6"]
    small = prog.grids[PAPER_EXHAUSTIVE_GRID]
    cases = [(small, g) for g in tr.call(
        "digraph.enumerate_orientations", lambda: list(api.enumerate_orientations(small.graph)))]
    grid_mn, trials = PAPER_SAMPLED
    grid = prog.grids[grid_mn]
    rng = random.Random(seed)  # the same orientation seeds verify_paper draws
    for s in [rng.getrandbits(32) for _ in range(trials)]:
        cases.append((grid, tr.call("digraph.random_orientation",
                                    api.random_orientation, grid.graph, s)))
    for op, (grid_i, g) in enumerate(cases, start=len(sizes.paper_searches)):
        out.attempted += 1
        with tr.operation(op):
            try:
                colors = tr.call("hexcolor.color_hex", api.color_hex, grid_i, g, a6, prog.table)
            except Exception as exc:
                out.fail(type(exc).__name__)
                continue
            tr.count("hexcolor.vertices", g.n_vertices)
            if not _validated(prog, tr, g, a6, colors):
                out.fail("invalid coloring", wrong=True)


# --- color-grid ----------------------------------------------------------

def color_op(prog: Program, grid, seed: int, tr) -> tuple[dict, tuple]:
    """generate -> write -> read -> color on one grid; stage times and outputs."""
    api = prog.api
    t0 = time.perf_counter()
    g = tr.call("digraph.random_orientation", api.random_orientation, grid.graph, seed)
    t1 = time.perf_counter()
    text = tr.call("digraph.serialize_digraph", api.serialize_digraph, g)
    t2 = time.perf_counter()
    parsed = tr.call("digraph.parse_digraph", api.parse_digraph, text)
    t3 = time.perf_counter()
    colors = tr.call("hexcolor.color_hex", api.color_hex, grid, parsed, prog.targets["A6"],
                     prog.table)
    t4 = time.perf_counter()
    size = len(text.encode())
    tr.count("hexcolor.vertices", grid.graph.n_vertices)
    tr.count("digraph.bytes", size)
    stages = {"orient": t1 - t0, "write": t2 - t1, "read": t3 - t2, "color": t4 - t3,
              "total": t4 - t0, "bytes": size}
    return stages, (g, parsed, colors)


def color_problems(prog: Program, tr, g, parsed, colors) -> list[str]:
    problems = []
    if parsed != g:
        problems.append("parsed graph differs from the written one")
    if not _validated(prog, tr, parsed, prog.targets["A6"], colors):
        problems.append("coloring is not a homomorphism into A6")
    return problems


def color_grid(prog: Program, seed: int, seconds: float, sizes: Sizes, tr, out: Outcome,
               probes: SetupProbes, meter: Meter) -> None:
    grids = [(mn, prog.grids[mn]) for mn in sizes.color_grids]
    _settle()
    traced = tr.traced
    rng = random.Random(seed)
    busy = 0.0
    per_grid = {mn: Counter() for mn, _ in grids}
    # a traced run makes a fixed number of operations, so its counts repeat exactly
    while out.attempted < sizes.color_trace_ops if traced else busy < seconds:
        meter.tick()
        probes.run_due(busy / seconds)
        seeds = [rng.getrandbits(32) for _ in grids]
        out.attempted += 1
        with tr.operation(out.attempted - 1):
            start = time.perf_counter()
            try:
                results = [(mn, *color_op(prog, grid, s, tr))
                           for (mn, grid), s in zip(grids, seeds)]
            except Exception as exc:  # a failed operation, not a crashed benchmark
                busy += time.perf_counter() - start
                meter.record_failed(COLOR_LIMIT_S)
                out.fail(type(exc).__name__)
                continue
            wall = time.perf_counter() - start
            busy += wall
            problems = []
            for mn, stages, outputs in results:
                problems += color_problems(prog, tr, *outputs)
            if problems:
                meter.record_failed(COLOR_LIMIT_S)
                out.fail("wrong output", wrong=True)
                out.detail.setdefault("errors", []).extend(problems[:5])
                continue
            meter.record(wall)
            for mn, stages, _ in results:
                per_grid[mn].update(stages)
                per_grid[mn]["ops"] += 1

    probes.run_due(1.0)
    _op_metric(out, meter)
    out.metric("peak_rss_mb", _peak_rss_mb(), "MB")
    for (m, n), grid in grids:
        c = per_grid[(m, n)]
        if c["ops"]:
            vertices = grid.graph.n_vertices * c["ops"]
            out.metric(f"color_vps_h{m}" if m == n else f"color_vps_h{m}x{n}",
                       vertices / c["total"], "vertices/s", c["ops"])
    totals = sum(per_grid.values(), Counter())
    out.detail["stage_s"] = {k: totals[k] for k in ("orient", "write", "read", "color", "total")}
    out.detail["bytes_written"] = totals["bytes"]


# --- hom-grid ------------------------------------------------------------

def hom_inputs(prog: Program, seed: int, sizes: Sizes, tr) -> list[tuple]:
    """(graph, target name) for every search, in a seeded order."""
    api = prog.api
    rng = random.Random(seed)
    small = prog.grids[HOM_SMALL_GRID]
    cases = []
    for _ in range(sizes.hom_small_count):
        g = tr.call("digraph.random_orientation", api.random_orientation, small.graph,
                    rng.getrandbits(32))
        cases += [(g, name) for name in TOURNAMENT_NAMES]
    for (m, n), count in sizes.hom_deep:
        for _ in range(count):
            g = tr.call("digraph.random_orientation", api.random_orientation,
                        prog.grids[(m, n)].graph, rng.getrandbits(32))
            cases.append((g, "A6"))
    rng.shuffle(cases)
    return cases


def hom_search(prog: Program, case, tr, out: Outcome):
    """Time one search; returns (seconds, result or None when it raised)."""
    g, name = case
    start = time.perf_counter()
    try:
        r = tr.call("homomorphism.homomorphism_exists", prog.api.homomorphism_exists,
                    g, prog.targets[name], time_budget_s=HOM_BUDGET_S)
    except Exception as exc:  # RecursionError, MemoryError, budget: failed, never NONE
        elapsed = time.perf_counter() - start
        out.fail(type(exc).__name__)
        return elapsed, None
    return time.perf_counter() - start, r


def hom_verdict_ok(prog: Program, case, r, tr) -> bool:
    """A FOUND verdict holds when its witness validates. A NONE verdict
    against A6 is wrong, since A6 colors every grid orientation; any other
    NONE must agree with the reference decider."""
    g, name = case
    t = prog.targets[name]
    if r.found:
        return _validated(prog, tr, g, t, r.witness)
    return name != "A6" and not reference.hom_exists(g.n_vertices, g.arcs, t.arcs)


def hom_grid(prog: Program, seed: int, seconds: float, sizes: Sizes, tr, out: Outcome,
             probes: SetupProbes, meter: Meter) -> None:
    traced = tr.traced
    cases = hom_inputs(prog, seed, sizes, tr)
    _settle()
    checked_none: dict[int, bool] = {}  # each input's NONE verdict is checked once
    latencies = array("d")  # compact, so that peak memory hardly grows with the run's length
    timed = 0.0
    # a traced run makes one pass over the inputs, so its node counts repeat exactly
    for i, case in enumerate(cases if traced else itertools.cycle(cases)):
        if not traced and timed >= seconds:
            break
        meter.tick()
        probes.run_due(timed / seconds)
        out.attempted += 1
        with tr.operation(i):
            elapsed, r = hom_search(prog, case, tr, out)
            timed += elapsed
            if r is not None:
                tr.count("homomorphism.nodes", r.nodes_expanded)
                if r.found:
                    ok = hom_verdict_ok(prog, case, r, tr)
                else:
                    j = i % len(cases)
                    if j not in checked_none:
                        checked_none[j] = hom_verdict_ok(prog, case, r, tr)
                    ok = checked_none[j]
                if not ok:
                    out.fail("wrong verdict", wrong=True)
                    r = None
            if r is not None:
                latency = elapsed
                meter.record(elapsed)
            else:
                latency = HOM_BUDGET_S
                meter.record_failed(HOM_BUDGET_S)
            latencies.append(latency)

    # before the statistics below, whose sorted copies of the latencies would
    # make peak memory grow with the number of searches
    out.metric("peak_rss_mb", _peak_rss_mb(), "MB")
    probes.run_due(1.0)
    n = len(latencies)
    _op_metric(out, meter)
    out.metric("hom_p50_s", quartiles(latencies)[1], "s", n)
    out.metric("hom_p95_s", percentile(latencies, 95), "s", n)
    out.metric("hom_p99_s", percentile(latencies, 99), "s", n)
    out.metric("hom_ops_per_s", (out.attempted - out.failed) / timed, "1/s", n)
    out.detail["probe"] = hom_probe(prog, seed, sizes)


def hom_probe(prog: Program, seed: int, sizes: Sizes) -> dict:
    """Searches on grids too deep for a recursive search, against A6.

    At the seed commit these raise RecursionError. They run outside the
    timed loop and outside the run's operation counts, so that the loop
    holds only operations that succeed; their outcomes are reported here.
    """
    rng = random.Random(seed ^ 0x5EED)
    outcomes = Counter()
    for (m, n), count in sizes.hom_probe:
        grid = prog.grids[(m, n)]
        for _ in range(count):
            g = prog.api.random_orientation(grid.graph, rng.getrandbits(32))
            try:
                r = prog.api.homomorphism_exists(g, prog.targets["A6"],
                                                 time_budget_s=HOM_BUDGET_S)
            except Exception as exc:
                outcomes[f"H{m},{n} {type(exc).__name__}"] += 1
                continue
            ok = r.found and prog.api.validate_homomorphism(g, prog.targets["A6"], r.witness)
            outcomes[f"H{m},{n} {'FOUND' if ok else 'wrong'}"] += 1
    return dict(outcomes)


WORKLOADS = {"paper": paper, "color-grid": color_grid, "hom-grid": hom_grid}
