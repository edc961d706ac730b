"""One-shot verification pipeline for both directions of the statement
that the oriented chromatic number of the hexagonal grid family is 6.

Lower bound: no 5-tournament admits homomorphisms from both packaged
counterexample fixtures, so no single 5-tournament can color a grid
orientation containing both; since homomorphism nonexistence from a
subgraph lifts to every supergraph orientation containing it, every large
enough hexagonal grid needs at least 6 colors.

Upper bound: the row-sweep coloring into the packaged order-6 target is
exercised exhaustively on the one-hexagon grid and on seeded random
orientations of a larger grid (the universal claim is property-tested,
not proved, by this pipeline).

``verify_paper`` runs one table of ``(name, mandatory, inputs, fn)``
checks in order, ``fn()`` returning ``(ok, details)``; its one loop times
each ``fn()`` whole (the record's ``elapsed_s``) and applies the one
verdict rule: a mandatory check is PASS when ok and FAIL otherwise, and
any other check is INFO whatever its ok. The two summaries read the
records made before them. The overall verdict is PASS exactly when all
mandatory checks pass. A search past its budget raises SearchBudgetExceeded
out of ``verify_paper``: no verdict is reached and no report is made.
"""

from __future__ import annotations

import json
import random
import time
from functools import partial

from . import __version__
from .digraph import Record, enumerate_orientations, random_orientation
from .hexcolor import check_property1, color_hex
from .hexgrid import (
    FIXTURES,
    build_hex_grid,
    fixture_digest,
    named_fixture,
    validate_axial_fixture,
)
from .homomorphism import homomorphism_exists, search_record, validate_homomorphism
from .tournaments import (
    TOURNAMENT_BITS,
    arc_codes,
    canonical_form,
    double_score_set,
    enumerate_tournaments,
    fixture_a6,
    named_tournament,
)

SCHEMA_VERSION = 1
SOLVER_BUDGET_S = 60.0

#: sampling parameters per scale: (grid m, grid n, number of seeded orientations)
SCALES = {"small": (5, 5, 200), "full": (8, 8, 1000)}

T5_CODES = [1, 2, 3, 8, 9, 11, 14, 17, 19, 20]

#: 1-based arc list of the 18-vertex fixture, pinned independently of the
#: packaged data file.
H4_EXPECTED_ARCS = (
    (1, 2), (3, 2), (4, 3), (5, 4), (5, 6), (1, 6), (6, 7), (8, 7), (8, 9),
    (10, 9), (10, 1), (2, 11), (12, 11), (12, 13), (14, 13), (14, 3),
    (4, 15), (16, 15), (16, 17), (18, 17), (18, 5),
)


class CheckRecord(Record):
    name: str
    mandatory: bool
    verdict: str  # PASS | FAIL | INFO
    inputs: dict
    details: dict
    elapsed_s: float

    def __init__(
        self,
        name: str,
        mandatory: bool,
        verdict: str,
        inputs: dict,
        details: dict,
        elapsed_s: float,
    ):
        self.__dict__.update(
            name=name,
            mandatory=mandatory,
            verdict=verdict,
            inputs=inputs,
            details=details,
            elapsed_s=elapsed_s,
        )

    def to_dict(self) -> dict:
        # a shallow copy: json.dumps walks the nested details itself
        return {**vars(self), "elapsed_s": round(self.elapsed_s, 4)}


class VerificationReport(Record, frozen=False):
    seed: int
    scale: str
    checks: list[CheckRecord]

    def __init__(self, seed: int, scale: str, checks: list[CheckRecord] | None = None):
        self.seed = seed
        self.scale = scale
        self.checks = [] if checks is None else checks

    @property
    def overall(self) -> str:
        ok = all(c.verdict == "PASS" for c in self.checks if c.mandatory)
        return "PASS" if ok else "FAIL"

    @property
    def passed(self) -> bool:
        return self.overall == "PASS"

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "artifact": "orihex",
            "version": __version__,
            "seed": self.seed,
            "scale": self.scale,
            "overall": self.overall,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _census_check():
    census = enumerate_tournaments(5)
    named_canon = {name: canonical_form(named_tournament(name)) for name in TOURNAMENT_BITS}
    census_canon = {canonical_form(t) for t in census}
    ok = (
        len(census) == 12
        and len(set(named_canon.values())) == 12
        and set(named_canon.values()) == census_canon
    )
    return ok, {
        "classes": len(census),
        "named_forms_distinct": len(set(named_canon.values())) == 12,
        "named_forms_cover_census": set(named_canon.values()) == census_canon,
    }


def _double_score_check():
    ds = {name: double_score_set(named_tournament(name)) for name in TOURNAMENT_BITS}
    multiset_distinct = len(set(ds.values())) == 12
    as_sets = {name: tuple(sorted(set(v))) for name, v in ds.items()}
    set_distinct = len(set(as_sets.values())) == 12
    return multiset_distinct, {
        "values": {name: list(v) for name, v in ds.items()},
        "pairwise_distinct_multisets": multiset_distinct,
        "pairwise_distinct_dedup_sets": set_distinct,
    }


def _t5_codes_check():
    codes = arc_codes(named_tournament("T5"))
    return codes == T5_CODES, {"codes": codes, "expected": T5_CODES}


def _a6_degree_check():
    a6 = fixture_a6()
    details = {
        "order": a6.order,
        "arcs": len(a6.arcs),
        "min_in_degree": min(a6.in_degrees),
        "min_out_degree": min(a6.out_degrees),
    }
    return details == {"order": 6, "arcs": 15, "min_in_degree": 2, "min_out_degree": 2}, details


def _a6_path_property_check():
    with_equal = check_property1(fixture_a6(), include_equal_endpoints=True)
    without_equal = check_property1(fixture_a6(), include_equal_endpoints=False)
    return with_equal.holds, {
        "holds_including_equal_endpoints": with_equal.holds,
        "cases_including_equal_endpoints": len(with_equal.table),
        "holds_distinct_endpoints_only": without_equal.holds,
        "cases_distinct_endpoints_only": len(without_equal.table),
    }


def _fixture_check(name: str) -> tuple[bool, dict]:
    """Check the named fixture against its FIXTURES row and the lattice."""
    _, sha256, n, m = FIXTURES[name]
    fixture, digest = named_fixture(name), fixture_digest(name)
    digest_ok = digest == sha256
    counts_ok = fixture.graph.n_vertices == n and len(fixture.graph.arcs) == m
    lattice = validate_axial_fixture(fixture)
    details = {
        "digest": digest,
        "digest_ok": digest_ok,
        "n_vertices": fixture.graph.n_vertices,
        "n_arcs": len(fixture.graph.arcs),
        "counts_ok": counts_ok,
        "lattice_ok": lattice.ok,
        "lattice_violations": list(lattice.violations),
    }
    return digest_ok and counts_ok and lattice.ok, details


def _h4_integrity_check():
    ok, details = _fixture_check("H4")
    arcs_1based = tuple((u + 1, v + 1) for (u, v) in named_fixture("H4").graph.arcs)
    details["arc_list_ok"] = arcs_1based == H4_EXPECTED_ARCS
    return ok and details["arc_list_ok"], details


def _color_all(grid, orientations) -> tuple[int, int]:
    """Color each orientation with color_hex's defaults; return how many
    were tried and how many failed: color_hex raised its RuntimeError or
    ValueError, or its coloring is not a homomorphism into A6."""
    total = failures = 0
    for oriented in orientations:
        total += 1
        try:
            colors = color_hex(grid, oriented)
        except (RuntimeError, ValueError):
            failures += 1
        else:
            failures += not validate_homomorphism(oriented, fixture_a6(), colors)
    return total, failures


def _upper_bound_exhaustive():
    grid = build_hex_grid(1, 1)
    total, failures = _color_all(grid, enumerate_orientations(grid.graph))
    return failures == 0 and total == 64, {"orientations": total, "failures": failures}


def _upper_bound_sampled(seed: int, scale: str):
    m, n, trials = SCALES[scale]
    grid = build_hex_grid(m, n)
    rng = random.Random(seed)
    trial_seeds = [rng.getrandbits(32) for _ in range(trials)]
    _, failures = _color_all(grid, (random_orientation(grid.graph, s) for s in trial_seeds))
    ok = failures == 0
    details = {
        "grid": f"H_{m},{n}",
        "orientations": trials,
        "failures": failures,
        "first_trial_seeds": trial_seeds[:5],
    }
    if ok:
        details["summary"] = "upper_bound: all sampled orientations 6-colorable"
    return ok, details


def _search_check(fixture: str, target: str) -> tuple[bool, dict]:
    """Solve fixture-vs-tournament under the solver budget; ok iff the
    search proves there is no homomorphism. The details are the pair, its
    `search_record` and the solve's time; SearchBudgetExceeded propagates."""
    graph, t = named_fixture(fixture).graph, named_tournament(target)
    start = time.perf_counter()
    result = homomorphism_exists(graph, t, time_budget_s=SOLVER_BUDGET_S)
    details = {"fixture": fixture, "target": target, **search_record(graph, t, result)}
    details["elapsed_s"] = time.perf_counter() - start
    return details["verdict"] == "NONE", details


def _searches(prefix: str, mandatory: bool, pairs) -> list[tuple]:
    return [
        (f"{prefix}_{f.lower()}_{t.lower()}", mandatory, {"fixture": f, "target": t},
         partial(_search_check, f, t))
        for f, t in pairs
    ]


def _lower_bound_combined(report: VerificationReport) -> tuple[bool, dict]:
    ok = all(c.verdict == "PASS" for c in report.checks if c.name.startswith("lower_bound_"))
    return ok, {
        "summary": "lower_bound: no 5-tournament colors both H4 and H49"
        if ok else "lower_bound: refuted by a homomorphism",
        "conclusion": "every 5-coloring target is excluded by one of the two "
                      "lattice-patch orientations, so hexagonal grids containing "
                      "both need at least 6 colors" if ok else None,
        "host_grid_placement": "not constructed",
    }


def _h4_colorable(report: VerificationReport) -> tuple[bool, dict]:
    found = [c.details["target"] for c in report.checks
             if c.name.startswith("derived_hom_h4_") and c.details["verdict"] == "FOUND"]
    return bool(found), {"colorable_by": found, "colorable_with_some_5_tournament": bool(found)}


def verify_paper(seed: int = 0, scale: str = "small") -> VerificationReport:
    """Run every check and assemble the report (PASS exit means both bounds
    verified at the requested scale)."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}")
    report = VerificationReport(seed=seed, scale=scale)
    m, n, trials = SCALES[scale]
    others = [f"T{i}" for i in range(1, 13) if i != 5]
    checks = [
        ("tournament_census", True, {"order": 5}, _census_check),
        ("double_score_sets", True, {"tournaments": "T1..T12"}, _double_score_check),
        ("t5_arc_codes", True, {"tournament": "T5"}, _t5_codes_check),
        ("a6_degrees", True, {"tournament": "A6"}, _a6_degree_check),
        ("a6_path_property", True, {"tournament": "A6"}, _a6_path_property_check),
        *_searches("lower_bound", True, [("H4", "T5")] + [("H49", t) for t in others]),
        ("lower_bound_combined", True,
         {"fixtures": ["H4", "H49"], "targets": "T1..T12"},
         partial(_lower_bound_combined, report)),
        *_searches("derived_hom", False, [("H49", "T5")] + [("H4", t) for t in others]),
        ("derived_h4_colorable_order5", False, {"fixture": "H4"},
         partial(_h4_colorable, report)),
        ("fixture_h4_integrity", True, {"fixture": "H4"}, _h4_integrity_check),
        ("fixture_h49_integrity", True, {"fixture": "H49"}, partial(_fixture_check, "H49")),
        ("upper_bound_exhaustive_h11", True, {"grid": "H_1,1", "orientations": 64},
         _upper_bound_exhaustive),
        ("upper_bound_sampled", True,
         {"grid": f"H_{m},{n}", "orientations": trials, "seed": seed},
         partial(_upper_bound_sampled, seed, scale)),
    ]
    for name, mandatory, inputs, fn in checks:
        start = time.perf_counter()
        ok, details = fn()
        verdict = ("PASS" if ok else "FAIL") if mandatory else "INFO"
        report.checks.append(
            CheckRecord(name, mandatory, verdict, inputs, details, time.perf_counter() - start)
        )
    return report


def render_text(report: VerificationReport) -> str:
    """Human-readable rendering of the same records."""
    lines = []
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        lines.append(f"{c.verdict:<5} {c.name:<{width}} {c.elapsed_s:8.2f}s")
    lines.append(f"overall: {report.overall}  (seed={report.seed}, scale={report.scale})")
    return "\n".join(lines) + "\n"
