"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with `pytest -s tests/test_acceptance.py`
to see the lines)."""

import itertools
import json
import random
import time

import pytest

from orihex.digraph import OrientedGraph, enumerate_orientations, random_orientation
from orihex.hexcolor import a6_path_table, check_property1, color_hex
from orihex.hexgrid import (
    FIXTURES,
    build_hex_grid,
    fixture_digest,
    fixture_h4,
    fixture_h49,
    named_fixture,
    validate_axial_fixture,
)
from orihex.homomorphism import (
    brute_force_hom,
    homomorphism_exists,
    validate_homomorphism,
)
from orihex.opl import export_opl_data
from orihex.tournaments import (
    TOURNAMENT_BITS,
    arc_codes,
    canonical_form,
    double_score_set,
    enumerate_tournaments,
    fixture_a6,
    named_tournament,
)

H4_EXPECTED_ARCS = (
    (1, 2), (3, 2), (4, 3), (5, 4), (5, 6), (1, 6), (6, 7), (8, 7), (8, 9),
    (10, 9), (10, 1), (2, 11), (12, 11), (12, 13), (14, 13), (14, 3),
    (4, 15), (16, 15), (16, 17), (18, 17), (18, 5),
)


def report(num, ok, text):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_tournament_census():
    start = time.perf_counter()
    census = enumerate_tournaments(5)
    named_forms = {name: canonical_form(named_tournament(name)) for name in TOURNAMENT_BITS}
    elapsed = time.perf_counter() - start
    ok = (
        len(census) == 12
        and len(set(named_forms.values())) == 12
        and set(named_forms.values()) == {canonical_form(t) for t in census}
        and elapsed < 1.0
    )
    report(1, ok, f"census of order 5 has 12 classes bijective with T1..T12 ({elapsed:.2f}s)")


def test_criterion_02_double_score_distinctness():
    start = time.perf_counter()
    values = [double_score_set(named_tournament(n)) for n in TOURNAMENT_BITS]
    elapsed = time.perf_counter() - start
    ok = len(set(values)) == 12 and elapsed < 1.0
    report(2, ok, f"double score sets pairwise distinct as sorted multisets ({elapsed:.2f}s)")


def test_criterion_03_t5_arc_codes():
    codes = arc_codes(named_tournament("T5"))
    ok = codes == [1, 2, 3, 8, 9, 11, 14, 17, 19, 20]
    report(3, ok, f"T5 arc codes are {codes}")


def test_criterion_04_a6_properties():
    start = time.perf_counter()
    a6 = fixture_a6()
    check = check_property1(a6, include_equal_endpoints=True)
    elapsed = time.perf_counter() - start
    ok = (
        a6.order == 6
        and len(a6.arcs) == 15
        and min(a6.in_degrees) == 2
        and min(a6.out_degrees) == 2
        and check.holds
        and len(check.table) == 288
        and elapsed < 1.0
    )
    report(4, ok, f"A6 complete, min degrees 2/2, path property holds on 288 cases ({elapsed:.2f}s)")


def test_criterion_05_lower_bound_h4_t5():
    start = time.perf_counter()
    result = homomorphism_exists(fixture_h4().graph, named_tournament("T5"))
    elapsed = time.perf_counter() - start
    ok = not result.found and elapsed < 1.0
    report(5, ok, f"no homomorphism H4 -> T5 ({result.nodes_expanded} nodes, {elapsed:.3f}s)")


def test_criterion_06_lower_bound_h49_all_but_t5():
    graph = fixture_h49().graph
    worst = 0.0
    ok = True
    for i in range(1, 13):
        if i == 5:
            continue
        start = time.perf_counter()
        result = homomorphism_exists(graph, named_tournament(f"T{i}"))
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if result.found or elapsed >= 60.0:
            ok = False
    report(6, ok, f"no homomorphism H49 -> Ti for i != 5 (worst check {worst:.1f}s < 60s)")


def test_criterion_07_verify_paper_combined_verdict(capsys, tmp_path):
    from orihex.cli import cli_dispatch

    out_path = tmp_path / "report.json"
    code = cli_dispatch(["verify-paper", "--seed", "0", "--scale", "small",
                         "--json", "--out", str(out_path)])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    combined = next(c for c in payload["checks"] if c["name"] == "lower_bound_combined")
    ok = (
        code == 0
        and payload["overall"] == "PASS"
        and combined["details"]["summary"]
        == "lower_bound: no 5-tournament colors both H4 and H49"
        and json.loads(out_path.read_text()) == payload
    )
    with capsys.disabled():
        report(7, ok, "verify-paper reports the combined lower bound and exits 0")


def test_criterion_08_upper_bound_property_suite():
    start = time.perf_counter()
    a6 = fixture_a6()
    table = a6_path_table()

    def all_valid_exhaustive(m, n):
        grid = build_hex_grid(m, n)
        return all(
            validate_homomorphism(o, a6, color_hex(grid, o, a6, table))
            for o in enumerate_orientations(grid.graph)
        )

    ok_a = all_valid_exhaustive(1, 1)
    grid55 = build_hex_grid(5, 5)
    ok_b = all(
        validate_homomorphism(
            o, a6, color_hex(grid55, o, a6, table)
        )
        for o in (random_orientation(grid55.graph, seed) for seed in range(200))
    )
    ok_c = all_valid_exhaustive(1, 2)
    elapsed = time.perf_counter() - start
    ok = ok_a and ok_b and ok_c and elapsed < 30.0
    report(8, ok, f"all 64 + 200 + 2048 orientations 6-colorable ({elapsed:.1f}s < 30s)")


def test_criterion_09_solver_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260809)
    targets = [named_tournament(n) for n in TOURNAMENT_BITS]
    agree = True
    for _ in range(500):
        n = rng.randint(1, 7)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        arcs = tuple(
            (u, v) if rng.random() < 0.5 else (v, u)
            for (u, v) in pairs[: rng.randint(0, min(12, len(pairs)))]
        )
        g = OrientedGraph(n, arcs)
        for t in targets:
            if homomorphism_exists(g, t).found != brute_force_hom(g, t).found:
                agree = False
    elapsed = time.perf_counter() - start
    ok = agree and elapsed < 60.0
    report(9, ok, f"500 graphs x 12 targets: solver == oracle ({elapsed:.1f}s < 60s)")


def test_criterion_10_golden_opl_export():
    from pathlib import Path

    golden = (Path(__file__).parent / "golden" / "h4_t5.dat").read_text()
    text = export_opl_data(fixture_h4().graph, named_tournament("T5"))
    ok = text == golden
    report(10, ok, "OPL data export for (H4, T5) matches the golden file byte-for-byte")


def test_criterion_11_fixture_integrity():
    h4 = fixture_h4()
    h49 = fixture_h49()
    arcs_ok = tuple((u + 1, v + 1) for (u, v) in h4.graph.arcs) == H4_EXPECTED_ARCS
    graphs = {name: named_fixture(name).graph for name in FIXTURES}
    counts_ok = set(FIXTURES) == {"H4", "H49"} and all(
        (graphs[name].n_vertices, len(graphs[name].arcs)) == (n, m)
        for name, (_, _, n, m) in FIXTURES.items()
    )
    digests_ok = all(
        fixture_digest(name) == sha256 for name, (_, sha256, _, _) in FIXTURES.items()
    )
    lattice_ok = validate_axial_fixture(h4).ok and validate_axial_fixture(h49).ok
    ok = arcs_ok and counts_ok and digests_ok and lattice_ok
    report(11, ok, "fixtures match pinned arc lists, counts, digests, lattice rules")


def test_criterion_12_derived_fact_reports():
    h4 = fixture_h4().graph
    h49 = fixture_h49().graph
    t5 = named_tournament("T5")
    ok = True
    facts = []
    result = homomorphism_exists(h49, t5)
    if result.found:
        ok = ok and validate_homomorphism(h49, t5, result.witness)
    facts.append(f"H49->T5: {'FOUND' if result.found else 'NONE'}")
    found_list = []
    for i in range(1, 13):
        if i == 5:
            continue
        t = named_tournament(f"T{i}")
        result = homomorphism_exists(h4, t)
        if result.found:
            ok = ok and validate_homomorphism(h4, t, result.witness)
            found_list.append(f"T{i}")
    facts.append(f"H4 colorable by {found_list or 'none'}")
    report(12, ok, "; ".join(facts) + " (witnesses validated)")
