import hashlib
import itertools
import json
import random

import pytest

import orihex.homomorphism as homomorphism
from orihex.digraph import OrientedGraph, parse_digraph, random_orientation, serialize_digraph
from orihex.hexgrid import build_hex_grid, fixture_h4, fixture_h49
from orihex.homomorphism import (
    HomResult,
    SearchBudgetExceeded,
    brute_force_hom,
    chi_o,
    homomorphism_exists,
    validate_homomorphism,
)
from orihex.tournaments import (
    TOURNAMENT_BITS,
    Tournament,
    fixture_a6,
    named_tournament,
    parse_tournament,
)

THREE_CYCLE_T = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
TRANSITIVE_3 = parse_tournament("111", 3)
DIRECTED_C3 = OrientedGraph(3, ((0, 1), (1, 2), (2, 0)))


def random_graph(rng, n_max=7, arcs_max=12):
    n = rng.randint(1, n_max)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    arcs = tuple(
        (u, v) if rng.random() < 0.5 else (v, u)
        for (u, v) in pairs[: rng.randint(0, min(arcs_max, len(pairs)))]
    )
    return OrientedGraph(n, arcs)


def test_validate_single_arc():
    g = OrientedGraph(2, ((0, 1),))
    t = named_tournament("T5")
    assert t.has_arc(0, 4)
    assert validate_homomorphism(g, t, (0, 4))
    assert not validate_homomorphism(g, t, (4, 0))


def test_validate_identity_on_cycle():
    assert validate_homomorphism(DIRECTED_C3, THREE_CYCLE_T, (0, 1, 2))


def test_validate_usage_errors():
    g = OrientedGraph(2, ((0, 1),))
    t = named_tournament("T1")
    with pytest.raises(ValueError):
        validate_homomorphism(g, t, (0,))
    with pytest.raises(ValueError):
        validate_homomorphism(g, t, (0, 7))


def test_h4_admits_no_map_to_t5():
    result = homomorphism_exists(fixture_h4().graph, named_tournament("T5"))
    assert not result.found
    assert result.nodes_expanded > 0


def test_empty_target_and_empty_graph():
    assert homomorphism_exists(OrientedGraph(1, ()), Tournament(0, ())) == HomResult(
        False, None, 0, 0
    )
    assert homomorphism_exists(OrientedGraph(0, ()), Tournament(0, ())) == HomResult(
        True, (), 0, 0
    )


def test_isolated_vertices_take_color_zero_without_a_node():
    # one arc and 9,998 isolated vertices: only the arc's two ends are searched
    g = parse_digraph("10000 1\n1 2\n")
    t5 = named_tournament("T5")
    result = homomorphism_exists(g, t5)
    assert (result.found, result.nodes_expanded, result.max_depth) == (True, 2, 2)
    assert result.witness == (0, 4) + (0,) * 9998
    assert homomorphism_exists(OrientedGraph(3, ()), t5) == HomResult(True, (0, 0, 0), 0, 0)
    assert not homomorphism_exists(OrientedGraph(3, ()), Tournament(0, ())).found


def test_cycle_into_transitive_tournament_none():
    for t in (parse_tournament("1111111111", 5), parse_tournament("0000000000", 5)):
        assert not homomorphism_exists(DIRECTED_C3, t).found


def test_found_witnesses_are_valid():
    rng = random.Random(8)
    found = 0
    for _ in range(40):
        g = random_graph(rng)
        for name in ("T2", "T5", "T11"):
            t = named_tournament(name)
            result = homomorphism_exists(g, t)
            if result.found:
                found += 1
                assert validate_homomorphism(g, t, result.witness)
    assert found > 0


def test_brute_force_basics():
    t2 = parse_tournament("1", 2)
    assert brute_force_hom(OrientedGraph(2, ((0, 1),)), t2).found
    assert not brute_force_hom(DIRECTED_C3, TRANSITIVE_3).found


def test_brute_force_guard():
    # in index order H49's frontier is 19 vertices wide: 5^19 states
    with pytest.raises(ValueError, match="frontier states exceed"):
        brute_force_hom(fixture_h49().graph, named_tournament("T5"))


def test_oracle_decides_h4_fixture_verdicts():
    g = fixture_h4().graph
    for name in TOURNAMENT_BITS:
        t = named_tournament(name)
        result = brute_force_hom(g, t)
        assert result.found == homomorphism_exists(g, t).found, name
        if result.found:
            assert validate_homomorphism(g, t, result.witness)


def test_directed_hexagon_verdicts_agree():
    g = OrientedGraph(6, tuple((i, (i + 1) % 6) for i in range(6)))
    t5 = named_tournament("T5")
    assert homomorphism_exists(g, t5).found == brute_force_hom(g, t5).found


def test_oracle_agreement_sample():
    rng = random.Random(99)
    targets = [named_tournament(n) for n in TOURNAMENT_BITS]
    for _ in range(60):
        g = random_graph(rng)
        for t in targets:
            assert homomorphism_exists(g, t).found == brute_force_hom(g, t).found


def test_monotone_under_subgraphs():
    rng = random.Random(13)
    checked = 0
    while checked < 20:
        g = random_graph(rng, n_max=6, arcs_max=10)
        t = named_tournament(f"T{rng.randint(1, 12)}")
        if not homomorphism_exists(g, t).found or not g.arcs:
            continue
        keep = [a for a in g.arcs if rng.random() < 0.6]
        sub = OrientedGraph(g.n_vertices, tuple(keep))
        assert homomorphism_exists(sub, t).found
        checked += 1


def test_relabeling_invariance():
    rng = random.Random(4)
    for _ in range(25):
        g = random_graph(rng, n_max=6)
        t = named_tournament(f"T{rng.randint(1, 12)}")
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        permuted = OrientedGraph(g.n_vertices, tuple((perm[u], perm[v]) for (u, v) in g.arcs))
        assert homomorphism_exists(g, t).found == homomorphism_exists(permuted, t).found


def test_deterministic_witness():
    rng = random.Random(2)
    g = random_graph(rng, n_max=6)
    t = named_tournament("T11")
    assert homomorphism_exists(g, t) == homomorphism_exists(g, t)


def test_chi_o_values():
    assert chi_o(OrientedGraph(2, ((0, 1),))) == 2
    assert chi_o(DIRECTED_C3) == 3
    alternating_c4 = OrientedGraph(4, ((0, 1), (2, 1), (2, 3), (0, 3)))
    assert chi_o(alternating_c4) == 2
    assert chi_o(OrientedGraph(3, ())) == 1


def test_chi_o_sentinel():
    # dense blocker: a graph needing more than 1 color with k_max=1
    assert chi_o(OrientedGraph(2, ((0, 1),)), k_max=1) is None


@pytest.mark.parametrize("k_max", [0, -1])
def test_chi_o_rejects_bound_below_one(k_max):
    with pytest.raises(ValueError, match=rf"^k_max must be at least 1, got {k_max}$"):
        chi_o(OrientedGraph(2, ((0, 1),)), k_max=k_max)


def test_chi_o_budget_counts_over_the_whole_call(monkeypatch):
    budgets = []
    real = homomorphism.homomorphism_exists

    def recording(g, t, time_budget_s=None):
        budgets.append(time_budget_s)
        return real(g, t, time_budget_s=time_budget_s)

    monkeypatch.setattr(homomorphism, "homomorphism_exists", recording)
    assert chi_o(fixture_h4().graph, time_budget_s=60.0) == 5
    # the 1 + 1 + 2 + 4 tournaments of orders 1 to 4, then order 5 in
    # census order up to the second, the first that H4 maps into
    assert len(budgets) == 8 + 2
    assert 60.0 >= budgets[0] and budgets == sorted(budgets, reverse=True)
    budgets.clear()
    assert chi_o(fixture_h4().graph) == 5
    assert set(budgets) == {None}


def test_chi_o_budget_exceeded_names_the_budget():
    with pytest.raises(SearchBudgetExceeded, match=r"^time budget 1e-09s exceeded$"):
        chi_o(fixture_h49().graph, time_budget_s=1e-9)


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -float("inf"), 0, -1.0])
def test_bad_time_budget_is_rejected(budget):
    err = rf"^time budget must be a finite number of seconds above 0, got {budget}$"
    with pytest.raises(ValueError, match=err):
        homomorphism_exists(fixture_h4().graph, named_tournament("T5"), time_budget_s=budget)
    with pytest.raises(ValueError, match=err):
        chi_o(fixture_h4().graph, time_budget_s=budget)


@pytest.mark.parametrize("now", [2.0, 1.0], ids=["past", "at"])
def test_chi_o_budget_spent_between_searches(monkeypatch, now):
    # the clock passes or reads exactly chi_o's deadline before its first
    # search starts: the time left is <= 0, an exceeded budget rather than a
    # bad one, which a search given 0 s would raise
    clock = itertools.chain([0.0], itertools.repeat(now))
    monkeypatch.setattr(homomorphism, "time", type("Clock", (), {"monotonic": clock.__next__}))
    with pytest.raises(SearchBudgetExceeded, match=r"^time budget 1.0s exceeded$"):
        chi_o(fixture_h4().graph, time_budget_s=1.0)


def test_time_budget_enforced():
    # an instance the static-order search does not settle within seconds
    g = random_orientation(build_hex_grid(10, 10).graph, 1)
    with pytest.raises(SearchBudgetExceeded):
        homomorphism_exists(g, named_tournament("T5"), time_budget_s=0.05)


#: colors tried by each of the 24 fixture searches; deterministic
FIXTURE_NODES = {
    ("H4", "T1"): 0, ("H4", "T2"): 18, ("H4", "T3"): 20, ("H4", "T4"): 3,
    ("H4", "T5"): 11, ("H4", "T6"): 19, ("H4", "T7"): 10, ("H4", "T8"): 20,
    ("H4", "T9"): 18, ("H4", "T10"): 18, ("H4", "T11"): 18, ("H4", "T12"): 18,
    ("H49", "T1"): 0, ("H49", "T2"): 3, ("H49", "T3"): 4, ("H49", "T4"): 3,
    ("H49", "T5"): 135, ("H49", "T6"): 5, ("H49", "T7"): 5, ("H49", "T8"): 4,
    ("H49", "T9"): 3, ("H49", "T10"): 17, ("H49", "T11"): 700, ("H49", "T12"): 135,
}

#: the lexicographically first witness of each satisfiable fixture search,
#: one digit per vertex; the forward-checking search found the same maps
FIXTURE_WITNESSES = {
    ("H4", "T2"): "212431010401040102",
    ("H4", "T3"): "314231010401020104",
    ("H4", "T6"): "101320320432041401",
    ("H4", "T8"): "203120120314313403",
    ("H4", "T9"): "010231230223020204",
    ("H4", "T10"): "010431240224020202",
    ("H4", "T11"): "010241240221320203",
    ("H4", "T12"): "013201201321423403",
    ("H49", "T5"): "0412314231230423120412303104041201204130410310432043140412012304"
                   "12423104320423124123042104123023401204031201304014310320401423",
}


def test_fixture_searches_pinned():
    fixtures = {"H4": fixture_h4().graph, "H49": fixture_h49().graph}
    for (name, tname), nodes in FIXTURE_NODES.items():
        result = homomorphism_exists(fixtures[name], named_tournament(tname))
        assert result.nodes_expanded == nodes, (name, tname)
        expected = FIXTURE_WITNESSES.get((name, tname))
        if expected is None:
            assert not result.found, (name, tname)
        else:
            assert result.witness == tuple(int(c) for c in expected), (name, tname)


def disjoint_union(*graphs):
    arcs, offset = [], 0
    for g in graphs:
        arcs += [(u + offset, v + offset) for (u, v) in g.arcs]
        offset += g.n_vertices
    return OrientedGraph(offset, tuple(arcs))


def search_outcome_stream():
    """(found, witness, nodes_expanded, max_depth) of 1,620 searches: the
    fixtures, small random grids, deep A6 searches and disconnected graphs.
    Larger grids are searched only against A6: some H_{4,6} orientations
    already run for seconds against T3 and T6."""
    targets = [named_tournament(f"T{i}") for i in range(1, 13)] + [fixture_a6()]
    h4 = fixture_h4().graph
    seeds = random.Random(7)
    searches = [(g, t) for g in (h4, fixture_h49().graph) for t in targets]
    for m in (1, 2, 3):
        grid = build_hex_grid(m, m).graph
        for _ in range(40):
            g = random_orientation(grid, seeds.getrandbits(32))
            searches += [(g, t) for t in targets]
    for m in (10, 20):
        grid = build_hex_grid(m, m).graph
        searches += [(random_orientation(grid, seed), fixture_a6()) for seed in range(4)]
    for g in (disjoint_union(h4, h4), disjoint_union(h4, OrientedGraph(3, ()))):
        searches += [(g, t) for t in targets]
    return [
        (r.found, r.witness, r.nodes_expanded, r.max_depth)
        for r in (homomorphism_exists(g, t) for (g, t) in searches)
    ]


#: sha256 of search_outcome_stream() as JSON; any change in a verdict,
#: witness or node count over the stream changes it
SEARCH_STREAM_SHA256 = "74cbf5eaac7e616c4fdbdb8b7abcb741907fcf00ca414de6ae8d83f8d7c03285"


def test_search_outcome_stream_pinned():
    outcomes = search_outcome_stream()
    assert len(outcomes) == 1620
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == SEARCH_STREAM_SHA256


def test_deep_grid_maps_into_a6():
    # 1,920 vertices in one component: deeper than the interpreter's stack
    g = random_orientation(build_hex_grid(30, 30).graph, 1)
    a6 = fixture_a6()
    result = homomorphism_exists(g, a6, time_budget_s=60.0)
    assert result.found
    assert validate_homomorphism(g, a6, result.witness)


def test_target_order_limit():
    big = Tournament.from_arcs(17, [(u, v) for u in range(17) for v in range(u + 1, 17)])
    with pytest.raises(ValueError):
        homomorphism_exists(OrientedGraph(2, ((0, 1),)), big)


def test_components_solved_independently():
    # two disjoint directed triangles: map exists into the 3-cycle tournament
    arcs = ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))
    g = OrientedGraph(6, arcs)
    result = homomorphism_exists(g, THREE_CYCLE_T)
    assert result.found
    assert validate_homomorphism(g, THREE_CYCLE_T, result.witness)
    assert not homomorphism_exists(g, TRANSITIVE_3).found


def test_unsatisfiable_component_ends_search():
    # an out-star, searched first since its center has the highest degree,
    # then a directed 4-cycle, which the directed 3-cycle does not admit
    # although its full domains are arc consistent; once the cycle's first
    # vertex runs out of colors the search must stop, not retry the star
    star = tuple((0, i) for i in range(1, 6))
    g = OrientedGraph(10, star + ((6, 7), (7, 8), (8, 9), (9, 6)))
    result = homomorphism_exists(g, THREE_CYCLE_T)
    assert not result.found
    assert result.nodes_expanded == 1 + 5 + 3
    assert not brute_force_hom(g, THREE_CYCLE_T).found


def copy_of(g):
    return OrientedGraph(g.n_vertices, g.arcs)


def test_search_order_kept_with_the_graph():
    # the out-star first: its center has the highest degree; then the
    # 4-cycle from its lowest index, breadth-first in ascending index
    star = tuple((0, i) for i in range(1, 6))
    g = OrientedGraph(10, star + ((6, 7), (7, 8), (8, 9), (9, 6)))
    assert g.search_order == ((0, 1, 2, 3, 4, 5, 6, 7, 9, 8), frozenset({0, 6}))
    assert g.search_order is g.search_order
    for g in (fixture_h4().graph, fixture_h49().graph, DIRECTED_C3, OrientedGraph(3, ())):
        homomorphism_exists(g, named_tournament("T11"))
        order, starts = g.search_order
        assert (order, starts) == copy_of(g).search_order
        assert sorted(order) == [v for v in range(g.n_vertices) if g.neighbors[v]]
        assert isinstance(order, tuple) and isinstance(starts, frozenset)


def test_searched_graph_still_equals_an_unsearched_one():
    g = random_orientation(build_hex_grid(2, 2).graph, 3)
    fresh = copy_of(g)
    homomorphism_exists(g, named_tournament("T6"))
    assert "search_order" in vars(g) and "search_order" not in vars(fresh)
    assert g == fresh and hash(g) == hash(fresh)
    assert repr(g) == repr(fresh)
    assert "search_order" not in repr(g)


def fresh_copies(g, grid=None, seed=None):
    """New objects equal to g: from the public constructor, from the parser
    and, for a seeded grid orientation, from random_orientation again."""
    copies = [copy_of(g), parse_digraph(serialize_digraph(g))]
    if grid is not None:
        copies.append(random_orientation(grid, seed))
    return copies


def test_outcomes_same_cold_and_warm():
    # warm: after searching every target, in reverse order, first
    targets = [named_tournament(f"T{i}") for i in range(1, 13)] + [fixture_a6()]
    seeds = random.Random(11)
    cases = [(fixture_h4().graph, None, None), (fixture_h49().graph, None, None)]
    for m in (1, 2, 3):
        grid = build_hex_grid(m, m).graph
        for seed in [seeds.getrandbits(32) for _ in range(3)]:
            cases.append((random_orientation(grid, seed), grid, seed))
    for case in cases:
        cold, warm = fresh_copies(*case), fresh_copies(*case)
        for g in warm:
            for t in reversed(targets):
                homomorphism_exists(g, t)
        outcomes = {tuple(homomorphism_exists(g, t) for t in targets) for g in cold + warm}
        assert len(outcomes) == 1


def test_search_after_budget_exceeded_keeps_its_outcome():
    g = copy_of(fixture_h49().graph)
    for tname in ("T11", "T5"):
        t = named_tournament(tname)
        with pytest.raises(SearchBudgetExceeded):
            homomorphism_exists(g, t, time_budget_s=1e-9)
        result = homomorphism_exists(g, t)
        assert result.nodes_expanded == FIXTURE_NODES[("H49", tname)]
        expected = FIXTURE_WITNESSES.get(("H49", tname))
        assert result.witness == (tuple(map(int, expected)) if expected else None)
