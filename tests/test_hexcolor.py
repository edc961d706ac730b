import itertools
import random

import pytest

from orihex import hexcolor
from orihex.digraph import (
    OrientedGraph,
    enumerate_orientations,
    random_orientation,
)
from orihex.hexcolor import a6_path_table, check_property1, color_hex
from orihex.hexgrid import (
    HexGrid,
    build_hex_grid,
    fixture_h4,
    orientation_extending,
    place_fixture,
)
from orihex.homomorphism import validate_homomorphism
from orihex.tournaments import (
    Tournament,
    canonical_form,
    enumerate_tournaments,
    fixture_a6,
    named_tournament,
    parse_tournament,
)

A6 = fixture_a6()
THREE_CYCLE = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def test_a6_path_property_all_cases():
    check = check_property1(A6, include_equal_endpoints=True)
    assert check.holds
    assert len(check.table) == 36 * 8
    distinct_only = check_property1(A6, include_equal_endpoints=False)
    assert distinct_only.holds
    assert len(distinct_only.table) == 30 * 8


def test_reverse_transitive_five_fails():
    t = parse_tournament("0000000000", 5)
    check = check_property1(t)
    assert not check.holds
    # the out-degree-0 vertex cannot start an outward pattern
    sink = t.out_degrees.index(0)
    assert any(u == sink and pat[0] == 1 for (u, v, pat) in check.missing)


def test_three_cycle_missing_case():
    check = check_property1(THREE_CYCLE, include_equal_endpoints=False)
    assert (0, 1, (1, 1, 1)) in check.missing


def test_table_entries_replay_against_arcs():
    """Every witness of check_property1's table, whose key
    (c0 * 6 + ca) << 3 | b0 << 2 | b1 << 1 | b2 names the walk c0, x, y, ca
    and its pattern, follows A6's arcs; color_hex's table lists the same
    witnesses at those indices."""
    check = check_property1(A6, include_equal_endpoints=True)
    assert list(check.table) == list(range(288))
    table = a6_path_table()
    assert table == tuple(check.table.values()) and a6_path_table() is table
    walks = [
        (((i >> 3) // 6, x, y, (i >> 3) % 6), (i >> 2 & 1, i >> 1 & 1, i & 1))
        for i, (x, y) in enumerate(table)
    ]
    for walk, pat in walks:
        u, x, y, v = walk
        assert x != u and y != x and v != y
        for step, bit in enumerate(pat):
            a, b = walk[step], walk[step + 1]
            assert A6.has_arc(a, b) if bit else A6.has_arc(b, a)


def _reference_property1(t, include_equal_endpoints):
    """The nested-loop walk search that check_property1 replaced, kept as
    an independent reference: (holds, table items in order, missing), the
    table keyed by (u * order + v) << 3 | b0 << 2 | b1 << 1 | b2."""

    def step_ok(a, b, forward):
        return t.has_arc(a, b) if forward else t.has_arc(b, a)

    table, missing = [], []
    for u in range(t.order):
        for v in range(t.order):
            if u == v and not include_equal_endpoints:
                continue
            for pat in itertools.product((0, 1), repeat=3):
                found = None
                for x in range(t.order):
                    if x == u or not step_ok(u, x, pat[0]):
                        continue
                    for y in range(t.order):
                        if y == x or y == v:
                            continue
                        if step_ok(x, y, pat[1]) and step_ok(y, v, pat[2]):
                            found = (x, y)
                            break
                    if found:
                        break
                if found:
                    key = (u * t.order + v) << 3 | pat[0] << 2 | pat[1] << 1 | pat[2]
                    table.append((key, found))
                else:
                    missing.append((u, v, pat))
    return not missing, table, tuple(missing)


@pytest.mark.parametrize("include_equal_endpoints", [True, False])
def test_property1_matches_nested_loop_reference(include_equal_endpoints):
    targets = [A6] + [t for k in range(2, 7) for t in enumerate_tournaments(k)]
    assert len(targets) == 76
    for t in targets:
        check = check_property1(t, include_equal_endpoints)
        got = (check.holds, list(check.table.items()), check.missing)
        assert got == _reference_property1(t, include_equal_endpoints), t.bits


def test_order_guard():
    with pytest.raises(ValueError):
        check_property1(Tournament.from_arcs(1, []))


def test_single_hexagon_exhaustive():
    grid = build_hex_grid(1, 1)
    table = a6_path_table()
    for oriented in enumerate_orientations(grid.graph):
        colors = color_hex(grid, oriented, A6, table)
        assert validate_homomorphism(oriented, A6, colors)
        assert all(0 <= c < 6 for c in colors)


def test_seeded_orientations_all_grids_to_six():
    table = a6_path_table()
    for m in range(1, 7):
        for n in range(1, 7):
            grid = build_hex_grid(m, n)
            for seed in range(100):
                oriented = random_orientation(grid.graph, seed)
                colors = color_hex(grid, oriented, A6, table)
                assert validate_homomorphism(oriented, A6, colors)


def test_coloring_deterministic():
    grid = build_hex_grid(4, 3)
    oriented = random_orientation(grid.graph, 11)
    assert color_hex(grid, oriented) == color_hex(grid, oriented)


def _names_its_edges(grid, walked):
    """Each (x, y, e) names the edge it constrains: grid edge e, listed as (x, y)."""
    edges = grid.graph.arcs
    return all(edges[e] == (x, y) for (x, y, e) in walked)


def test_equal_endpoint_lookups_occur():
    """The row sweep really does hit equal anchor colors, so the table must
    cover u == v."""
    grid = build_hex_grid(5, 5)
    pairs = [step for step in grid.sweep if len(step) == 7]
    assert _names_its_edges(grid, [
        walk for (v0, v1, v2, anchor, e0, e1, e2) in pairs
        for walk in ((v0, v1, e0), (v1, v2, e1), (anchor, v2, e2))
    ])
    hits = 0
    for seed in range(30):
        colors = color_hex(grid, random_orientation(grid.graph, seed))
        hits += sum(colors[v0] == colors[anchor] for (v0, _, _, anchor, *_) in pairs)
    assert hits > 0


def test_sweep_schedule_constrains_each_edge_once():
    """For every shape up to 30 x 30: each step reads only colored vertices,
    every vertex is colored once, every grid edge is constrained by exactly
    one step, each step's edge indices name the edges it constrains as the
    grid lists them, and each pair step's anchor is the vertex above v2,
    joined to it by a vertical edge (even parity). Every step is a 3-tuple
    or a 7-tuple."""
    for m in range(1, 31):
        for n in range(1, 31):
            grid = build_hex_grid(m, n)
            colored = {0}
            walked = []  # (x, y, e) of each edge a step constrains, listed (x, y)
            for step in grid.sweep:
                if len(step) == 3:
                    v, anchor, e = step
                    reads, writes = (anchor,), (v,)
                    walked.append((anchor, v, e))
                else:
                    v0, v1, v2, anchor, e0, e1, e2 = step
                    reads, writes = (v0, anchor), (v1, v2)
                    walked += [(v0, v1, e0), (v1, v2, e1), (anchor, v2, e2)]
                    (i, j) = grid.coords[v2]
                    assert grid.coords[anchor] == (i - 1, j) and (i - 1 + j) % 2 == 0
                assert colored.issuperset(reads) and colored.isdisjoint(writes)
                colored.update(writes)
            assert len(colored) == grid.graph.n_vertices
            assert _names_its_edges(grid, walked)
            constrained = [(x, y) for (x, y, _) in walked]
            assert len(constrained) == len(set(constrained))
            assert set(constrained) == set(grid.graph.arcs)


def test_color_hex_golden():
    """Pinned colors: any change in the choices the sweep makes shows here."""
    grid = build_hex_grid(5, 5)
    assert color_hex(grid, random_orientation(grid.graph, 1)) == (
        0, 4, 0, 1, 0, 4, 2, 3, 0, 1, 2, 1, 3, 2, 3, 4, 3, 1, 5, 4, 2, 0, 1, 0,
        1, 2, 5, 1, 3, 0, 1, 3, 1, 0, 4, 0, 4, 1, 2, 1, 0, 2, 3, 2, 0, 1, 2, 2,
        3, 5, 1, 4, 0, 2, 3, 5, 0, 1, 2, 1, 0, 2, 0, 1, 2, 5, 0, 1, 5, 0,
    )
    grid = build_hex_grid(3, 4)
    assert color_hex(grid, random_orientation(grid.graph, 7)) == (
        0, 4, 2, 0, 4, 2, 3, 0, 1, 1, 2, 3, 0, 5, 1, 0, 4, 0, 4, 0, 1, 4, 2, 3,
        1, 2, 3, 1, 0, 2, 0, 4, 0, 3, 0, 5, 1, 3,
    )


def test_color_hex_rejects_mismatched_orientation():
    grid = build_hex_grid(2, 2)
    other = build_hex_grid(2, 3)
    oriented = random_orientation(other.graph, 0)
    with pytest.raises(ValueError):
        color_hex(grid, oriented)
    # drop one arc: no longer covers the edge set
    partial = OrientedGraph(
        grid.graph.n_vertices, random_orientation(grid.graph, 1).arcs[:-1]
    )
    with pytest.raises(ValueError):
        color_hex(grid, partial)


def _bad_entry_breaking_one_arc(grid):
    """An orientation of the grid, the index of the table entry its one pair
    step reads, a wrong entry for that index, and the one arc that entry
    breaks; the arc is not the orientation's last."""
    pair = grid.sweep[-1]
    assert len(pair) == 7 and all(len(step) == 3 for step in grid.sweep[:-1])
    v0, v1, v2, anchor = pair[:4]
    for oriented in enumerate_orientations(grid.graph):
        colors = list(color_hex(grid, oriented))
        arcs = oriented.arc_set
        bits = ((v0, v1) in arcs) << 2 | ((v1, v2) in arcs) << 1 | ((v2, anchor) in arcs)
        index = (colors[v0] * 6 + colors[anchor]) << 3 | bits
        for entry in itertools.product(range(6), repeat=2):
            colors[v1], colors[v2] = entry
            broken = [(u, v) for (u, v) in oriented.arcs if not A6.has_arc(colors[u], colors[v])]
            if len(broken) == 1 and broken[0] != oriented.arcs[-1]:
                return oriented, index, entry, broken[0]
    raise AssertionError("no entry breaks exactly one arc")


def test_color_hex_final_check_catches_a_bad_table_entry(monkeypatch):
    """A wrong table entry whose coloring breaks one arc makes color_hex
    raise, with that arc listed last: arcs out of edge order, so the
    orientation is read through its arc set."""
    grid = build_hex_grid(1, 1)
    oriented, index, entry, broken = _bad_entry_breaking_one_arc(grid)
    table = list(a6_path_table())
    assert table[index] != entry
    last = OrientedGraph(6, tuple(a for a in oriented.arcs if a != broken) + (broken,))
    assert last.arcs != oriented.arcs
    assert color_hex(grid, last) == color_hex(grid, oriented)
    table[index] = entry
    monkeypatch.setattr(hexcolor, "a6_path_table", lambda: tuple(table))
    with pytest.raises(RuntimeError, match=r"^internal error: coloring violates an arc$"):
        color_hex(grid, last)


def test_color_hex_rejects_unsuitable_target():
    grid = build_hex_grid(1, 1)
    oriented = random_orientation(grid.graph, 5)
    with pytest.raises(ValueError):
        color_hex(grid, oriented, parse_tournament("0000000000", 5))


def test_color_hex_colors_into_a6_only():
    """target and table take A6 and its table, as the positional call
    color_hex(grid, g, A6, a6_path_table()) passes them, and nothing else:
    not a relabeled A6, not T1 and not a dict table."""
    grid = build_hex_grid(1, 1)
    oriented = random_orientation(grid.graph, 0)
    assert color_hex(grid, oriented, A6, a6_path_table()) == color_hex(grid, oriented)
    relabeled = parse_tournament("000110100001100", 6)
    assert relabeled != A6 and canonical_form(relabeled) == canonical_form(A6)
    table = check_property1(A6).table
    for args in ((relabeled,), (named_tournament("T1"),), (A6, table), (None, table)):
        with pytest.raises(ValueError, match=r"^color_hex colors into A6 only"):
            color_hex(grid, oriented, *args)


def test_a6_path_table_refuses_a_target_without_the_path_property(monkeypatch):
    """The guard that keeps a table with holes from color_hex: built from a
    tournament without the path property, a6_path_table raises."""
    monkeypatch.setattr(hexcolor, "fixture_a6", lambda: parse_tournament("0" * 15, 6))
    a6_path_table.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"^A6 lacks the three-step path property$"):
            a6_path_table()
    finally:
        a6_path_table.cache_clear()


def test_a6_is_the_only_class_with_the_path_property():
    """color_hex's one target: among the tournaments of orders 2 to 6, only
    A6's class has the three-step path property."""
    holds = [t for k in range(2, 7) for t in enumerate_tournaments(k) if check_property1(t).holds]
    assert [canonical_form(t) for t in holds] == [canonical_form(A6)]


def test_color_hex_refuses_edges_listed_high_to_low():
    """The sweep needs each edge listed from its smaller coordinate; a grid
    that lists them the other way is refused at the first edge it looks up."""
    base = build_hex_grid(1, 1)
    reversed_edges = tuple((v, u) for (u, v) in base.graph.arcs)
    grid = HexGrid(1, 1, OrientedGraph(6, reversed_edges), base.coords)
    oriented = random_orientation(grid.graph, 3)
    assert base.coords[:2] == ((1, 1), (1, 2))
    with pytest.raises(RuntimeError, match=r"^grid graph does not list the edge \(0, 1\)$"):
        color_hex(grid, oriented)


def test_renumbered_grid_colors():
    """The sweep reads coordinates, not row-major numbers: a grid whose
    vertices are permuted and whose edges are shuffled, each still listed
    from its smaller coordinate, colors every orientation validly."""
    base = build_hex_grid(3, 4)
    rng = random.Random(0)
    perm = list(range(base.graph.n_vertices))
    rng.shuffle(perm)
    coords = [None] * len(perm)
    for v, c in enumerate(base.coords):
        coords[perm[v]] = c
    edges = [(perm[u], perm[v]) for (u, v) in base.graph.arcs]
    rng.shuffle(edges)
    grid = HexGrid(3, 4, OrientedGraph(len(perm), tuple(edges)), tuple(coords))
    for seed in range(20):
        oriented = random_orientation(grid.graph, seed)
        assert validate_homomorphism(oriented, A6, color_hex(grid, oriented))


def test_certificate_for_placed_h4():
    fixture = fixture_h4()
    host = build_hex_grid(3, 4)
    placement = place_fixture(fixture, host)
    assert placement is not None
    forced = tuple(
        (placement[u], placement[v]) for (u, v) in fixture.graph.arcs
    )
    host_orientation = orientation_extending(host, forced, seed=0)
    host_colors = color_hex(host, host_orientation)
    colors = tuple(host_colors[p] for p in placement)
    assert validate_homomorphism(fixture.graph, A6, colors)
    assert len(set(colors)) <= 6

