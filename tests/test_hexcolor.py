import itertools

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
    hex_row_span,
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
    return [edges[e] for (_, _, e) in walked] == [(x, y) for (x, y, _) in walked]


def _reference_sweep(grid):
    """The sweep built by coordinate lookups, kept as the reference for
    HexGrid.sweep: every step's vertices are looked up in the grid's
    coordinate index and its edges in a dict over the grid's arcs. Greedy
    steps (v, anchor, e) and pair steps (v0, v1, v2, anchor, e0, e1, e2),
    in sweep order."""
    index, edges = grid.index, grid.graph.arcs
    at = dict(zip(edges, range(len(edges))))

    def above(i, j):
        # (i-1, j) has an edge down to (i, j) exactly when i-1+j is even
        return index.get((i - 1, j)) if (i - 1 + j) % 2 == 0 else None

    def edge(u, v):
        e = at.get((u, v))
        if e is None:
            raise RuntimeError(f"grid graph does not list the edge ({u}, {v})")
        return e

    def greedy(v, a):
        return v, a, edge(a, v)

    lo, hi = hex_row_span(grid.m, grid.n, 1)
    steps = [greedy(index[(1, j)], index[(1, j - 1)]) for j in range(lo + 1, hi + 1)]
    for i in range(2, grid.m + 2):
        lo, hi = hex_row_span(grid.m, grid.n, i)
        anchor = above(i, lo)
        if anchor is None:
            raise RuntimeError("row start has no anchor above")
        steps.append(greedy(index[(i, lo)], anchor))
        j = lo
        while j + 2 <= hi and (anchor := above(i, j + 2)) is not None:
            v0, v1, v2 = index[(i, j)], index[(i, j + 1)], index[(i, j + 2)]
            steps.append((v0, v1, v2, anchor, edge(v0, v1), edge(v1, v2), edge(anchor, v2)))
            j += 2
        for j in range(j + 1, hi + 1):
            if above(i, j) is not None:
                raise RuntimeError("tail vertex unexpectedly anchored above")
            steps.append(greedy(index[(i, j)], index[(i, j - 1)]))
    return tuple(steps)


def _expand(grid):
    """grid.sweep as its steps, in sweep order: row 1's greedy steps, then
    per later row its head, its pair steps and its tail. A row's slices
    read the vertex and edge numbers, range(N)[s], as color_hex reads the
    colors and the edge directions."""
    first, rows = grid.sweep
    vertices, edges = range(grid.graph.n_vertices), range(len(grid.graph.arcs))
    steps = list(first)
    for head, targets, anchors, e0s, e1s, e2s, e2_last, tail in rows:
        steps.append(head)
        ups = [*edges[e2s], e2_last]
        for v, a, e0, e1, e2 in zip(targets, vertices[anchors], edges[e0s], edges[e1s], ups,
                                    strict=True):
            steps.append((v - 1, v, v + 1, a, e0, e1, e2))
        steps += tail
    return tuple(steps)


def test_equal_endpoint_lookups_occur():
    """The row sweep really does hit equal anchor colors, so the table must
    cover u == v."""
    grid = build_hex_grid(5, 5)
    pairs = [step for step in _expand(grid) if len(step) == 7]
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
    """For every shape up to 30 x 30, H_{50,50}, H_{100,100} and the thin
    shapes: the sweep's rows expand to exactly the reference sweep's steps.
    In the expansion, each step reads only colored vertices, every vertex
    is colored once, every grid edge is constrained by exactly one step,
    each step's edge indices name the edges it constrains as the grid lists
    them, and each pair step's anchor is the vertex above v2, joined to it
    by a vertical edge (even parity). Every step is a 3-tuple or a 7-tuple."""
    shapes = [(m, n) for m in range(1, 31) for n in range(1, 31)] + [
        (50, 50), (100, 100), (1, 300), (300, 1), (3, 100), (100, 3)]
    for (m, n) in shapes:
        grid = build_hex_grid(m, n)
        steps = _expand(grid)
        assert steps == _reference_sweep(grid), (m, n)
        coords = grid.coords
        colored = bytearray(grid.graph.n_vertices)
        colored[0] = 1
        walked = []  # (x, y, e) of each edge a step constrains, listed (x, y)
        for step in steps:
            if len(step) == 3:
                v, anchor, e = step
                assert colored[anchor] and not colored[v]
                colored[v] = 1
                walked.append((anchor, v, e))
            else:
                v0, v1, v2, anchor, e0, e1, e2 = step
                assert colored[v0] and colored[anchor] and not colored[v1] and not colored[v2]
                colored[v1] = colored[v2] = 1
                walked += [(v0, v1, e0), (v1, v2, e1), (anchor, v2, e2)]
                (i, j) = coords[v2]
                assert coords[anchor] == (i - 1, j) and (i - 1 + j) % 2 == 0
        assert all(colored)
        assert _names_its_edges(grid, walked)
        constrained = [(x, y) for (x, y, _) in walked]
        assert len(constrained) == len(set(constrained))
        assert set(constrained) == set(grid.graph.arcs)


def test_coloring_keeps_no_coordinates():
    """A grid is its shape: coloring H_{100,100} builds neither its
    coordinates nor their index, and equality, hashing and repr read m and
    n alone, whatever the grid has cached."""
    grid = build_hex_grid(100, 100)
    color_hex(grid, random_orientation(grid.graph, 3))
    assert "coords" not in grid.__dict__ and "index" not in grid.__dict__
    assert HexGrid._fields == ("m", "n")
    fresh = HexGrid(100, 100)
    assert "sweep" in grid.__dict__ and "sweep" not in fresh.__dict__
    assert grid == fresh and hash(grid) == hash(fresh) == hash((100, 100))
    assert repr(grid) == "HexGrid(m=100, n=100)"
    assert grid != HexGrid(100, 99) and grid != HexGrid(99, 100)


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
    steps = _expand(grid)
    pair = steps[-1]
    assert len(pair) == 7 and all(len(step) == 3 for step in steps[:-1])
    v0, v1, v2, anchor = pair[:4]
    for oriented in enumerate_orientations(grid.graph):
        colors = list(color_hex(grid, oriented))
        arcs = set(oriented.arcs)
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
    orientation is read through a set of its arcs."""
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

