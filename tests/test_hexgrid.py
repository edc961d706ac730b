import hashlib
import random
import sys
from collections import deque
from itertools import chain, repeat
from operator import eq, itemgetter

import pytest

from orihex.digraph import MAX_VERTICES, OrientedGraph, random_orientation
from orihex.hexgrid import (
    AxialFixture,
    HexGrid,
    build_hex_grid,
    fixture_digest,
    fixture_file_bytes,
    fixture_h4,
    fixture_h49,
    hex_row_span,
    hex_vertex_count,
    load_fixture,
    orientation_extending,
    place_fixture,
    validate_axial_fixture,
)

# content digests pinned at transcription time; any fixture edit fails here
H4_SHA256 = "6820be00b29067a14d073a8d1b5c307223991fa5740f5a6ab9776e7b7fad4e17"
H49_SHA256 = "1d57d99f8f5e347e866795409efee246c7f916bd7dba6ccc73815e78333b566f"

H4_ARCS_1BASED = (
    (1, 2), (3, 2), (4, 3), (5, 4), (5, 6), (1, 6), (6, 7), (8, 7), (8, 9),
    (10, 9), (10, 1), (2, 11), (12, 11), (12, 13), (14, 13), (14, 3),
    (4, 15), (16, 15), (16, 17), (18, 17), (18, 5),
)


def undirected_adjacency(g: OrientedGraph):
    adj = {v: set() for v in range(g.n_vertices)}
    for (u, v) in g.arcs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def test_single_hexagon():
    grid = build_hex_grid(1, 1)
    assert grid.graph.n_vertices == 6
    assert len(grid.graph.arcs) == 6
    # the grid's graph is its reference orientation: each edge from its smaller coordinate
    assert type(grid.graph) is OrientedGraph
    assert all(grid.coords[u] < grid.coords[v] for (u, v) in grid.graph.arcs)


def test_three_by_four_matches_reference_layout():
    grid = build_hex_grid(3, 4)
    assert grid.graph.n_vertices == 38
    assert len(grid.graph.arcs) == 49
    rows = {}
    for (i, j) in grid.coords:
        rows.setdefault(i, []).append(j)
    spans = {i: (min(js), max(js), len(js)) for i, js in rows.items()}
    assert spans == {1: (1, 9, 9), 2: (1, 10, 10), 3: (2, 11, 10), 4: (3, 11, 9)}


def reference_hex_grid(m, n):
    """The grid built by coordinate lookups: every vertex's right and lower
    neighbors are found in a coordinate dict."""
    coords = []
    for i in range(1, m + 2):
        lo, hi = hex_row_span(m, n, i)
        coords.extend((i, j) for j in range(lo, hi + 1))
    index = {c: v for v, c in enumerate(coords)}
    edges = []
    for (i, j) in coords:
        if (i, j + 1) in index:
            edges.append((index[(i, j)], index[(i, j + 1)]))
        if (i + j) % 2 == 0 and (i + 1, j) in index:
            edges.append((index[(i, j)], index[(i + 1, j)]))
    return tuple(coords), tuple(edges), index


def test_row_arithmetic_matches_coordinate_lookups():
    shapes = [(m, n) for m in range(1, 31) for n in range(1, 31)] + [
        (50, 50), (100, 100), (1, 300), (300, 1), (3, 100), (100, 3)]
    for (m, n) in shapes:
        grid = build_hex_grid(m, n)
        coords, edges, index = reference_hex_grid(m, n)
        assert grid.coords == coords, (m, n)
        assert grid.graph.arcs == edges, (m, n)
        assert list(grid.index.items()) == list(index.items()), (m, n)


def _reversed_by_iterator(g):
    return tuple(zip(map(itemgetter(1), g.arcs), map(itemgetter(0), g.arcs)))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (7, 4), (1, 300), (300, 1), (100, 100)])
def test_list_built_tuples_match_the_iterator_forms(m, n):
    """coords and the graph's reversed arcs, built through lists, equal the
    tuples that tuple() makes straight from the same iterators."""
    grid = build_hex_grid(m, n)
    spans = (hex_row_span(m, n, i) for i in range(1, m + 2))
    assert grid.coords == tuple(chain.from_iterable(
        zip(repeat(i), range(lo, hi + 1)) for i, (lo, hi) in enumerate(spans, 1)))
    assert grid.graph._reversed_arcs == _reversed_by_iterator(grid.graph)
    assert type(grid.coords) is type(grid.graph._reversed_arcs) is tuple


def test_fixture_reversed_arcs_match_the_iterator_form():
    for g in (fixture_h4().graph, fixture_h49().graph, OrientedGraph(1, ())):
        assert g._reversed_arcs == _reversed_by_iterator(g)


def test_arc_endpoints_are_the_index_numbers():
    # one int object per vertex number: an int per arc endpoint would add
    # about 1.5 MB to H_{100,100}
    grid = build_hex_grid(100, 100)
    first = {}
    assert all(first.setdefault(x, x) is x for arc in grid.graph.arcs for x in arc)
    assert sorted(first) == list(range(grid.graph.n_vertices))


@pytest.mark.parametrize("n", range(1, 7))
def test_single_row_closed_forms(n):
    grid = build_hex_grid(1, n)
    assert grid.graph.n_vertices == 4 * n + 2
    assert len(grid.graph.arcs) == 5 * n + 1


def test_vertex_count_sums_the_row_spans():
    for m in range(1, 13):
        for n in range(1, 13):
            spans = [hex_row_span(m, n, i) for i in range(1, m + 2)]
            count = sum(hi - lo + 1 for lo, hi in spans)
            assert hex_vertex_count(m, n) == count == build_hex_grid(m, n).graph.n_vertices


def test_vertex_limit_refuses_a_grid_before_building_it():
    assert hex_vertex_count(706, 706) <= MAX_VERTICES < hex_vertex_count(706, 707)
    with pytest.raises(ValueError, match=r"^a 706 x 707 grid has 1001110 vertices, over the limit 1000000$"):
        build_hex_grid(706, 707)
    with pytest.raises(ValueError, match="over the limit"):
        build_hex_grid(10**15, 10**15)


def test_bad_dimensions():
    with pytest.raises(ValueError):
        build_hex_grid(0, 3)
    with pytest.raises(ValueError):
        build_hex_grid(3, 0)


def test_bipartite_and_degree_bound_small_range():
    for m in range(1, 9):
        for n in range(1, 9):
            grid = build_hex_grid(m, n)
            adj = [[] for _ in range(grid.graph.n_vertices)]
            for (u, v) in grid.graph.arcs:
                adj[u].append(v)
                adj[v].append(u)
            assert max(len(ns) for ns in adj) <= 3
            color = {0: 0}
            dq = deque([0])
            while dq:
                v = dq.popleft()
                for w in adj[v]:
                    if w not in color:
                        color[w] = 1 - color[v]
                        dq.append(w)
                    else:
                        assert color[w] != color[v]
            assert len(color) == grid.graph.n_vertices  # connected as well


def test_euler_face_count():
    for m in range(1, 9):
        for n in range(1, 9):
            grid = build_hex_grid(m, n)
            faces = len(grid.graph.arcs) - grid.graph.n_vertices + 2
            assert faces == m * n + 1


def test_hex_grid_embeds_in_square_grid():
    """Every edge is a unit horizontal or vertical step inside the
    (m+1) x (2n+m) box of the square grid."""
    for (m, n) in [(1, 1), (2, 3), (3, 4)]:
        grid = build_hex_grid(m, n)
        assert all(1 <= i <= m + 1 and 1 <= j <= 2 * n + m for (i, j) in grid.coords)
        for (a, b) in grid.graph.arcs:
            (i1, j1), (i2, j2) = grid.coords[a], grid.coords[b]
            assert abs(i1 - i2) + abs(j1 - j2) == 1


def test_fixture_digests_pinned():
    assert hashlib.sha256(fixture_file_bytes("H4")).hexdigest() == H4_SHA256
    assert hashlib.sha256(fixture_file_bytes("H49")).hexdigest() == H49_SHA256
    assert (fixture_digest("H4"), fixture_digest("H49")) == (H4_SHA256, H49_SHA256)


def test_fixture_digest_falls_back_to_hashlib(monkeypatch):
    """Where the interpreter has no built-in SHA-256 module, hashlib's
    digests are the pinned ones."""
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert (fixture_digest("H4"), fixture_digest("H49")) == (H4_SHA256, H49_SHA256)


def test_h4_exact_arc_list():
    g = fixture_h4().graph
    assert g.n_vertices == 18
    assert tuple((u + 1, v + 1) for (u, v) in g.arcs) == H4_ARCS_1BASED


def test_h4_first_six_vertices_form_hexagon():
    adj = undirected_adjacency(fixture_h4().graph)
    ring = {v: {w for w in adj[v] if w < 6} for v in range(6)}
    assert all(len(ws) == 2 for ws in ring.values())
    seen = [0]
    prev = None
    while len(seen) < 6:
        nxt = [w for w in ring[seen[-1]] if w != prev]
        prev = seen[-1]
        seen.append(nxt[0])
    assert ring[seen[-1]] >= {0}
    assert sorted(seen) == list(range(6))


def test_h4_degree_bound():
    g = fixture_h4().graph
    assert all(len(adj) - 1 <= 3 for adj in g.adjacency)


def test_h49_counts_and_structure():
    f = fixture_h49()
    assert f.graph.n_vertices == 126
    assert len(f.graph.arcs) == 174
    adj = undirected_adjacency(f.graph)
    # connected
    seen = {0}
    dq = deque([0])
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                dq.append(w)
    assert len(seen) == 126
    # bipartite
    color = {0: 0}
    dq = deque([0])
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if w not in color:
                color[w] = 1 - color[v]
                dq.append(w)
            else:
                assert color[w] != color[v]


def test_fixtures_lattice_valid():
    assert validate_axial_fixture(fixture_h4()).ok
    assert validate_axial_fixture(fixture_h49()).ok


def test_lattice_rejects_non_neighbor_arc():
    f = AxialFixture(OrientedGraph(2, ((0, 1),)), ((0, 0), (2, 0)))
    check = validate_axial_fixture(f)
    assert not check.ok
    assert any("non-neighbor" in v or "lattice point" in v for v in check.violations)


def test_lattice_rejects_wrong_offset_between_lattice_points():
    # both points are lattice points ((a-b) mod 3 nonzero) but not adjacent
    f = AxialFixture(OrientedGraph(2, ((0, 1),)), ((0, 1), (2, 1)))
    check = validate_axial_fixture(f)
    assert not check.ok
    assert any("non-neighbor" in v for v in check.violations)


def test_lattice_rejects_duplicate_coordinates():
    f = AxialFixture(OrientedGraph(2, ((0, 1),)), ((0, 1), (0, 1)))
    assert not validate_axial_fixture(f).ok


def test_lattice_rejects_degree_above_three():
    star = OrientedGraph(5, ((0, 1), (0, 2), (3, 0), (0, 4)))
    f = AxialFixture(star, ((0, 1), (0, 2), (1, 1), (-1, 1), (0, 0)))
    check = validate_axial_fixture(f)
    assert not check.ok
    assert "vertex 1 has degree 4 > 3" in check.violations


def test_axial_fixture_needs_one_coordinate_pair_per_vertex():
    with pytest.raises(ValueError, match="^one coordinate pair per vertex required$"):
        AxialFixture(OrientedGraph(2, ((0, 1),)), ((0, 1),))


def test_lattice_direction_is_irrelevant():
    # a valid edge stays valid when the arc direction flips
    for arcs in (((0, 1),), ((1, 0),)):
        f = AxialFixture(OrientedGraph(2, arcs), ((0, 1), (0, 2)))
        assert validate_axial_fixture(f).ok


def test_load_fixture_requires_coords():
    with pytest.raises(ValueError):
        load_fixture("2 1\n1 2\ncoord 1 0 1\n")


def test_place_h4_in_host_grid():
    f = fixture_h4()
    grid = build_hex_grid(3, 4)
    placement = place_fixture(f, grid)
    assert placement is not None
    assert len(set(placement)) == 18
    edges = {frozenset(e) for e in grid.graph.arcs}
    for (u, v) in f.graph.arcs:
        assert frozenset((placement[u], placement[v])) in edges


def test_place_rejects_too_small_host():
    assert place_fixture(fixture_h4(), build_hex_grid(1, 1)) is None


def test_orientation_extending():
    grid = build_hex_grid(2, 2)
    forced = [(grid.graph.arcs[0][1], grid.graph.arcs[0][0])]
    oriented = orientation_extending(grid, forced, seed=3)
    assert forced[0] in set(oriented.arcs)
    # built without the arc check, it passes it
    assert OrientedGraph(oriented.n_vertices, oriented.arcs) == oriented
    assert oriented.arcs == orientation_extending(grid, forced, seed=3).arcs
    with pytest.raises(ValueError):
        orientation_extending(grid, [forced[0], (forced[0][1], forced[0][0])])
    with pytest.raises(ValueError):
        orientation_extending(grid, [(0, grid.graph.n_vertices - 1)])
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -3$"):
        orientation_extending(grid, forced, seed=-3)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_orientation_extending_draws_free_edges_as_random_orientation(seed):
    grid = build_hex_grid(3, 3)
    u, v = grid.graph.arcs[0]
    drawn = random_orientation(grid.graph, seed).arcs
    for forced in ((u, v), (v, u)):
        arcs = orientation_extending(grid, [forced], seed).arcs
        assert arcs[0] == forced
        assert arcs[1:] == drawn[1:]


def test_directions_same_in_any_arc_order():
    """directions reads arcs listed in edge order elementwise and any other
    order through a set of them: both give edge i's listed direction."""
    grid = build_hex_grid(3, 4)
    rng = random.Random(0)
    for seed in range(5):
        oriented = random_orientation(grid.graph, seed)
        held = set(oriented.arcs)
        expected = [e in held for e in grid.graph.arcs]
        shuffled = list(oriented.arcs)
        rng.shuffle(shuffled)
        for arcs in (oriented.arcs, tuple(shuffled)):
            assert grid.directions(OrientedGraph(grid.graph.n_vertices, arcs)) == expected


def test_directions_reads_the_graph_reversed_arcs():
    """The grid keeps no reversed edges of its own: directions reads the
    ones its graph keeps, which its orientations share."""
    grid = build_hex_grid(2, 3)
    oriented = random_orientation(build_hex_grid(2, 3).graph, 2)
    assert "_reversed_arcs" not in vars(grid.graph)
    assert grid.directions(oriented) == list(map(eq, oriented.arcs, grid.graph.arcs))
    assert "_reversed_arcs" in vars(grid.graph)
    assert not hasattr(grid, "_reversed_edges") and "_reversed_edges" not in vars(HexGrid)


def test_directions_rejects_a_non_edge_in_any_arc_order():
    grid = build_hex_grid(2, 2)
    arcs = list(random_orientation(grid.graph, 1).arcs)
    # vertices 0 and 2 are not adjacent: as many arcs as edges, one off the grid
    assert (0, 2) not in grid.graph.arcs and (2, 0) not in grid.graph.arcs
    arcs[5] = (0, 2)
    for listed in (arcs, arcs[::-1]):
        with pytest.raises(ValueError, match=r"^orientation must direct exactly the grid's edges$"):
            grid.directions(OrientedGraph(grid.graph.n_vertices, tuple(listed)))
