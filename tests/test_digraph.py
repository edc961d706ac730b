import itertools
import random

import pytest

from orihex.digraph import (
    GraphFormatError,
    OrientedGraph,
    UndirectedGraph,
    enumerate_orientations,
    orient,
    parse_digraph,
    random_orientation,
    serialize_digraph,
)
from orihex.hexgrid import fixture_file_bytes


def path(n):
    return UndirectedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n):
    return UndirectedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def test_parse_minimal():
    g = parse_digraph("2 1\n1 2")
    assert g.n_vertices == 2
    assert g.arcs == ((0, 1),)


def test_parse_comments_and_blanks():
    g = parse_digraph("# header comment\n\n3 2\n1 2\n# mid comment\n3 2\n")
    assert g.arcs == ((0, 1), (2, 1))


def test_parse_preserves_arc_order():
    g = parse_digraph("4 3\n4 3\n1 2\n2 3\n")
    assert g.arcs == ((3, 2), (0, 1), (1, 2))


def test_parse_packaged_h4_degree_bound():
    g = parse_digraph(fixture_file_bytes("h4.digraph").decode())
    assert g.n_vertices == 18
    assert len(g.arcs) == 21
    assert all(
        g.out_degrees[v] + g.in_degrees[v] <= 3 for v in range(g.n_vertices)
    )


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("", "header", 1),
        ("2\n", "header", 1),
        ("x 1\n1 2", "not an integer", 1),
        ("2 1\n1\n", "arc line", 2),
        ("2 1\n1 3\n", "out of range", 2),
        ("2 1\n1 1\n", "self-loop", 2),
        ("2 2\n1 2\n1 2\n", "duplicate arc", 3),
        ("2 2\n1 2\n2 1\n", "2-cycle", 3),
        ("3 2\n1 2\n", "declares 2 arcs", None),
        ("2 1\n1 2\ncoord 3 0 0\n", "out of range", 3),
        ("2 1\n1 2\ncoord 1 0\n", "coord line", 3),
    ],
)
def test_parse_errors_name_lines(text, fragment, line):
    with pytest.raises(GraphFormatError) as exc:
        parse_digraph(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


def test_constructor_rejects_two_cycles_and_loops():
    with pytest.raises(ValueError):
        OrientedGraph(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        OrientedGraph(2, ((1, 1),))
    with pytest.raises(ValueError):
        OrientedGraph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        OrientedGraph(2, ((0, 1), (1, 2)))


def test_roundtrip_canonical():
    text = "# c\n3 2\n\n1 2\n3 2\n"
    g = parse_digraph(text)
    canonical = serialize_digraph(g)
    assert canonical == "3 2\n1 2\n3 2\n"
    assert parse_digraph(canonical) == g
    assert serialize_digraph(parse_digraph(canonical)) == canonical


def test_roundtrip_random_graphs():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 9)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        arcs = tuple(
            (u, v) if rng.random() < 0.5 else (v, u)
            for (u, v) in pairs[: rng.randint(0, len(pairs))]
        )
        g = OrientedGraph(n, arcs)
        assert parse_digraph(serialize_digraph(g)) == g


def test_orient_path_codes():
    p3 = path(3)
    assert orient(p3, "11").arcs == ((0, 1), (1, 2))
    assert orient(p3, "10").arcs == ((0, 1), (2, 1))


def test_orient_hexagon_alternating():
    g = orient(cycle(6), "101010")
    assert len(g.arcs) == 6
    assert all(d in (0, 1, 2) for d in g.out_degrees)
    assert sum(g.out_degrees) == 6


def test_orient_length_mismatch():
    with pytest.raises(ValueError):
        orient(path(3), "1")


def test_enumerate_single_edge():
    gs = list(enumerate_orientations(path(2)))
    assert len(gs) == 2
    assert gs[0].arcs == ((1, 0),)  # code 0 first: lexicographic order
    assert gs[1].arcs == ((0, 1),)


def test_enumerate_hexagon_count_distinct():
    gs = list(enumerate_orientations(cycle(6)))
    assert len(gs) == 64
    assert len({g.arcs for g in gs}) == 64


def test_enumerate_triangle_directed_cycles():
    count = 0
    for g in enumerate_orientations(cycle(3)):
        if all(d == 1 for d in g.out_degrees):
            count += 1
    assert count == 2


@pytest.mark.parametrize("edges", [0, 1, 5, 12])
def test_enumerate_count_is_power_of_two(edges):
    g = path(edges + 1) if edges else UndirectedGraph(1, ())
    assert sum(1 for _ in enumerate_orientations(g)) == 2**edges


def test_enumerate_limit():
    g = UndirectedGraph(26, tuple((i, i + 1) for i in range(25)))
    with pytest.raises(ValueError):
        enumerate_orientations(g)


def test_random_orientation_deterministic():
    c6 = cycle(6)
    assert random_orientation(c6, 9).arcs == random_orientation(c6, 9).arcs


def test_random_orientation_varies_over_seeds():
    c6 = cycle(6)
    assert len({random_orientation(c6, s).arcs for s in range(64)}) >= 2


def test_random_orientation_single_edge_valid():
    e = path(2)
    for s in range(4):
        g = random_orientation(e, s)
        assert g.arcs in (((0, 1),), ((1, 0),))
