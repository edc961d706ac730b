"""Hexagonal grids and the two packaged counterexample fixtures, one
FIXTURES row each, with their lattice-membership validator.

The hexagonal grid with m rows of n hexagons lives inside the square grid
with m+1 rows and 2n+m columns: row i keeps the columns j with
i-1 <= j <= i+2n, every horizontal edge survives, and vertical edges
survive exactly when i+j is even.

Fixtures carry axial lattice coordinates (a, b). A point belongs to the
hexagonal lattice when (a - b) mod 3 is 1 or 2, and its three possible
neighbor offsets are fixed by that class:

    class 2: (0, 1), (1, -1), (-1, 0)
    class 1: (0, -1), (-1, 1), (1, 0)

Adjacent lattice points always have opposite classes, which makes the
lattice bipartite with maximum degree 3.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from functools import cache, cached_property
from operator import eq, or_

from .digraph import (
    MAX_VERTICES,
    OrientedGraph,
    Record,
    parse_graph_file,
    random_orientation,
)

_CLASS2_OFFSETS = frozenset({(0, 1), (1, -1), (-1, 0)})
_CLASS1_OFFSETS = frozenset({(0, -1), (-1, 1), (1, 0)})

#: the packaged fixtures by CLI and report name: (data file, sha256 digest,
#: vertex count, arc count), the last three pinned at transcription time
FIXTURES = {
    "H4": ("h4.digraph",
           "6820be00b29067a14d073a8d1b5c307223991fa5740f5a6ab9776e7b7fad4e17", 18, 21),
    "H49": ("h49.digraph",
            "1d57d99f8f5e347e866795409efee246c7f916bd7dba6ccc73815e78333b566f", 126, 174),
}


class HexGrid(Record):
    """Hexagonal grid: m rows of n hexagons, vertex v at coords[v] = (i, j).

    graph is the grid's reference orientation, each edge directed from its
    smaller coordinate: (i, j) -> (i, j+1) and (i, j) -> (i+1, j), as
    build_hex_grid builds it and as the sweep needs it. orient,
    random_orientation and enumerate_orientations direct grid edge i by
    one bit: 1 as grid.graph directs it, 0 reversed. build_hex_grid
    numbers the vertices in row-major (i, j) order; the sweep reads
    coordinates through index, so any numbering colors.
    """

    m: int
    n: int
    graph: OrientedGraph
    coords: tuple[tuple[int, int], ...]

    def __init__(
        self, m: int, n: int, graph: OrientedGraph, coords: tuple[tuple[int, int], ...]
    ):
        self.__dict__.update(m=m, n=n, graph=graph, coords=coords)

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        return {c: v for v, c in enumerate(self.coords)}

    @cached_property
    def _reversed_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((v, u) for (u, v) in self.graph.arcs)

    def directions(self, orientation: OrientedGraph) -> list[bool]:
        """Per grid edge i, True when the orientation directs it as
        grid.graph directs it, graph.arcs[i]; ValueError unless the
        orientation directs exactly this grid's edges.

        Orientations built from the grid's graph (orient,
        random_orientation, enumerate_orientations, and files that
        serialize_digraph wrote from them) list arc i on edge i, which two
        elementwise passes confirm; arcs listed in any other order are
        looked up in the arc set.
        """
        if orientation.n_vertices != self.graph.n_vertices:
            raise ValueError("orientation and grid disagree on vertex count")
        arcs, edges, reverse = orientation.arcs, self.graph.arcs, self._reversed_edges
        # arcs hold no duplicate or opposite pair, so covering every edge with
        # as many arcs as edges directs exactly the grid's edges
        if len(arcs) != len(edges):
            raise ValueError("orientation must direct exactly the grid's edges")
        along = list(map(eq, arcs, edges))
        if not all(map(or_, along, map(eq, arcs, reverse))):
            has = orientation.arc_set.__contains__
            along = list(map(has, edges))
            if not all(map(or_, along, map(has, reverse))):
                raise ValueError("orientation must direct exactly the grid's edges")
        return along

    @cached_property
    def sweep(self) -> tuple[tuple[int, ...], ...]:
        """The row sweep that colors any orientation, as steps over the vertices.

        Vertex (1, 1) keeps its initial color and has no step. A greedy step
        (v, anchor, e) colors v against its colored neighbor anchor across
        grid edge e, listed anchor -> v. A pair step
        (v0, v1, v2, anchor, e0, e1, e2) colors v1, v2 by the walk
        v0, v1, v2, anchor, whose anchor lies above v2; e0, e1, e2 are the
        walk's edges in order, listed v0 -> v1, v1 -> v2 and anchor -> v2,
        so the walk crosses e2 against its listing. RuntimeError when the
        grid's graph lacks an edge or directs it the other way. The shape's
        invariants are checked here.
        """
        index, edges = self.index, self.graph.arcs
        at = dict(zip(edges, range(len(edges))))

        def above(i: int, j: int) -> int | None:
            # (i-1, j) has an edge down to (i, j) exactly when i-1+j is even
            return index.get((i - 1, j)) if (i - 1 + j) % 2 == 0 else None

        def edge(u: int, v: int) -> int:
            e = at.get((u, v))
            if e is None:
                raise RuntimeError(f"grid graph does not list the edge ({u}, {v})")
            return e

        def greedy(v: int, a: int) -> tuple[int, int, int]:
            return v, a, edge(a, v)

        lo, hi = hex_row_span(self.m, self.n, 1)
        steps: list[tuple[int, ...]] = [
            greedy(index[(1, j)], index[(1, j - 1)]) for j in range(lo + 1, hi + 1)
        ]
        for i in range(2, self.m + 2):
            lo, hi = hex_row_span(self.m, self.n, i)
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


def hex_row_span(m: int, n: int, i: int) -> tuple[int, int]:
    """Inclusive column range of row i (1 <= i <= m+1)."""
    return max(1, i - 1), min(i + 2 * n, 2 * n + m)


def hex_vertex_count(m: int, n: int) -> int:
    """Vertices of the grid with m >= 1 rows of n >= 1 hexagons: the widths
    of hex_row_span summed over its m + 1 rows, 2n + 1 in the first and
    the last row and 2n + 2 in each of the m - 1 rows between them."""
    return 2 * (m + 1) * (n + 1) - 2


def build_hex_grid(m: int, n: int) -> HexGrid:
    """Construct the hexagonal grid with m rows of n hexagons; at most
    MAX_VERTICES vertices."""
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")
    count = hex_vertex_count(m, n)
    if count > MAX_VERTICES:
        raise ValueError(f"a {m} x {n} grid has {count} vertices, over the limit {MAX_VERTICES}")
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
    grid = HexGrid(m, n, OrientedGraph(len(coords), tuple(edges)), tuple(coords))
    # seed the cached property: it is not a field, so equality and hashing ignore it
    object.__setattr__(grid, "index", index)
    return grid


class AxialFixture(Record):
    """Oriented graph together with axial lattice coordinates per vertex."""

    graph: OrientedGraph
    coords: tuple[tuple[int, int], ...]

    def __init__(self, graph: OrientedGraph, coords: tuple[tuple[int, int], ...]):
        self.__dict__.update(graph=graph, coords=coords)
        if len(coords) != graph.n_vertices:
            raise ValueError("one coordinate pair per vertex required")


class LatticeCheck(Record):
    """Verdict of validate_axial_fixture with human-readable violations."""

    ok: bool
    violations: tuple[str, ...]

    def __init__(self, ok: bool, violations: tuple[str, ...]):
        self.__dict__.update(ok=ok, violations=violations)


def _lattice_class(a: int, b: int) -> int:
    return (a - b) % 3


def validate_axial_fixture(fixture: AxialFixture) -> LatticeCheck:
    """Check that the fixture is an orientation of a hexagonal-lattice patch:
    injective coordinates on lattice points, arcs only between lattice
    neighbors, total degree at most 3."""
    violations = []
    coords = fixture.coords
    seen: dict[tuple[int, int], int] = {}
    for v, c in enumerate(coords):
        if c in seen:
            violations.append(f"vertices {seen[c] + 1} and {v + 1} share coordinates {c}")
        seen[c] = v
        if _lattice_class(*c) == 0:
            violations.append(f"vertex {v + 1} at {c} is not a hexagonal-lattice point")
    for (u, v) in fixture.graph.arcs:
        (a1, b1), (a2, b2) = coords[u], coords[v]
        off = (a2 - a1, b2 - b1)
        allowed = _CLASS2_OFFSETS if _lattice_class(a1, b1) == 2 else _CLASS1_OFFSETS
        if off not in allowed:
            violations.append(
                f"arc {u + 1} -> {v + 1} joins non-neighbor lattice points "
                f"{coords[u]} and {coords[v]}"
            )
    for v, nbrs in enumerate(fixture.graph.neighbors):
        if len(nbrs) > 3:
            violations.append(f"vertex {v + 1} has degree {len(nbrs)} > 3")
    return LatticeCheck(not violations, tuple(violations))


def load_fixture(text: str) -> AxialFixture:
    """Parse a graph file whose coord lines cover every vertex."""
    graph, coords = parse_graph_file(text)
    missing = [v + 1 for v in range(graph.n_vertices) if v not in coords]
    if missing:
        raise ValueError(f"missing coord lines for vertices {missing}")
    return AxialFixture(graph, tuple(coords[v] for v in range(graph.n_vertices)))


def fixture_file_bytes(name: str) -> bytes:
    """The packaged data file of the fixture with this FIXTURES name, read
    through this module's own loader, as pkgutil.get_data reads it."""
    path = os.path.join(os.path.dirname(__file__), "data", FIXTURES[name][0])
    return __spec__.loader.get_data(path)


def fixture_digest(name: str) -> str:
    import hashlib  # maps OpenSSL's libcrypto, so only a process that digests loads it

    return hashlib.sha256(fixture_file_bytes(name)).hexdigest()


@cache
def named_fixture(name: str) -> AxialFixture:
    """The fixture with this FIXTURES name, parsed once per process."""
    return load_fixture(fixture_file_bytes(name).decode())


def fixture_h4() -> AxialFixture:
    """18-vertex, 21-arc orientation of a lattice patch: one hexagon with an
    oriented 3-path grafted onto every other hexagon vertex."""
    return named_fixture("H4")


def fixture_h49() -> AxialFixture:
    """126-vertex, 174-arc orientation of a lattice patch, transcribed
    vertex-by-vertex and arc-by-arc, with coordinates retained."""
    return named_fixture("H49")


def axial_to_grid(a: int, b: int) -> tuple[int, int]:
    """Base change from axial lattice coordinates to hexagonal-grid (i, j).

    Determined up to translation; composing with translations
    (i, j) -> (i + p, j + q) with p == q (mod 2) reaches every placement.
    """
    return (a - b + 5) // 3, a + b - 6


def place_fixture(fixture: AxialFixture, grid: HexGrid) -> tuple[int, ...] | None:
    """Deterministic injective embedding of the fixture into the grid, as a
    vertex map, or None when no translate of the patch fits."""
    base = [axial_to_grid(a, b) for (a, b) in fixture.coords]
    i_lo = min(i for (i, _) in base)
    i_hi = max(i for (i, _) in base)
    j_lo = min(j for (_, j) in base)
    j_hi = max(j for (_, j) in base)
    for di in range(1 - i_lo, (grid.m + 1) - i_hi + 1):
        for dj in range(1 - j_lo, (2 * grid.n + grid.m) - j_hi + 1):
            if (dj - di) % 2:
                continue
            placed = [(i + di, j + dj) for (i, j) in base]
            if all(p in grid.index for p in placed):
                return tuple(grid.index[p] for p in placed)
    return None


def orientation_extending(
    grid: HexGrid, forced_arcs: Iterable[tuple[int, int]], seed: int = 0
) -> OrientedGraph:
    """Orientation of the grid agreeing with the forced arcs; every other
    edge is directed as random_orientation(grid.graph, seed) directs it."""
    forced = {}
    for (u, v) in forced_arcs:
        key = (u, v) if u < v else (v, u)
        if forced.get(key, (u, v)) != (u, v):
            raise ValueError(f"conflicting directions forced for edge {key}")
        forced[key] = (u, v)
    # a grid may list an edge either way round; forced holds it low-to-high
    keys = [(u, v) if u < v else (v, u) for (u, v) in grid.graph.arcs]
    key_set = set(keys)
    unknown = [key for key in forced if key not in key_set]
    if unknown:
        raise ValueError(f"forced arcs not on grid edges: {unknown}")
    # each edge takes its forced arc, else the arc random_orientation drew
    drawn = random_orientation(grid.graph, seed).arcs
    return OrientedGraph(grid.graph.n_vertices, tuple(map(forced.get, keys, drawn)))
