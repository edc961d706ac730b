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

A HexGrid is its shape (m, n). Its graph and its row sweep are computed
from the row spans, the sweep as one short record per row; coordinates
and the coordinate index are built only when something reads them.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from functools import cache, cached_property
from itertools import chain, repeat
from operator import eq, or_

from .digraph import (
    MAX_VERTICES,
    OrientedGraph,
    Record,
    _unchecked,
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

#: a greedy step (v, anchor, e)
_Step = tuple[int, int, int]
#: a row of HexGrid.sweep after the first: (head, targets, anchors, e0s, e1s, e2s, e2_last, tail)
_SweepRow = tuple[_Step, range, slice, slice, slice, slice, int, tuple[_Step, ...]]


class HexGrid(Record):
    """Hexagonal grid: m rows of n hexagons. A grid is its shape: it
    compares, hashes and prints by m and n alone.

    HexGrid(m, n) checks the bounds and builds graph, the grid's reference
    orientation, each edge directed from its smaller coordinate:
    (i, j) -> (i, j+1) and (i, j) -> (i+1, j). The arithmetic lists each
    edge once, between two numbered vertices, so graph is made without
    OrientedGraph's arc check. orient, random_orientation and
    enumerate_orientations direct grid edge i by one bit: 1 as grid.graph
    directs it, 0 reversed.

    Vertex and edge numbers come from the row spans alone. Rows are
    numbered in turn, so (i, j) is the number of row i's first vertex plus
    j - lo, where (lo, hi) = hex_row_span(m, n, i). Edges are listed in
    row-major vertex order, each vertex's horizontal edge (v, v+1), for
    j < hi, before its vertical edge to (i+1, j), for i <= m and i+j even.
    The sweep is computed from the same layout, which no other module
    reads. coords and index, which only fixture placement and the CLI's
    text output read, are built on first use.
    """

    m: int
    n: int

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("grid dimensions must be positive")
        count = hex_vertex_count(m, n)
        if count > MAX_VERTICES:
            raise ValueError(f"a {m} x {n} grid has {count} vertices, over the limit {MAX_VERTICES}")
        # one int object per vertex number, shared by the arcs: an int made
        # per arc endpoint would add about 1.5 MB to H_{100,100}
        numbers = list(range(count))
        edges: list[tuple[int, int]] = []
        start = 0
        for i in range(1, m + 2):
            lo, hi = hex_row_span(m, n, i)
            end = start + hi - lo + 1
            row = numbers[start:end]
            # slot 2k holds the horizontal edge of (i, lo+k), slot 2k+1 its
            # vertical edge; empty slots are dropped
            slots = [None] * (2 * len(row))
            slots[0:-2:2] = zip(row, row[1:])
            if i <= m:
                # (i+1, lo+k) is numbered below + k. Row i+1 spans every column of
                # row i except lo = i-1 when i > 1, where i+j is odd, so every
                # column with i+j even, from lo + skip on, has a vertex below.
                below = end + lo - hex_row_span(m, n, i + 1)[0]
                skip = (i + lo) % 2
                slots[2 * skip + 1::4] = zip(row[skip::2], numbers[below + skip:below + len(row):2])
            edges.extend(filter(None, slots))
            start = end
        self.__dict__.update(m=m, n=n, graph=_unchecked(count, tuple(edges)))

    @cached_property
    def coords(self) -> tuple[tuple[int, int], ...]:
        """(i, j) of each vertex, by vertex number, built through a list
        (see the digraph module docstring)."""
        spans = (hex_row_span(self.m, self.n, i) for i in range(1, self.m + 2))
        return tuple(list(chain.from_iterable(
            zip(repeat(i), range(lo, hi + 1)) for i, (lo, hi) in enumerate(spans, 1)
        )))

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        """The vertex number of each (i, j)."""
        return {c: v for v, c in enumerate(self.coords)}

    def directions(self, orientation: OrientedGraph) -> list[bool]:
        """Per grid edge i, True when the orientation directs it as
        grid.graph directs it, graph.arcs[i]; ValueError unless the
        orientation directs exactly this grid's edges.

        Orientations built from the grid's graph (orient,
        random_orientation, enumerate_orientations, and files that
        serialize_digraph wrote from them) list arc i on edge i, which two
        elementwise passes confirm, against graph.arcs and against
        graph._reversed_arcs, the reversed tuples those orientations share;
        arcs listed in any other order are looked up in a set of them.
        """
        if orientation.n_vertices != self.graph.n_vertices:
            raise ValueError("orientation and grid disagree on vertex count")
        arcs, edges, reverse = orientation.arcs, self.graph.arcs, self.graph._reversed_arcs
        # arcs hold no duplicate or opposite pair, so covering every edge with
        # as many arcs as edges directs exactly the grid's edges
        if len(arcs) != len(edges):
            raise ValueError("orientation must direct exactly the grid's edges")
        along = list(map(eq, arcs, edges))
        if not all(map(or_, along, map(eq, arcs, reverse))):
            has = set(arcs).__contains__
            along = list(map(has, edges))
            if not all(map(or_, along, map(has, reverse))):
                raise ValueError("orientation must direct exactly the grid's edges")
        return along

    @cached_property
    def sweep(self) -> tuple[tuple[_Step, ...], tuple[_SweepRow, ...]]:
        """The row sweep that colors any orientation, as (first, rows).

        Vertex (1, 1) keeps its initial color and has no step. A greedy
        step (v, anchor, e) colors v against its colored neighbor anchor
        across grid edge e, listed anchor -> v. A pair step colors v1 and
        v2 = v1 + 1 by the walk v0 = v1 - 1, v1, v2, anchor, whose anchor
        lies above v2; its edges e0, e1, e2 are listed v0 -> v1, v1 -> v2
        and anchor -> v2, so the walk crosses e2 against its listing.

        first holds the greedy steps of row 1, left to right. rows holds
        one record (head, targets, anchors, e0s, e1s, e2s, e2_last, tail)
        for each later row, in order:
          * head, the greedy step of the row's first vertex against the
            vertex above it;
          * targets, the range of the row's pair steps' v1, in order;
          * anchors, e0s and e1s, the slices of the vertex and edge
            numbers that pick each pair's anchor, e0 and e1;
          * e2s, the slice that picks each pair's e2 but the last's, and
            e2_last, that last pair's e2: its anchor ends the row above,
            so its e2 breaks the stride;
          * tail, the greedy steps after them, each against its left neighbor.
        Each record is O(1) arithmetic on the row spans and on the edge
        layout that the constructor lists.
        """
        m, n = self.m, self.n
        lo_a, hi_a = hex_row_span(m, n, 1)
        above = _RowEdges(0, hi_a - lo_a + 1, (1 + lo_a) % 2, True)
        first = tuple((k, k - 1, above.right(k - 1)) for k in range(1, above.width))
        rows = []
        va = 0  # number of the first vertex of the row above
        for i in range(2, m + 2):
            lo, hi = hex_row_span(m, n, i)
            vs = va + above.width
            here = _RowEdges(above.end, hi - lo + 1, (i + lo) % 2, i <= m)
            # (i, lo) is at offset off in the row above; pair t's anchor is at
            # offset off + 2t + 2, up to the end of the shorter of the two rows
            off = lo - lo_a
            pairs = (min(hi, hi_a) - lo) // 2
            down, right = above.down, here.right
            a0, e0, e2 = va + off + 2, right(0), down(off + 2)
            s0, s2 = right(2) - e0, down(off + 4) - e2
            rows.append((
                (vs, va + off, down(off)),
                range(vs + 1, vs + 2 * pairs, 2),
                slice(a0, a0 + 2 * pairs, 2),
                slice(e0, e0 + s0 * pairs, s0),
                slice(e0 + 1, e0 + 1 + s0 * pairs, s0),
                slice(e2, e2 + s2 * (pairs - 1), s2),
                down(off + 2 * pairs),
                tuple((vs + k, vs + k - 1, right(k - 1)) for k in range(2 * pairs + 1, here.width)),
            ))
            lo_a, hi_a, va, above = lo, hi, vs, here
        return first, tuple(rows)


class _RowEdges:
    """The edge numbers of one grid row, by vertex offset k from the row's
    start, as HexGrid lists them: the row's edges are numbered from
    first on, each vertex's horizontal edge before its vertical one, and
    vertical edges leave the offsets skip, skip + 2, ... when the row has
    a row below."""

    def __init__(self, first: int, width: int, skip: int, vertical: bool):
        self.first, self.width, self.skip, self.vertical = first, width, skip, vertical
        #: number of the first edge of the next row
        self.end = first + width - 1 + vertical * ((width - skip + 1) // 2)

    def right(self, k: int) -> int:
        """The horizontal edge from offset k: k horizontal edges and the
        vertical edges of the offsets below k come before it."""
        return self.first + k + self.vertical * ((k + 1 - self.skip) // 2)

    def down(self, k: int) -> int:
        """The vertical edge from offset k, k - skip even, which follows its
        horizontal edge unless k ends the row."""
        return self.first + min(k + 1, self.width - 1) + (k - self.skip) // 2


def hex_row_span(m: int, n: int, i: int) -> tuple[int, int]:
    """Inclusive column range of row i (1 <= i <= m+1)."""
    return max(1, i - 1), min(i + 2 * n, 2 * n + m)


def hex_vertex_count(m: int, n: int) -> int:
    """Vertices of the grid with m >= 1 rows of n >= 1 hexagons: the widths
    of hex_row_span summed over its m + 1 rows, 2n + 1 in the first and
    the last row and 2n + 2 in each of the m - 1 rows between them."""
    return 2 * (m + 1) * (n + 1) - 2


#: the hexagonal grid with m rows of n hexagons, at most MAX_VERTICES vertices
build_hex_grid = HexGrid


class AxialFixture(Record):
    """Oriented graph together with axial lattice coordinates per vertex."""

    graph: OrientedGraph
    coords: tuple[tuple[int, int], ...]

    def __init__(self, graph: OrientedGraph, coords: tuple[tuple[int, int], ...]):
        super().__init__(graph, coords)
        if len(coords) != graph.n_vertices:
            raise ValueError("one coordinate pair per vertex required")


class LatticeCheck(Record):
    """Verdict of validate_axial_fixture with human-readable violations."""

    ok: bool
    violations: tuple[str, ...]


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
    for v, adj in enumerate(fixture.graph.adjacency):
        # a vertex with arcs has its neighbors and the -1 between them
        if len(adj) - 1 > 3:
            violations.append(f"vertex {v + 1} has degree {len(adj) - 1} > 3")
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
    """The SHA-256 hex digest of the fixture's packaged file.

    The interpreter's built-in SHA-256 module (_sha2 from Python 3.12,
    _sha256 before) does the work where it exists, as random.py takes
    _sha2's sha512: hashlib would map OpenSSL's libcrypto, about 3.7 MB
    of resident memory, to digest two small files.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(fixture_file_bytes(name)).hexdigest()


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
    # a grid lists each edge low-to-high, as forced holds it
    edges = grid.graph.arcs
    edge_set = set(edges)
    unknown = [key for key in forced if key not in edge_set]
    if unknown:
        raise ValueError(f"forced arcs not on grid edges: {unknown}")
    # each edge takes its forced arc, else the arc random_orientation drew
    drawn = random_orientation(grid.graph, seed).arcs
    return _unchecked(grid.graph.n_vertices, tuple(map(forced.get, edges, drawn)))
