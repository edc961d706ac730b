"""Constructive 6-coloring of oriented hexagonal grids, into A6.

A6, the packaged order-6 tournament, has the three-step path property:
between any two (not necessarily distinct) vertices u, v there is a walk
u, x, y, v whose three steps follow any prescribed direction pattern,
with consecutive vertices distinct. Among the tournaments of order at
most 6, only A6's isomorphism class has it, so A6 is the one target.
a6_path_table builds its witness table once per process, by
check_property1, which lets a single sweep color an arbitrary
orientation of a hexagonal grid row by row:

  * the first row is a path, colored greedily left to right;
  * each later row starts with one greedy choice against the vertex
    above, then repeatedly colors two new vertices at once by looking up
    the walk from the last colored row vertex to the already-colored
    anchor two columns over in the previous row;
  * a row's final vertex has no anchor above and is colored greedily.

The steps are HexGrid.sweep, built once per grid object from its
coordinates; the tests check for every m, n <= 30 that they constrain
each grid edge exactly once. Greedy steps need every vertex of A6 to
have in- and out-degree at least 1, which it has.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .digraph import OrientedGraph
from .hexgrid import HexGrid
from .tournaments import Tournament, fixture_a6

#: direction pattern of a three-edge walk; bit r is 1 when edge r points
#: from the u-side toward the v-side
OrientationPattern = tuple[int, int, int]

PathTable = dict[tuple[int, int, OrientationPattern], tuple[int, int]]

PATTERNS: tuple[OrientationPattern, ...] = tuple(
    (b0, b1, b2) for b0 in (0, 1) for b1 in (0, 1) for b2 in (0, 1)
)


@dataclass(frozen=True)
class Prop1Check:
    """Outcome of check_property1: the witness table on success, the
    unrealizable (u, v, pattern) triples otherwise."""

    holds: bool
    table: PathTable
    missing: tuple[tuple[int, int, OrientationPattern], ...]


def check_property1(t: Tournament, include_equal_endpoints: bool = True) -> Prop1Check:
    """Search, for every ordered endpoint pair and every 3-bit direction
    pattern, internal vertices (x, y) realizing the walk u, x, y, v.

    Each step is a lookup in the dominance bitmasks; a tournament has no
    loops, so consecutive walk vertices differ. Non-consecutive repeats
    are allowed, including u == v when the flag is set. Witnesses pick
    the lowest (x, y) in lexicographic order.
    """
    if t.order < 2:
        raise ValueError("target must have order >= 2")
    # step[1][a]: the vertices a dominates; step[0][a]: those dominating a
    step = (t.in_masks, t.out_masks)
    table: PathTable = {}
    missing = []
    for u in range(t.order):
        for v in range(t.order):
            if u == v and not include_equal_endpoints:
                continue
            for pat in PATTERNS:
                xs, ys = step[pat[0]][u], 0
                while xs and not ys:
                    x = (xs & -xs).bit_length() - 1
                    ys = step[pat[1]][x] & step[1 - pat[2]][v]
                    xs &= xs - 1
                if ys:
                    table[(u, v, pat)] = (x, (ys & -ys).bit_length() - 1)
                else:
                    missing.append((u, v, pat))
    return Prop1Check(not missing, table, tuple(missing))


@cache
def a6_path_table() -> tuple[tuple[int, int], ...]:
    """color_hex's walk table, built once per process: the witness (x, y)
    of the walk c0, x, y, ca in A6 with pattern (b0, b1, b2), equal
    endpoints included, at index (c0 * 6 + ca) << 3 | b0 << 2 | b1 << 1 | b2.
    ValueError when A6 lacks the three-step path property."""
    check = check_property1(fixture_a6(), include_equal_endpoints=True)
    if not check.holds:
        raise ValueError("A6 lacks the three-step path property")
    # PATTERNS lists the patterns in the order of their three bits
    return tuple(check.table[(u, v, pat)] for u in range(6) for v in range(6) for pat in PATTERNS)


def color_hex(
    grid: HexGrid,
    orientation: OrientedGraph,
    target: Tournament | None = None,
    table: tuple[tuple[int, int], ...] | None = None,
) -> tuple[int, ...]:
    """Color an orientation of the grid by a homomorphism into A6.

    The orientation must assign one direction to each grid edge. target and
    table may only be None, fixture_a6() and a6_path_table(); anything else
    raises ValueError. The result is deterministic and always a valid
    homomorphism.
    """
    a6, walks = fixture_a6(), a6_path_table()
    if target not in (None, a6) or table not in (None, walks):
        raise ValueError(
            "color_hex colors into A6 only: target and table must be None, "
            "fixture_a6() and a6_path_table()"
        )
    along = grid.directions(orientation)

    # a greedy step takes the lowest color adjacent in the required direction
    lowest_out = [(m & -m).bit_length() - 1 for m in a6.out_masks]
    lowest_in = [(m & -m).bit_length() - 1 for m in a6.in_masks]
    colors = [0] * orientation.n_vertices
    for step in grid.sweep:
        # an edge points the step's way when its direction bit equals its flag
        if len(step) == 4:
            v, a, e, same = step
            colors[v] = lowest_out[colors[a]] if along[e] == same else lowest_in[colors[a]]
            continue
        v0, v1, v2, a, e0, s0, e1, s1, e2, s2 = step
        colors[v1], colors[v2] = walks[
            (colors[v0] * 6 + colors[a]) << 3
            | (along[e0] == s0) << 2
            | (along[e1] == s1) << 1
            | (along[e2] == s2)
        ]

    out = a6.out_masks
    if not all(out[colors[u]] >> colors[v] & 1 for (u, v) in orientation.arcs):
        raise RuntimeError("internal error: coloring violates an arc")
    return tuple(colors)
