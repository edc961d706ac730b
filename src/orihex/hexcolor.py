"""Constructive 6-coloring of oriented hexagonal grids, into A6.

A6, the packaged order-6 tournament, has the three-step path property:
between any two (not necessarily distinct) vertices u, v there is a walk
u, x, y, v whose three steps follow any prescribed direction pattern,
with consecutive vertices distinct. Among the tournaments of order at
most 6, only A6's isomorphism class has it, so A6 is the one target.
a6_path_table takes its witness table once per process from
check_property1, in that table's one layout, which lets a single sweep
color an arbitrary orientation of a hexagonal grid row by row:

  * the first row is a path, colored greedily left to right;
  * each later row starts with one greedy choice against the vertex
    above, then repeatedly colors two new vertices at once by looking up
    the walk from the last colored row vertex to the already-colored
    anchor two columns over in the previous row;
  * a row's final vertex has no anchor above and is colored greedily.

The steps are HexGrid.sweep: row 1's greedy steps and one record per
later row, kept with the grid. A record gives a row's pairs as the range
of the vertices they color and the slices of the colors and directions
their walks read, so color_hex does no stride arithmetic. The tests
check, on every shape up to 30 x 30 and on larger and thin ones, that
the records expand to a coordinate-lookup reference sweep whose steps
constrain each grid edge exactly once. Greedy steps need every vertex of
A6 to have in- and out-degree at least 1, which it has.
"""

from __future__ import annotations

from functools import cache

from .digraph import OrientedGraph, Record
from .hexgrid import HexGrid
from .tournaments import Tournament, fixture_a6

#: direction pattern of a three-edge walk; bit r is 1 when edge r points
#: from the u-side toward the v-side
OrientationPattern = tuple[int, int, int]


class Prop1Check(Record):
    """Outcome of check_property1: the witness table on success, the
    unrealizable (u, v, pattern) triples otherwise."""

    holds: bool
    #: witness (x, y) of the walk u, x, y, v with pattern (b0, b1, b2), at
    #: key (u * order + v) << 3 | b0 << 2 | b1 << 1 | b2, in key order
    table: dict[int, tuple[int, int]]
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
    table: dict[int, tuple[int, int]] = {}
    missing = []
    for u in range(t.order):
        for v in range(t.order):
            if u == v and not include_equal_endpoints:
                continue
            for bits in range(8):
                b0, b1, b2 = bits >> 2, bits >> 1 & 1, bits & 1
                xs, ys = step[b0][u], 0
                while xs and not ys:
                    x = (xs & -xs).bit_length() - 1
                    ys = step[b1][x] & step[1 - b2][v]
                    xs &= xs - 1
                if ys:
                    table[(u * t.order + v) << 3 | bits] = (x, (ys & -ys).bit_length() - 1)
                else:
                    missing.append((u, v, (b0, b1, b2)))
    return Prop1Check(not missing, table, tuple(missing))


@cache
def a6_path_table() -> tuple[tuple[int, int], ...]:
    """color_hex's walk table, built once per process: check_property1's
    table for A6, equal endpoints included, as a tuple in key order, so
    the witness of the walk c0, x, y, ca with pattern (b0, b1, b2) is at
    index (c0 * 6 + ca) << 3 | b0 << 2 | b1 << 1 | b2. ValueError when
    A6 lacks the three-step path property."""
    check = check_property1(fixture_a6(), include_equal_endpoints=True)
    if not check.holds:
        raise ValueError("A6 lacks the three-step path property")
    return tuple(check.table.values())


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
    first, rows = grid.sweep
    for v, a, e in first:
        colors[v] = lowest_out[colors[a]] if along[e] else lowest_in[colors[a]]
    for (v, a, e), targets, anchors, e0s, e1s, e2s, e2_last, tail in rows:
        c = colors[v] = lowest_out[colors[a]] if along[e] else lowest_in[colors[a]]
        up = along[e2s]
        up.append(along[e2_last])
        for v, ca, b0, b1, b2 in zip(targets, colors[anchors], along[e0s], along[e1s], up):
            # the walk crosses e2 from v2 up to the anchor, against its listing
            colors[v], c = walks[(c * 6 + ca) << 3 | b0 << 2 | b1 << 1 | (not b2)]
            colors[v + 1] = c
        for v, a, e in tail:
            colors[v] = lowest_out[colors[a]] if along[e] else lowest_in[colors[a]]

    out = a6.out_masks
    if not all(out[colors[u]] >> colors[v] & 1 for (u, v) in orientation.arcs):
        raise RuntimeError("internal error: coloring violates an arc")
    return tuple(colors)
