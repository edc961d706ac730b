"""Constructive 6-coloring of oriented hexagonal grids.

The target tournament must satisfy the three-step path property: between
any two (not necessarily distinct) vertices u, v there is a walk
u, x, y, v whose three steps follow any prescribed direction pattern,
with consecutive vertices distinct. The witness table path_table builds
once per target, by check_property1, then lets a single sweep color an
arbitrary orientation of a hexagonal grid row by row:

  * the first row is a path, colored greedily left to right;
  * each later row starts with one greedy choice against the vertex
    above, then repeatedly colors two new vertices at once by looking up
    the walk from the last colored row vertex to the already-colored
    anchor two columns over in the previous row;
  * a row's final vertex has no anchor above and is colored greedily.

The steps are HexGrid.sweep, built once per grid object from its
coordinates; the tests check for every m, n <= 30 that they constrain
each grid edge exactly once.

Greedy steps only need every target vertex to have in- and out-degree
at least 1.
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
def path_table(t: Tournament) -> PathTable:
    """color_hex's witness table for target t, equal endpoints included;
    ValueError when t lacks the three-step path property."""
    check = check_property1(t, include_equal_endpoints=True)
    if not check.holds:
        raise ValueError("target lacks the three-step path property")
    return check.table


def a6_path_table() -> PathTable:
    """Witness table of the packaged order-6 target."""
    return path_table(fixture_a6())


def color_hex(
    grid: HexGrid,
    orientation: OrientedGraph,
    target: Tournament | None = None,
    table: PathTable | None = None,
) -> tuple[int, ...]:
    """Color an orientation of the grid by a homomorphism into the target.

    The orientation must assign one direction to each grid edge. The table
    must be path_table(target), its default; the target defaults to the
    packaged order-6 one. The result is deterministic and always a valid
    homomorphism.
    """
    if target is None:
        target = fixture_a6()
    if table is None:
        table = path_table(target)
    if min(target.out_degrees) < 1 or min(target.in_degrees) < 1:
        raise ValueError("target must have minimum in- and out-degree >= 1")
    along = grid.directions(orientation)
    # the table as a list, filled on first use: entry (c0, ca, (b0, b1, b2))
    # sits at (c0 * k + ca) << 3 | b0 << 2 | b1 << 1 | b2, so a pair step
    # builds no key, and a call costs at most one table lookup per key
    k = target.order
    walks: list[tuple[int, int] | None] = [None] * (k * k << 3)

    # a greedy step takes the lowest color adjacent in the required direction
    lowest_out = [(m & -m).bit_length() - 1 for m in target.out_masks]
    lowest_in = [(m & -m).bit_length() - 1 for m in target.in_masks]
    colors = [0] * orientation.n_vertices
    for step in grid.sweep:
        # an edge points the step's way when its direction bit equals its flag
        if len(step) == 4:
            v, a, e, same = step
            colors[v] = lowest_out[colors[a]] if along[e] == same else lowest_in[colors[a]]
            continue
        v0, v1, v2, a, e0, s0, e1, s1, e2, s2 = step
        i = (
            (colors[v0] * k + colors[a]) << 3
            | (along[e0] == s0) << 2
            | (along[e1] == s1) << 1
            | (along[e2] == s2)
        )
        entry = walks[i]
        if entry is None:
            # PATTERNS lists the patterns in the order of their three bits
            entry = walks[i] = table.get((colors[v0], colors[a], PATTERNS[i & 7]))
            if entry is None:
                raise RuntimeError("path table is missing a required entry")
        colors[v1], colors[v2] = entry

    out = target.out_masks
    if not all(out[colors[u]] >> colors[v] & 1 for (u, v) in orientation.arcs):
        raise RuntimeError("internal error: coloring violates an arc")
    return tuple(colors)
