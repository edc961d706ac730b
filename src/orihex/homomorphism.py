"""Deciding homomorphism existence from an oriented graph to a tournament.

Two independent routes: a complete, iterative backtracking search that
maintains arc consistency over bitmask domains (the workhorse), and a
frontier dynamic program used as a cross-checking oracle on instances
whose vertex order keeps the frontier narrow. Both are deterministic.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence

from .digraph import OrientedGraph, Record
from .tournaments import Tournament, enumerate_tournaments

BRUTE_FORCE_GUARD = 10**7

Homomorphism = tuple[int, ...]


class SearchBudgetExceeded(RuntimeError):
    """Raised when a solve exceeds an explicitly requested time budget."""


class HomResult(Record):
    """Search outcome: a validated witness map, or proof of nonexistence
    with statistics of the completed search."""

    found: bool
    witness: Homomorphism | None
    nodes_expanded: int
    max_depth: int


def validate_homomorphism(g: OrientedGraph, t: Tournament, phi: Sequence[int]) -> bool:
    """True iff phi maps every arc of g onto an arc of t.

    phi must be total on g's vertices with values inside t's vertex set;
    anything else is a usage error, not a False verdict.
    """
    if len(phi) != g.n_vertices:
        raise ValueError(f"map covers {len(phi)} of {g.n_vertices} vertices")
    k = t.order
    for c in phi:
        if not 0 <= c < k:
            raise ValueError(f"color {c} outside 0..{k - 1}")
    out = t.out_masks
    for (u, v) in g.arcs:
        if not out[phi[u]] >> phi[v] & 1:
            return False
    return True


def search_record(g: OrientedGraph, t: Tournament, result: HomResult) -> dict:
    """The JSON record of a search outcome, for `hom check --json` and the
    verify-paper report; `witness` and `witness_valid` are None for NONE."""
    return {
        "verdict": "FOUND" if result.found else "NONE",
        "witness": list(result.witness) if result.found else None,
        "witness_valid": validate_homomorphism(g, t, result.witness) if result.found else None,
        "nodes_expanded": result.nodes_expanded,
        "max_depth": result.max_depth,
    }


#: the largest target order searched: each support table holds 2^order entries
MAX_SEARCH_ORDER = 16


def _deadline(time_budget_s: float | None) -> float | None:
    """The time.monotonic() deadline of a time budget, None for no budget;
    ValueError unless the budget is a finite number of seconds above 0."""
    if time_budget_s is None:
        return None
    if not 0 < time_budget_s < math.inf:
        raise ValueError(
            f"time budget must be a finite number of seconds above 0, got {time_budget_s}"
        )
    return time.monotonic() + time_budget_s


def _propagate(
    pending: set[int],
    doms: list[int],
    trail: list[tuple[int, int]],
    adj: Sequence[Sequence[int]],
    out_sup: Sequence[int],
    in_sup: Sequence[int],
) -> tuple[int, int] | None:
    """Revise the neighbors of each pending vertex, in any order, adding
    each vertex whose domain narrows, until none is pending; each change
    is pushed on the trail as (vertex, old domain). A vertex's successors
    are revised against the out-support of its domain, and its
    predecessors, after the -1 in its adjacency, against the in-support.
    None at the fixpoint, else the arc (v, w) whose revision emptied w's
    domain, which is left as it was. Whether a wipeout happens does not
    depend on the order: there is one fixpoint; which arc is named does."""
    while pending:
        v = pending.pop()
        dv = doms[v]
        sup = out_sup[dv]
        for w in adj[v]:
            if w >= 0:
                dw = doms[w]
                nd = dw & sup
                if nd != dw:
                    if not nd:
                        return (v, w)
                    trail.append((w, dw))
                    doms[w] = nd
                    pending.add(w)
            else:
                sup = in_sup[dv]
    return None


def _undo(doms: list[int], trail: list[tuple[int, int]], mark: int) -> None:
    """Pop the trail down to length mark, restoring each domain it saved."""
    while len(trail) > mark:
        w, d = trail.pop()
        doms[w] = d


def homomorphism_exists(
    g: OrientedGraph, t: Tournament, time_budget_s: float | None = None
) -> HomResult:
    """Complete search for a homomorphism g -> t that maintains arc
    consistency.

    Domains are bitmasks of target vertices. Arc consistency runs once at
    the root and again after every assignment: across each arc, a vertex
    keeps only the colors that some color of its neighbor supports,
    doms[w] & sup[doms[v]] with the target's out- or in-support table,
    until no domain changes. The vertices to revise form a set, taken in
    any order: the domains end as the largest arc-consistent ones inside
    the starting ones whatever the order (Mackworth 1977), so no result
    depends on it. A trail of (vertex, old domain) pairs undoes the
    changes of a color that wipes out a domain, and of a position whose
    colors run out, so each position starts at the trail length it marked.

    Vertices are assigned in the static order of `g.search_order`, which
    the graph computes on its first search and keeps for every later one,
    target vertices tried in ascending order. Isolated vertices are not in
    the order: each takes color 0 without a node, and an empty target
    leaves any graph with a vertex uncolorable. Propagation only removes
    colors that no homomorphism extending the current assignment uses, so
    the witness is the lexicographically first in that order; it and the
    verdict are deterministic. Components share no arcs: when the first
    vertex of a component runs out of colors, no homomorphism exists.

    `nodes_expanded` counts the colors tried and `max_depth` the most
    vertices of the order assigned at once. A time budget must be a finite
    number of seconds above 0 (ValueError otherwise); its deadline is
    checked at every node, and SearchBudgetExceeded is raised once it has
    passed.
    """
    k = t.order
    if k > MAX_SEARCH_ORDER:
        raise ValueError(f"target order {k} exceeds the search limit {MAX_SEARCH_ORDER}")
    deadline = _deadline(time_budget_s)
    adj = g.adjacency
    out_sup, in_sup = t.out_support, t.in_support
    full = (1 << k) - 1
    if not full and g.n_vertices:
        # no color for any vertex, an isolated one included
        return HomResult(False, None, 0, 0)
    doms = [full] * g.n_vertices
    trail: list[tuple[int, int]] = []
    # full domains are arc consistent unless the target has a source or a sink
    if (
        out_sup[full] & in_sup[full] != full
        and _propagate(set(range(g.n_vertices)), doms, trail, adj, out_sup, in_sup)
        is not None
    ):
        return HomResult(False, None, 0, 0)
    order, starts = g.search_order
    m = len(order)
    choices = [0] * m  # colors still to try at each position
    marks = [0] * m  # trail length before each position's assignment
    nodes = 0
    max_depth = 0
    p = 0
    if m:
        choices[0] = doms[order[0]]
        marks[0] = len(trail)
    while p < m:
        vals = choices[p]
        if not vals:
            if p in starts:
                return HomResult(False, None, nodes, max_depth)
            p -= 1
            _undo(doms, trail, marks[p])
            continue
        low = vals & -vals
        choices[p] = vals ^ low
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            raise SearchBudgetExceeded(f"time budget {time_budget_s}s exceeded")
        v = order[p]
        # assigning a vertex its only color changes nothing: the domains
        # are already arc consistent
        if doms[v] != low:
            trail.append((v, doms[v]))
            doms[v] = low
            if _propagate({v}, doms, trail, adj, out_sup, in_sup) is not None:
                _undo(doms, trail, marks[p])
                continue
        p += 1
        if p > max_depth:
            max_depth = p
        if p < m:
            choices[p] = doms[order[p]]
            marks[p] = len(trail)

    if m < g.n_vertices:
        # the vertices left out of the order are isolated and keep full domains
        colors = [d.bit_length() - 1 if a else 0 for (d, a) in zip(doms, adj)]
    else:
        colors = [d.bit_length() - 1 for d in doms]
    del doms  # freed before the witness tuple is built
    witness = tuple(colors)
    assert validate_homomorphism(g, t, witness)
    return HomResult(True, witness, nodes, max_depth)


def _frontier_steps(g: OrientedGraph, k: int) -> list[tuple]:
    """Per vertex v in index order: v's arcs to earlier vertices as (frontier
    position, earlier end is the tail), the frontier positions that stay,
    and whether v joins the frontier, the added vertices with a neighbor
    still to come. ValueError once k^|frontier| exceeds BRUTE_FORCE_GUARD."""
    last = list(range(g.n_vertices))  # highest-index neighbor, or the vertex itself
    back: list[list[tuple[int, bool]]] = [[] for _ in last]
    for (u, v) in g.arcs:
        last[u], last[v] = max(last[u], v), max(last[v], u)
        back[max(u, v)].append((min(u, v), u < v))
    frontier: list[int] = []
    steps = []
    for v in range(g.n_vertices):
        keep = [i for i, w in enumerate(frontier) if last[w] > v]
        stays = last[v] > v
        steps.append(([(frontier.index(w), tail) for (w, tail) in back[v]], keep, stays))
        frontier = [frontier[i] for i in keep] + [v] * stays
        if k ** len(frontier) > BRUTE_FORCE_GUARD:
            raise ValueError(f"{k}^{len(frontier)} frontier states exceed {BRUTE_FORCE_GUARD}")
    return steps


def brute_force_hom(g: OrientedGraph, t: Tournament) -> HomResult:
    """Dynamic program over g's vertices in index order: the independent
    oracle for homomorphism_exists, reading only t's out- and in-masks.

    A state is the tuple of colors of the frontier. Each layer maps every
    reachable state to the (previous state, color) that first reached it,
    so a FOUND result reads its witness back. Instances whose frontier
    allows more than BRUTE_FORCE_GUARD states are refused before the DP
    starts. `nodes_expanded` counts the states reached and `max_depth` the
    vertices processed.
    """
    k = t.order
    steps = _frontier_steps(g, k)
    out, inn = t.out_masks, t.in_masks
    layers: list[dict] = [{(): None}]
    nodes = 0
    for (back, keep, stays) in steps:
        checks = [(i, out if tail else inn) for (i, tail) in back]
        reached: dict = {}
        for state in layers[-1]:
            allowed = (1 << k) - 1
            for (i, masks) in checks:
                allowed &= masks[state[i]]
            if not stays:
                allowed &= -allowed  # v leaves the frontier: one color serves
            kept = tuple(state[i] for i in keep)
            while allowed:
                c = (allowed & -allowed).bit_length() - 1
                allowed ^= 1 << c
                reached.setdefault(kept + (c,) if stays else kept, (state, c))
        nodes += len(reached)
        if not reached:
            return HomResult(False, None, nodes, len(layers))
        layers.append(reached)
    witness = [0] * len(steps)
    state = ()  # the frontier is empty after the last vertex
    for v in reversed(range(len(steps))):
        state, witness[v] = layers[v + 1][state]
    assert validate_homomorphism(g, t, witness)
    return HomResult(True, tuple(witness), nodes, len(steps))


def chi_o(
    g: OrientedGraph, k_max: int = 5, time_budget_s: float | None = None
) -> int | None:
    """Least k <= k_max such that g has an oriented k-coloring (0 for no
    vertices), else None; ValueError if k_max < 1 or the search passes
    MAX_CENSUS_ORDER.

    A time budget is checked as in homomorphism_exists and counts over
    the whole call: each search gets the time still left, and
    SearchBudgetExceeded, naming this budget, is raised once none is."""
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    deadline = _deadline(time_budget_s)
    if not g.n_vertices:
        return 0
    try:
        for k in range(1, k_max + 1):
            for t in enumerate_tournaments(k):
                left = deadline - time.monotonic() if deadline is not None else None
                if left is not None and left <= 0:
                    raise SearchBudgetExceeded
                if homomorphism_exists(g, t, time_budget_s=left).found:
                    return k
    except SearchBudgetExceeded:
        # name the caller's budget, not the remainder a search was given
        raise SearchBudgetExceeded(f"time budget {time_budget_s}s exceeded") from None
    return None
