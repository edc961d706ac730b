"""Expected outputs the benchmark checks the program against.

Nothing here calls into orihex: the verdict table is the paper's, and the
homomorphism decider is a second, unrelated algorithm (dynamic programming
over vertex-index order) for graphs whose vertex order has a narrow
frontier, such as small hexagonal grids numbered row by row.
"""

from __future__ import annotations

#: fixture -> target -> expected verdict of the 24 fixture searches that
#: ``verify-paper`` runs (see the behaviour invariants in ROADMAP.md).
H4_TARGETS_FOUND = frozenset({"T2", "T3", "T6", "T8", "T9", "T10", "T11", "T12"})
PAPER_VERDICTS = {
    ("H4", "T5"): "NONE",
    **{("H49", f"T{i}"): "NONE" for i in range(1, 13) if i != 5},
    ("H49", "T5"): "FOUND",
    **{
        ("H4", f"T{i}"): "FOUND" if f"T{i}" in H4_TARGETS_FOUND else "NONE"
        for i in range(1, 13)
        if i != 5
    },
}


def hom_exists(n_vertices: int, arcs, target_arcs) -> bool:
    """True iff some map of vertices 0..n-1 onto target vertices sends every
    arc (u, v) to an arc of the target.

    Vertices are added in index order. The state is the tuple of colors of
    the frontier: added vertices that still have a neighbor to come. The
    set of reachable states is kept in full, so the cost grows with the
    number of target vertices to the power of the frontier width.
    """
    out_mask: dict[int, int] = {}
    in_mask: dict[int, int] = {}
    for (a, b) in target_arcs:
        out_mask[a] = out_mask.get(a, 0) | (1 << b)
        in_mask[b] = in_mask.get(b, 0) | (1 << a)
    every = 0
    for c in set(out_mask) | set(in_mask):
        every |= 1 << c
    last = list(range(n_vertices))  # highest-index neighbor, or the vertex itself
    back: list[list[tuple[int, bool]]] = [[] for _ in range(n_vertices)]
    for (u, v) in arcs:
        last[u], last[v] = max(last[u], v), max(last[v], u)
        # checked when the later vertex is added; the flag: earlier end is the tail
        back[max(u, v)].append((min(u, v), u < v))
    frontier: list[int] = []
    states: set[tuple[int, ...]] = {()}
    for v in range(n_vertices):
        pos = {w: i for i, w in enumerate(frontier)}
        checks = [(pos[w], out_mask if tail else in_mask) for (w, tail) in back[v]]
        keep = [i for i, w in enumerate(frontier) if last[w] > v]
        stays = last[v] > v
        reached = set()
        for state in states:
            allowed = every
            for (i, masks) in checks:
                allowed &= masks.get(state[i], 0)
            kept = tuple(state[i] for i in keep)
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                reached.add(kept + (low.bit_length() - 1,) if stays else kept)
        if not reached:
            return False
        states = reached
        frontier = [frontier[i] for i in keep] + ([v] if stays else [])
    return True
