"""Tournaments: bitstring codec, isomorphism via canonical relabeling,
census of the isomorphism classes of orders 0..MAX_CENSUS_ORDER, and the
double-score-set invariant.

A tournament of order k is stored as per-vertex dominance bitmasks. The
bitstring form lists the upper triangle of the adjacency matrix in row
order — pairs (0,1), (0,2), ..., (k-2,k-1) — where bit 1 at pair (i,j)
means i dominates j and bit 0 means j dominates i.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cache, cached_property
from operator import itemgetter

from .digraph import Record

MAX_CANONICAL_ORDER = 8
MAX_CENSUS_ORDER = 6

#: Representatives of the 12 isomorphism classes of 5-tournaments.
TOURNAMENT_BITS = {
    "T1": "0000000000",
    "T2": "0000000101",
    "T3": "0000100010",
    "T4": "0000100100",
    "T5": "0001100100",
    "T6": "0010100101",
    "T7": "1000001000",
    "T8": "1000010000",
    "T9": "1000100000",
    "T10": "1000100101",
    "T11": "1000110101",
    "T12": "1100101110",
}

A6_ARCS = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (2, 3), (2, 4), (2, 5),
    (3, 4), (3, 1), (4, 5), (4, 0), (4, 1), (5, 0), (5, 3),
)


def _pairs(k: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


class Tournament(Record):
    """Complete oriented graph on {0, ..., order-1}."""

    order: int
    out_masks: tuple[int, ...]

    def __init__(self, order: int, out_masks: tuple[int, ...]):
        self.__dict__.update(order=order, out_masks=out_masks)
        k = self.order
        if len(self.out_masks) != k:
            raise ValueError("out_masks length must equal order")
        for i, mask in enumerate(self.out_masks):
            if mask >> k:
                raise ValueError(f"vertex {i} dominates out-of-range vertices")
            if mask & (1 << i):
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(k):
            for j in range(i + 1, k):
                fwd = bool(self.out_masks[i] & (1 << j))
                bwd = bool(self.out_masks[j] & (1 << i))
                if fwd == bwd:
                    raise ValueError(f"pair ({i},{j}) must have exactly one arc")

    @classmethod
    def from_arcs(cls, order: int, arcs: Sequence[tuple[int, int]]) -> "Tournament":
        masks = [0] * order
        for (u, v) in arcs:
            masks[u] |= 1 << v
        return cls(order, tuple(masks))

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out_masks[u] & (1 << v))

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        masks = [0] * self.order
        for u in range(self.order):
            for v in range(self.order):
                if self.has_arc(u, v):
                    masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def out_support(self) -> tuple[int, ...]:
        """Entry D (a vertex-set bitmask): the vertices some member of D
        dominates, the union of their out-masks."""
        return _support_table(self.out_masks)

    @cached_property
    def in_support(self) -> tuple[int, ...]:
        """Entry D (a vertex-set bitmask): the vertices dominating some
        member of D, the union of their in-masks."""
        return _support_table(self.in_masks)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (u, v) if self.has_arc(u, v) else (v, u) for (u, v) in _pairs(self.order)
        )

    @cached_property
    def bits(self) -> str:
        return "".join("1" if self.has_arc(i, j) else "0" for (i, j) in _pairs(self.order))

    @cached_property
    def out_degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.out_masks)

    @cached_property
    def in_degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.in_masks)


def _support_table(masks: Sequence[int]) -> tuple[int, ...]:
    # sets containing vertex i sit at D = 2^i + D' with D' < 2^i
    table = [0]
    for mask in masks:
        table += [entry | mask for entry in table]
    return tuple(table)


def parse_tournament(bits: str, k: int) -> Tournament:
    """Decode an upper-triangle bitstring of length k(k-1)/2."""
    expect = k * (k - 1) // 2
    if len(bits) != expect:
        raise ValueError(f"bitstring length {len(bits)} != k(k-1)/2 = {expect}")
    if set(bits) - {"0", "1"}:
        raise ValueError("bitstring must consist of 0/1 characters")
    masks = [0] * k
    for bit, (i, j) in zip(bits, _pairs(k)):
        if bit == "1":
            masks[i] |= 1 << j
        else:
            masks[j] |= 1 << i
    return Tournament(k, tuple(masks))


def arc_codes(t: Tournament) -> list[int]:
    """Encode each arc (u,v) of a 5-tournament as u + 5v; sorted ascending."""
    if t.order != 5:
        raise ValueError("arc codes are defined for order-5 tournaments")
    return sorted(u + 5 * v for (u, v) in t.arcs)


#: bit -> its complement, the bit of the same pair with the arc reversed
_COMPLEMENT = str.maketrans("01", "10")


@cache
def _relabelers(k: int) -> tuple[itemgetter, ...]:
    """For each relabeling of order k >= 2, an itemgetter that picks the
    relabeled bits out of bits + bits.translate(_COMPLEMENT).

    The bit at pair (i,j) of the relabeled tournament is 1 iff the
    original has the arc (inv[i], inv[j]): the original bit at pair
    (inv[i], inv[j]) when inv[i] < inv[j], else the complement of the bit
    at the swapped pair, which sits k(k-1)/2 places further on.
    """
    pair_list = _pairs(k)
    at = {pair: p for p, pair in enumerate(pair_list)}
    flipped = len(pair_list)
    getters = []
    for perm in itertools.permutations(range(k)):
        inv = [0] * k
        for x, px in enumerate(perm):
            inv[px] = x
        getters.append(itemgetter(*(
            at[(inv[i], inv[j])] if inv[i] < inv[j] else flipped + at[(inv[j], inv[i])]
            for (i, j) in pair_list
        )))
    return tuple(getters)


def _relabelings(bits: str, k: int) -> set[str]:
    """The bitstrings of every vertex relabeling of the order-k tournament
    with these bits: its isomorphism class."""
    if k < 2:
        return {bits}
    doubled = bits + bits.translate(_COMPLEMENT)
    return {"".join(get(doubled)) for get in _relabelers(k)}


def canonical_form(t: Tournament) -> str:
    """Lexicographically least bitstring over all vertex relabelings.

    Equal exactly for isomorphic tournaments; full k! scan, so order <= 8.
    """
    if t.order > MAX_CANONICAL_ORDER:
        raise ValueError(f"order {t.order} exceeds canonical-scan limit {MAX_CANONICAL_ORDER}")
    return min(_relabelings(t.bits, t.order))


@cache
def enumerate_tournaments(k: int) -> tuple[Tournament, ...]:
    """One representative per isomorphism class of k-tournaments, each in
    canonical form, sorted by bitstring; orders 0..MAX_CENSUS_ORDER.

    The 2^(k(k-1)/2) bitstrings are walked in increasing order, and only
    the first of each class is relabeled: it is the least of its class,
    and its k! relabelings are marked seen. Orders above the cap raise
    ValueError; order 6 (56 classes) takes about 0.1 s.
    """
    if not 0 <= k <= MAX_CENSUS_ORDER:
        raise ValueError(f"order {k} is outside the census range 0..{MAX_CENSUS_ORDER}")
    nbits = k * (k - 1) // 2
    seen: set[str] = set()
    classes = []
    for value in range(1 << nbits):
        bits = format(value, f"0{nbits}b") if nbits else ""
        if bits not in seen:
            seen |= _relabelings(bits, k)
            classes.append(parse_tournament(bits, k))
    return tuple(classes)


def double_score_set(t: Tournament) -> tuple[int, ...]:
    """Per vertex, the sum of out-degrees of its out-neighbors; sorted multiset."""
    deg = t.out_degrees
    return tuple(sorted(
        sum(deg[v] for v in range(t.order) if mask >> v & 1) for mask in t.out_masks
    ))


@cache
def fixture_a6() -> Tournament:
    """The order-6 coloring target: every vertex has in- and out-degree >= 2,
    and any two vertices are joined by length-3 paths of all 8 direction
    patterns (see hexcolor.check_property1). One cached object, so its
    masks, support tables and degrees are derived once per process."""
    return Tournament.from_arcs(6, A6_ARCS)


@cache
def named_tournament(name: str) -> Tournament:
    """Resolve the built-in names T1..T12 and A6: one cached object per
    name, as for fixture_a6, so its tables are derived once per process.
    An unknown name raises ValueError, and nothing is cached for it."""
    if name == "A6":
        return fixture_a6()
    bits = TOURNAMENT_BITS.get(name)
    if bits is None:
        raise ValueError(f"unknown tournament name {name!r}")
    return parse_tournament(bits, 5)


def resolve_tournament(text: str) -> Tournament:
    """Parse 'T1'..'T12', 'A6', or the '<k>:<bitstring>' text form."""
    if ":" in text:
        k_str, bits = text.split(":", 1)
        try:
            k = int(k_str)
        except ValueError:
            raise ValueError(f"bad tournament order in {text!r}") from None
        return parse_tournament(bits, k)
    return named_tournament(text)
