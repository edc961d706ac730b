"""Core graph type: oriented graphs, their re-orientations, and the shared
text file format.

Vertices are 0-based everywhere in memory; the text format is 1-based.

Record is the base of orihex's value records, here and in the other
modules. A record's fields are its class's own annotated names. Each class
has an explicit __init__ that writes the fields into the instance dict and
then runs the record's check, if it has one. Records compare and hash by
their fields, only against records of the same class, and repr as
Name(field=value, ...). They are frozen: assigning or deleting an
attribute raises AttributeError, so they are immutable after construction
and safe to share across threads. Cached properties sit in the instance
dict too, outside the fields, so equality, hashing and repr ignore them.

An OrientedGraph also serves as the reference direction of its edges:
a grid's graph lists each edge from its smaller coordinate, and orient,
enumerate_orientations and random_orientation keep or reverse its arcs,
one bit each. Arcs are validated where they come from outside: by the
public OrientedGraph constructor, and by the parser. The parser's line
walk goes through the constructor; its bulk read of canonical files
builds only pairs of vertices below n, so it checks the rest itself
(vertex -1, loops, repeats and 2-cycles) with the constructor's own
test. The re-orientations are built through _directed, which skips the
check: reversing arcs of an already validated graph can make no bad
endpoint, loop or repeat.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import islice
from operator import itemgetter

MAX_ENUMERATION_EDGES = 24

#: the most vertices a graph file or a built grid may have
MAX_VERTICES = 10**6

#: the canonical form serialize_digraph writes: an "N M" header and then
#: "u v" arc lines, ASCII digits, one space, each line ending in "\n"
_CANONICAL = re.compile(r"(?:[0-9]+ [0-9]+\n)+")


class GraphFormatError(ValueError):
    """Raised for malformed graph files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ArcError(ValueError):
    """Raised for an arc no orientation may hold: arcs[index], and what is wrong."""

    def __init__(self, index: int, arc: tuple[int, ...], problem: str):
        super().__init__(f"arc {arc} {problem}")
        self.index, self.problem = index, problem


def _loop_and_repeat_free(pairs: tuple[tuple[int, int], ...], reversed_pairs: Iterable) -> bool:
    """True when no pair is a self-loop or repeats another pair in either
    direction; reversed_pairs yields each pair reversed.

    C-level set work only: a self-loop (u, u) is its own reverse, so the
    reversed pairs meet the set exactly at self-loops, 2-cycles and
    reversed duplicates.
    """
    pair_set = set(pairs)
    return len(pair_set) == len(pairs) and pair_set.isdisjoint(reversed_pairs)


class Record:
    """Frozen value record: equality, hashing and repr over the fields, the
    class's own annotated names. A record with a list or dict field does
    not hash."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class OrientedGraph(Record):
    """Orientation of a simple graph: each edge carries exactly one direction,
    so the arc set is antisymmetric and loop-free.

    The constructor checks the arcs once, in bulk: pairs only, endpoints in
    0..n_vertices-1, no loop and no repeat in either direction, in one pass
    of C-level work. Only a graph that fails is walked arc by arc, to raise
    ArcError for its first bad arc. The re-orientations this module derives
    from a graph skip the check (see _directed).
    """

    n_vertices: int
    arcs: tuple[tuple[int, int], ...]

    def __init__(self, n_vertices: int, arcs: tuple[tuple[int, int], ...]):
        self.__dict__.update(n_vertices=n_vertices, arcs=arcs)
        # no arcs skip the bulk test, and the walk finds no fault in them
        if set(map(len, arcs)) == {2}:
            tails = tuple(map(itemgetter(0), arcs))
            heads = tuple(map(itemgetter(1), arcs))
            if (min(min(tails), min(heads)) >= 0 and max(max(tails), max(heads)) < n_vertices
                    and _loop_and_repeat_free(arcs, zip(heads, tails))):
                return
        seen = set()
        for i, arc in enumerate(arcs):
            if len(arc) != 2:
                raise ArcError(i, arc, "is not a pair")
            u, v = arc
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                problem = f"has an endpoint out of range ({n_vertices} vertices)"
            elif u == v:
                problem = "is a self-loop"
            elif (u, v) in seen:
                problem = "is a duplicate arc"
            elif (v, u) in seen:
                problem = "closes a 2-cycle"
            else:
                seen.add((u, v))
                continue
            raise ArcError(i, (u, v), problem)

    @cached_property
    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arcs)

    @cached_property
    def neighbors(self) -> tuple[tuple[tuple[int, bool], ...], ...]:
        """Per vertex: (other endpoint, True if the arc leaves this vertex)."""
        nbrs = [[] for _ in range(self.n_vertices)]
        for (u, v) in self.arcs:
            nbrs[u].append((v, True))
            nbrs[v].append((u, False))
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def search_order(self) -> tuple[tuple[int, ...], frozenset[int]]:
        """The static variable order of homomorphism_exists, and the
        positions in it where the connected components start; computed on
        the graph's first search and kept, like neighbors.

        One pass over the vertices by (-degree, index): each vertex not yet
        placed roots its component, which is then placed breadth-first with
        neighbors in ascending index. A component's root is therefore its
        maximum-degree vertex, the lowest index on ties. Isolated vertices
        sort last and are left out: any color serves them, so the search
        gives each its lowest without a node.
        """
        nbrs = self.neighbors
        placed = [False] * self.n_vertices
        order: list[int] = []
        starts: set[int] = set()
        head = 0
        # sorted() is stable, so equal degrees stay in ascending index
        for root in sorted(range(self.n_vertices), key=[-len(ns) for ns in nbrs].__getitem__):
            if placed[root]:
                continue
            if not nbrs[root]:
                break
            starts.add(len(order))
            placed[root] = True
            order.append(root)
            while head < len(order):
                for (w, _) in nbrs[order[head]]:
                    if not placed[w]:
                        placed[w] = True
                        order.append(w)
                head += 1
        return tuple(order), frozenset(starts)


def _unchecked(n_vertices: int, arcs: tuple[tuple[int, int], ...]) -> OrientedGraph:
    """An OrientedGraph made without its arc check, for arcs whose source
    already rules out every fault: made as build_hex_grid seeds
    HexGrid.index, fields set on a bare instance with no __init__ run."""
    graph = object.__new__(OrientedGraph)
    object.__setattr__(graph, "n_vertices", n_vertices)
    object.__setattr__(graph, "arcs", arcs)
    return graph


def _parse_int(tok: str, what: str, line: int) -> int:
    """The line walk's one number reader: ASCII digits after an optional
    '-'. int alone would also take '+1', '1_0' and non-ASCII digits."""
    if tok.isascii() and tok.removeprefix("-").isdigit():
        try:
            return int(tok)
        except ValueError:
            pass  # more digits than int converts
    raise GraphFormatError(f"{what} is not an integer: {tok!r}", line)


def parse_graph_file(text: str) -> tuple[OrientedGraph, dict[int, tuple[int, int]]]:
    """Parse the graph file format, returning the graph and any coordinate
    bindings from optional ``coord u a b`` lines (keys 0-based).

    Format: a header line "N M", then M lines "u v" (arc u -> v, 1-based).
    A line ends at LF, CR LF or CR. Numbers are ASCII digits, a '-'
    allowed before them. Lines starting with '#' and blank lines are
    ignored. N may be at most MAX_VERTICES. A bad arc is reported with its
    line.

    A file in the canonical form serialize_digraph writes is read in bulk:
    with commas for separators it is one JSON array of numbers, decoded by
    one json.loads, and the arcs are paired from that list. Pairing makes
    only pairs, and a vertex past n fails its index, so the bulk read
    checks the rest itself (a 0 token, loops, repeats and 2-cycles) with
    OrientedGraph's own test, then builds the graph unchecked. Any other
    file, and any canonical one that JSON refuses (leading zeros, a number
    too long for int) or the bulk read fails on, is walked line by line
    through the OrientedGraph constructor, which names the fault and its
    line. So the graph, or the error and its line, is the same either way.
    """
    if _CANONICAL.fullmatch(text):
        try:
            tokens = json.loads("[" + text[:-1].replace(" ", ",").replace("\n", ",") + "]")
            n, m = tokens[0], tokens[1]
            if n <= MAX_VERTICES and len(tokens) == 2 * m + 2:
                # token u names vertex u - 1, so token 0 reads as -1 and a
                # token past n raises IndexError; the arcs share one int per vertex
                vertices = list(map(list(range(-1, n)).__getitem__, islice(tokens, 2, None)))
                del tokens  # freed before the pairs and their set are built
                pairs = tuple(zip(islice(vertices, 0, None, 2), islice(vertices, 1, None, 2)))
                reversed_pairs = zip(islice(vertices, 1, None, 2), islice(vertices, 0, None, 2))
                if -1 not in vertices and _loop_and_repeat_free(pairs, reversed_pairs):
                    return _unchecked(n, pairs), {}
        except (ValueError, IndexError):
            # JSON's refusal, or a vertex past n: the walk below reads the
            # file or names the fault and its line
            pass
    header: tuple[int, int] | None = None
    arcs: list[tuple[int, int]] = []
    arc_lines: list[int] = []
    coords: dict[int, tuple[int, int]] = {}
    # lines end at "\n", "\r\n" or "\r" only: splitlines would also end one
    # at "\f", "\v", "\x85" or U+2028, and read an arc out of a comment
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        toks = raw.split()
        if not toks or toks[0].startswith("#"):
            continue
        if header is None:
            if len(toks) != 2:
                raise GraphFormatError("header must be 'N M'", lineno)
            n = _parse_int(toks[0], "vertex count", lineno)
            m = _parse_int(toks[1], "arc count", lineno)
            if n < 0 or m < 0:
                raise GraphFormatError("counts must be nonnegative", lineno)
            if n > MAX_VERTICES:
                raise GraphFormatError(f"vertex count {n} exceeds the limit {MAX_VERTICES}", lineno)
            header = (n, m)
            continue
        if toks[0] == "coord":
            if len(toks) != 4:
                raise GraphFormatError("coord line must be 'coord u a b'", lineno)
            n = header[0]
            u = _parse_int(toks[1], "coord vertex", lineno)
            if not (1 <= u <= n):
                raise GraphFormatError(f"coord vertex {u} out of range 1..{n}", lineno)
            if u - 1 in coords:
                raise GraphFormatError(f"duplicate coord for vertex {u}", lineno)
            a = _parse_int(toks[2], "coordinate", lineno)
            b = _parse_int(toks[3], "coordinate", lineno)
            coords[u - 1] = (a, b)
            continue
        if len(toks) != 2:
            raise GraphFormatError("arc line must be 'u v'", lineno)
        tail = _parse_int(toks[0], "arc tail", lineno)
        head = _parse_int(toks[1], "arc head", lineno)
        arcs.append((tail - 1, head - 1))
        arc_lines.append(lineno)
    if header is None:
        raise GraphFormatError("empty file: missing 'N M' header", 1)
    n, m = header
    try:
        graph = OrientedGraph(n, tuple(arcs))
    except ArcError as exc:
        u, v = arcs[exc.index]
        message = f"arc {u + 1} -> {v + 1} {exc.problem}"
        raise GraphFormatError(message, arc_lines[exc.index]) from None
    if len(arcs) != m:
        raise GraphFormatError(f"header declares {m} arcs but file lists {len(arcs)}")
    return graph, coords


def parse_digraph(text: str) -> OrientedGraph:
    """Parse a graph file (arc order preserved; coord lines accepted, ignored)."""
    return parse_graph_file(text)[0]


def serialize_digraph(g: OrientedGraph) -> str:
    """Canonical text form: header plus one 1-based 'u v' line per arc."""
    names = list(map(str, range(1, g.n_vertices + 1)))
    lines = [f"{g.n_vertices} {len(g.arcs)}"]
    lines += [f"{names[u]} {names[v]}" for (u, v) in g.arcs]
    return "\n".join(lines) + "\n"


def _normalize_code(code: Iterable[int] | str) -> tuple[int, ...]:
    bits = tuple(code)
    if not {0, 1, "0", "1"}.issuperset(bits):
        raise ValueError("orientation code must consist of 0/1 bits")
    return tuple(map(int, bits))


def _directed(g: OrientedGraph, bits: Iterable[int]) -> OrientedGraph:
    """Keep arc i of g where bits[i] is 1 and reverse it where it is 0, one
    bit per arc, without OrientedGraph's arc check: g's own check already
    rules out every fault an arc could have here.
    """
    # a kept arc is g's own tuple, so only reversed arcs are new objects
    arcs = tuple([a if b else (a[1], a[0]) for (a, b) in zip(g.arcs, bits)])
    return _unchecked(g.n_vertices, arcs)


def orient(g: OrientedGraph, code: Iterable[int] | str) -> OrientedGraph:
    """Direct each edge of g by the aligned code bit (1: as g directs it)."""
    bits = _normalize_code(code)
    if len(bits) != len(g.arcs):
        raise ValueError(f"code length {len(bits)} != edge count {len(g.arcs)}")
    return _directed(g, bits)


def enumerate_orientations(g: OrientedGraph) -> Iterator[OrientedGraph]:
    """All 2^|E| orientations of g's edges, streamed in lexicographic code
    order (bit 1: the edge as g directs it)."""
    m = len(g.arcs)
    if m > MAX_ENUMERATION_EDGES:
        raise ValueError(f"{m} edges exceeds enumeration limit {MAX_ENUMERATION_EDGES}")
    return (_directed(g, bits) for bits in itertools.product((0, 1), repeat=m))


#: byte -> its top bit, the bit getrandbits(1) takes from a 32-bit word
_TOP_BIT = bytes(b >> 7 for b in range(256))


def random_orientation(g: OrientedGraph, seed: int) -> OrientedGraph:
    """Seed-deterministic orientation of g's edges, uniform over the 2^|E|
    codes.

    Edge i is directed by the top bit of the i-th 32-bit output of
    random.Random(seed), the bit a getrandbits(1) call per edge would take:
    1 directs it as g does, 0 reverses it.
    The outputs are drawn in one getrandbits(32 * |E|) call, which yields
    the same words in order, so each seed keeps its orientation.
    """
    m = len(g.arcs)
    words = random.Random(seed).getrandbits(32 * m).to_bytes(4 * m, "little")
    # byte 3 of each little-endian word holds its top bit
    return _directed(g, words[3::4].translate(_TOP_BIT))

