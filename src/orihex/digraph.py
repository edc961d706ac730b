"""Core graph type: oriented graphs, their re-orientations, and the shared
text file format.

Vertices are 0-based everywhere in memory; the text format is 1-based.

Record is the base of orihex's value records, here and in the other
modules. A record's fields are its class's own annotated names. Record's
__init__ binds them, by position or by name, and is the one place that
writes them into the instance dict; a record with a check or a default
has an __init__ of its own for just that, which hands the fields on to
Record's. HexGrid, whose graph is not a field, writes its own. Records
compare and hash by their fields, only against records of the same
class, and repr as Name(field=value, ...). They are frozen: assigning or
deleting an attribute raises AttributeError, so they are immutable after
construction and safe to share across threads. Cached properties sit in
the instance dict too, outside the fields, so equality, hashing and repr
ignore them.

An OrientedGraph also serves as the reference direction of its edges:
a grid's graph lists each edge from its smaller coordinate, and orient,
enumerate_orientations and random_orientation keep or reverse its arcs,
one bit each. A re-orientation makes no arc of its own: each of its arcs
is its base graph's own tuple or the reversed tuple that the base keeps,
built once per base graph.

Arcs are checked where they enter the program, in the public
OrientedGraph constructor and in the parser; a graph that orihex derives
itself, from a checked graph or a grid's shape, is made with _unchecked.
The constructor walks the arcs one by one and names the first bad one.
The parser's line walk goes through the constructor; its bulk read of
canonical files builds only pairs of vertices below n, so it checks the
rest itself (vertex -1, loops, repeats and 2-cycles) with one set test
of its own.

The canonical form of the text format is what serialize_digraph
writes. The parser reads every text in bulk first, behind one C-level
guard (see _read_canonical), and walks the lines of any text the bulk
read turns away. serialize_digraph joins the arc lines in chunks of
_WRITE_CHUNK, so it never holds a list of every line.

A large tuple of fresh pairs is built from a list, tuple(list(pairs)),
never by tuple(<iterator>) straight: a tuple of unknown length grows by
resizing, and each resize puts it back in the cyclic garbage collector's
youngest generation, so every collection that the new pairs trigger
walks the growing tuple again. On Python 3.11 that made the collections
most of the 4 ms that H_{100,100}'s 30,399 pairs took, against 2.4 ms
through a list.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import chain, compress, islice
from operator import getitem, itemgetter

MAX_ENUMERATION_EDGES = 24

#: the most vertices a graph file or a built grid may have
MAX_VERTICES = 10**6

#: the arcs serialize_digraph writes per chunk of lines
_WRITE_CHUNK = 4096

#: the str.translate table that deletes the ASCII digits
_DELETE_DIGITS = dict.fromkeys(b"0123456789")


class GraphFormatError(ValueError):
    """Raised for malformed graph files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ArcError(ValueError):
    """Raised for an arc no orientation may hold: arcs[index], and what is wrong."""

    def __init__(self, index: int, arc: object, problem: str):
        super().__init__(f"arc {arc} {problem}")
        self.index, self.problem = index, problem


class Record:
    """Frozen value record: equality, hashing and repr over the fields, the
    class's own annotated names. A record with a list or dict field does
    not hash.

    Record(*values, **named) binds the fields in order, by position or by
    name, and raises TypeError, naming the fields, for a missing, extra,
    unknown or repeated one. A subclass defines __init__ only to add a
    check or a default, and hands the fields on to this one.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            # the names must be exactly the fields after the positional ones
            rest = fields[len(values):]
            if len(values) > len(fields) or named.keys() != set(rest):
                raise TypeError(
                    f"{self.__class__.__qualname__} takes the fields {', '.join(fields)};"
                    f" got {len(values)} by position and {', '.join(named) or 'none'} by name"
                )
            values += tuple(map(named.__getitem__, rest))
        # the one place a record's fields are written
        self.__dict__.update(zip(fields, values))

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

    The constructor stores the arcs as a tuple, walks them in order and
    raises ArcError for the first bad one: each arc a tuple pair of int
    endpoints in 0..n_vertices-1, no loop and no repeat in either
    direction. Graphs that orihex derives itself skip the check (see
    _unchecked).
    """

    n_vertices: int
    arcs: tuple[tuple[int, int], ...]

    def __init__(self, n_vertices: int, arcs: Iterable[tuple[int, int]]):
        super().__init__(n_vertices, tuple(arcs))
        seen = set()
        for i, arc in enumerate(self.arcs):
            if not isinstance(arc, tuple) or len(arc) != 2:
                raise ArcError(i, arc, "is not a pair")
            u, v = arc
            if type(u) is not int or type(v) is not int:
                problem = "has a non-integer endpoint"
            elif not (0 <= u < n_vertices and 0 <= v < n_vertices):
                problem = f"has an endpoint out of range ({n_vertices} vertices)"
            elif u == v:
                problem = "is a self-loop"
            elif arc in seen:
                problem = "is a duplicate arc"
            elif (v, u) in seen:
                problem = "closes a 2-cycle"
            else:
                seen.add(arc)
                continue
            raise ArcError(i, (u, v), problem)

    @cached_property
    def _reversed_arcs(self) -> tuple[tuple[int, int], ...]:
        """Arc i reversed, for each i: the arcs that re-orientations of this
        graph share, built once in C-level passes, through a list (see the
        module docstring)."""
        arcs = self.arcs
        return tuple(list(zip(map(itemgetter(1), arcs), map(itemgetter(0), arcs))))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, one tuple: the heads of its out-arcs in ascending
        order, then -1, then the tails of its in-arcs in ascending order.
        The ints are the arcs' own objects. Only the vertices that have arcs
        get a tuple of their own; the isolated ones share the empty tuple."""
        arcs = self.arcs
        linked = set(chain.from_iterable(arcs))
        adj: list = [()] * self.n_vertices
        pred = {}
        for w in linked:
            adj[w] = []
            pred[w] = []
        for (u, v) in arcs:
            adj[u].append(v)
            pred[v].append(u)
        for w in linked:
            out = adj[w]
            out.sort()
            out.append(-1)
            tails = pred[w]
            tails.sort()
            out += tails
            adj[w] = tuple(out)
        return tuple(adj)

    @cached_property
    def search_order(self) -> tuple[tuple[int, ...], frozenset[int]]:
        """The static variable order of homomorphism_exists, and the
        positions in it where the connected components start; computed on
        the graph's first search and kept, like adjacency.

        One pass over the vertices by (-degree, index): each vertex not yet
        placed roots its component, which is then placed breadth-first with
        neighbors in ascending index. A component's root is therefore its
        maximum-degree vertex, the lowest index on ties. Isolated vertices
        are neither sorted nor placed: any color serves them, so the search
        gives each its lowest without a node.
        """
        adj = self.adjacency
        placed = bytearray(self.n_vertices)
        order: list[int] = []
        starts: set[int] = set()
        head = 0
        # only vertices with arcs are sorted; sorted() is stable, also in
        # reverse, so equal degrees stay in ascending index
        for root in sorted(compress(range(self.n_vertices), adj), key=lambda v: len(adj[v]),
                           reverse=True):
            if placed[root]:
                continue
            starts.add(len(order))
            placed[root] = True
            order.append(root)
            while head < len(order):
                # -1 sorts first: the neighbours follow in ascending index
                for w in sorted(adj[order[head]])[1:]:
                    if not placed[w]:
                        placed[w] = True
                        order.append(w)
                head += 1
        return tuple(order), frozenset(starts)


def _unchecked(n_vertices: int, arcs: tuple[tuple[int, int], ...]) -> OrientedGraph:
    """An OrientedGraph made without its arc check, as is every graph that
    orihex derives from a checked graph or a grid's shape, whose source
    rules out every fault: Record's __init__ run on a bare instance, so
    the arcs are stored as given. Arcs from outside go through the
    constructor or the parser."""
    graph = object.__new__(OrientedGraph)
    Record.__init__(graph, n_vertices, arcs)
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


def _read_canonical(text: str) -> OrientedGraph | None:
    """The graph of a text in the canonical form serialize_digraph writes,
    read in bulk, or None where the line walk must read it or name its
    fault. The text ends in "\n", as parse_graph_file leaves it.

    The one guard is a C-level pass: the text is ASCII, and with its
    digits deleted it is " \n" repeated. With commas for separators it is
    then one JSON array of numbers, decoded by one json.loads, which
    refuses the ",,", "[," or ",]" that an empty digit run (a line that
    starts with a space or ends after one) leaves, so the guard need not
    look for one. The tails and the heads are mapped once each from that
    list through one table of shared vertex ints, and the arcs are paired
    from them. Pairing makes only pairs, and a vertex past n fails its
    index, so the rest (a 0 token, loops, repeats and 2-cycles) is checked
    here in C-level set work and the graph is built unchecked.

    The table holds one int per vertex number up to n, or, when n > 2m,
    up to the largest token: a file of few arcs over many vertices then
    costs memory by its arcs, not by n, and a dense file pays no max pass.
    """
    if not text.isascii():
        return None
    # str.translate keeps an ASCII text in its C fast path, where the
    # result is the one allocation; bytes.translate would add an encoded copy
    separators = text.translate(_DELETE_DIGITS)
    if separators != " \n" * (len(separators) // 2):
        return None
    try:
        tokens = json.loads("[" + text[:-1].replace(" ", ",").replace("\n", ",") + "]")
        n, m = tokens[0], tokens[1]
        if n <= MAX_VERTICES and len(tokens) == 2 * m + 2:
            # a sparse table stops at the largest token, or at n where a
            # token is past n, so that token still fails its index
            size = n if n <= 2 * m else min(n, max(islice(tokens, 2, None), default=0))
            # token u names vertex u - 1, so token 0 reads as -1 and a token
            # past the table raises IndexError; the arcs share one int per vertex
            vertex = list(range(-1, size)).__getitem__
            tails = list(map(vertex, islice(tokens, 2, None, 2)))
            heads = list(map(vertex, islice(tokens, 3, None, 2)))
            del tokens  # freed before the pairs and their set are built
            if -1 not in tails and -1 not in heads:
                pairs = tuple(list(zip(tails, heads)))
                # a loop (u, u) is its own reverse, so the reversed pairs meet
                # the set exactly at loops, 2-cycles and reversed repeats
                pair_set = set(pairs)
                if len(pair_set) == len(pairs) and pair_set.isdisjoint(zip(heads, tails)):
                    return _unchecked(n, pairs)
    except (ValueError, IndexError):
        # JSON's refusal (an empty digit run, leading zeros, a number too
        # long for int), or a vertex past n: the walk reads the file or
        # names the fault and its line
        pass
    return None


def parse_graph_file(text: str) -> tuple[OrientedGraph, dict[int, tuple[int, int]]]:
    """Parse the graph file format, returning the graph and any coordinate
    bindings from optional ``coord u a b`` lines (keys 0-based).

    Format: a header line "N M", then M lines "u v" (arc u -> v, 1-based).
    A line ends at LF, CR LF or CR. Numbers are ASCII digits, a '-'
    allowed before them. Lines starting with '#' and blank lines are
    ignored. N may be at most MAX_VERTICES. A bad arc is reported with its
    line.

    Once its line ends are LF, the last line's too, the text is read in
    bulk (see _read_canonical). A text the bulk read turns away, one not
    in the canonical form serialize_digraph writes, such as one with a
    comment or blank line, or one with a fault, is walked line by line
    through the OrientedGraph constructor, which names the fault and its
    line. So the graph, or the error and its line, is the same either way.
    """
    # lines end at "\n", "\r\n" or "\r" only: splitlines would also end one
    # at "\f", "\v", "\x85" or U+2028, and read an arc out of a comment
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):
        text += "\n"  # the walk skips the blank line this adds
    graph = _read_canonical(text)
    if graph is not None:
        return graph, {}
    header: tuple[int, int] | None = None
    arcs: list[tuple[int, int]] = []
    arc_lines: list[int] = []
    coords: dict[int, tuple[int, int]] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
        graph = OrientedGraph(n, arcs)
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
    """Canonical text form: header plus one 1-based 'u v' line per arc.

    The arc lines are joined _WRITE_CHUNK at a time, and the header and
    the chunks once more at the end, so no list of every line is held
    beside the text.
    """
    names = list(map(str, range(1, g.n_vertices + 1)))
    arcs = g.arcs
    parts = [f"{g.n_vertices} {len(arcs)}"]
    for start in range(0, len(arcs), _WRITE_CHUNK):
        chunk = arcs[start:start + _WRITE_CHUNK]
        parts.append("\n".join([f"{names[u]} {names[v]}" for (u, v) in chunk]))
    parts.append("")  # the last line ends in "\n" too
    return "\n".join(parts)


def _normalize_code(code: Iterable[int] | str) -> tuple[int, ...]:
    bits = tuple(code)
    if not {0, 1, "0", "1"}.issuperset(bits):
        raise ValueError("orientation code must consist of 0/1 bits")
    return tuple(map(int, bits))


def _directed(g: OrientedGraph, bits: Iterable[int]) -> OrientedGraph:
    """Keep arc i of g where bits[i] is 1 and reverse it where it is 0, one
    bit per arc, without OrientedGraph's arc check: g's own check already
    rules out every fault an arc could have here.

    Arc i of the result is the very tuple g.arcs[i] or g._reversed_arcs[i],
    so a re-orientation allocates only its outer tuple.
    """
    return _unchecked(g.n_vertices, tuple(map(getitem, zip(g._reversed_arcs, g.arcs), bits)))


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
    ValueError for a negative seed, which random.Random reads as |seed|.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    m = len(g.arcs)
    words = random.Random(seed).getrandbits(32 * m).to_bytes(4 * m, "little")
    # byte 3 of each little-endian word holds its top bit
    return _directed(g, words[3::4].translate(_TOP_BIT))

