import hashlib
import itertools
import random
import re
import tracemalloc

import pytest

from orihex import digraph
from orihex.digraph import (
    MAX_VERTICES,
    ArcError,
    GraphFormatError,
    OrientedGraph,
    enumerate_orientations,
    orient,
    parse_digraph,
    parse_graph_file,
    random_orientation,
    serialize_digraph,
)
from orihex.hexgrid import build_hex_grid, fixture_file_bytes, fixture_h4, orientation_extending


def path(n):
    return OrientedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n):
    return OrientedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def test_parse_minimal():
    g = parse_digraph("2 1\n1 2")
    assert g.n_vertices == 2
    assert g.arcs == ((0, 1),)


def test_parse_comments_and_blanks():
    g = parse_digraph("# header comment\n\n3 2\n1 2\n# mid comment\n3 2\n")
    assert g.arcs == ((0, 1), (2, 1))
    # a line ends at LF, CR LF or CR only; any other line break stays inside
    # its line, and so inside a comment
    for text in (
        "3 2\r\n1 2\r\n# c\r\n3 2\r\n",
        "3 2\r1 2\r\r# c\r3 2",
        "# a\fb\n3 2\n1 2\n# see\f2 3\n3 2\n",
        "# a\u2028b\n3 2\n1 2\n# \v\x1c\x1d\x1e\x85\u20292 3\n3 2\n",
    ):
        assert parse_digraph(text).arcs == ((0, 1), (2, 1)), repr(text)


def test_parse_preserves_arc_order():
    g = parse_digraph("4 3\n4 3\n1 2\n2 3\n")
    assert g.arcs == ((3, 2), (0, 1), (1, 2))


def test_parse_packaged_h4_degree_bound():
    g = parse_digraph(fixture_file_bytes("H4").decode())
    assert g.n_vertices == 18
    assert len(g.arcs) == 21
    assert all(len(adj) - 1 <= 3 for adj in g.adjacency)


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("", "header", 1),
        ("2\n", "header", 1),
        ("x 1\n1 2", "not an integer", 1),
        ("2 1\n1\n", "arc line", 2),
        ("2 1\n1 3\n", "out of range", 2),
        ("2 1\n0 2\n", "out of range", 2),
        ("2 1\n1 1\n", "self-loop", 2),
        ("2 2\n1 2\n1 2\n", "duplicate arc", 3),
        ("2 2\n1 2\n2 1\n", "2-cycle", 3),
        ("3 2\n1 2\n", "declares 2 arcs", None),
        ("2 1\n1 2\ncoord 3 0 0\n", "out of range", 3),
        ("2 1\n1 2\ncoord 1 0\n", "coord line", 3),
        ("2 1\n1 2\ncoord 1 0 1\ncoord 1 0 2\n", "duplicate coord for vertex 1", 4),
        ("2 1\nx 2\n", "arc tail is not an integer", 2),
        ("2 1\n1 y\n", "arc head is not an integer", 2),
        ("2 1\n" + "9" * 5000 + " 1\n", "arc tail is not an integer", 2),
        ("2 1\n+1 2\n", "arc tail is not an integer", 2),
        ("12 1\n1_0 2\n", "arc tail is not an integer", 2),
        ("2 1\n\u0661 2\n", "arc tail is not an integer", 2),
        ("# a\fb\n2 1\n1 1\n", "self-loop", 3),
        ("# a\r\n2 1\r\n1 1\r\n", "self-loop", 3),
        ("# a\r2 1\r1 1\r", "self-loop", 3),
        ("3 2\n1 2\n# see\f2 3\n", "declares 2 arcs", None),
    ],
)
def test_parse_errors_name_lines(text, fragment, line):
    with pytest.raises(GraphFormatError) as exc:
        parse_digraph(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


def test_parse_reads_leading_zeros():
    """JSON refuses a leading zero, so the bulk read hands such a
    canonical file to the line walk, which reads 01 as 1."""
    assert parse_digraph("2 1\n01 2\n") == OrientedGraph(2, ((0, 1),))
    assert parse_digraph("02 01\n2 001\n") == OrientedGraph(2, ((1, 0),))


def _outcome(text):
    """parse_graph_file's result, or its GraphFormatError's message without
    the line prefix and its line; any other exception propagates."""
    try:
        return parse_graph_file(text)
    except GraphFormatError as exc:
        return re.sub(r"^line \d+: ", "", str(exc)), exc.line


def _walked_outcome(text, monkeypatch):
    """_outcome(text) with the bulk read shut off: it turns every text away,
    so every file goes to the line walk."""
    with monkeypatch.context() as patch:
        patch.setattr(digraph, "_read_canonical", lambda text: None)
        return _outcome(text)


#: the canonical form as a pattern: the bulk read reads no other text
CANONICAL = re.compile(r"(?:[0-9]+ [0-9]+\n)+")


def _mutated(text, rng):
    """One random fault, or none, in a canonical graph file."""
    lines = [line.split(" ") for line in text.splitlines()]
    i = rng.randrange(len(lines))
    j = rng.randrange(len(lines[i]))
    kind = rng.randrange(11)
    if kind == 0:
        return text[: rng.randrange(1, len(text))]
    if kind == 1:
        i2 = rng.randrange(len(lines))
        j2 = rng.randrange(len(lines[i2]))
        lines[i][j], lines[i2][j2] = lines[i2][j2], lines[i][j]
    elif kind == 2:
        del lines[i][j]
    elif kind == 3:
        lines.insert(rng.randrange(len(lines) + 1), list(lines[i]))
    elif kind == 4:
        lines[i][j] = rng.choice(["0", f"-{rng.randint(1, 9)}", "7" * 5000])
    elif kind == 5:
        lines.insert(1, list(lines[0]))
    elif kind == 6:
        lines[i][j] = lines[i][j][:-1] + "\u0663"
    elif kind == 7:
        return text.replace("\n", "\r\n")
    elif kind == 8:
        lines[i][j] = str(int(lines[i][j]) + rng.randint(1, 3))
    elif kind == 9:
        lines[i][j] = "0" + lines[i][j]
    return "".join(" ".join(line) + "\n" for line in lines)


def _assert_reads_as_walked(text, monkeypatch):
    """Asserts that text reads as the line walk reads it behind a comment
    line: the same graph and coords, or the same error one line lower.
    Returns _outcome(text)."""
    got, walked = _outcome(text), _walked_outcome("# x\n" + text, monkeypatch)
    assert _outcome("# x\n" + text) == walked
    if isinstance(walked[0], OrientedGraph):
        assert got == walked
    else:
        message, line = walked
        assert got == (message, None if line is None else line - 1)
    return got


def test_bulk_read_agrees_with_the_line_walk(monkeypatch):
    """Canonical files and their mutants read as the line walk reads them
    behind a comment line: the same graph and coords, or the same error
    one line lower. Canonical texts with a leading zero, which JSON
    refuses, must reach the walk and read as it reads them."""
    rng = random.Random(11)
    grid = build_hex_grid(3, 3)
    sources = [serialize_digraph(random_orientation(grid.graph, seed)) for seed in range(3)]
    for _ in range(20):
        n = rng.randint(1, 9)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        arcs = tuple(
            (u, v) if rng.random() < 0.5 else (v, u)
            for (u, v) in pairs[: rng.randint(0, len(pairs))]
        )
        sources.append(serialize_digraph(OrientedGraph(n, arcs)))
    for _ in range(10):
        # sparse: more vertices than arc endpoints, the largest one sometimes n
        n = rng.randint(20, 60)
        ends = rng.sample(range(n - 1), rng.randint(2, 8))
        if rng.random() < 0.5:
            ends[-1] = n - 1
        arcs = tuple(zip(ends[::2], ends[1::2]))
        sources.append(serialize_digraph(OrientedGraph(n, arcs)))
    bulk_read, bulk_refused, zero_led = 0, 0, 0
    for _ in range(600):
        text = _mutated(rng.choice(sources), rng)
        got = _assert_reads_as_walked(text, monkeypatch)
        if CANONICAL.fullmatch(text):
            if isinstance(got[0], OrientedGraph):
                bulk_read += 1
                zero_led += re.search(r"(?<![0-9])0[0-9]", text) is not None
            else:
                bulk_refused += 1
    assert bulk_read > 50 and bulk_refused > 50 and zero_led > 10


DIGIT_RUNS = ["0", "1", "7", "42", "305"]

#: what a near-canonical text below may have put in: digit runs, the two
#: separators, doubled separators, characters a canonical text never has,
#: and nothing, which empties the piece it replaces
NEAR_CANONICAL_PIECES = DIGIT_RUNS + [" ", "\n", "  ", "\n\n", "-", "\t", "\u0663", "\u00e9", ""]


def _near_canonical(rng):
    """A short text of "u v" lines, an "N M" header first or not, with up to
    two pieces put in, replaced or deleted."""
    pieces = ["3", " ", "2", "\n"] if rng.random() < 0.5 else []
    for _ in range(rng.randint(0, 3)):
        pieces += [rng.choice(DIGIT_RUNS), " ", rng.choice(DIGIT_RUNS), "\n"]
    for _ in range(rng.randint(0, 2)):
        at = rng.randrange(len(pieces) + 1)
        piece = rng.choice(NEAR_CANONICAL_PIECES)
        if at == len(pieces):
            pieces.append(piece)
        elif rng.random() < 0.5:
            pieces[at] = piece
        else:
            pieces.insert(at, piece)
    return "".join(pieces)


def _with_final_newline(text):
    """text with the final newline parse_graph_file gives a text that lacks one."""
    return text if text.endswith("\n") else text + "\n"


def test_canonical_test_agrees_with_the_pattern():
    """The bulk read returns a graph only for texts the pattern of the
    canonical form accepts, on 100,000 short near-canonical texts: its
    guard drops no test that JSON does not make, empty digit runs too.
    Every text serialize_digraph writes still reads in bulk."""
    rng = random.Random(32)
    read = 0
    for _ in range(100_000):
        text = _with_final_newline(_near_canonical(rng))
        if digraph._read_canonical(text) is not None:
            assert CANONICAL.fullmatch(text), repr(text)
            read += 1
    assert read > 1_000
    for text in ("", "\n", " \n", "1 2", "1 2\n", " 1 2\n", "1  2\n", "1 2 \n", "1 2\n\n",
                 "1 2\n 3 4\n", "1\n2 3\n", "1 2 3\n", "\u0663 2\n", "1 2\n3"):
        assert digraph._read_canonical(_with_final_newline(text)) is None, repr(text)
    for g in (OrientedGraph(0, ()), OrientedGraph(4, ()), path(2), cycle(5)):
        assert digraph._read_canonical(serialize_digraph(g)) == g


@pytest.fixture(scope="module")
def h100():
    return random_orientation(build_hex_grid(100, 100).graph, 3)


def _traced_peak(call, *args):
    """The most memory that call(*args) held at once, in bytes, by tracemalloc."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_canonical_test_holds_one_copy_of_the_text(h100):
    """The bulk read's guard turns H_{100,100}'s file with a comment line
    after it away holding less than twice the text; the pattern's
    backtracking state took 20 times it."""
    text = serialize_digraph(h100) + "# end\n"
    assert digraph._read_canonical(text) is None
    assert _traced_peak(digraph._read_canonical, text) < 2 * len(text)


def test_writer_holds_no_list_of_every_line(h100):
    """Writing H_{100,100} (0.32 MB of text) peaks under 2.5 MiB; a list of
    all 30,400 lines and its joined copy took 3.8 MiB."""
    assert _traced_peak(serialize_digraph, h100) < 2.5 * 2**20


SKIPPED_LINES = ["", "# c", "  # c 1 2", "#", " \t", "\f", "# see\f2 3", "#1 2", "\u2028"]


def _with_skipped_lines(text, rng):
    """text with blank and comment lines put in, some at its start and end,
    and each line ended by LF, CR LF or CR."""
    lines = text.split("\n")[:-1]
    places = [0, 1, len(lines) // 2, len(lines)] + [rng.randrange(len(lines) + 1) for _ in range(3)]
    for at in places:
        lines.insert(at, rng.choice(SKIPPED_LINES))
    return "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in lines)


def _counting_bulk_reads(monkeypatch):
    """The list each graph that _read_canonical returns is appended to, from
    now on; the texts it turns away are not counted."""
    bulk_reads = []
    read_canonical = digraph._read_canonical

    def counted(text):
        graph = read_canonical(text)
        if graph is not None:
            bulk_reads.append(graph)
        return graph

    monkeypatch.setattr(digraph, "_read_canonical", counted)
    return bulk_reads


def test_skipped_lines_take_the_line_walk(monkeypatch):
    """A canonical file with blank lines, comment lines and CR LF or CR
    line ends in several places is not read in bulk: the line walk reads
    it, and gives the canonical file's graph."""
    rng = random.Random(5)
    grid = build_hex_grid(3, 3)
    sources = [serialize_digraph(random_orientation(grid.graph, seed)) for seed in range(3)]
    sources += ["1 0\n", "3 2\n1 2\n3 2\n"]
    bulk_reads = _counting_bulk_reads(monkeypatch)
    for _ in range(40):
        source = rng.choice(sources)
        text = _with_skipped_lines(source, rng)
        expected = parse_graph_file(source)
        bulk_reads.clear()
        assert parse_graph_file(text) == expected, repr(text)
        assert bulk_reads == []
        assert _walked_outcome(text, monkeypatch) == expected


@pytest.mark.parametrize("crlf,last,bulk", [
    (False, "", 1), (True, "", 1), (False, "# end", 0), (False, "  ", 0), (False, "#", 0)],
    ids=["none", "crlf", "comment", "blank", "hash"])
def test_text_without_a_final_newline_keeps_the_bulk_read(crlf, last, bulk, monkeypatch):
    """A canonical file without its final newline, with LF or CR LF line
    ends, is read in bulk, once; one whose last line is a blank or comment
    line without one is walked. Either way the graph is the walk's."""
    text = serialize_digraph(random_orientation(build_hex_grid(3, 3).graph, 1))
    text = text[:-1] if not last else text + last
    if crlf:
        text = text.replace("\n", "\r\n")
    expected = _walked_outcome(text, monkeypatch)
    bulk_reads = _counting_bulk_reads(monkeypatch)
    assert parse_graph_file(text) == expected
    assert bulk_reads == [expected[0]] * bulk


#: arcs 1-based over N = 40 vertices, more than twice the arcs, and the
#: faults a test below puts at the first or the last arc: the table of
#: vertex ints ends at the largest token, or at N where a token is past N
SPARSE_N = 40
SPARSE_ARCS = [(3, 9), (12, 5), (7, 30), (21, 2)]
SPARSE_FAULTS = {
    "none": lambda arcs, at: arcs[at],
    "largest N": lambda arcs, at: (arcs[at][0], SPARSE_N),
    "N+1": lambda arcs, at: (SPARSE_N + 1, arcs[at][1]),
    "zero": lambda arcs, at: (arcs[at][0], 0),
    "loop": lambda arcs, at: (arcs[at][1], arcs[at][1]),
    "repeat": lambda arcs, at: arcs[1 if at == 0 else 0],
    "2-cycle": lambda arcs, at: arcs[1 if at == 0 else 0][::-1],
}


@pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("fault", SPARSE_FAULTS)
def test_sparse_bulk_read_agrees_with_the_line_walk(fault, at, monkeypatch):
    """A canonical file of few arcs over many vertices reads as the walk
    reads it, with or without the largest vertex N in its arcs, and each
    fault put at its first or last arc gets the walk's error and line."""
    arcs = list(SPARSE_ARCS)
    arcs[at] = SPARSE_FAULTS[fault](SPARSE_ARCS, at)
    text = "".join(f"{u} {v}\n" for (u, v) in [(SPARSE_N, len(arcs)), *arcs])
    bulk_reads = _counting_bulk_reads(monkeypatch)
    got = _assert_reads_as_walked(text, monkeypatch)
    good = fault in ("none", "largest N")
    assert isinstance(got[0], OrientedGraph) is good
    assert bulk_reads == ([got[0]] if good else [])
    # the canonical text passes the guard, so the bulk read's own checks
    # turn each fault away
    assert CANONICAL.fullmatch(text)
    assert (digraph._read_canonical(text) is None) is not good


@pytest.mark.parametrize("arcs", [((0, 1),), ()], ids=["one arc", "none"])
def test_sparse_file_costs_memory_by_its_arcs(arcs):
    """10^6 vertices and one arc or none parse in bulk with a peak under
    1 MB: the table of vertex ints ends at the largest token, where one
    int per vertex up to N took 38 MiB."""
    text = serialize_digraph(OrientedGraph(MAX_VERTICES, arcs))
    assert parse_graph_file(text) == (OrientedGraph(MAX_VERTICES, arcs), {})
    assert digraph._read_canonical(text) is not None
    assert _traced_peak(parse_graph_file, text) < 10**6


def test_comment_with_a_form_feed_holds_no_arc():
    """The walk skips a comment line whole, so the arc after its form feed
    stays out: the file lists one arc, not two."""
    with pytest.raises(GraphFormatError, match=r"^header declares 2 arcs but file lists 1$"):
        parse_digraph("3 2\n1 2\n# see\f2 3\n")


@pytest.mark.parametrize("prefix,line", [("", 1), ("# c\n", 2)])
def test_vertex_limit_checked_at_the_header(prefix, line):
    assert parse_digraph(f"{prefix}{MAX_VERTICES} 0\n").n_vertices == MAX_VERTICES
    with pytest.raises(GraphFormatError) as exc:
        parse_digraph(f"{prefix}{MAX_VERTICES + 1} 1\n1 2\n")
    message = f"vertex count {MAX_VERTICES + 1} exceeds the limit {MAX_VERTICES}"
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line == line


def test_constructor_rejects_two_cycles_and_loops():
    with pytest.raises(ValueError):
        OrientedGraph(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        OrientedGraph(2, ((1, 1),))
    with pytest.raises(ValueError):
        OrientedGraph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        OrientedGraph(2, ((0, 1), (1, 2)))


def test_constructor_stores_the_arcs_as_a_tuple():
    """A list of arcs is kept as a tuple, so the graph equals and hashes
    like one built from the tuple; a tuple is kept as the same object."""
    arcs = ((0, 1), (2, 1))
    g = OrientedGraph(3, list(arcs))
    assert g.arcs == arcs and type(g.arcs) is tuple
    assert g == OrientedGraph(3, arcs) and hash(g) == hash(OrientedGraph(3, arcs))
    assert OrientedGraph(3, arcs).arcs is arcs
    assert OrientedGraph(3, iter(arcs)) == g


def test_roundtrip_canonical():
    text = "# c\n3 2\n\n1 2\n3 2\n"
    g = parse_digraph(text)
    canonical = serialize_digraph(g)
    assert canonical == "3 2\n1 2\n3 2\n"
    assert parse_digraph(canonical) == g
    assert serialize_digraph(parse_digraph(canonical)) == canonical


def _joined_lines(g):
    """The canonical text as one join of every line, the oracle of the
    chunked serialize_digraph."""
    lines = [f"{g.n_vertices} {len(g.arcs)}"]
    lines += [f"{u + 1} {v + 1}" for (u, v) in g.arcs]
    return "\n".join(lines) + "\n"


def test_writer_chunks_match_one_join(h100):
    """The chunked writer's text is byte for byte the one join of all lines:
    no arc, one arc, exactly one chunk, one chunk and one arc, the grid."""
    chunk = digraph._WRITE_CHUNK
    assert serialize_digraph(OrientedGraph(0, ())) == "0 0\n"
    assert serialize_digraph(OrientedGraph(4, ())) == "4 0\n"
    assert serialize_digraph(OrientedGraph(2, ((1, 0),))) == "2 1\n2 1\n"
    for m in (1, chunk - 1, chunk, chunk + 1, 2 * chunk, len(h100.arcs)):
        g = OrientedGraph(h100.n_vertices, h100.arcs[:m])
        text = serialize_digraph(g)
        assert text == _joined_lines(g)
        assert text.count("\n") == m + 1 and parse_digraph(text) == g


def test_roundtrip_random_graphs():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 9)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        arcs = tuple(
            (u, v) if rng.random() < 0.5 else (v, u)
            for (u, v) in pairs[: rng.randint(0, len(pairs))]
        )
        g = OrientedGraph(n, arcs)
        assert parse_digraph(serialize_digraph(g)) == g


def test_orient_path_codes():
    p3 = path(3)
    assert orient(p3, "11").arcs == ((0, 1), (1, 2))
    assert orient(p3, "10").arcs == ((0, 1), (2, 1))


def test_orient_hexagon_alternating():
    g = orient(cycle(6), "101010")
    assert len(g.arcs) == 6
    out_degrees = [adj.index(-1) for adj in g.adjacency]
    assert all(d in (0, 1, 2) for d in out_degrees)
    assert sum(out_degrees) == 6


def test_orient_length_mismatch():
    with pytest.raises(ValueError):
        orient(path(3), "1")


@pytest.mark.parametrize("code", ["1x", "12", "1 ", "-1", [1, 2], [1, 0.5], [1, None]])
def test_orient_rejects_non_binary_code(code):
    with pytest.raises(ValueError, match=r"^orientation code must consist of 0/1 bits$"):
        orient(path(3), code)


def test_orient_accepts_bit_values_and_characters():
    expected = orient(path(3), "10")
    for code in ([1, 0], (True, False), ["1", "0"], b"\x01\x00"):
        assert orient(path(3), code) == expected


def test_enumerate_single_edge():
    gs = list(enumerate_orientations(path(2)))
    assert len(gs) == 2
    assert gs[0].arcs == ((1, 0),)  # code 0 first: lexicographic order
    assert gs[1].arcs == ((0, 1),)


def test_enumerate_hexagon_count_distinct():
    gs = list(enumerate_orientations(cycle(6)))
    assert len(gs) == 64
    assert len({g.arcs for g in gs}) == 64


def test_enumerate_triangle_directed_cycles():
    count = 0
    for g in enumerate_orientations(cycle(3)):
        if all(adj.index(-1) == 1 for adj in g.adjacency):
            count += 1
    assert count == 2


@pytest.mark.parametrize("edges", [0, 1, 5, 12])
def test_enumerate_count_is_power_of_two(edges):
    g = path(edges + 1) if edges else OrientedGraph(1, ())
    assert sum(1 for _ in enumerate_orientations(g)) == 2**edges


def test_enumerate_path_in_code_order():
    # code bit 1 keeps the edge (i, i + 1); the first edge's bit is the highest
    expected = [
        tuple((i, i + 1) if value >> (2 - i) & 1 else (i + 1, i) for i in range(3))
        for value in range(8)
    ]
    assert [g.arcs for g in enumerate_orientations(path(4))] == expected
    assert expected[1] == ((1, 0), (2, 1), (2, 3))


def test_enumerate_limit():
    g = path(26)
    with pytest.raises(ValueError):
        enumerate_orientations(g)


def test_random_orientation_deterministic():
    c6 = cycle(6)
    assert random_orientation(c6, 9).arcs == random_orientation(c6, 9).arcs


@pytest.mark.parametrize("seed", [-1, -3])
def test_random_orientation_refuses_a_negative_seed(seed):
    """random.Random reads a negative seed as its absolute value, so
    random_orientation refuses one rather than alias it."""
    with pytest.raises(ValueError, match=rf"^seed must be nonnegative, got {seed}$"):
        random_orientation(path(3), seed)
    assert random_orientation(path(3), 0) == random_orientation(path(3), 0)


def test_random_orientation_varies_over_seeds():
    c6 = cycle(6)
    assert len({random_orientation(c6, s).arcs for s in range(64)}) >= 2


def test_random_orientation_single_edge_valid():
    e = path(2)
    for s in range(4):
        g = random_orientation(e, s)
        assert g.arcs in (((0, 1),), ((1, 0),))


# sha256 of serialize_digraph(random_orientation(build_hex_grid(m, n).graph, seed)),
# pinned while each edge still made its own getrandbits(1) call; a str in
# place of the seed is a code, pinned for orient(build_hex_grid(m, n).graph, code)
# while the grid's graph was still an undirected edge list
ORIENTATION_SHA256 = {
    (3, 4, 7): "62a0b03074b146966963841374f3f0e9bb994f2a1d42d6a8869d26ee588ad9b0",
    (50, 50, 1): "ece22a3b7b7f8a0e87adc51365e3dc792869f1d0f823d7cd011d998346b60c4e",
    (100, 100, 2): "46ca4283d695ed32fae06aa88b04b903ba52952bca60113aebc1698e59b88ca3",
    (3, 4, ("110" * 17)[:49]):
        "7d07e91488519d8d8563df32064b133fd1f571c35528f6fdee64f7a66e938fcb",
}


@pytest.mark.parametrize("m,n,seed", ORIENTATION_SHA256)
def test_random_orientation_stream_pinned(m, n, seed):
    g = build_hex_grid(m, n).graph
    oriented = orient(g, seed) if isinstance(seed, str) else random_orientation(g, seed)
    text = serialize_digraph(oriented)
    assert hashlib.sha256(text.encode()).hexdigest() == ORIENTATION_SHA256[(m, n, seed)]


def test_random_orientation_matches_per_edge_draws():
    graphs = [OrientedGraph(1, ()), path(2), path(13), cycle(3), cycle(6), cycle(33)]
    for g in graphs:
        for seed in range(20):
            rng = random.Random(seed)
            code = [rng.getrandbits(1) for _ in g.arcs]
            assert random_orientation(g, seed) == orient(g, code)


def test_isolated_vertices_have_no_neighbors():
    g = OrientedGraph(6, ((1, 3), (4, 1), (3, 5)))
    assert g.adjacency == ((), (3, -1, 4), (), (5, -1, 1), (1, -1), (-1, 3))
    assert OrientedGraph(3, ()).adjacency == ((), (), ())


def test_adjacency_holds_the_arcs_own_ints():
    big = 1000  # past CPython's cache of small ints, so equal ints may be two objects
    g = OrientedGraph(big + 3, ((big, big + 2), (big + 1, big)))
    (u, v), (x, y) = g.arcs
    assert g.adjacency[big] == (big + 2, -1, big + 1)
    assert g.adjacency[big][0] is v and g.adjacency[big][2] is x
    assert g.adjacency[big + 1][0] is y and g.adjacency[big + 2][1] is u


def _reference_adjacency_and_order(g):
    """adjacency and search_order as a list per vertex and one sort of all
    vertices by (-degree, index) compute them, the oracle of the sparse
    build."""
    succ = [[] for _ in range(g.n_vertices)]
    pred = [[] for _ in range(g.n_vertices)]
    for (u, v) in g.arcs:
        succ[u].append(v)
        pred[v].append(u)
    adj = tuple(tuple(sorted(s) + [-1] + sorted(p)) if s or p else () for s, p in zip(succ, pred))
    nbrs = [sorted(s + p) for s, p in zip(succ, pred)]
    placed, order, starts = [False] * g.n_vertices, [], set()
    for root in sorted(range(g.n_vertices), key=lambda v: (-len(nbrs[v]), v)):
        if placed[root] or not nbrs[root]:
            continue
        starts.add(len(order))
        placed[root] = True
        order.append(root)
        head = len(order) - 1
        while head < len(order):
            for w in nbrs[order[head]]:
                if not placed[w]:
                    placed[w] = True
                    order.append(w)
            head += 1
    return adj, (tuple(order), frozenset(starts))


def test_sparse_neighbors_and_order_match_the_reference():
    """Graphs with isolated vertices among the linked ones, several
    components and tied degrees get the reference's adjacency and order."""
    rng = random.Random(7)
    graphs = [OrientedGraph(1, ()), OrientedGraph(5, ((3, 1),)), build_hex_grid(4, 5).graph]
    for _ in range(200):
        n = rng.randint(1, 30)
        pairs = list(itertools.combinations(range(n), 2))
        pairs = rng.sample(pairs, rng.randint(0, min(n, len(pairs))))
        graphs.append(OrientedGraph(n, [(u, v) if rng.random() < 0.5 else (v, u) for (u, v) in pairs]))
    for g in graphs:
        assert (g.adjacency, g.search_order) == _reference_adjacency_and_order(g)


def test_isolated_vertices_cost_no_list_each():
    """10^6 vertices and one arc: adjacency and search_order peak at a few
    arrays of one pointer or byte per vertex, not a list per vertex (73 MB)."""
    g = OrientedGraph(MAX_VERTICES, ((0, 1),))
    assert _traced_peak(lambda: (g.adjacency, g.search_order)) < 30 * 10**6
    assert g.adjacency[:3] == ((1, -1), (-1, 0), ())
    assert g.search_order == ((0, 1), frozenset({0}))


CROSS_CHECK_SHAPES = [(k, k) for k in range(1, 7)] + [
    (3, 7), (50, 50), (1, 300), (300, 1), (3, 100), (100, 3)]


def assert_validated_copy_equal(g):
    """g, built without the arc check, passes it and equals its checked copy."""
    checked = OrientedGraph(g.n_vertices, g.arcs)
    assert checked == g and hash(checked) == hash(g)
    assert set(checked.arcs) == set(g.arcs) and checked.adjacency == g.adjacency


@pytest.mark.parametrize("m,n", CROSS_CHECK_SHAPES)
def test_unchecked_orientations_pass_the_arc_check(m, n):
    """The grid's own graph and its re-orientations, all built unchecked."""
    g = build_hex_grid(m, n).graph
    assert_validated_copy_equal(g)
    for seed in range(4):
        assert_validated_copy_equal(random_orientation(g, seed))
        rng = random.Random(seed)
        assert_validated_copy_equal(orient(g, [rng.getrandbits(1) for _ in g.arcs]))
    if (m, n) == (1, 1):
        orientations = list(enumerate_orientations(g))
        assert len(orientations) == 64
        for o in orientations:
            assert_validated_copy_equal(o)


@pytest.mark.parametrize("m,n", CROSS_CHECK_SHAPES)
def test_search_order_ignores_the_directions(m, n):
    """The order depends only on the edges: orient, random_orientation,
    enumerate_orientations and a re-orientation of a re-orientation each
    compute the grid graph's own order."""
    g = build_hex_grid(m, n).graph
    orientations = []
    for seed in range(3):
        rng = random.Random(seed)
        once = random_orientation(g, seed)
        orientations += [once, orient(g, [rng.getrandbits(1) for _ in g.arcs]),
                         random_orientation(once, seed + 3),
                         orient(once, [rng.getrandbits(1) for _ in g.arcs])]
    if len(g.arcs) <= digraph.MAX_ENUMERATION_EDGES:
        orientations += itertools.islice(enumerate_orientations(g), 4)
    for o in orientations:
        assert o.search_order == g.search_order


def test_kept_reorientations_hold_little_search_state():
    """16 kept H_{20,20} re-orientations hold their adjacency and their
    search orders in under 2 MB (1.24 MB by tracemalloc); a (neighbor,
    direction) pair per arc end held 3.4 MB."""
    g = build_hex_grid(20, 20).graph
    kept = [random_orientation(g, seed) for seed in range(16)]
    tracemalloc.start()
    try:
        for o in kept:
            o.adjacency, o.search_order
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 10**6


def shared_arc_kinds(oriented, g, free=None):
    """Asserts that each arc of oriented (of those free, if given) is g's
    own tuple or the reversed one g keeps; returns which kinds occur, True
    for g's own."""
    assert len(oriented.arcs) == len(g.arcs)
    kinds = set()
    for i, (arc, kept, reversed_arc) in enumerate(zip(oriented.arcs, g.arcs, g._reversed_arcs)):
        if free is None or i in free:
            assert arc is kept or arc is reversed_arc, (i, arc)
            kinds.add(arc is kept)
    return kinds


@pytest.mark.parametrize("shape", [(1, 1), (5, 5), "H4"])
def test_orientations_share_the_base_graph_arcs(shape):
    """orient, random_orientation, enumerate_orientations and, on its
    unforced edges, orientation_extending make no arc of their own."""
    g = fixture_h4().graph if shape == "H4" else build_hex_grid(*shape).graph
    kinds = set()
    for seed in range(3):
        kinds |= shared_arc_kinds(random_orientation(g, seed), g)
        rng = random.Random(seed)
        kinds |= shared_arc_kinds(orient(g, [rng.getrandbits(1) for _ in g.arcs]), g)
    if len(g.arcs) <= 24:
        for oriented in itertools.islice(enumerate_orientations(g), 64):
            kinds |= shared_arc_kinds(oriented, g)
    if shape != "H4":
        grid = build_hex_grid(*shape)
        forced = [grid.graph.arcs[0][::-1], grid.graph.arcs[-1]]
        for seed in range(3):
            oriented = orientation_extending(grid, forced, seed)
            kinds |= shared_arc_kinds(oriented, grid.graph, free=range(1, len(g.arcs) - 1))
    assert kinds == {False, True}


def test_reversed_arcs_are_cached_outside_the_fields():
    g = build_hex_grid(2, 3).graph
    checked = OrientedGraph(g.n_vertices, g.arcs)
    before = repr(g), hash(g)
    reversed_arcs = g._reversed_arcs
    assert reversed_arcs is g._reversed_arcs
    assert reversed_arcs == tuple((v, u) for (u, v) in g.arcs)
    assert "_reversed_arcs" in vars(g) and "_reversed_arcs" not in vars(checked)
    assert (repr(g), hash(g)) == before and "_reversed" not in repr(g)
    assert g == checked and hash(g) == hash(checked)
    assert OrientedGraph(3, ())._reversed_arcs == ()


NON_INTEGERS = {"float": 1.0, "str": "1", "None": None, "bool": True}


@pytest.mark.parametrize("kind", sorted(NON_INTEGERS))
@pytest.mark.parametrize("at", [0, 1])
def test_constructor_rejects_non_integer_endpoints(kind, at):
    """Even where it would pass the range and set tests, as 1.0 and True
    do, a non-int endpoint is named at the constructor."""
    arcs = [list(arc) for arc in random_orientation(build_hex_grid(1, 1).graph, 0).arcs]
    arcs[4][at] = NON_INTEGERS[kind]
    arcs = tuple(map(tuple, arcs))
    with pytest.raises(ArcError) as exc:
        OrientedGraph(6, arcs)
    assert (exc.value.index, exc.value.problem) == (4, "has a non-integer endpoint")
    assert str(exc.value) == f"arc {arcs[4]} has a non-integer endpoint"


def test_non_integer_endpoint_named_before_the_range():
    floats = tuple((float(u), float(v)) for (u, v) in build_hex_grid(1, 1).graph.arcs)
    with pytest.raises(ArcError, match=r"^arc \(0\.0, 1\.0\) has a non-integer endpoint$"):
        OrientedGraph(6, floats)
    with pytest.raises(ArcError) as exc:
        OrientedGraph(2, ((0, 1), (-1.5, 9)))
    assert (exc.value.index, exc.value.problem) == (1, "has a non-integer endpoint")
    with pytest.raises(ArcError, match="non-integer"):
        OrientedGraph(2, ((False, True),))


H50 = build_hex_grid(50, 50).graph
LATE = len(H50.arcs) - 5


def h50_arcs_with(bad):
    """A valid H_{50,50} orientation with arcs[LATE] replaced by bad."""
    arcs = list(random_orientation(H50, 4).arcs)
    arcs[LATE] = bad(arcs)
    return tuple(arcs)


ARC_FAULTS = {
    "out of range": (lambda a: (a[LATE][0], H50.n_vertices),
                     f"has an endpoint out of range ({H50.n_vertices} vertices)"),
    "self-loop": (lambda a: (7, 7), "is a self-loop"),
    "duplicate": (lambda a: a[3], "is a duplicate arc"),
    "2-cycle": (lambda a: a[3][::-1], "closes a 2-cycle"),
    "triple": (lambda a: a[LATE] + (0,), "is not a pair"),
    "single": (lambda a: a[LATE][:1], "is not a pair"),
}


@pytest.mark.parametrize("fault", sorted(ARC_FAULTS))
def test_bulk_check_names_the_first_bad_arc(fault):
    """A large input that fails the arc check gets the per-arc diagnosis:
    the bad arc's index and problem, and through the parser its line."""
    bad, problem = ARC_FAULTS[fault]
    arcs = h50_arcs_with(bad)
    with pytest.raises(ArcError) as exc:
        OrientedGraph(H50.n_vertices, arcs)
    assert (exc.value.index, exc.value.problem) == (LATE, problem)
    assert str(exc.value) == f"arc {arcs[LATE]} {problem}"
    if len(arcs[LATE]) != 2:
        return  # the parser makes only pairs
    lines = [f"{u + 1} {v + 1}" for (u, v) in arcs]
    text = "\n".join([f"{H50.n_vertices} {len(arcs)}", "# H_{50,50}", *lines])
    with pytest.raises(GraphFormatError) as exc:
        parse_digraph(text)
    u, v = arcs[LATE]
    assert exc.value.line == LATE + 3
    assert str(exc.value) == f"line {LATE + 3}: arc {u + 1} -> {v + 1} {problem}"


def test_bulk_check_names_the_earliest_of_several_faults():
    """The arc check names the first of several bad arcs."""
    arcs = list(h50_arcs_with(ARC_FAULTS["2-cycle"][0]))
    arcs[LATE + 2] = (3, 3)
    with pytest.raises(ArcError) as exc:
        OrientedGraph(H50.n_vertices, tuple(arcs))
    assert (exc.value.index, exc.value.problem) == (LATE, "closes a 2-cycle")


@pytest.mark.parametrize("at", [0, LATE])
def test_list_arc_is_not_a_pair(at):
    """An arc must be a tuple: a list, even of two good endpoints, is named
    at the constructor with its index."""
    arcs = list(random_orientation(H50, 4).arcs)
    arcs[at] = list(arcs[at])
    with pytest.raises(ArcError) as exc:
        OrientedGraph(H50.n_vertices, tuple(arcs))
    assert (exc.value.index, exc.value.problem) == (at, "is not a pair")
    assert str(exc.value) == f"arc {arcs[at]} is not a pair"
