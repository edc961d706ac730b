import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import orihex.cli as cli
from orihex.digraph import parse_digraph
from orihex.hexgrid import build_hex_grid, fixture_h4
from orihex.homomorphism import SearchBudgetExceeded, validate_homomorphism
from orihex.tournaments import named_tournament

GOLDEN = Path(__file__).parent / "golden" / "h4_t5.dat"


def run(capsys, *argv):
    code = cli.cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tourn_list_twelve_lines(capsys):
    code, out, _ = run(capsys, "tourn", "list", "-k", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert all(line.startswith("5:") and len(line) == 12 for line in lines)


def test_tourn_list_census_cap(capsys):
    code, out, _ = run(capsys, "tourn", "list", "-k", "6")
    assert code == 0
    assert len(out.strip().splitlines()) == 56
    for k in ("7", "8"):
        code, out, err = run(capsys, "tourn", "list", "-k", k)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def test_tourn_ds_and_canon(capsys):
    code, out, _ = run(capsys, "tourn", "ds", "-t", "T5")
    assert code == 0
    assert out.strip() == "3 3 3 3 6"
    code, out, _ = run(capsys, "tourn", "canon", "-t", "5:1111111111")
    assert code == 0
    assert out.strip() == "5:0000000000"


def test_hom_check_exit_codes(capsys):
    code, out, _ = run(capsys, "hom", "check", "-g", "H4", "-t", "T5")
    assert code == 1
    assert "NONE" in out
    code, out, _ = run(capsys, "hom", "check", "-g", "H4", "-t", "T2")
    assert code == 0
    assert "FOUND" in out


HOM_RECORD_KEYS = ["verdict", "witness", "witness_valid", "nodes_expanded", "max_depth"]


def test_hom_check_json_and_brute(capsys):
    code, out, _ = run(capsys, "hom", "check", "-g", "H4", "-t", "T5", "--json")
    assert code == 1
    payload = json.loads(out)
    assert list(payload) == HOM_RECORD_KEYS
    assert payload["verdict"] == "NONE"
    assert payload["witness"] is None
    assert payload["witness_valid"] is None
    assert payload["nodes_expanded"] > 0
    code, out, _ = run(capsys, "hom", "check", "-g", "H4", "-t", "T5", "--brute", "--json")
    assert code == 1
    payload = json.loads(out)
    assert list(payload) == HOM_RECORD_KEYS
    assert payload["verdict"] == "NONE"
    assert payload["witness_valid"] is None
    for extra in ((), ("--brute",)):
        code, out, _ = run(capsys, "hom", "check", "-g", "H4", "-t", "T2", *extra, "--json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == HOM_RECORD_KEYS
        assert payload["verdict"] == "FOUND"
        assert payload["witness_valid"] is True
        assert validate_homomorphism(
            fixture_h4().graph, named_tournament("T2"), payload["witness"]
        )


@pytest.mark.parametrize(
    "exc", [SearchBudgetExceeded("time budget exceeded"), RecursionError("too deep"), MemoryError()]
)
def test_undecided_search_exits_three(monkeypatch, capsys, exc):
    def undecided(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "homomorphism_exists", undecided)
    code, out, err = run(capsys, "hom", "check", "-g", "H4", "-t", "T5")
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"undecided: {type(exc).__name__}")


def test_hom_check_brute_small(tmp_path, capsys):
    f = tmp_path / "c3.digraph"
    f.write_text("3 3\n1 2\n2 3\n3 1\n")
    code, out, _ = run(capsys, "hom", "check", "-g", str(f), "-t", "T1", "--brute")
    assert code == 1
    code, out, _ = run(capsys, "hom", "check", "-g", str(f), "-t", "T5", "--brute")
    assert code == 0


def test_hom_check_brute_over_guard_exits_two(capsys):
    code, out, err = run(capsys, "hom", "check", "-g", "H49", "-t", "T5", "--brute")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "hom", "check", "-g", "H4", "-t", "T99")
    assert code == 2
    code, _, _ = run(capsys, "tourn", "bogus")
    assert code == 2


@pytest.mark.parametrize(
    "argv,err",
    [
        ("hom check -g missing.digraph -t T5", "no such graph file: missing.digraph"),
        ("hom check -g {bad} -t T5", "{bad}: line 3: arc head is not an integer: 'x'"),
        ("tourn ds -t T99", "unknown tournament name 'T99'"),
        ("tourn canon -t q:1", "bad tournament order in 'q:1'"),
        ("tourn canon -t 5:11x", "bitstring length 3 != k(k-1)/2 = 10"),
        ("export-opl -g H4", "export-opl requires -g and -t (or --model)"),
        ("export-opl -g H4 -t A6", "data export needs an order-5 tournament"),
        ("color -m 1 -n 1 --code 1010", "code must have 6 bits for this grid"),
        ("tourn list -k 7", "order 7 is outside the census range 0..6"),
        ("chi-o -g H4 --k-max 0", "k_max must be at least 1, got 0"),
        ("chi-o -g H4 --k-max -1", "k_max must be at least 1, got -1"),
        ("hex gen -m 3000 -n 3000", "a 3000 x 3000 grid has 18012000 vertices, over the limit 1000000"),
        # random.Random reads a negative seed as its absolute value
        ("hex gen -m 2 -n 2 --seed -3", "seed must be nonnegative, got -3"),
        ("color -m 2 -n 2 --seed -3", "seed must be nonnegative, got -3"),
        ("verify-paper --seed -1", "seed must be nonnegative, got -1"),
    ],
)
def test_input_errors_print_one_line(capsys, tmp_path, argv, err):
    bad = tmp_path / "bad.digraph"
    bad.write_text("3 2\n1 2\n2 x\n")
    code, out, got = run(capsys, *argv.format(bad=bad).split())
    assert (code, out) == (2, "")
    assert got == f"error: {err.format(bad=bad)}\n"


def test_vertex_limit_refuses_a_small_file_with_a_huge_header(capsys, tmp_path):
    big = tmp_path / "big.digraph"
    big.write_bytes(b"5000000 1\n1 2\n")
    code, out, err = run(capsys, "hom", "check", "-g", str(big), "-t", "T5")
    assert (code, out) == (2, "")
    assert err == f"error: {big}: line 1: vertex count 5000000 exceeds the limit 1000000\n"


def test_undecodable_graph_file_names_its_path(capsys, tmp_path):
    bad = tmp_path / "bad.digraph"
    bad.write_bytes(b"2 1\n1 2\n# \xff\n")
    code, out, err = run(capsys, "hom", "check", "-g", str(bad), "-t", "T5")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 10")
    assert err.count("\n") == 1


def test_form_feed_in_a_comment_does_not_end_the_line(capsys, tmp_path):
    """A form feed inside a comment leaves the arc after it in the comment."""
    path = tmp_path / "ff.digraph"
    path.write_bytes(b"3 2\n1 2\n# see\f2 3\n")
    code, out, err = run(capsys, "hom", "check", "-g", str(path), "-t", "T5", "--json")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: header declares 2 arcs but file lists 1\n"


def _fuzzed(data: bytes, rng: random.Random) -> bytes:
    """One random fault in a small canonical graph file."""
    lines = [line.split(b" ") for line in data.splitlines()]
    i = rng.randrange(len(lines))
    j = rng.randrange(len(lines[i]))
    kind = rng.randrange(7)
    if kind == 0:
        return data[: rng.randrange(len(data))]
    if kind == 1:
        i2 = rng.randrange(len(lines))
        j2 = rng.randrange(len(lines[i2]))
        lines[i][j], lines[i2][j2] = lines[i2][j2], lines[i][j]
    elif kind == 2:
        lines[i][j] = rng.choice([b"9" * 5000, b"5000000", b"99999999999", b"-1", b"0"])
    elif kind == 3:
        lines.insert(rng.randrange(len(lines) + 1), list(lines[0]))
    elif kind == 4:
        lines[i][j] = lines[i][j][:-1] + "\u0663".encode()
    elif kind == 5:
        lines[i][j] = b"0" + lines[i][j]
    elif kind == 6:
        lines[i][j] = b"\xff"
    return b"".join(b" ".join(line) + b"\n" for line in lines)


FILE_COMMANDS = [
    "hom check -g {f} -t T5",
    "hom check -g {f} -t 2:1 --brute",
    "chi-o -g {f}",
    "export-opl -g {f} -t T5",
    "color -m 1 -n 1 -g {f}",
    "hex gen -m 1 -n 1 -g {f}",
]


def test_mutated_graph_files_exit_cleanly(capsys, tmp_path):
    """Seeded fuzz of every command that reads a graph file: each mutant
    of a small canonical file gives a verdict (0 or 1) with a quiet
    stderr, or exit 2 with exactly one "error: " line, and never a
    traceback or exit 3."""
    rng = random.Random(19)
    sources = []
    for seed in range(3):
        code, text, _ = run(capsys, "hex", "gen", "-m", "1", "-n", "1", "--seed", str(seed))
        assert code == 0
        sources.append(text.encode())
    f = tmp_path / "fuzz.digraph"
    codes = set()
    for _ in range(40):
        f.write_bytes(_fuzzed(rng.choice(sources), rng))
        for command in FILE_COMMANDS:
            code, _, err = run(capsys, *command.format(f=f).split())
            codes.add(code)
            assert "Traceback" not in err
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
            else:
                assert code in (0, 1) and err == "", (command, code, err)
    assert codes == {0, 1, 2}


def test_hex_gen_parses_and_is_deterministic(capsys):
    code, out, _ = run(capsys, "hex", "gen", "-m", "3", "-n", "4", "--seed", "6")
    assert code == 0
    g = parse_digraph(out)
    grid = build_hex_grid(3, 4)
    assert g.n_vertices == grid.graph.n_vertices
    assert len(g.arcs) == len(grid.graph.arcs)
    code, out2, _ = run(capsys, "hex", "gen", "-m", "3", "-n", "4", "--seed", "6")
    assert out2 == out


def test_color_json_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "color", "-m", "2", "-n", "2", "--seed", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    grid = build_hex_grid(2, 2)
    assert len(payload["colors"]) == grid.graph.n_vertices
    assert set(payload["colors"]) <= set(range(6))
    # feed a generated file back through color
    code, out, _ = run(capsys, "hex", "gen", "-m", "2", "-n", "2", "--seed", "3")
    f = tmp_path / "g.digraph"
    f.write_text(out)
    code, out, _ = run(capsys, "color", "-m", "2", "-n", "2", "-g", str(f), "--json")
    assert code == 0
    assert json.loads(out)["colors"] == payload["colors"]


def test_color_graph_of_other_grid_exits_two(capsys, tmp_path):
    code, out, _ = run(capsys, "hex", "gen", "-m", "2", "-n", "3", "--seed", "0")
    assert code == 0
    f = tmp_path / "h23.digraph"
    f.write_text(out)
    code, out, err = run(capsys, "color", "-m", "2", "-n", "2", "-g", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_hex_gen_graph_of_other_grid_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "hex", "gen", "-m", "1", "-n", "1", "-g", "H4")
    assert (code, out) == (2, "")
    assert err == "error: orientation and grid disagree on vertex count\n"
    # six vertices and six arcs, but two triangles instead of a hexagon
    f = tmp_path / "not_h11.digraph"
    f.write_text("6 6\n1 2\n2 3\n3 1\n4 5\n5 6\n6 4\n")
    code, out, err = run(capsys, "hex", "gen", "-m", "1", "-n", "1", "-g", str(f))
    assert (code, out) == (2, "")
    assert err == "error: orientation must direct exactly the grid's edges\n"


def test_graph_file_count_checked_before_the_grid_is_built(capsys, tmp_path, monkeypatch):
    def no_grid(m, n):
        raise AssertionError(f"built H_{m},{n}")

    monkeypatch.setattr(cli, "build_hex_grid", no_grid)
    f = tmp_path / "path3.digraph"
    f.write_text("3 2\n1 2\n2 3\n")
    for command in ("color", "hex gen"):
        code, out, err = run(capsys, *command.split(), "-m", "3000", "-n", "3000", "-g", str(f))
        assert (code, out) == (2, "")
        assert err == "error: orientation and grid disagree on vertex count\n"


def test_color_file_with_shuffled_arc_lines(capsys, tmp_path):
    code, generated, _ = run(capsys, "hex", "gen", "-m", "4", "-n", "3", "--seed", "5")
    assert code == 0
    header, *arc_lines = generated.splitlines()
    random.Random(0).shuffle(arc_lines)
    colors = []
    for name, lines in (("edge_order", generated.splitlines()), ("shuffled", [header, *arc_lines])):
        f = tmp_path / f"{name}.digraph"
        f.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "color", "-m", "4", "-n", "3", "-g", str(f), "--json")
        assert code == 0
        colors.append(json.loads(out)["colors"])
    assert arc_lines != generated.splitlines()[1:]
    assert colors[0] == colors[1]


def test_hex_gen_graph_reproduces_its_file(capsys, tmp_path):
    code, generated, _ = run(capsys, "hex", "gen", "-m", "2", "-n", "2", "--seed", "3")
    assert code == 0
    f = tmp_path / "h22.digraph"
    f.write_text(generated)
    code, out, _ = run(capsys, "hex", "gen", "-m", "2", "-n", "2", "-g", str(f))
    assert (code, out) == (0, generated)


def test_non_binary_code_exits_two(capsys):
    for command in ("hex gen", "color"):
        code, out, err = run(capsys, *command.split(), "-m", "1", "-n", "1", "--code", "10110x")
        assert (code, out) == (2, "")
        assert err == "error: orientation code must consist of 0/1 bits\n"


def test_chi_o_of_fixture(capsys):
    # --k-max 7 lies above the census cap, which the search never reaches
    for extra in ((), ("--k-max", "7")):
        code, out, _ = run(capsys, "chi-o", "-g", "H4", *extra)
        assert code == 0
        assert out.strip() == "5"


def test_chi_o_default_output(capsys):
    code, out, _ = run(capsys, "chi-o", "-g", "H4", "--json")
    assert (code, json.loads(out)) == (0, {"chi_o": 5, "k_max": 5})


def test_search_past_its_budget_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(cli, "SOLVER_BUDGET_S", 1e-9)
    for argv in ("hom check -g H49 -t T11", "chi-o -g H49"):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (3, "")
        assert err == "undecided: SearchBudgetExceeded time budget 1e-09s exceeded\n"
    # the oracle has a state guard, not a clock
    code, out, _ = run(capsys, "hom", "check", "-g", "H4", "-t", "T5", "--brute")
    assert code == 1 and out.startswith("NONE")


def test_chi_o_json_sentinel(capsys, tmp_path):
    f = tmp_path / "arc.digraph"
    f.write_text("2 1\n1 2\n")
    code, out, _ = run(capsys, "chi-o", "-g", str(f), "--k-max", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"chi_o": None, "k_max": 1}


def test_chi_o_text_sentinel(capsys, tmp_path):
    f = tmp_path / "arc.digraph"
    f.write_text("2 1\n1 2\n")
    assert run(capsys, "chi-o", "-g", str(f), "--k-max", "1") == (0, "> 1\n", "")


def test_chi_o_of_the_empty_graph(capsys, tmp_path):
    """A file of no vertices has chi_o 0, as hom check's empty map into the
    order-0 tournament says."""
    f = tmp_path / "empty.digraph"
    f.write_text("0 0\n")
    assert run(capsys, "chi-o", "-g", str(f)) == (0, "0\n", "")
    code, out, _ = run(capsys, "chi-o", "-g", str(f), "--json")
    assert (code, json.loads(out)) == (0, {"chi_o": 0, "k_max": 5})
    code, out, _ = run(capsys, "hom", "check", "-g", str(f), "-t", "0:", "--json")
    assert (code, json.loads(out)["verdict"]) == (0, "FOUND")


#: the (u, v, pattern) triples the reverse transitive 5-tournament cannot
#: realize, in prop1's order, each written as the five digits u v b0 b1 b2
_T5_0_MISSING = """
00000 00010 00100 00101 00110 00111 01000 01100 01101 01110 01111 02000
02100 02101 02110 02111 03011 03100 03101 03110 03111 04001 04011 04100
04101 04110 04111 10000 10010 10100 10110 10111 11000 11100 11110 11111
12000 12110 12111 13000 13011 13110 13111 14001 14011 14101 14110 14111
20000 20010 20100 20110 20111 21000 21100 21111 22000 22111 23000 23011
23111 24000 24001 24011 24101 24111 30000 30001 30010 30100 30110 31000
31001 31100 31111 32000 32001 32111 33000 33001 33011 33111 34000 34001
34011 34101 34111 40000 40001 40010 40011 40100 40110 41000 41001 41010
41011 41100 42000 42001 42010 42011 42111 43000 43001 43010 43011 43111
44000 44001 44010 44011 44101 44111
"""


def test_prop1_exit_codes(capsys):
    """Exact prop1 output, text and JSON, with and without --distinct-only."""
    missing = [[int(w[0]), int(w[1]), [int(b) for b in w[2:]]] for w in _T5_0_MISSING.split()]
    distinct = [case for case in missing if case[0] != case[1]]
    assert (len(missing), len(distinct)) == (114, 92)
    expected = {
        ("A6",): (0, "holds (288 cases)\n"),
        ("A6", "--distinct-only"): (0, "holds (240 cases)\n"),
        ("A6", "--json"): (0, '{"holds": true, "cases": 288, "missing": []}\n'),
        ("A6", "--distinct-only", "--json"):
            (0, '{"holds": true, "cases": 240, "missing": []}\n'),
        ("5:0000000000",):
            (1, "fails (114 unrealizable cases), first: (0, 0, (0, 0, 0))\n"),
        ("5:0000000000", "--distinct-only"):
            (1, "fails (92 unrealizable cases), first: (0, 1, (0, 0, 0))\n"),
        ("5:0000000000", "--json"):
            (1, json.dumps({"holds": False, "cases": 200, "missing": missing}) + "\n"),
        ("5:0000000000", "--distinct-only", "--json"):
            (1, json.dumps({"holds": False, "cases": 160, "missing": distinct}) + "\n"),
    }
    for (tournament, *flags), (want_code, want_out) in expected.items():
        code, out, err = run(capsys, "prop1", "-t", tournament, *flags)
        assert (code, out, err) == (want_code, want_out, ""), (tournament, flags)


def test_export_opl_golden(capsys):
    code, out, _ = run(capsys, "export-opl", "-g", "H4", "-t", "T5")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_export_opl_model(capsys):
    code, out, _ = run(capsys, "export-opl", "--model")
    assert code == 0
    assert "subject to" in out


def test_help_exits_zero(capsys):
    assert cli.cli_dispatch(["--help"]) == 0
    capsys.readouterr()


def test_verify_paper_exit_one_on_failure(monkeypatch, capsys):
    class FakeReport:
        passed = False

        def to_json(self):
            return "{}\n"

    monkeypatch.setattr(cli, "verify_paper", lambda **kw: FakeReport())
    monkeypatch.setattr(cli, "render_text", lambda rep: "FAIL stub\n")
    code, out, _ = run(capsys, "verify-paper")
    assert code == 1


def test_verify_paper_out_writes_json(monkeypatch, tmp_path, capsys):
    class FakeReport:
        passed = True

        def to_json(self):
            return json.dumps({"overall": "PASS"}) + "\n"

    monkeypatch.setattr(cli, "verify_paper", lambda **kw: FakeReport())
    monkeypatch.setattr(cli, "render_text", lambda rep: "PASS stub\n")
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify-paper", "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text()) == {"overall": "PASS"}


def _src_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_and_oracle_leave_numpy_out():
    probe = ("import sys, orihex, orihex.cli\n"
             "g = orihex.OrientedGraph(3, ((0, 1), (1, 2), (2, 0)))\n"
             "assert orihex.brute_force_hom(g, orihex.named_tournament('T5')).found\n"
             "print('numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


#: the interpreter has its own SHA-256 module: _sha2 from 3.12, _sha256 before
HAS_BUILTIN_SHA256 = any(map(importlib.util.find_spec, ("_sha2", "_sha256")))

#: python -S probes, each with the modules it must leave out of sys.modules
#: (-S skips site, whose .pth files may import anything). The stdlib may
#: load inspect itself on some versions, so only dataclasses stands for the
#: record machinery; typing is left out by every stdlib module orihex
#: imports on 3.10-3.13, and later versions are not checked.
IMPORT_PROBES = {
    "cli": ("import orihex.cli",
            ("dataclasses", "importlib.resources",
             *(("typing",) if sys.version_info < (3, 14) else ()))),
    "round-trip": ("import orihex\n"
                   "grid = orihex.build_hex_grid(3, 4)\n"
                   "g = orihex.random_orientation(grid.graph, 1)\n"
                   "assert orihex.parse_digraph(orihex.serialize_digraph(g)) == g\n"
                   "orihex.color_hex(grid, g)",
                   ("hashlib", "orihex.homomorphism", "orihex.verify", "orihex.opl",
                    "importlib.resources")),
    # fixture_digest takes the interpreter's own SHA-256 where there is one
    "verify-paper": ("from orihex.verify import verify_paper\n"
                     "assert verify_paper().passed",
                     ("_hashlib",) if HAS_BUILTIN_SHA256 else ()),
}


@pytest.mark.parametrize("case", IMPORT_PROBES)
def test_clean_interpreter_leaves_modules_out(case):
    code, absent = IMPORT_PROBES[case]
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r})\n{code}\n"
             f"print(*[m for m in {absent!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def test_package_exports_each_name_from_its_defining_module():
    import orihex

    for name in orihex.__all__:
        if name == "__version__":
            continue
        value = orihex.__getattr__(name)  # the lazy path, even once the name is bound
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("orihex.") and getattr(home, name) is value, name
        assert getattr(orihex, name) is value
    star = {}
    exec("from orihex import *", star)
    assert set(orihex.__all__) <= star.keys()
    assert set(orihex.__all__) <= set(dir(orihex))
    assert orihex.__getattr__("hexcolor") is sys.modules["orihex.hexcolor"]
    with pytest.raises(AttributeError, match="'no_such_name'"):
        orihex.no_such_name


def test_python_dash_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "orihex", "hom", "check", "-g", "H4", "-t", "T5"],
                          env=_src_env(), capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout.startswith("NONE ")
    done = subprocess.run([sys.executable, "-m", "orihex.cli", "tourn", "list", "-k", "3"],
                          env=_src_env(), capture_output=True, text=True)
    assert done.returncode == 0
    assert len(done.stdout.splitlines()) == 2


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reader_closing_stdout_exits_141_quietly(unbuffered):
    # more output than a pipe buffer holds, so a write meets the closed
    # pipe; unbuffered, the pipe takes part of one write before it closes
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "orihex", "hex", "gen", "-m", "100", "-n", "100", "--seed", "1"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_output_to_a_pipe_closed_before_start_exits_141_quietly():
    # a few lines fit in stdout's buffer, so only the flush meets the pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    try:
        done = subprocess.run([sys.executable, "-m", "orihex", "tourn", "list", "-k", "5"],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


def test_output_to_a_text_stream_without_a_buffer():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.cli_dispatch(["tourn", "list", "-k", "3"]) == 0
    assert out.getvalue() == "3:000\n3:010\n"


def test_installed_binary_exit_codes(tmp_path):
    import shutil

    exe = shutil.which("orihex")
    if exe is None:
        pytest.skip("console script not installed")
    assert subprocess.run([exe, "tourn", "list", "-k", "3"],
                          capture_output=True).returncode == 0
    assert subprocess.run([exe, "hom", "check", "-g", "H4", "-t", "T5"],
                          capture_output=True).returncode == 1
    assert subprocess.run([exe, "hom", "check", "-g", str(tmp_path / "nope"), "-t", "T5"],
                          capture_output=True).returncode == 2
