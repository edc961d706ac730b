"""Command-line interface.

Exit codes: 0 success (or verification PASS / homomorphism found),
1 verification failure (or no homomorphism / property fails),
2 usage or input errors (argparse's, and every ValueError or OSError a
command raises, printed as one "error: ..." line), 3 undecided: a search
(verify-paper's too, which then prints no report) ran out of its time
budget, of stack or of memory. 141 (128 + SIGPIPE, what a shell reports
when a reader closes early): stdout's reader closed the pipe before all
output was written, buffered or not (PYTHONUNBUFFERED, python -u);
nothing is printed to stderr.

Every search a command starts has verify-paper's time budget,
SOLVER_BUDGET_S: `hom check` gives it to its one search and `chi-o` to all
of its searches together. `hom check --brute` has none: the oracle is
bounded by its state guard, not a clock.

Examples:
  orihex tourn list -k 5
  orihex hex gen -m 3 -n 4 --seed 7 > grid.digraph
  orihex hom check -g H4 -t T5
  orihex prop1 -t A6
  orihex color -m 5 -n 5 --seed 1 --json
  orihex chi-o -g grid.digraph
  orihex export-opl -g H4 -t T5
  orihex verify-paper --scale small --json --out report.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .digraph import (
    GraphFormatError,
    OrientedGraph,
    orient,
    parse_digraph,
    random_orientation,
    serialize_digraph,
)
from .hexcolor import check_property1, color_hex
from .hexgrid import FIXTURES, build_hex_grid, hex_vertex_count, named_fixture
from .homomorphism import (
    SearchBudgetExceeded,
    brute_force_hom,
    chi_o,
    homomorphism_exists,
    search_record,
)
from .opl import export_opl_data, export_opl_model
from .tournaments import (
    canonical_form,
    double_score_set,
    enumerate_tournaments,
    resolve_tournament,
)
from .verify import SCALES, SOLVER_BUDGET_S, render_text, verify_paper


def _load_graph(name_or_path: str) -> OrientedGraph:
    """Resolve a graph argument: the fixture names H4/H49, or a file path."""
    if name_or_path in FIXTURES:
        return named_fixture(name_or_path).graph
    path = Path(name_or_path)
    if not path.is_file():
        raise ValueError(f"no such graph file: {name_or_path}")
    try:
        return parse_digraph(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, GraphFormatError) as exc:
        raise ValueError(f"{name_or_path}: {exc}") from exc


def _write(text: str) -> None:
    """Every command's one stdout writer. It hands the bytes to stdout's
    buffer until all are taken: unbuffered, that buffer is the raw file,
    whose write may take part of them, and the text layer would drop the
    rest without an error, so a reader that closed early would go unseen.
    A text stream with no binary buffer, such as io.StringIO, takes the
    text itself."""
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        out.write(text)
        return
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[buffer.write(data):]


def _grid_orientation(args) -> tuple:
    if args.graph is not None:
        oriented = _load_graph(args.graph)
        m, n = args.m, args.n
        # counted before the grid is built, so a small file cannot make a huge
        # grid; build_hex_grid names bad dimensions
        if m >= 1 and n >= 1 and oriented.n_vertices != hex_vertex_count(m, n):
            raise ValueError("orientation and grid disagree on vertex count")
        return build_hex_grid(m, n), oriented
    grid = build_hex_grid(args.m, args.n)
    n_edges = len(grid.graph.arcs)
    if args.code is not None:
        if len(args.code) != n_edges:
            raise ValueError(f"code must have {n_edges} bits for this grid")
        return grid, orient(grid.graph, args.code)
    seed = args.seed if args.seed is not None else 0
    return grid, random_orientation(grid.graph, seed)


def _cmd_hex_gen(args) -> int:
    grid, oriented = _grid_orientation(args)
    if args.graph is not None:
        # seeded and coded orientations direct the grid's edges by construction
        grid.directions(oriented)
    _write(serialize_digraph(oriented))
    return 0


def _cmd_tourn_list(args) -> int:
    _write("".join(f"{t.order}:{t.bits}\n" for t in enumerate_tournaments(args.k)))
    return 0


def _cmd_tourn_ds(args) -> int:
    t = resolve_tournament(args.tournament)
    _write(" ".join(str(x) for x in double_score_set(t)) + "\n")
    return 0


def _cmd_tourn_canon(args) -> int:
    t = resolve_tournament(args.tournament)
    _write(f"{t.order}:{canonical_form(t)}\n")
    return 0


def _cmd_hom_check(args) -> int:
    g = _load_graph(args.graph)
    t = resolve_tournament(args.tournament)
    if args.brute:
        result = brute_force_hom(g, t)
    else:
        result = homomorphism_exists(g, t, time_budget_s=SOLVER_BUDGET_S)
    if args.json:
        _write(json.dumps(search_record(g, t, result)) + "\n")
    elif result.found:
        _write("FOUND " + " ".join(str(c) for c in result.witness) + "\n")
    else:
        _write(f"NONE (nodes expanded: {result.nodes_expanded})\n")
    return 0 if result.found else 1


def _cmd_prop1(args) -> int:
    t = resolve_tournament(args.tournament)
    check = check_property1(t, include_equal_endpoints=not args.distinct_only)
    if args.json:
        _write(json.dumps({
            "holds": check.holds,
            "cases": len(check.table) + len(check.missing),
            "missing": [[u, v, list(p)] for (u, v, p) in check.missing],
        }) + "\n")
    elif check.holds:
        _write(f"holds ({len(check.table)} cases)\n")
    else:
        _write(f"fails ({len(check.missing)} unrealizable cases), first: {check.missing[0]}\n")
    return 0 if check.holds else 1


def _cmd_color(args) -> int:
    grid, oriented = _grid_orientation(args)
    colors = color_hex(grid, oriented)
    if args.json:
        _write(json.dumps({"grid": [grid.m, grid.n], "colors": list(colors)}) + "\n")
    else:
        _write("".join(f"{v + 1} v{i},{j} {c}\n"
                       for v, ((i, j), c) in enumerate(zip(grid.coords, colors))))
    return 0


def _cmd_chi_o(args) -> int:
    g = _load_graph(args.graph)
    value = chi_o(g, k_max=args.k_max, time_budget_s=SOLVER_BUDGET_S)
    if args.json:
        _write(json.dumps({"chi_o": value, "k_max": args.k_max}) + "\n")
    elif value is None:
        _write(f"> {args.k_max}\n")
    else:
        _write(f"{value}\n")
    return 0


def _cmd_export_opl(args) -> int:
    if args.model:
        _write(export_opl_model())
        return 0
    if args.graph is None or args.tournament is None:
        raise ValueError("export-opl requires -g and -t (or --model)")
    g = _load_graph(args.graph)
    t = resolve_tournament(args.tournament)
    if t.order != 5:
        raise ValueError("data export needs an order-5 tournament")
    _write(export_opl_data(g, t))
    return 0


def _cmd_verify_paper(args) -> int:
    report = verify_paper(seed=args.seed, scale=args.scale)
    if args.out:
        Path(args.out).write_text(report.to_json())
    if args.json:
        _write(report.to_json())
    else:
        _write(render_text(report))
    return 0 if report.passed else 1


def _add_grid_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("-m", type=int, required=True, help="hexagon rows")
    p.add_argument("-n", type=int, required=True, help="hexagons per row")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--seed", type=int, help="seeded random orientation (nonnegative)")
    src.add_argument("--code", help="explicit orientation bits, one per edge")
    src.add_argument("-g", "--graph", help="orientation from a graph file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orihex",
        description="Oriented coloring of hexagonal grids: generators, "
                    "tournament census, homomorphism checks, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hexp = sub.add_parser("hex", help="hexagonal grid commands")
    hexsub = hexp.add_subparsers(dest="hex_command", required=True)
    gen = hexsub.add_parser("gen", help="emit an oriented hexagonal grid as a graph file")
    _add_grid_source(gen)
    gen.set_defaults(fn=_cmd_hex_gen)

    tourn = sub.add_parser("tourn", help="tournament commands")
    tsub = tourn.add_subparsers(dest="tourn_command", required=True)
    tlist = tsub.add_parser("list", help="census of k-tournaments up to isomorphism")
    tlist.add_argument("-k", type=int, default=5)
    tlist.set_defaults(fn=_cmd_tourn_list)
    tds = tsub.add_parser("ds", help="double score set of a tournament")
    tds.add_argument("-t", "--tournament", required=True)
    tds.set_defaults(fn=_cmd_tourn_ds)
    tcanon = tsub.add_parser("canon", help="canonical bitstring of a tournament")
    tcanon.add_argument("-t", "--tournament", required=True)
    tcanon.set_defaults(fn=_cmd_tourn_canon)

    hom = sub.add_parser("hom", help="homomorphism commands")
    hsub = hom.add_subparsers(dest="hom_command", required=True)
    hcheck = hsub.add_parser("check", help="decide homomorphism existence (exit 1 if none)")
    hcheck.add_argument("-g", "--graph", required=True, help="graph file, or H4/H49")
    hcheck.add_argument("-t", "--tournament", required=True, help="T1..T12, A6, or k:bits")
    hcheck.add_argument("--brute", action="store_true", help="use the frontier DP oracle")
    hcheck.add_argument("--json", action="store_true")
    hcheck.set_defaults(fn=_cmd_hom_check)

    prop1 = sub.add_parser("prop1", help="check the three-step path property")
    prop1.add_argument("-t", "--tournament", required=True)
    prop1.add_argument("--distinct-only", action="store_true",
                       help="skip the equal-endpoint cases")
    prop1.add_argument("--json", action="store_true")
    prop1.set_defaults(fn=_cmd_prop1)

    color = sub.add_parser("color", help="6-color an oriented hexagonal grid")
    _add_grid_source(color)
    color.add_argument("--json", action="store_true")
    color.set_defaults(fn=_cmd_color)

    chio = sub.add_parser("chi-o", help="oriented chromatic number of a digraph")
    chio.add_argument("-g", "--graph", required=True)
    chio.add_argument("--k-max", type=int, default=5)
    chio.add_argument("--json", action="store_true")
    chio.set_defaults(fn=_cmd_chi_o)

    opl = sub.add_parser("export-opl", help="emit OPL data (or model) files")
    opl.add_argument("-g", "--graph")
    opl.add_argument("-t", "--tournament")
    opl.add_argument("--model", action="store_true", help="emit the model file instead")
    opl.set_defaults(fn=_cmd_export_opl)

    vp = sub.add_parser("verify-paper", help="run the full verification pipeline")
    vp.add_argument("--seed", type=int, default=0,
                    help="nonnegative seed of the sampled orientations")
    vp.add_argument("--scale", choices=list(SCALES), default="small")
    vp.add_argument("--json", action="store_true")
    vp.add_argument("--out", help="also write the JSON report to this path")
    vp.set_defaults(fn=_cmd_verify_paper)

    return parser


def cli_dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: no input error. stdout now writes to
        # devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SearchBudgetExceeded, RecursionError, MemoryError) as exc:
        # never exit 1, which would read as a verdict
        print(f"undecided: {type(exc).__name__} {exc}".rstrip(), file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
