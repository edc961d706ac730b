"""orihex: oriented coloring of hexagonal grids.

Mechanically verifies both directions of the statement that the oriented
chromatic number of the hexagonal grid family equals 6: a constructive
6-coloring of any grid orientation (upper bound machinery) and
homomorphism-nonexistence checks from two fixed lattice-patch
orientations to every 5-tournament (lower bound).

``import orihex`` loads no submodule. Each public name is imported from
the submodule that defines it on first use (PEP 562), so a process loads
only the modules it uses.
"""

__version__ = "0.1.0"

#: each public name, by the submodule that defines it
_EXPORTS = {
    "digraph": (
        "GraphFormatError",
        "OrientedGraph",
        "enumerate_orientations",
        "orient",
        "parse_digraph",
        "random_orientation",
        "serialize_digraph",
    ),
    "hexcolor": ("Prop1Check", "check_property1", "color_hex"),
    "hexgrid": (
        "AxialFixture",
        "HexGrid",
        "build_hex_grid",
        "fixture_h4",
        "fixture_h49",
        "place_fixture",
        "validate_axial_fixture",
    ),
    "homomorphism": (
        "HomResult",
        "brute_force_hom",
        "chi_o",
        "homomorphism_exists",
        "validate_homomorphism",
    ),
    "opl": ("export_opl_data", "export_opl_model"),
    "tournaments": (
        "Tournament",
        "arc_codes",
        "canonical_form",
        "double_score_set",
        "enumerate_tournaments",
        "fixture_a6",
        "named_tournament",
        "parse_tournament",
        "resolve_tournament",
    ),
    "verify": ("VerificationReport", "verify_paper"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SUBMODULE, "__version__"]


def _submodule(module):
    # with a fromlist, __import__ returns orihex.<module> itself, not orihex
    return __import__(f"{__name__}.{module}", fromlist=["*"])


def __getattr__(name):
    if name in _EXPORTS:  # orihex.digraph and the like, without an import
        return _submodule(name)
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(module), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
