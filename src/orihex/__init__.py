"""orihex: oriented coloring of hexagonal grids.

Mechanically verifies both directions of the statement that the oriented
chromatic number of the hexagonal grid family equals 6: a constructive
6-coloring of any grid orientation (upper bound machinery) and
homomorphism-nonexistence checks from two fixed lattice-patch
orientations to every 5-tournament (lower bound).
"""

__version__ = "0.1.0"

from .digraph import (
    GraphFormatError,
    OrientedGraph,
    enumerate_orientations,
    orient,
    parse_digraph,
    random_orientation,
    serialize_digraph,
)
from .hexcolor import (
    Prop1Check,
    check_property1,
    color_hex,
)
from .hexgrid import (
    AxialFixture,
    HexGrid,
    build_hex_grid,
    fixture_h4,
    fixture_h49,
    place_fixture,
    validate_axial_fixture,
)
from .homomorphism import (
    HomResult,
    brute_force_hom,
    chi_o,
    homomorphism_exists,
    validate_homomorphism,
)
from .opl import export_opl_data, export_opl_model
from .tournaments import (
    Tournament,
    arc_codes,
    canonical_form,
    double_score_set,
    enumerate_tournaments,
    fixture_a6,
    named_tournament,
    parse_tournament,
    resolve_tournament,
)
from .verify import VerificationReport, verify_paper

__all__ = [
    "GraphFormatError",
    "OrientedGraph",
    "enumerate_orientations",
    "orient",
    "parse_digraph",
    "random_orientation",
    "serialize_digraph",
    "Prop1Check",
    "check_property1",
    "color_hex",
    "AxialFixture",
    "HexGrid",
    "build_hex_grid",
    "fixture_h4",
    "fixture_h49",
    "place_fixture",
    "validate_axial_fixture",
    "HomResult",
    "brute_force_hom",
    "chi_o",
    "homomorphism_exists",
    "validate_homomorphism",
    "export_opl_data",
    "export_opl_model",
    "Tournament",
    "arc_codes",
    "canonical_form",
    "double_score_set",
    "enumerate_tournaments",
    "fixture_a6",
    "named_tournament",
    "parse_tournament",
    "resolve_tournament",
    "VerificationReport",
    "verify_paper",
    "__version__",
]
