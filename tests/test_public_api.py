"""The package exports exactly the names its callers use, and README's
key entry points are among them."""

import re
from pathlib import Path

import cellnash

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "BudgetExceeded",
    "CellClassification",
    "CellNashError",
    "DimensionMismatch",
    "GainTable",
    "Game",
    "IndexOutOfRange",
    "InvalidDistribution",
    "MixedProfile",
    "NegativeEpsilon",
    "NoPreEquilibriumFound",
    "NotSinglePlayer",
    "OracleResult",
    "ParameterOutOfRange",
    "ParseError",
    "PreEquilibriumCert",
    "ProductCell",
    "PureProfile",
    "ResolutionZero",
    "ShapeError",
    "SolveReport",
    "StageRecord",
    "SupportEnumerationResult",
    "Triangulation",
    "VolumePolynomial",
    "build_product_cell",
    "cell_diameter",
    "check_root_properties",
    "classify_cell",
    "deviation_payoffs",
    "evaluate_payoff",
    "find_pre_equilibria",
    "gain_table",
    "grid_labels",
    "grid_min_regret",
    "is_equilibrium",
    "load_report",
    "max_regret",
    "moved_cell_volume",
    "parse_game",
    "parse_profile",
    "player_triangulations",
    "report_json",
    "representative",
    "root_label",
    "root_motion",
    "scan_cells",
    "serialize_game",
    "solve",
    "support_enumeration_2p",
    "total_volume_polynomial",
    "triangulate",
    "verify_profile",
]


def readme_entry_points():
    """Names of the functions README's "Key entry points" list shows: each
    code span that is a bare name or a call."""
    text = README.read_text(encoding="utf-8")
    # the list runs from its heading to the first blank line
    section = text.split("Key entry points:\n\n", 1)[1].split("\n\n", 1)[0]
    spans = re.findall(r"`([^`]+)`", section)
    return [
        match.group(1)
        for match in (re.fullmatch(r"(\w+)(\(.*\))?", span, re.S) for span in spans)
        if match
    ]


def test_public_surface_is_pinned_and_documented():
    assert cellnash.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(cellnash, name), name
    documented = readme_entry_points()
    assert "scan_cells" in documented and "verify_profile" in documented
    assert set(documented) <= set(PUBLIC)
