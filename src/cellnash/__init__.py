"""Equilibrium search for finite normal-form games over labeled simplicial grids.

The library computes eps-Nash equilibria by triangulating each player's
mixed-strategy simplex, labeling every grid vertex with a zero-gain pure
profile, scanning product cells for a complete set of labels, and refining
the grids until the best cell's representative meets the regret target.
Independent oracles (brute-force grid scan, two-player support enumeration,
a volume identity for single-player games) cross-check the results.
"""

from .errors import (
    BudgetExceeded,
    CellNashError,
    DimensionMismatch,
    EmptySupport,
    IndexOutOfRange,
    InvalidDistribution,
    NegativeEpsilon,
    NoPreEquilibriumFound,
    NotSinglePlayer,
    ParameterOutOfRange,
    ParseError,
    ResolutionZero,
    ShapeError,
)
from .game import (
    Game,
    GainTable,
    MixedProfile,
    PureProfile,
    deviation_payoffs,
    deviation_profile,
    evaluate_payoff,
    gain_table,
    is_equilibrium,
    max_regret,
)
from .gamefile import (
    load_report,
    parse_game,
    parse_profile,
    report_json,
    serialize_game,
)
from .labeling import check_root_properties, grid_labels, root_label, root_motion
from .oracle import (
    OracleResult,
    SupportEnumerationResult,
    grid_min_regret,
    support_enumeration_2p,
    verify_profile,
)
from .scalars import (
    FLOAT,
    RATIONAL,
    get_numeric_mode,
    numeric_mode,
    set_numeric_mode,
)
from .search import (
    CellClassification,
    PreEquilibriumCert,
    SolveReport,
    StageRecord,
    classify_cell,
    find_pre_equilibria,
    representative,
    scan_cells,
    solve,
)
from .subdivision import (
    ProductCell,
    Triangulation,
    build_product_cell,
    cell_diameter,
    player_triangulations,
    product_cells,
    triangulate,
)
from .volume import (
    VolumePolynomial,
    cell_volume_polynomial,
    moved_cell_volume,
    moved_volumes,
    total_volume_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CellClassification",
    "CellNashError",
    "DimensionMismatch",
    "EmptySupport",
    "FLOAT",
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
    "RATIONAL",
    "ResolutionZero",
    "ShapeError",
    "SolveReport",
    "StageRecord",
    "SupportEnumerationResult",
    "Triangulation",
    "VolumePolynomial",
    "build_product_cell",
    "cell_diameter",
    "cell_volume_polynomial",
    "check_root_properties",
    "classify_cell",
    "deviation_payoffs",
    "deviation_profile",
    "evaluate_payoff",
    "find_pre_equilibria",
    "gain_table",
    "get_numeric_mode",
    "grid_labels",
    "grid_min_regret",
    "is_equilibrium",
    "load_report",
    "max_regret",
    "moved_cell_volume",
    "moved_volumes",
    "numeric_mode",
    "parse_game",
    "parse_profile",
    "player_triangulations",
    "product_cells",
    "report_json",
    "representative",
    "root_label",
    "root_motion",
    "scan_cells",
    "serialize_game",
    "set_numeric_mode",
    "solve",
    "support_enumeration_2p",
    "total_volume_polynomial",
    "triangulate",
    "verify_profile",
]
