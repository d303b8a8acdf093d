"""Search for completely labeled cells and the resolution-refinement loop.

A product cell is a certificate when the labels of its vertex profiles
hit every pure strategy combination exactly once.  The scan labels the
whole grid once (cells share vertices), reads a cell's labels at sums of
per-player offsets into that flat list, aborts a cell on the first
repeated label, and walks cells in lexicographic order so the output
order — and therefore every downstream tie-break — is reproducible.

``solve`` refines the grid geometrically, keeps the certificate whose
barycenter has the smallest total gain, and stops once the barycenter's
max regret reaches the target.  A stage with no certificate is recorded
and refinement continues: coarse grids legitimately miss (a two-interval
grid cannot certify matching pennies, whose equilibrium sits exactly on
the one interior lattice point), while finer stages recover.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from . import scalars
from .errors import NegativeEpsilon, NoPreEquilibriumFound, ParameterOutOfRange, ResolutionZero
from .game import Game, GainTable, MixedProfile, PureProfile, gain_table
from .labeling import grid_labels
from .labeling import root_label  # noqa: F401  perfbench's tracer test reads search.root_label
from .scalars import Scalar
from .subdivision import (
    ProductCell,
    Triangulation,
    build_product_cell,
    cell_diameter,
    default_budget,
    player_triangulations,
)

SOME_PLAYER_NOT_UP = "SOME_PLAYER_NOT_UP"
PLAYER_UP_EVERYWHERE = "PLAYER_UP_EVERYWHERE"


@dataclass(frozen=True)
class PreEquilibriumCert:
    """A completely labeled product cell.

    ``labels[k]`` is the label of ``cell.vertex_profiles[k]``; together
    they exhaust the pure strategy combinations.
    """

    cell: ProductCell
    labels: tuple[PureProfile, ...]
    resolutions: tuple[int, ...]


@dataclass(frozen=True)
class CellClassification:
    """Which side of the two-case argument a cell falls on.

    Either every player fails the ``up`` test somewhere (with one witness
    vertex profile per player), or some player passes it at every vertex.
    """

    case: str
    witnesses: Optional[tuple[MixedProfile, ...]] = None
    player: Optional[int] = None


def find_pre_equilibria(
    game: Game,
    resolutions: Sequence[int] | int,
    budget: Optional[int] = None,
) -> list[PreEquilibriumCert]:
    """All certificates at the given per-player resolutions, in
    lexicographic cell order.  An empty list is a legitimate outcome."""
    return scan_cells(game, player_triangulations(game, resolutions, budget))


def scan_cells(
    game: Game, tris: Sequence[Triangulation]
) -> list[PreEquilibriumCert]:
    """All certificates of the grid the triangulations (one per player,
    from :func:`~cellnash.subdivision.player_triangulations`) span."""
    resolutions = tuple(t.resolution for t in tris)
    # labels travel as flat indices; this table turns one back into a profile
    pure = [
        PureProfile(choices)
        for choices in itertools.product(*(range(count) for count in game.shape))
    ]
    labels = grid_labels(game, tris)
    # a cell's vertices as offsets into the label list: vertex index times
    # the product of the later players' vertex counts
    offsets = []
    for j, tri in enumerate(tris):
        step = math.prod(len(t.vertices) for t in tris[j + 1 :])
        offsets.append([tuple(v * step for v in cell) for cell in tri.cells])

    certs: list[PreEquilibriumCert] = []
    for factor in itertools.product(*(range(len(t.cells)) for t in tris)):
        seen = 0
        read = []
        for parts in itertools.product(
            *(offsets[j][c] for j, c in enumerate(factor))
        ):
            flat = labels[sum(parts)]
            bit = 1 << flat
            if seen & bit:
                break
            seen |= bit
            read.append(flat)
        else:
            certs.append(
                PreEquilibriumCert(
                    cell=build_product_cell(tris, factor),
                    labels=tuple(pure[flat] for flat in read),
                    resolutions=resolutions,
                )
            )
    return certs


def representative(cert: PreEquilibriumCert) -> MixedProfile:
    """Barycenter of the cell: per player, the average of the factor
    cell's vertices (exact in rational mode)."""
    dists = []
    for vertex_group in cert.cell.factor_vertices:
        k = len(vertex_group)
        coords = []
        for c in range(len(vertex_group[0])):
            total: Scalar = 0
            for vertex in vertex_group:
                total = total + vertex[c]
            coords.append(scalars.exact_div(total, k))
        dists.append(tuple(coords))
    return MixedProfile(tuple(dists))


def classify_cell(game: Game, cell: ProductCell) -> CellClassification:
    """Evaluate the ``up`` flags at every vertex profile and report which
    case holds.  Diagnostics only — the search never branches on this."""
    tables = [gain_table(game, profile) for profile in cell.vertex_profiles]
    for i in range(game.num_players):
        if all(table.up[i] for table in tables):
            return CellClassification(case=PLAYER_UP_EVERYWHERE, player=i)
    witnesses = []
    for i in range(game.num_players):
        for profile, table in zip(cell.vertex_profiles, tables):
            if not table.up[i]:
                witnesses.append(profile)
                break
    return CellClassification(case=SOME_PLAYER_NOT_UP, witnesses=tuple(witnesses))


@dataclass(frozen=True)
class StageRecord:
    """Everything the refinement loop learned at one resolution."""

    stage: int
    resolutions: tuple[int, ...]
    cells_scanned: int
    pre_equilibria_found: int
    chosen_cell: Optional[tuple[int, ...]] = None
    classification: Optional[CellClassification] = None
    representative: Optional[MixedProfile] = None
    total_gain: Optional[Scalar] = None
    max_regret: Optional[Scalar] = None
    diameter: Optional[float] = None
    wall_clock_s: float = 0.0


@dataclass(frozen=True)
class SolveReport:
    stages: tuple[StageRecord, ...]
    final_profile: MixedProfile
    final_max_regret: Scalar
    final_gain_table: GainTable
    converged: bool
    eps_target: Scalar
    budget: int


def solve(
    game: Game,
    eps_target: Scalar,
    m0: int = 2,
    refine_factor: int = 2,
    max_stages: int = 6,
    budget: Optional[int] = None,
) -> SolveReport:
    """Refine until some certificate's barycenter is an ``eps_target``
    equilibrium, or stages run out.

    Raises :class:`NoPreEquilibriumFound` only when every stage comes up
    empty — then there is no profile to report at all.
    """
    if isinstance(eps_target, float):
        if eps_target <= 0:
            raise NegativeEpsilon(
                f"eps target {eps_target} must be positive in float mode"
            )
    elif eps_target < 0:
        raise NegativeEpsilon(f"eps target {eps_target} is negative")
    if m0 < 1:
        raise ResolutionZero(f"m0 {m0} must be >= 1")
    if refine_factor < 2:
        raise ParameterOutOfRange(f"refine factor {refine_factor} must be >= 2")
    if max_stages < 1:
        raise ParameterOutOfRange(f"max stages {max_stages} must be >= 1")
    if budget is None:
        budget = default_budget()

    records: list[StageRecord] = []
    best: Optional[tuple[MixedProfile, Scalar, GainTable]] = None
    converged = False
    total_cells = 0
    m = m0
    for stage in range(max_stages):
        start = time.perf_counter()
        resolutions = (m,) * game.num_players
        tris = player_triangulations(game, m, budget)
        certs = scan_cells(game, tris)
        scanned = math.prod(len(t.cells) for t in tris)
        total_cells += scanned
        if not certs:
            records.append(
                StageRecord(
                    stage=stage,
                    resolutions=resolutions,
                    cells_scanned=scanned,
                    pre_equilibria_found=0,
                    wall_clock_s=time.perf_counter() - start,
                )
            )
            m *= refine_factor
            continue
        chosen = None
        chosen_table = None
        chosen_rep = None
        for cert in certs:  # lexicographic order; first minimum wins ties
            rep = representative(cert)
            table = gain_table(game, rep)
            if chosen is None or table.total < chosen_table.total:
                chosen = cert
                chosen_table = table
                chosen_rep = rep
        regret = max(chosen_table.best)
        records.append(
            StageRecord(
                stage=stage,
                resolutions=resolutions,
                cells_scanned=scanned,
                pre_equilibria_found=len(certs),
                chosen_cell=chosen.cell.factor,
                classification=classify_cell(game, chosen.cell),
                representative=chosen_rep,
                total_gain=chosen_table.total,
                max_regret=regret,
                diameter=cell_diameter(chosen.cell),
                wall_clock_s=time.perf_counter() - start,
            )
        )
        best = (chosen_rep, regret, chosen_table)
        if scalars.less_equal(regret, eps_target):
            converged = True
            break
        m *= refine_factor
    if best is None:
        raise NoPreEquilibriumFound(
            stage=len(records) - 1,
            resolutions_tried=[list(r.resolutions) for r in records],
            cells_scanned=total_cells,
        )
    final_profile, _, _ = best
    final_table = gain_table(game, final_profile)  # recomputed from scratch
    return SolveReport(
        stages=tuple(records),
        final_profile=final_profile,
        final_max_regret=max(final_table.best),
        final_gain_table=final_table,
        converged=converged,
        eps_target=eps_target,
        budget=budget,
    )
