"""Search for completely labeled cells and the resolution-refinement loop.

A product cell is a certificate when the labels of its vertex profiles
hit every pure strategy combination exactly once.  The scan takes the
grid's labels from :func:`~cellnash.labeling.label_rows`, once per
distinct row (a row is the last player's labels at one tuple of the
other players' vertices).  Per row it ORs each last-player cell's label
bits once, and keeps a bitset of the cells whose labels do not repeat.
A prefix cell (its cells of all players but the last) ANDs its rows'
bitsets and ORs the masks only at the surviving bits.  A cell has one
vertex profile per pure combination, so by pigeonhole its mask is full
exactly when no label repeats.  Cells are walked in lexicographic
order, surviving bits lowest first, so every downstream tie-break
reproduces.

``solve`` refines the grid geometrically, keeps the certificate whose
barycenter has the smallest total gain, and stops once the barycenter's
max regret reaches the target.  A certificate is evaluated on its grids'
integers: the barycenter sums lattice numerators, the ``up`` flags are
the gain tables' integer core summed on those numerators, and the chosen
barycenter's table is the report's final table, built once.  A stage
with no certificate is recorded and refinement continues: coarse grids
legitimately miss (a two-interval grid cannot certify matching pennies,
whose equilibrium sits exactly on the one interior lattice point), while
finer stages recover.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass
from functools import partial, reduce
from typing import Optional, Sequence

from .errors import BudgetExceeded, DimensionMismatch, NoPreEquilibriumFound
from .errors import ParameterOutOfRange, ResolutionZero
from .game import Game, GainTable, MixedProfile, PureProfile, _profile, _reduced
from .game import check_eps, deviation_sums, gain_table, up_flags
from .labeling import label_rows
from .labeling import root_label  # noqa: F401  perfbench's tracer test reads search.root_label
from .scalars import Scalar
from .subdivision import (
    ProductCell,
    Triangulation,
    build_product_cell,
    cell_diameter,
    check_int,
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
    rows, row_of = label_rows(game, tris)
    *prefix, last = tris
    # a prefix cell's (all players' but the last) vertex tuples as row
    # numbers: vertex index times the later prefix players' vertex counts
    offsets = []
    for j, tri in enumerate(prefix):
        step = math.prod(len(t.numerators) for t in prefix[j + 1 :])
        if step == 1:  # the last prefix player: a vertex index is its number
            offsets.append(tri.cells)
        else:
            offsets.append([tuple(v * step for v in cell) for cell in tri.cells])
    # per distinct row: each last-player cell's OR of label bits, and the
    # bitset of cells whose labels do not repeat
    size = last.dim + 1  # vertices per last-player cell
    columns = list(zip(*last.cells))
    or_rows = partial(map, operator.or_)  # elementwise, lazily
    masks = []
    live = []
    for row in rows:
        bits = [1 << flat for flat in row]
        mask = list(reduce(or_rows, (map(bits.__getitem__, c) for c in columns)))
        masks.append(mask)
        live.append(sum(1 << c for c, m in enumerate(mask) if m.bit_count() == size))
    full = (1 << len(pure)) - 1

    certs: list[PreEquilibriumCert] = []
    for factor in itertools.product(*(range(len(t.cells)) for t in prefix)):
        tuples = map(sum, itertools.product(*map(operator.getitem, offsets, factor)))
        ids = list(map(row_of.__getitem__, tuples))
        survivors = reduce(operator.and_, map(live.__getitem__, ids))
        if not survivors:
            continue
        picked = list(map(masks.__getitem__, ids))
        while survivors:  # lowest bit first: lexicographic cell order
            low = survivors & -survivors
            survivors ^= low
            c = low.bit_length() - 1
            if reduce(operator.or_, [row[c] for row in picked]) != full:
                continue
            certs.append(
                PreEquilibriumCert(
                    cell=build_product_cell(tris, factor + (c,)),
                    labels=tuple(pure[rows[r][v]] for r in ids for v in last.cells[c]),
                    resolutions=resolutions,
                )
            )
    return certs


def representative(cert: PreEquilibriumCert) -> MixedProfile:
    """Barycenter of the cell: per player, the average of the factor
    cell's vertices, exact.  Each player's vertex numerators are summed
    as integers over ``m * (d + 1)`` and reduced once."""
    forms = (
        _reduced([sum(column) for column in zip(*rows)], m * len(rows))
        for rows, m in cert.cell.lattice
    )
    return _profile(*zip(*forms))


def classify_cell(game: Game, cell: ProductCell) -> CellClassification:
    """Evaluate the ``up`` flags at the vertex profiles and report which
    case holds.  Diagnostics only — the search never branches on this.

    The flags are :func:`~cellnash.game.gain_table`'s integer core summed
    on the cell's lattice numerators over each grid's ``m``, unreduced:
    that scales every player's gains by one positive factor, the product
    of ``m / den`` over the players, so no flag changes.  Vertex profiles
    are read in order until every player has a witness, the first profile
    where that player is not up, and only the witnesses become profiles;
    a player left without one is up everywhere, and the lowest such
    player is reported.  A cell whose strategy counts are not the game's
    is a :class:`DimensionMismatch`."""
    shape = tuple(len(rows[0]) for rows, _ in cell.lattice)
    if shape != game.shape:
        raise DimensionMismatch(f"cell of shape {shape} for a game of shape {game.shape}")
    lcm = math.lcm(*game.payoff_scales)
    # per player, each vertex's numerators and supported (offset, numerator) pairs
    axes = [
        [(row, [(s * stride, k) for s, k in enumerate(row) if k]) for row in rows]
        for (rows, _), stride in zip(cell.lattice, game.strides)
    ]
    players = [
        (tensor, lcm // scale, m, range(0, count * stride, stride))
        for tensor, scale, (_, m), count, stride in zip(
            game.integer_payoffs, game.payoff_scales, cell.lattice, game.shape, game.strides
        )
    ]
    witnesses: list[Optional[tuple]] = [None] * game.num_players
    for combo in itertools.product(*axes):
        rows, supports = zip(*combo)
        lifted = []
        for i, (tensor, lift, m, offsets) in enumerate(players):
            devs = deviation_sums(tensor, supports[:i] + supports[i + 1 :], offsets)
            # gain_table's best gain; the weights sum to m, so it is never negative
            lifted.append((m * max(devs) - sum(map(operator.mul, rows[i], devs))) * lift)
        for i, up in enumerate(up_flags(lifted, sum(lifted))):
            if not up and witnesses[i] is None:
                witnesses[i] = rows
        if None not in witnesses:
            dens = [m for _, m in cell.lattice]
            profiles = {w: _profile(*zip(*map(_reduced, w, dens))) for w in witnesses}
            return CellClassification(
                SOME_PLAYER_NOT_UP, witnesses=tuple(map(profiles.__getitem__, witnesses))
            )
    return CellClassification(PLAYER_UP_EVERYWHERE, player=witnesses.index(None))


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

    The ladder ends early at the first stage whose grid the budget
    refuses; that :class:`BudgetExceeded` is raised only when it is the
    first stage.  Raises :class:`NoPreEquilibriumFound` only when every
    stage run comes up empty — then there is no profile to report at all.
    """
    check_eps(eps_target, "eps target")
    check_int(m0, "resolution")
    if m0 < 1:
        raise ResolutionZero(f"m0 {m0} must be >= 1")
    check_int(refine_factor, "refine factor")
    if refine_factor < 2:
        raise ParameterOutOfRange(f"refine factor {refine_factor} must be >= 2")
    check_int(max_stages, "max stages")
    if max_stages < 1:
        raise ParameterOutOfRange(f"max stages {max_stages} must be >= 1")
    if budget is None:
        budget = default_budget()

    records: list[StageRecord] = []
    final_profile: Optional[MixedProfile] = None  # the last chosen representative
    final_table: Optional[GainTable] = None  # and its gain table
    m = m0
    for stage in range(max_stages):
        start = time.perf_counter()
        try:
            tris = player_triangulations(game, m, budget)
        except BudgetExceeded:
            if not records:
                raise
            break  # the budget ends the ladder; the stages run so far stand
        certs = scan_cells(game, tris)
        chosen = {}
        if certs:
            # lexicographic order, and min keeps the first minimum on ties;
            # the candidates are lazy, so no list of gain tables is built
            reps = map(representative, certs)
            cert, final_profile, final_table = min(
                ((c, rep, gain_table(game, rep)) for c, rep in zip(certs, reps)),
                key=lambda candidate: candidate[2].total,
            )
            chosen = dict(
                chosen_cell=cert.cell.factor,
                classification=classify_cell(game, cert.cell),
                representative=final_profile,
                total_gain=final_table.total,
                max_regret=max(final_table.best),
                diameter=cell_diameter(cert.cell),
            )
        records.append(
            StageRecord(
                stage=stage,
                resolutions=(m,) * game.num_players,
                cells_scanned=math.prod(len(t.cells) for t in tris),
                pre_equilibria_found=len(certs),
                **chosen,
                wall_clock_s=time.perf_counter() - start,
            )
        )
        if _meets(records[-1], eps_target):
            break
        m *= refine_factor
    if final_profile is None:
        raise NoPreEquilibriumFound(
            stage=len(records) - 1,
            resolutions_tried=[list(r.resolutions) for r in records],
            cells_scanned=sum(r.cells_scanned for r in records),
        )
    return SolveReport(
        stages=tuple(records),
        final_profile=final_profile,
        final_max_regret=max(final_table.best),
        final_gain_table=final_table,
        converged=_meets(records[-1], eps_target),
        eps_target=eps_target,
        budget=budget,
    )


def _meets(record: StageRecord, eps_target: Scalar) -> bool:
    return record.max_regret is not None and record.max_regret <= eps_target
