"""Search for completely labeled cells and the resolution-refinement loop.

A product cell is a certificate when the labels of its vertex profiles
hit every pure strategy combination exactly once.  The scan takes the
grid's labels from :func:`~cellnash.labeling.label_rows`, once per
distinct row (a row is the last player's labels at one tuple of the
other players' vertices), and lays them out as *label planes*:
``plane[label][row]`` is the bitset of last-player cells that have a
vertex with that label in that row.  A plane is the OR of the *stars*
of those vertices, each star being the cells that hold one vertex, as
the grid keeps it (:attr:`~cellnash.subdivision.Triangulation.stars`),
in windows of cells whose accumulators are joined once per row.  A grid
derives its stars on its first scan, a Python step per (cell, vertex)
entry, and holds them.  A prefix cell (its cells of all players but the
last) is dropped at once when two of its vertex tuples share a row;
otherwise it ANDs, label by label, the OR of its rows' planes, and stops
at the first empty AND.  The bits that remain are its certificates.  A
cell has one vertex profile per pure combination, so by pigeonhole it
holds every label exactly when no label repeats.  Cells are walked in
lexicographic order, remaining bits lowest first, so every downstream
tie-break reproduces.

``solve`` refines the grid geometrically, keeps the certificate whose
barycenter has the smallest total gain, and stops once the barycenter's
max regret reaches the target.  A certificate is evaluated on its grids'
integers: the pick totals the lifted best gains at each barycenter's
lattice numerator sums, unreduced over ``m * (d_i + 1)``, one scale for
the whole stage; only the winner becomes a profile and a gain table.  A
stage with no certificate is recorded and refinement continues: coarse
grids legitimately miss (a two-interval grid cannot certify matching
pennies, whose equilibrium sits exactly on the one interior lattice
point), while finer stages recover.
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
from .game import Game, GainTable, MixedProfile, PureProfile, _lifted_gains, _profile
from .game import _reduced, _rows, check_eps, gain_table, up_flags
from .labeling import label_rows
from .labeling import root_label  # noqa: F401  perfbench's tracer test reads search.root_label
from .scalars import Scalar
from .subdivision import (
    ProductCell,
    Stars,
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
    first, *others = _planes_from_stars(rows, last.stars, len(pure))
    factors = itertools.product(*(range(len(t.cells)) for t in prefix))
    certs: list[PreEquilibriumCert] = []
    for factor, ids in zip(factors, _prefix_rows(prefix, row_of)):
        if len(set(ids)) < len(ids):  # a row twice: every cell repeats a label
            continue
        # the cells with every label: ANDed a label at a time, until empty
        full = reduce(operator.or_, map(first.__getitem__, ids))
        for plane in others:
            if not full:
                break
            full &= reduce(operator.or_, map(plane.__getitem__, ids))
        while full:  # lowest bit first: lexicographic cell order
            low = full & -full
            full ^= low
            c = low.bit_length() - 1
            certs.append(
                PreEquilibriumCert(
                    cell=build_product_cell(tris, factor + (c,)),
                    labels=tuple(pure[rows[r][v]] for r in ids for v in last.cells[c]),
                    resolutions=resolutions,
                )
            )
    return certs


def _planes_from_stars(rows, stars: Stars, count: int) -> list[tuple[int, ...]]:
    """Per label, per distinct row, the bitset of last-player cells with
    a vertex of that label in that row, as ORs of vertex stars.  A row
    ORs each window's pieces into one accumulator per label, a Python
    step per piece; the windows' accumulators are then joined as bytes,
    so a long grid costs time linear in its pieces."""
    size = itertools.repeat((1 << stars.window) // 8)  # bytes per window
    little = itertools.repeat("little")
    windows = list(zip(stars.vertices, stars.bits))
    planes = []
    for row in rows:
        parts = []
        for vertices, bits in windows:
            labels = map(row.__getitem__, vertices)
            if len(vertices) == len(row):  # every vertex, so all in order
                labels = row
            acc = [0] * count
            for label, held in zip(labels, bits):
                acc[label] |= held
            parts.append(acc)
        if len(parts) == 1:
            planes.append(parts[0])
            continue
        joined = [b"".join(map(int.to_bytes, c, size, little)) for c in zip(*parts)]
        planes.append([int.from_bytes(b, "little") for b in joined])
    return list(zip(*planes))


def _prefix_rows(prefix: Sequence[Triangulation], row_of: list[int]):
    """Per prefix cell (a cell of every player but the last), in
    lexicographic order, the row numbers of its vertex tuples, row-major.
    The vertex tuples of the outer players' (all but the last prefix
    player's) cells are numbered once; each numbers a block of
    ``row_of``, which the last prefix player's cell indexes."""
    if not prefix:  # one player: one empty prefix cell, one row
        yield row_of
        return
    *outer, inner = prefix
    tuples: list = [(0,)]
    for j, tri in enumerate(outer):
        step = math.prod(len(t.numerators) for t in outer[j + 1 :])
        tuples = [
            [a + v * step for a in numbers for v in cell]
            for numbers in tuples
            for cell in tri.cells
        ]
    size = len(inner.numerators)
    blocks = [row_of[k : k + size] for k in range(0, len(row_of), size)]
    for numbers in tuples:
        # two players: one block, row_of itself, read at the cell's vertices
        picked = [blocks[a] for a in numbers]
        yield from ([b[v] for b in picked for v in cell] for cell in inner.cells)


def representative(cert: PreEquilibriumCert) -> MixedProfile:
    """Barycenter of the cell: per player, the average of the factor
    cell's vertices, exact.  Each player's vertex numerators are summed
    as integers over ``m * (d + 1)`` and reduced once."""
    return _profile(*zip(*map(_reduced, *_barycenter(cert.cell))))


def _barycenter(cell: ProductCell) -> tuple[list, list]:
    # per player, the vertex numerators summed, over m * (d + 1) unreduced
    sums = [[sum(column) for column in zip(*rows)] for rows, _ in cell.lattice]
    return sums, [m * len(rows) for rows, m in cell.lattice]


def _lifted_total(game: Game, cert: PreEquilibriumCert) -> int:
    # the barycenter's total gain times lcm(payoff scales) * prod(m * (d + 1)),
    # one factor for every certificate of a stage
    return sum(_lifted_gains(game, _rows(game, *_barycenter(cert.cell))))


def classify_cell(game: Game, cell: ProductCell) -> CellClassification:
    """Evaluate the ``up`` flags at the vertex profiles and report which
    case holds.  Diagnostics only — the search never branches on this.

    The flags are :func:`~cellnash.game.gain_table`'s, read off the lifted
    best gains of the cell's lattice numerators over each grid's ``m``,
    unreduced: that scales every player's gains by one positive factor,
    so no flag changes.  Vertex profiles are read in order until every
    player has a witness, the first profile where that player is not up,
    and only the witnesses become profiles; a player left without one is
    up everywhere, and the lowest such player is reported.  A cell whose
    strategy counts are not the game's is a :class:`DimensionMismatch`."""
    shape = tuple(len(rows[0]) for rows, _ in cell.lattice)
    if shape != game.shape:
        raise DimensionMismatch(f"cell of shape {shape} for a game of shape {game.shape}")
    dens = [m for _, m in cell.lattice]
    witnesses: list[Optional[tuple]] = [None] * game.num_players
    for rows in itertools.product(*(rows for rows, _ in cell.lattice)):
        lifted = _lifted_gains(game, _rows(game, rows, dens))
        for i, up in enumerate(up_flags(lifted, sum(lifted))):
            if not up and witnesses[i] is None:
                witnesses[i] = rows
        if None not in witnesses:
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
            # the least total gain; min keeps the first on ties
            cert = certs[0]
            if len(certs) > 1:
                cert = min(certs, key=partial(_lifted_total, game))
            final_profile = representative(cert)
            final_table = gain_table(game, final_profile)
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
