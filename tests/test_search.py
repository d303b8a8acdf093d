"""Certificate scan, cell classification, and the refinement loop."""

import collections
import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from cellnash import (
    Game,
    MixedProfile,
    PureProfile,
    classify_cell,
    errors,
    find_pre_equilibria,
    game as game_module,
    gain_table,
    grid_labels,
    labeling,
    max_regret,
    player_triangulations,
    representative,
    root_label,
    serialize_game,
    solve,
)
from cellnash import cli, report_json, subdivision
from cellnash import search as search_module
from cellnash.search import (
    PLAYER_UP_EVERYWHERE,
    SOME_PLAYER_NOT_UP,
    PreEquilibriumCert,
    default_budget,
    scan_cells,
)
from cellnash.subdivision import ProductCell, build_product_cell, cell_diameter

from conftest import (
    BATTLE_OF_SEXES,
    MATCHING_PENNIES,
    PRISONERS_DILEMMA,
    FIXTURE_SEED,
    as_float_game,
    count_calls,
    fixture_suite,
    label_corpus,
    make_game,
    mismatched_grids,
    payoff_range,
    random_game,
)
from grid_reference import (
    product_cells,
    reference_cell_diameter,
    reference_classification,
    reference_representative,
)

UNIFORM_2X2 = MixedProfile(
    ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
)

# player-2 payoffs tie along a boundary edge, which pins duplicate labels
# onto every candidate cell; no resolution ever certifies this game
BOUNDARY_TIE_GAME = Game(
    strategy_names=(("x", "y"), ("x", "y")),
    payoffs=((5, 0, -3, 0), (-4, 0, -5, 0)),
    name="boundary-tie",
)


def reference_scan(game, resolutions):
    """The scan as it was before grid labeling: one memoized ``root_label``
    call per vertex profile a cell reaches, keyed by vertex indices."""
    tris = player_triangulations(game, resolutions)
    vertices = [t.vertices for t in tris]
    pure = [
        PureProfile(choices)
        for choices in itertools.product(*(range(count) for count in game.shape))
    ]
    memo = {}

    def label_id(key):
        if key not in memo:
            profile = MixedProfile(tuple(vertices[j][v] for j, v in enumerate(key)))
            memo[key] = game.flat_index(root_label(game, profile).choices)
        return memo[key]

    certs = []
    cells_per_player = [t.cells for t in tris]
    for factor in itertools.product(*(range(len(c)) for c in cells_per_player)):
        seen = 0
        read = []
        for key in itertools.product(
            *(cells_per_player[j][c] for j, c in enumerate(factor))
        ):
            flat = label_id(key)
            if seen & (1 << flat):
                break
            seen |= 1 << flat
            read.append(flat)
        else:
            certs.append(
                PreEquilibriumCert(
                    cell=build_product_cell(tris, factor),
                    labels=tuple(pure[flat] for flat in read),
                    resolutions=tuple(t.resolution for t in tris),
                )
            )
    return certs


@pytest.mark.parametrize("payoffs", ["rational", "float"])
def test_scan_matches_reference_scan(payoffs):
    for game, m in label_corpus():
        if payoffs == "float":
            game = as_float_game(game)
        assert find_pre_equilibria(game, m) == reference_scan(game, m), (
            game.name,
            m,
        )


# (shape, m, draw[, rank]): the game is the draw-th random game of that
# shape from Random(FIXTURE_SEED); each case has at least one certificate.
# A rank adds rank * s_i to player i's payoff at every pure combination:
# with rank 11 against payoffs in -5..5 each player's deviation payoffs
# rise with the strategy index, so its label is its vertex's lowest
# supported strategy, and a product cell certifies when every factor's
# vertices have distinct lowest strategies.  Random games with more than
# 64 pure combinations were not seen to certify at a grid the tests can
# afford.
MASK_WALK_CASES = {
    "3x1": ((3, 1), 4, 0),
    "1x3": ((1, 3), 4, 0),
    "2x1x2": ((2, 1, 2), 4, 0),
    "1": ((1,), 3, 0),
    "3x3-m16": ((3, 3), 16, 1),
    "2x2x2-m8": ((2, 2, 2), 8, 7),
    "volume-check-2": ((2,), 8, 0),
    "volume-check-3": ((3,), 4, 0),
    # the certificate's label row recurs at four other vertex tuples, so
    # the walk reads a row that several tuples share
    "4x4-m4-shared-row": ((4, 4), 4, 2),
    "5x5-m3": ((5, 5), 3, 5),
    # four players: three outer prefix players number the vertex tuples
    "2x2x2x2-m3": ((2, 2, 2, 2), 3, 0),
    # more than 64 labels, so label sets pass one machine word
    "3x3x3x3-m2-ranked": ((3, 3, 3, 3), 2, 0, 11),
    "9x8-m2-ranked": ((9, 8), 2, 0, 11),
    # a long one-dimensional last grid, 256 cells
    "2x2-m256": ((2, 2), 256, 0),
}


@pytest.mark.parametrize("case", sorted(MASK_WALK_CASES))
def test_mask_walk_matches_reference_scan(case, monkeypatch, tmp_path, capsys):
    # one-strategy players (one cell of one vertex), an empty prefix, and
    # the one-player scan that volume-check runs on its own triangulation
    game, m = _mask_walk_game(case)
    expected = reference_scan(game, m)
    assert expected
    if case.startswith("volume-check"):
        path = tmp_path / "game.json"
        path.write_text(serialize_game(game))
        scans = []

        def scan(*args):
            scans.append(scan_cells(*args))
            return scans[-1]

        monkeypatch.setattr(cli, "scan_cells", scan)
        cli.run_cli(["volume-check", str(path), "--m", str(m)])
        capsys.readouterr()
        assert scans == [expected]
    else:
        assert find_pre_equilibria(game, m) == expected
        # both plane layouts, with star windows of 8 cells, several on most
        # last grids here (grids built anew derive their stars so): from
        # stars, and, on grids longer than a window, straight from the cells
        monkeypatch.setattr(subdivision, "_grids", {})
        monkeypatch.setattr(subdivision, "STAR_WINDOW", 3)
        monkeypatch.setattr(search_module, "STAR_WINDOW", 3)
        for direct in (0, math.inf):
            monkeypatch.setattr(search_module, "DIRECT_PLANES", direct)
            assert find_pre_equilibria(game, m) == expected


@pytest.mark.parametrize(
    "shape, m",
    [((2,), 1000), ((3,), 40), ((2, 3), 20), ((2, 2, 2), (3, 3, 300)), ((1, 4), 9)],
)
def test_planes_from_cells_match_planes_from_stars(shape, m):
    # long last grids, several star windows each, read at one or more rows
    game = random_game(random.Random(FIXTURE_SEED), shape)
    tris = player_triangulations(game, m)
    last = tris[-1]
    rows, _ = labeling.label_rows(game, tris)
    count = math.prod(shape)
    planes = search_module._planes_from_stars(rows, last.stars, count)
    assert len(last.stars.vertices) > 1
    assert search_module._planes_from_cells(rows, last, count) == planes
    # a plane's bit is a cell with a vertex of its label in its row
    for label, plane in enumerate(planes):
        for row, bits in zip(rows, plane):
            held = [c for c, cell in enumerate(last.cells) if label in [row[v] for v in cell]]
            assert bits == sum(1 << c for c in held)


def test_only_a_scan_at_many_rows_derives_a_long_grids_stars(monkeypatch):
    monkeypatch.setattr(subdivision, "_grids", {})
    # one row, two labels: the planes come straight from the cells
    game = random_game(random.Random(FIXTURE_SEED), (2,))
    tris = player_triangulations(game, 1000)
    assert scan_cells(game, tris) == reference_scan(game, 1000)
    assert "stars" not in vars(tris[-1])
    # more rows times labels than DIRECT_PLANES: from the stars
    game = random_game(random.Random(FIXTURE_SEED), (3, 3))
    tris = player_triangulations(game, (2, 24))
    assert len(labeling.label_rows(game, tris)[0]) * 9 > search_module.DIRECT_PLANES
    assert scan_cells(game, tris) == reference_scan(game, (2, 24))
    assert "stars" in vars(tris[-1])


def _mask_walk_game(case):
    shape, m, draw, *rank = MASK_WALK_CASES[case]
    rng = random.Random(FIXTURE_SEED)
    for _ in range(draw + 1):
        game = random_game(rng, shape)
    if rank:
        combos = list(itertools.product(*map(range, shape)))
        payoffs = tuple(
            tuple(u + rank[0] * pure[i] for u, pure in zip(game.payoffs[i], combos))
            for i in range(len(shape))
        )
        game = make_game(shape, payoffs)
    return game, m


def test_warm_grid_memo_changes_nothing(monkeypatch):
    def solved(game):
        try:
            return report_json(solve(game, Fraction(1, 10)), game)
        except errors.NoPreEquilibriumFound as error:
            return str(error)

    def scanned(case):
        game, m = _mask_walk_game(case)
        return scan_cells(game, player_triangulations(game, m))

    jobs = [(solved, game) for game in fixture_suite()]
    jobs += [(scanned, case) for case in sorted(MASK_WALK_CASES)]
    cold = []
    for run, arg in jobs:
        monkeypatch.setattr(subdivision, "_grids", {})
        cold.append(run(arg))
    # warm: grids kept from the jobs before, other shapes' grids in between
    rng = random.Random(FIXTURE_SEED)
    others = [random_game(rng, shape) for shape in ((3, 2), (2, 3, 2), (4,), (1, 3))]
    lookups = count_calls(monkeypatch, subdivision, "_build")
    builds = count_calls(monkeypatch, subdivision, "_kuhn_grid")
    warm = []
    for k, (run, arg) in enumerate(jobs):
        find_pre_equilibria(others[k % len(others)], 1 + k % 5)
        warm.append(run(arg))
    assert warm == cold
    # each grid carries the labeler's form, so a kept grid is a hit for both
    assert len(lookups) - len(builds) > len(jobs)


def test_shared_row_case_reads_a_shared_row():
    game, m = _mask_walk_game("4x4-m4-shared-row")
    tris = player_triangulations(game, m)
    _, keys = labeling.label_rows(game, tris)
    (cert,) = find_pre_equilibria(game, m)
    tuples = tris[0].cells[cert.cell.factor[0]]
    assert max(keys.count(keys[v]) for v in tuples) >= 2


@pytest.mark.parametrize("shape, m", [((2, 2), 4), ((3, 3), 3), ((2, 3, 2), 2)])
def test_walk_keeps_cell_order_within_a_prefix_cell(shape, m, monkeypatch):
    # No seeded game was found with two certificates in one prefix cell,
    # so stub labels give many: label each player's vertex k/m by
    # sum(c * k_c) mod (strategy count), which differs along every Kuhn
    # cell, then overwrite the labels of a seeded twentieth of the profiles.
    game = make_game(shape, tuple((0,) * math.prod(shape) for _ in shape))
    tris = player_triangulations(game, m)
    rng = random.Random(FIXTURE_SEED)
    labels = []
    for key in itertools.product(*(t.vertices for t in tris)):
        choices = [int(sum(c * k * m for c, k in enumerate(v))) % len(v) for v in key]
        if rng.random() < 0.05:
            choices = [rng.randrange(len(v)) for v in key]
        labels.append(game.flat_index(choices))
    # the labeler's row form: each distinct row once, so rows stay shared
    width = len(tris[-1].vertices)
    found = {}
    keys = [
        found.setdefault(tuple(labels[s : s + width]), len(found))
        for s in range(0, len(labels), width)
    ]
    rows = list(map(list, found))
    assert len(rows) < len(keys)
    monkeypatch.setattr(search_module, "label_rows", lambda *args: (rows, keys))
    expected = []
    counts = [len(t.vertices) for t in tris]
    for factor in itertools.product(*(range(len(t.cells)) for t in tris)):
        cells = [t.cells[c] for t, c in zip(tris, factor)]
        read = [
            labels[sum(v * math.prod(counts[j + 1 :]) for j, v in enumerate(key))]
            for key in itertools.product(*cells)
        ]
        if len(set(read)) == len(read):
            expected.append((factor, tuple(read)))
    got = [
        (cert.cell.factor, tuple(map(game.flat_index, (p.choices for p in cert.labels))))
        for cert in scan_cells(game, tris)
    ]
    assert got == expected
    per_prefix = collections.Counter(factor[:-1] for factor, _ in expected)
    assert max(per_prefix.values()) >= 2
    assert len(expected) < math.prod(len(t.cells) for t in tris)


def test_scan_labels_each_grid_once_per_player(monkeypatch):
    # the labeler sums integer numerators once per player and tuple of
    # the other players' vertices: it builds no validated profile and
    # calls neither deviation_payoffs nor the per-profile root_label
    game = random_game(random.Random(FIXTURE_SEED), (3, 3))
    tris = player_triangulations(game, 8)
    root_calls = count_calls(monkeypatch, labeling, "root_label")
    deviation_calls = count_calls(monkeypatch, game_module, "deviation_payoffs")
    profiles = []
    init = MixedProfile.__post_init__
    monkeypatch.setattr(
        MixedProfile, "__post_init__", lambda self: profiles.append(self) or init(self)
    )
    labels = grid_labels(game, tris)
    assert (root_calls, deviation_calls, profiles) == ([], [], [])
    assert len(labels) == math.comb(8 + 2, 2) ** 2


@pytest.mark.parametrize("case", range(len(mismatched_grids())))
def test_scan_refuses_mismatched_triangulations(case):
    game, tris = mismatched_grids()[case]
    with pytest.raises(errors.DimensionMismatch):
        scan_cells(game, tris)


@pytest.mark.parametrize("case", range(len(mismatched_grids())))
def test_classify_refuses_a_cell_of_another_shape(case):
    game, tris = mismatched_grids()[case]
    cell = build_product_cell(tris, (0,) * len(tris))
    with pytest.raises(errors.DimensionMismatch):
        classify_cell(game, cell)


def test_full_cell_at_m1_is_always_a_cert(mp, pd, bos):
    # pure vertex profiles label themselves, giving the identity bijection
    for game in (mp, pd, bos):
        certs = find_pre_equilibria(game, 1)
        assert len(certs) == 1
        labels = {label.choices for label in certs[0].labels}
        assert len(labels) == 4


def test_cert_labels_form_bijection(rps):
    for cert in find_pre_equilibria(rps, 4):
        seen = {label.choices for label in cert.labels}
        assert len(seen) == len(cert.labels) == 9


def test_two_interval_grid_misses_matching_pennies(mp):
    # the equilibrium sits exactly on the single interior lattice point;
    # forced boundary labels duplicate inside every one of the 4 cells
    assert find_pre_equilibria(mp, 2) == []


def test_matching_pennies_certifies_at_m4(mp):
    certs = find_pre_equilibria(mp, 4)
    assert len(certs) == 1
    rep = representative(certs[0])
    assert rep.dist == (
        (Fraction(3, 8), Fraction(5, 8)),
        (Fraction(5, 8), Fraction(3, 8)),
    )
    # the cert cell straddles the uniform equilibrium in each coordinate
    for vertex_group in certs[0].cell.factor_vertices:
        weights = sorted(v[0] for v in vertex_group)
        assert weights[0] <= Fraction(1, 2) <= weights[-1]


def test_one_player_cert_example():
    game = make_game((2,), ((0, 1),))
    certs = find_pre_equilibria(game, 4)
    assert len(certs) == 1
    label_set = {label.choices for label in certs[0].labels}
    assert label_set == {(0,), (1,)}
    assert representative(certs[0]).dist == ((Fraction(1, 8), Fraction(7, 8)),)


def test_m1_representative_is_uniform(mp):
    cert = find_pre_equilibria(mp, 1)[0]
    assert representative(cert).dist == UNIFORM_2X2.dist


def test_boundary_tie_game_never_certifies():
    for m in (2, 4, 8, 16):
        assert find_pre_equilibria(BOUNDARY_TIE_GAME, m) == []


def test_budget_exceeded_upfront(mp):
    with pytest.raises(errors.BudgetExceeded):
        find_pre_equilibria(mp, 8, budget=10)


def test_budget_env_override(mp, monkeypatch):
    monkeypatch.setenv("NASH_BUDGET", "10")
    assert default_budget() == 10
    with pytest.raises(errors.BudgetExceeded):
        find_pre_equilibria(mp, 8)


def test_budget_env_rejects_garbage(monkeypatch):
    monkeypatch.setenv("NASH_BUDGET", "lots")
    with pytest.raises(errors.ParameterOutOfRange):
        default_budget()
    monkeypatch.setenv("NASH_BUDGET", "0")
    with pytest.raises(errors.ParameterOutOfRange):
        default_budget()


def test_classify_full_cell_prisoners_dilemma(pd):
    # at (D,D) the gain total is zero, so nobody can hold a large share
    cell = next(product_cells(pd, 1))
    result = classify_cell(pd, cell)
    assert result.case == SOME_PLAYER_NOT_UP
    assert len(result.witnesses) == 2
    for i, witness in enumerate(result.witnesses):
        assert not gain_table(pd, witness).up[i]


def test_classify_corner_cell_matching_pennies(mp):
    # near (H,H) player 2 keeps a gain close to 2 against a small total
    corner = None
    for cell in product_cells(mp, 8):
        if all(
            all(v[0] >= Fraction(7, 8) for v in group)
            for group in cell.factor_vertices
        ):
            corner = cell
            break
    result = classify_cell(mp, corner)
    assert result.case == PLAYER_UP_EVERYWHERE
    assert result.player == 1


def test_classify_zero_game_cell():
    game = make_game((2, 2), ((0,) * 4, (0,) * 4))
    cell = next(product_cells(game, 2))
    result = classify_cell(game, cell)
    assert result.case == SOME_PLAYER_NOT_UP


def test_solve_matching_pennies_converges(mp):
    report = solve(mp, Fraction(1, 10), m0=2)
    assert report.converged
    assert len(report.stages) == 4
    assert report.stages[0].pre_equilibria_found == 0
    assert report.final_max_regret == Fraction(17, 256)
    assert report.final_max_regret <= Fraction(1, 10)
    m_final = report.stages[-1].resolutions[0]
    assert m_final == 16
    for vector, eq_vector in zip(report.final_profile.dist, UNIFORM_2X2.dist):
        for got, want in zip(vector, eq_vector):
            assert abs(got - want) <= Fraction(2, m_final)


def test_solve_skips_empty_stage_and_recovers(mp):
    report = solve(mp, Fraction(1, 10), m0=2)
    empty = report.stages[0]
    assert empty.resolutions == (2, 2)
    assert empty.chosen_cell is None
    assert empty.representative is None
    assert empty.cells_scanned == 4
    assert report.stages[1].pre_equilibria_found == 1


def test_solve_prisoners_dilemma(pd):
    report = solve(pd, Fraction(1, 2), m0=2)
    assert report.converged
    assert len(report.stages) == 1
    assert report.final_max_regret == Fraction(5, 16)
    assert report.final_profile.dist == (
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 4), Fraction(3, 4)),
    )


def test_solve_battle_of_sexes_picks_least_total_gain(bos):
    # three certs at m=4; the one around the mixed equilibrium wins
    report = solve(bos, Fraction(1, 5), m0=2)
    assert report.converged
    assert len(report.stages) == 2
    assert report.stages[1].pre_equilibria_found == 3
    assert report.final_profile.dist == (
        (Fraction(5, 8), Fraction(3, 8)),
        (Fraction(3, 8), Fraction(5, 8)),
    )
    assert report.final_max_regret == Fraction(3, 64)


def test_solve_rock_paper_scissors_immediately_exact(rps):
    report = solve(rps, Fraction(1, 5), m0=2)
    assert report.converged
    assert len(report.stages) == 1
    assert report.final_max_regret == 0
    assert report.final_profile.dist == (
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    ) * 2


def test_solve_raises_when_every_stage_is_empty():
    with pytest.raises(errors.NoPreEquilibriumFound) as info:
        solve(BOUNDARY_TIE_GAME, Fraction(1, 10), m0=2, max_stages=6)
    exc = info.value
    assert len(exc.resolutions_tried) == 6
    assert exc.resolutions_tried[0] == [2, 2]
    assert exc.resolutions_tried[-1] == [64, 64]
    assert exc.cells_scanned == 4 + 16 + 64 + 256 + 1024 + 4096


# 3x3 at m=64 needs 64**4 = 16,777,216 product cells, past the default
# budget, so solve's sixth stage is refused
LADDER_GAME = make_game(
    (3, 3), ((4, -1, 0, 5, 3, -5, 2, -2, 5), (-5, -3, -4, 0, 2, -2, 1, 3, -4))
)


def test_a_refused_later_stage_ends_the_ladder(monkeypatch):
    monkeypatch.delenv("NASH_BUDGET", raising=False)
    report = solve(LADDER_GAME, 0)
    assert [s.resolutions for s in report.stages] == [(m, m) for m in (2, 4, 8, 16, 32)]
    assert not report.converged
    assert report.final_max_regret == report.stages[-1].max_regret == Fraction(835, 9216)
    # the same report as a ladder that stops at m=32 by itself
    five = solve(LADDER_GAME, 0, max_stages=5)
    assert report_json(report, LADDER_GAME) == report_json(five, LADDER_GAME)
    # a ladder whose stages all came up empty still raises; m=4 needs 25
    # vertex profiles, past a budget of 9
    with pytest.raises(errors.NoPreEquilibriumFound) as info:
        solve(MATCHING_PENNIES, 0, budget=9)
    assert info.value.resolutions_tried == [[2, 2]]


def test_solve_tie_on_total_gain_keeps_first_cell():
    # the three certificates of this coordination game tie at total 3/16;
    # the first in lexicographic cell order is the one reported
    game = make_game((2, 2), ((1, 0, 0, 1), (1, 0, 0, 1)))
    certs = find_pre_equilibria(game, 4)
    assert [c.cell.factor for c in certs] == [(0, 0), (2, 2), (3, 3)]
    assert {gain_table(game, representative(c)).total for c in certs} == {
        Fraction(3, 16)
    }
    report = solve(game, 0, m0=4, max_stages=1)
    assert report.stages[0].chosen_cell == (0, 0)
    assert report.stages[0].total_gain == Fraction(3, 16)


def reference_pick(game, certs):
    """The pick as it was before the lifted totals: the first certificate
    whose barycenter's gain table has the least total."""
    return min(certs, key=lambda c: gain_table(game, representative(c)).total)


def scaled_games():
    """Games whose players' payoffs sit on different scales: player 0's
    over 3 and player 1's over 7 as Fractions, and over 2 and 8 as floats.
    On the two 2x3 games some stages would pick another certificate if
    each player's gains were summed on their own scale."""
    games = []
    for base in (
        BATTLE_OF_SEXES,
        make_game((2, 3), ((0, 4, 4, 5, -2, -3), (-5, -2, -5, 3, -5, -2))),
        make_game((2, 3), ((-2, 0, 2, -3, 3, 0), (-3, -1, 1, 3, 5, 3))),
    ):
        p0, p1 = base.payoffs
        scales = (("fraction", (Fraction(1, 3), Fraction(1, 7))), ("float", (0.5, 0.125)))
        for kind, (a, b) in scales:
            game = make_game(
                base.shape,
                (tuple(v * a for v in p0), tuple(v * b for v in p1)),
                name=f"{base.name}-scaled-{kind}",
            )
            assert game.payoff_scales == ((3, 7) if kind == "fraction" else (2, 8))
            games.append(game)
    return games


def test_solve_picks_the_certificate_the_gain_tables_pick():
    picks = collections.Counter()
    for game in fixture_suite() + scaled_games():
        for m in (2, 4, 8):
            certs = find_pre_equilibria(game, m)
            if not certs:
                continue
            expected = reference_pick(game, certs).cell.factor
            stage = solve(game, 0, m0=m, max_stages=1).stages[0]
            assert stage.chosen_cell == expected, (game.name, m)
            picks["scaled" in game.name, expected != certs[0].cell.factor] += 1
    # some picks are not the first certificate, on both kinds of game
    assert picks[False, True] >= 4 and picks[True, True] >= 4


def test_solve_builds_one_gain_table_per_stage_with_certificates(monkeypatch):
    tables = count_calls(monkeypatch, game_module, "gain_table")
    reps = count_calls(monkeypatch, search_module, "representative")
    stages = 0
    for game in fixture_suite() + scaled_games():
        try:
            report = solve(game, 0, m0=2, max_stages=4)
        except errors.NoPreEquilibriumFound:
            continue
        stages += sum(1 for s in report.stages if s.pre_equilibria_found)
    assert len(tables) == len(reps) == stages > 40


def test_solve_carries_last_certificate_over_empty_stages():
    # certifies once at m=1; the stages at m=2 and m=4 come up empty
    report = solve(BOUNDARY_TIE_GAME, 0, m0=1, max_stages=3)
    assert [s.pre_equilibria_found for s in report.stages] == [1, 0, 0]
    assert not report.converged
    assert report.final_profile == report.stages[0].representative
    assert report.final_max_regret == Fraction(9, 4)
    # the table carried from the stage that chose the profile
    final = gain_table(BOUNDARY_TIE_GAME, report.final_profile)
    assert report.final_gain_table == final


def test_solve_validates_parameters(mp):
    with pytest.raises(errors.NegativeEpsilon):
        solve(mp, Fraction(-1, 10))
    with pytest.raises(errors.ResolutionZero):
        solve(mp, Fraction(1, 10), m0=0)
    with pytest.raises(errors.ParameterOutOfRange):
        solve(mp, Fraction(1, 10), refine_factor=1)
    with pytest.raises(errors.ParameterOutOfRange):
        solve(mp, Fraction(1, 10), max_stages=0)
    # a NaN or infinite float target has no exact value for the report
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(errors.ParameterOutOfRange, match="eps target .* is not finite"):
            solve(mp, bad)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        pytest.param({"max_stages": 2.5}, "max stages 2.5 is not an integer", id="max_stages"),
        pytest.param({"m0": "2"}, "resolution '2' is not an integer", id="m0"),
        pytest.param({"budget": "x"}, "budget 'x' is not an integer", id="budget"),
        # bool is an int to Python, not a resolution or a count
        pytest.param({"m0": True}, "resolution True is not an integer", id="m0-bool"),
        pytest.param(
            {"refine_factor": True}, "refine factor True is not an integer", id="refine-bool"
        ),
        pytest.param({"max_stages": True}, "max stages True is not an integer", id="stages-bool"),
        pytest.param({"budget": True}, "budget True is not an integer", id="budget-bool"),
    ],
)
def test_solve_rejects_non_integer_parameters(mp, kwargs, message):
    with pytest.raises(errors.ParameterOutOfRange) as info:
        solve(mp, Fraction(1, 10), **kwargs)
    assert str(info.value) == message


def test_solve_one_player_regret_halves_per_stage():
    game = make_game((2,), ((0, 1),))
    report = solve(game, 0, m0=2, max_stages=4)
    assert not report.converged
    regrets = [s.max_regret for s in report.stages]
    assert regrets == [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]


def test_regret_shrinks_across_stages():
    # drive all six stages (eps 0 is unreachable here) and track regret;
    # a 10% violation allowance matches the coarse-grid wobble
    transitions = 0
    violations = 0
    for game in (MATCHING_PENNIES, PRISONERS_DILEMMA, BATTLE_OF_SEXES):
        report = solve(game, 0, m0=2, max_stages=6)
        assert not report.converged
        regrets = [
            s.max_regret for s in report.stages if s.max_regret is not None
        ]
        for before, after in zip(regrets, regrets[1:]):
            transitions += 1
            if after > before:
                violations += 1
        assert report.stages[-1].resolutions == (64, 64)
        bound = Fraction(payoff_range(game), 10)
        assert report.final_max_regret <= bound
    assert violations * 10 <= transitions


def test_final_gain_table_recomputed_from_profile(mp):
    report = solve(mp, Fraction(1, 10), m0=2)
    table = gain_table(mp, report.final_profile)
    assert table == report.final_gain_table
    assert max(table.best) == report.final_max_regret
    assert max_regret(mp, report.final_profile) == report.final_max_regret


def assert_same_profile(fast, slow):
    """Equal values, entry types and integer forms."""
    assert fast == slow
    assert [list(map(type, v)) for v in fast.dist] == [
        list(map(type, v)) for v in slow.dist
    ]
    assert fast.numerators == slow.numerators
    assert fast.denominators == slow.denominators


def assert_cell_values_match_references(game, cell):
    cert = PreEquilibriumCert(cell=cell, labels=(), resolutions=())
    assert_same_profile(representative(cert), reference_representative(cell))
    assert cell_diameter(cell) == reference_cell_diameter(cell)
    found = classify_cell(game, cell)
    witnesses = found.witnesses and tuple(w.dist for w in found.witnesses)
    assert (found.case, witnesses, found.player) == reference_classification(game, cell)


def test_certificate_values_match_their_fraction_formulas():
    # barycenters, diameters and up flags run on the grids' integers
    certs = 0
    for game, m in label_corpus():
        for cert in find_pre_equilibria(game, m):
            assert_cell_values_match_references(game, cert.cell)
            certs += 1
    assert certs > 150


def test_classification_matches_its_reference_on_every_product_cell():
    # certificates alone seldom reach the up-everywhere case or wide payoffs
    cases = collections.Counter()
    for game, m in label_corpus():
        if m > 3:
            continue
        for cell in product_cells(game, m):
            found = classify_cell(game, cell)
            witnesses = found.witnesses and tuple(w.dist for w in found.witnesses)
            expected = reference_classification(game, cell)
            assert (found.case, witnesses, found.player) == expected
            if found.witnesses:
                for witness, dist in zip(found.witnesses, expected[1]):
                    assert_same_profile(witness, MixedProfile(dist))
            cases[found.case, "wide" in game.name] += 1
    assert sum(cases.values()) > 1300
    assert cases[PLAYER_UP_EVERYWHERE, False] > 500
    assert cases[PLAYER_UP_EVERYWHERE, True] > 0 and cases[SOME_PLAYER_NOT_UP, True] > 0


@pytest.mark.parametrize("resolutions", [(2, 3), (4, 8), (3, 1)])
def test_cell_values_match_their_fraction_formulas_across_resolutions(resolutions):
    # each factor is averaged over its own resolution, and the squared
    # diameters over different resolutions are summed exactly
    rng = random.Random(FIXTURE_SEED)
    for shape in ((2, 2), (2, 3), (3, 3)):
        game = random_game(rng, shape)
        for cell in product_cells(game, resolutions):
            assert_cell_values_match_references(game, cell)


def test_a_cell_rebuilt_from_its_fields_is_the_same_cell():
    # factor and lattice are the whole cell: ==, hash and repr read them
    tris = player_triangulations(make_game((3, 2), ((0,) * 6, (0,) * 6)), (4, 6))
    assert [f.name for f in dataclasses.fields(ProductCell)] == ["factor", "lattice"]
    cells = [build_product_cell(tris, f) for f in ((0, 0), (5, 3), (15, 5))]
    assert len(set(cells)) == len(cells)
    for built in cells:
        bare = ProductCell(built.factor, built.lattice)
        assert bare == built and hash(bare) == hash(built)
        assert repr(bare) == repr(built)
        cert = PreEquilibriumCert(cell=bare, labels=(), resolutions=(4, 6))
        assert_same_profile(representative(cert), reference_representative(built))
        assert cell_diameter(bare) == cell_diameter(built)


def test_certificates_make_no_vertex_profiles_until_read(monkeypatch):
    # the scan reads a cell's numerators off the grids; its profiles are
    # made only when something reads them
    made = count_calls(monkeypatch, subdivision, "_profile")
    certs = find_pre_equilibria(BATTLE_OF_SEXES, 4)
    assert certs and made == []
    profiles = certs[0].cell.vertex_profiles
    assert len(made) == len(profiles) == 4
    assert certs[0].cell.vertex_profiles == profiles
