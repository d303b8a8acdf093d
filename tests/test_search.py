"""Certificate scan, cell classification, and the refinement loop."""

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
    labeling,
    max_regret,
    player_triangulations,
    representative,
    root_label,
    scalars,
    solve,
)
from cellnash.search import (
    PLAYER_UP_EVERYWHERE,
    SOME_PLAYER_NOT_UP,
    PreEquilibriumCert,
    default_budget,
)
from cellnash.subdivision import build_product_cell, product_cells

from conftest import (
    BATTLE_OF_SEXES,
    MATCHING_PENNIES,
    PRISONERS_DILEMMA,
    ROCK_PAPER_SCISSORS,
    FIXTURE_SEED,
    as_float_game,
    count_calls,
    label_corpus,
    make_game,
    payoff_range,
    random_game,
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


@pytest.mark.parametrize("mode", [scalars.RATIONAL, scalars.FLOAT])
def test_scan_matches_reference_scan(mode):
    with scalars.numeric_mode(mode):
        for game, m in label_corpus():
            if mode == scalars.FLOAT:
                game = as_float_game(game)
            assert find_pre_equilibria(game, m) == reference_scan(game, m), (
                game.name,
                m,
            )


def test_scan_labels_each_grid_once_per_player(monkeypatch):
    game = random_game(random.Random(FIXTURE_SEED), (3, 3))
    root_calls = count_calls(monkeypatch, labeling, "root_label")
    deviation_calls = count_calls(monkeypatch, game_module, "deviation_payoffs")
    find_pre_equilibria(game, 8)
    assert root_calls == []
    # one deviation vector per player and per vertex of the other player
    vertex_counts = [math.comb(8 + 2, 2)] * 2
    assert len(deviation_calls) <= sum(
        math.prod(vertex_counts[:i] + vertex_counts[i + 1 :]) for i in range(2)
    )


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


def test_solve_validates_parameters(mp):
    with pytest.raises(errors.NegativeEpsilon):
        solve(mp, Fraction(-1, 10))
    with pytest.raises(errors.ResolutionZero):
        solve(mp, Fraction(1, 10), m0=0)
    with pytest.raises(errors.ParameterOutOfRange):
        solve(mp, Fraction(1, 10), refine_factor=1)
    with pytest.raises(errors.ParameterOutOfRange):
        solve(mp, Fraction(1, 10), max_stages=0)


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
    assert table.best == report.final_gain_table.best
    assert max(table.best) == report.final_max_regret
    assert max_regret(mp, report.final_profile) == report.final_max_regret
