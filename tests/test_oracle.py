"""Grid scans, support enumeration, and profile verification."""

import ast
import collections
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from cellnash import (
    MixedProfile,
    PureProfile,
    errors,
    game as game_module,
    gain_table,
    grid_min_regret,
    oracle,
    is_equilibrium,
    linalg,
    solve,
    support_enumeration_2p,
    verify_profile,
)

from conftest import (
    BATTLE_OF_SEXES,
    FIXTURE_SEED,
    MATCHING_PENNIES,
    PRISONERS_DILEMMA,
    as_float_game,
    count_calls,
    fixture_suite,
    make_game,
    random_game,
)
from grid_reference import grid_min_regret_reference
from support_reference import reference_support_enumeration

UNIFORM_2X2 = (
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2)),
)


def test_grid_finds_uniform_equilibrium(mp):
    result = grid_min_regret(mp, 2)
    assert result.max_regret == 0
    assert result.profile.dist == UNIFORM_2X2
    assert result.method == "GRID"


def test_grid_finds_pure_equilibrium(pd):
    for m in (1, 2, 4):
        result = grid_min_regret(pd, m)
        assert result.max_regret == 0
        assert result.profile.dist == ((0, 1), (0, 1))


def test_grid_one_player_maximizer():
    game = make_game((2,), ((0, 1),))
    result = grid_min_regret(game, 4)
    assert result.max_regret == 0
    assert result.profile.dist == ((0, 1),)


def _grid_cases():
    """Every fixture at m = 1, 2, 4, and seeded 3x3, 3-player and
    one-player grids with int, Fraction and float payoffs, some of them
    at a different resolution per player."""
    cases = [(game, m) for game in fixture_suite() for m in (1, 2, 4)]
    rng = random.Random(FIXTURE_SEED)
    for shape, resolutions in (
        ((3, 3), (1, 2, 4, 8, (2, 5))),
        ((3, 2), (3, 6)),
        ((2, 2, 3), (1, 2, 4)),
        ((3, 3, 3), (1, 2, (1, 2, 3))),
        ((4,), (4,)),
    ):
        game = random_game(rng, shape, name="x".join(map(str, shape)), low=-2, high=2)
        payoffs = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in tensor)
            for tensor in game.payoffs
        )
        fraction = make_game(shape, payoffs)
        for variant in (game, fraction, as_float_game(fraction)):
            cases.extend((variant, m) for m in resolutions)
    return cases


def test_grid_scan_matches_per_profile_reference():
    # the shared-row scan against one gain table per lattice profile:
    # the same first minimum and the same regret, value and type
    cases = _grid_cases()
    for game, m in cases:
        result = grid_min_regret(game, m)
        profile, regret = grid_min_regret_reference(game, m)
        assert result.profile == profile, (game.name, m)
        assert result.profile.dist == profile.dist
        # the winner's integer form is read off the grids, as derived
        assert result.profile.numerators == profile.numerators
        assert result.profile.denominators == profile.denominators
        assert result.max_regret == regret and type(result.max_regret) is type(regret)
        assert result.method == "GRID"
    assert len(cases) > 120


def test_grid_scan_builds_one_gain_table(monkeypatch, rps):
    calls = count_calls(monkeypatch, game_module, "gain_table")
    grid_min_regret(rps, 8)
    assert len(calls) == 1


def test_grid_budget(mp):
    with pytest.raises(errors.BudgetExceeded):
        grid_min_regret(mp, 64, budget=100)


def test_support_enumeration_matching_pennies(mp):
    result = support_enumeration_2p(mp)
    assert not result.degenerate
    assert [e.dist for e in result.equilibria] == [UNIFORM_2X2]


def test_support_enumeration_prisoners_dilemma(pd):
    result = support_enumeration_2p(pd)
    assert not result.degenerate
    assert [e.dist for e in result.equilibria] == [((0, 1), (0, 1))]


def test_support_enumeration_battle_of_sexes(bos):
    result = support_enumeration_2p(bos)
    assert not result.degenerate
    dists = [e.dist for e in result.equilibria]
    assert ((1, 0), (1, 0)) in dists
    assert ((0, 1), (0, 1)) in dists
    mixed = (
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
    )
    assert mixed in dists
    assert len(dists) == 3


def test_support_enumeration_flags_degenerate_games():
    # player 2 is indifferent everywhere: a continuum of equilibria
    game = make_game((2, 2), ((1, 0, 0, 0), (0, 0, 0, 0)))
    result = support_enumeration_2p(game)
    assert result.degenerate
    for e in result.equilibria:
        assert is_equilibrium(game, e, 0)


def test_support_enumeration_rejects_three_players():
    game = make_game((2, 2, 2), ((0,) * 8,) * 3)
    with pytest.raises(errors.ParameterOutOfRange):
        support_enumeration_2p(game)


def test_support_enumeration_output_sorted_and_unique():
    rng = random.Random(3)
    for _ in range(25):
        game = random_game(rng, (2, 3))
        result = support_enumeration_2p(game)
        dists = [e.dist for e in result.equilibria]
        assert dists == sorted(dists)
        assert len(set(dists)) == len(dists)


def test_every_enumerated_equilibrium_has_zero_regret():
    rng = random.Random(5)
    for _ in range(40):
        game = random_game(rng, (3, 3))
        for e in support_enumeration_2p(game).equilibria:
            assert gain_table(game, e).total == 0


def test_enumeration_agrees_with_exhaustive_pure_check():
    # pure equilibria found by direct inspection must appear in the output
    rng = random.Random(9)
    for _ in range(40):
        game = random_game(rng, (2, 2))
        enumerated = {
            tuple(tuple(v) for v in e.dist)
            for e in support_enumeration_2p(game).equilibria
        }
        for pure in itertools.product(range(2), range(2)):
            sigma = PureProfile(pure).as_mixed(game)
            if is_equilibrium(game, sigma, 0):
                assert tuple(tuple(v) for v in sigma.dist) in enumerated


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3)])
def test_support_enumeration_ignores_positive_affine_payoff_changes(shape):
    # a positive scale and a shift per player keep every best response
    # and every indifference system's solutions: same equilibria, in the
    # same order, and the same degeneracy flag
    rng = random.Random(1931 + shape[1] * shape[0])
    size = shape[0] * shape[1]
    degenerate = 0
    for _ in range(60):
        payoffs = [
            [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))) for _ in range(size)]
            for _ in range(2)
        ]
        moved = []
        for tensor in payoffs:
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 7))
            shift = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            moved.append(tuple(scale * v + shift for v in tensor))
        before = support_enumeration_2p(make_game(shape, tuple(map(tuple, payoffs))))
        after = support_enumeration_2p(make_game(shape, tuple(moved)))
        assert [e.dist for e in after.equilibria] == [e.dist for e in before.equilibria]
        assert after.degenerate == before.degenerate
        degenerate += before.degenerate
    assert degenerate > 0  # the draw reaches the singular systems too


def test_float_support_enumeration_matches_rational_on_fixtures():
    # float payoffs enter the best-response check through their exact
    # values, so a mixed equilibrium such as random-2x2-10's
    # ((1/2, 1/2), (4/7, 3/7)) is not lost to rounding
    for game in fixture_suite():
        if game.num_players != 2:
            continue
        exact = support_enumeration_2p(game)
        floated = support_enumeration_2p(as_float_game(game))
        assert [e.dist for e in floated.equilibria] == [e.dist for e in exact.equilibria], game.name
        assert floated.degenerate == exact.degenerate, game.name


def _typed(result):
    return [
        [[(v, type(v)) for v in vec] for vec in e.dist] for e in result.equilibria
    ]


def _payoff_draws(shape, count, kind):
    size = shape[0] * shape[1]
    if kind == "all":
        # every game with payoffs in {-1, 0, 1}
        tensors = list(itertools.product((-1, 0, 1), repeat=size))
        yield from itertools.product(tensors, repeat=2)
        return
    rng = random.Random(7741 + 13 * shape[0] + shape[1])
    for _ in range(count):
        if kind is int:
            yield [[rng.randint(-2, 2) for _ in range(size)] for _ in range(2)]
        elif kind is Fraction:
            yield [
                [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(size)]
                for _ in range(2)
            ]
        else:
            yield [[rng.randint(-4, 4) / 4 for _ in range(size)] for _ in range(2)]


def _assert_forms_as_derived(result):
    # each equilibrium is handed the reduced integer form of its mixtures;
    # it must be the one MixedProfile derives from the same entries
    for sigma in result.equilibria:
        fresh = MixedProfile(sigma.dist)
        assert sigma.numerators == fresh.numerators, sigma
        assert sigma.denominators == fresh.denominators, sigma


@pytest.mark.parametrize(
    "shape, count, kind",
    [
        pytest.param((2, 2), 240, int, id="2x2"),
        pytest.param((2, 2), None, "all", id="2x2-all"),
        pytest.param((2, 3), 150, int, id="2x3"),
        pytest.param((3, 3), 100, int, id="3x3"),
        pytest.param((3, 4), 50, int, id="3x4"),
        pytest.param((4, 4), 30, int, id="4x4"),
        pytest.param((1, 1), 20, int, id="1x1"),
        pytest.param((1, 3), 60, int, id="1x3"),
        pytest.param((3, 1), 60, int, id="3x1"),
        pytest.param((2, 5), 60, int, id="2x5"),
        pytest.param((2, 3), 80, Fraction, id="2x3-fraction"),
        pytest.param((3, 3), 50, float, id="3x3-float"),
    ],
)
def test_support_enumeration_matches_pairwise_reference(shape, count, kind):
    # pure best replies for the singleton-side pairs and pruned candidates
    # for the rest decide exactly what the plain enumeration over every
    # support pair decides: the same equilibria, order and value types,
    # and the same degeneracy flag
    degenerate = 0
    for payoffs in _payoff_draws(shape, count, kind):
        game = make_game(shape, tuple(map(tuple, payoffs)))
        expected = reference_support_enumeration(game)
        result = support_enumeration_2p(game)
        assert _typed(result) == _typed(expected), payoffs
        assert result.degenerate == expected.degenerate, payoffs
        _assert_forms_as_derived(result)
        degenerate += expected.degenerate
    if shape != (1, 1):  # a 1x1 game has no tie to flag
        assert degenerate > 0  # the draw reaches the singular systems too


F = Fraction
# a 3x3 coordination game whose full-support equilibrium has weights
# 1/6, 1/10 and 11/15: pivot denominators 6, 10 and 15, whose lcm 30 is
# neither their largest nor their product
UNEQUAL = (66, 0, 0, 0, 110, 0, 0, 0, 15)


@pytest.mark.parametrize(
    "shape, payoffs, present",
    [
        # the first indifference row starts with -1, a negative pivot
        pytest.param(
            (2, 2), ((-1, 1, 1, -1), (1, -1, -1, 1)), ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
            id="negative-pivot",
        ),
        # the full-support systems solve to q = (1, 0) and p = (1, 0), a
        # weight of Fraction 0 inside each support; the profile equals the
        # pure equilibrium (0, 0), which keeps its int entries
        pytest.param(
            (2, 2), ((1, 0, 1, 2), (1, 1, 0, 2)), ((1, 0), (1, 0)), id="boundary-mixture"
        ),
        pytest.param(
            (3, 3), (UNEQUAL, UNEQUAL), ((F(1, 6), F(1, 10), F(11, 15)),) * 2,
            id="3x3-unequal-denominators",
        ),
        # player 1 is indifferent: the q system is singular, and its family
        # ends, Fraction 0 and 1 inside the support, are equilibria
        pytest.param(
            (2, 2), ((-1,) * 4, (-1, 0, 1, -1)), ((F(2, 3), F(1, 3)), (F(0), F(1))),
            id="singular",
        ),
    ],
)
def test_targeted_systems_match_the_reference(shape, payoffs, present):
    game = make_game(shape, payoffs)
    result = support_enumeration_2p(game)
    expected = reference_support_enumeration(game)
    assert _typed(result) == _typed(expected)
    assert result.degenerate == expected.degenerate
    _assert_forms_as_derived(result)
    typed = [[(v, type(v)) for v in vec] for vec in present]
    assert typed in _typed(result)


def test_exhaustive_2x2_eliminates_each_system_once(monkeypatch):
    # every game with payoffs in {-1, 0, 1}: each indifference system goes
    # through the integer core once, a singular one is read once off the
    # same rows, and the Fraction wrapper is never called
    outcomes = collections.Counter()
    eliminate = oracle.eliminate

    def counted(aug):
        pivots = eliminate(aug)
        regular = pivots is not None and len(pivots) == len(aug[0]) - 1
        outcomes["inconsistent" if pivots is None else "regular" if regular else "singular"] += 1
        return pivots

    monkeypatch.setattr(oracle, "eliminate", counted)
    readings = count_calls(monkeypatch, linalg, "affine_solution")
    wrapper = count_calls(monkeypatch, linalg, "solve_affine")
    for u1, u2 in itertools.product(itertools.product((-1, 0, 1), repeat=4), repeat=2):
        support_enumeration_2p(make_game((2, 2), (u1, u2)))
    assert sum(outcomes.values()) == 11_664
    assert outcomes == {"regular": 8_928, "singular": 1_296, "inconsistent": 1_440}
    assert len(readings) == 1_296 and wrapper == []


@pytest.mark.parametrize(
    "u1, u2, degenerate",
    [
        # player 2 plays column 0 strictly; player 1 ties against it
        pytest.param((0, 1, 0, 0), (1, 0, 1, 0), True, id="row-tie"),
        # player 1 plays row 0 strictly; player 2 ties against it
        pytest.param((1, 1, 0, 0), (0, 0, 1, 0), True, id="column-tie"),
        # a prisoner's dilemma: its one equilibrium is strict
        pytest.param((2, 0, 3, 1), (2, 3, 0, 1), False, id="strict"),
    ],
)
def test_pure_equilibrium_ties_flag_degenerate(u1, u2, degenerate):
    # no mixed support pair of these games has a solution, so the flag
    # comes from the pure equilibria alone: a tie among either player's
    # best replies at one of them sets it
    game = make_game((2, 2), (u1, u2))
    result = support_enumeration_2p(game)
    assert result.degenerate is degenerate
    assert result.equilibria
    for e in result.equilibria:
        assert all(set(vector) == {0, 1} for vector in e.dist)
        assert is_equilibrium(game, e, 0)


def test_verify_profile_examples(mp, pd):
    ok, table = verify_profile(pd, PureProfile((1, 1)).as_mixed(pd), 0)
    assert ok and table.total == 0
    ok, table = verify_profile(mp, PureProfile((0, 0)).as_mixed(mp), 0)
    assert not ok
    assert table.best[1] == 2
    ok, _ = verify_profile(mp, MixedProfile(UNIFORM_2X2), 0)
    assert ok


@pytest.mark.parametrize(
    "bad, error",
    [
        (float("nan"), errors.ParameterOutOfRange),
        (float("inf"), errors.ParameterOutOfRange),
        (float("-inf"), errors.ParameterOutOfRange),
        (-1, errors.NegativeEpsilon),
    ],
)
def test_verify_profile_checks_eps_before_the_gain_table(mp, bad, error, monkeypatch):
    tables = count_calls(monkeypatch, game_module, "gain_table")
    with pytest.raises(error):
        verify_profile(mp, MixedProfile(UNIFORM_2X2), bad)
    assert tables == []


@pytest.mark.parametrize("bad", ["0", None, 1j], ids=["str", "None", "complex"])
@pytest.mark.parametrize(
    "call",
    [
        lambda g, eps: solve(g, eps),
        lambda g, eps: is_equilibrium(g, MixedProfile(UNIFORM_2X2), eps),
        lambda g, eps: verify_profile(g, MixedProfile(UNIFORM_2X2), eps),
    ],
    ids=["solve", "is_equilibrium", "verify_profile"],
)
def test_eps_that_is_not_a_number_is_refused(mp, call, bad):
    with pytest.raises(errors.ParameterOutOfRange, match="is not an int, Fraction or float"):
        call(mp, bad)


def test_verify_zero_game_any_profile():
    game = make_game((2, 2), ((0,) * 4, (0,) * 4))
    sigma = MixedProfile(((Fraction(1, 7), Fraction(6, 7)), (Fraction(2, 5), Fraction(3, 5))))
    ok, table = verify_profile(game, sigma, 0)
    assert ok and table.total == 0


def test_solver_final_profile_cross_validates():
    # the solver's regret can never beat the exhaustive grid minimum
    # at the same resolution
    for game, eps in (
        (MATCHING_PENNIES, Fraction(1, 10)),
        (PRISONERS_DILEMMA, Fraction(1, 2)),
        (BATTLE_OF_SEXES, Fraction(1, 5)),
    ):
        report = solve(game, eps, m0=2)
        assert report.converged
        oracle = grid_min_regret(game, report.stages[-1].resolutions)
        assert oracle.max_regret <= report.final_max_regret
        ok, _ = verify_profile(game, report.final_profile, eps)
        assert ok


def test_oracle_imports_neither_search_nor_labeling():
    # the oracle vouches for the solver only while it shares none of its code
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "cellnash" if node.level else ""
            module = ".".join(part for part in (package, node.module) if part)
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert not imported & {"cellnash.search", "cellnash.labeling"}
