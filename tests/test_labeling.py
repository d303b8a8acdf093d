"""Root labels and the straight-line motion toward them."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cellnash import (
    Game,
    MixedProfile,
    PureProfile,
    check_root_properties,
    errors,
    evaluate_payoff,
    gain_table,
    grid_labels,
    player_triangulations,
    root_label,
    root_motion,
    scalars,
)

from conftest import as_float_game, label_corpus, random_game, random_profile


def test_label_forced_by_singleton_supports(mp):
    sigma = PureProfile((0, 0)).as_mixed(mp)
    assert root_label(mp, sigma).choices == (0, 0)


def test_label_four_way_tie_takes_lowest_index(mp):
    uniform = MixedProfile(
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    )
    # every deviation payoff is 0: tie broken to the first strategy
    assert root_label(mp, uniform).choices == (0, 0)


def test_float_label_ignores_differences_within_tolerance():
    # 0.1 + 0.2 exceeds 0.3 by one ulp; the exact game ties and labels 0
    with scalars.numeric_mode(scalars.FLOAT):
        g = Game(strategy_names=(("s1", "s2"),), payoffs=((0.1 + 0.2, 0.3),))
        assert root_label(g, MixedProfile(((0.5, 0.5),))).choices == (0,)
    exact = Game(
        strategy_names=(("s1", "s2"),),
        payoffs=((Fraction(3, 10), Fraction(3, 10)),),
    )
    half = MixedProfile(((Fraction(1, 2), Fraction(1, 2)),))
    assert root_label(exact, half).choices == (0,)


def reference_grid_labels(game, tris):
    # root_label at every vertex profile, row-major over the vertex lists
    return [
        game.flat_index(root_label(game, MixedProfile(combo)).choices)
        for combo in itertools.product(*(t.vertices for t in tris))
    ]


@pytest.mark.parametrize("mode", [scalars.RATIONAL, scalars.FLOAT])
def test_grid_labels_match_root_label_everywhere(mode):
    with scalars.numeric_mode(mode):
        for game, m in label_corpus():
            if mode == scalars.FLOAT:
                game = as_float_game(game)
            tris = player_triangulations(game, m)
            assert grid_labels(game, tris) == reference_grid_labels(game, tris), (
                game.name,
                m,
            )


def test_float_grid_labels_ignore_differences_within_tolerance():
    # player 0's deviation payoffs differ by about one ulp (0.1 + 0.2 vs
    # 0.3): a tie, so every profile labels player 0 with strategy 0
    third = 0.1 + 0.2
    with scalars.numeric_mode(scalars.FLOAT):
        games = (
            Game(strategy_names=(("s1", "s2"),), payoffs=((third, 0.3),)),
            Game(
                strategy_names=(("a", "b"), ("c", "d")),
                payoffs=((third, third, 0.3, 0.3), (0.0, 1.0, 0.0, 1.0)),
            ),
        )
        for game in games:
            for m in (2, 4):
                tris = player_triangulations(game, m)
                labels = grid_labels(game, tris)
                assert labels == reference_grid_labels(game, tris)
                profiles = itertools.product(*(t.vertices for t in tris))
                for flat, combo in zip(labels, profiles):
                    if combo[0][0] > 0:  # strategy 0 in player 0's support
                        assert flat // game.strides[0] == 0


def test_label_one_player_picks_minimum():
    g = Game(strategy_names=(("s1", "s2"),), payoffs=((0, 1),))
    sigma = MixedProfile(((Fraction(1, 4), Fraction(3, 4)),))
    assert root_label(g, sigma).choices == (0,)


def test_label_restricted_to_support():
    g = Game(strategy_names=(("a", "b", "c"),), payoffs=((5, 0, 3),))
    # strategy b has the lowest payoff but zero weight
    sigma = MixedProfile(((Fraction(1, 2), 0, Fraction(1, 2)),))
    assert root_label(g, sigma).choices == (2,)


def test_label_has_zero_gain(pd):
    sigma = MixedProfile(
        ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 2)))
    )
    label = root_label(pd, sigma)
    table = gain_table(pd, sigma)
    for i, s in enumerate(label.choices):
        assert table.gains[i][s] == 0


def test_motion_endpoints(mp):
    sigma = MixedProfile(
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)))
    )
    assert root_motion(mp, sigma, 0).dist == sigma.dist
    moved = root_motion(mp, sigma, 1)
    label = root_label(mp, sigma)
    for i, s in enumerate(label.choices):
        assert moved.dist[i][s] == 1


def test_motion_midpoint_one_player():
    g = Game(strategy_names=(("s1", "s2"),), payoffs=((0, 1),))
    sigma = MixedProfile(((Fraction(1, 4), Fraction(3, 4)),))
    moved = root_motion(g, sigma, Fraction(1, 2))
    assert moved.dist == ((Fraction(5, 8), Fraction(3, 8)),)


def test_motion_rejects_t_outside_unit_interval(mp):
    sigma = PureProfile((0, 0)).as_mixed(mp)
    with pytest.raises(errors.ParameterOutOfRange):
        root_motion(mp, sigma, Fraction(3, 2))
    with pytest.raises(errors.ParameterOutOfRange):
        root_motion(mp, sigma, -Fraction(1, 2))


def test_check_root_properties_examples(mp, pd):
    assert check_root_properties(mp, PureProfile((0, 0)).as_mixed(mp))
    assert check_root_properties(pd, PureProfile((1, 1)).as_mixed(pd))


@st.composite
def game_and_profile(draw):
    n_players = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(2, 3)) for _ in range(n_players))
    size = 1
    for k in shape:
        size *= k
    payoffs = tuple(
        tuple(draw(st.integers(-5, 5)) for _ in range(size)) for _ in shape
    )
    names = tuple(tuple(f"s{j}" for j in range(k)) for k in shape)
    game = Game(strategy_names=names, payoffs=payoffs)
    dist = []
    for k in shape:
        weights = [draw(st.integers(0, 6)) for _ in range(k)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        dist.append(tuple(Fraction(w, total) for w in weights))
    return game, MixedProfile(tuple(dist))


@given(game_and_profile())
@settings(max_examples=200, deadline=None)
def test_label_laws(pair):
    # label in support, zero gain there, and the check helper agrees
    game, sigma = pair
    label = root_label(game, sigma)
    table = gain_table(game, sigma)
    for i, s in enumerate(label.choices):
        assert sigma.dist[i][s] > 0
        assert table.gains[i][s] == 0
    assert check_root_properties(game, sigma)


@given(game_and_profile(), st.integers(0, 10))
@settings(max_examples=200, deadline=None)
def test_motion_preserves_zero_coordinates(pair, tenths):
    # coordinates outside the support stay exactly zero along the motion
    game, sigma = pair
    t = Fraction(tenths, 10)
    label = root_label(game, sigma)
    moved = root_motion(game, sigma, t)
    for i in range(game.num_players):
        for s in range(game.shape[i]):
            if sigma.dist[i][s] == 0:
                assert label.choices[i] != s
                assert moved.dist[i][s] == 0


@given(game_and_profile(), st.integers(1, 9))
@settings(max_examples=150, deadline=None)
def test_motion_stays_a_valid_profile(pair, tenths):
    game, sigma = pair
    moved = root_motion(game, sigma, Fraction(tenths, 10))
    for vector in moved.dist:
        assert sum(vector) == 1
        assert all(v >= 0 for v in vector)


def test_motion_linear_in_t():
    rng = random.Random(11)
    for _ in range(10):
        game = random_game(rng, (2, 3))
        sigma = random_profile(game, rng)
        a = root_motion(game, sigma, Fraction(1, 4))
        b = root_motion(game, sigma, Fraction(3, 4))
        mid = root_motion(game, sigma, Fraction(1, 2))
        for i in range(game.num_players):
            for s in range(game.shape[i]):
                assert mid.dist[i][s] == (a.dist[i][s] + b.dist[i][s]) / 2
