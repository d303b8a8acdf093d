"""Root labels and the straight-line motion toward them."""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cellnash import (
    Game,
    MixedProfile,
    PureProfile,
    check_root_properties,
    deviation_payoffs,
    errors,
    evaluate_payoff,
    gain_table,
    grid_labels,
    player_triangulations,
    root_label,
    root_motion,
)
from cellnash import labeling
from cellnash.labeling import label_rows

from conftest import (
    as_float_game,
    label_corpus,
    make_game,
    mismatched_grids,
    random_game,
    random_profile,
)


def test_label_forced_by_singleton_supports(mp):
    sigma = PureProfile((0, 0)).as_mixed(mp)
    assert root_label(mp, sigma).choices == (0, 0)


def test_label_four_way_tie_takes_lowest_index(mp):
    uniform = MixedProfile(
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    )
    # every deviation payoff is 0: tie broken to the first strategy
    assert root_label(mp, uniform).choices == (0, 0)


def reference_grid_labels(game, tris):
    # root_label at every vertex profile, row-major over the vertex lists
    return [
        game.flat_index(root_label(game, MixedProfile(combo)).choices)
        for combo in itertools.product(*(t.vertices for t in tris))
    ]


@pytest.mark.parametrize("payoffs", ["rational", "float"])
def test_grid_labels_match_root_label_everywhere(payoffs):
    for game, m in label_corpus():
        if payoffs == "float":
            game = as_float_game(game)
        tris = player_triangulations(game, m)
        reference = reference_grid_labels(game, tris)
        assert grid_labels(game, tris) == reference, (game.name, m)
        # the row form: distinct rows, indexed in first-seen order
        rows, keys = label_rows(game, tris)
        assert len(set(map(tuple, rows))) == len(rows), (game.name, m)
        assert list(dict.fromkeys(keys)) == list(range(len(rows))), (game.name, m)
        flat = [label for k in keys for label in rows[k]]
        assert flat == reference, (game.name, m)


def seeded_games(shape, count=3):
    rng = random.Random(repr(shape))
    return [random_game(rng, shape) for _ in range(count)]


@pytest.mark.parametrize(
    "shape, resolutions",
    [
        ((3, 3), (2, 5)),
        ((3, 3), (5, 1)),
        ((2, 3), (6, 2)),
        ((2, 2, 2), (1, 3, 4)),
        ((3, 2, 2), (4, 1, 2)),
        ((2, 2, 3), (3, 2, 1)),
    ],
)
def test_grid_labels_with_mixed_resolutions(shape, resolutions):
    for game in seeded_games(shape):
        tris = player_triangulations(game, resolutions)
        assert grid_labels(game, tris) == reference_grid_labels(game, tris)


@pytest.mark.parametrize(
    "shape, ms",
    [
        ((3, 1), (1, 2, 4)),  # the last player has one strategy
        ((2, 2, 1), (1, 2, 3)),
        ((2, 2, 2, 2, 2), (1, 2)),  # five players
        ((2, 4), (1, 2, 3)),  # the last player has more strategies
        ((2, 2, 3), (1, 2)),
    ],
)
def test_grid_labels_on_odd_shapes(shape, ms):
    for game in seeded_games(shape):
        for m in ms:
            tris = player_triangulations(game, m)
            assert grid_labels(game, tris) == reference_grid_labels(game, tris), m


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3, 4, 2), (2, 3, 4)])
def test_grid_labels_break_all_ties_to_the_lowest_index(shape):
    # with one player's payoffs all 0, every supported strategy ties, and
    # that player's label is the lowest index of its support everywhere
    for zero, game in enumerate(seeded_games(shape, len(shape))):
        payoffs = list(game.payoffs)
        payoffs[zero] = (0,) * math.prod(shape)
        game = make_game(shape, tuple(payoffs))
        for m in (2, 3):
            tris = player_triangulations(game, m)
            labels = grid_labels(game, tris)
            assert labels == reference_grid_labels(game, tris), (zero, m)
            profiles = itertools.product(*(t.vertices for t in tris))
            for label, combo in zip(labels, profiles):
                choice = label // game.strides[zero] % shape[zero]
                assert choice == next(s for s, p in enumerate(combo[zero]) if p)


@pytest.mark.parametrize("case", range(len(mismatched_grids())))
def test_grid_labels_refuse_mismatched_triangulations(case):
    game, tris = mismatched_grids()[case]
    with pytest.raises(errors.DimensionMismatch):
        grid_labels(game, tris)


def reference_root_label(game, sigma):
    # per player, the first supported strategy whose Fraction-path
    # deviation payoff is the smallest over the support
    choices = []
    for i, vector in enumerate(sigma.dist):
        devs = deviation_payoffs(game, sigma, i)
        support = [s for s, p in enumerate(vector) if p > 0]
        low = min(devs[s] for s in support)
        choices.append(next(s for s in support if devs[s] == low))
    return tuple(choices)


def mixed_denominator_profile(game, rng):
    # entries over different denominators, ints where they are whole, and
    # every third vector as the exact binary floats k/8
    dist = []
    for k in game.shape:
        if rng.randrange(3) == 0:
            cuts = sorted(rng.randint(0, 8) for _ in range(k - 1))
            bounds = [0, *cuts, 8]
            dist.append(tuple((b - a) / 8 for a, b in zip(bounds, bounds[1:])))
            continue
        weights = [Fraction(rng.randint(0, 4), rng.randint(1, 6)) for _ in range(k)]
        if not any(weights):
            weights[rng.randrange(k)] = Fraction(1)
        total = sum(weights)
        shares = [w / total for w in weights]
        dist.append(tuple(int(w) if w.denominator == 1 else w for w in shares))
    return MixedProfile(tuple(dist))


def test_root_label_matches_fraction_reference():
    for game, m in label_corpus():
        tris = player_triangulations(game, m)
        for combo in itertools.product(*(t.vertices for t in tris)):
            sigma = MixedProfile(combo)
            expected = reference_root_label(game, sigma)
            assert root_label(game, sigma).choices == expected, (game.name, m, combo)
    rng = random.Random(104729)
    draws = {
        "int": lambda: rng.randint(-2, 2),
        "fraction": lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        "float": lambda: rng.randint(-9, 9) / rng.choice((3, 5, 10)),
    }
    for shape in ((2, 2), (3, 3), (2, 3, 2), (4,), (2, 2, 2, 2)):
        for kind, draw in draws.items():
            payoffs = tuple(
                tuple(draw() for _ in range(math.prod(shape))) for _ in shape
            )
            game = make_game(shape, payoffs, name=kind)
            for _ in range(40):
                sigma = mixed_denominator_profile(game, rng)
                expected = reference_root_label(game, sigma)
                assert root_label(game, sigma).choices == expected, (kind, sigma)


def test_float_payoffs_are_read_exactly():
    # float arithmetic labels this grid differently from the exact values
    # the floats hold; read exactly, grid_labels, root_label and the game
    # of those exact Fractions all agree
    floats = make_game(
        (2, 3),
        (
            (0.2, 0.1 + 0.2, 0.9, 0.9, 0.9, 0.1),
            (0.3, 0.1, 0.7, 0.9, 0.7, 0.7),
        ),
    )
    exact = make_game((2, 3), tuple(tuple(map(Fraction, t)) for t in floats.payoffs))
    tris = player_triangulations(floats, 3)
    labels = grid_labels(floats, tris)
    assert labels == reference_grid_labels(floats, tris)
    assert labels == grid_labels(exact, tris) == reference_grid_labels(exact, tris)


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


def test_motion_reads_float_t_exactly(mp):
    sigma = MixedProfile(
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)))
    )
    as_floats = MixedProfile(((0.5, 0.5), (0.25, 0.75)))
    for t in (0.1, 0.3):
        assert root_motion(mp, sigma, t) == root_motion(mp, sigma, Fraction(t))
        assert root_motion(mp, as_floats, t) == root_motion(mp, sigma, Fraction(t))


def test_motion_rejects_t_outside_unit_interval(mp):
    sigma = PureProfile((0, 0)).as_mixed(mp)
    with pytest.raises(errors.ParameterOutOfRange):
        root_motion(mp, sigma, Fraction(3, 2))
    with pytest.raises(errors.ParameterOutOfRange):
        root_motion(mp, sigma, -Fraction(1, 2))


def test_motion_refuses_t_that_is_not_a_number(mp):
    sigma = PureProfile((0, 0)).as_mixed(mp)
    for bad in ("x", 1j, None, Decimal("0.5")):
        with pytest.raises(errors.ParameterOutOfRange) as info:
            root_motion(mp, sigma, bad)
        assert str(info.value) == f"t {bad!r} is not an int, Fraction or float"
    with pytest.raises(errors.ParameterOutOfRange, match="outside"):
        root_motion(mp, sigma, float("nan"))


def test_check_root_properties_examples(mp, pd):
    assert check_root_properties(mp, PureProfile((0, 0)).as_mixed(mp))
    assert check_root_properties(pd, PureProfile((1, 1)).as_mixed(pd))


def test_check_root_properties_refuses_a_label_that_breaks_a_law(mp, monkeypatch):
    # matching pennies, player 0 mixed half and half against player 1's
    # first strategy: player 0's strategy 0 gains 1 over the expected
    # payoff 0, strategy 1 loses 1; player 1 supports only strategy 0
    sigma = MixedProfile(((Fraction(1, 2), Fraction(1, 2)), (1, 0)))
    assert check_root_properties(mp, sigma)
    # player 0 passes, player 1's label is unsupported; then player 0's
    # label has a positive gain
    for label in ((1, 1), (0, 0)):
        monkeypatch.setattr(labeling, "root_label", lambda game, s: PureProfile(label))
        assert not check_root_properties(mp, sigma)


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
