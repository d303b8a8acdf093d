"""Shared fixtures: the named games, seeded random suites, profile makers.

The random suites are pinned to one seed so every run works the same
corpus; failures therefore name reproducible games.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest

from cellnash import Game, MixedProfile, triangulate

FIXTURE_SEED = 104729

MATCHING_PENNIES = Game(
    strategy_names=(("H", "T"), ("H", "T")),
    payoffs=((1, -1, -1, 1), (-1, 1, 1, -1)),
    name="matching-pennies",
)

ROCK_PAPER_SCISSORS = Game(
    strategy_names=(("R", "P", "S"), ("R", "P", "S")),
    payoffs=(
        (0, -1, 1, 1, 0, -1, -1, 1, 0),
        (0, 1, -1, -1, 0, 1, 1, -1, 0),
    ),
    name="rock-paper-scissors",
)

PRISONERS_DILEMMA = Game(
    strategy_names=(("C", "D"), ("C", "D")),
    payoffs=((3, 0, 5, 1), (3, 5, 0, 1)),
    name="prisoners-dilemma",
)

BATTLE_OF_SEXES = Game(
    strategy_names=(("A", "B"), ("A", "B")),
    payoffs=((2, 0, 0, 1), (1, 0, 0, 2)),
    name="battle-of-sexes",
)

NAMED_GAMES = (
    MATCHING_PENNIES,
    ROCK_PAPER_SCISSORS,
    PRISONERS_DILEMMA,
    BATTLE_OF_SEXES,
)

# ten single-player games, 2 and 3 strategies, ties included
ONE_PLAYER_PAYOFFS = (
    (0, 1),
    (1, 0),
    (0, 0),
    (3, 3),
    (-1, 2),
    (0, 1, 2),
    (2, 1, 0),
    (1, 1, 0),
    (0, 0, 0),
    (2, 0, 2),
)


def make_game(shape, payoffs, name=""):
    names = tuple(tuple(f"s{j}" for j in range(k)) for k in shape)
    return Game(strategy_names=names, payoffs=payoffs, name=name)


def random_game(rng, shape, name="", low=-5, high=5):
    size = 1
    for k in shape:
        size *= k
    payoffs = tuple(
        tuple(rng.randint(low, high) for _ in range(size)) for _ in shape
    )
    return make_game(shape, payoffs, name=name)


def fixture_suite():
    """Named games plus 20 random 2x2 and 5 random 2x2x2 games."""
    rng = random.Random(FIXTURE_SEED)
    games = list(NAMED_GAMES)
    for idx in range(20):
        games.append(random_game(rng, (2, 2), name=f"random-2x2-{idx}"))
    for idx in range(5):
        games.append(random_game(rng, (2, 2, 2), name=f"random-2x2x2-{idx}"))
    return games


def one_player_games():
    return [
        make_game((len(p),), (p,), name=f"one-player-{i}")
        for i, p in enumerate(ONE_PLAYER_PAYOFFS)
    ]


def corpus_games(count=50):
    """Random integer games, shapes up to 3x3x3, payoffs in [-5, 5]."""
    shapes = [
        (2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2),
        (2, 2, 3), (3, 3, 3), (2, 3, 2), (3, 1), (1, 3),
    ]
    rng = random.Random(FIXTURE_SEED)
    return [
        random_game(rng, shapes[i % len(shapes)], name=f"corpus-{i}")
        for i in range(count)
    ]


def label_corpus():
    """(game, m) pairs for checking the grid labeler and the scan against
    their references: the fixture suite at m in {1, 2, 3, 4, 8} (m <= 4
    for three players), plus seeded games of other shapes with integer,
    rational, {-1, 0, 1} (ties often) and wide payoffs.  Wide payoffs
    have numerators near 10**20 over denominators up to 10**6, so each
    player's payoffs scale to integers by a large, different lcm."""
    cases = []
    for game in fixture_suite():
        for m in (1, 2, 3, 4) if game.num_players == 3 else (1, 2, 3, 4, 8):
            cases.append((game, m))
    rng = random.Random(FIXTURE_SEED)
    wide = random.Random(FIXTURE_SEED)  # own stream: the other draws stay put
    draws = {
        "int": lambda: rng.randint(-5, 5),
        "rational": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        "unit": lambda: rng.choice((-1, 0, 1)),
        "wide": lambda: Fraction(
            wide.randint(-(10**20), 10**20), wide.randint(1, 10**6)
        ),
    }
    shapes = {
        (3, 3): (1, 2, 4),
        (2, 3): (2, 3, 5),
        (4, 2): (1, 2, 3),
        (1, 3): (2, 4, 8),
        (2,): (1, 4, 8),
        (3,): (2, 4, 8),
        (3, 2, 2): (1, 2),
        (2, 2, 2, 2): (1, 2),
    }
    for shape, resolutions in shapes.items():
        size = math.prod(shape)
        for kind, draw in draws.items():
            payoffs = tuple(tuple(draw() for _ in range(size)) for _ in shape)
            game = make_game(shape, payoffs, name=f"{'x'.join(map(str, shape))}-{kind}")
            cases.extend((game, m) for m in resolutions)
    return cases


def mismatched_grids():
    """(game, triangulations) pairs whose triangulation count or
    dimensions do not fit the game."""
    two = make_game((2, 2), ((1, 0, 0, 1), (0, 1, 1, 0)))
    three_two = make_game((3, 2), ((1, 0, 0, 1, 2, 0), (0, 1, 1, 0, 0, 2)))
    line, plane = triangulate(1, 2), triangulate(2, 2)
    return [
        (two, (line,)),
        (two, (line, line, line)),
        (two, (plane, line)),
        (two, (line, plane)),
        (three_two, (line, line)),
        (two, ()),
    ]


def as_float_game(game):
    """The same game with float payoffs."""
    return Game(
        strategy_names=game.strategy_names,
        payoffs=tuple(tuple(float(v) for v in tensor) for tensor in game.payoffs),
        name=game.name,
    )


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` in every loaded ``cellnash`` module that binds it
    and return the list the wrapper appends one entry to per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "cellnash":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def random_profile(game, rng, denominator=12):
    """Random rational profile with weights in k/denominator steps."""
    dist = []
    for size in game.shape:
        cuts = sorted(rng.randint(0, denominator) for _ in range(size - 1))
        bounds = [0] + cuts + [denominator]
        weights = [
            Fraction(b - a, denominator) for a, b in zip(bounds, bounds[1:])
        ]
        dist.append(tuple(weights))
    return MixedProfile(tuple(dist))


def payoff_range(game):
    lo = min(min(t) for t in game.payoffs)
    hi = max(max(t) for t in game.payoffs)
    return hi - lo


@pytest.fixture
def mp():
    return MATCHING_PENNIES


@pytest.fixture
def rps():
    return ROCK_PAPER_SCISSORS


@pytest.fixture
def pd():
    return PRISONERS_DILEMMA


@pytest.fixture
def bos():
    return BATTLE_OF_SEXES
