"""Game file parsing, serialization round-trips, and report JSON."""

import collections
import enum
import json
from fractions import Fraction

import pytest

from cellnash import (
    Game,
    cell_diameter,
    errors,
    find_pre_equilibria,
    gain_table,
    load_report,
    parse_game,
    parse_profile,
    report_json,
    serialize_game,
    solve,
)
from cellnash.gamefile import gain_table_json, profile_json, to_json

from conftest import MATCHING_PENNIES, NAMED_GAMES, make_game

MP_JSON = json.dumps(
    {
        "name": "matching-pennies",
        "players": 2,
        "strategies": [["H", "T"], ["H", "T"]],
        "payoffs": [[1, -1, -1, 1], [-1, 1, 1, -1]],
    }
)


def test_parse_game_basic():
    game = parse_game(MP_JSON)
    assert game.num_players == 2
    assert game.strategy_names == (("H", "T"), ("H", "T"))
    assert game.payoffs == ((1, -1, -1, 1), (-1, 1, 1, -1))


def test_parse_game_rational_strings():
    text = json.dumps(
        {
            "name": "g",
            "strategies": [["a", "b"]],
            "payoffs": [["1/2", "-3/4"]],
        }
    )
    game = parse_game(text)
    assert game.payoffs == ((Fraction(1, 2), Fraction(-3, 4)),)


def test_parse_game_players_field_optional():
    text = json.dumps({"strategies": [["a", "b"]], "payoffs": [[0, 1]]})
    game = parse_game(text)
    assert game.num_players == 1
    assert game.name == ""


def test_parse_game_truncated_tensor():
    text = json.dumps(
        {"strategies": [["a", "b"], ["c", "d"]], "payoffs": [[1, 2, 3], [0, 0, 0, 0]]}
    )
    with pytest.raises(errors.ShapeError):
        parse_game(text)


def test_parse_game_zero_denominator():
    text = json.dumps({"strategies": [["a", "b"]], "payoffs": [[ "1/0", 1]]})
    with pytest.raises(errors.ParseError) as info:
        parse_game(text)
    assert "payoffs[0][0]" in str(info.value)


def test_parse_game_player_count_mismatch():
    text = json.dumps(
        {"players": 3, "strategies": [["a"], ["b"]], "payoffs": [[0], [0]]}
    )
    with pytest.raises(errors.ParseError):
        parse_game(text)


@pytest.mark.parametrize(
    "players, strategies",
    [
        pytest.param(2.0, [["a"], ["b"]], id="float"),
        pytest.param(True, [["a"]], id="bool"),
        pytest.param("2", [["a"], ["b"]], id="string"),
    ],
)
def test_parse_game_players_must_be_an_integer(players, strategies):
    text = json.dumps(
        {"players": players, "strategies": strategies, "payoffs": [[0]] * len(strategies)}
    )
    with pytest.raises(errors.ParseError, match="must be the integer"):
        parse_game(text)


def test_parse_game_invalid_json():
    with pytest.raises(errors.ParseError):
        parse_game("{not json")


def test_round_trip_named_games():
    for game in NAMED_GAMES:
        again = parse_game(serialize_game(game))
        assert again == game


def test_round_trip_rational_payoffs():
    from conftest import make_game

    game = make_game((2, 2), ((Fraction(1, 3), 0, 1, Fraction(-7, 2)), (0, 0, 0, 0)))
    assert parse_game(serialize_game(game)) == game


FLOAT_GAME = make_game(
    (2, 2), ((0.1, 0.2, 0.3, 0.1), (0.2, 0.1, 0.1, 0.3)), "floats"
)


def test_round_trip_float_payoffs():
    # a float is written as the exact binary fraction the arithmetic used
    assert parse_game(serialize_game(FLOAT_GAME)) == FLOAT_GAME


def test_float_game_report_survives_round_trip():
    again = parse_game(serialize_game(FLOAT_GAME))
    assert report_json(solve(again, 0), again) == report_json(
        solve(FLOAT_GAME, 0), FLOAT_GAME
    )
    report = report_json(solve(FLOAT_GAME, 0.1), FLOAT_GAME)
    assert report["eps_target"] == "3602879701896397/36028797018963968"


def test_parse_profile_against_game():
    game = parse_game(MP_JSON)
    sigma = parse_profile('[["1/2", "1/2"], [0, 1]]', game)
    assert sigma.dist == ((Fraction(1, 2), Fraction(1, 2)), (0, 1))


def test_parse_profile_shape_mismatch():
    game = parse_game(MP_JSON)
    with pytest.raises(errors.ParseError):
        parse_profile('[["1/2", "1/2"]]', game)
    with pytest.raises(errors.ParseError):
        parse_profile('[[1, 0, 0], [1, 0]]', game)


def test_profile_and_gain_table_json_are_strings():
    game = MATCHING_PENNIES
    sigma = parse_profile("[[1, 0], [1, 0]]", game)
    table = gain_table(game, sigma)
    data = gain_table_json(table)
    assert data["best"] == ["0", "2"]
    assert data["total"] == "2"
    assert data["up"] == [False, True]
    assert profile_json(sigma) == [["1", "0"], ["1", "0"]]


def test_report_json_round_trip_and_reverify():
    game = MATCHING_PENNIES
    report = solve(game, Fraction(1, 10), m0=2)
    data = report_json(report, game)
    text = json.dumps(data)
    loaded = load_report(text)
    final = loaded["final"]
    sigma = parse_profile(json.dumps(final["profile"]), game)
    table = gain_table(game, sigma)
    from cellnash import scalars

    assert scalars.format_scalar(max(table.best)) == final["max_regret"]
    assert final["converged"] is True


def test_report_stdout_variant_has_no_timing():
    game = MATCHING_PENNIES
    report = solve(game, Fraction(1, 10), m0=2)
    bare = report_json(report, game)
    assert "tool" not in bare
    assert all("wall_clock_s" not in stage for stage in bare["stages"])
    timed = report_json(report, game, include_timing=True)
    assert timed["tool"]["name"] == "cellnash"
    assert all("wall_clock_s" in stage for stage in timed["stages"])


def test_empty_stage_serializes_with_nulls():
    game = MATCHING_PENNIES
    report = solve(game, Fraction(1, 10), m0=2)
    data = report_json(report, game)
    first = data["stages"][0]
    assert first["pre_equilibria_found"] == 0
    assert first["chosen_cell"] is None
    assert first["representative"] is None
    assert first["max_regret"] is None


def test_load_report_rejects_non_reports():
    with pytest.raises(errors.ParseError):
        load_report("[]")
    with pytest.raises(errors.ParseError):
        load_report("{nope")


@pytest.mark.parametrize(
    "open_, close", [("[", "]"), ('{"a": ', "}")], ids=["array", "object"]
)
def test_deeply_nested_json_is_a_parse_error(open_, close):
    # json.loads raises RecursionError past the interpreter's stack limit
    deep = open_ * 1000 + "1" + close * 1000
    for load in (parse_game, lambda t: parse_profile(t, MATCHING_PENNIES), load_report):
        with pytest.raises(errors.ParseError, match="maximum recursion depth"):
            load(deep)


def test_over_long_integers_are_parse_errors():
    # json.loads raises a plain ValueError past Python's 4300-digit limit
    huge = "1" * 5000
    with pytest.raises(errors.ParseError):
        parse_game('{"strategies": [["a", "b"]], "payoffs": [[%s, 0]]}' % huge)
    with pytest.raises(errors.ParseError):
        parse_profile("[[%s, 0], [1, 0]]" % huge, MATCHING_PENNIES)
    with pytest.raises(errors.ParseError):
        load_report('{"final": %s}' % huge)


class Name(str):
    pass


class Count(enum.IntEnum):
    ONE = 1


def test_to_json_writes_what_json_dumps_writes():
    cert = find_pre_equilibria(MATCHING_PENNIES, 4)[0]
    odd = 'q"b\\s\x00\x1f\t\n\u2028\u00e9\U0001f600\x7f'
    cases = [
        {},
        [],
        (),
        "",
        {"a": {}, "b": [], "c": [[], {}, [[]]], "d": {"e": {}}},
        [(1, "x"), ((),), ("y", (2.5, None))],
        {odd: [odd, {odd: odd}], "": ""},
        [0.1, 1e-300, -0.0, 1e300, 5e-324, 2.0, cell_diameter(cert.cell)],
        [2**64, -(2**64) - 1, 10**100, 0, -1],
        [True, False, None, {"t": True, "n": None}],
        report_json(solve(FLOAT_GAME, 0), FLOAT_GAME, include_timing=True),
        json.loads(serialize_game(MATCHING_PENNIES)),
        # subclasses, written as their base types
        [Name("x"), {Name("k"): Name("v")}, Count.ONE, collections.OrderedDict(a=[1])],
    ]
    for data in cases:
        assert to_json(data) == json.dumps(data, indent=2)
    game = make_game((2,), ((0, 1),), odd)
    named = parse_game(MP_JSON.replace('"H"', json.dumps(odd)))
    subclassed = Game(((Name("a"), "b"),), ((0, 1),), Name("n"))
    for g in (game, named, subclassed):
        assert parse_game(serialize_game(g)) == g


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("name", [1], "field 'name' must be a string"),
        ("name", 5, "field 'name' must be a string"),
        ("name", None, "field 'name' must be a string"),
        ("strategies", [[1, 2], ["a", "b"]], "strategies[0] must contain strings"),
        ("strategies", [["a", "b"], ["a", None]], "strategies[1] must contain strings"),
    ],
    ids=["list-name", "int-name", "none-name", "int-strategies", "none-strategy"],
)
def test_game_refuses_names_that_parse_game_refuses(field, value, message):
    # a Game that parse_game could not read back is refused when it is
    # built, in parse_game's words; a list name would also break hash()
    data = json.loads(MP_JSON)
    data[field] = value
    names = tuple(map(tuple, data["strategies"]))
    for build in (
        lambda: Game(names, MATCHING_PENNIES.payoffs, data["name"]),
        lambda: parse_game(json.dumps(data)),
    ):
        with pytest.raises(errors.ParseError) as info:
            build()
        assert str(info.value) == message


def test_every_game_name_round_trips():
    for name in ("", "g", "ü ∅", "\x00"):
        game = Game((("H", "T"), ("H", "T")), MATCHING_PENNIES.payoffs, name)
        again = parse_game(serialize_game(game))
        assert again == game and hash(again) == hash(game)


@pytest.mark.parametrize(
    "data",
    [{1, 2}, Fraction(1, 2), [Fraction(1, 2)], {"a": {1}}, {1: "a"}, b"x", int],
    ids=["set", "Fraction", "nested-Fraction", "nested-set", "int-key", "bytes", "type"],
)
def test_to_json_refuses_other_types(data):
    with pytest.raises(TypeError):
        to_json(data)


def test_to_json_refuses_non_finite_floats():
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            to_json([value])
