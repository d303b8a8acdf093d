"""Game file parsing, serialization round-trips, and report JSON."""

import json
from fractions import Fraction

import pytest

from cellnash import (
    errors,
    gain_table,
    load_report,
    parse_game,
    parse_profile,
    report_json,
    serialize_game,
    solve,
)
from cellnash.gamefile import gain_table_json, profile_json

from conftest import MATCHING_PENNIES, NAMED_GAMES

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


def test_over_long_integers_are_parse_errors():
    # json.loads raises a plain ValueError past Python's 4300-digit limit
    huge = "1" * 5000
    with pytest.raises(errors.ParseError):
        parse_game('{"strategies": [["a", "b"]], "payoffs": [[%s, 0]]}' % huge)
    with pytest.raises(errors.ParseError):
        parse_profile("[[%s, 0], [1, 0]]" % huge, MATCHING_PENNIES)
    with pytest.raises(errors.ParseError):
        load_report('{"final": %s}' % huge)
