"""End-to-end command-line checks driven through run_cli."""

import functools
import json
import os
import subprocess
import sys
import time

import pytest

import cellnash
from cellnash import cli, labeling, serialize_game, subdivision
from cellnash.cli import EXIT_INPUT_ERROR, EXIT_NOT_MET, EXIT_OK, run_cli

from conftest import BATTLE_OF_SEXES, count_calls, make_game

DATA = os.path.join(os.path.dirname(__file__), "data")
MP = os.path.join(DATA, "matching_pennies.json")
PD = os.path.join(DATA, "prisoners_dilemma.json")
ONE = os.path.join(DATA, "one_player.json")
GOLDEN = os.path.join(DATA, "golden")


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_converges_and_prints_report(capsys):
    code, out = run(capsys, "solve", MP, "--eps", "1/10")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["game"] == "matching-pennies"
    assert data["eps_target"] == "1/10"
    assert data["final"]["converged"] is True
    assert data["final"]["max_regret"] == "17/256"
    assert len(data["stages"]) == 4
    assert data["stages"][-1]["resolutions"] == [16, 16]
    assert "tool" not in data
    assert "wall_clock_s" not in data["stages"][-1]


def test_solve_out_file_carries_timing(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run(capsys, "solve", MP, "--eps", "1/10", "--out", str(out_path))
    assert code == EXIT_OK
    saved = json.loads(out_path.read_text())
    assert saved["tool"]["name"] == "cellnash"
    assert all("wall_clock_s" in stage for stage in saved["stages"])


def test_solve_not_converged_exits_2(capsys):
    code, out = run(capsys, "solve", MP, "--eps", "1/100", "--max-stages", "2")
    assert code == EXIT_NOT_MET
    data = json.loads(out)
    assert data["final"]["converged"] is False


def test_solve_exhausted_stages_report_error(capsys, tmp_path):
    path = tmp_path / "tie.json"
    game = make_game((2, 2), ((5, 0, -3, 0), (-4, 0, -5, 0)), "boundary-tie")
    path.write_text(serialize_game(game))
    code, out = run(capsys, "solve", str(path), "--eps", "1/10")
    assert code == EXIT_NOT_MET
    data = json.loads(out)
    assert data["error"]["code"] == "no-pre-equilibrium-found"
    assert data["error"]["resolutions_tried"][0] == [2, 2]
    assert len(data["error"]["resolutions_tried"]) == 6
    assert data["error"]["cells_scanned"] == 5460


def test_solve_reports_the_stages_run_before_the_budget_refuses_one(
    capsys, tmp_path, monkeypatch
):
    # 3x3 at m=64 needs 16,777,216 product cells: the ladder ends at m=32
    monkeypatch.delenv("NASH_BUDGET", raising=False)
    path = tmp_path / "ladder.json"
    payoffs = ((4, -1, 0, 5, 3, -5, 2, -2, 5), (-5, -3, -4, 0, 2, -2, 1, 3, -4))
    path.write_text(serialize_game(make_game((3, 3), payoffs)))
    code, out = run(capsys, "solve", str(path), "--eps", "0")
    assert code == EXIT_NOT_MET
    data = json.loads(out)
    assert data["stages"][-1]["resolutions"] == [32, 32]
    assert data["final"]["max_regret"] == "835/9216"
    assert run(capsys, "solve", str(path), "--eps", "0", "--max-stages", "5") == (code, out)


def test_eval_gain_table_output(capsys):
    code, out = run(capsys, "eval", MP, "--profile", "[[1, 0], [1, 0]]")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["profile"] == [["1", "0"], ["1", "0"]]
    assert data["gains"] == [["0", "0"], ["0", "2"]]
    assert data["best"] == ["0", "2"]
    assert data["total"] == "2"
    assert data["up"] == [False, True]
    assert data["max_regret"] == "2"
    assert data["root"] == ["H", "H"]


def test_cells_empty_at_coarse_grid(capsys):
    code, out = run(capsys, "cells", MP, "--m", "2")
    assert code == EXIT_NOT_MET
    data = json.loads(out)
    assert data["cells_scanned"] == 4
    assert data["count"] == 0
    assert data["certs"] == []


def test_cells_lists_certificates(capsys):
    code, out = run(capsys, "cells", MP, "--m", "4")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["resolutions"] == [4, 4]
    assert data["cells_scanned"] == 16
    assert data["count"] == 1
    cert = data["certs"][0]
    assert cert["representative"] == [["3/8", "5/8"], ["5/8", "3/8"]]
    assert cert["max_regret"] == "5/16"
    assert len(cert["labels"]) == 4
    assert all(len(pair) == 2 for pair in cert["labels"])
    assert cert["diameter"] == pytest.approx(0.5)


def test_volume_check_constant(capsys, tmp_path):
    csv_path = tmp_path / "samples.csv"
    code, out = run(
        capsys, "volume-check", ONE, "--m", "2", "--samples-out", str(csv_path)
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["constant"] is True
    assert data["g0"] == "1"
    assert data["g1"] == "1"
    assert data["all_nonzero_certified"] is True
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,g_total,cell_index,cell_value"
    # dim + 3 = 4 sample points x 2 cells for an interval at m=2
    assert len(lines) == 1 + 4 * 2
    assert all(line.split(",")[1] == "1" for line in lines[1:])


def test_volume_check_builds_its_grid_once(capsys, monkeypatch, tmp_path):
    triangulations = count_calls(monkeypatch, subdivision, "_build")
    root_labels = count_calls(monkeypatch, labeling, "root_label")
    grid_labelings = count_calls(monkeypatch, labeling, "label_rows")
    csv_path = tmp_path / "samples.csv"
    code, out = run(
        capsys, "volume-check", ONE, "--m", "8", "--samples-out", str(csv_path)
    )
    assert code == EXIT_OK
    assert json.loads(out)["cells"] == 8
    assert len(triangulations) == 1
    assert root_labels == []
    # whole-grid labelings: the volume polynomials and the certificate
    # scan; the samples are read from the polynomials
    assert len(grid_labelings) == 2


def test_volume_check_refuses_grid_before_any_volume_work(capsys, monkeypatch):
    def no_volumes(game, tri):
        raise AssertionError("volume polynomials computed on an over-budget grid")

    monkeypatch.setattr("cellnash.cli.total_volume_polynomial", no_volumes)
    monkeypatch.setenv("NASH_BUDGET", "10")
    code, out = run(capsys, "volume-check", ONE, "--m", "40")
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "budget-exceeded"


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", MP, "--eps", "1"),
        ("cells", MP, "--m", "2"),
        ("oracle", MP, "--m", "2"),
    ],
)
def test_bad_budget_env_is_json_input_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("NASH_BUDGET", "lots")
    code, out = run(capsys, *argv)
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "parameter-out-of-range"


@pytest.mark.parametrize(
    "argv, env",
    [
        pytest.param(("solve", MP, "--eps", "1", "--budget", "0"), None, id="solve-0"),
        pytest.param(("solve", MP, "--eps", "1", "--budget", "-5"), None, id="solve-minus-5"),
        pytest.param(("cells", MP, "--m", "2", "--budget", "0"), None, id="cells-0"),
        pytest.param(("oracle", MP, "--m", "2", "--budget", "-5"), None, id="oracle-minus-5"),
        pytest.param(("solve", MP, "--eps", "1"), "0", id="env-0"),
    ],
)
def test_budget_below_one_is_parameter_out_of_range(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("NASH_BUDGET", env)
    code, out = run(capsys, *argv)
    assert code == EXIT_INPUT_ERROR
    error = json.loads(out)["error"]
    assert error["code"] == "parameter-out-of-range"
    assert error["message"].endswith("must be >= 1")


def test_volume_check_rejects_two_player_games(capsys):
    code, out = run(capsys, "volume-check", MP, "--m", "2")
    assert code == EXIT_INPUT_ERROR
    data = json.loads(out)
    assert data["error"]["code"] == "not-single-player"


def test_oracle_grid_and_support_enum(capsys):
    code, out = run(capsys, "oracle", MP, "--m", "2", "--support-enum")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["method"] == "GRID"
    assert data["max_regret"] == "0"
    assert data["profile"] == [["1/2", "1/2"], ["1/2", "1/2"]]
    assert data["support_equilibria"] == [[["1/2", "1/2"], ["1/2", "1/2"]]]
    assert data["degenerate"] is False


def test_verify_accepts_equilibrium(capsys):
    code, out = run(capsys, "verify", PD, "--profile", "[[0, 1], [0, 1]]")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["equilibrium"] is True
    assert data["max_regret"] == "0"


def test_verify_rejects_non_equilibrium(capsys):
    code, out = run(
        capsys, "verify", MP, "--profile", "[[1, 0], [1, 0]]", "--eps", "1"
    )
    assert code == EXIT_NOT_MET
    data = json.loads(out)
    assert data["equilibrium"] is False
    assert data["max_regret"] == "2"


def test_missing_game_file_is_input_error(capsys):
    code, out = run(capsys, "solve", "/no/such/file.json", "--eps", "1/10")
    assert code == EXIT_INPUT_ERROR
    data = json.loads(out)
    assert data["error"]["code"] == "error"
    assert "/no/such/file.json" in data["error"]["message"]


def test_non_utf8_game_file_is_parse_error(capsys, tmp_path):
    path = tmp_path / "g.json"
    with open(MP, encoding="utf-8") as handle:
        path.write_bytes(handle.read().encode("utf-16"))  # starts ff fe
    code, out = run(capsys, "solve", str(path), "--eps", "1")
    assert code == EXIT_INPUT_ERROR
    data = json.loads(out)
    assert data["error"]["code"] == "parse-error"
    assert str(path) in data["error"]["message"]


def test_over_long_integer_is_parse_error(capsys, tmp_path):
    # 5000 digits: beyond Python's default int-from-string limit of 4300
    path = tmp_path / "big.json"
    path.write_text('{"strategies": [["a", "b"]], "payoffs": [[%s, 0]]}' % ("1" * 5000))
    code, out = run(capsys, "solve", str(path), "--eps", "1")
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "parse-error"
    code, out = run(capsys, "eval", MP, "--profile", "[[%s, 0], [1, 0]]" % ("1" * 5000))
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "parse-error"


def test_bad_profile_is_input_error(capsys):
    code, out = run(capsys, "eval", MP, "--profile", "[[1, 0]]")
    assert code == EXIT_INPUT_ERROR
    data = json.loads(out)
    assert data["error"]["code"] == "parse-error"


def test_invalid_distribution_is_input_error(capsys):
    code, out = run(capsys, "eval", MP, "--profile", "[[2, 0], [1, 0]]")
    assert code == EXIT_INPUT_ERROR
    data = json.loads(out)
    assert data["error"]["code"] == "invalid-distribution"


def test_repeated_runs_are_byte_identical(capsys):
    _, first = run(capsys, "solve", MP, "--eps", "1/10")
    _, second = run(capsys, "solve", MP, "--eps", "1/10")
    assert first == second
    _, third = run(capsys, "cells", MP, "--m", "4")
    _, fourth = run(capsys, "cells", MP, "--m", "4")
    assert third == fourth


def test_rational_mode_rejects_float_literals(capsys, tmp_path):
    path = tmp_path / "g.json"
    game = make_game((2, 2), BATTLE_OF_SEXES.payoffs, "bos")
    path.write_text(serialize_game(game))
    code, out = run(capsys, "eval", str(path), "--profile", "[[0.5, 0.5], [0.5, 0.5]]")
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "parse-error"


@pytest.mark.parametrize(
    "payoff",
    [
        pytest.param("NaN", id="nan"),
        pytest.param("Infinity", id="infinity"),
        pytest.param("1e400", id="float-1e400"),
    ],
)
def test_json_float_literals_are_parse_errors(capsys, tmp_path, payoff):
    path = tmp_path / "g.json"
    path.write_text(
        '{"strategies": [["H", "T"], ["H", "T"]], '
        f'"payoffs": [[{payoff}, -1, -1, 1], [-1, 1, 1, -1]]}}'
    )
    code, out = run(capsys, "solve", str(path), "--eps", "1")
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "parse-error"


def test_non_integer_players_field_is_parse_error(capsys, tmp_path):
    path = tmp_path / "g.json"
    data = json.loads(serialize_game(make_game((2, 2), BATTLE_OF_SEXES.payoffs)))
    path.write_text(json.dumps(dict(data, players=2.0)))
    code, out = run(capsys, "solve", str(path), "--eps", "1")
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "parse-error"


@pytest.mark.parametrize("where", ["payoff", "eps", "profile"])
@pytest.mark.parametrize("value", ["1e30000000", "1e-30000000"])
def test_huge_decimal_exponent_is_a_quick_parse_error(capsys, tmp_path, where, value):
    # building the Fraction would take 10**30000000: far past a minute
    path = tmp_path / "g.json"
    payoff = f'"{value}"' if where == "payoff" else "1"
    path.write_text(f'{{"strategies": [["a", "b"]], "payoffs": [[{payoff}, 0]]}}')
    if where == "profile":
        argv = ["eval", str(path), "--profile", f'[["{value}", 1]]']
    else:
        argv = ["solve", str(path), "--eps", value if where == "eps" else "1"]
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "parse-error"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["solve", MP], id="missing-eps"),
        pytest.param(["solve", MP, "--eps", "1/10", "--m0", "x"], id="m0-not-int"),
        pytest.param(["fly", MP], id="unknown-subcommand"),
        pytest.param(["--mode", "fast", "solve", MP, "--eps", "1/10"], id="mode-fast"),
        pytest.param(
            ["--mode", "float", "solve", MP, "--eps", "1/10"], id="mode-float"
        ),
    ],
)
def test_usage_errors_are_json_parse_errors(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert json.loads(captured.out)["error"]["code"] == "parse-error"
    assert captured.err == ""


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(["--help"])
    assert info.value.code == 0
    assert "usage: cellnash" in capsys.readouterr().out


def _cold_parser(monkeypatch):
    # a parser cache of the test's own, empty until the next run_cli call;
    # without raising, the tests also run on a CLI that builds per call
    monkeypatch.setattr(
        cli, "_parser", functools.cache(cli.build_parser), raising=False
    )


def _outcome(capsys, argv, out_path):
    try:
        code = run_cli(list(argv))
    except SystemExit as exc:
        code = f"exit {exc.code}"
    wrote = out_path.exists()
    if wrote:
        out_path.unlink()
    return code, capsys.readouterr().out, wrote


@pytest.mark.parametrize(
    "sequence, codes",
    [
        pytest.param(
            [["solve", MP], ["solve", MP, "--eps", "1/10"]],
            [EXIT_INPUT_ERROR, EXIT_OK],
            id="usage-error-then-solve",
        ),
        pytest.param(
            [["solve", MP, "--eps", "1/10", "--out", "OUT"], ["solve", MP, "--eps", "1/10"]],
            [EXIT_OK, EXIT_OK],
            id="out-then-no-out",
        ),
        pytest.param(
            [["solve", MP, "--eps", "1/10"], ["eval", MP, "--profile", "[[1, 0], [1, 0]]"]],
            [EXIT_OK, EXIT_OK],
            id="solve-then-eval",
        ),
        pytest.param([["--help"], ["--help"]], ["exit 0", "exit 0"], id="help-twice"),
    ],
)
def test_reused_parser_leaks_nothing_between_calls(capsys, monkeypatch, tmp_path, sequence, codes):
    # each call in a sequence on one parser prints what the same call
    # prints on a fresh parser, and writes --out only when it is given
    out_path = tmp_path / "report.json"
    sequence = [[str(out_path) if a == "OUT" else a for a in argv] for argv in sequence]
    fresh = []
    for argv in sequence:
        _cold_parser(monkeypatch)
        fresh.append(_outcome(capsys, argv, out_path))
    _cold_parser(monkeypatch)
    reused = [_outcome(capsys, argv, out_path) for argv in sequence]
    assert reused == fresh
    assert [code for code, _, _ in reused] == codes
    assert [wrote for _, _, wrote in reused] == ["--out" in argv for argv in sequence]


def test_second_run_builds_no_parser(capsys, monkeypatch):
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    _cold_parser(monkeypatch)
    run(capsys, "solve", MP, "--eps", "1")
    assert len(built) == 7  # the top-level parser and one per subcommand
    built.clear()
    run(capsys, "eval", MP, "--profile", "[[1, 0], [1, 0]]")
    assert built == []


@pytest.mark.parametrize(
    "name", ["matching_pennies", "prisoners_dilemma", "one_player"]
)
def test_stdout_matches_golden_files(capsys, name):
    # stdout pinned byte for byte across changes to the code, the
    # "numeric_mode": "rational" field included
    path = os.path.join(DATA, f"{name}.json")
    uniform = [["1/2", "1/2"]] * (1 if name == "one_player" else 2)
    commands = {
        "solve": ["solve", path, "--eps", "1/10"],
        "eval": ["eval", path, "--profile", json.dumps(uniform)],
        "cells": ["cells", path, "--m", "4"],
    }
    if name != "one_player":
        commands["oracle"] = ["oracle", path, "--m", "4", "--support-enum"]
    for command, argv in commands.items():
        _, out = run(capsys, *argv)
        golden = os.path.join(GOLDEN, f"{name}.{command}.json")
        with open(golden, encoding="utf-8") as handle:
            assert out == handle.read(), command


@pytest.mark.parametrize(
    "name", ["one_player", "three_strategies", "four_strategies"]
)
def test_volume_check_matches_golden_files(capsys, tmp_path, name):
    # stdout and the sample CSV pinned byte for byte; the 4-strategy game
    # runs 3x3 determinants and cubic cell polynomials
    csv_path = tmp_path / "samples.csv"
    code, out = run(
        capsys, "volume-check", os.path.join(DATA, f"{name}.json"),
        "--m", "4", "--samples-out", str(csv_path),
    )
    assert code == EXIT_OK
    golden = os.path.join(GOLDEN, f"{name}.volume-check")
    with open(golden + ".json", encoding="utf-8") as handle:
        assert out == handle.read()
    with open(golden + ".csv", encoding="utf-8") as handle:
        assert csv_path.read_text(encoding="utf-8") == handle.read()


def test_python_dash_m_runs_the_cli():
    # the package this suite imports, run as ``python -m cellnash``; stdout
    # compared byte for byte
    src = os.path.dirname(os.path.dirname(cellnash.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cellnash", "solve", MP, "--eps", "1/10"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    with open(os.path.join(GOLDEN, "matching_pennies.solve.json"), "rb") as handle:
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, handle.read(), b"")


def test_deeply_nested_input_is_one_parse_error(tmp_path):
    # a game file or --profile nested 1,000 deep: one JSON error on stdout,
    # no traceback on stderr
    src = os.path.dirname(os.path.dirname(cellnash.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    deep = "[" * 1000 + "]" * 1000
    game = tmp_path / "deep.json"
    game.write_text(deep)
    for argv in (
        ["solve", str(game), "--eps", "0"],
        ["eval", MP, "--profile", deep],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "cellnash", *argv],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert (proc.returncode, proc.stderr) == (EXIT_INPUT_ERROR, b"")
        assert json.loads(proc.stdout)["error"]["code"] == "parse-error"


def test_over_long_output_is_parameter_out_of_range(capsys, tmp_path):
    # each payoff parses (4300 digits), but the gain 18e4299 has 4301
    path = tmp_path / "big.json"
    path.write_text(
        '{"strategies": [["a", "b"], ["c", "d"]], '
        '"payoffs": [["-9e4299", 0, "9e4299", 0], [0, 0, 0, 0]]}'
    )
    code, out = run(capsys, "eval", str(path), "--profile", "[[1, 0], [1, 0]]")
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "parameter-out-of-range"


def test_solve_unwritable_out_is_the_only_output(capsys, tmp_path):
    report = tmp_path / "missing" / "r.json"
    code, out = run(capsys, "solve", MP, "--eps", "1/10", "--out", str(report))
    assert code == EXIT_INPUT_ERROR
    data = json.loads(out)  # one JSON object, no report before it
    assert set(data) == {"error"}
    assert str(report) in data["error"]["message"]


def test_volume_check_unwritable_samples_out_is_the_only_output(capsys, tmp_path):
    samples = tmp_path / "missing" / "s.csv"
    code, out = run(capsys, "volume-check", ONE, "--m", "4", "--samples-out", str(samples))
    assert code == EXIT_INPUT_ERROR
    data = json.loads(out)
    assert set(data) == {"error"}
    assert str(samples) in data["error"]["message"]
