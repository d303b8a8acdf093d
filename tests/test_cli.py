"""End-to-end command-line checks driven through run_cli."""

import json
import os

import pytest

from cellnash import labeling, scalars, serialize_game, subdivision
from cellnash.cli import EXIT_INPUT_ERROR, EXIT_NOT_MET, EXIT_OK, run_cli

from conftest import BATTLE_OF_SEXES, count_calls, make_game

DATA = os.path.join(os.path.dirname(__file__), "data")
MP = os.path.join(DATA, "matching_pennies.json")
PD = os.path.join(DATA, "prisoners_dilemma.json")
ONE = os.path.join(DATA, "one_player.json")


@pytest.fixture(autouse=True)
def _rational_mode_after():
    # run_cli sets the process-wide mode; keep tests order-independent
    yield
    scalars.set_numeric_mode(scalars.RATIONAL)


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
    triangulations = count_calls(monkeypatch, subdivision, "triangulate")
    root_labels = count_calls(monkeypatch, labeling, "root_label")
    grid_labelings = count_calls(monkeypatch, labeling, "grid_labels")
    csv_path = tmp_path / "samples.csv"
    code, out = run(
        capsys, "volume-check", ONE, "--m", "8", "--samples-out", str(csv_path)
    )
    assert code == EXIT_OK
    assert json.loads(out)["cells"] == 8
    assert len(triangulations) == 1
    assert root_labels == []
    # whole-grid labelings: the volume polynomials, the certificate scan
    # and one per sample point (dim + 3 = 4 of them)
    assert len(grid_labelings) == 2 + 4


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


def test_float_mode_eval(capsys):
    code, out = run(
        capsys, "--mode", "float", "eval", MP, "--profile", "[[0.5, 0.5], [0.5, 0.5]]"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["max_regret"] == 0.0
    assert data["total"] == 0.0


def test_rational_mode_rejects_float_literals(capsys, tmp_path):
    path = tmp_path / "g.json"
    game = make_game((2, 2), BATTLE_OF_SEXES.payoffs, "bos")
    path.write_text(serialize_game(game))
    code, out = run(capsys, "eval", str(path), "--profile", "[[0.5, 0.5], [0.5, 0.5]]")
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "parse-error"


@pytest.mark.parametrize(
    "payoff, eps",
    [
        pytest.param("NaN", "1", id="nan"),
        pytest.param("Infinity", "1", id="infinity"),
        pytest.param("1e400", "1", id="float-1e400"),
        pytest.param("1" * 401, "1", id="401-digit-int"),
        pytest.param('"1e400"', "1", id="string-1e400"),
        pytest.param("1", "1e400", id="eps-1e400"),
    ],
)
def test_float_mode_rejects_non_finite_numbers(capsys, tmp_path, payoff, eps):
    path = tmp_path / "g.json"
    path.write_text(
        '{"strategies": [["H", "T"], ["H", "T"]], '
        f'"payoffs": [[{payoff}, -1, -1, 1], [-1, 1, 1, -1]]}}'
    )
    code, out = run(capsys, "--mode", "float", "solve", str(path), "--eps", eps)
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "parse-error"


def test_float_overflow_is_parameter_out_of_range(capsys, tmp_path):
    # finite payoffs whose gains overflow to inf, which JSON cannot carry
    one = tmp_path / "huge.json"
    one.write_text('{"strategies": [["a", "b"]], "payoffs": [[1e308, -1e308]]}')
    code, out = run(capsys, "--mode", "float", "eval", str(one), "--profile", "[[0, 1]]")
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "parameter-out-of-range"
    # at m=1 both players gain 1e308 at the uniform profile: the total is inf
    two = tmp_path / "huge2.json"
    two.write_text(
        '{"strategies": [["a", "b"], ["c", "d"]], '
        '"payoffs": [[1e308, 1e308, -1e308, -1e308], [1e308, -1e308, 1e308, -1e308]]}'
    )
    report = tmp_path / "report.json"
    code, out = run(
        capsys, "--mode", "float", "solve", str(two), "--eps", "1", "--m0", "1",
        "--out", str(report),
    )
    assert code == EXIT_INPUT_ERROR
    assert json.loads(out)["error"]["code"] == "parameter-out-of-range"
    assert not report.exists()
