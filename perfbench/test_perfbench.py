"""Self-tests of the benchmark.  Run from the checkout root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bench(*args, cwd=ROOT):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170, check=False)


def _smoke_ops(tmp_path, name, seed=workloads.FIXTURE_SEED):
    cn = run.import_fresh()
    ops = workloads.setup(cn, name, seed, str(tmp_path))
    return cn, [op for op in ops if workloads.SMOKE_OPS[name](op)]


def test_first_fixture_round_is_the_test_suite(tmp_path):
    spec = importlib.util.spec_from_file_location("suite_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    cn = run.import_fresh()
    ours = workloads.fixture_suite(cn)
    ops = workloads.setup(cn, "fixture-solve", 1, str(tmp_path))
    assert [op.game.payoffs for op in ops[:len(ours)]] == [g.payoffs for g in ours]
    theirs = conftest.fixture_suite()
    assert [(g.name, g.payoffs) for g in ours] == [(g.name, g.payoffs) for g in theirs]


def test_recorded_outputs_pass_and_a_tampered_byte_fails(tmp_path):
    cn, ops = _smoke_ops(tmp_path, "fixture-solve")
    expected = run.expected_digests(run.load_digests(), "fixture-solve", workloads.FIXTURE_SEED, ops)
    assert set(expected) == {op.group for op in ops}
    _, _, raws = run.run_pass(ops)
    assert run.Checker(cn, ops, expected).check_pass(raws) == 0

    code, text = raws[0]
    at = text.index('"converged"')
    tampered = list(raws)
    tampered[0] = (code, text[:at] + "'" + text[at + 1:])
    checker = run.Checker(cn, ops, expected)
    assert checker.check_pass(tampered) == 1
    assert any("digest" in p for p in checker.problems)


def test_changed_output_in_a_later_pass_fails(tmp_path):
    cn, ops = _smoke_ops(tmp_path, "fixture-solve")
    _, _, raws = run.run_pass(ops)
    checker = run.Checker(cn, ops, {})
    assert checker.check_pass(raws) == 0
    code, text = raws[1]
    raws[1] = (code, text.replace("1/", "2/", 1))
    assert checker.check_pass(raws) == 1


def test_independent_check_catches_a_wrong_regret(tmp_path):
    cn, ops = _smoke_ops(tmp_path, "fixture-solve")
    _, _, raws = run.run_pass(ops)
    code, text = raws[0]
    data = json.loads(text)
    data["final"]["max_regret"] = "123"
    assert workloads.check(cn, ops[0], (code, json.dumps(data, indent=2) + "\n"))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_span_self_times_sum_to_traced_wall(tmp_path, name):
    _, ops = _smoke_ops(tmp_path, name)
    tracer = Tracer()
    wall, _, _ = run.run_pass(ops, tracer)
    accounted = sum(tracer.self_s.values())
    assert abs(wall - accounted) <= run.ACCOUNTING_TOLERANCE * wall + 1e-3
    assert tracer.calls["bench.op"] == len(ops)


def test_tracer_restores_every_binding(tmp_path):
    cn, _ = _smoke_ops(tmp_path, "deep-scan")
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("cellnash")}
    tracer = Tracer()
    tracer.install()
    assert cn.search.root_label is not before["cellnash.search"]["root_label"]
    tracer.uninstall()
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert vars(sys.modules[name])[attr] is value


def test_scaling_multiplies_times_and_divides_rates():
    raw = {"wall_s": 2.0, "op_p50_ms": 4.0, "cells_per_s": 100.0, "peak_rss_mb": 30.0,
           "search.cells_scanned": 7, "labeling.us_per_label": 10.0}
    assert run.scaled(raw, 0.5) == {"wall_s": 1.0, "op_p50_ms": 2.0, "cells_per_s": 200.0,
                                    "peak_rss_mb": 30.0, "search.cells_scanned": 7,
                                    "labeling.us_per_label": 5.0}


def test_reference_block_leaves_the_collector_as_it_was():
    import gc
    assert gc.isenabled()
    probe = speed.SpeedProbe()
    assert probe.sample() > 0 and gc.isenabled()
    assert probe.maybe_sample() == 0.0  # not due again for a second
    assert probe.factor() == speed.NOMINAL_S / probe.samples[0]


def test_local_factor_follows_a_speed_switch():
    probe = speed.SpeedProbe()
    probe.times = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    probe.samples = [0.025] * 3 + [0.05] * 3
    assert probe.factor_at(1.0) == 1.0
    assert probe.factor_at(11.0) == 0.5
    assert probe.factor_at(100.0) == 0.5  # nothing in the window: the nearest block


def _final(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_runs_all_workloads():
    result = _final(_bench("--workload", "all", "--smoke", "--seconds", "0.2"))
    assert result["correct"] and result["failed"] == 0
    for name in run.WORKLOADS:
        for metric, unit in run.END_TO_END:
            entry = result["metrics"][f"{name}/{metric}"]
            assert entry["unit"] == unit and entry["value"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counters_repeat_across_runs(name):
    first, second = (
        _final(_bench("--workload", name, "--smoke", "--seconds", "0.2", "--trace", "1"))
        for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {metric for metric, _ in run.PER_LAYER}
    for counter in run.COUNTERS:
        assert first["metrics"][counter] == second["metrics"][counter]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "deep-scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
