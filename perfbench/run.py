#!/usr/bin/env python3
"""Benchmark for the cellnash package (stdlib only).

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fixture-solve --seed 104729 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every workload, one process each

One process runs one workload: a closed loop, one op at a time, repeating
the workload's fixed op list ("a pass") until ``--seconds`` is used up.
Set-up (import, generation from the seed, writing and parsing the game
files) is repeated before the loop and reported as its median.  Every
op's output is checked outside the timed loop: against digests recorded
in ``digests.json`` where the seed (or a seed-independent op) has them,
and always by independent re-verification.

Timings are reported in nominal seconds: a reference block (see
``speed.py``) is timed about once a second between ops, and each timing
is scaled, by the blocks timed around it, to a machine on which the block
takes 25 ms.  The readable table also gives the raw values.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced and reports the per-layer metrics.  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance stanza and a readable table.  Exit code 0 means the run
completed (read ``correct`` for the verdict); 2 means it could not start,
for example because ``src/cellnash`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from speed import SpeedProbe
from tracer import Tracer
from workloads import Crash

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("fixture-solve", "deep-scan", "oracle-audit")
SETUPS = 5
# largest gap tolerated between the traced wall time and the summed span
# self times, as a share of the traced wall time
ACCOUNTING_TOLERANCE = 0.01

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("cells_per_s", "cells/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer self times, as a share (percent) of the traced pass: metric ->
# the spans it sums.  A layer a workload never calls reads 0 here.
SHARES = {
    "labeling.root_label_pct": ("labeling.root_label",),
    "search.solve_self_pct": ("search.solve",),
    "search.representative_pct": ("search.representative",),
    "search.classify_cell_pct": ("search.classify_cell",),
    "game.gain_table_pct": ("game.gain_table",),
    "game.is_equilibrium_self_pct": ("game.is_equilibrium",),
    "subdivision.triangulate_pct": ("subdivision.triangulate", "subdivision.player_triangulations"),
    "subdivision.build_cell_pct": ("subdivision.build_product_cell",),
    "subdivision.cell_diameter_pct": ("subdivision.cell_diameter",),
    "oracle.support_enum_self_pct": ("oracle.support_enumeration_2p",),
    "oracle.grid_min_regret_self_pct": ("oracle.grid_min_regret",),
    "linalg.solve_affine_pct": ("linalg.solve_affine",),
    "linalg.determinant_pct": ("linalg.determinant",),
    "volume.total_volume_self_pct": ("volume.total_volume_polynomial",),
    "volume.moved_cell_volume_self_pct": ("volume.moved_cell_volume",),
    "cli.self_pct": ("cli.run_cli",),
    "gamefile.parse_game_pct": ("gamefile.parse_game",),
    "gamefile.report_json_pct": ("gamefile.report_json",),
    "bench.self_pct": ("bench.pass", "bench.op"),
}

PER_LAYER = tuple((name, "%") for name in SHARES) + (
    ("labeling.root_label_calls", "count"),
    ("labeling.us_per_label", "us"),
    ("labeling.label_coverage", "ratio"),
    ("search.cells_scanned", "count"),
    ("search.stages", "count"),
    ("search.certs_found", "count"),
    ("search.cert_yield", "ratio"),
    ("game.gain_table_calls", "count"),
    ("linalg.solve_affine_calls", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
)
# counters that must repeat exactly from pass to pass (and run to run)
COUNTERS = (
    "labeling.root_label_calls",
    "search.cells_scanned",
    "search.stages",
    "search.certs_found",
    "game.gain_table_calls",
    "linalg.solve_affine_calls",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.FIXTURE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run only each workload's cheapest ops, with one set-up",
    )
    return parser.parse_args(argv)


def source_dir(root):
    src = os.path.join(root, "src")
    if os.path.isfile(os.path.join(src, "cellnash", "__init__.py")):
        return src
    return None


def import_fresh():
    """Drop every loaded cellnash module and import the package again."""
    for name in [n for n in sys.modules if n == "cellnash" or n.startswith("cellnash.")]:
        del sys.modules[name]
    cn = importlib.import_module("cellnash")
    importlib.import_module("cellnash.cli")
    return cn


# ---------------------------------------------------------------- provenance


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root, args):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "setups": 1 if args.smoke else SETUPS,
        "parameters": workloads.PARAMETERS.get(args.workload, workloads.PARAMETERS),
    }


# ---------------------------------------------------------------- checking


def load_digests():
    try:
        with open(DIGESTS, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {"fixed": {}, "seeds": {}}


def expected_digests(digests, workload, seed, ops):
    """Recorded digest per group, where one exists for this seed."""
    fixed = digests.get("fixed", {}).get(workload, {})
    seeded = digests.get("seeds", {}).get(str(seed), {}).get(workload, {})
    out = {}
    for op in ops:
        table = seeded if op.seeded else fixed
        if op.group in table:
            out[op.group] = table[op.group]
    return out


class Checker:
    """Checks each pass's outputs outside the timed loop.

    The first pass gets the independent re-verification, the digest
    comparison and the report counts; later passes must reproduce the
    first pass's canonical text op for op.
    """

    def __init__(self, cn, ops, expected):
        self.cn = cn
        self.ops = ops
        self.expected = expected
        self.first = None
        self.bad = None
        self.problems = []
        self.facts = None

    def check_pass(self, raws):
        cn, ops = self.cn, self.ops
        texts = [workloads.canonical(cn, op, raw) for op, raw in zip(ops, raws)]
        if self.first is None:
            self.first = texts
            bad = set()
            totals = {"cells": 0, "stages": 0, "certs": 0, "profiles": 0, "volume_cells": 0}
            for idx, (op, raw) in enumerate(zip(ops, raws)):
                try:
                    problems = workloads.check(cn, op, raw)
                    for key, value in workloads.facts(cn, op, raw).items():
                        totals[key] += value
                except Exception as exc:  # a garbled output fails its op, not the run
                    problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
                for problem in problems:
                    bad.add(idx)
                    self.problems.append(f"{op.op_id}: {problem}")
            groups = {}
            for idx, op in enumerate(ops):
                groups.setdefault(op.group, []).append(idx)
            for group, members in groups.items():
                want = self.expected.get(group)
                if want is not None and workloads.digest(texts[i] for i in members) != want:
                    # a digest covers its whole group, so every member fails
                    bad.update(members)
                    self.problems.append(f"{group}: output digest differs from the record")
            self.facts = totals
            self.bad = bad
            return len(bad)
        failed = 0
        for idx, (text, first) in enumerate(zip(texts, self.first)):
            if idx in self.bad or text != first:
                failed += 1
                if idx not in self.bad:
                    self.problems.append(f"{ops[idx].op_id}: output changed between passes")
        return failed


# ---------------------------------------------------------------- measuring


def run_pass(ops, tracer=None, probe=None):
    """One timed pass over the op list; returns (wall, timings, raws), where
    ``timings`` holds each op's (start, seconds).

    With a speed probe, reference blocks run between ops and their time is
    left out of the pass's wall time."""
    raws = [None] * len(ops)
    timings = [None] * len(ops)
    paused = 0.0

    def loop():
        nonlocal paused
        for idx, op in enumerate(ops):
            start = perf_counter()
            try:
                raws[idx] = op.call() if tracer is None else tracer.span("bench.op", op.call)
            except Exception as exc:  # an undocumented exception fails the op, not the run
                raws[idx] = Crash(f"{type(exc).__name__}: {exc}")
            timings[idx] = (start, perf_counter() - start)
            if probe is not None:
                paused += probe.maybe_sample()

    gc.collect()
    if tracer is None:
        start = perf_counter()
        loop()
        return perf_counter() - start - paused, timings, raws
    tracer.install()
    try:
        start = perf_counter()
        tracer.span("bench.pass", loop)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    return wall, timings, raws


def run_phase(ops, checker, deadline, tracer=None, probe=None):
    """Whole passes until the next one would end past ``deadline`` (at
    least one).  Returns per-pass walls, per-pass op timings, failures and,
    when traced, one span snapshot per pass."""
    walls, timings, snapshots = [], [], []
    failed = 0
    while True:
        if tracer is not None:
            tracer.reset()
        wall, timing, raws = run_pass(ops, tracer, probe)
        walls.append(wall)
        timings.append(timing)
        if tracer is not None:
            snapshots.append(
                (dict(tracer.self_s), dict(tracer.calls), dict(tracer.site_calls))
            )
        failed += checker.check_pass(raws)
        del raws
        if perf_counter() + wall > deadline:
            break
    return walls, timings, failed, snapshots


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(snapshot, wall, facts):
    self_s, calls, site_calls = snapshot
    metrics = {
        name: 100 * sum(self_s.get(span, 0.0) for span in spans) / wall
        for name, spans in SHARES.items()
    }
    labels = calls.get("labeling.root_label", 0)
    search_labels = site_calls.get(("labeling.root_label", "cellnash.search"), 0)
    label_s = self_s.get("labeling.root_label", 0.0)
    metrics.update({
        "labeling.root_label_calls": labels,
        "labeling.us_per_label": 1e6 * label_s / labels if labels else 0.0,
        "labeling.label_coverage": search_labels / facts["profiles"] if facts["profiles"] else 0.0,
        "search.cells_scanned": facts["cells"],
        "search.stages": facts["stages"],
        "search.certs_found": facts["certs"],
        "search.cert_yield": facts["certs"] / facts["cells"] if facts["cells"] else 0.0,
        "game.gain_table_calls": calls.get("game.gain_table", 0),
        "linalg.solve_affine_calls": calls.get("linalg.solve_affine", 0),
        "trace.wall_s": wall,
        "trace.unaccounted_s": wall - sum(self_s.values()),
    })
    return metrics


def run_workload(args, root):
    """Set up, measure and check one workload in this process."""
    digests = load_digests()
    setups = 1 if args.smoke else SETUPS
    workroot = os.path.join(root, ".perfbench-work", str(os.getpid()))
    setup_times = []
    probe = SpeedProbe()
    # the first set-up creates the game files and later ones rewrite them:
    # creating thousands of files per run made set-up time drift with the
    # state of the file system
    os.makedirs(workroot)
    try:
        for _ in range(setups):
            probe.sample()
            start = perf_counter()
            cn = import_fresh()
            ops = workloads.setup(cn, args.workload, args.seed, workroot)
            setup_times.append((start, perf_counter() - start))
        if args.smoke:
            ops = [op for op in ops if workloads.SMOKE_OPS[args.workload](op)]
        checker = Checker(cn, ops, expected_digests(digests, args.workload, args.seed, ops))
        start = perf_counter()
        budget = args.seconds / 2 if args.trace else args.seconds
        walls, timings, failed, _ = run_phase(ops, checker, start + budget, probe=probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = len(walls) * len(ops)
        snapshots, traced_walls = [], []
        if args.trace:
            tracer = Tracer()
            traced_walls, _, traced_failed, snapshots = run_phase(
                ops, checker, start + args.seconds, tracer
            )
            failed += traced_failed
            attempted += len(traced_walls) * len(ops)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workroot))
        except OSError:
            pass  # another run still uses it

    facts = checker.facts
    wall = statistics.median(walls)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": checker.problems,
        "passes": len(walls),
        "ops": len(ops),
    }
    if not args.trace:
        raw = end_to_end(walls, timings, setup_times, facts, peak_rss_mb, None)
        result["metrics"] = end_to_end(walls, timings, setup_times, facts, peak_rss_mb, probe)
        result["samples"] = len(timings) * len(ops)
    else:
        per_pass = [layer_metrics(snap, w, facts) for snap, w in zip(snapshots, traced_walls)]
        raw = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                raw[name] = statistics.median(traced_walls) - wall
            elif unit == "count":  # repeats exactly (checked below)
                raw[name] = per_pass[0][name]
            else:
                raw[name] = statistics.median(p[name] for p in per_pass)
        result["counters_repeat"] = all(
            p[name] == per_pass[0][name] for p in per_pass for name in COUNTERS
        )
        result["accounted"] = all(
            abs(p["trace.unaccounted_s"]) <= ACCOUNTING_TOLERANCE * p["trace.wall_s"]
            for p in per_pass
        )
        result["traced_passes"] = len(traced_walls)
        result["metrics"] = scaled(raw, probe.factor())
    result["raw"] = raw
    result["reference_ms"] = 1e3 * statistics.median(probe.samples)
    return result


def end_to_end(walls, timings, setup_times, facts, peak_rss_mb, probe):
    """The end-to-end metrics, in nominal seconds when a probe is given,
    else as measured.  Each op's latency is scaled by the speed measured
    around it, and each pass's wall time by the same share as its ops."""
    def seconds(start, value):
        return value * probe.factor_at(start) if probe else value

    latencies = [[seconds(*t) for t in timing] for timing in timings]
    walls = [
        wall * sum(lat) / sum(s for _, s in timing)
        for wall, lat, timing in zip(walls, latencies, timings)
    ]
    wall = statistics.median(walls)
    # each op's median over the passes damps scheduler noise before the
    # percentiles are taken across ops
    per_op = [statistics.median(samples) for samples in zip(*latencies)]
    return {
        "wall_s": wall,
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_p95_ms": 1e3 * percentile(per_op, 95),
        "cells_per_s": (facts["cells"] + facts["volume_cells"]) / wall,
        "setup_s": statistics.median(seconds(*t) for t in setup_times),
        "peak_rss_mb": peak_rss_mb,
    }


def scaled(raw, factor):
    """Per-layer timings in nominal seconds: times times ``factor``."""
    units = dict(END_TO_END + PER_LAYER)
    out = {}
    for name, value in raw.items():
        if units[name] in ("s", "ms", "us"):
            value *= factor
        elif units[name] == "cells/s":
            value /= factor
        out[name] = value
    return out


# ---------------------------------------------------------------- output


def print_table(args, result):
    units = dict(END_TO_END + PER_LAYER)
    print(f"# {args.workload} seed={args.seed}: {result['passes']} untraced passes of "
          f"{result['ops']} ops" + (f", {result['traced_passes']} traced passes"
                                    if args.trace else ""))
    print(f"# reference block {result['reference_ms']:.3f} ms (median): timings are scaled to "
          f"nominal seconds by the blocks timed around them; raw values in brackets")
    for name, value in result["metrics"].items():
        note = ""
        if value != result["raw"][name]:
            note = f"  [{result['raw'][name]:.6f}]"
        if name.startswith("op_p"):
            note += f"  (over {result['ops']} per-op medians of {result['samples']} samples)"
        elif name == "wall_s":
            note += f"  (median of {result['passes']} passes)"
        print(f"{name:34s} {value:16.6f} {units[name]}{note}")
    if not args.trace:
        ratio = result["failed"] / result["attempted"]
        print(f"{'fail_ratio':34s} {ratio:16.6f} ratio  "
              f"({result['failed']} of {result['attempted']} ops)")
    for problem in result["problems"][:20]:
        print(f"! {problem}")


def final_line(result):
    correct = result["failed"] == 0 and result.get("counters_repeat", True)
    metrics = {name: {"value": value, "unit": dict(END_TO_END + PER_LAYER)[name]}
               for name, value in result["metrics"].items()}
    return json.dumps({"correct": correct, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_all(args):
    """Every workload in its own fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    src = source_dir(root)
    if src is None:
        print("perfbench: run from the root of a cellnash checkout "
              "(no src/cellnash here)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, src)
    print(json.dumps({"provenance": provenance(root, args)}))
    result = run_workload(args, root)
    print_table(args, result)
    if args.trace and not result["accounted"]:
        print("! span self times do not account for the traced wall time")
    if not result.get("counters_repeat", True):
        print("! deterministic counters differed between traced passes")
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
