#!/usr/bin/env python3
"""Record the benchmark's reference data.  Run from the checkout root::

    python3 perfbench/record.py digests
    python3 perfbench/record.py baseline --runs 10

``digests`` runs every workload once at the default seed and at the
held-out seed, refuses to record an output that fails its independent
check, and writes ``perfbench/digests.json``.  Seed-independent ops are
recorded once and must agree between the two seeds.

``baseline`` runs each workload ``--runs`` times untraced, each with
another seed (1, 2, ...), plus one traced run at the default seed, and
writes ``perfbench/baseline.json``: per end-to-end metric the median,
quartiles and spread (quartile distance over median) against the bound in
``BENCHMARK.json``, and the traced per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def record_digests(root):
    sys.path.insert(0, os.path.join(root, "src"))
    out = {"fixed": {}, "seeds": {}}
    workroot = os.path.join(root, ".perfbench-work", f"record-{os.getpid()}")
    try:
        for name in run.WORKLOADS:
            for seed in (workloads.FIXTURE_SEED, workloads.HELD_OUT_SEED):
                workdir = os.path.join(workroot, f"{name}-{seed}")
                os.makedirs(workdir)
                cn = run.import_fresh()
                ops = workloads.setup(cn, name, seed, workdir)
                _, _, raws = run.run_pass(ops)
                checker = run.Checker(cn, ops, {})
                if checker.check_pass(raws):
                    raise SystemExit(f"{name} seed {seed}: {checker.problems}")
                groups = {}
                for op, text in zip(ops, checker.first):
                    groups.setdefault((op.seeded, op.group), []).append(text)
                fixed = out["fixed"].setdefault(name, {})
                seeded = out["seeds"].setdefault(str(seed), {}).setdefault(name, {})
                for (is_seeded, group), texts in groups.items():
                    value = workloads.digest(texts)
                    table = seeded if is_seeded else fixed
                    if table.setdefault(group, value) != value:
                        raise SystemExit(f"{name}: fixed group {group} differs between seeds")
                print(f"{name} seed {seed}: {len(ops)} ops, {len(groups)} digest groups")
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _run(root, name, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


def record_baseline(root, runs):
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": seconds, "seeds": list(range(1, runs + 1)), "workloads": {}}
    for name in run.WORKLOADS:
        values, verdicts = {}, []
        for seed in out["seeds"]:
            prov, result = _run(root, name, seed, seconds, 0)
            verdicts.append(result)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        out["provenance"] = prov
        table = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            table[metric] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[metric], "steady": spread < bounds[metric] / 3,
                "values": vals,
            }
            print(f"  {metric:14s} median {median:12.5g}  spread {spread:6.3f}"
                  f"  (bound {bounds[metric]}{', not steady' if spread >= bounds[metric] / 3 else ''})")
        _, traced = _run(root, name, workloads.FIXTURE_SEED, seconds, 1)
        out["workloads"][name] = {
            "correct": all(v["correct"] for v in verdicts) and traced["correct"],
            "attempted": sum(v["attempted"] for v in verdicts),
            "failed": sum(v["failed"] for v in verdicts),
            "end_to_end": table,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("digests", "baseline"))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if run.source_dir(root) is None:
        raise SystemExit("run from the root of a cellnash checkout")
    if args.what == "digests":
        record_digests(root)
    else:
        record_baseline(root, args.runs)


if __name__ == "__main__":
    main()
