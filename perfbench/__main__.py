"""``python3 -m perfbench run|all|check`` -- see ``perfbench/README.md``.

The parent process never imports the program.  It starts one fresh
interpreter (:mod:`perfbench.child`) per timed repetition and per pass of a
traced run, reduces the repetitions to one figure per metric, checks that
the simulated numbers repeat exactly, and prints the result twice: an
indented JSON document with every metric's value, unit and clock, then --
as the last line -- the one-line summary the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from .check import check_files, cross_workload
from .metrics import METRICS, driver_names
from .workloads import WORKLOADS, Workload, get_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
#: seconds one run measures unless ``--seconds`` says otherwise
#: (``run_seconds`` in BENCHMARK.json)
DEFAULT_SECONDS = 15
MIN_REPS = 3
CHILD_TIMEOUT_S = 170


def spawn_child(workload: Workload, seed: int, mode: str,
                quick: bool) -> dict:
    """Run one pass (see ``child.PASSES``) in a fresh, single-threaded
    interpreter."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit("perfbench: the program (src/repro) is not beside "
                         "perfbench/; run from a checkout of the repository")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    for pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[pool] = "1"
    argv = [sys.executable, "-m", "perfbench.child",
            "--workload", workload.name, "--seed", str(seed), "--pass", mode,
            "--spawned-at", repr(time.time())]
    if quick:
        argv.append("--quick")
    done = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: child for {workload.name} exited "
                         f"with {done.returncode}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def annotate(values: Dict[str, float]) -> Dict[str, dict]:
    """Attach unit and clock; an undeclared name is a hard error."""
    out = {}
    for name, value in values.items():
        metric = METRICS.get(name)
        if metric is None:
            raise SystemExit(f"perfbench: metric {name!r} is not declared "
                             "in perfbench/metrics.py")
        out[name] = {"value": value, "unit": metric.unit,
                     "clock": metric.clock}
    return out


def same_facts(a: Dict[str, dict], b: Dict[str, dict]) -> bool:
    """Equal on every fact both passes read (a pass that collects wire
    metrics knows more than one that does not)."""
    return all(a[cell][key] == b[cell][key]
               for cell in a for key in a[cell].keys() & b[cell].keys())


def rep_spread(samples: List[float], over_inputs: bool) -> float:
    """How far a run's own repetitions lie apart, as a share of their median
    (``check`` calls a comparison unresolved when this exceeds the bound).

    Repetitions of one input: their range.  Repetitions that each ran their
    own input lie apart by design; there it is the distance between their
    quartiles over the root of their number, the scale of the error of
    their median.
    """
    if len(samples) < 2:
        return 0.0
    if over_inputs:
        low, _, high = statistics.quantiles(samples, n=4)
        apart = (high - low) / math.sqrt(len(samples))
    else:
        apart = max(samples) - min(samples)
    return apart / statistics.median(samples)


NOT_DETERMINISTIC = ("simulated results differ between two passes over the "
                     "same inputs (a determinism bug, not noise)")


def measure(workload: Workload, seed: int, seconds: float,
            quick: bool) -> dict:
    """Timed repetitions, one fresh child each, until ``seconds`` are spent.

    The count is rounded to the nearest whole repetition, not up, so that a
    slow box does not run half as long again as a fast one.
    """
    reps: List[dict] = []
    seeds: List[int] = []
    spent = 0.0
    while True:
        seeds.append(workload.rep_seed(seed, len(reps)))
        reps.append(spawn_child(workload, seeds[-1], "measure", quick))
        spent += reps[-1]["metrics"]["wall_s"]
        enough = spent + 0.5 * spent / len(reps) >= seconds
        if quick or (enough and len(reps) >= MIN_REPS):
            break
    first = reps[0]
    problems = list(first["problems"])
    for rep_seed, rep in zip(seeds[1:], reps[1:]):
        # MIN_REPS > 1, so at least one repetition runs ``seed`` again
        if rep_seed == seed and not same_facts(rep["facts"], first["facts"]):
            problems.append(NOT_DETERMINISTIC)
        problems += [p for p in rep["problems"] if p not in problems]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    values = dict(first["metrics"], ops_failed_share=failed / attempted)
    # Repetitions of one input differ only by what the machine added, and it
    # only ever adds (page faults, a neighbour on the core), so the least of
    # them is the estimate; over different inputs it is the median.  Per
    # cell, then the sum: one disturbed cell does not cost a repetition.
    typical = statistics.median if workload.vary_seed else min
    cell_rows = []
    for index, row in enumerate(first["cells"]):
        samples = [rep["cells"][index]["host_s"] for rep in reps]
        cell_rows.append({"id": row["id"], "host_s": typical(samples),
                          "samples": samples})
    values["wall_s"] = sum(row["host_s"] for row in cell_rows)
    for key in ("setup_s", "peak_rss_mb"):
        values[key] = statistics.median(r["metrics"][key] for r in reps)
    metrics = annotate(values)
    for key in ("setup_s", "wall_s", "peak_rss_mb"):
        samples = [rep["metrics"][key] for rep in reps]
        metrics[key].update(min=min(samples), max=max(samples),
                            reps=len(samples),
                            spread=rep_spread(samples, key == "wall_s"
                                              and workload.vary_seed))
    return {"workload": workload.name, "seed": seed, "trace": 0,
            "quick": quick, "reps": len(reps), "metrics": metrics,
            "cells": cell_rows, "attempted": attempted, "failed": failed,
            "problems": problems, "correct": not problems}


def traced(workload: Workload, seed: int, quick: bool) -> dict:
    """The traced passes: per-layer numbers only, one fresh child each."""
    modes = ["count", "profile"]
    if workload.stall_pass:
        modes.insert(1, "stall")
    docs = {mode: spawn_child(workload, seed, mode, quick) for mode in modes}
    count, profile = docs["count"], docs["profile"]
    values: Dict[str, float] = {}
    problems: List[str] = []
    for mode in modes:
        values.update(docs[mode]["metrics"])
        problems += [p for p in docs[mode]["problems"] if p not in problems]
        if not same_facts(docs[mode]["facts"], count["facts"]):
            problems.append(f"{mode} pass: {NOT_DETERMINISTIC}")
    values["observability.profile_overhead_x"] = (
        profile["wall_s"] / count["wall_s"])
    if "stall" in docs:
        values["observability.trace_overhead_x"] = (
            docs["stall"]["wall_s"] / count["wall_s"])
    layers = {name[:-len(".self_s")]: value
              for name, value in profile["metrics"].items()
              if name.endswith(".self_s")}
    profiled_total_s = profile["profiled_total_s"]
    layer_rows = [{"layer": layer, "self_s": seconds,
                   "share": seconds / profiled_total_s}
                  for layer, seconds in sorted(layers.items(),
                                               key=lambda kv: -kv[1])]
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, f"{workload.name}.trace.json")
    with open(trace_file, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "quick": quick,
                   "layers": layer_rows,
                   "profiled_total_s": profiled_total_s,
                   "spans": {mode: docs[mode]["spans"] for mode in modes}},
                  fh, indent=1)
    return {"workload": workload.name, "seed": seed, "trace": 1,
            "quick": quick, "metrics": annotate(values),
            "pass_wall_s": {mode: docs[mode]["wall_s"] for mode in modes},
            "layers": layer_rows, "profiled_total_s": profiled_total_s,
            "trace_file": os.path.relpath(trace_file, ROOT),
            "attempted": count["attempted"], "failed": count["failed"],
            "problems": problems, "correct": not problems}


def driver_line(doc: dict) -> str:
    """The benchmark driver's contract: one JSON object, last on stdout.

    Every declared metric of the pass is present; one that does not exist
    on this workload (a serving percentile on a training workload) reads 0.
    """
    metrics = {}
    for name in driver_names(bool(doc["trace"])):
        value = doc["metrics"].get(name, {}).get("value", 0.0)
        metrics[name] = {"value": value, "unit": METRICS[name].unit}
    return json.dumps({"correct": doc["correct"],
                       "attempted": max(doc["attempted"], 1),
                       "failed": doc["failed"], "metrics": metrics})


def run_pass(name: str, seed: Optional[int], seconds: float, trace: int,
             quick: bool) -> dict:
    workload = get_workload(name)
    if seed is None:
        seed = workload.default_seed
    if trace:
        return traced(workload, seed, quick)
    return measure(workload, seed, seconds, quick)


def generator_note(name: str) -> Optional[str]:
    if WORKLOADS[name].cells[0].kind != "serve":
        return None
    return ("open loop; latency is simulated time from each request's "
            "scheduled arrival; the generator is itself simulated, so "
            "generator lag is 0 by construction")


def cmd_run(args) -> int:
    doc = run_pass(args.workload, args.seed, args.seconds, args.trace,
                   args.quick)
    note = generator_note(args.workload)
    if note:
        doc["note"] = note
    print(json.dumps(doc, indent=1))
    print(driver_line(doc))
    return 0 if doc["correct"] else 1


def cmd_all(args) -> int:
    results: Dict[str, dict] = {}
    for name in WORKLOADS:
        passes = {"measure": run_pass(name, args.seed, args.seconds, 0,
                                      args.quick),
                  "trace": run_pass(name, args.seed, args.seconds, 1,
                                    args.quick)}
        note = generator_note(name)
        if note:
            passes["note"] = note
        results[name] = passes
    summary = cross_workload(results)
    doc = {"results": results, "cross_workload": summary}
    print(json.dumps(doc, indent=1))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    correct = (not summary["problems"] and all(
        p["correct"] for passes in results.values()
        for p in passes.values() if isinstance(p, dict)))
    return 0 if correct else 1


def cmd_check(args) -> int:
    report, ok = check_files(args.a, args.b)
    print(report)
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="workload seed (default: serve trace 11, "
                            "fault seed 3)")
        p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                       help="host seconds one untraced run measures")
        p.add_argument("--quick", action="store_true",
                       help="smoke profile: 8-worker cells, 200 requests, "
                            "one repetition")

    run = sub.add_parser("run", help="one workload, one pass")
    run.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    run.add_argument("--trace", type=int, default=0, choices=(0, 1),
                     help="1: traced pass (per-layer numbers only)")
    common(run)
    run.set_defaults(func=cmd_run)

    every = sub.add_parser("all", help="the six workloads, both passes")
    every.add_argument("--out", help="also write the result set here "
                                     "(the input of `check`)")
    common(every)
    every.set_defaults(func=cmd_all)

    check = sub.add_parser("check", help="compare two result sets")
    check.add_argument("a")
    check.add_argument("b")
    check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
