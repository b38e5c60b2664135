"""Perf-regression gate: fresh probe runs vs committed baselines.

The simulator is deterministic — identical code and configuration
reproduce simulated metrics bit-for-bit — so committed benchmark
results double as regression baselines with *tight* tolerances: a 5%
drift in a simulated step time is a behavior change, not noise.
Wall-clock figures in the baselines (``wall_s``, ``events_per_s``)
are machine-dependent and never gated.

Six probes, each re-running a small, fixed slice of a committed
benchmark's configuration and comparing per-metric:

* ``overlap`` — barrier vs eager+priority step times for a model
  subset of ``BENCH_overlap.json`` (and the "eager is faster" bit);
* ``scale``   — the 64-worker hierarchical cell of
  ``BENCH_scale.json``: step time, trunk-uplink traffic volume,
  predicted wire bytes;
* ``serving`` — the batched serving run of ``BENCH_serving.json``:
  sustained throughput, p99 latency, completion count, and the
  torn-serve invariant (exactly zero);
* ``netreduce`` — one 64-worker cell of ``BENCH_netreduce.json``:
  in-network vs hierarchical step times, the per-worker wire-byte
  identity (measured egress ``== M``), the zero-spill invariant, and
  the "in-network is faster at scale" bit;
* ``lossy`` — one 8-worker hierarchical cell of ``BENCH_lossy.json``:
  lossy step time, the exact retransmitted-byte and loss-event counts
  (deterministic under the committed fault seed), the
  retransmit-overhead bound (``retx <= k x lost``, no exhausted retry
  budgets), and the loss-free RC/shared-QP clock identity;
* ``llm`` — one pipeline-training stage count of ``BENCH_llm.json``
  under both schedules (step times, the "1F1B bubbles less than
  GPipe" bit) plus the continuous vs best-static serving cells
  (decode throughput, TTFT p99, the zero-KV-leak invariant).

Exit status is nonzero when any gated metric regresses beyond its
tolerance, which is what lets CI fail the build.  ``--json`` dumps
the full comparison; ``--trajectory`` appends a compact gate record
to ``results/BENCH_telemetry.json`` so the telemetry file carries a
history of gate verdicts alongside the telemetry seed.

Usage::

    python -m repro.harness.regress       # every probe with a baseline
    python -m repro.harness.regress --probes scale
    python -m repro.harness.regress --tolerance 0.08 --json gate.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..models.zoo import get_model
from ..simnet.costmodel import MB

#: default relative tolerance for gated metrics
DEFAULT_TOLERANCE = 0.05

#: models the overlap probe re-runs (a subset keeps the gate fast;
#: names must exist in the committed BENCH_overlap.json)
DEFAULT_OVERLAP_MODELS = ("AlexNet", "FCN-5")

#: how many gate records --trajectory keeps in BENCH_telemetry.json
TRAJECTORY_KEEP = 20

PROBES = ("overlap", "scale", "serving", "netreduce", "lossy", "llm")


def baseline_file(probe: str) -> str:
    """The results file ``probe`` gates against (in ``--baseline-dir``)."""
    return f"BENCH_{probe}.json"


@dataclass
class Check:
    """One gated metric: fresh value vs committed baseline."""

    probe: str
    metric: str
    baseline: float
    fresh: float
    direction: str      # "lower_better" | "higher_better" | "match"
    tolerance: float
    #: filled by evaluate(): "ok" | "improved" | "regressed"
    verdict: str = ""

    def evaluate(self) -> str:
        base, fresh = self.baseline, self.fresh
        scale = max(abs(base), 1e-12)
        delta = (fresh - base) / scale
        if self.direction == "match":
            self.verdict = "ok" if abs(delta) <= self.tolerance \
                else "regressed"
        elif self.direction == "lower_better":
            if delta > self.tolerance:
                self.verdict = "regressed"
            elif delta < -self.tolerance:
                self.verdict = "improved"
            else:
                self.verdict = "ok"
        elif self.direction == "higher_better":
            if delta < -self.tolerance:
                self.verdict = "regressed"
            elif delta > self.tolerance:
                self.verdict = "improved"
            else:
                self.verdict = "ok"
        else:
            raise ValueError(f"unknown direction {self.direction!r}")
        return self.verdict

    def to_dict(self) -> Dict[str, object]:
        return {"probe": self.probe, "metric": self.metric,
                "baseline": self.baseline, "fresh": self.fresh,
                "direction": self.direction, "tolerance": self.tolerance,
                "verdict": self.verdict}


@dataclass
class GateReport:
    """Everything one gate invocation measured."""

    checks: List[Check] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def add(self, check: Check) -> None:
        check.evaluate()
        self.checks.append(check)

    @property
    def regressions(self) -> List[Check]:
        return [c for c in self.checks if c.verdict == "regressed"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.errors

    def to_dict(self) -> Dict[str, object]:
        return {"ok": self.ok,
                "checks": [c.to_dict() for c in self.checks],
                "regressions": len(self.regressions),
                "errors": list(self.errors)}


def _load_baseline(baseline_dir: str, probe: str) -> Optional[Dict]:
    path = os.path.join(baseline_dir, baseline_file(probe))
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


# -- probes ----------------------------------------------------------------------------


def probe_overlap(report: GateReport, baseline_dir: str, tolerance: float,
                  models: Sequence[str] = DEFAULT_OVERLAP_MODELS) -> None:
    """Re-run barrier vs eager+priority for a model subset."""
    from ..distributed.runner import run_training_benchmark

    baseline = _load_baseline(baseline_dir, "overlap")
    if baseline is None:
        report.errors.append("overlap: no BENCH_overlap.json baseline")
        return
    config = baseline["config"]
    by_model = {row["benchmark"]: row for row in baseline["models"]}
    common = dict(num_servers=config["num_servers"],
                  batch_size=config["batch_size"],
                  iterations=config["iterations"],
                  strategy=config["algorithm"],
                  fusion_bytes=int(config["fusion_mb"] * MB))
    for name in models:
        base_row = by_model.get(name)
        if base_row is None:
            report.errors.append(f"overlap: model {name!r} not in baseline")
            continue
        spec = get_model(name)
        barrier = run_training_benchmark(spec, "RDMA", eager_flush=False,
                                         priority_sched=False, **common)
        eager = run_training_benchmark(spec, "RDMA", eager_flush=True,
                                       priority_sched=True, **common)
        if barrier.crashed or eager.crashed:
            report.errors.append(f"overlap: {name} crashed: "
                                 f"{barrier.crash_reason or eager.crash_reason}")
            continue
        report.add(Check("overlap", f"{name}.barrier_step_ms",
                         base_row["barrier_step_ms"],
                         barrier.step_time * 1e3, "lower_better", tolerance))
        report.add(Check("overlap", f"{name}.eager_priority_step_ms",
                         base_row["eager_priority_step_ms"],
                         eager.step_time * 1e3, "lower_better", tolerance))
        if base_row["faster"] and not eager.step_time < barrier.step_time:
            report.errors.append(
                f"overlap: {name}: eager+priority no longer faster than "
                f"barrier ({eager.step_time * 1e3:.3f} ms vs "
                f"{barrier.step_time * 1e3:.3f} ms)")


def probe_scale(report: GateReport, baseline_dir: str, tolerance: float,
                workers: int = 64) -> None:
    """Re-run one hierarchical cell of the fat-tree scale sweep."""
    from ..distributed.runner import run_training_benchmark
    from .experiments import _scale_spec

    baseline = _load_baseline(baseline_dir, "scale")
    if baseline is None:
        report.errors.append("scale: no BENCH_scale.json baseline")
        return
    config = baseline["config"]
    entry = next((e for e in baseline["sweep"]
                  if e["workers"] == workers), None)
    strategy = config.get("collective", "hierarchical")
    base_rec = (entry or {}).get(strategy)
    if base_rec is None:
        report.errors.append(f"scale: no {strategy} baseline at "
                             f"n={workers}")
        return
    bench = run_training_benchmark(
        _scale_spec(), "RDMA", num_servers=workers,
        batch_size=config["batch_size"], iterations=config["iterations"],
        strategy=strategy, fusion_bytes=int(config["fusion_mb"] * MB),
        topology="fat-tree", hosts_per_rack=config["hosts_per_rack"],
        oversubscription=config["oversubscription"])
    if bench.crashed:
        report.errors.append(f"scale: n={workers} crashed: "
                             f"{bench.crash_reason}")
        return
    uplink = {name: s for name, s in bench.link_stats().items()
              if name.startswith("tor")}
    uplink_mb = sum(s["bytes_carried"] for s in uplink.values()) / MB
    report.add(Check("scale", f"n{workers}.step_ms",
                     base_rec["step_ms"], bench.step_time * 1e3,
                     "lower_better", tolerance))
    # Traffic volume drifting in either direction means the collective
    # changed shape, not just speed — gate symmetrically.
    report.add(Check("scale", f"n{workers}.uplink_mb",
                     base_rec["uplink_mb"], uplink_mb, "match", tolerance))
    report.add(Check("scale", f"n{workers}.predicted_wire_mb",
                     base_rec["predicted_wire_mb"],
                     (bench.predicted_wire_bytes or 0) / MB,
                     "match", tolerance))


def probe_serving(report: GateReport, baseline_dir: str,
                  tolerance: float) -> None:
    """Re-run the committed batched serving configuration."""
    from ..serving import run_serving_benchmark

    baseline = _load_baseline(baseline_dir, "serving")
    if baseline is None:
        report.errors.append("serving: no BENCH_serving.json baseline")
        return
    config = baseline["config"]
    label = f"batch-{config['max_batch']}"
    base_row = next((r for r in baseline["runs"] if r["run"] == label), None)
    if base_row is None:
        report.errors.append(f"serving: no {label!r} run in baseline")
        return
    run = run_serving_benchmark(
        get_model(config["model"]), replicas=config["replicas"],
        qps=config["qps"], max_batch=config["max_batch"],
        batch_timeout=config["batch_timeout"], slo_ms=config["slo_ms"],
        arrival=config["arrival"], requests=config["requests"],
        seed=config["seed"], priority_sched=True)
    report.add(Check("serving", f"{label}.throughput_rps",
                     base_row["throughput_rps"], run.throughput_rps,
                     "higher_better", tolerance))
    report.add(Check("serving", f"{label}.latency_p99_s",
                     base_row["latency"]["p99"],
                     run.latency.get("p99", 0.0), "lower_better", tolerance))
    report.add(Check("serving", f"{label}.completed",
                     base_row["completed"], run.completed,
                     "match", tolerance))
    if run.torn_serves != 0:
        report.errors.append(f"serving: {run.torn_serves} torn serves "
                             f"(invariant: 0)")


def probe_netreduce(report: GateReport, baseline_dir: str,
                    tolerance: float, workers: int = 64) -> None:
    """Re-run one in-network cell of the netreduce sweep."""
    from ..distributed.runner import run_training_benchmark

    baseline = _load_baseline(baseline_dir, "netreduce")
    if baseline is None:
        report.errors.append("netreduce: no BENCH_netreduce.json baseline")
        return
    config = baseline["config"]
    entry = next((e for e in baseline["sweep"]
                  if e["workers"] == workers and "innetwork" in e), None)
    if entry is None:
        report.errors.append(f"netreduce: no innetwork baseline at "
                             f"n={workers}")
        return
    model = str(entry["model"])
    spec = get_model(model)
    common = dict(num_servers=workers, batch_size=config["batch_size"],
                  iterations=config["iterations"],
                  fusion_bytes=int(config["fusion_mb"] * MB),
                  topology="fat-tree",
                  hosts_per_rack=config["hosts_per_rack"],
                  oversubscription=config["oversubscription"],
                  collect_metrics=True)
    fresh = {}
    for strategy in ("hierarchical", "innetwork"):
        bench = run_training_benchmark(spec, "RDMA", strategy=strategy,
                                       **common)
        if bench.crashed:
            report.errors.append(f"netreduce: {model}/{strategy}/"
                                 f"n{workers} crashed: "
                                 f"{bench.crash_reason}")
            return
        fresh[strategy] = bench
        report.add(Check("netreduce",
                         f"{model}.n{workers}.{strategy}_step_ms",
                         entry[strategy]["step_ms"],
                         bench.step_time * 1e3, "lower_better", tolerance))
    innet = fresh["innetwork"]
    # The wire-byte identity is exact in the simulator, so the match
    # tolerance here guards the accounting, not the schedule.
    report.add(Check("netreduce", f"{model}.n{workers}.innetwork_wire_mb",
                     entry["innetwork"]["wire_mb_per_worker"],
                     (innet.wire_bytes_per_worker() or 0.0) / MB,
                     "match", tolerance))
    groups = [v for k, v in (innet.innetwork or {}).items()
              if k != "plane"]
    spilled = sum(g["chunks_spilled"] for g in groups)
    if spilled:
        report.errors.append(f"netreduce: {spilled} chunks spilled to the "
                             f"host path (baseline: 0)")
    if entry.get("innetwork_speedup_vs_hierarchical", 0) > 1.0 and \
            not innet.step_time < fresh["hierarchical"].step_time:
        report.errors.append(
            f"netreduce: in-network no longer faster than hierarchical "
            f"at n={workers} ({innet.step_time * 1e3:.3f} ms vs "
            f"{fresh['hierarchical'].step_time * 1e3:.3f} ms)")


def probe_lossy(report: GateReport, baseline_dir: str,
                tolerance: float, workers: int = 8) -> None:
    """Re-run one lossy-transport cell plus the QP-mode identity."""
    from dataclasses import replace as _dc_replace

    from ..distributed.runner import (comm_config, run_training_benchmark,
                                      swap_comm_config)

    baseline = _load_baseline(baseline_dir, "lossy")
    if baseline is None:
        report.errors.append("lossy: no BENCH_lossy.json baseline")
        return
    config = baseline["config"]
    entry = next((e for e in baseline["sweep"]
                  if e["workers"] == workers
                  and e["strategy"] == "hierarchical"), None)
    if entry is None:
        report.errors.append(f"lossy: no hierarchical baseline at "
                             f"n={workers}")
        return
    rate = max(c["loss_rate"] for c in entry["cells"])
    base_cell = next(c for c in entry["cells"]
                     if c["loss_rate"] == rate)
    max_ratio = float(config.get("max_retx_ratio", 3.0))
    common = dict(num_servers=workers, batch_size=config["batch_size"],
                  iterations=config["iterations"],
                  strategy="hierarchical", topology="fat-tree",
                  hosts_per_rack=entry["hosts_per_rack"],
                  oversubscription=config["oversubscription"])
    spec = get_model(config["model"])
    bench = run_training_benchmark(spec, "RDMA", loss_rate=rate,
                                   fault_seed=config["fault_seed"],
                                   **common)
    if bench.crashed:
        report.errors.append(f"lossy: n={workers}/p={rate} crashed: "
                             f"{bench.crash_reason}")
        return
    injected = bench.stats.faults["injected"]["log"]
    recovery = bench.stats.faults["recovery"]
    lost_bytes = sum(e["size"] for e in injected if e["kind"] == "loss")
    retx_bytes = recovery["retransmitted_bytes"]
    report.add(Check("lossy", f"n{workers}.p{rate:g}.step_ms",
                     base_cell["step_ms"], bench.step_time * 1e3,
                     "lower_better", tolerance))
    # The fault schedule is seeded, so loss and retransmit accounting
    # reproduce exactly: any drift is an accounting change, not noise.
    report.add(Check("lossy", f"n{workers}.p{rate:g}.lost_bytes",
                     base_cell["lost_bytes"], lost_bytes,
                     "match", tolerance))
    report.add(Check("lossy", f"n{workers}.p{rate:g}.retransmitted_bytes",
                     base_cell["retransmitted_bytes"], retx_bytes,
                     "match", tolerance))
    if recovery["gave_up"]:
        report.errors.append(f"lossy: {recovery['gave_up']} transfers "
                             f"exhausted their retry budget (baseline: 0)")
    if lost_bytes and retx_bytes > max_ratio * lost_bytes:
        report.errors.append(
            f"lossy: retransmitted {retx_bytes}B for {lost_bytes}B lost "
            f"(bound: {max_ratio:g}x) — selective repeat degraded toward "
            f"go-back-N")
    rc = run_training_benchmark(spec, "RDMA", **common)
    previous = swap_comm_config(
        _dc_replace(comm_config(), qp_mode="shared"))
    try:
        shared = run_training_benchmark(spec, "RDMA", **common)
    finally:
        swap_comm_config(previous)
    if rc.stats.iteration_times != shared.stats.iteration_times:
        report.errors.append(
            "lossy: loss-free clocks diverged between RC and shared QP "
            "modes (baseline: bit-identical)")


def probe_llm(report: GateReport, baseline_dir: str, tolerance: float,
              stages: int = 4) -> None:
    """Re-run one pipeline-training stage count and both serving modes."""
    from ..distributed.model_parallel import pipeline_bubble_report
    from ..distributed.runner import run_training_benchmark
    from ..llm import run_llm_serving_benchmark

    baseline = _load_baseline(baseline_dir, "llm")
    if baseline is None:
        report.errors.append("llm: no BENCH_llm.json baseline")
        return

    train = baseline.get("train")
    if train is None:
        report.errors.append("llm: baseline has no 'train' section")
    else:
        config = train["config"]
        spec = get_model(config["model"])
        fresh = {}
        for schedule in ("gpipe", "1f1b"):
            base_cell = next((c for c in train["cells"]
                              if c["stages"] == stages
                              and c["schedule"] == schedule), None)
            if base_cell is None:
                report.errors.append(f"llm: no {schedule} baseline at "
                                     f"s={stages}")
                continue
            bench = run_training_benchmark(
                spec, "RDMA", num_servers=stages,
                batch_size=config["batch_size"],
                iterations=config["iterations"], strategy="llm",
                microbatches=config["microbatches"], schedule=schedule,
                collect_trace=True)
            if bench.crashed:
                report.errors.append(f"llm: {schedule}/s{stages} crashed: "
                                     f"{bench.crash_reason}")
                continue
            bubble = pipeline_bubble_report(bench.pipeline,
                                            bench.stall_report())
            fresh[schedule] = bubble
            report.add(Check("llm", f"s{stages}.{schedule}.step_ms",
                             base_cell["step_ms"], bench.step_time * 1e3,
                             "lower_better", tolerance))
            report.add(Check("llm", f"s{stages}.{schedule}.bubble_fraction",
                             base_cell["bubble_fraction"],
                             bubble["bubble_fraction"], "lower_better",
                             tolerance))
        if len(fresh) == 2 and train.get("onef1b_beats_gpipe_at_4plus") \
                and stages >= 4 and not (fresh["1f1b"]["bubble_fraction"]
                                         < fresh["gpipe"]["bubble_fraction"]):
            report.errors.append(
                f"llm: 1f1b no longer bubbles less than gpipe at "
                f"s={stages} ({fresh['1f1b']['bubble_fraction']:.4f} vs "
                f"{fresh['gpipe']['bubble_fraction']:.4f})")

    serve = baseline.get("serve")
    if serve is None:
        report.errors.append("llm: baseline has no 'serve' section")
        return
    config = serve["config"]
    spec = get_model(config["model"])
    static_rows = [r for r in serve["runs"] if r["mode"] == "static"]
    base_cont = next((r for r in serve["runs"]
                      if r["mode"] == "continuous"), None)
    base_static = (max(static_rows,
                       key=lambda r: r["decode_tokens_per_s"])
                   if static_rows else None)
    if base_cont is None or base_static is None:
        report.errors.append("llm: serve baseline is missing a mode")
        return
    common = dict(replicas=config["replicas"], qps=config["qps"],
                  requests=config["requests"], seed=config["seed"],
                  max_batch=config["max_batch"],
                  max_width=config["max_width"],
                  kv_budget_bytes=int(config["kv_budget_mb"] * MB))
    cont = run_llm_serving_benchmark(spec, mode="continuous", **common)
    static = run_llm_serving_benchmark(
        spec, mode="static", batch_timeout=base_static["batch_timeout"],
        **common)
    for label, base_row, run in (("continuous", base_cont, cont),
                                 ("static", base_static, static)):
        report.add(Check("llm", f"{label}.decode_tokens_per_s",
                         base_row["decode_tokens_per_s"],
                         run.decode_tokens_per_s, "higher_better",
                         tolerance))
        report.add(Check("llm", f"{label}.ttft_p99_s",
                         base_row["ttft"]["p99"],
                         run.ttft.get("p99", 0.0), "lower_better",
                         tolerance))
        report.add(Check("llm", f"{label}.completed",
                         base_row["completed"], run.completed,
                         "match", tolerance))
        if run.kv_leaked_bytes:
            report.errors.append(
                f"llm: {label} leaked {run.kv_leaked_bytes} KV-cache "
                f"bytes after drain (admission/eviction accounting "
                f"invariant: 0)")
    if serve.get("continuous_beats_static") \
            and not (cont.decode_tokens_per_s > static.decode_tokens_per_s
                     and cont.ttft.get("p99", 0.0)
                     <= static.ttft.get("p99", 0.0)):
        report.errors.append(
            f"llm: continuous batching no longer beats the best static "
            f"cell ({cont.decode_tokens_per_s:.0f} vs "
            f"{static.decode_tokens_per_s:.0f} tok/s; TTFT p99 "
            f"{cont.ttft.get('p99', 0.0) * 1e3:.1f} vs "
            f"{static.ttft.get('p99', 0.0) * 1e3:.1f} ms)")


_PROBE_FNS = {"overlap": probe_overlap, "scale": probe_scale,
              "serving": probe_serving, "netreduce": probe_netreduce,
              "lossy": probe_lossy, "llm": probe_llm}


# -- trajectory ------------------------------------------------------------------------


def _git_revision() -> str:
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha[:12]
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def append_trajectory(report: GateReport, path: str) -> None:
    """Append a compact gate record to the telemetry results file.

    The file keeps its telemetry-experiment payload untouched; the
    gate only appends to (and trims) its ``trajectory`` list, so
    ``BENCH_telemetry.json`` accumulates a bounded history of gate
    verdicts per revision.
    """
    payload: Dict[str, object] = {}
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    trajectory = payload.setdefault("trajectory", [])
    trajectory.append({
        "revision": _git_revision(),
        "ok": report.ok,
        "regressions": [c.to_dict() for c in report.regressions],
        "errors": list(report.errors),
        "metrics": {f"{c.probe}.{c.metric}": c.fresh
                    for c in report.checks},
    })
    del trajectory[:-TRAJECTORY_KEEP]
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


# -- CLI -------------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.regress",
        description="Compare fresh probe runs against committed "
                    "BENCH_*.json baselines; exit nonzero on regression.")
    parser.add_argument("--probes", default=None,
                        help=f"comma-separated subset of {PROBES}; a named "
                             "probe without a baseline is an error "
                             "(default: every probe whose baseline file "
                             "exists in --baseline-dir)")
    parser.add_argument("--baseline-dir", default="results",
                        help="directory holding the BENCH_*.json baselines")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="relative tolerance for gated metrics")
    parser.add_argument("--json", default=None,
                        help="dump the full comparison to this path")
    parser.add_argument("--trajectory", default=None,
                        help="append a gate record to this telemetry "
                             "results file (e.g. results/BENCH_telemetry"
                             ".json)")
    args = parser.parse_args(argv)
    if not 0.0 < args.tolerance < 1.0:
        parser.error(f"--tolerance must be in (0, 1), got {args.tolerance}")
    report = GateReport()
    if args.probes is None:
        # Not every experiment's results file is committed (netreduce
        # and lossy take minutes to regenerate): gate what has a
        # baseline and say what was left out.
        probes = [p for p in PROBES if os.path.exists(
            os.path.join(args.baseline_dir, baseline_file(p)))]
        for probe in PROBES:
            if probe not in probes:
                print(f"[regress] skipped   {probe}: no "
                      f"{baseline_file(probe)} in {args.baseline_dir}")
        if not probes:
            report.errors.append(
                f"no baseline for any probe in {args.baseline_dir}")
    else:
        probes = [p.strip() for p in args.probes.split(",") if p.strip()]
        for probe in probes:
            if probe not in _PROBE_FNS:
                parser.error(f"unknown probe {probe!r}; have {PROBES}")

    for probe in probes:
        print(f"[regress] probe: {probe}", flush=True)
        try:
            _PROBE_FNS[probe](report, args.baseline_dir, args.tolerance)
        except Exception as exc:  # noqa: BLE001 - a broken probe IS a failure
            report.errors.append(f"{probe}: probe raised {exc!r}")

    for check in report.checks:
        drift = ((check.fresh - check.baseline)
                 / max(abs(check.baseline), 1e-12) * 100)
        print(f"[regress] {check.verdict:9s} {check.probe}/{check.metric}: "
              f"{check.baseline:.6g} -> {check.fresh:.6g} ({drift:+.2f}%)")
    for error in report.errors:
        print(f"[regress] ERROR     {error}")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
    if args.trajectory:
        append_trajectory(report, args.trajectory)

    if report.ok:
        print(f"[regress] PASS: {len(report.checks)} checks, "
              f"0 regressions")
        return 0
    print(f"[regress] FAIL: {len(report.regressions)} regressions, "
          f"{len(report.errors)} errors")
    return 1


if __name__ == "__main__":
    sys.exit(main())
