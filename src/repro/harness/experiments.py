"""One entry point per table and figure of the paper's evaluation.

Each function regenerates the corresponding result on the simulated
cluster and returns an :class:`ExperimentResult`.  ``scale`` arguments
trade fidelity for runtime: the defaults are sized for the benchmark
suite; pass larger iteration counts / denser sweeps for a full run
(see EXPERIMENTS.md for the recorded full outputs).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..models.convergence import APPS
from ..models.spec import MB, ModelSpec, VariableSpec
from ..models.zoo import (get_model, paper_model_names, paper_models)
from ..distributed.runner import (BenchmarkResult, comm_config,
                                  run_training_benchmark)
from ..workloads.microbench import MICRO_MECHANISMS, sweep_microbench
from .series import ExperimentResult


KB = 1024
GB = 1024 * MB

#: batch sweep of Figure 9 (paper: 1..64, 128 for some)
FIGURE9_BATCHES = (1, 4, 16, 32, 64)
FIGURE9_MECHANISMS = ("gRPC.TCP", "gRPC.RDMA", "RDMA")
#: the three scalability workloads of Figure 11
FIGURE11_MODELS = ("LSTM", "Inception-v3", "VGGNet-16")
FIGURE8_SIZES = (64 * KB, 256 * KB, 1 * MB, 4 * MB, 16 * MB, 64 * MB,
                 256 * MB, 1 * GB)


def table2() -> ExperimentResult:
    """Table 2: benchmark characteristics.

    Restricted to the paper's six benchmarks: the zoo has since grown
    transformer specs (``repro.llm``), but Table 2 reproduces the
    paper and must not drift as the zoo does.
    """
    result = ExperimentResult(
        experiment="Table 2", title="Deep learning benchmarks",
        columns=["type", "benchmark", "model_size_mb", "variable_tensors",
                 "sample_time_ms"])
    for spec in paper_models().values():
        result.add_row(spec.family, spec.name, round(spec.model_mb, 2),
                       spec.num_variables, round(spec.sample_time * 1e3, 2))
    return result


def figure7() -> ExperimentResult:
    """Figure 7: CCDF of variable tensor sizes across all benchmarks."""
    sizes = sorted(size for spec in paper_models().values()
                   for size in spec.tensor_sizes())
    total_capacity = sum(sizes)
    result = ExperimentResult(
        experiment="Figure 7",
        title="Complementary CDF of variable tensor sizes",
        columns=["size_threshold_bytes", "fraction_of_tensors_larger",
                 "fraction_of_capacity_in_larger"])
    thresholds = [64, 1 * KB, 10 * KB, 100 * KB, 1 * MB, 10 * MB, 100 * MB]
    arr = np.asarray(sizes)
    for threshold in thresholds:
        larger = arr > threshold
        result.add_row(threshold, round(float(larger.mean()), 4),
                       round(float(arr[larger].sum() / total_capacity), 4))
    result.note(f"{len(sizes)} variable tensors across "
                f"{len(paper_models())} benchmarks")
    result.note("paper: >50% of tensors exceed 10KB; >20% exceed 1MB; "
                "tensors >1MB hold 96% of capacity")
    return result


def figure8(sizes: Sequence[int] = FIGURE8_SIZES,
            iterations: int = 4) -> ExperimentResult:
    """Figure 8: two-server micro-benchmark transfer speed."""
    result = ExperimentResult(
        experiment="Figure 8",
        title="Send/receive micro-benchmark between two servers",
        columns=["mechanism", "message_bytes", "transfer_ms",
                 "throughput_gbps"])
    sweep = sweep_microbench(sizes, iterations=iterations)
    for mechanism, points in sweep.items():
        for point in points:
            ms = (None if point.transfer_seconds is None
                  else round(point.transfer_seconds * 1e3, 4))
            gbps = (None if point.throughput_gbps is None
                    else round(point.throughput_gbps, 2))
            result.add_row(mechanism, point.message_bytes, ms, gbps)
            if point.transfer_seconds is None:
                result.note(f"{mechanism} @ {point.message_bytes}B crashed: "
                            f"{point.crash_reason[:90]}")
    result.note("paper: gRPC.RDMA has no 1GB point (TensorFlow crashes)")
    return result


def figure9(models: Optional[Sequence[str]] = None,
            batches: Sequence[int] = FIGURE9_BATCHES,
            mechanisms: Sequence[str] = FIGURE9_MECHANISMS,
            num_servers: int = 8, iterations: int = 3) -> ExperimentResult:
    """Figure 9: throughput vs mini-batch size, 6 benchmarks."""
    result = ExperimentResult(
        experiment="Figure 9",
        title=f"Training throughput vs mini-batch size ({num_servers} servers)",
        columns=["benchmark", "mechanism", "batch_size",
                 "step_time_ms", "minibatches_per_s"])
    for name in (models or paper_model_names()):
        spec = get_model(name)
        for mechanism in mechanisms:
            for batch in batches:
                bench = run_training_benchmark(
                    spec, mechanism, num_servers=num_servers,
                    batch_size=batch, iterations=iterations)
                if bench.crashed:
                    result.add_row(name, mechanism, batch, None, None)
                    result.note(f"{name}/{mechanism}/b{batch} crashed: "
                                f"{bench.crash_reason[:80]}")
                else:
                    result.add_row(name, mechanism, batch,
                                   round(bench.step_time * 1e3, 2),
                                   round(bench.throughput, 2))
    return result


def figure10(steps: int = 150, num_servers: int = 8,
             iterations: int = 3) -> ExperimentResult:
    """Figure 10: convergence vs wall-clock for the three applications.

    The per-step metric comes from real SGD (mechanism-independent);
    the wall-clock axis is each mechanism's measured distributed step
    time.  gRPC.RDMA on SE crashes, exactly as in the paper.
    """
    result = ExperimentResult(
        experiment="Figure 10",
        title="Convergence of real applications (metric vs minutes)",
        columns=["app", "mechanism", "step", "minutes", "metric"])
    mechanisms = ("gRPC.TCP", "gRPC.RDMA", "RDMA")
    for app_name, app in APPS.items():
        spec: ModelSpec = app["spec"]()
        curve = app["train"](steps=steps)
        step_times: Dict[str, Optional[float]] = {}
        for mechanism in mechanisms:
            bench = run_training_benchmark(
                spec, mechanism, num_servers=num_servers, batch_size=32,
                iterations=iterations)
            if bench.crashed:
                step_times[mechanism] = None
                result.note(f"{app_name}/{mechanism} crashed: "
                            f"{bench.crash_reason[:80]}")
            else:
                step_times[mechanism] = bench.step_time
        sample_every = max(1, steps // 15)
        for mechanism, step_time in step_times.items():
            if step_time is None:
                continue
            for step in range(0, steps, sample_every):
                minutes = step * step_time / 60.0
                result.add_row(app_name, mechanism, step,
                               round(minutes, 3),
                               round(curve.values[step], 3))
    result.note("metric: perplexity for Seq2Seq, loss otherwise; "
                "per-step values are identical across mechanisms")
    return result


def figure11(models: Sequence[str] = FIGURE11_MODELS,
             server_counts: Sequence[int] = (1, 2, 4, 8),
             batch_size: int = 32, iterations: int = 3) -> ExperimentResult:
    """Figure 11: scalability (throughput vs number of servers)."""
    result = ExperimentResult(
        experiment="Figure 11",
        title=f"Scalability at mini-batch size {batch_size}",
        columns=["benchmark", "mechanism", "servers",
                 "minibatches_per_s", "speedup_vs_local"])
    for name in models:
        spec = get_model(name)
        local = run_training_benchmark(spec, "Local", num_servers=1,
                                       batch_size=batch_size,
                                       iterations=iterations)
        result.add_row(name, "Local", 1, round(local.throughput, 2), 1.0)
        for mechanism in ("gRPC.TCP", "gRPC.RDMA", "RDMA"):
            for servers in server_counts:
                bench = run_training_benchmark(
                    spec, mechanism, num_servers=servers,
                    batch_size=batch_size, iterations=iterations)
                if bench.crashed:
                    result.add_row(name, mechanism, servers, None, None)
                    continue
                # Aggregate throughput: every worker completes
                # `throughput` minibatches/s.
                aggregate = bench.throughput * servers
                result.add_row(name, mechanism, servers,
                               round(aggregate, 2),
                               round(aggregate / local.throughput, 2))
    result.note("speedup_vs_local: aggregate minibatch rate over the "
                "single-server no-communication baseline")
    return result


def figure12(batch_size: int = 8, num_servers: int = 8,
             iterations: int = 3,
             models: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Figure 12: sender-side memory-copy overhead (zero-copy on/off)."""
    result = ExperimentResult(
        experiment="Figure 12",
        title=f"Memory copy overhead at mini-batch size {batch_size}",
        columns=["benchmark", "rdma_ms", "rdma_cp_ms",
                 "zero_copy_gain_pct"])
    for name in (models or paper_model_names()):
        spec = get_model(name)
        fast = run_training_benchmark(spec, "RDMA", num_servers=num_servers,
                                      batch_size=batch_size,
                                      iterations=iterations)
        slow = run_training_benchmark(spec, "RDMA.cp",
                                      num_servers=num_servers,
                                      batch_size=batch_size,
                                      iterations=iterations)
        gain = (slow.step_time - fast.step_time) / fast.step_time * 100
        result.add_row(name, round(fast.step_time * 1e3, 2),
                       round(slow.step_time * 1e3, 2), round(gain, 1))
    result.note("paper: zero-copy brings up to 21% at batch 8; gains are "
                "small for compute-bound or many-small-tensor models")
    return result


def table3(batch_size: int = 32, num_servers: int = 8,
           iterations: int = 3,
           models: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Table 3: GPUDirect RDMA average mini-batch times (8 workers)."""
    result = ExperimentResult(
        experiment="Table 3",
        title="GPUDirect RDMA: average minibatch time (ms), 8 workers",
        columns=["benchmark", "rdma_ms", "rdma_gdr_ms", "improvement_pct"])
    for name in (models or paper_model_names()):
        spec = get_model(name)
        base = run_training_benchmark(spec, "RDMA.gpu",
                                      num_servers=num_servers,
                                      batch_size=batch_size,
                                      iterations=iterations)
        gdr = run_training_benchmark(spec, "RDMA+GDR",
                                     num_servers=num_servers,
                                     batch_size=batch_size,
                                     iterations=iterations)
        improvement = (base.step_time - gdr.step_time) / gdr.step_time * 100
        result.add_row(name, round(base.step_time * 1e3, 1),
                       round(gdr.step_time * 1e3, 1), round(improvement, 1))
    result.note("paper row order: AlexNet 32%, FCN-5 54%, VGG 13%, "
                "Inception 0.4%, LSTM 24%, GRU 19%")
    return result


def extension_allreduce(models: Sequence[str] = ("FCN-5", "VGGNet-16"),
                        server_counts: Sequence[int] = (2, 4, 8),
                        mechanisms: Sequence[str] = ("RDMA", "gRPC.TCP"),
                        batch_size: int = 32,
                        iterations: int = 3) -> ExperimentResult:
    """Extension: PS vs collective allreduce scalability (figure-11 style).

    Runs the same models over the parameter-server graph and the
    worker-to-worker ring / halving-doubling collectives, on RDMA and
    TCP, recording both step times and per-worker wire volume.  The
    measured wire bytes come from the simnet transfer log and should
    match the analytic ``2·M·(N-1)/N`` ring prediction.
    """
    result = ExperimentResult(
        experiment="Extension: allreduce",
        title=f"PS vs collective allreduce at mini-batch {batch_size}",
        columns=["benchmark", "strategy", "mechanism", "servers",
                 "step_time_ms", "minibatches_per_s", "speedup_vs_local",
                 "wire_mb_per_worker", "predicted_wire_mb"])
    for name in models:
        spec = get_model(name)
        local = run_training_benchmark(spec, "Local", num_servers=1,
                                       batch_size=batch_size,
                                       iterations=iterations)
        result.add_row(name, "local", "Local", 1,
                       round(local.step_time * 1e3, 2),
                       round(local.throughput, 2), 1.0, 0.0, 0.0)
        for strategy in ("ps", "ring", "halving-doubling"):
            for mechanism in mechanisms:
                for servers in server_counts:
                    bench = run_training_benchmark(
                        spec, mechanism, num_servers=servers,
                        batch_size=batch_size, iterations=iterations,
                        strategy=strategy, collect_metrics=True)
                    if bench.crashed:
                        result.add_row(name, strategy, mechanism, servers,
                                       None, None, None, None, None)
                        result.note(f"{name}/{strategy}/{mechanism}/"
                                    f"n{servers} crashed: "
                                    f"{bench.crash_reason[:80]}")
                        continue
                    aggregate = bench.throughput * servers
                    measured = bench.wire_bytes_per_worker()
                    predicted = bench.predicted_wire_bytes
                    result.add_row(
                        name, strategy, mechanism, servers,
                        round(bench.step_time * 1e3, 2),
                        round(aggregate, 2),
                        round(aggregate / local.throughput, 2),
                        None if measured is None else round(measured / MB, 2),
                        None if predicted is None else round(predicted / MB, 2))
    result.note("ring per-worker wire bytes follow 2*M*(N-1)/N; the PS "
                "graph moves 2*M per worker regardless of N")
    return result


def stallreport(model: str = "FCN-5", num_servers: int = 2,
                batch_size: int = 32, iterations: int = 3,
                strategy: str = "ring",
                mechanism: str = "RDMA") -> ExperimentResult:
    """Observability demo: per-iteration stall attribution (Figure-8 style).

    Runs one traced benchmark and decomposes each iteration's wall time
    into the critical-path executor's op / poll / poll-wait / wire-wait
    components.  This is also the cheap single-configuration target the
    ``--trace-out``/``--metrics-json`` capture recipe (EXPERIMENTS.md)
    and the CI smoke step use: one run exercises the executor, transfer
    protocol, collective, verb, and CQ-poller layers.
    """
    result = ExperimentResult(
        experiment="Stall report",
        title=(f"Per-iteration stall attribution: {model}/{mechanism}/"
               f"{strategy}, {num_servers} servers, batch {batch_size}"),
        columns=["iteration", "measured_ms", "op_ms", "poll_ms",
                 "poll_wait_ms", "wire_wait_ms", "sched_ms",
                 "coverage_pct", "overlapped_serialization_ms"])
    bench = run_training_benchmark(
        get_model(model), mechanism, num_servers=num_servers,
        batch_size=batch_size, iterations=iterations, strategy=strategy,
        collect_trace=True)
    if bench.crashed:
        result.note(f"benchmark crashed: {bench.crash_reason[:120]}")
        return result
    report = bench.stall_report()
    for it in report.iterations:
        comp = it.components
        result.add_row(
            it.iteration, round(it.duration * 1e3, 3),
            round(comp.get("op", 0.0) * 1e3, 3),
            round(comp.get("poll", 0.0) * 1e3, 3),
            round(comp.get("poll_wait", 0.0) * 1e3, 3),
            round(comp.get("wire_wait", 0.0) * 1e3, 3),
            round(comp.get("sched", 0.0) * 1e3, 3),
            round(it.coverage * 100, 2),
            round(it.overlapped_serialization * 1e3, 3))
    fractions = report.fractions()
    if fractions:
        share = ", ".join(f"{cat}={frac * 100:.1f}%"
                          for cat, frac in sorted(fractions.items()))
        result.note(f"critical-path stall shares: {share}")
    counts = bench.tracer.categories()
    result.note("span categories: "
                + ", ".join(f"{cat}={n}"
                            for cat, n in sorted(counts.items())))
    return result


def overlap(models: Optional[Sequence[str]] = None, num_servers: int = 4,
            batch_size: int = 32, iterations: int = 3,
            fusion_mb: float = 8.0, algorithm: str = "ring",
            json_path: Optional[str] = None) -> ExperimentResult:
    """Extension: priority scheduling + backward-overlapped eager flush.

    Compares two allreduce schedules over the same fused-bucket plan:

    * **barrier** — every fusion bucket waits for the full backward
      pass before flushing, and the wire serves transfers FIFO (the
      classic contiguous-booking pipe).
    * **eager+priority** — buckets flush as soon as their gradients
      exist (overlapping communication with the rest of backward), the
      wire is a preemptive priority quantum server, and the executor
      issues urgent sends first.

    Reports step times, the speedup, and each schedule's overlap
    efficiency (fraction of wire time hidden under critical-path
    compute — the figure the scheduler exists to raise).  Pass
    ``json_path`` to also dump the rows as JSON (the CI smoke step
    commits this as ``BENCH_overlap.json``).
    """
    fusion_bytes = int(fusion_mb * MB)
    result = ExperimentResult(
        experiment="Extension: overlap",
        title=(f"Priority + eager-flush scheduling vs post-backward "
               f"barrier ({num_servers} servers, batch {batch_size}, "
               f"{algorithm}, fusion {fusion_mb:g}MB)"),
        columns=["benchmark", "barrier_ms", "eager_priority_ms",
                 "speedup_pct", "barrier_overlap_pct",
                 "eager_overlap_pct", "faster"])
    records: List[Dict[str, object]] = []
    for name in (models or paper_model_names()):
        spec = get_model(name)
        common = dict(num_servers=num_servers, batch_size=batch_size,
                      iterations=iterations, strategy=algorithm,
                      fusion_bytes=fusion_bytes, collect_trace=True)
        barrier = run_training_benchmark(spec, "RDMA", eager_flush=False,
                                         priority_sched=False, **common)
        eager = run_training_benchmark(spec, "RDMA", eager_flush=True,
                                       priority_sched=True, **common)
        if barrier.crashed or eager.crashed:
            reason = barrier.crash_reason or eager.crash_reason or "?"
            result.add_row(name, None, None, None, None, None, None)
            result.note(f"{name} crashed: {reason[:90]}")
            continue
        speedup = ((barrier.step_time - eager.step_time)
                   / barrier.step_time * 100)
        barrier_eff = barrier.stall_report().overlap_efficiency()
        eager_eff = eager.stall_report().overlap_efficiency()
        faster = eager.step_time < barrier.step_time
        result.add_row(
            name, round(barrier.step_time * 1e3, 3),
            round(eager.step_time * 1e3, 3), round(speedup, 2),
            None if barrier_eff is None else round(barrier_eff * 100, 1),
            None if eager_eff is None else round(eager_eff * 100, 1),
            faster)
        records.append({
            "benchmark": name,
            "barrier_step_ms": barrier.step_time * 1e3,
            "eager_priority_step_ms": eager.step_time * 1e3,
            "speedup_pct": speedup,
            "barrier_overlap_efficiency": barrier_eff,
            "eager_overlap_efficiency": eager_eff,
            "faster": faster,
        })
    faster_count = sum(1 for r in records if r["faster"])
    result.note(f"eager+priority faster on {faster_count}/{len(records)} "
                f"benchmarks")
    if json_path is not None:
        payload = {
            "experiment": "overlap",
            "config": {"num_servers": num_servers,
                       "batch_size": batch_size,
                       "iterations": iterations,
                       "fusion_mb": fusion_mb,
                       "algorithm": algorithm},
            "models": records,
            "faster_count": faster_count,
            "model_count": len(records),
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return result


def chaos(seeds: Sequence[int] = (0, 1, 2), model: str = "FCN-5",
          num_servers: int = 2, batch_size: int = 8, iterations: int = 3,
          fault_spec: str = ("drop:p=0.05;partial:p=0.04,frac=0.6;"
                             "blackhole:p=0.02;straggler:p=0.04,delay=8e-4"),
          json_path: Optional[str] = None) -> ExperimentResult:
    """Extension: chaos harness — seeded faults against the recovery layer.

    Runs one small training job fault-free, then once per seed with the
    same fault spec, and reports how each schedule was absorbed: faults
    injected by kind, retries/timeouts, QP re-establishments, TCP
    degradations, and the step-time slowdown the recovery cost.  Every
    row must end ``completed=True`` — a hang or crash here is a
    recovery-layer bug, and the CI smoke step fails on it.  Pass
    ``json_path`` to dump the rows (CI uploads it as the fault-report
    artifact).
    """
    spec = get_model(model)
    common = dict(num_servers=num_servers, batch_size=batch_size,
                  iterations=iterations)
    clean = run_training_benchmark(spec, "RDMA", **common)
    result = ExperimentResult(
        experiment="Extension: chaos",
        title=(f"Fault injection & recovery ({model}, {num_servers} "
               f"servers, spec '{fault_spec}')"),
        columns=["seed", "injected", "retries", "timeouts", "reconnects",
                 "tcp_fallbacks", "step_ms", "slowdown_pct", "completed"])
    records: List[Dict[str, object]] = []
    for seed in seeds:
        run = run_training_benchmark(spec, "RDMA", fault_spec=fault_spec,
                                     fault_seed=seed, **common)
        completed = not run.crashed
        if not completed:
            result.add_row(seed, None, None, None, None, None, None, None,
                           False)
            result.note(f"seed {seed} crashed: {run.crash_reason[:90]}")
            records.append({"seed": seed, "completed": False,
                            "crash_reason": run.crash_reason})
            continue
        faults = run.stats.faults or {}
        injected = faults.get("injected", {})
        recovery = faults.get("recovery") or {}
        slowdown = ((run.step_time - clean.step_time)
                    / clean.step_time * 100 if clean.step_time else 0.0)
        result.add_row(seed, injected.get("total", 0),
                       recovery.get("retries", 0),
                       recovery.get("timeouts", 0),
                       recovery.get("qp_reconnects", 0),
                       recovery.get("fallback_transfers", 0),
                       round(run.step_time * 1e3, 3), round(slowdown, 1),
                       True)
        records.append({
            "seed": seed, "completed": True,
            "injected": injected.get("total", 0),
            "injected_by_kind": injected.get("by_kind", {}),
            "recovery": recovery,
            "step_ms": run.step_time * 1e3,
            "slowdown_pct": slowdown,
        })
    survived = sum(1 for r in records if r["completed"])
    result.note(f"clean step {clean.step_time * 1e3:.3f} ms; "
                f"{survived}/{len(records)} seeds recovered to completion")
    if json_path is not None:
        payload = {
            "experiment": "chaos",
            "config": {"model": model, "num_servers": num_servers,
                       "batch_size": batch_size, "iterations": iterations,
                       "fault_spec": fault_spec, "seeds": list(seeds)},
            "clean_step_ms": clean.step_time * 1e3,
            "seeds": records,
            "recovered_count": survived,
            "seed_count": len(records),
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return result


def serving(model: str = "FCN-5", requests: int = 600, seed: int = 7,
            json_path: Optional[str] = None) -> ExperimentResult:
    """Extension: the inference serving plane, both headline effects.

    Four runs of the same deployment shape (taken from the serving
    config, so the CLI's ``--replicas``/``--qps``/``--max-batch``/
    ``--batch-timeout``/``--slo-ms`` flags steer this experiment):

    * **batch=1 vs batch=N** at fixed replicas — dynamic batching must
      raise sustained throughput (the batcher amortizes per-batch
      dispatch and rides the GPU's batch-saturation curve);
    * **FIFO vs priority wire scheduling** with bulk training traffic
      co-located on the replica links — tagging serving transfers at
      high WorkRequest priority must strictly lower inference p99.

    Every row also carries the weight-publication counters (publishes,
    zero-copy version swaps, torn serves — the last must be 0).  Pass
    ``json_path`` to dump the rows plus the two headline booleans (CI
    commits this as ``BENCH_serving.json`` and fails unless both hold).
    """
    from ..serving import run_serving_benchmark, serving_config
    cfg = serving_config()
    spec = get_model(model)
    common = dict(replicas=cfg.replicas, qps=cfg.qps,
                  batch_timeout=cfg.batch_timeout, slo_ms=cfg.slo_ms,
                  arrival=cfg.arrival, admission_limit=cfg.admission_limit,
                  broadcast=cfg.broadcast, requests=requests, seed=seed)
    result = ExperimentResult(
        experiment="Extension: serving",
        title=(f"Inference serving plane: {model}, {cfg.replicas} replicas, "
               f"{cfg.qps:g} qps offered, SLO {cfg.slo_ms:g} ms"),
        columns=["run", "max_batch", "priority_sched", "co_located_training",
                 "completed", "shed", "throughput_rps", "p50_ms", "p99_ms",
                 "slo_attainment", "mean_batch", "swaps", "torn"])
    runs = {
        "batch-1": run_serving_benchmark(
            spec, max_batch=1, priority_sched=True, **common),
        f"batch-{cfg.max_batch}": run_serving_benchmark(
            spec, max_batch=cfg.max_batch, priority_sched=True, **common),
        "fifo+training": run_serving_benchmark(
            spec, max_batch=cfg.max_batch, priority_sched=False,
            background_training=True, **common),
        "priority+training": run_serving_benchmark(
            spec, max_batch=cfg.max_batch, priority_sched=True,
            background_training=True, **common),
    }
    records: List[Dict[str, object]] = []
    for name, run in runs.items():
        result.add_row(
            name, run.max_batch, run.priority_sched,
            run.background_training, run.completed, run.shed,
            round(run.throughput_rps, 1),
            round(run.latency.get("p50", 0.0) * 1e3, 2),
            round(run.latency.get("p99", 0.0) * 1e3, 2),
            round(run.slo_attainment, 3),
            round(run.mean_batch_size, 2), run.swaps, run.torn_serves)
        records.append({"run": name, **run.to_dict()})
    batched = runs[f"batch-{cfg.max_batch}"]
    unbatched = runs["batch-1"]
    batching_wins = batched.throughput_rps > unbatched.throughput_rps
    fifo = runs["fifo+training"]
    prio = runs["priority+training"]
    priority_wins = (prio.latency.get("p99", 0.0)
                     < fifo.latency.get("p99", 0.0))
    torn_total = sum(run.torn_serves for run in runs.values())
    result.note(f"dynamic batching: {unbatched.throughput_rps:.0f} -> "
                f"{batched.throughput_rps:.0f} rps sustained "
                f"(batching_wins={batching_wins})")
    result.note(f"co-located training p99: FIFO "
                f"{fifo.latency.get('p99', 0.0) * 1e3:.2f} ms vs priority "
                f"{prio.latency.get('p99', 0.0) * 1e3:.2f} ms "
                f"(priority_wins={priority_wins})")
    result.note(f"torn serves across all runs: {torn_total} (must be 0)")
    if json_path is not None:
        payload = {
            "experiment": "serving",
            "config": {"model": model, "replicas": cfg.replicas,
                       "qps": cfg.qps, "max_batch": cfg.max_batch,
                       "batch_timeout": cfg.batch_timeout,
                       "slo_ms": cfg.slo_ms, "arrival": cfg.arrival,
                       "requests": requests, "seed": seed},
            "runs": records,
            "batching_wins": batching_wins,
            "priority_wins": priority_wins,
            "torn_serves_total": torn_total,
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return result


def _scale_spec(variable_mb: float = 24.0, num_variables: int = 2,
                sample_time: float = 0.004) -> ModelSpec:
    """A synthetic model sized for the scale sweep.

    Every variable exceeds the 16 MiB dense limit, so its replicas are
    size-only and — storage follows content — so are the gradients,
    fusion buffers and chunks computed from them, whatever their size:
    a 256-worker run costs simulator events, not numpy arithmetic or
    resident RAM, which is the regime the scale pass optimizes.
    """
    elements = int(variable_mb * MB) // 4
    variables = tuple(VariableSpec(f"synth/v{i}", (elements,))
                      for i in range(num_variables))
    total_mb = variable_mb * num_variables
    return ModelSpec(name=f"Synth-{total_mb:g}MB", family="FCN",
                     variables=variables, sample_time=sample_time)


def scale(worker_counts: Sequence[int] = (64,),
          hosts_per_rack: Optional[int] = None,
          oversubscription: Optional[float] = None, iterations: int = 2,
          batch_size: int = 1, fusion_mb: float = 64.0,
          max_flat_ring_workers: int = 128,
          collective: Optional[str] = None,
          json_path: Optional[str] = None) -> ExperimentResult:
    """Extension: multi-rack scale sweep on an oversubscribed fat tree.

    For each worker count, trains the synthetic large-tensor model on a
    fat-tree fabric (``hosts_per_rack`` wide racks, ``oversubscription``
    : 1 uplinks) twice: a flat ring allreduce — whose ``2·(N-1)`` step
    chain crosses the rack boundary on R edges — and the rack-aware
    hierarchical collective.  Reports step times, per-rack trunk
    traffic, uplink queueing, and the simulator's event throughput for
    each run.  Flat ring is skipped above ``max_flat_ring_workers``
    (its transfer count grows ~N× faster than the hierarchical one);
    the hierarchical rows keep going.  Pass ``json_path`` to dump the
    sweep (CI commits this as ``BENCH_scale.json`` and fails unless
    hierarchical beats flat ring wherever both ran).

    The hierarchy pays off from about four racks up: at two racks the
    inter-rack phase still moves ``M`` bytes per rack over the trunk
    with barely any pipeline depth, and the flat ring's longer chain
    keeps the uplink busier.  The canonical shapes here (8-wide racks,
    8+ racks, 4:1) are squarely in the winning regime.
    """
    import time as _time

    spec = _scale_spec()
    fusion_bytes = int(fusion_mb * MB)
    cfg = comm_config()
    # A fat-tree shape configured via --topology/--hosts-per-rack/
    # --oversubscription is authoritative; otherwise the sweep's
    # canonical 8-wide racks at 4:1.
    if hosts_per_rack is None:
        hosts_per_rack = (cfg.hosts_per_rack
                          if cfg.topology == "fat-tree"
                          and cfg.hosts_per_rack else 8)
    if oversubscription is None:
        oversubscription = (cfg.oversubscription
                            if cfg.topology == "fat-tree" else 4.0)
    treatment = collective or cfg.collective
    strategies = (("ring",) if treatment == "ring"
                  else ("ring", treatment))
    result = ExperimentResult(
        experiment="Extension: scale",
        title=(f"Fat-tree scale sweep: {spec.name}, racks of "
               f"{hosts_per_rack}, {oversubscription:g}:1 uplinks"),
        columns=["workers", "racks", "strategy", "step_ms", "uplink_mb",
                 "uplink_queue_ms", "max_uplink_util_pct", "sim_events",
                 "events_per_s", "wall_s"])
    sweep: List[Dict[str, object]] = []
    all_faster = True
    for workers in worker_counts:
        if workers % hosts_per_rack != 0:
            raise ValueError(f"{workers} workers do not tile into racks "
                             f"of {hosts_per_rack}")
        racks = workers // hosts_per_rack
        entry: Dict[str, object] = {"workers": workers, "racks": racks,
                                    "hosts_per_rack": hosts_per_rack,
                                    "oversubscription": oversubscription}
        for strategy in strategies:
            if strategy == "ring" and workers > max_flat_ring_workers:
                result.add_row(workers, racks, strategy, None, None, None,
                               None, None, None, None)
                entry["ring"] = None
                continue
            started = _time.time()
            bench = run_training_benchmark(
                spec, "RDMA", num_servers=workers, batch_size=batch_size,
                iterations=iterations, strategy=strategy,
                fusion_bytes=fusion_bytes, topology="fat-tree",
                hosts_per_rack=hosts_per_rack,
                oversubscription=oversubscription)
            wall = _time.time() - started
            if bench.crashed:
                raise RuntimeError(f"scale run {strategy}/n{workers} "
                                   f"crashed: {bench.crash_reason}")
            stats = bench.link_stats()
            uplink = {name: s for name, s in stats.items()
                      if name.startswith("tor")}
            uplink_bytes = sum(s["bytes_carried"] for s in uplink.values())
            queue_s = sum(s["queue_seconds"] for s in uplink.values())
            max_util = max((s["utilization"] for s in uplink.values()),
                           default=0.0)
            events = bench.sim_events
            record = {
                "step_ms": bench.step_time * 1e3,
                "uplink_mb": uplink_bytes / MB,
                "uplink_queue_ms": queue_s * 1e3,
                "max_uplink_utilization": max_util,
                "predicted_wire_mb": (bench.predicted_wire_bytes or 0) / MB,
                "sim_events": events,
                "events_per_s": events / wall if wall > 0 else 0.0,
                "wall_s": wall,
            }
            entry[strategy] = record
            result.add_row(workers, racks, strategy,
                           round(record["step_ms"], 3),
                           round(record["uplink_mb"], 1),
                           round(record["uplink_queue_ms"], 3),
                           round(max_util * 100, 1), events,
                           round(record["events_per_s"]), round(wall, 1))
        ring_rec = entry.get("ring")
        hier_rec = entry.get(treatment) if treatment != "ring" else None
        if ring_rec and hier_rec:
            speedup = ((ring_rec["step_ms"] - hier_rec["step_ms"])
                       / ring_rec["step_ms"] * 100)
            entry["hierarchical_speedup_pct"] = speedup
            all_faster = all_faster and speedup > 0
            result.note(f"n={workers}: {treatment} "
                        f"{hier_rec['step_ms']:.2f} ms vs ring "
                        f"{ring_rec['step_ms']:.2f} ms "
                        f"({speedup:+.1f}% faster)")
        sweep.append(entry)
    result.note(f"model {spec.name} ({spec.model_mb:.0f} MB in "
                f"{spec.num_variables} virtual tensors), batch "
                f"{batch_size}, {iterations} iterations")
    if json_path is not None:
        payload = {
            "experiment": "scale",
            "config": {"model": spec.name, "model_mb": spec.model_mb,
                       "hosts_per_rack": hosts_per_rack,
                       "oversubscription": oversubscription,
                       "batch_size": batch_size, "iterations": iterations,
                       "fusion_mb": fusion_mb,
                       "collective": treatment,
                       "worker_counts": list(worker_counts)},
            "sweep": sweep,
            "hierarchical_beats_ring": all_faster,
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return result


def netreduce(worker_counts: Sequence[int] = (8, 64, 128),
              hosts_per_rack: int = 8, oversubscription: float = 4.0,
              models: Sequence[str] = ("GRU", "Inception-v3", "FCN-5"),
              iterations: int = 2, batch_size: int = 1,
              fusion_mb: float = 64.0, max_flat_ring_workers: int = 8,
              json_path: Optional[str] = None) -> ExperimentResult:
    """Extension: in-network reduction vs host collectives, validated.

    For each model and worker count, trains on an oversubscribed fat
    tree under three allreduce backends: the flat ring
    (``2·M·(N-1)/N`` per-worker wire bytes), the rack-hierarchical
    host collective, and the switch-aggregated in-network path (``M``
    per worker: one write up to the ToR, one result back down).  Every
    run collects wire metrics, so each cell reports its measured
    per-worker egress against the analytic prediction — the in-network
    cells must land within 1% of ``M`` with zero chunks spilled to the
    host path.  The flat ring's transfer chain grows ~N× faster than
    the others', so it only runs up to ``max_flat_ring_workers``.

    The default model subset spans the zoo's size range (28 MB GRU,
    93 MB Inception-v3 with its 196-tensor fusion stress, 205 MB
    FCN-5).  The 512 MB VGGNet-16 is deliberately not in the default
    sweep: the *hierarchical comparator's* per-link metrics capture at
    128 workers scales with ``model_bytes x workers`` and costs tens
    of GB of resident memory; run it at 8-64 workers explicitly if
    wanted.  Pass ``json_path`` to dump the sweep — the file is
    rewritten after every completed cell, so a long sweep that dies
    keeps everything finished so far (CI commits the full run as
    ``BENCH_netreduce.json`` and the regression gate's ``netreduce``
    probe re-runs one cell against it).
    """
    import time as _time

    result = ExperimentResult(
        experiment="Extension: netreduce",
        title=(f"Switch-aggregated allreduce: racks of {hosts_per_rack}, "
               f"{oversubscription:g}:1 uplinks"),
        columns=["benchmark", "workers", "strategy", "step_ms",
                 "wire_mb_per_worker", "predicted_mb", "wire_err_pct",
                 "spilled", "degraded"])
    fusion_bytes = int(fusion_mb * MB)
    sweep: List[Dict[str, object]] = []
    wire_ok = True
    beats_at_scale = True

    def _dump() -> None:
        # Rewritten after every completed cell: a multi-hour sweep
        # that dies keeps every cell finished so far.
        if json_path is None:
            return
        payload = {
            "experiment": "netreduce",
            "config": {"models": list(models),
                       "worker_counts": list(worker_counts),
                       "hosts_per_rack": hosts_per_rack,
                       "oversubscription": oversubscription,
                       "batch_size": batch_size,
                       "iterations": iterations,
                       "fusion_mb": fusion_mb,
                       "max_flat_ring_workers": max_flat_ring_workers},
            "sweep": sweep,
            "innetwork_wire_within_1pct": wire_ok,
            "innetwork_beats_hierarchical_at_64plus": beats_at_scale,
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    for name in models:
        spec = get_model(name)
        for workers in worker_counts:
            if workers % hosts_per_rack != 0:
                raise ValueError(f"{workers} workers do not tile into "
                                 f"racks of {hosts_per_rack}")
            entry: Dict[str, object] = {
                "model": name, "model_mb": spec.model_mb,
                "workers": workers, "racks": workers // hosts_per_rack,
            }
            strategies = (("hierarchical", "innetwork")
                          if workers > max_flat_ring_workers
                          else ("ring", "hierarchical", "innetwork"))
            for strategy in strategies:
                started = _time.time()
                bench = run_training_benchmark(
                    spec, "RDMA", num_servers=workers,
                    batch_size=batch_size, iterations=iterations,
                    strategy=strategy, fusion_bytes=fusion_bytes,
                    topology="fat-tree", hosts_per_rack=hosts_per_rack,
                    oversubscription=oversubscription,
                    collect_metrics=True)
                wall = _time.time() - started
                if bench.crashed:
                    raise RuntimeError(f"netreduce {name}/{strategy}/"
                                       f"n{workers} crashed: "
                                       f"{bench.crash_reason}")
                measured = bench.wire_bytes_per_worker() or 0.0
                predicted = bench.predicted_wire_bytes or 0.0
                err_pct = ((measured - predicted) / predicted * 100
                           if predicted else 0.0)
                spilled = degraded = 0
                if bench.innetwork is not None:
                    groups = [v for k, v in bench.innetwork.items()
                              if k != "plane"]
                    spilled = sum(g["chunks_spilled"] for g in groups)
                    degraded = sum(g["rounds_degraded"] for g in groups)
                record = {
                    "step_ms": bench.step_time * 1e3,
                    "wire_mb_per_worker": measured / MB,
                    "predicted_wire_mb": predicted / MB,
                    "wire_err_pct": err_pct,
                    "chunks_spilled": spilled,
                    "rounds_degraded": degraded,
                    "wall_s": wall,
                }
                entry[strategy] = record
                if strategy == "innetwork":
                    wire_ok = wire_ok and abs(err_pct) <= 1.0 \
                        and spilled == 0
                result.add_row(name, workers, strategy,
                               round(record["step_ms"], 3),
                               round(record["wire_mb_per_worker"], 1),
                               round(record["predicted_wire_mb"], 1),
                               round(err_pct, 3), spilled, degraded)
            hier = entry["hierarchical"]
            innet = entry["innetwork"]
            speedup = hier["step_ms"] / innet["step_ms"]
            entry["innetwork_speedup_vs_hierarchical"] = speedup
            if workers >= 64:
                beats_at_scale = beats_at_scale and speedup > 1.0
            result.note(f"{name} n={workers}: innetwork "
                        f"{innet['step_ms']:.2f} ms vs hierarchical "
                        f"{hier['step_ms']:.2f} ms ({speedup:.2f}x), "
                        f"wire {innet['wire_mb_per_worker']:.1f} MB/worker "
                        f"({innet['wire_err_pct']:+.3f}% vs M)")
            sweep.append(entry)
            _dump()
    result.note(f"in-network wire bytes within 1% of M everywhere: "
                f"{wire_ok}")
    result.note(f"in-network beats hierarchical at every n>=64 cell: "
                f"{beats_at_scale}")
    _dump()
    return result


def telemetry(model: str = "FCN-5", num_servers: int = 8,
              hosts_per_rack: int = 4, batch_size: int = 32,
              iterations: int = 3, trace_sample: float = 0.05,
              straggler_host: str = "server5",
              straggler_delay_ms: float = 2.0,
              json_path: Optional[str] = None) -> ExperimentResult:
    """Extension: fleet telemetry + online anomaly detection, validated.

    Three runs of one fat-tree hierarchical configuration:

    * **untraced** — the timing reference;
    * **traced (clean)** — full telemetry with a ``trace_sample``
      span-retention budget; must keep *bit-identical* iteration times
      to the untraced run (tracing is retrospective bookkeeping and
      never yields) while dropping most spans, and must raise **zero**
      incidents at default thresholds;
    * **traced + straggler** — the same run with a seeded straggler
      fault on one host; the MAD detector must name exactly that host,
      with the flight-recorder dump attached to the incident.

    Pass ``json_path`` to dump the validation (CI commits this as
    ``BENCH_telemetry.json``; the perf-regression gate appends its
    verdict history to the same file's ``trajectory`` list).
    """
    from dataclasses import replace as _dc_replace

    from ..distributed.runner import swap_comm_config

    spec = get_model(model)
    delay = straggler_delay_ms * 1e-3
    fault = (f"straggler:host={straggler_host},p=1.0,delay={delay}")
    common = dict(num_servers=num_servers, batch_size=batch_size,
                  iterations=iterations, strategy="hierarchical",
                  topology="fat-tree", hosts_per_rack=hosts_per_rack)
    result = ExperimentResult(
        experiment="Extension: telemetry",
        title=(f"Fleet telemetry: {model}, {num_servers} workers in racks "
               f"of {hosts_per_rack}, span sampling {trace_sample:g}"),
        columns=["run", "step_ms", "spans_kept", "spans_dropped",
                 "incidents", "detected"])
    untraced = run_training_benchmark(spec, "RDMA", **common)
    previous = swap_comm_config(
        _dc_replace(comm_config(), trace_sample=trace_sample))
    try:
        clean = run_training_benchmark(spec, "RDMA", collect_trace=True,
                                       **common)
        faulted = run_training_benchmark(spec, "RDMA", collect_trace=True,
                                         fault_spec=fault, fault_seed=1,
                                         **common)
    finally:
        swap_comm_config(previous)
    for run in (untraced, clean, faulted):
        if run.crashed:
            raise RuntimeError(f"telemetry run crashed: {run.crash_reason}")

    identical = (clean.stats.iteration_times
                 == untraced.stats.iteration_times)
    detected = sorted({i.subject for i in faulted.incidents
                       if i.kind == "straggler"})
    straggler_found = detected == [straggler_host]
    flight_attached = any(i.flight for i in faulted.incidents
                          if i.subject == straggler_host)

    result.add_row("untraced", round(untraced.step_time * 1e3, 3),
                   None, None, None, None)
    for label, run in (("traced-clean", clean),
                       ("traced-straggler", faulted)):
        result.add_row(label, round(run.step_time * 1e3, 3),
                       len(run.tracer.spans), run.tracer.dropped_spans,
                       len(run.incidents),
                       ",".join(sorted({i.subject
                                        for i in run.incidents})) or "-")
    result.note(f"traced iteration clocks identical to untraced: "
                f"{identical}")
    result.note(f"clean run incidents: {len(clean.incidents)} (must be 0)")
    result.note(f"straggler {straggler_host} detected: {straggler_found} "
                f"(flight dump attached: {flight_attached})")
    fleet = (clean.tracer.telemetry.sketches.get("verb_latency:fleet")
             if clean.tracer.telemetry is not None else None)
    if fleet is not None:
        summary = fleet.to_dict()
        result.note(f"fleet verb latency: mean "
                    f"{summary['mean'] * 1e6:.1f} us, p99 "
                    f"{summary.get('p99', 0.0) * 1e6:.1f} us over "
                    f"{summary['count']} verbs")
    if json_path is not None:
        def _run_record(label: str, run: BenchmarkResult) -> Dict[str, object]:
            record: Dict[str, object] = {
                "run": label,
                "step_ms": run.step_time * 1e3,
                "iteration_times": list(run.stats.iteration_times),
            }
            if run.tracer is not None:
                record["spans_kept"] = len(run.tracer.spans)
                record["spans_dropped"] = run.tracer.dropped_spans
                record["incidents"] = [i.to_dict() for i in run.incidents]
            return record

        payload = {
            "experiment": "telemetry",
            "config": {"model": model, "num_servers": num_servers,
                       "hosts_per_rack": hosts_per_rack,
                       "batch_size": batch_size, "iterations": iterations,
                       "trace_sample": trace_sample,
                       "straggler_host": straggler_host,
                       "straggler_delay_ms": straggler_delay_ms},
            "runs": [_run_record("untraced", untraced),
                     _run_record("traced-clean", clean),
                     _run_record("traced-straggler", faulted)],
            "traced_untraced_identical": identical,
            "fault_free_incidents": len(clean.incidents),
            "straggler_detected": straggler_found,
            "flight_dump_attached": flight_attached,
            "trajectory": [],
        }
        if os.path.exists(json_path):
            # Preserve the regression gate's verdict history.
            with open(json_path) as fh:
                old = json.load(fh)
            payload["trajectory"] = old.get("trajectory", [])
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return result


def lossy(worker_counts: Sequence[int] = (8, 64, 128),
          loss_rates: Sequence[float] = (0.0, 1e-4, 1e-3),
          oversubscription: float = 4.0, model: str = "GRU",
          iterations: int = 2, batch_size: int = 1,
          max_flat_ring_workers: int = 8, max_retx_ratio: float = 3.0,
          fault_seed: int = 3,
          json_path: Optional[str] = None) -> ExperimentResult:
    """Extension: loss-tolerant transport on a PFC-less fabric, validated.

    For each worker count and allreduce backend (flat ring up to
    ``max_flat_ring_workers``, rack-hierarchical and switch-aggregated
    in-network on the oversubscribed fat tree), trains under a sweep of
    packet-loss probabilities.  The ``loss`` fault kind drops posted
    verbs ECN-coupled to trunk utilization; recovery answers with
    chunk-granular selective repeat, so the sweep validates the two
    transport invariants end to end:

    * **loss-free identity** — the ``p=0`` cell runs under both QP
      modes (connected RC and DCT-style shared endpoints) and their
      iteration clocks must be bit-identical;
    * **O(lost) recovery** — every lossy cell's ``ROLE_RETRANSMIT``
      bytes stay within ``max_retx_ratio`` of the injected-loss bytes
      (go-back-N would re-send whole transfers and blow the bound), and
      no channel exhausts its retry budget.

    Rack width follows the netreduce discipline: 4-host racks at 8
    workers, 8-host racks at 64+.  Pass ``json_path`` to dump the sweep
    (rewritten after every cell; CI commits a full run as
    ``BENCH_lossy.json`` and the regression gate's ``lossy`` probe
    re-runs one cell against it).
    """
    import time as _time
    from dataclasses import replace as _dc_replace

    from ..distributed.runner import swap_comm_config
    from ..simnet.verbs import ROLE_RETRANSMIT

    spec = get_model(model)
    result = ExperimentResult(
        experiment="Extension: lossy",
        title=(f"Loss-tolerant transport: {model}, "
               f"{oversubscription:g}:1 fat-tree uplinks"),
        columns=["workers", "strategy", "loss_pct", "step_ms",
                 "slowdown", "losses", "retx", "retx_ratio", "gave_up"])
    sweep: List[Dict[str, object]] = []
    retx_ok = True
    retx_ok_at_scale = True
    qp_modes_identical = True

    def _dump() -> None:
        if json_path is None:
            return
        payload = {
            "experiment": "lossy",
            "config": {"model": model,
                       "worker_counts": list(worker_counts),
                       "loss_rates": list(loss_rates),
                       "oversubscription": oversubscription,
                       "batch_size": batch_size,
                       "iterations": iterations,
                       "max_flat_ring_workers": max_flat_ring_workers,
                       "max_retx_ratio": max_retx_ratio,
                       "fault_seed": fault_seed},
            "sweep": sweep,
            "qp_modes_bit_identical_loss_free": qp_modes_identical,
            "retx_within_bound": retx_ok,
            "retx_within_bound_at_128_workers": retx_ok_at_scale,
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    for workers in worker_counts:
        hosts_per_rack = 4 if workers <= 8 else 8
        strategies = (("hierarchical", "innetwork")
                      if workers > max_flat_ring_workers
                      else ("ring", "hierarchical", "innetwork"))
        for strategy in strategies:
            entry: Dict[str, object] = {
                "workers": workers, "strategy": strategy,
                "hosts_per_rack": hosts_per_rack, "cells": [],
            }
            # Appended before the cells run so the per-cell _dump()
            # keeps partial entries of a long sweep that dies.
            sweep.append(entry)
            clean_step = None
            for rate in loss_rates:
                started = _time.time()
                bench = run_training_benchmark(
                    spec, "RDMA", num_servers=workers,
                    batch_size=batch_size, iterations=iterations,
                    strategy=strategy, topology="fat-tree",
                    hosts_per_rack=hosts_per_rack,
                    oversubscription=oversubscription,
                    loss_rate=rate or None, fault_seed=fault_seed,
                    collect_metrics=rate > 0.0)
                if bench.crashed:
                    raise RuntimeError(
                        f"lossy {strategy}/n{workers}/p={rate} crashed: "
                        f"{bench.crash_reason}")
                cell: Dict[str, object] = {
                    "loss_rate": rate,
                    "step_ms": bench.step_time * 1e3,
                    "iteration_times": list(bench.stats.iteration_times),
                    "wall_s": _time.time() - started,
                }
                if rate == 0.0:
                    # The loss-free cell doubles as the QP-mode identity
                    # check: shared endpoints must keep the RC clock.
                    clean_step = cell["step_ms"]
                    previous = swap_comm_config(
                        _dc_replace(comm_config(), qp_mode="shared"))
                    try:
                        shared = run_training_benchmark(
                            spec, "RDMA", num_servers=workers,
                            batch_size=batch_size, iterations=iterations,
                            strategy=strategy, topology="fat-tree",
                            hosts_per_rack=hosts_per_rack,
                            oversubscription=oversubscription)
                    finally:
                        swap_comm_config(previous)
                    identical = (shared.stats.iteration_times
                                 == bench.stats.iteration_times)
                    qp_modes_identical = qp_modes_identical and identical
                    cell["shared_qp_identical"] = identical
                    losses = lost_bytes = retx = 0
                    retx_bytes = gave_up = 0
                    ratio = 0.0
                else:
                    injected = bench.stats.faults["injected"]["log"]
                    recovery = bench.stats.faults["recovery"]
                    losses = sum(1 for e in injected
                                 if e["kind"] == "loss")
                    lost_bytes = sum(e["size"] for e in injected
                                     if e["kind"] == "loss")
                    # Count retransmissions on the wire, not in the
                    # recovery layer: in-network uplink losses are
                    # re-issued by the switch plane and never pass
                    # through a RecoveryManager.
                    retx = bench.metrics.count(role=ROLE_RETRANSMIT)
                    retx_bytes = bench.metrics.bytes_by_role().get(
                        ROLE_RETRANSMIT, 0)
                    gave_up = recovery["gave_up"]
                    ratio = (retx_bytes / lost_bytes) if lost_bytes else 0.0
                    bounded = (gave_up == 0 and
                               (lost_bytes == 0
                                or ratio <= max_retx_ratio))
                    retx_ok = retx_ok and bounded
                    if workers >= 128:
                        retx_ok_at_scale = retx_ok_at_scale and bounded
                    cell.update({"losses": losses,
                                 "lost_bytes": lost_bytes,
                                 "retransmits": retx,
                                 "retransmitted_bytes": retx_bytes,
                                 "retx_ratio": ratio,
                                 "gave_up": gave_up,
                                 "fallbacks":
                                     recovery["fallback_transfers"]})
                slowdown = (cell["step_ms"] / clean_step
                            if clean_step else 0.0)
                cell["slowdown_vs_loss_free"] = slowdown
                entry["cells"].append(cell)
                result.add_row(workers, strategy, rate * 100,
                               round(cell["step_ms"], 3),
                               round(slowdown, 4), losses, retx,
                               round(ratio, 3), gave_up)
                _dump()
            worst = max(entry["cells"],
                        key=lambda c: c.get("retx_ratio", 0.0))
            result.note(
                f"{strategy} n={workers}: loss-free "
                f"{clean_step:.2f} ms (shared QP identical: "
                f"{entry['cells'][0].get('shared_qp_identical')}), worst "
                f"retx ratio {worst.get('retx_ratio', 0.0):.3f} at "
                f"p={worst['loss_rate']:g}")
    result.note(f"loss-free clocks bit-identical across QP modes: "
                f"{qp_modes_identical}")
    result.note(f"retransmitted bytes within {max_retx_ratio:g}x of "
                f"injected loss everywhere: {retx_ok}")
    _dump()
    return result


def _merge_bench_llm(json_path: str, section: str,
                     payload: Dict[str, object]) -> None:
    """Write one section of the shared ``BENCH_llm.json``.

    ``llmtrain`` and ``llmserve`` each own one top-level key of the
    same file, so either can be re-run alone without losing the
    other's results.
    """
    data: Dict[str, object] = {"experiment": "llm"}
    if os.path.exists(json_path):
        with open(json_path) as fh:
            data = json.load(fh)
        data["experiment"] = "llm"
    data[section] = payload
    with open(json_path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def llmtrain(model: str = "GPT-350M",
             stage_counts: Sequence[int] = (2, 4, 8),
             microbatches: int = 4, batch_size: int = 8,
             iterations: int = 3,
             json_path: Optional[str] = None) -> ExperimentResult:
    """Extension: pipeline-parallel transformer training, GPipe vs 1F1B.

    Trains the decoder-only transformer over the ``llm`` strategy at
    each stage count under both schedules, with activations moving
    between stage hosts as static RDMA writes.  Every cell runs traced
    so :func:`repro.distributed.model_parallel.pipeline_bubble_report`
    can decompose the stall report into useful compute, pipeline
    bubble, and (for GPipe) activation-rematerialization overhead; the
    decomposition must sum back to the measured step time exactly
    (``accounting_residual_s`` ~ float noise).

    The headline — ``onef1b_beats_gpipe_at_4plus`` — asserts that 1F1B
    keeps a strictly lower bubble fraction than GPipe at every stage
    count >= 4: both share the ``(M + S - 1)``-slot pipeline shape, but
    GPipe discards activations between its forward and backward phases
    and pays the recompute on the critical path.  Pass ``json_path`` to
    dump the sweep into the ``train`` section of ``BENCH_llm.json``
    (the regression gate's ``llm`` probe re-runs one cell against it).

    CLI pipeline knobs narrow the sweep: ``--pipeline-stages N`` pins
    the stage count to one cell, ``--microbatches`` overrides the cut,
    and ``--schedule`` runs only that schedule (the gpipe-vs-1f1b
    headline then needs both, so it is reported only when both ran).
    """
    from ..distributed.model_parallel import pipeline_bubble_report

    spec = get_model(model)
    cfg = comm_config()
    if cfg.pipeline_stages is not None:
        stage_counts = (cfg.pipeline_stages,)
    if cfg.microbatches is not None:
        microbatches = cfg.microbatches
    schedules = ("gpipe", "1f1b") if cfg.schedule is None \
        else (cfg.schedule,)
    result = ExperimentResult(
        experiment="Extension: llmtrain",
        title=(f"Pipeline-parallel training: {model}, batch {batch_size} "
               f"x {microbatches} microbatches"),
        columns=["stages", "schedule", "step_ms", "ideal_ms",
                 "bubble_fraction", "useful_fraction", "remat_ms",
                 "residual_s"])
    cells: List[Dict[str, object]] = []
    headline = True
    max_residual = 0.0
    for stages in stage_counts:
        per_stage = {}
        for schedule in schedules:
            bench = run_training_benchmark(
                spec, "RDMA", num_servers=stages, batch_size=batch_size,
                iterations=iterations, strategy="llm",
                microbatches=microbatches, schedule=schedule,
                collect_trace=True)
            if bench.crashed:
                raise RuntimeError(f"llmtrain {schedule}/s{stages} "
                                   f"crashed: {bench.crash_reason}")
            report = pipeline_bubble_report(bench.pipeline,
                                            bench.stall_report())
            residual = abs(report["accounting_residual_s"])
            max_residual = max(max_residual, residual)
            # per_stage remat_s aggregates the steady-state iterations;
            # report it per step like every other column.
            remat_ms = (sum(s["remat_s"] for s in report["per_stage"])
                        / max(report["iterations"], 1) * 1e3)
            cell = {
                "stages": stages, "schedule": schedule,
                "step_ms": bench.step_time * 1e3,
                "ideal_step_ms": report["ideal_step_s"] * 1e3,
                "bubble_fraction": report["bubble_fraction"],
                "useful_fraction": report["useful_fraction"],
                "remat_ms": remat_ms,
                "accounting_residual_s": report["accounting_residual_s"],
            }
            per_stage[schedule] = cell
            cells.append(cell)
            result.add_row(stages, schedule,
                           round(cell["step_ms"], 3),
                           round(cell["ideal_step_ms"], 3),
                           round(cell["bubble_fraction"], 4),
                           round(cell["useful_fraction"], 4),
                           round(remat_ms, 3),
                           f"{residual:.1e}")
        if "gpipe" in per_stage and "1f1b" in per_stage:
            gpipe, onef1b = per_stage["gpipe"], per_stage["1f1b"]
            wins = onef1b["bubble_fraction"] < gpipe["bubble_fraction"]
            if stages >= 4:
                headline = headline and wins
            result.note(f"s={stages}: 1f1b bubble "
                        f"{onef1b['bubble_fraction']:.3f} vs gpipe "
                        f"{gpipe['bubble_fraction']:.3f} "
                        f"(1f1b_wins={wins})")
    if len(schedules) == 2:
        result.note(f"1f1b bubble fraction below gpipe at every stage "
                    f"count >= 4: {headline}")
    result.note(f"worst bubble-accounting residual: {max_residual:.2e} s "
                f"(op + bubble - remat must equal the measured step)")
    if json_path is not None:
        _merge_bench_llm(json_path, "train", {
            "config": {"model": model, "stage_counts": list(stage_counts),
                       "schedules": list(schedules),
                       "microbatches": microbatches,
                       "batch_size": batch_size, "iterations": iterations,
                       "backend": cfg.backend},
            "cells": cells,
            "onef1b_beats_gpipe_at_4plus": headline,
            "max_accounting_residual_s": max_residual,
        })
    return result


def llmserve(model: str = "GPT-350M", requests: int = 160, seed: int = 11,
             qps: float = 60.0,
             static_timeouts: Sequence[float] = (2e-3, 50e-3, 200e-3),
             json_path: Optional[str] = None) -> ExperimentResult:
    """Extension: continuous batching vs the fixed batcher, KV-budgeted.

    Serves the same seeded trace (Poisson arrivals, uniform prompt and
    output lengths) through both LLM engine modes on identical
    deployments: **continuous** admits and retires requests at token
    granularity under the per-replica KV-cache byte budget, while
    **static** reuses the close-on-size/timeout
    :class:`repro.serving.batcher.DynamicBatcher` and holds each batch
    to completion.  The static baseline runs a batch-timeout sweep and
    the headline compares continuous against its *best* point, so the
    win is not an artifact of one untuned knob:

    * ``continuous_beats_static`` — higher decode tokens/s than every
      static cell while keeping TTFT p99 no worse than the best static
      cell (the "equal TTFT" budget);
    * ``kv_leak_free`` — every mode drains with zero KV-cache bytes
      outstanding (an admission/eviction accounting leak fails CI).

    Pass ``json_path`` to dump the comparison into the ``serve``
    section of ``BENCH_llm.json``.
    """
    from ..llm import run_llm_serving_benchmark
    from ..serving import serving_config

    cfg = serving_config()
    spec = get_model(model)
    common = dict(replicas=cfg.replicas, qps=qps, requests=requests,
                  seed=seed, arrival=cfg.arrival,
                  admission_limit=cfg.admission_limit,
                  max_batch=cfg.max_batch, max_width=cfg.max_width,
                  kv_budget_bytes=int(cfg.kv_budget_mb * MB))
    result = ExperimentResult(
        experiment="Extension: llmserve",
        title=(f"LLM serving: {model}, {cfg.replicas} replicas, "
               f"{qps:g} qps offered, KV budget {cfg.kv_budget_mb:g} MB"),
        columns=["mode", "timeout_ms", "completed", "shed", "decode_tok_s",
                 "ttft_p99_ms", "tpot_p50_ms", "mean_width", "preemptions",
                 "kv_peak_mb", "kv_leaked"])
    runs: List[Dict[str, object]] = []

    def _row(run) -> None:
        result.add_row(
            run.mode, round(run.batch_timeout * 1e3, 1), run.completed,
            run.shed, round(run.decode_tokens_per_s, 1),
            round(run.ttft.get("p99", 0.0) * 1e3, 2),
            round(run.tpot.get("p50", 0.0) * 1e3, 3),
            round(run.mean_width, 2), run.preemptions,
            round(run.kv["peak_bytes"] / MB, 1), run.kv_leaked_bytes)
        runs.append(run.to_dict())

    continuous = run_llm_serving_benchmark(spec, mode="continuous",
                                           **common)
    _row(continuous)
    statics = []
    for timeout in static_timeouts:
        run = run_llm_serving_benchmark(spec, mode="static",
                                        batch_timeout=timeout, **common)
        statics.append(run)
        _row(run)
    best_static = max(statics, key=lambda r: r.decode_tokens_per_s)
    throughput_wins = all(continuous.decode_tokens_per_s
                          > r.decode_tokens_per_s for r in statics)
    ttft_held = (continuous.ttft.get("p99", 0.0)
                 <= best_static.ttft.get("p99", 0.0))
    continuous_beats_static = throughput_wins and ttft_held
    kv_leak_free = (continuous.kv_leaked_bytes == 0
                    and all(r.kv_leaked_bytes == 0 for r in statics))
    all_drained = (continuous.completed + continuous.shed == requests
                   and all(r.completed + r.shed == requests
                           for r in statics))
    result.note(f"continuous {continuous.decode_tokens_per_s:.0f} tok/s at "
                f"TTFT p99 {continuous.ttft.get('p99', 0.0) * 1e3:.1f} ms "
                f"vs best static {best_static.decode_tokens_per_s:.0f} "
                f"tok/s at {best_static.ttft.get('p99', 0.0) * 1e3:.1f} ms "
                f"(timeout {best_static.batch_timeout * 1e3:g} ms)")
    result.note(f"continuous_beats_static={continuous_beats_static} "
                f"(throughput_wins={throughput_wins}, "
                f"ttft_held={ttft_held})")
    result.note(f"kv_leak_free={kv_leak_free}, all_drained={all_drained}")
    if json_path is not None:
        _merge_bench_llm(json_path, "serve", {
            "config": {"model": model, "requests": requests, "seed": seed,
                       "qps": qps, "replicas": cfg.replicas,
                       "kv_budget_mb": cfg.kv_budget_mb,
                       "max_width": cfg.max_width,
                       "max_batch": cfg.max_batch,
                       "static_timeouts": list(static_timeouts)},
            "runs": runs,
            "continuous_beats_static": continuous_beats_static,
            "kv_leak_free": kv_leak_free,
            "all_drained": all_drained,
        })
    return result


ALL_EXPERIMENTS = {
    "table2": table2,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "table3": table3,
    "allreduce": extension_allreduce,
    "stallreport": stallreport,
    "overlap": overlap,
    "chaos": chaos,
    "serving": serving,
    "scale": scale,
    "netreduce": netreduce,
    "telemetry": telemetry,
    "lossy": lossy,
    "llmtrain": llmtrain,
    "llmserve": llmserve,
}


def run_all(fast: bool = True) -> Dict[str, ExperimentResult]:
    """Regenerate every table and figure (fast mode trims sweeps)."""
    if fast:
        return {
            "table2": table2(),
            "figure7": figure7(),
            "figure8": figure8(sizes=(1 * MB, 64 * MB, 1 * GB),
                               iterations=3),
            "figure9": figure9(models=("AlexNet", "VGGNet-16"),
                               batches=(1, 32), iterations=3),
            "figure10": figure10(steps=60, iterations=3),
            "figure11": figure11(models=("VGGNet-16",), iterations=3),
            "figure12": figure12(models=("AlexNet", "GRU"), iterations=3),
            "table3": table3(models=("AlexNet", "Inception-v3"),
                             iterations=3),
            "allreduce": extension_allreduce(
                models=("FCN-5",), server_counts=(4,),
                mechanisms=("RDMA",), iterations=3),
            "stallreport": stallreport(),
            "overlap": overlap(models=("FCN-5",), num_servers=2),
            "chaos": chaos(seeds=(0, 1)),
            "serving": serving(requests=300),
            "scale": scale(worker_counts=(32,), hosts_per_rack=8),
            "netreduce": netreduce(worker_counts=(8,),
                                   models=("FCN-5",), hosts_per_rack=4),
            "telemetry": telemetry(iterations=2),
            "llmtrain": llmtrain(stage_counts=(2, 4), iterations=2),
            "llmserve": llmserve(requests=80,
                                 static_timeouts=(2e-3, 200e-3)),
        }
    return {name: fn() for name, fn in ALL_EXPERIMENTS.items()}
