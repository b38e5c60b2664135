"""Every experiment of the evaluation, and the one table that lists them.

The paper's tables and figures (``table2`` ... ``table3``, plus the
``allreduce`` and ``stallreport`` extensions) are plain functions that
return an :class:`ExperimentResult`.  The experiments that own a
``BENCH_<name>.json`` results file are split into a cell runner, a
table renderer and a headline check; :data:`EXPERIMENTS` at the bottom
binds every experiment to its two keyword grids (``full`` = what the
committed file holds, ``smoke`` = what CI runs) and, where it has one,
its regression gate.  The CLI, the BENCH writer (:func:`execute`) and
``repro.harness.regress`` are readers of that table; regenerate a
committed file with ``python -m repro.harness --full <name>
--bench-dir results``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import wraps
from itertools import groupby
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..models.convergence import APPS
from ..models.spec import MB, ModelSpec, VariableSpec
from ..models.zoo import (get_model, paper_model_names, paper_models)
from ..distributed.runner import (BenchmarkResult, RunConfig,
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


def figure8(sizes: Sequence[int] = FIGURE8_SIZES, iterations: int = 4,
            config: RunConfig = RunConfig()) -> ExperimentResult:
    """Figure 8: two-server micro-benchmark transfer speed."""
    result = ExperimentResult(
        experiment="Figure 8",
        title="Send/receive micro-benchmark between two servers",
        columns=["mechanism", "message_bytes", "transfer_ms",
                 "throughput_gbps"])
    sweep = sweep_microbench(sizes, iterations=iterations, config=config)
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
            num_servers: int = 8, iterations: int = 3,
            config: RunConfig = RunConfig()) -> ExperimentResult:
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
                    batch_size=batch, iterations=iterations, config=config)
                if bench.crashed:
                    result.add_row(name, mechanism, batch, None, None)
                    result.note(f"{name}/{mechanism}/b{batch} crashed: "
                                f"{bench.crash_reason[:80]}")
                else:
                    result.add_row(name, mechanism, batch,
                                   round(bench.step_time * 1e3, 2),
                                   round(bench.throughput, 2))
    return result


def figure10(steps: int = 150, num_servers: int = 8, iterations: int = 3,
             config: RunConfig = RunConfig()) -> ExperimentResult:
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
                iterations=iterations, config=config)
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
             batch_size: int = 32, iterations: int = 3,
             config: RunConfig = RunConfig()) -> ExperimentResult:
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
                                       iterations=iterations, config=config)
        result.add_row(name, "Local", 1, round(local.throughput, 2), 1.0)
        for mechanism in ("gRPC.TCP", "gRPC.RDMA", "RDMA"):
            for servers in server_counts:
                bench = run_training_benchmark(
                    spec, mechanism, num_servers=servers,
                    batch_size=batch_size, iterations=iterations,
                    config=config)
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
             models: Optional[Sequence[str]] = None,
             config: RunConfig = RunConfig()) -> ExperimentResult:
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
                                      iterations=iterations, config=config)
        slow = run_training_benchmark(spec, "RDMA.cp",
                                      num_servers=num_servers,
                                      batch_size=batch_size,
                                      iterations=iterations, config=config)
        gain = (slow.step_time - fast.step_time) / fast.step_time * 100
        result.add_row(name, round(fast.step_time * 1e3, 2),
                       round(slow.step_time * 1e3, 2), round(gain, 1))
    result.note("paper: zero-copy brings up to 21% at batch 8; gains are "
                "small for compute-bound or many-small-tensor models")
    return result


def table3(batch_size: int = 32, num_servers: int = 8,
           iterations: int = 3,
           models: Optional[Sequence[str]] = None,
           config: RunConfig = RunConfig()) -> ExperimentResult:
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
                                      iterations=iterations, config=config)
        gdr = run_training_benchmark(spec, "RDMA+GDR",
                                     num_servers=num_servers,
                                     batch_size=batch_size,
                                     iterations=iterations, config=config)
        improvement = (base.step_time - gdr.step_time) / gdr.step_time * 100
        result.add_row(name, round(base.step_time * 1e3, 1),
                       round(gdr.step_time * 1e3, 1), round(improvement, 1))
    result.note("paper row order: AlexNet 32%, FCN-5 54%, VGG 13%, "
                "Inception 0.4%, LSTM 24%, GRU 19%")
    return result


def extension_allreduce(models: Sequence[str] = ("FCN-5", "VGGNet-16"),
                        server_counts: Sequence[int] = (2, 4, 8),
                        mechanisms: Sequence[str] = ("RDMA", "gRPC.TCP"),
                        batch_size: int = 32, iterations: int = 3,
                        config: RunConfig = RunConfig()) -> ExperimentResult:
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
                                       iterations=iterations, config=config)
        result.add_row(name, "local", "Local", 1,
                       round(local.step_time * 1e3, 2),
                       round(local.throughput, 2), 1.0, 0.0, 0.0)
        for strategy in ("ps", "ring", "halving-doubling"):
            for mechanism in mechanisms:
                for servers in server_counts:
                    bench = run_training_benchmark(
                        spec, mechanism, num_servers=servers,
                        batch_size=batch_size, iterations=iterations,
                        strategy=strategy, collect_metrics=True,
                        config=config)
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
                strategy: str = "ring", mechanism: str = "RDMA",
                config: RunConfig = RunConfig()) -> ExperimentResult:
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
        collect_trace=True, config=config)
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


# -- experiments that own a results file -----------------------------------------------
#
# ``_x_run`` is a generator: it yields the payload-so-far after every
# finished cell, so whoever drives it can keep a dying sweep's finished
# cells; it does no I/O and renders nothing.  A payload is
# ``{"experiment", "config", "cells"}``; ``cells`` is a flat list of
# full-precision records keyed by the sweep axes.


def cell_value(cell: Dict, path: str):
    """``cell[path]``, or ``cell["a"]["b"]`` for the path ``"a.b"`` (a
    run's ``to_dict()`` nests its percentile summaries, and a cell
    stores each number once); ``None`` where the cell lacks it."""
    outer, _, inner = path.partition(".")
    value = cell.get(outer)
    return value.get(inner) if inner and value is not None else value


def _tabulate(experiment: str, title: str, columns: Sequence[tuple],
              cells: Sequence[Dict]) -> ExperimentResult:
    """One table row per cell record.

    A column is ``(header, digits[, field[, scale]])``: the cell's
    ``field`` (the header when omitted; a :func:`cell_value` path)
    times ``scale``, rounded to ``digits`` (``None`` leaves the value
    alone, a string is a format spec).  A field the cell lacks (a
    crashed seed, the spans of an untraced run) renders as "-".
    """
    result = ExperimentResult(experiment=experiment, title=title,
                              columns=[column[0] for column in columns])
    for cell in cells:
        row = []
        for header, digits, *source in columns:
            value = cell_value(cell, source[0] if source else header)
            if value is not None and len(source) > 1:
                value = value * source[1]
            if value is not None and digits is not None:
                value = (format(value, digits) if isinstance(digits, str)
                         else round(value, digits or None))
            row.append(value)
        result.add_row(*row)
    return result


def _payload(name: str, grid: Dict, **resolved) -> Dict:
    """A payload with no cells yet.

    ``grid`` is the run's keyword arguments (its ``dict(locals())`` on
    entry), echoed into ``config`` under their own names — the
    regression gate re-runs a committed file by passing them back —
    with ``resolved``, what the run took from its :class:`RunConfig`
    instead, over and beside them.  The ``RunConfig`` argument itself
    is not a grid axis and is not echoed.
    """
    config = {key: list(value) if isinstance(value, tuple) else value
              for key, value in {**grid, **resolved}.items()
              if key != "config"}
    return {"experiment": name, "config": config, "cells": []}


def _uncrashed(bench: BenchmarkResult, what: str) -> BenchmarkResult:
    if bench.crashed:
        raise RuntimeError(f"{what} crashed: {bench.crash_reason}")
    return bench


def _pairs(cells: Sequence[Dict], axis: str, first, second,
           *point: str) -> List[Tuple[Dict, Dict]]:
    """``(first cell, second cell)`` along ``axis``, per sweep ``point``
    at which both ran."""
    by_key = {(tuple(c[k] for k in point), c[axis]): c for c in cells}
    return [(cell, by_key[where, second])
            for (where, value), cell in by_key.items()
            if value == first != second and (where, second) in by_key]


def _overlap_run(models: Sequence[str], num_servers: int,
                 batch_size: int = 32, iterations: int = 3,
                 fusion_mb: float = 8.0, algorithm: str = "ring",
                 config: RunConfig = RunConfig()) -> Iterator[Dict]:
    """Extension: priority scheduling + backward-overlapped eager flush.

    Compares two allreduce schedules over the same fused-bucket plan:

    * **barrier** — every fusion bucket waits for the full backward
      pass before flushing, and the wire serves transfers FIFO (the
      classic contiguous-booking pipe).
    * **eager+priority** — buckets flush as soon as their gradients
      exist (overlapping communication with the rest of backward), the
      wire is a preemptive priority quantum server, and the executor
      issues urgent sends first.

    Records step times, the speedup, and each schedule's overlap
    efficiency (fraction of wire time hidden under critical-path
    compute — the figure the scheduler exists to raise).
    """
    payload = _payload("overlap", dict(locals()))
    common = dict(num_servers=num_servers, batch_size=batch_size,
                  iterations=iterations, strategy=algorithm,
                  fusion_bytes=int(fusion_mb * MB), collect_trace=True)
    for name in models:
        spec = get_model(name)
        barrier = _uncrashed(run_training_benchmark(
            spec, "RDMA", config=config, eager_flush=False,
            priority_sched=False, **common), f"overlap {name}/barrier")
        eager = _uncrashed(run_training_benchmark(
            spec, "RDMA", config=config, eager_flush=True,
            priority_sched=True, **common),
            f"overlap {name}/eager+priority")
        payload["cells"].append({
            "benchmark": name,
            "barrier_step_ms": barrier.step_time * 1e3,
            "eager_priority_step_ms": eager.step_time * 1e3,
            "speedup_pct": ((barrier.step_time - eager.step_time)
                            / barrier.step_time * 100),
            "barrier_overlap_efficiency":
                barrier.stall_report().overlap_efficiency(),
            "eager_overlap_efficiency":
                eager.stall_report().overlap_efficiency(),
            "faster": eager.step_time < barrier.step_time,
        })
        yield payload


def _overlap_table(payload: Dict) -> ExperimentResult:
    cfg, cells = payload["config"], payload["cells"]
    result = _tabulate(
        "Extension: overlap",
        f"Priority + eager-flush scheduling vs post-backward barrier "
        f"({cfg['num_servers']} servers, batch {cfg['batch_size']}, "
        f"{cfg['algorithm']}, fusion {cfg['fusion_mb']:g}MB)",
        (("benchmark", None), ("barrier_ms", 3, "barrier_step_ms"),
         ("eager_priority_ms", 3, "eager_priority_step_ms"),
         ("speedup_pct", 2),
         ("barrier_overlap_pct", 1, "barrier_overlap_efficiency", 100),
         ("eager_overlap_pct", 1, "eager_overlap_efficiency", 100),
         ("faster", None)), cells)
    result.note(f"eager+priority faster on "
                f"{sum(c['faster'] for c in cells)}/{len(cells)} benchmarks")
    return result


def _overlap_headlines(payload: Dict) -> List[str]:
    return [f"{c['benchmark']}: eager+priority "
            f"({c['eager_priority_step_ms']:.3f} ms) is no faster than the "
            f"barrier ({c['barrier_step_ms']:.3f} ms)"
            for c in payload["cells"] if not c["faster"]]


def _chaos_run(seeds: Sequence[int], model: str = "FCN-5",
               num_servers: int = 2, batch_size: int = 8,
               iterations: int = 3,
               fault_spec: str = ("drop:p=0.05;partial:p=0.04,frac=0.6;"
                                  "blackhole:p=0.02;"
                                  "straggler:p=0.04,delay=8e-4"),
               config: RunConfig = RunConfig()) -> Iterator[Dict]:
    """Extension: chaos harness — seeded faults against the recovery layer.

    Runs one small training job fault-free, then once per seed with the
    same fault spec, and records how each schedule was absorbed: faults
    injected by kind, retries/timeouts, QP re-establishments, TCP
    degradations, and the step-time slowdown the recovery cost.  Every
    cell must end ``completed=True`` — a hang or crash here is a
    recovery-layer bug (CI uploads the file as the fault report).
    """
    payload = _payload("chaos", dict(locals()))
    spec = get_model(model)
    common = dict(num_servers=num_servers, batch_size=batch_size,
                  iterations=iterations)
    clean = run_training_benchmark(spec, "RDMA", config=config, **common)
    payload["clean_step_ms"] = clean.step_time * 1e3
    for seed in seeds:
        run = run_training_benchmark(spec, "RDMA", config=config,
                                     fault_spec=fault_spec, fault_seed=seed,
                                     **common)
        if run.crashed:
            payload["cells"].append({"seed": seed, "completed": False,
                                     "crash_reason": run.crash_reason})
        else:
            faults = run.stats.faults or {}
            injected = faults.get("injected", {})
            recovery = faults.get("recovery") or {}
            payload["cells"].append({
                "seed": seed, "completed": True,
                "injected": injected.get("total", 0),
                "injected_by_kind": injected.get("by_kind", {}),
                "recovery": recovery,
                "step_ms": run.step_time * 1e3,
                "slowdown_pct": ((run.step_time - clean.step_time)
                                 / clean.step_time * 100
                                 if clean.step_time else 0.0),
            })
        yield payload


def _chaos_table(payload: Dict) -> ExperimentResult:
    cfg, cells = payload["config"], payload["cells"]
    result = _tabulate(
        "Extension: chaos",
        f"Fault injection & recovery ({cfg['model']}, "
        f"{cfg['num_servers']} servers, spec '{cfg['fault_spec']}')",
        (("seed", None), ("injected", None),
         ("retries", None, "recovery.retries"),
         ("timeouts", None, "recovery.timeouts"),
         ("reconnects", None, "recovery.qp_reconnects"),
         ("tcp_fallbacks", None, "recovery.fallback_transfers"),
         ("step_ms", 3), ("slowdown_pct", 1), ("completed", None)), cells)
    for cell in cells:
        if not cell["completed"]:
            result.note(f"seed {cell['seed']} crashed: "
                        f"{cell['crash_reason'][:90]}")
    result.note(f"clean step {payload['clean_step_ms']:.3f} ms; "
                f"{sum(c['completed'] for c in cells)}/{len(cells)} seeds "
                f"recovered to completion")
    return result


def _chaos_headlines(payload: Dict) -> List[str]:
    cells = payload["cells"]
    out = [f"seed {c['seed']} did not recover to completion: "
           f"{c['crash_reason']}" for c in cells if not c["completed"]]
    out += [f"seed {c['seed']}: {c['recovery']['gave_up']} transfers "
            f"exhausted their retries and none degraded to TCP"
            for c in cells if cell_value(c, "recovery.gave_up")
            and not c["recovery"]["fallback_transfers"]]
    if not sum(c.get("injected", 0) for c in cells):
        out.append("the fault spec injected nothing")
    return out


def _serving_run(requests: int, model: str = "FCN-5", seed: int = 7,
                 runs: Optional[Sequence[str]] = None,
                 config: RunConfig = RunConfig()) -> Iterator[Dict]:
    """Extension: the inference serving plane, both headline effects.

    Four runs of the same deployment shape (``config.serving``, so
    the CLI's ``--replicas``/``--qps``/``--max-batch``/
    ``--batch-timeout``/``--slo-ms`` flags steer this experiment):

    * **batch=1 vs batch=N** at fixed replicas — dynamic batching must
      raise sustained throughput (the batcher amortizes per-batch
      dispatch and rides the GPU's batch-saturation curve);
    * **FIFO vs priority wire scheduling** with bulk training traffic
      co-located on the replica links — tagging serving transfers at
      high WorkRequest priority must strictly lower inference p99.

    Every cell also carries the weight-publication counters (publishes,
    zero-copy version swaps, torn serves — the last must be 0).
    ``runs`` names a subset of the four (the regression gate re-runs
    ``batch-N`` alone).
    """
    grid = dict(locals())
    from ..serving import run_serving_benchmark
    cfg = config.serving
    spec = get_model(model)
    deployment = dict(replicas=cfg.replicas, qps=cfg.qps,
                      batch_timeout=cfg.batch_timeout, slo_ms=cfg.slo_ms)
    variants = {
        "batch-1": dict(max_batch=1, priority_sched=True),
        f"batch-{cfg.max_batch}": dict(priority_sched=True),
        "fifo+training": dict(priority_sched=False,
                              background_training=True),
        "priority+training": dict(priority_sched=True,
                                  background_training=True),
    }
    payload = _payload("serving", grid, runs=list(runs or variants),
                       max_batch=cfg.max_batch, **deployment)
    for name in payload["config"]["runs"]:
        run = run_serving_benchmark(spec, config=cfg, requests=requests,
                                    seed=seed, **variants[name])
        payload["cells"].append({"run": name, **run.to_dict()})
        yield payload


def _serving_wins(payload: Dict) -> Dict[str, bool]:
    """The two headline comparisons, each only if both its runs ran."""
    ran = {c["run"]: c for c in payload["cells"]}.get
    batched = ran(f"batch-{payload['config']['max_batch']}")
    unbatched, fifo, prio = (ran("batch-1"), ran("fifo+training"),
                             ran("priority+training"))
    wins = {}
    if batched and unbatched:
        wins["batching_wins"] = (batched["throughput_rps"]
                                 > unbatched["throughput_rps"])
    if fifo and prio:
        wins["priority_wins"] = (prio["latency"]["p99"]
                                 < fifo["latency"]["p99"])
    return wins


def _serving_table(payload: Dict) -> ExperimentResult:
    cfg, cells = payload["config"], payload["cells"]
    result = _tabulate(
        "Extension: serving",
        f"Inference serving plane: {cfg['model']}, {cfg['replicas']} "
        f"replicas, {cfg['qps']:g} qps offered, SLO {cfg['slo_ms']:g} ms",
        (("run", None), ("max_batch", None), ("priority_sched", None),
         ("co_located_training", None, "background_training"),
         ("completed", None), ("shed", None), ("throughput_rps", 1),
         ("p50_ms", 2, "latency.p50", 1e3),
         ("p99_ms", 2, "latency.p99", 1e3), ("slo_attainment", 3),
         ("mean_batch", 2, "mean_batch_size"), ("swaps", None),
         ("torn", None, "torn_serves")), cells)
    # rendered for the whole experiment only: all four runs are there
    unbatched, batched, fifo, prio = cells
    wins = _serving_wins(payload)
    result.note(f"dynamic batching: {unbatched['throughput_rps']:.0f} -> "
                f"{batched['throughput_rps']:.0f} rps sustained "
                f"(batching_wins={wins['batching_wins']})")
    result.note(f"co-located training p99: FIFO "
                f"{fifo['latency']['p99'] * 1e3:.2f} ms vs priority "
                f"{prio['latency']['p99'] * 1e3:.2f} ms "
                f"(priority_wins={wins['priority_wins']})")
    result.note(f"torn serves across all runs: "
                f"{sum(c['torn_serves'] for c in cells)} (must be 0)")
    return result


def _serving_headlines(payload: Dict) -> List[str]:
    wins = _serving_wins(payload)
    out = []
    if not wins.get("batching_wins", True):
        out.append("dynamic batching did not raise sustained throughput")
    if not wins.get("priority_wins", True):
        out.append("serving priority did not lower the co-located p99")
    for c in payload["cells"]:
        if c["torn_serves"]:
            out.append(f"{c['run']}: {c['torn_serves']} torn serves — a "
                       f"replica served a torn weight snapshot")
        if c["completed"] + c["shed"] + c["failed"] != c["total"]:
            out.append(f"{c['run']}: completed + shed + failed != "
                       f"{c['total']} requests offered")
        if not c["swaps"] > 0:
            out.append(f"{c['run']}: no weight version was ever swapped in")
    return out


def _scale_spec(variable_mb: float = 24.0, num_variables: int = 2,
                sample_time: float = 0.004) -> ModelSpec:
    """A synthetic model sized for the scale sweep.

    No initializer gives a variable content, so its replicas are
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


def _tiles(workers: int, hosts_per_rack: int) -> int:
    if workers % hosts_per_rack != 0:
        raise ValueError(f"{workers} workers do not tile into racks of "
                         f"{hosts_per_rack}")
    return workers // hosts_per_rack


def _scale_run(worker_counts: Sequence[int],
               hosts_per_rack: Optional[int] = None,
               oversubscription: Optional[float] = None,
               iterations: int = 2, batch_size: int = 1,
               fusion_mb: float = 64.0, max_flat_ring_workers: int = 128,
               collective: Optional[str] = None,
               config: RunConfig = RunConfig()) -> Iterator[Dict]:
    """Extension: multi-rack scale sweep on an oversubscribed fat tree.

    For each worker count, trains the synthetic large-tensor model on a
    fat-tree fabric (``hosts_per_rack`` wide racks, ``oversubscription``
    : 1 uplinks) twice: a flat ring allreduce — whose ``2·(N-1)`` step
    chain crosses the rack boundary on R edges — and the rack-aware
    hierarchical collective.  Records step times, per-rack trunk
    traffic, uplink queueing, and the simulator's event throughput for
    each run.  Flat ring is skipped above ``max_flat_ring_workers``
    (its transfer count grows ~N× faster than the hierarchical one);
    the hierarchical cells keep going.

    The hierarchy pays off from about four racks up: at two racks the
    inter-rack phase still moves ``M`` bytes per rack over the trunk
    with barely any pipeline depth, and the flat ring's longer chain
    keeps the uplink busier.  The canonical shapes here (8-wide racks,
    8+ racks, 4:1) are squarely in the winning regime.
    """
    grid = dict(locals())
    spec = _scale_spec()
    # A fat-tree shape configured via --topology/--hosts-per-rack/
    # --oversubscription is authoritative; otherwise the sweep's
    # canonical 8-wide racks at 4:1.
    if hosts_per_rack is None:
        hosts_per_rack = (config.hosts_per_rack
                          if config.topology == "fat-tree"
                          and config.hosts_per_rack else 8)
    if oversubscription is None:
        oversubscription = (config.oversubscription
                            if config.topology == "fat-tree" else 4.0)
    treatment = collective or config.collective
    payload = _payload("scale", grid, hosts_per_rack=hosts_per_rack,
                       oversubscription=oversubscription,
                       collective=treatment, model=spec.name,
                       model_mb=spec.model_mb,
                       num_variables=spec.num_variables)
    for workers in worker_counts:
        racks = _tiles(workers, hosts_per_rack)
        for strategy in (("ring",) if treatment == "ring"
                         else ("ring", treatment)):
            if strategy == "ring" and workers > max_flat_ring_workers:
                continue
            started = time.time()
            bench = _uncrashed(run_training_benchmark(
                spec, "RDMA", num_servers=workers, batch_size=batch_size,
                iterations=iterations, strategy=strategy, config=config,
                fusion_bytes=int(fusion_mb * MB), topology="fat-tree",
                hosts_per_rack=hosts_per_rack,
                oversubscription=oversubscription),
                f"scale run {strategy}/n{workers}")
            wall = time.time() - started
            uplink = [s for name, s in bench.link_stats().items()
                      if name.startswith("tor")]
            payload["cells"].append({
                "workers": workers, "racks": racks, "strategy": strategy,
                "step_ms": bench.step_time * 1e3,
                "uplink_mb": sum(s["bytes_carried"] for s in uplink) / MB,
                "uplink_queue_ms":
                    sum(s["queue_seconds"] for s in uplink) * 1e3,
                "max_uplink_utilization":
                    max((s["utilization"] for s in uplink), default=0.0),
                "predicted_wire_mb": (bench.predicted_wire_bytes or 0) / MB,
                "sim_events": bench.sim_events,
                "events_per_s": bench.sim_events / wall if wall > 0 else 0.0,
                "wall_s": wall,
            })
            yield payload


def _scale_pairs(payload: Dict) -> List[Tuple[Dict, Dict]]:
    return _pairs(payload["cells"], "strategy", "ring",
                  payload["config"]["collective"], "workers")


def _scale_table(payload: Dict) -> ExperimentResult:
    cfg = payload["config"]
    result = _tabulate(
        "Extension: scale",
        f"Fat-tree scale sweep: {cfg['model']}, racks of "
        f"{cfg['hosts_per_rack']}, {cfg['oversubscription']:g}:1 uplinks",
        (("workers", None), ("racks", None), ("strategy", None),
         ("step_ms", 3), ("uplink_mb", 1), ("uplink_queue_ms", 3),
         ("max_uplink_util_pct", 1, "max_uplink_utilization", 100),
         ("sim_events", None), ("events_per_s", 0), ("wall_s", 1)),
        payload["cells"])
    for ring, hier in _scale_pairs(payload):
        speedup = (ring["step_ms"] - hier["step_ms"]) / ring["step_ms"] * 100
        result.note(f"n={hier['workers']}: {cfg['collective']} "
                    f"{hier['step_ms']:.2f} ms vs ring "
                    f"{ring['step_ms']:.2f} ms ({speedup:+.1f}% faster)")
    if max(cfg["worker_counts"]) > cfg["max_flat_ring_workers"]:
        result.note(f"flat ring not run above "
                    f"{cfg['max_flat_ring_workers']} workers")
    result.note(f"model {cfg['model']} ({cfg['model_mb']:.0f} MB in "
                f"{cfg['num_variables']} virtual tensors), batch "
                f"{cfg['batch_size']}, {cfg['iterations']} iterations")
    return result


def _scale_headlines(payload: Dict) -> List[str]:
    treatment = payload["config"]["collective"]
    out = [f"n={hier['workers']}: {treatment} ({hier['step_ms']:.3f} ms) "
           f"lost to the flat ring ({ring['step_ms']:.3f} ms)"
           for ring, hier in _scale_pairs(payload)
           if not hier["step_ms"] < ring["step_ms"]]
    out += [f"n={c['workers']} {c['strategy']}: no trunk traffic accounted"
            for c in payload["cells"]
            if not (c["uplink_mb"] > 0 and c["max_uplink_utilization"] > 0)]
    return out


def _netreduce_run(worker_counts: Sequence[int], models: Sequence[str],
                   hosts_per_rack: int = 8, oversubscription: float = 4.0,
                   iterations: int = 2, batch_size: int = 1,
                   fusion_mb: float = 64.0, max_flat_ring_workers: int = 8,
                   config: RunConfig = RunConfig()) -> Iterator[Dict]:
    """Extension: in-network reduction vs host collectives, validated.

    For each model and worker count, trains on an oversubscribed fat
    tree under three allreduce backends: the flat ring
    (``2·M·(N-1)/N`` per-worker wire bytes), the rack-hierarchical
    host collective, and the switch-aggregated in-network path (``M``
    per worker: one write up to the ToR, one result back down).  Every
    run collects wire metrics, so each cell records its measured
    per-worker egress against the analytic prediction — the in-network
    cells must land within 1% of ``M`` with zero chunks spilled to the
    host path.  The flat ring's transfer chain grows ~N× faster than
    the others', so it only runs up to ``max_flat_ring_workers``.

    The committed grid is the 28 MB GRU, the 205 MB FCN-5 and the
    93 MB Inception-v3.
    """
    payload = _payload("netreduce", dict(locals()))
    for name in models:
        spec = get_model(name)
        for workers in worker_counts:
            racks = _tiles(workers, hosts_per_rack)
            for strategy in ("ring", "hierarchical", "innetwork"):
                if strategy == "ring" and workers > max_flat_ring_workers:
                    continue
                started = time.time()
                bench = _uncrashed(run_training_benchmark(
                    spec, "RDMA", num_servers=workers,
                    batch_size=batch_size, iterations=iterations,
                    strategy=strategy, config=config,
                    fusion_bytes=int(fusion_mb * MB),
                    topology="fat-tree", hosts_per_rack=hosts_per_rack,
                    oversubscription=oversubscription,
                    collect_metrics=True),
                    f"netreduce {name}/{strategy}/n{workers}")
                wall = time.time() - started
                measured = bench.wire_bytes_per_worker() or 0.0
                predicted = bench.predicted_wire_bytes or 0.0
                groups = [v for k, v in (bench.innetwork or {}).items()
                          if k != "plane"]
                payload["cells"].append({
                    "model": name, "model_mb": spec.model_mb,
                    "workers": workers, "racks": racks,
                    "strategy": strategy,
                    "step_ms": bench.step_time * 1e3,
                    "wire_mb_per_worker": measured / MB,
                    "predicted_wire_mb": predicted / MB,
                    "wire_err_pct": ((measured - predicted) / predicted * 100
                                     if predicted else 0.0),
                    "chunks_spilled":
                        sum(g["chunks_spilled"] for g in groups),
                    "rounds_degraded":
                        sum(g["rounds_degraded"] for g in groups),
                    "wall_s": wall,
                })
                yield payload


def _netreduce_pairs(payload: Dict) -> List[Tuple[Dict, Dict]]:
    return _pairs(payload["cells"], "strategy", "hierarchical", "innetwork",
                  "model", "workers")


def _wire_exact(cell: Dict) -> bool:
    """NetReduce's identity: per-worker egress is M bytes, nothing spilled."""
    return abs(cell["wire_err_pct"]) <= 1.0 and cell["chunks_spilled"] == 0


def _netreduce_headlines(payload: Dict) -> List[str]:
    switched = [c for c in payload["cells"] if c["strategy"] == "innetwork"]
    out = [f"{c['model']} n={c['workers']}: in-network egress "
           f"{c['wire_mb_per_worker']:.3f} MB/worker is "
           f"{c['wire_err_pct']:+.3f}% off the M-bytes bound"
           for c in switched if abs(c["wire_err_pct"]) > 1.0]
    out += [f"{c['model']} n={c['workers']}: {c['chunks_spilled']} chunks "
            f"spilled to the host path, {c['rounds_degraded']} rounds "
            f"degraded (must be 0)"
            for c in switched if c["chunks_spilled"] or c["rounds_degraded"]]
    out += [f"{innet['model']} n={innet['workers']}: in-network "
            f"({innet['step_ms']:.3f} ms) lost to the host hierarchical "
            f"collective ({hier['step_ms']:.3f} ms)"
            for hier, innet in _netreduce_pairs(payload)
            if innet["workers"] >= 64
            and not innet["step_ms"] < hier["step_ms"]]
    return out


def _netreduce_table(payload: Dict) -> ExperimentResult:
    cfg, cells = payload["config"], payload["cells"]
    result = _tabulate(
        "Extension: netreduce",
        f"Switch-aggregated allreduce: racks of {cfg['hosts_per_rack']}, "
        f"{cfg['oversubscription']:g}:1 uplinks",
        (("benchmark", None, "model"), ("workers", None),
         ("strategy", None), ("step_ms", 3), ("wire_mb_per_worker", 1),
         ("predicted_mb", 1, "predicted_wire_mb"), ("wire_err_pct", 3),
         ("spilled", None, "chunks_spilled"),
         ("degraded", None, "rounds_degraded")), cells)
    pairs = _netreduce_pairs(payload)
    for hier, innet in pairs:
        result.note(f"{innet['model']} n={innet['workers']}: innetwork "
                    f"{innet['step_ms']:.2f} ms vs hierarchical "
                    f"{hier['step_ms']:.2f} ms "
                    f"({hier['step_ms'] / innet['step_ms']:.2f}x), "
                    f"wire {innet['wire_mb_per_worker']:.1f} MB/worker "
                    f"({innet['wire_err_pct']:+.3f}% vs M)")
    wire_ok = all(_wire_exact(c) for c in cells
                  if c["strategy"] == "innetwork")
    beats = all(innet["step_ms"] < hier["step_ms"] for hier, innet in pairs
                if innet["workers"] >= 64)
    result.note(f"in-network wire bytes within 1% of M everywhere: "
                f"{wire_ok}")
    result.note(f"in-network beats hierarchical at every n>=64 cell: "
                f"{beats}")
    return result


def _telemetry_run(iterations: int, model: str = "FCN-5",
                   num_servers: int = 8, hosts_per_rack: int = 4,
                   batch_size: int = 32, trace_sample: float = 0.05,
                   straggler_host: str = "server5",
                   straggler_delay_ms: float = 2.0,
                   config: RunConfig = RunConfig()) -> Iterator[Dict]:
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
    """
    payload = _payload("telemetry", dict(locals()))
    spec = get_model(model)
    fault = (f"straggler:host={straggler_host},p=1.0,"
             f"delay={straggler_delay_ms * 1e-3}")
    common = dict(num_servers=num_servers, batch_size=batch_size,
                  iterations=iterations, strategy="hierarchical",
                  topology="fat-tree", hosts_per_rack=hosts_per_rack)
    traced = dict(collect_trace=True, trace_sample=trace_sample)
    for label, cell_args in (
            ("untraced", {}),
            ("traced-clean", traced),
            ("traced-straggler",
             dict(traced, fault_spec=fault, fault_seed=1))):
        run = _uncrashed(run_training_benchmark(
            spec, "RDMA", config=config, **cell_args, **common),
            "telemetry run")
        cell: Dict[str, object] = {
            "run": label, "step_ms": run.step_time * 1e3,
            "iteration_times": list(run.stats.iteration_times)}
        if run.tracer is not None:
            fleet = (run.tracer.telemetry.sketches.get("verb_latency:fleet")
                     if run.tracer.telemetry is not None else None)
            cell.update(
                spans_kept=len(run.tracer.spans),
                spans_dropped=run.tracer.dropped_spans,
                incidents=len(run.incidents),
                detected=",".join(sorted({i.subject
                                          for i in run.incidents})) or "-",
                incident_log=[i.to_dict() for i in run.incidents],
                fleet_verb_latency=None if fleet is None else fleet.to_dict())
        payload["cells"].append(cell)
        yield payload


def _telemetry_verdicts(payload: Dict) -> Dict[str, object]:
    untraced, clean, faulted = payload["cells"]
    host = payload["config"]["straggler_host"]
    stragglers = sorted({i["subject"] for i in faulted["incident_log"]
                         if i["kind"] == "straggler"})
    return {
        "identical": clean["iteration_times"] == untraced["iteration_times"],
        "clean_incidents": clean["incidents"],
        "straggler_found": stragglers == [host],
        "flight_attached": any(i.get("flight")
                               for i in faulted["incident_log"]
                               if i["subject"] == host),
    }


def _telemetry_table(payload: Dict) -> ExperimentResult:
    cfg, cells = payload["config"], payload["cells"]
    result = _tabulate(
        "Extension: telemetry",
        f"Fleet telemetry: {cfg['model']}, {cfg['num_servers']} workers in "
        f"racks of {cfg['hosts_per_rack']}, span sampling "
        f"{cfg['trace_sample']:g}",
        (("run", None), ("step_ms", 3), ("spans_kept", None),
         ("spans_dropped", None), ("incidents", None), ("detected", None)),
        cells)
    verdicts = _telemetry_verdicts(payload)
    result.note(f"traced iteration clocks identical to untraced: "
                f"{verdicts['identical']}")
    result.note(f"clean run incidents: {verdicts['clean_incidents']} "
                f"(must be 0)")
    result.note(f"straggler {cfg['straggler_host']} detected: "
                f"{verdicts['straggler_found']} (flight dump attached: "
                f"{verdicts['flight_attached']})")
    fleet = cells[1]["fleet_verb_latency"]
    if fleet is not None:
        result.note(f"fleet verb latency: mean {fleet['mean'] * 1e6:.1f} us, "
                    f"p99 {fleet.get('p99', 0.0) * 1e6:.1f} us over "
                    f"{fleet['count']} verbs")
    return result


def _telemetry_headlines(payload: Dict) -> List[str]:
    verdicts = _telemetry_verdicts(payload)
    host = payload["config"]["straggler_host"]
    must_hold = (
        (verdicts["identical"], "tracing perturbed the simulated clock"),
        (not verdicts["clean_incidents"], "anomaly detector raised "
         f"{verdicts['clean_incidents']} incidents on a clean run"),
        (verdicts["straggler_found"],
         f"seeded straggler {host} went undetected"),
        (verdicts["flight_attached"],
         "straggler incident carried no flight-recorder evidence"),
        (payload["cells"][1]["spans_dropped"] > 0,
         "the trace budget retained every span"))
    return [violated for holds, violated in must_hold if not holds]


def _lossy_run(worker_counts: Sequence[int],
               loss_rates: Sequence[float] = (0.0, 1e-4, 1e-3),
               strategies: Sequence[str] = ("ring", "hierarchical",
                                            "innetwork"),
               oversubscription: float = 4.0, model: str = "GRU",
               iterations: int = 2, batch_size: int = 1,
               max_flat_ring_workers: int = 8, max_retx_ratio: float = 3.0,
               fault_seed: int = 3,
               config: RunConfig = RunConfig()) -> Iterator[Dict]:
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
    workers, 8-host racks at 64+.
    """
    payload = _payload("lossy", dict(locals()))
    from ..simnet.verbs import ROLE_RETRANSMIT

    spec = get_model(model)
    for workers in worker_counts:
        hosts_per_rack = 4 if workers <= 8 else 8
        common = dict(num_servers=workers, batch_size=batch_size,
                      iterations=iterations, topology="fat-tree",
                      hosts_per_rack=hosts_per_rack,
                      oversubscription=oversubscription)
        for strategy in strategies:
            if strategy == "ring" and workers > max_flat_ring_workers:
                continue
            clean_step = None
            for rate in loss_rates:
                started = time.time()
                bench = _uncrashed(run_training_benchmark(
                    spec, "RDMA", strategy=strategy, config=config,
                    loss_rate=rate, fault_seed=fault_seed,
                    collect_metrics=rate > 0.0, **common),
                    f"lossy {strategy}/n{workers}/p={rate}")
                cell: Dict[str, object] = {
                    "workers": workers, "strategy": strategy,
                    "hosts_per_rack": hosts_per_rack, "loss_rate": rate,
                    "step_ms": bench.step_time * 1e3,
                    "iteration_times": list(bench.stats.iteration_times),
                    "wall_s": time.time() - started,
                    "losses": 0, "lost_bytes": 0, "retransmits": 0,
                    "retransmitted_bytes": 0, "retx_ratio": 0.0,
                    "gave_up": 0, "fallbacks": 0,
                }
                if rate == 0.0:
                    # The loss-free cell doubles as the QP-mode identity
                    # check: shared endpoints must keep the RC clock.
                    clean_step = cell["step_ms"]
                    shared = run_training_benchmark(
                        spec, "RDMA", strategy=strategy, config=config,
                        loss_rate=rate, qp_mode="shared", **common)
                    cell["shared_qp_identical"] = (
                        shared.stats.iteration_times
                        == bench.stats.iteration_times)
                else:
                    injected = [e for e in
                                bench.stats.faults["injected"]["log"]
                                if e["kind"] == "loss"]
                    recovery = bench.stats.faults["recovery"]
                    lost_bytes = sum(e["size"] for e in injected)
                    # Count retransmissions on the wire, not in the
                    # recovery layer: in-network uplink losses are
                    # re-issued by the switch plane and never pass
                    # through a RecoveryManager.
                    retx_bytes = bench.metrics.bytes_by_role().get(
                        ROLE_RETRANSMIT, 0)
                    cell.update(
                        losses=len(injected), lost_bytes=lost_bytes,
                        retransmits=bench.metrics.count(
                            role=ROLE_RETRANSMIT),
                        retransmitted_bytes=retx_bytes,
                        retx_ratio=(retx_bytes / lost_bytes
                                    if lost_bytes else 0.0),
                        gave_up=recovery["gave_up"],
                        fallbacks=recovery["fallback_transfers"])
                cell["slowdown_vs_loss_free"] = (
                    cell["step_ms"] / clean_step if clean_step else 0.0)
                payload["cells"].append(cell)
                yield payload


def _retx_bounded(cell: Dict, max_ratio: float) -> bool:
    """Selective repeat: O(lost) bytes re-sent, no retry budget exhausted."""
    return cell["gave_up"] == 0 and (cell["lost_bytes"] == 0
                                     or cell["retx_ratio"] <= max_ratio)


def _lossy_table(payload: Dict) -> ExperimentResult:
    cfg, cells = payload["config"], payload["cells"]
    result = _tabulate(
        "Extension: lossy",
        f"Loss-tolerant transport: {cfg['model']}, "
        f"{cfg['oversubscription']:g}:1 fat-tree uplinks",
        (("workers", None), ("strategy", None),
         ("loss_pct", None, "loss_rate", 100), ("step_ms", 3),
         ("slowdown", 4, "slowdown_vs_loss_free"), ("losses", None),
         ("retx", None, "retransmits"), ("retx_ratio", 3),
         ("gave_up", None)), cells)
    for (workers, strategy), group in groupby(
            cells, key=lambda c: (c["workers"], c["strategy"])):
        group = list(group)
        worst = max(group, key=lambda c: c["retx_ratio"])
        result.note(
            f"{strategy} n={workers}: loss-free "
            f"{group[0]['step_ms']:.2f} ms (shared QP identical: "
            f"{group[0].get('shared_qp_identical')}), worst "
            f"retx ratio {worst['retx_ratio']:.3f} at "
            f"p={worst['loss_rate']:g}")
    result.note(f"loss-free clocks bit-identical across QP modes: "
                f"{all(c.get('shared_qp_identical', True) for c in cells)}")
    bounded = all(_retx_bounded(c, cfg["max_retx_ratio"]) for c in cells)
    result.note(f"retransmitted bytes within {cfg['max_retx_ratio']:g}x of "
                f"injected loss everywhere: {bounded}")
    return result


def _lossy_headlines(payload: Dict) -> List[str]:
    cfg, cells = payload["config"], payload["cells"]
    out = []
    for c in cells:
        where = f"{c['strategy']} n={c['workers']} p={c['loss_rate']:g}"
        if not c.get("shared_qp_identical", True):
            out.append(f"{where}: loss-free clocks diverged between RC and "
                       f"shared QP modes")
        if c["gave_up"]:
            out.append(f"{where}: {c['gave_up']} transfers exhausted their "
                       f"retry budget (gave_up must be 0)")
        elif not _retx_bounded(c, cfg["max_retx_ratio"]):
            out.append(f"{where}: retransmitted "
                       f"{c['retransmitted_bytes']}B for {c['lost_bytes']}B "
                       f"lost (bound {cfg['max_retx_ratio']:g}x) — selective "
                       f"repeat degraded toward go-back-N")
    if any(cfg["loss_rates"]) and not sum(c["losses"] for c in cells):
        out.append("the lossy cells injected no losses")
    return out


def _llmtrain_run(model: str, stage_counts: Sequence[int],
                  microbatches: int = 4, batch_size: int = 8,
                  iterations: int = 3,
                  config: RunConfig = RunConfig()) -> Iterator[Dict]:
    """Extension: pipeline-parallel transformer training, GPipe vs 1F1B.

    Trains the decoder-only transformer over the ``llm`` strategy at
    each stage count under both schedules, with activations moving
    between stage hosts as static RDMA writes.  Every cell runs traced
    so :func:`repro.distributed.model_parallel.pipeline_bubble_report`
    can decompose the stall report into useful compute, pipeline
    bubble, and (for GPipe) activation-rematerialization overhead; the
    decomposition must sum back to the measured step time exactly
    (``residual_s`` ~ float noise).

    The headline asserts that 1F1B keeps a strictly lower bubble
    fraction than GPipe at every stage count >= 4: both share the
    ``(M + S - 1)``-slot pipeline shape, but GPipe discards activations
    between its forward and backward phases and pays the recompute on
    the critical path.

    CLI pipeline knobs narrow the sweep: ``--pipeline-stages N`` pins
    the stage count to one cell, ``--microbatches`` overrides the cut,
    and ``--schedule`` runs only that schedule (the gpipe-vs-1f1b
    headline then needs both, so it is judged only when both ran).
    """
    grid = dict(locals())
    from ..distributed.model_parallel import pipeline_bubble_report

    spec = get_model(model)
    if config.pipeline_stages is not None:
        stage_counts = (config.pipeline_stages,)
    if config.microbatches is not None:
        microbatches = config.microbatches
    schedules = ("gpipe", "1f1b") if config.schedule is None \
        else (config.schedule,)
    payload = _payload("llmtrain", grid, stage_counts=stage_counts,
                       microbatches=microbatches, schedules=schedules,
                       backend="RDMA")  # the mechanism every cell runs
    for stages in stage_counts:
        for schedule in schedules:
            bench = _uncrashed(run_training_benchmark(
                spec, "RDMA", num_servers=stages, batch_size=batch_size,
                iterations=iterations, strategy="llm", config=config,
                microbatches=microbatches, schedule=schedule,
                collect_trace=True), f"llmtrain {schedule}/s{stages}")
            report = pipeline_bubble_report(bench.pipeline,
                                            bench.stall_report())
            payload["cells"].append({
                "stages": stages, "schedule": schedule,
                "step_ms": bench.step_time * 1e3,
                "ideal_step_ms": report["ideal_step_s"] * 1e3,
                "bubble_fraction": report["bubble_fraction"],
                "useful_fraction": report["useful_fraction"],
                # per_stage remat_s aggregates the steady-state
                # iterations; record it per step like every other field.
                "remat_ms": (sum(s["remat_s"] for s in report["per_stage"])
                             / max(report["iterations"], 1) * 1e3),
                "residual_s": abs(report["accounting_residual_s"]),
            })
            yield payload


def _llmtrain_pairs(payload: Dict) -> List[Tuple[Dict, Dict]]:
    return _pairs(payload["cells"], "schedule", "gpipe", "1f1b", "stages")


def _llmtrain_table(payload: Dict) -> ExperimentResult:
    cfg, cells = payload["config"], payload["cells"]
    result = _tabulate(
        "Extension: llmtrain",
        f"Pipeline-parallel training: {cfg['model']}, batch "
        f"{cfg['batch_size']} x {cfg['microbatches']} microbatches",
        (("stages", None), ("schedule", None), ("step_ms", 3),
         ("ideal_ms", 3, "ideal_step_ms"), ("bubble_fraction", 4),
         ("useful_fraction", 4), ("remat_ms", 3), ("residual_s", ".1e")),
        cells)
    pairs = _llmtrain_pairs(payload)
    for gpipe, onef1b in pairs:
        wins = onef1b["bubble_fraction"] < gpipe["bubble_fraction"]
        result.note(f"s={gpipe['stages']}: 1f1b bubble "
                    f"{onef1b['bubble_fraction']:.3f} vs gpipe "
                    f"{gpipe['bubble_fraction']:.3f} (1f1b_wins={wins})")
    if len(cfg["schedules"]) == 2:
        headline = all(o["bubble_fraction"] < g["bubble_fraction"]
                       for g, o in pairs if g["stages"] >= 4)
        result.note(f"1f1b bubble fraction below gpipe at every stage "
                    f"count >= 4: {headline}")
    result.note(f"worst bubble-accounting residual: "
                f"{max(c['residual_s'] for c in cells):.2e} s "
                f"(op + bubble - remat must equal the measured step)")
    return result


def _llmtrain_headlines(payload: Dict) -> List[str]:
    out = [f"s={g['stages']}: 1f1b bubble fraction "
           f"{o['bubble_fraction']:.4f} is not below gpipe's "
           f"{g['bubble_fraction']:.4f}"
           for g, o in _llmtrain_pairs(payload)
           if g["stages"] >= 4
           and not o["bubble_fraction"] < g["bubble_fraction"]]
    out += [f"s={c['stages']} {c['schedule']}: bubble decomposition misses "
            f"the step time by {c['residual_s']:.1e} s (must be < 1e-9)"
            for c in payload["cells"] if not c["residual_s"] < 1e-9]
    return out


def _llmserve_run(model: str, requests: int, qps: float,
                  static_timeouts: Sequence[float], seed: int = 11,
                  config: RunConfig = RunConfig()) -> Iterator[Dict]:
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

    * continuous batching decodes more tokens/s than every static cell
      while keeping TTFT p99 no worse than the best static cell (the
      "equal TTFT" budget);
    * every mode drains with zero KV-cache bytes outstanding (an
      admission/eviction accounting leak fails CI).
    """
    grid = dict(locals())
    from ..llm import run_llm_serving_benchmark

    cfg = config.serving
    spec = get_model(model)
    deployment = dict(replicas=cfg.replicas, max_batch=cfg.max_batch,
                      max_width=cfg.max_width)
    payload = _payload("llmserve", grid, kv_budget_mb=cfg.kv_budget_mb,
                       **deployment)
    for mode in [dict(mode="continuous")] + [
            dict(mode="static", batch_timeout=t) for t in static_timeouts]:
        run = run_llm_serving_benchmark(spec, config=cfg, qps=qps,
                                        requests=requests, seed=seed, **mode)
        payload["cells"].append(run.to_dict())
        yield payload


def _ttft_p99(cell: Dict) -> float:
    return cell["ttft"].get("p99", 0.0)  # {}: nothing reached a first token


def _llmserve_verdicts(payload: Dict) -> Dict[str, object]:
    continuous, *statics = payload["cells"]
    best = max(statics, key=lambda c: c["decode_tokens_per_s"])
    return {
        "best_static": best,
        "throughput_wins": all(continuous["decode_tokens_per_s"]
                               > c["decode_tokens_per_s"] for c in statics),
        "ttft_held": _ttft_p99(continuous) <= _ttft_p99(best),
        "kv_leak_free": all(c["kv_leaked_bytes"] == 0
                            for c in payload["cells"]),
        "all_drained": all(c["completed"] + c["shed"]
                           == payload["config"]["requests"]
                           for c in payload["cells"]),
    }


def _llmserve_table(payload: Dict) -> ExperimentResult:
    cfg, cells = payload["config"], payload["cells"]
    result = _tabulate(
        "Extension: llmserve",
        f"LLM serving: {cfg['model']}, {cfg['replicas']} replicas, "
        f"{cfg['qps']:g} qps offered, KV budget {cfg['kv_budget_mb']:g} MB",
        (("mode", None), ("timeout_ms", 1, "batch_timeout", 1e3),
         ("completed", None), ("shed", None),
         ("decode_tok_s", 1, "decode_tokens_per_s"),
         ("ttft_p99_ms", 2, "ttft.p99", 1e3),
         ("tpot_p50_ms", 3, "tpot.p50", 1e3), ("mean_width", 2),
         ("preemptions", None), ("kv_peak_mb", 1, "kv.peak_bytes", 1 / MB),
         ("kv_leaked", None, "kv_leaked_bytes")), cells)
    verdicts = _llmserve_verdicts(payload)
    continuous, best = cells[0], verdicts["best_static"]
    result.note(f"continuous {continuous['decode_tokens_per_s']:.0f} tok/s "
                f"at TTFT p99 {_ttft_p99(continuous) * 1e3:.1f} ms "
                f"vs best static {best['decode_tokens_per_s']:.0f} "
                f"tok/s at {_ttft_p99(best) * 1e3:.1f} ms "
                f"(timeout {best['batch_timeout'] * 1e3:g} ms)")
    beats = verdicts["throughput_wins"] and verdicts["ttft_held"]
    result.note(f"continuous_beats_static={beats} "
                f"(throughput_wins={verdicts['throughput_wins']}, "
                f"ttft_held={verdicts['ttft_held']})")
    result.note(f"kv_leak_free={verdicts['kv_leak_free']}, "
                f"all_drained={verdicts['all_drained']}")
    return result


def _llmserve_headlines(payload: Dict) -> List[str]:
    verdicts = _llmserve_verdicts(payload)
    continuous, best = payload["cells"][0], verdicts["best_static"]
    out = []
    if not (verdicts["throughput_wins"] and verdicts["ttft_held"]):
        out.append(
            f"continuous batching no longer beats the best static cell "
            f"({continuous['decode_tokens_per_s']:.0f} vs "
            f"{best['decode_tokens_per_s']:.0f} tok/s; TTFT p99 "
            f"{_ttft_p99(continuous) * 1e3:.1f} vs "
            f"{_ttft_p99(best) * 1e3:.1f} ms)")
    out += [f"{c['mode']} (timeout {c['batch_timeout'] * 1e3:g} ms) leaked "
            f"{c['kv_leaked_bytes']} KV-cache bytes after drain (must be 0)"
            for c in payload["cells"] if c["kv_leaked_bytes"]]
    if not verdicts["all_drained"]:
        out.append("requests left non-terminal: completed + shed != "
                   f"{payload['config']['requests']}")
    return out


def _stallreport_headlines(result: ExperimentResult) -> List[str]:
    if not result.rows:
        return ["the traced benchmark crashed"]
    return [f"iteration {iteration}: stall components cover {coverage}% of "
            f"the step (must be within 1% of 100)"
            for iteration, coverage in zip(result.column("iteration"),
                                           result.column("coverage_pct"))
            if not abs(coverage - 100.0) < 1.0]


# -- the registry ----------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """What the regression gate re-runs of a committed grid, and compares.

    The gate re-runs the committed config's keyword grid with the axes
    ``narrow(committed)`` names cut down to a slice.  A fresh cell is
    matched to the committed cell with the same ``key`` fields, named
    ``label`` (a format string over the cell) in the report, and
    compared on each ``(field, direction)`` (a :func:`cell_value` path;
    directions as in :class:`repro.harness.regress.Check`).
    """

    narrow: Callable[[Dict], Dict]
    key: Tuple[str, ...]
    label: str
    fields: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class Experiment:
    """One experiment: data plus pure functions, everything else reads it.

    The CLI prints ``table(payload)``, writes the payload of a ``bench``
    entry to ``BENCH_<name>.json`` and exits nonzero on
    ``headlines(payload)``; the regression gate re-runs the ``gate``'s
    slice of the committed file and reports the same headlines on what
    it ran.  ``full`` is the grid the committed file holds, ``smoke``
    the small one CI and the default CLI run.
    """

    name: str
    #: generator over ``**grid``: the payload-so-far after every
    #: finished cell; the only code that simulates anything
    run: Callable[..., Iterator]
    full: Dict = field(default_factory=dict)
    smoke: Dict = field(default_factory=dict)
    table: Callable[[object], ExperimentResult] = lambda payload: payload
    #: violated invariants, worded for a log
    headlines: Callable[[object], List[str]] = lambda payload: []
    bench: bool = False
    gate: Optional[Gate] = None


def _figure(fn: Callable[..., ExperimentResult],
            simulates: bool = True) -> Callable[..., Iterator]:
    """A paper figure's one payload is its finished table; one that only
    reads the model zoo (``simulates=False``) has no use for the config."""
    @wraps(fn)
    def run(config: RunConfig = RunConfig(), **grid):
        yield fn(config=config, **grid) if simulates else fn(**grid)
    return run


def _prefer(committed: Dict, axis: str, value) -> tuple:
    """``value`` if the committed grid swept it, else its first point."""
    swept = committed["config"][axis]
    return (value if value in swept else swept[0],)


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("table2", _figure(table2, simulates=False)),
    Experiment("figure7", _figure(figure7, simulates=False)),
    Experiment("figure8", _figure(figure8),
               smoke=dict(sizes=(1 * MB, 64 * MB, 1 * GB), iterations=3)),
    Experiment("figure9", _figure(figure9),
               smoke=dict(models=("AlexNet", "VGGNet-16"), batches=(1, 32))),
    Experiment("figure10", _figure(figure10), smoke=dict(steps=60)),
    Experiment("figure11", _figure(figure11),
               smoke=dict(models=("VGGNet-16",))),
    Experiment("figure12", _figure(figure12),
               smoke=dict(models=("AlexNet", "GRU"))),
    Experiment("table3", _figure(table3),
               smoke=dict(models=("AlexNet", "Inception-v3"))),
    Experiment("allreduce", _figure(extension_allreduce),
               smoke=dict(models=("FCN-5",), server_counts=(4,),
                          mechanisms=("RDMA",))),
    Experiment("stallreport", _figure(stallreport),
               headlines=_stallreport_headlines),
    Experiment(
        "overlap", _overlap_run, table=_overlap_table,
        headlines=_overlap_headlines, bench=True,
        full=dict(models=tuple(paper_model_names()), num_servers=4),
        smoke=dict(models=("FCN-5", "GRU"), num_servers=2),
        gate=Gate(
            # a model subset keeps the gate fast
            narrow=lambda committed: dict(
                models=[m for m in committed["config"]["models"]
                        if m in ("AlexNet", "FCN-5")]),
            key=("benchmark",), label="{benchmark}",
            fields=(("barrier_step_ms", "lower_better"),
                    ("eager_priority_step_ms", "lower_better")))),
    Experiment(
        "chaos", _chaos_run, table=_chaos_table, headlines=_chaos_headlines,
        bench=True, full=dict(seeds=(0, 1, 2)), smoke=dict(seeds=(0, 1, 2))),
    Experiment(
        "serving", _serving_run, table=_serving_table,
        headlines=_serving_headlines, bench=True,
        full=dict(requests=600), smoke=dict(requests=300),
        gate=Gate(
            narrow=lambda committed: dict(
                runs=(f"batch-{committed['config']['max_batch']}",)),
            key=("run",), label="{run}",
            fields=(("throughput_rps", "higher_better"),
                    ("latency.p99", "lower_better"),
                    ("completed", "match")))),
    Experiment(
        "scale", _scale_run, table=_scale_table, headlines=_scale_headlines,
        bench=True, full=dict(worker_counts=(64, 128, 256)),
        smoke=dict(worker_counts=(64,)),
        gate=Gate(
            # the configured collective alone, no flat-ring comparator
            narrow=lambda committed: dict(
                worker_counts=_prefer(committed, "worker_counts", 64),
                max_flat_ring_workers=0),
            key=("workers", "strategy"), label="n{workers}",
            # Traffic volume drifting in either direction means the
            # collective changed shape, not just speed: gate both ways.
            fields=(("step_ms", "lower_better"), ("uplink_mb", "match"),
                    ("predicted_wire_mb", "match")))),
    Experiment(
        "netreduce", _netreduce_run, table=_netreduce_table,
        headlines=_netreduce_headlines, bench=True,
        # GRU first: the gate's n=64 slice then costs 30 s, not 70
        full=dict(worker_counts=(8, 64, 128),
                  models=("GRU", "FCN-5", "Inception-v3")),
        smoke=dict(worker_counts=(8, 64), models=("FCN-5",)),
        gate=Gate(
            narrow=lambda committed: dict(
                worker_counts=_prefer(committed, "worker_counts", 64),
                models=committed["config"]["models"][:1]),
            key=("model", "workers", "strategy"),
            label="{model}.n{workers}.{strategy}",
            # The wire-byte identity is exact in the simulator, so the
            # match tolerance guards the accounting, not the schedule.
            fields=(("step_ms", "lower_better"),
                    ("wire_mb_per_worker", "match")))),
    Experiment(
        "telemetry", _telemetry_run, table=_telemetry_table,
        headlines=_telemetry_headlines, bench=True,
        full=dict(iterations=3), smoke=dict(iterations=2),
        gate=Gate(
            narrow=lambda committed: {},
            key=("run",), label="{run}",
            fields=(("step_ms", "lower_better"), ("spans_kept", "match"),
                    ("incidents", "match")))),
    Experiment(
        "lossy", _lossy_run, table=_lossy_table, headlines=_lossy_headlines,
        bench=True, full=dict(worker_counts=(8, 64, 128)),
        smoke=dict(worker_counts=(8,)),
        gate=Gate(
            # the loss-free cell (RC vs shared QP) and the worst rate
            narrow=lambda committed: dict(
                worker_counts=_prefer(committed, "worker_counts", 8),
                loss_rates=(0.0, max(committed["config"]["loss_rates"])),
                strategies=("hierarchical",)),
            key=("workers", "strategy", "loss_rate"),
            label="n{workers}.{strategy}.p{loss_rate:g}",
            # The fault schedule is seeded, so loss and retransmit
            # accounting reproduce exactly: drift is an accounting
            # change, not noise.
            fields=(("step_ms", "lower_better"), ("lost_bytes", "match"),
                    ("retransmitted_bytes", "match")))),
    Experiment(
        "llmtrain", _llmtrain_run, table=_llmtrain_table,
        headlines=_llmtrain_headlines, bench=True,
        full=dict(model="GPT-350M", stage_counts=(2, 4, 8)),
        smoke=dict(model="TF-Tiny", stage_counts=(2, 4), microbatches=2,
                   batch_size=4, iterations=2),
        gate=Gate(
            narrow=lambda committed: dict(
                stage_counts=_prefer(committed, "stage_counts", 4)),
            key=("stages", "schedule"), label="s{stages}.{schedule}",
            fields=(("step_ms", "lower_better"),
                    ("bubble_fraction", "lower_better")))),
    Experiment(
        "llmserve", _llmserve_run, table=_llmserve_table,
        headlines=_llmserve_headlines, bench=True,
        full=dict(model="GPT-350M", requests=160, qps=60.0,
                  static_timeouts=(2e-3, 50e-3, 200e-3)),
        smoke=dict(model="TF-Tiny", requests=120, qps=400.0,
                   static_timeouts=(2e-3, 50e-3)),
        gate=Gate(
            # continuous against the committed sweep's best static point
            narrow=lambda committed: dict(static_timeouts=(max(
                (c for c in committed["cells"] if c["mode"] == "static"),
                key=lambda c: c["decode_tokens_per_s"])["batch_timeout"],)),
            key=("mode", "batch_timeout"), label="{mode}",
            fields=(("decode_tokens_per_s", "higher_better"),
                    ("ttft.p99", "lower_better"),
                    ("completed", "match")))),
)

ALL_EXPERIMENTS: Dict[str, Experiment] = {entry.name: entry
                                          for entry in EXPERIMENTS}


def bench_file(name: str, directory: str = "") -> str:
    """The results file the ``bench`` experiment ``name`` owns."""
    return os.path.join(directory, f"BENCH_{name}.json")


def execute(entry: Experiment, grid: Dict, bench_dir: Optional[str] = None,
            config: RunConfig = RunConfig()):
    """Drive ``entry.run(**grid)`` under ``config`` to its final payload.

    With ``bench_dir``, a ``bench`` entry's file is rewritten after
    every finished cell: a long sweep that dies keeps everything
    finished so far (that partial file is how the OOM of the
    128-worker Inception-v3 netreduce cell was located).
    """
    payload = None
    for payload in entry.run(config=config, **grid):
        if bench_dir is not None and entry.bench:
            os.makedirs(bench_dir, exist_ok=True)
            with open(bench_file(entry.name, bench_dir), "w") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
    return payload
