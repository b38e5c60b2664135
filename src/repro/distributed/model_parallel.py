"""Model-parallel training: pipeline the layers across servers.

The paper's distributed dataflow model "offers convenience and
flexibility to allow not only data-parallelism, but also
model-parallelism, which is critical when the deep learning model size
is large" (§2.1, Figure 2).  This module builds exactly that: the
model's layers are split into contiguous *stages*, each stage's
variables live on their own server, and what crosses the network is
the **activations** (forward) and **activation gradients** (backward)
between adjacent stages — all through the same Send/Recv machinery,
so every transfer mechanism (gRPC or the paper's RDMA protocols)
applies unchanged.

The mini-batch is cut into microbatches and every stage executes an
explicit per-stage order — GPipe (all forwards, then all backwards,
with activation rematerialization paying an extra forward inside each
backward) or 1F1B (warmup forwards, steady-state one-forward-one-
backward, drain), the schedule Megatron/PipeDream-Flush run.  One
microbatch is the plain layer pipeline: a single activation in flight,
down the stages and back.  The order is pinned into the dataflow graph
itself via chain edges, so the unmodified executor reproduces it and
the stall report's per-stage ``op`` accounting measures exactly the
useful compute — everything else in the iteration window is pipeline
bubble (see :func:`pipeline_bubble_report`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..graph.builder import GraphBuilder
from ..graph.dtypes import DType
from ..graph.node import Graph, NodeOutput
from ..graph.shapes import Shape
from ..models.spec import ModelSpec
from .replication import _LR


#: microbatched pipeline schedules (the CLI's ``--schedule``)
SCHEDULES = ("gpipe", "1f1b")

#: forward share of one microbatch's compute; backward is the rest
#: (the textbook 1:2 forward:backward FLOP ratio)
_FORWARD_SHARE = 1.0 / 3.0


@dataclass
class PipelineJob:
    """A built pipeline-parallel training graph plus its analytic cost model.

    ``activation_bytes`` is the size of one *microbatch* boundary
    transfer; per-stage forward/backward times are recorded so the
    bubble report can separate useful compute from schedule bubble
    without re-deriving the synthetic cost model.
    """

    graph: Graph
    spec: ModelSpec
    num_stages: int
    batch_size: int
    devices: List[str]
    activation_bytes: int
    microbatches: int
    schedule: str
    stage_layers: List[List[int]]
    #: per-stage forward / backward compute for ONE microbatch (s);
    #: backward excludes the rematerialization surcharge
    stage_forward_s: List[float]
    stage_backward_s: List[float]

    @property
    def rematerialize(self) -> bool:
        """GPipe stores only boundary activations and recomputes the
        rest inside each backward (per the GPipe paper); 1F1B bounds
        live activations at the stage depth instead."""
        return self.schedule == "gpipe"

    @property
    def cross_stage_bytes_per_step(self) -> int:
        """Activations forward + gradients backward per boundary."""
        return (2 * self.activation_bytes * (self.num_stages - 1)
                * self.microbatches)

    def remat_seconds(self, stage: int) -> float:
        """Rematerialization time stage ``stage`` pays per step."""
        if not self.rematerialize:
            return 0.0
        return self.microbatches * self.stage_forward_s[stage]

    @property
    def ideal_step_seconds(self) -> float:
        """The (M + S - 1) lower bound with the slowest stage pacing."""
        per_mb = [f + b + (f if self.rematerialize else 0.0)
                  for f, b in zip(self.stage_forward_s,
                                  self.stage_backward_s)]
        return (self.microbatches + self.num_stages - 1) * max(per_mb)


def split_stages(spec: ModelSpec, num_stages: int) -> List[List[int]]:
    """Split layer indices into contiguous, byte-balanced stages.

    Asking for more stages than the model has layers clamps to one
    layer per stage (with a warning) rather than failing — deep
    pipelines degrade gracefully on small models.
    """
    if num_stages < 1:
        raise ValueError("need at least one stage")
    if num_stages > spec.num_variables:
        warnings.warn(
            f"{num_stages} stages but {spec.name} has only "
            f"{spec.num_variables} layers; clamping to "
            f"{spec.num_variables} stages", stacklevel=2)
        num_stages = spec.num_variables
    target = spec.model_bytes / num_stages
    stages: List[List[int]] = []
    current: List[int] = []
    accumulated = 0
    for index, variable in enumerate(spec.variables):
        current.append(index)
        accumulated += variable.nbytes
        remaining_layers = spec.num_variables - index - 1
        stages_still_needed = num_stages - len(stages) - 1
        must_split = remaining_layers == stages_still_needed
        if len(stages) < num_stages - 1 and (accumulated >= target
                                             or must_split):
            stages.append(current)
            current, accumulated = [], 0
    stages.append(current)
    return stages


def schedule_order(schedule: str, num_stages: int, stage: int,
                   microbatches: int) -> List[Tuple[str, int]]:
    """The exact per-stage execution order: ("F"|"B", microbatch).

    * ``gpipe``: all forwards, then all backwards (a per-stage flush).
    * ``1f1b``: ``min(S - 1 - stage, M)`` warmup forwards, then
      alternate forward/backward, then drain the remaining backwards.

    Both orders respect the cross-stage dataflow (forward m needs the
    upstream activation m; backward m needs the downstream gradient m),
    so pinning them with chain edges can never deadlock the executor.
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}; have {SCHEDULES}")
    if schedule == "gpipe":
        return ([("F", m) for m in range(microbatches)]
                + [("B", m) for m in range(microbatches)])
    warmup = min(num_stages - 1 - stage, microbatches)
    order = [("F", m) for m in range(warmup)]
    forward, backward = warmup, 0
    while forward < microbatches:
        order.append(("F", forward))
        order.append(("B", backward))
        forward += 1
        backward += 1
    while backward < microbatches:
        order.append(("B", backward))
        backward += 1
    return order


def build_model_parallel_graph(
        spec: ModelSpec, num_stages: int, batch_size: int,
        activation_elements_per_sample: int = 4096,
        microbatches: int = 1,
        schedule: str = "1f1b") -> PipelineJob:
    """Build the pipeline: stage i computes its layers on each
    microbatch and ships the activation tensor to stage i+1; the
    backward pass returns the activation gradient.

    Every stage runs ``schedule``'s order (:func:`schedule_order`);
    under GPipe each backward also pays the recomputed forward
    (:attr:`PipelineJob.rematerialize`).
    """
    if microbatches < 1:
        raise ValueError("need at least one microbatch")
    if batch_size % microbatches:
        raise ValueError(f"batch size {batch_size} not divisible by "
                         f"{microbatches} microbatches")
    stages = split_stages(spec, num_stages)
    num_stages = len(stages)
    orders = [schedule_order(schedule, num_stages, s, microbatches)
              for s in range(num_stages)]
    rematerialize = schedule == "gpipe"
    mb_size = batch_size // microbatches
    builder = GraphBuilder(
        f"{spec.name}-pipeline-{schedule}-m{microbatches}")
    total_bytes = max(spec.model_bytes, 1)
    # One microbatch's full fwd+bwd compute, split across stages by
    # parameter bytes (the proportionality the data-parallel replicas
    # use per layer), then 1:2 between forward and backward.
    mb_compute = spec.sample_time * max(
        1.0, (batch_size / microbatches) / spec.batch_saturation)
    stage_share = [sum(spec.variables[i].nbytes for i in layer_indices)
                   / total_bytes for layer_indices in stages]
    stage_forward = [mb_compute * share * _FORWARD_SHARE
                     for share in stage_share]
    stage_backward = [mb_compute * share * (1.0 - _FORWARD_SHARE)
                      for share in stage_share]
    activation_shape = Shape([mb_size, activation_elements_per_sample])
    activation_bytes = mb_size * activation_elements_per_sample * 4

    # Stage-local variables.
    variable_outputs: Dict[int, NodeOutput] = {}
    for stage_index, layer_indices in enumerate(stages):
        device = f"stage{stage_index}"
        for layer in layer_indices:
            var = spec.variables[layer]
            variable_outputs[layer] = builder.variable(
                Shape(var.shape), DType.float32, name=var.name,
                device=device)

    # Schedule every (stage, microbatch) cell in the exact per-stage
    # order.  A chain edge (previous cell's first output) pins the
    # order inside each stage; cross-stage activation edges become the
    # static RDMA transfers.  Backward cells before the last also emit
    # only the activation gradient — gradients accumulate in place and
    # the final backward materializes the per-variable gradients.
    forward_nodes: Dict[Tuple[int, int], NodeOutput] = {}
    backward_nodes: Dict[Tuple[int, int], NodeOutput] = {}

    def emit_cell(stage_index: int, position: int) -> None:
        device = f"stage{stage_index}"
        kind, mb = orders[stage_index][position]
        if position == 0:
            # Anchor the stage's first cell on its variables so nothing
            # runs before initialization.
            inputs = [variable_outputs[layer]
                      for layer in stages[stage_index]]
        else:
            prev_kind, prev_mb = orders[stage_index][position - 1]
            inputs = [(forward_nodes if prev_kind == "F"
                       else backward_nodes)[(stage_index, prev_mb)]]
        if kind == "F":
            if stage_index > 0:
                inputs.append(forward_nodes[(stage_index - 1, mb)])
            forward_nodes[(stage_index, mb)] = builder.synthetic_compute(
                stage_forward[stage_index], inputs=inputs,
                outputs=[(DType.float32, activation_shape)],
                name=f"fwd/s{stage_index}/m{mb}", device=device)
            return
        if stage_index < num_stages - 1:
            inputs.append(backward_nodes[(stage_index + 1, mb)])
        else:
            inputs.append(forward_nodes[(stage_index, mb)])
        cost = stage_backward[stage_index]
        if rematerialize:
            # GPipe recomputes the stage forward before differentiating.
            cost += stage_forward[stage_index]
        outputs = [(DType.float32, activation_shape)]
        if mb == microbatches - 1:
            outputs += [(DType.float32, Shape(spec.variables[layer].shape))
                        for layer in stages[stage_index]]
        backward_nodes[(stage_index, mb)] = builder.synthetic_compute(
            cost, inputs=inputs, outputs=outputs,
            name=f"bwd/s{stage_index}/m{mb}", device=device)

    # Topological emission: walk cells stage-by-stage in schedule
    # order, deferring any cell whose cross-stage input isn't built
    # yet.  The schedules are causally valid, so this always drains.
    cursors = [0] * num_stages
    remaining = sum(len(order) for order in orders)
    while remaining:
        progressed = False
        for stage_index, order in enumerate(orders):
            while cursors[stage_index] < len(order):
                kind, mb = order[cursors[stage_index]]
                if kind == "F" and stage_index > 0 \
                        and (stage_index - 1, mb) not in forward_nodes:
                    break
                if kind == "B" and stage_index < num_stages - 1 \
                        and (stage_index + 1, mb) not in backward_nodes:
                    break
                emit_cell(stage_index, cursors[stage_index])
                cursors[stage_index] += 1
                remaining -= 1
                progressed = True
        if not progressed:  # pragma: no cover - schedules are valid
            raise RuntimeError(f"schedule {schedule!r} deadlocked")

    # Weight update: the last backward of each stage carries the
    # accumulated per-variable gradients.
    for stage_index, layer_indices in enumerate(stages):
        device = f"stage{stage_index}"
        last_backward = backward_nodes[(stage_index, microbatches - 1)]
        for slot, layer in enumerate(layer_indices, start=1):
            var = spec.variables[layer]
            builder.apply_gradient(
                variable_outputs[layer],
                last_backward.node.output(slot),
                lr=_LR, name=f"apply/{var.name}", device=device)

    graph = builder.finalize()
    return PipelineJob(
        graph=graph, spec=spec, num_stages=num_stages,
        batch_size=batch_size,
        devices=sorted({n.device for n in graph}),
        activation_bytes=activation_bytes,
        microbatches=microbatches, schedule=schedule,
        stage_layers=[list(layer_indices) for layer_indices in stages],
        stage_forward_s=stage_forward, stage_backward_s=stage_backward)


def pipeline_bubble_report(job: PipelineJob, report) -> Dict[str, object]:
    """Bubble-time accounting on top of the stall report.

    For every stage executor the stall report already partitions the
    iteration window into ``op`` (busy computing) and the stall
    categories (sched/poll/poll_wait/wire_wait), with the remainder of
    the window being post-finish idle (the stage is done, the session
    barrier isn't).  Everything that is not *useful* compute is
    pipeline bubble:

        bubble(stage) = window - op(stage) + remat(stage)

    where ``remat`` re-classifies GPipe's recomputation surcharge
    (measured inside ``op``) as bubble — it burns cycles without
    advancing training.  By construction ``op + bubble - remat``
    equals the measured iteration time exactly, so the figures sum
    into the stall report rather than floating beside it.
    """
    from ..observability.tracer import executor_track

    iterations = report.iterations
    if len(iterations) > 1:  # the first one pays warm-up allocation
        iterations = iterations[1:]
    if not iterations:
        raise ValueError("stall report has no iterations; "
                         "run with collect_trace=True")
    tracks = {executor_track(f"stage{s}"): s
              for s in range(job.num_stages)}
    per_stage = [{"stage": s, "op_s": 0.0, "stall_s": 0.0,
                  "idle_s": 0.0, "remat_s": 0.0, "bubble_s": 0.0}
                 for s in range(job.num_stages)]
    total_duration = 0.0
    for it in iterations:
        total_duration += it.duration
        for executor in it.executors:
            stage = tracks.get(executor.track)
            if stage is None:
                continue
            op = executor.components.get("op", 0.0)
            stalls = sum(v for k, v in executor.components.items()
                         if k != "op")
            remat = job.remat_seconds(stage)
            row = per_stage[stage]
            row["op_s"] += op
            row["stall_s"] += stalls
            row["idle_s"] += max(it.duration - executor.total, 0.0)
            row["remat_s"] += remat
            row["bubble_s"] += it.duration - op + remat
    for row in per_stage:
        row["bubble_fraction"] = (row["bubble_s"] / total_duration
                                  if total_duration else 0.0)
        row["useful_fraction"] = ((row["op_s"] - row["remat_s"])
                                  / total_duration
                                  if total_duration else 0.0)
    slots = job.num_stages * total_duration
    bubble = sum(row["bubble_s"] for row in per_stage)
    useful = sum(row["op_s"] - row["remat_s"] for row in per_stage)
    return {
        "schedule": job.schedule,
        "stages": job.num_stages,
        "microbatches": job.microbatches,
        "rematerialize": job.rematerialize,
        "iterations": len(iterations),
        "step_s": total_duration / len(iterations),
        "ideal_step_s": job.ideal_step_seconds,
        "per_stage": per_stage,
        "bubble_fraction": bubble / slots if slots else 0.0,
        "useful_fraction": useful / slots if slots else 0.0,
        # op + bubble - remat == stages * duration, by construction;
        # report the residual so drift is visible.
        "accounting_residual_s": (sum(row["op_s"] + row["bubble_s"]
                                      - row["remat_s"]
                                      for row in per_stage) - slots),
    }
