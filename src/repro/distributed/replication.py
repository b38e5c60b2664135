"""Data-parallel graph replication over a parameter-server cluster.

Builds the distributed training step of Figure 3: each worker holds a
replica whose *GenGrad* sub-graph (synthetic compute charged with the
benchmark's measured per-batch time) consumes the current weights and
produces one gradient tensor per variable; the gradients flow to the
variables' parameter-server shards, where *ApplyGrad* updates the
shared weights in place; the updated weights flow back to every worker
for the next mini-batch.  Each mini-batch therefore moves
2 x model_size bytes per worker across the network — the paper's
communication-volume characterization (§5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional

from ..graph.builder import GraphBuilder
from ..graph.dtypes import DType
from ..graph.node import Graph, NodeOutput
from ..graph.shapes import Shape
from ..models.spec import ModelSpec
from .placement import greedy_placement, round_robin_placement


#: learning rate of every ApplyGradient the training graphs emit (the
#: simulated cost is per byte, charged by the op itself)
_LR = 0.01


@dataclass
class TrainingJob:
    """A built distributed training graph plus its device layout."""

    graph: Graph
    spec: ModelSpec
    num_workers: int
    num_ps: int
    batch_size: int
    devices: List[str]

    @property
    def bytes_per_worker_per_step(self) -> int:
        return 2 * self.spec.model_bytes


def worker_replica(builder: GraphBuilder, spec: ModelSpec, batch_size: int,
                   index: int, device: str,
                   weights: Mapping[str, NodeOutput],
                   on_gradient: Callable[[str, NodeOutput], None]
                   ) -> NodeOutput:
    """Emit worker ``index``'s GenGrad chain on ``device``.

    The worker reads ``weights`` (variable name -> current value), runs
    the forward chain over the layers, then the backward chain in
    reverse layer order, calling ``on_gradient(name, gradient)`` right
    after each layer's backward stage.  Returns the last backward stage.

    Both data-parallel graphs (this module's PS graph and
    :mod:`repro.distributed.allreduce`) build their replicas here, so a
    PS-vs-collective comparison charges the same compute.  Each
    variable's share of the forward (and backward) pass is proportional
    to its size, so big layers take longer — and transfers overlap
    compute exactly as in a real dataflow execution (layer k+1's
    weights stream in while layer k computes; early gradients ship
    while later layers are still in backward).
    """
    total_bytes = max(spec.model_bytes, 1)
    half = spec.compute_time(batch_size) / 2.0
    shares = [v.nbytes / total_bytes for v in spec.variables]
    # Read the current weights (PS -> worker transfers in the PS graph).
    reads = [builder.identity(weights[v.name],
                              name=f"w{index}/read/{v.name}", device=device)
             for v in spec.variables]
    # Forward chain: layer i needs its weights and layer i-1.
    previous = None
    for i, var in enumerate(spec.variables):
        inputs = [reads[i]]
        if previous is not None:
            inputs.append(previous)
        previous = builder.synthetic_compute(
            half * shares[i], inputs=inputs,
            name=f"w{index}/fwd/{var.name}", device=device)
    # Backward chain (reverse order), each stage emitting its layer's
    # gradient.
    for i in reversed(range(len(spec.variables))):
        var = spec.variables[i]
        previous = builder.synthetic_compute(
            half * shares[i],
            outputs=[(DType.float32, Shape(var.shape))],
            inputs=[previous],
            name=f"w{index}/bwd/{var.name}", device=device)
        on_gradient(var.name, previous)
    return previous


def build_training_graph(spec: ModelSpec, num_workers: int,
                         batch_size: int,
                         num_ps: Optional[int] = None,
                         local: bool = False,
                         placement: str = "round_robin") -> TrainingJob:
    """Construct the replicated data-parallel training graph.

    ``local=True`` builds the paper's "Local" baseline: a single
    device holding both the variables and the compute, so no
    cross-server transfer happens at all (Figure 11's Local line).
    ``placement`` selects the variable-sharding strategy:
    ``"round_robin"`` (the paper's §5.2 default) or ``"greedy"``
    (byte-balanced; an extension).
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    num_ps = num_workers if num_ps is None else num_ps
    builder = GraphBuilder(f"{spec.name}-train")
    if placement == "round_robin":
        shards = round_robin_placement(spec, num_ps)
    elif placement == "greedy":
        shards = greedy_placement(spec, num_ps)
    else:
        raise ValueError(f"unknown placement strategy {placement!r}")

    # Shared variables on their PS shards (or the single local device).
    variable_outputs = {}
    variable_device = {}
    for shard, variables in shards.items():
        device = "local0" if local else shard
        for var in variables:
            out = builder.variable(Shape(var.shape), DType.float32,
                                   name=var.name, device=device)
            variable_outputs[var.name] = out
            variable_device[var.name] = device

    for worker_index in range(num_workers):
        def apply(name: str, gradient: NodeOutput,
                  worker_index: int = worker_index) -> None:
            # The gradient ships to its PS shard right after its
            # backward stage.
            builder.apply_gradient(
                variable_outputs[name], gradient, lr=_LR,
                name=f"w{worker_index}/apply/{name}",
                device=variable_device[name])

        worker_replica(builder, spec, batch_size, worker_index,
                       "local0" if local else f"worker{worker_index}",
                       variable_outputs, apply)

    graph = builder.finalize()
    devices = sorted({node.device for node in graph})
    return TrainingJob(graph=graph, spec=spec, num_workers=num_workers,
                       num_ps=num_ps, batch_size=batch_size, devices=devices)
