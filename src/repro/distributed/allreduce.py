"""Data-parallel training over worker-to-worker collectives.

The paper's evaluation (§5, Figure 11) trains through a
parameter-server graph: every mini-batch moves ``2 × model_bytes`` per
worker (gradients up, weights down) and concentrates the aggregate
load on the PS shards.  This module builds the alternative that modern
stacks (NCCL/Horovod-style) use: every worker holds a **replica** of
the variables, gradients are bucketized into fusion buffers
(:mod:`repro.collectives.bucketing`) and reduced directly between
workers with a bandwidth-optimal collective, and each worker applies
the reduced gradient to its local replica.  Per step a worker then
puts only ``≈ 2 × model_bytes × (N-1)/N`` on the wire, there are no
PS processes at all, and every chunk transfer is a statically-placed
one-sided RDMA write.

``build_allreduce_training_graph`` builds each worker's forward/backward
chain with the PS graph's own
:func:`repro.distributed.replication.worker_replica` and applies at the
same learning-rate constant, so PS-vs-collective comparisons differ
only in the communication pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..collectives.bucketing import (DEFAULT_FUSION_BYTES, GradientBucket,
                                     plan_buckets)
from ..collectives.fragments import (halving_doubling_allreduce,
                                     halving_doubling_wire_bytes,
                                     ring_allreduce,
                                     ring_allreduce_wire_bytes,
                                     tag_fragment_priority)
from ..collectives.hierarchical import (hierarchical_allreduce,
                                        hierarchical_wire_bytes)
from ..collectives.innetwork import (innetwork_allreduce,
                                     innetwork_wire_bytes)
from ..graph.builder import GraphBuilder
from ..graph.dtypes import DType
from ..graph.node import Graph, NodeOutput
from ..graph.shapes import Shape
from ..models.spec import ModelSpec
from .replication import _LR, worker_replica


#: collective algorithms selectable from the harness
ALLREDUCE_ALGORITHMS = ("ring", "halving-doubling", "hierarchical",
                        "innetwork")


@dataclass
class AllreduceTrainingJob:
    """A built allreduce training graph plus its layout and policy."""

    graph: Graph
    spec: ModelSpec
    num_workers: int
    batch_size: int
    devices: List[str]
    algorithm: str
    fusion_bytes: int
    buckets: List[GradientBucket]
    #: False = post-barrier baseline: every bucket's reduction is held
    #: back (by control edges) until the whole backward pass finishes
    eager_flush: bool = True
    #: rack width for the hierarchical algorithm (None for flat ones)
    hosts_per_rack: Optional[int] = None

    @property
    def bytes_per_worker_per_step(self) -> float:
        """Predicted mean wire payload per worker per mini-batch."""
        if self.algorithm == "hierarchical":
            return sum(hierarchical_wire_bytes(bucket.nbytes,
                                               self.num_workers,
                                               self.hosts_per_rack or 1)
                       for bucket in self.buckets)
        if self.algorithm == "innetwork":
            return sum(innetwork_wire_bytes(bucket.nbytes, self.num_workers)
                       for bucket in self.buckets)
        predict = (ring_allreduce_wire_bytes if self.algorithm == "ring"
                   else halving_doubling_wire_bytes)
        return sum(predict(bucket.nbytes, self.num_workers)
                   for bucket in self.buckets)


def build_allreduce_training_graph(
        spec: ModelSpec, num_workers: int, batch_size: int,
        algorithm: str = "ring",
        fusion_bytes: int = DEFAULT_FUSION_BYTES,
        lr: Optional[float] = None,
        eager_flush: bool = True,
        hosts_per_rack: Optional[int] = None) -> AllreduceTrainingJob:
    """Construct the replicated, collective-reduced training graph.

    Every worker owns a full variable replica; the backward pass emits
    per-variable gradients in reverse layer order, which are packed
    into fusion buckets (so a bucket's allreduce starts as soon as its
    last gradient materializes and overlaps the rest of backward),
    reduced across workers with the selected collective, unpacked, and
    applied locally.

    ``eager_flush=False`` builds the post-barrier baseline instead:
    control edges hold every bucket's pack back until the worker's
    whole backward pass has finished, so no reduction overlaps backward
    compute.  Each bucket's fragment is also stamped with the bucket's
    scheduling priority (later buckets carry earlier layers' gradients,
    needed first by the next forward pass) for the priority wire
    scheduler to honour.
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    if algorithm not in ALLREDUCE_ALGORITHMS:
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}; "
                         f"have {ALLREDUCE_ALGORITHMS}")
    if algorithm in ("hierarchical", "innetwork"):
        if hosts_per_rack is None or hosts_per_rack < 1:
            raise ValueError(f"{algorithm} allreduce needs hosts_per_rack "
                             f">= 1, got {hosts_per_rack!r}")
        rack_collective = (hierarchical_allreduce
                           if algorithm == "hierarchical"
                           else innetwork_allreduce)

        def collective(builder, packed, workers, name):
            return rack_collective(builder, packed, workers,
                                   hosts_per_rack=hosts_per_rack,
                                   name=name)
    else:
        collective = (ring_allreduce if algorithm == "ring"
                      else halving_doubling_allreduce)
        hosts_per_rack = None
    lr = _LR if lr is None else lr
    builder = GraphBuilder(f"{spec.name}-allreduce-{algorithm}")
    workers = [f"worker{i}" for i in range(num_workers)]

    # Replicated variables: every worker holds every tensor locally.
    variable_outputs = [
        {var.name: builder.variable(Shape(var.shape), DType.float32,
                                    name=f"w{i}/{var.name}", device=worker)
         for var in spec.variables}
        for i, worker in enumerate(workers)]

    # grads[i][var.name]: worker i's local gradient for the variable,
    # recorded for bucketing as the replica's backward emits it.
    grads: List[dict] = [{} for _ in range(num_workers)]
    #: worker i's final backward stage — the barrier for eager_flush=False
    last_bwd: List[NodeOutput] = [
        worker_replica(builder, spec, batch_size, i, worker,
                       variable_outputs[i], grads[i].__setitem__)
        for i, worker in enumerate(workers)]

    # Bucketize in gradient-ready (reverse layer) order and reduce.
    ready_order = list(reversed(spec.variables))
    buckets = plan_buckets(ready_order, fusion_bytes=fusion_bytes)
    for bucket in buckets:
        fragment_start = len(builder.graph)
        packed: List[NodeOutput] = [
            builder.add_op(
                "FusionPack",
                [grads[i][var.name] for var in bucket.variables],
                name=f"w{i}/pack{bucket.index}", device=workers[i])
            for i in range(num_workers)]
        if not eager_flush:
            # Post-barrier baseline: the pack (and with it the whole
            # reduction) may not start before backward has finished.
            for i in range(num_workers):
                packed[i].node.add_control_input(last_bwd[i].node)
        reduced = collective(builder, packed, workers,
                             name=f"bucket{bucket.index}")
        layout = [(var.name, Shape(var.shape), DType.float32)
                  for var in bucket.variables]
        for i, worker in enumerate(workers):
            unpacked = builder.add_op(
                "FusionUnpack", [reduced[i]], attrs={"layout": layout},
                name=f"w{i}/unpack{bucket.index}", device=worker)
            for j, var in enumerate(bucket.variables):
                # The reduced gradient is the sum over workers, and the
                # PS graph applies each worker's gradient at ``lr``, so
                # applying the sum once at ``lr`` matches its update.
                builder.apply_gradient(
                    variable_outputs[i][var.name],
                    unpacked.node.output(j), lr=lr,
                    name=f"w{i}/apply/{var.name}", device=worker)
        tag_fragment_priority(builder, fragment_start, bucket.priority)

    graph = builder.finalize()
    devices = sorted({node.device for node in graph})
    return AllreduceTrainingJob(
        graph=graph, spec=spec, num_workers=num_workers,
        batch_size=batch_size, devices=devices, algorithm=algorithm,
        fusion_bytes=fusion_bytes, buckets=buckets,
        eager_flush=eager_flush, hosts_per_rack=hosts_per_rack)
