"""RDMA-aware graph analysis (paper §3.4).

Given a partitioned session, the analyzer:

1. classifies every cross-device transfer edge as *static* (shape
   fully inferred — the static shape-inference pass already ran during
   graph finalization) or *dynamic*;
2. sizes one RDMA arena per partition — big enough for the preallocated
   receiver tensors, metadata slots, staging blocks, and traced
   sender tensors — and registers it with the NIC **once** (per-tensor
   registration would pay the pinning cost per transfer and run into
   the NIC's MR-table cap);
3. preallocates receiver-side tensors (static edges) and metadata
   slots (dynamic edges) inside the arena and publishes their
   addresses in the device's address book;
4. statically walks senders back through in-place operators to find
   variables whose storage should be arena-allocated from birth;
5. distributes remote addresses to the sender sides using the vanilla
   RPC of §3.1 (simulated for real over messaging verbs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..graph.allocator import ArenaAllocator
from ..graph.executor import Executor
from ..graph.node import Graph, Node
from ..graph.partition import PartitionedGraph, TransferEdge
from ..graph.tensor import TensorMeta
from ..simnet.memory import Buffer
from .device import MemRegion, RdmaDevice, RemoteMemRegion
from .tracing import AllocationSiteTracer


ALIGN = 64
#: churn multiplier for dynamically allocated receive tensors (the
#: previous mini-batch's tensor coexists briefly with the new one)
DYNAMIC_CHURN = 4
FIXED_SLACK = 1024 * 1024

#: ops that pass their input (or variable) buffer through in place —
#: the static walk the analyzer does before falling back to tracing
_INPLACE_OPS = {"ApplyGradient", "Identity"}


@dataclass
class EdgePlan:
    """Analyzer output for one transfer edge."""

    edge: TransferEdge
    static: bool
    recv_tensor_offset: Optional[int] = None   # static edges
    meta_slot_offset: Optional[int] = None     # dynamic edges
    ndims: Optional[int] = None                # dynamic edges


@dataclass
class DevicePlan:
    """Analyzer output for one partition/device."""

    device: str
    arena_size: int
    edges_in: List[EdgePlan] = field(default_factory=list)
    edges_out: List[TransferEdge] = field(default_factory=list)
    #: variable nodes whose storage must be born in the arena
    static_variable_sites: Set[Tuple[str, int]] = field(default_factory=set)


def _aligned(size: int) -> int:
    return (size + ALIGN - 1) & ~(ALIGN - 1)


def _estimate_dynamic_nbytes(edge: TransferEdge, graph: Graph) -> int:
    """Upper-bound estimate for a dynamic tensor (unknown dims -> cap)."""
    recv = graph.node(edge.recv_node)
    shape = recv.attrs["shape"]
    dtype = recv.attrs["dtype"]
    elements = 1
    for dim in shape.dims:
        elements *= dim if dim is not None else 4096
    return elements * dtype.size


def find_static_source(graph: Graph, node: Node) -> Optional[Node]:
    """Walk back through in-place ops to a Variable, if any.

    This is the *static* half of the allocation-site decision: when a
    sent tensor is provably a variable's storage (possibly updated in
    place by ApplyGradient), the variable is arena-allocated from the
    start and no tracing is needed for it.
    """
    seen = set()
    current = node
    while current.name not in seen:
        seen.add(current.name)
        if current.op_type == "Variable":
            return current
        if current.op_type == "ApplyGradient":
            current = graph.node(current.attrs["variable"])
        elif current.op_type == "Identity" and current.inputs:
            current = current.inputs[0].node
        else:
            return None
    return None


class RdmaGraphAnalyzer:
    """Produces a :class:`DevicePlan` per partition of a session."""

    def __init__(self, partitioned: PartitionedGraph,
                 force_dynamic: bool = False) -> None:
        self.partitioned = partitioned
        #: treat every edge as dynamic — used by GPUDirect (§3.5 always
        #: transfers via the dynamic protocol) and by ablations
        self.force_dynamic = force_dynamic

    def plan(self) -> Dict[str, DevicePlan]:
        plans: Dict[str, DevicePlan] = {}
        for device in self.partitioned.devices:
            plans[device] = self._plan_device(device)
        return plans

    def _plan_device(self, device: str) -> DevicePlan:
        graph = self.partitioned.subgraphs[device]
        edges_in = self.partitioned.transfers_into(device)
        edges_out = self.partitioned.transfers_out_of(device)

        size = FIXED_SLACK
        edge_plans: List[EdgePlan] = []
        for edge in edges_in:
            if edge.static_shape and not self.force_dynamic:
                size += _aligned(edge.nbytes_static + 1)
                edge_plans.append(EdgePlan(edge=edge, static=True))
            else:
                recv = graph.node(edge.recv_node)
                ndims = recv.attrs["shape"].rank
                size += _aligned(TensorMeta.slot_size(ndims))
                size += DYNAMIC_CHURN * _aligned(
                    _estimate_dynamic_nbytes(edge, graph))
                edge_plans.append(EdgePlan(edge=edge, static=False,
                                           ndims=ndims))
        # Sender side: room for traced tensors plus an equal-size
        # staging reserve (iteration one stages everything).
        out_bytes = 0
        for edge in edges_out:
            if edge.nbytes_static is not None:
                out_bytes += _aligned(edge.nbytes_static + 1)
            else:
                out_bytes += _aligned(
                    _estimate_dynamic_nbytes(
                        edge, self.partitioned.subgraphs[edge.dst_device]))
        size += 2 * out_bytes

        plan = DevicePlan(device=device, arena_size=size,
                          edges_in=edge_plans, edges_out=list(edges_out))
        # Static sender-side placement: variables that feed sends.
        for edge in edges_out:
            src = graph.node(edge.src_node)
            variable = find_static_source(graph, src)
            if variable is not None:
                plan.static_variable_sites.add((variable.name, 0))
        return plan
