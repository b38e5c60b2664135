"""The two-server send/receive micro-benchmark (paper §5.1, Figure 8).

Two servers; the sender produces a tensor of a given size, the
receiver consumes it with a lightweight ``reduce_max`` operator.  The
steady-state per-iteration time under each mechanism gives the
transfer speed curve of Figure 8.  gRPC.RDMA genuinely crashes above
1 GB, reproducing the figure's missing data point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.rdma_comm import RdmaCommRuntime
from ..distributed.rpc_comm import GrpcCommRuntime
from ..distributed.runner import RunConfig, make_mechanism
from ..graph.builder import GraphBuilder
from ..graph.dtypes import DType
from ..graph.session import Session
from ..graph.shapes import Shape
from ..simnet.costmodel import CostModel
from ..simnet.topology import Cluster


MICRO_MECHANISMS = ("gRPC.TCP", "gRPC.RDMA", "RDMA.cp", "RDMA")


@dataclass
class MicrobenchResult:
    """One point of Figure 8."""

    mechanism: str
    message_bytes: int
    transfer_seconds: Optional[float]    # None = crashed (gRPC.RDMA at 1 GB)
    crash_reason: str = ""

    @property
    def throughput_gbps(self) -> Optional[float]:
        if self.transfer_seconds is None or self.transfer_seconds <= 0:
            return None
        return self.message_bytes * 8 / self.transfer_seconds / 1e9


def run_microbench(mechanism: str, message_bytes: int,
                   iterations: int = 4,
                   cost: Optional[CostModel] = None,
                   config: RunConfig = RunConfig()) -> MicrobenchResult:
    """Measure one (mechanism, size) point of the micro-benchmark."""
    elements = max(1, message_bytes // 4)
    cluster = Cluster(2, cost=cost)
    b = GraphBuilder("microbench")
    tensor = b.synthetic_compute(
        1e-6, outputs=[(DType.float32, Shape([elements]))],
        name="produce", device="sender")
    b.reduce_max(tensor, name="consume", device="receiver")
    graph = b.finalize()
    comm = make_mechanism(mechanism, config)
    try:
        session = Session(cluster, graph,
                          {"sender": cluster.hosts[0],
                           "receiver": cluster.hosts[1]}, comm=comm)
        stats = session.run(iterations=iterations)
    except Exception as exc:  # noqa: BLE001 - the 1 GB crash is a result
        return MicrobenchResult(mechanism=mechanism,
                                message_bytes=message_bytes,
                                transfer_seconds=None,
                                crash_reason=str(exc))
    return MicrobenchResult(mechanism=mechanism, message_bytes=message_bytes,
                            transfer_seconds=stats.steady_state_time)


def sweep_microbench(sizes: Sequence[int],
                     mechanisms: Sequence[str] = MICRO_MECHANISMS,
                     iterations: int = 4,
                     cost: Optional[CostModel] = None,
                     config: RunConfig = RunConfig()
                     ) -> Dict[str, List[MicrobenchResult]]:
    """The full Figure 8 sweep: every mechanism over every size."""
    return {mechanism: [run_microbench(mechanism, size,
                                       iterations=iterations, cost=cost,
                                       config=config)
                        for size in sizes]
            for mechanism in mechanisms}
