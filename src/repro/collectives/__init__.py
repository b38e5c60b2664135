"""Collective communication over the RDMA device layer.

Bandwidth-optimal worker-to-worker collectives (ring reduce-scatter /
allreduce and recursive halving-doubling allreduce)
expressed as dataflow-graph fragments whose chunk transfers ride the
zero-copy static-placement protocol of the core RDMA layer, plus the
gradient bucketization/fusion policy that coalesces the paper's
many-small-tensor workloads (Figure 7) into a few large transfers.
"""

from . import ops  # noqa: F401  (registers the fusion/chunk operators)
from .bucketing import (DEFAULT_FUSION_BYTES, GradientBucket, chunk_ranges,
                        plan_buckets)
from .fragments import (ChunkRef, halving_doubling_allreduce,
                        halving_doubling_wire_bytes, ring_allreduce,
                        ring_allreduce_wire_bytes, ring_reduce_scatter)
from .hierarchical import (hierarchical_allreduce, hierarchical_wire_bytes,
                           rack_uplink_bytes)
from .innetwork import (innetwork_allreduce, innetwork_uplink_bytes,
                        innetwork_wire_bytes)

__all__ = [
    "ChunkRef", "DEFAULT_FUSION_BYTES", "GradientBucket", "chunk_ranges",
    "halving_doubling_allreduce", "halving_doubling_wire_bytes",
    "hierarchical_allreduce", "hierarchical_wire_bytes",
    "rack_uplink_bytes",
    "innetwork_allreduce", "innetwork_uplink_bytes", "innetwork_wire_bytes",
    "plan_buckets", "ring_allreduce", "ring_allreduce_wire_bytes",
    "ring_reduce_scatter",
]
