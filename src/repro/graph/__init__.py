"""A TensorFlow-like dataflow-graph runtime (paper §2.1, §4).

Graphs are built with :class:`GraphBuilder`, finalized (validated +
shape-inferred), partitioned across devices, and executed by
per-device :class:`Executor` instances under a :class:`Session`.
Cross-device tensor transfer is delegated to a pluggable
:class:`CommRuntime` (gRPC baselines or the paper's RDMA mechanisms).
"""

from .allocator import (AllocatorError, ArenaAllocator, BaseAllocator,
                        HostAllocator)
from .autodiff import GRADIENTS, gradients, minimize, register_gradient
from .builder import GraphBuilder
from .dtypes import DType
from .executor import Executor, ExecutorError
from .node import Graph, GraphError, Node, NodeOutput
from .ops import OPS, OpDef, get_op, infer_shapes
from .partition import PartitionedGraph, TransferEdge, partition
from .session import RunStats, Session
from .shapes import Shape, ShapeError, as_shape, scalar
from .tensor import META_FLAG_SIZE, Tensor, TensorMeta, tensor_nbytes
from .transfer_api import CommRuntime, NullComm, Outcome

__all__ = [
    "AllocatorError", "ArenaAllocator", "BaseAllocator", "CommRuntime",
    "DType", "Executor", "ExecutorError", "GRADIENTS", "Graph",
    "GraphBuilder", "gradients", "minimize", "register_gradient",
    "GraphError", "HostAllocator", "META_FLAG_SIZE", "Node", "NodeOutput",
    "NullComm", "OPS", "OpDef", "Outcome", "PartitionedGraph", "RunStats",
    "Session", "Shape", "ShapeError", "Tensor", "TensorMeta", "TransferEdge",
    "as_shape", "get_op", "infer_shapes", "partition", "scalar",
    "tensor_nbytes",
]
