"""Simulated cluster substrate: event engine, RDMA NICs, TCP.

This package replaces the paper's physical testbed (8 servers with
100 Gbps Mellanox InfiniBand NICs and Tesla P100 GPUs) with a
deterministic discrete-event simulation.  See DESIGN.md §2 for the
substitution rationale.
"""

from .costmodel import CostModel, DEFAULT_COST_MODEL, KB, MB, GB
from .faults import (FaultInjector, FaultRule, FaultSpecError, FaultVerdict,
                     parse_fault_spec)
from .metrics import MetricsCollector, TransferRecord
from .memory import (AddressSpace, Backing, Buffer, DenseBacking, MemoryError_,
                     MemoryRegion, MrTable, VirtualBacking)
from .nic import CompletionQueue, Pipe, QueuePair, RdmaNic
from .simulator import (AllOf, AnyOf, Event, Process, SimulationError,
                        Simulator, Store, Timeout)
from .tcp import Listener, Socket, TcpError, TcpMessage, TcpStack
from .topology import Cluster, Endpoint, Host
from .verbs import Completion, Opcode, WcStatus, WorkRequest

__all__ = [
    "AddressSpace", "AllOf", "AnyOf", "Backing", "Buffer", "Cluster",
    "Completion", "CompletionQueue", "CostModel", "DEFAULT_COST_MODEL",
    "DenseBacking", "Endpoint", "Event", "FaultInjector", "FaultRule",
    "FaultSpecError", "FaultVerdict", "GB", "Host", "KB", "Listener", "MB",
    "MemoryError_", "MemoryRegion", "MetricsCollector", "MrTable", "Opcode",
    "Pipe", "Process", "QueuePair", "RdmaNic", "SimulationError",
    "Simulator", "Socket", "Store", "TcpError", "TcpMessage", "TcpStack",
    "Timeout", "TransferRecord", "VirtualBacking", "WcStatus", "WorkRequest",
    "parse_fault_spec",
]
