"""Timing constants and derived cost functions for the simulated cluster.

Every simulated duration in the reproduction is computed here, so the
calibration of the whole system lives in one file.  The constants are
chosen to match the paper's testbed (dual Xeon E5-2690v4, 100 Gbps
Mellanox MT27700 InfiniBand, Tesla P100) using figures from the paper
itself and from Kalia et al.'s RDMA design guidelines.

All times are in **seconds**, all sizes in **bytes**.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: quantum the harness enables when priority scheduling is requested:
#: ~41us of wire time at 100 Gbps — fine-grained enough to interleave
#: urgent tensors, coarse enough to keep per-transfer event counts low
DEFAULT_WIRE_QUANTUM_BYTES = 512 * KB


@dataclass(frozen=True)
class CostModel:
    """A bundle of hardware timing constants.

    Instances are immutable; use :meth:`scaled` or ``dataclasses.replace``
    to derive variants for ablation studies.
    """

    # ---- RDMA fabric (100 Gbps InfiniBand, Mellanox MT27700) ----
    rdma_bandwidth: float = 100e9 / 8          # bytes/sec on the wire
    rdma_base_latency: float = 1.0e-6          # one-way propagation + switch
    rdma_verb_overhead: float = 0.6e-6         # post WQE + NIC processing
    rdma_completion_overhead: float = 0.3e-6   # CQE generation + poll cost
    rdma_read_extra_rtt: float = 1.0e-6        # one-sided READ needs a request leg
    #: tearing down and re-establishing a broken queue pair (transition
    #: through RESET/INIT/RTR/RTS via the connection manager)
    qp_reestablish_time: float = 50e-6

    # ---- memory registration (page pinning through the kernel) ----
    mr_register_base: float = 150e-6           # ibv_reg_mr fixed cost
    mr_register_per_page: float = 1.0e-6       # pinning cost per 4 KiB page
    mr_page_size: int = 4096
    mr_table_capacity: int = 1024              # NIC MR table entries (hardware cap)

    # ---- host memory ----
    memcpy_bandwidth: float = 16e9             # single-thread streaming memcpy
    memcpy_base: float = 0.2e-6                # call + cache warmup
    malloc_base: float = 0.5e-6                # allocator fast-path
    malloc_per_mb: float = 2.0e-6              # page faults on large buffers

    # ---- serialization (protobuf-like encode/decode) ----
    serialize_bandwidth: float = 4.5e9
    serialize_base: float = 10e-6              # per-message fixed overhead
    deserialize_bandwidth: float = 6e9
    deserialize_base: float = 8e-6

    # ---- TCP/kernel stack (single gRPC stream over the kernel path;
    # measured gRPC goodput on fast fabrics is ~1-2 GB/s per stream) ----
    tcp_bandwidth: float = 12e9 / 8
    tcp_base_latency: float = 15e-6            # kernel->kernel one way
    tcp_syscall: float = 3.0e-6                # user/kernel crossing
    tcp_segment_size: int = 64 * KB            # per-sendmsg chunk
    tcp_per_segment: float = 1.0e-6            # header + interrupt amortized

    # ---- RPC framework ----
    rpc_dispatch: float = 2.0e-6               # method lookup, future wiring
    rpc_copy_threads: int = 2                  # communication CPU lanes/host
    rpc_ring_buffer_size: int = 4 * MB         # in-library receive buffer/channel
    rpc_max_message_size: int = 1 * GB         # gRPC.RDMA crashes above this

    # ---- scheduler / executor ----
    sched_dispatch: float = 0.5e-6             # pop + dispatch one op
    poll_check: float = 0.2e-6                 # one flag-byte check
    poll_requeue: float = 0.3e-6               # re-enqueue a polling-async op
    idle_poll_interval: float = 2.0e-6         # backoff when queue is empty

    # ---- priority wire scheduling ----
    #: quantum size for the preemptive wire scheduler; 0 keeps the
    #: classic contiguous-booking Pipe (a transfer occupies the wire in
    #: one unbroken interval).  When positive, each NIC direction is a
    #: priority quantum server: transfers are sliced into quantum
    #: bookings and a higher-priority transfer can interleave at the
    #: next quantum boundary instead of waiting out a 32MB booking.
    wire_quantum_bytes: int = 0
    #: cap on quanta per transfer (large transfers use size/max so the
    #: event count stays bounded)
    wire_max_quanta: int = 8

    # ---- in-network (switch) aggregation ----
    #: aggregation buffer slots per ToR/spine switch; each slot holds
    #: one in-flight chunk of one reduction group.  When every slot is
    #: busy the excess chunk spills to the host-collective path.  Only
    #: the aggregation plane reads these — flat-topology and
    #: host-collective timing is untouched by the defaults.
    switch_agg_slots: int = 128
    #: bytes per aggregation slot = the chunk granularity workers use
    #: when streaming a fusion bucket through the switches
    switch_agg_slot_bytes: int = 256 * KB
    #: per-chunk combine latency once every contribution has arrived
    #: (the switch reduces at line rate; this is the pipeline drain)
    switch_agg_latency: float = 0.25e-6
    #: per-worker send window: how many chunks of one reduction group a
    #: worker may have posted beyond its delivered results (SwitchML's
    #: slot-pool streaming discipline).  Bounds switch occupancy while
    #: covering the chunk round-trip so the access link stays saturated.
    switch_agg_window: int = 8

    # ---- lossy fabric (ECN-marked drops, no PFC) ----
    #: selective-repeat chunk granularity: a transfer larger than one
    #: chunk is tracked as a sequence-numbered chunk bitmap so only the
    #: chunks the fabric actually dropped are re-issued (O(lost bytes)
    #: recovery, not O(window)).  64 KiB matches the loss-recovery
    #: paper's message-level retransmission unit.
    loss_chunk_bytes: int = 64 * KB
    #: trunk-link utilization above which the fabric starts ECN-marking
    #: packets instead of pausing them (there is no PFC in lossy mode)
    ecn_mark_threshold: float = 0.7
    #: sender pacing delay applied per ECN mark (DCQCN-style rate cut
    #: collapsed into a fixed-cost injection hold-off)
    ecn_pace_delay: float = 5e-6
    #: how strongly trunk congestion above the mark threshold amplifies
    #: the base loss probability: effective_p = p * (1 + scale * over)
    #: where ``over`` is the utilization excess beyond the threshold
    ecn_loss_scale: float = 8.0
    #: minimum horizon for the running trunk-utilization estimate used
    #: by ECN marking (floors the divisor so the first microseconds of
    #: a run cannot read as 100% utilization)
    ecn_utilization_horizon: float = 2e-3

    # ---- GPU (Tesla P100 over PCIe 3.0 x16) ----
    pcie_bandwidth: float = 10e9               # host<->device staging copy
    pcie_base: float = 5.0e-6                  # cudaMemcpy launch

    # ---- operator compute (effective rates on the P100) ----
    op_overhead: float = 2.0e-6                # dispatch + launch per op
    gpu_flops: float = 5e12                    # effective FP32 FLOP/s
    gpu_elementwise: float = 2e10              # elementwise ops/s

    # -- derived costs ---------------------------------------------------------

    def rdma_wire_time(self, size: int) -> float:
        """Pure wire time for ``size`` payload bytes over the RDMA link."""
        return self.rdma_base_latency + size / self.rdma_bandwidth

    def rdma_write_time(self, size: int) -> float:
        """End-to-end one-sided WRITE: post, wire, remote DMA, CQE."""
        return (self.rdma_verb_overhead + self.rdma_wire_time(size)
                + self.rdma_completion_overhead)

    def rdma_read_time(self, size: int) -> float:
        """One-sided READ: an extra request leg precedes the data flow."""
        return (self.rdma_verb_overhead + self.rdma_read_extra_rtt
                + self.rdma_wire_time(size) + self.rdma_completion_overhead)

    def rdma_send_time(self, size: int) -> float:
        """Two-sided SEND/RECV pair (remote CPU posts the RECV)."""
        return (self.rdma_verb_overhead + self.rdma_wire_time(size)
                + 2 * self.rdma_completion_overhead)

    def mr_register_time(self, size: int) -> float:
        """Register ``size`` bytes with the NIC (pins pages in the kernel)."""
        pages = max(1, (size + self.mr_page_size - 1) // self.mr_page_size)
        return self.mr_register_base + pages * self.mr_register_per_page

    def memcpy_time(self, size: int) -> float:
        return self.memcpy_base + size / self.memcpy_bandwidth

    def malloc_time(self, size: int) -> float:
        return self.malloc_base + (size / MB) * self.malloc_per_mb

    def serialize_time(self, size: int) -> float:
        return self.serialize_base + size / self.serialize_bandwidth

    def deserialize_time(self, size: int) -> float:
        return self.deserialize_base + size / self.deserialize_bandwidth

    def tcp_send_time(self, size: int) -> float:
        """Kernel-stack transmit cost for ``size`` bytes (sender side).

        Charges one syscall plus per-segment overhead plus a kernel copy
        of the payload into socket buffers; the wire time itself is
        charged separately by the link model.
        """
        segments = max(1, (size + self.tcp_segment_size - 1) // self.tcp_segment_size)
        return (self.tcp_syscall + segments * self.tcp_per_segment
                + self.memcpy_time(size))

    def tcp_wire_time(self, size: int) -> float:
        return self.tcp_base_latency + size / self.tcp_bandwidth

    def tcp_recv_time(self, size: int) -> float:
        """Kernel receive path: syscall plus copy out of socket buffers."""
        return self.tcp_syscall + self.memcpy_time(size)

    def pcie_copy_time(self, size: int) -> float:
        """Host<->device staging copy over PCIe."""
        return self.pcie_base + size / self.pcie_bandwidth

    # -- variants ---------------------------------------------------------------

    def scaled(self, **multipliers: float) -> "CostModel":
        """Return a copy with named fields multiplied (for ablations).

        Example: ``cm.scaled(rdma_bandwidth=0.5)`` halves the RDMA link.
        """
        changes = {}
        for name, factor in multipliers.items():
            current = getattr(self, name)
            if isinstance(current, int) and not isinstance(current, bool):
                changes[name] = int(current * factor)
            else:
                changes[name] = current * factor
        return replace(self, **changes)


DEFAULT_COST_MODEL = CostModel()

#: The paper's testbed: 100 Gbps Mellanox MT27700 InfiniBand.
INFINIBAND_COST_MODEL = DEFAULT_COST_MODEL

#: RoCE v2 on 25 GbE — "our RDMA mechanism can also work with RoCE
#: network adapters" (§5).  Same verbs semantics, commodity-Ethernet
#: wire: lower bandwidth, higher latency, slightly costlier verbs
#: (UDP encapsulation + PFC machinery).
ROCE_COST_MODEL = CostModel(
    rdma_bandwidth=25e9 / 8,
    rdma_base_latency=3.0e-6,
    rdma_verb_overhead=0.9e-6,
    rdma_read_extra_rtt=3.0e-6,
)
