"""Verb-layer datatypes: work requests and completions.

Mirrors the libibverbs surface that the paper's C++ library is built
on: applications post :class:`WorkRequest` objects to queue pairs and
harvest :class:`Completion` entries from completion queues.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional


class Opcode(enum.Enum):
    """RDMA operation types we model (reliable connected transport)."""

    WRITE = "RDMA_WRITE"    # one-sided, no remote CPU
    READ = "RDMA_READ"      # one-sided, no remote CPU
    SEND = "SEND"           # two-sided, consumes a posted RECV
    RECV = "RECV"


class WcStatus(enum.Enum):
    """Completion status codes (subset of ibv_wc_status)."""

    SUCCESS = "IBV_WC_SUCCESS"
    REMOTE_ACCESS_ERROR = "IBV_WC_REM_ACCESS_ERR"
    LOCAL_LENGTH_ERROR = "IBV_WC_LOC_LEN_ERR"
    REMOTE_INVALID_REQUEST = "IBV_WC_REM_INV_REQ_ERR"
    #: transport retry counter exhausted — the fabric lost the packet(s)
    #: (injected wire loss surfaces as this status)
    RETRY_EXC_ERR = "IBV_WC_RETRY_EXC_ERR"
    #: the QP entered the error state; posted work is flushed unexecuted
    WR_FLUSH_ERR = "IBV_WC_WR_FLUSH_ERR"


_wr_ids = itertools.count(1)


def next_wr_id() -> int:
    return next(_wr_ids)


#: canonical protocol-role tags carried on :attr:`WorkRequest.role`.
#: Training-plane roles (PRs 1-4) plus the serving-plane roles: the
#: request path ("serving-request" metadata write + payload read and
#: the "serving-response" write-back) runs at :data:`SERVING_PRIORITY`
#: so the wire scheduler keeps inference tails bounded, weight
#: publication ("weight-publish" bulk, "weight-stamp" version stamps,
#: "weight-ack" swap acknowledgements) runs between the request path
#: and bulk training traffic ("train-sync").
ROLE_STATIC_WRITE = "static-write"
ROLE_DYNAMIC_METADATA = "dynamic-metadata"
ROLE_DYNAMIC_PAYLOAD_READ = "dynamic-payload-read"
ROLE_COLLECTIVE_CHUNK = "collective-chunk"
ROLE_CONTROL = "control"
ROLE_SERVING_REQUEST = "serving-request"
ROLE_SERVING_RESPONSE = "serving-response"
ROLE_WEIGHT_PUBLISH = "weight-publish"
ROLE_WEIGHT_STAMP = "weight-stamp"
ROLE_WEIGHT_ACK = "weight-ack"
ROLE_TRAIN_SYNC = "train-sync"
#: in-network reduction: worker -> ToR gradient-chunk contributions …
ROLE_INNETWORK_AGGREGATE = "in-network-aggregate"
#: … and the switch-multicast reduced result back down to the workers
ROLE_INNETWORK_RESULT = "in-network-result"
#: switch-to-switch hops of an in-network reduction (ToR partials up to
#: the spine, spine results back down) — kept distinct from the
#: host-edge roles so per-worker wire-byte identities stay clean
ROLE_INNETWORK_TRUNK = "in-network-trunk"
#: selective-repeat retransmission of a chunk the lossy fabric dropped.
#: Every first attempt keeps its original protocol role (so goodput
#: identities are unchanged by loss); every re-issue carries this role,
#: which makes "retransmitted bytes == lost bytes" directly measurable
#: from the metrics stream.
ROLE_RETRANSMIT = "retransmit"

#: wire-scheduler urgency tiers for co-located serving + training.
#: Gradient buckets use small non-negative priorities (bucket index),
#: so the serving tiers sit far above them.
SERVING_PRIORITY = 100
PUBLICATION_PRIORITY = 50
TRAIN_SYNC_PRIORITY = 0


@dataclass
class WorkRequest:
    """One unit of work posted to a queue pair.

    For WRITE/READ/SEND the local side is ``(local_addr, size)`` inside
    a registered region identified by ``lkey``.  For WRITE/READ the
    remote side is ``(remote_addr, rkey)``.  ``inline_data`` (small
    payloads only) bypasses the local-region read, mirroring
    IBV_SEND_INLINE.
    """

    opcode: Opcode
    size: int = 0
    local_addr: int = 0
    lkey: int = 0
    remote_addr: int = 0
    rkey: int = 0
    inline_data: Optional[bytes] = None
    signaled: bool = True
    #: protocol role the transfer plays ("static-write",
    #: "dynamic-metadata", "dynamic-payload-read", "collective-chunk",
    #: "control", "serving-request", "serving-response",
    #: "weight-publish", "weight-stamp", "weight-ack", "train-sync",
    #: ...); carried through to metrics and trace spans
    role: str = ""
    #: wire-scheduling urgency (higher = sooner-needed by its consumer);
    #: only honoured when the NIC runs the priority quantum scheduler
    #: (``CostModel.wire_quantum_bytes > 0``), ignored otherwise
    priority: int = 0
    #: DCT-style per-WR destination: on a shared (DC initiator) queue
    #: pair the remote endpoint is named per work request instead of
    #: being fixed at connect time.  ``None`` on RC QPs — the connected
    #: remote applies — which keeps the RC path bit-identical.
    dct_target: Optional[object] = None
    #: the :class:`~repro.simnet.faults.FaultVerdict` the fault plane
    #: drew for this WR with its selective-repeat round
    #: (``FaultInjector.draw_round``); None asks the plane at post time
    verdict: Optional[object] = None
    wr_id: int = field(default_factory=next_wr_id)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("work request size must be non-negative")
        if self.inline_data is not None:
            # A larger size makes the inline bytes the real head of a
            # size-only payload: the rest moves as timing only.
            if 0 < self.size < len(self.inline_data):
                raise ValueError("inline data longer than the work request")
            self.size = self.size or len(self.inline_data)


@dataclass
class Completion:
    """A completion-queue entry (ibv_wc)."""

    wr_id: int
    opcode: Opcode
    status: WcStatus
    byte_len: int
    qp_num: int
    timestamp: float

    @property
    def ok(self) -> bool:
        return self.status is WcStatus.SUCCESS
