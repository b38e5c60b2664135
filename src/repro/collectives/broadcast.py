"""Broadcast schedules for one-to-many weight distribution.

The allreduce fragments in this package reduce *gradients* between
workers; the serving plane needs the reverse flow — one trainer
pushing an identical parameter snapshot to every replica.  Two
schedules are provided as pure data (lists of hops), which the
publication plane (:mod:`repro.core.publication`) executes with
one-sided writes:

* ``direct``  — the trainer writes the snapshot to each replica
  itself.  Egress cost at the root is ``replicas * model_bytes``; the
  replicas receive in parallel, so with R replicas the root's NIC is
  the bottleneck.
* ``chain``   — a pipelined store-and-forward chain (root -> r0 -> r1
  -> ...).  Every link moves ``model_bytes`` exactly once, so the root
  egress drops to ``model_bytes`` and, pipelined at item granularity,
  the end-to-end time approaches one snapshot transfer plus one item
  per extra hop — the classic bandwidth-optimal broadcast for large
  payloads.

A hop ``(src, dst)`` uses rank -1 for the root (trainer) and
``0..R-1`` for replicas; per-item pipelining is the executor's job,
the schedule only fixes the topology.
"""

from __future__ import annotations

from typing import List, Tuple


BROADCAST_MODES = ("direct", "chain")


def broadcast_hops(num_replicas: int, mode: str = "direct"
                   ) -> List[Tuple[int, int]]:
    """The (src_rank, dst_rank) links a broadcast uses; root is -1."""
    if num_replicas < 1:
        raise ValueError(f"need at least one replica, got {num_replicas}")
    if mode == "direct":
        return [(-1, r) for r in range(num_replicas)]
    if mode == "chain":
        return [(r - 1, r) for r in range(num_replicas)]
    raise ValueError(f"unknown broadcast mode {mode!r}; "
                     f"have {BROADCAST_MODES}")


def root_egress_bytes(num_replicas: int, mode: str,
                      model_bytes: int) -> int:
    """Bytes the trainer's NIC sends per publish under a schedule."""
    return model_bytes * sum(1 for src, _ in
                             broadcast_hops(num_replicas, mode) if src == -1)
