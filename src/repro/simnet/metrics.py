"""Optional metrics collection for the simulated cluster.

A :class:`MetricsCollector` (enabled via ``Cluster.enable_metrics()``)
records every wire transfer the NICs and TCP stacks perform, giving
experiments per-host, per-kind and per-role traffic accounting — the
observability layer a systems paper's "we measured..." sentences rest
on.

Collection is off by default; when disabled the fast paths pay a
single attribute check.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TransferRecord:
    """One wire transfer (RDMA verb or TCP message)."""

    kind: str          # "RDMA_WRITE" | "RDMA_READ" | "SEND" | "TCP"
    src_host: str
    dst_host: str
    nbytes: int
    start: float
    end: float
    #: protocol role ("static-write", "dynamic-metadata",
    #: "dynamic-payload-read", "collective-chunk", "control", or ""),
    #: separating §3.2 static traffic from §3.3 dynamic traffic
    role: str = ""


class MetricsCollector:
    """Accumulates transfer records and answers summary queries."""

    def __init__(self) -> None:
        self.transfers: List[TransferRecord] = []

    # -- recording -------------------------------------------------------------------

    def record_transfer(self, kind: str, src_host: str, dst_host: str,
                        nbytes: int, start: float, end: float,
                        role: str = "") -> None:
        self.transfers.append(TransferRecord(
            kind=kind, src_host=src_host, dst_host=dst_host,
            nbytes=nbytes, start=start, end=max(end, start), role=role))

    # -- queries ------------------------------------------------------------------------

    def total_bytes(self, kind: Optional[str] = None,
                    role: Optional[str] = None) -> int:
        return sum(t.nbytes for t in self.transfers
                   if (kind is None or t.kind == kind)
                   and (role is None or t.role == role))

    def count(self, kind: Optional[str] = None,
              role: Optional[str] = None) -> int:
        return sum(1 for t in self.transfers
                   if (kind is None or t.kind == kind)
                   and (role is None or t.role == role))

    def bytes_by_role(self) -> Dict[str, int]:
        """Per-protocol-role byte totals (unlabelled traffic under "")."""
        out: Dict[str, int] = defaultdict(int)
        for t in self.transfers:
            out[t.role] += t.nbytes
        return dict(out)

    def bytes_in_window(self, lo: float = 0.0, hi: Optional[float] = None,
                        host: Optional[str] = None,
                        direction: str = "egress",
                        kinds: Optional[Tuple[str, ...]] = None) -> int:
        """Payload bytes of transfers *starting* inside ``[lo, hi)``.

        The workhorse of steady-state accounting: experiments snapshot
        the simulated clock at an iteration boundary and ask how many
        bytes a host (or the whole cluster, ``host=None``) put on the
        wire afterwards, excluding warm-up traffic such as iteration
        zero's staged copies and address-book distribution.
        """
        if direction not in ("egress", "ingress"):
            raise ValueError("direction must be 'egress' or 'ingress'")
        key = "src_host" if direction == "egress" else "dst_host"
        total = 0
        for t in self.transfers:
            if t.start < lo or (hi is not None and t.start >= hi):
                continue
            if host is not None and getattr(t, key) != host:
                continue
            if kinds is not None and t.kind not in kinds:
                continue
            total += t.nbytes
        return total
