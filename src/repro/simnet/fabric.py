"""Graph-based cluster fabric: hosts, ToR/spine switches, capacity links.

The flat :class:`~repro.simnet.topology.Cluster` models the network as
one full-bisection switch: every NIC's egress and ingress pipes are the
only contention points.  That is faithful for the paper's 8-server
testbed but cannot express the dominant effect at production scale —
**oversubscribed uplinks**.  This module adds an explicit fabric graph:

* typed :class:`FabricNode` s (``host``, ``tor``, ``spine``);
* directed :class:`FabricLink` s, each with its own bandwidth-sharing
  :class:`~repro.simnet.nic.Pipe` and per-hop propagation latency;
* deterministic ECMP routing: all equal-cost shortest paths between a
  host pair are enumerated once, and one is picked by a stable hash of
  the (src, dst) pair — the same flow always takes the same path, and
  two runs of the same configuration replay bit-identically;
* :func:`build_fat_tree` — a two-tier leaf/spine (folded-Clos) builder
  parameterized by racks, hosts per rack, and oversubscription ratio.

Division of labour with the NIC
-------------------------------
The first and last hop of every path (``host -> tor`` and
``tor -> host``) are the NIC's access links; their serialization and
fan-in contention are already modelled by the NIC egress/ingress pipes
(or the priority wire schedulers), so :meth:`Fabric.traverse` charges
only their *latency* and reserves capacity exclusively on the **trunk**
links between switches.  Consequently a transfer between two hosts on
the same ToR costs exactly what the flat topology charges (the trunk
portion of its path is empty), and a cluster constructed without a
fabric is bit-identical to one that never imported this module.

Contention model
----------------
A transfer of ``S`` bytes cut-throughs the path: each trunk link books
``S / bandwidth`` seconds of capacity starting no earlier than the
first bit's arrival at that link, the first bit advances by one hop
latency per link, and the last byte cannot leave a link before the
slower of (that link's booking end, its own arrival upstream).  Time a
booking spends waiting for link capacity is *uplink queueing*; it is
accumulated per link and, when a tracer is attached, emitted as
``link_queue`` spans so the stall report can attribute it.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .costmodel import CostModel, DEFAULT_COST_MODEL
from .nic import Pipe


class FabricError(ValueError):
    """Malformed fabric graphs or routing requests."""


NODE_KINDS = ("host", "tor", "spine")


@dataclass(frozen=True)
class FabricNode:
    """One vertex of the fabric graph."""

    name: str
    kind: str  # "host" | "tor" | "spine"

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise FabricError(f"unknown node kind {self.kind!r}; "
                              f"have {NODE_KINDS}")


class FabricLink:
    """One directed capacity link of the fabric.

    Trunk links (switch-to-switch) own a :class:`Pipe` and genuinely
    contend; host access links exist for routing and accounting but are
    capacity-modelled by the NIC pipes (see the module docstring).
    """

    __slots__ = ("src", "dst", "bandwidth", "latency", "trunk", "pipe",
                 "bytes_carried", "queue_seconds", "transfers")

    def __init__(self, src: FabricNode, dst: FabricNode, bandwidth: float,
                 latency: float) -> None:
        if bandwidth <= 0:
            raise FabricError(f"link {src.name}->{dst.name} needs positive "
                              f"bandwidth, got {bandwidth}")
        if latency < 0:
            raise FabricError(f"link {src.name}->{dst.name} has negative "
                              f"latency {latency}")
        self.src = src
        self.dst = dst
        self.bandwidth = bandwidth
        self.latency = latency
        self.trunk = src.kind != "host" and dst.kind != "host"
        self.pipe = Pipe(bandwidth)
        self.bytes_carried = 0
        self.queue_seconds = 0.0
        self.transfers = 0

    @property
    def name(self) -> str:
        return f"{self.src.name}->{self.dst.name}"

    def busy_seconds(self) -> float:
        """Total booked wire time on this link (trunk links only)."""
        return self.pipe.busy_seconds

    def utilization(self, horizon: float) -> float:
        """Fraction of capacity used over ``[0, horizon]``."""
        if horizon <= 0:
            return 0.0
        return min(self.busy_seconds() / horizon, 1.0)

    def book(self, earliest: float, size: int, tracer, src: str,
             dst: str) -> Tuple[float, float]:
        """Reserve ``size`` bytes on this trunk's pipe from ``earliest``.

        Counts the bytes and the transfer, adds any wait to
        :attr:`queue_seconds` and, traced, records it as a
        ``link_queue`` span whose args name ``src`` and ``dst``.
        Returns the booked ``(start, end)``.
        """
        start, end = self.pipe.reserve(earliest, size)
        self.bytes_carried += size
        self.transfers += 1
        waited = start - earliest
        if waited > 0:
            self.queue_seconds += waited
            if tracer is not None:
                tracer.record(
                    "link_queue", f"{size}B queued", "fabric",
                    f"link:{self.name}", earliest, start,
                    args={"src": src, "dst": dst, "nbytes": size})
        return start, end

    def __repr__(self) -> str:
        return (f"FabricLink({self.name}, {self.bandwidth / 1e9:.1f}GB/s, "
                f"{self.latency * 1e6:.2f}us)")


@dataclass(frozen=True)
class PathTiming:
    """Timing of one transfer's passage across a fabric path."""

    #: when the first bit reaches the destination NIC's ingress
    first_bit: float
    #: when the last byte can reach the destination NIC's ingress
    last_byte: float
    #: summed propagation latency of every hop on the path
    latency: float
    #: total time spent queueing for trunk-link capacity
    queueing: float


class Fabric:
    """The cluster fabric graph plus its deterministic router."""

    def __init__(self, cost: Optional[CostModel] = None) -> None:
        self.cost = cost or DEFAULT_COST_MODEL
        self.nodes: Dict[str, FabricNode] = {}
        self.links: Dict[Tuple[str, str], FabricLink] = {}
        self._adjacency: Dict[str, List[str]] = {}
        #: (src, dst) -> chosen path as a tuple of links; lazily filled
        self._route_cache: Dict[Tuple[str, str], Tuple[FabricLink, ...]] = {}
        #: optional tracer; when set, uplink queueing is recorded as
        #: ``link_queue`` spans for the stall-attribution report
        self.tracer = None

    # -- construction ------------------------------------------------------------

    def add_node(self, name: str, kind: str) -> FabricNode:
        if name in self.nodes:
            raise FabricError(f"duplicate fabric node {name!r}")
        node = FabricNode(name=name, kind=kind)
        self.nodes[name] = node
        self._adjacency[name] = []
        return node

    def add_link(self, src: str, dst: str, bandwidth: float,
                 latency: float) -> FabricLink:
        """Add one directed link (call twice for a full-duplex cable)."""
        if src not in self.nodes or dst not in self.nodes:
            missing = src if src not in self.nodes else dst
            raise FabricError(f"link endpoint {missing!r} is not a node")
        if (src, dst) in self.links:
            raise FabricError(f"duplicate link {src}->{dst}")
        link = FabricLink(self.nodes[src], self.nodes[dst], bandwidth, latency)
        self.links[(src, dst)] = link
        self._adjacency[src].append(dst)
        self._route_cache.clear()
        return link

    def add_duplex(self, a: str, b: str, bandwidth: float,
                   latency: float) -> Tuple[FabricLink, FabricLink]:
        return (self.add_link(a, b, bandwidth, latency),
                self.add_link(b, a, bandwidth, latency))

    def hosts(self) -> List[str]:
        return [n.name for n in self.nodes.values() if n.kind == "host"]

    def trunk_links(self) -> List[FabricLink]:
        return [link for link in self.links.values() if link.trunk]

    # -- routing ------------------------------------------------------------------

    def equal_cost_paths(self, src: str,
                         dst: str) -> List[Tuple[FabricLink, ...]]:
        """Every shortest path from ``src`` to ``dst``, in stable order.

        BFS layering followed by a deterministic depth-first expansion
        over predecessor lists, so the enumeration order depends only
        on graph construction order — never on hashing or set order.
        """
        if src not in self.nodes or dst not in self.nodes:
            missing = src if src not in self.nodes else dst
            raise FabricError(f"no fabric node named {missing!r}")
        if src == dst:
            return []
        # BFS from src recording each node's shortest-path predecessors.
        depth: Dict[str, int] = {src: 0}
        preds: Dict[str, List[str]] = {}
        frontier = deque([src])
        while frontier:
            here = frontier.popleft()
            if here == dst:
                continue
            for neighbour in self._adjacency[here]:
                if neighbour not in depth:
                    depth[neighbour] = depth[here] + 1
                    preds[neighbour] = [here]
                    frontier.append(neighbour)
                elif depth[neighbour] == depth[here] + 1:
                    preds[neighbour].append(here)
        if dst not in depth:
            raise FabricError(f"no fabric path from {src!r} to {dst!r}")
        # Expand predecessor DAG into explicit paths (stable order).
        paths: List[Tuple[FabricLink, ...]] = []

        def expand(node: str, suffix: List[FabricLink]) -> None:
            if node == src:
                paths.append(tuple(reversed(suffix)))
                return
            for pred in preds[node]:
                expand(pred, suffix + [self.links[(pred, node)]])

        expand(dst, [])
        return paths

    def route(self, src: str, dst: str) -> Tuple[FabricLink, ...]:
        """The deterministic ECMP path for the (src, dst) host pair.

        All equal-cost shortest paths are enumerated once; the flow's
        path index is ``crc32(src|dst) % count`` — stable across runs
        and across Python processes (no ``hash()`` randomization).
        """
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        paths = self.equal_cost_paths(src, dst)
        if not paths:
            chosen: Tuple[FabricLink, ...] = ()
        else:
            index = zlib.crc32(f"{src}|{dst}".encode()) % len(paths)
            chosen = paths[index]
        self._route_cache[key] = chosen
        return chosen

    def path_latency(self, src: str, dst: str) -> Optional[float]:
        """Summed hop latency of the routed path, or None when the pair
        has no fabric path (same host, or hosts this fabric ignores)."""
        if src == dst or src not in self.nodes or dst not in self.nodes:
            return None
        links = self.route(src, dst)
        if not links:
            return None
        return sum(link.latency for link in links)

    # -- transfer timing ------------------------------------------------------------

    def traverse(self, src: str, dst: str, start: float, egress_end: float,
                 size: int) -> Optional[PathTiming]:
        """Charge one transfer's passage from src NIC egress to dst ingress.

        ``start``/``egress_end`` are the sender NIC's egress booking
        (first/last byte leaving the host).  Returns None when the pair
        has no fabric path to charge (same host, or hosts this fabric
        does not know), in which case the caller keeps the flat-topology
        timing.  Trunk links book real capacity; access links contribute
        latency only (their capacity *is* the NIC pipe).
        """
        if src == dst or src not in self.nodes or dst not in self.nodes:
            return None
        links = self.route(src, dst)
        if not links:
            return None
        total_latency = 0.0
        queueing = 0.0
        first = start
        ready = egress_end
        for link in links:
            if link.trunk:
                booked_start, booked_end = link.book(first, size,
                                                     self.tracer, src, dst)
                waited = booked_start - first
                if waited > 0:
                    queueing += waited
                first = booked_start + link.latency
                ready = max(booked_end, ready) + link.latency
            else:
                link.bytes_carried += size
                link.transfers += 1
                first += link.latency
                ready += link.latency
            total_latency += link.latency
        return PathTiming(first_bit=first, last_byte=ready,
                          latency=total_latency, queueing=queueing)

    # -- reporting -------------------------------------------------------------------

    def link_stats(self, horizon: Optional[float] = None) -> Dict[str, Dict]:
        """Per-trunk-link counters (bytes, queueing, utilization)."""
        out: Dict[str, Dict] = {}
        for link in self.trunk_links():
            stats = {
                "bytes_carried": link.bytes_carried,
                "transfers": link.transfers,
                "queue_seconds": link.queue_seconds,
                "busy_seconds": link.busy_seconds(),
            }
            if horizon is not None:
                stats["utilization"] = link.utilization(horizon)
            out[link.name] = stats
        return out

    def __repr__(self) -> str:
        kinds = {kind: sum(1 for n in self.nodes.values() if n.kind == kind)
                 for kind in NODE_KINDS}
        return (f"Fabric({kinds['host']} hosts, {kinds['tor']} ToRs, "
                f"{kinds['spine']} spines, {len(self.links)} links)")


class SwitchAggregator:
    """Bounded aggregation engine of one programmable switch.

    Models the scarce resource of NetReduce-style in-network reduction:
    a switch can hold only ``slots`` chunk-sized aggregation buffers at
    once.  A reduction *reserves* a slot for a chunk's whole residency
    (contributions streaming in, combine, result streaming out) and the
    plane spills chunks to the host-collective path when no slot is
    free — the backpressure the paper's switch prototype exerts via
    credits.
    """

    __slots__ = ("name", "slots", "busy", "peak_occupancy",
                 "chunks_aggregated", "bytes_aggregated", "spills")

    def __init__(self, name: str, slots: int) -> None:
        if slots < 1:
            raise FabricError(f"switch {name!r} needs at least one "
                              f"aggregation slot, got {slots}")
        self.name = name
        self.slots = slots
        self.busy = 0
        self.peak_occupancy = 0
        self.chunks_aggregated = 0
        self.bytes_aggregated = 0
        self.spills = 0

    def try_acquire(self) -> bool:
        if self.busy >= self.slots:
            self.spills += 1
            return False
        self.busy += 1
        if self.busy > self.peak_occupancy:
            self.peak_occupancy = self.busy
        return True

    def release(self) -> None:
        if self.busy <= 0:
            raise FabricError(f"switch {self.name!r} released an idle slot")
        self.busy -= 1

    def stats(self) -> Dict[str, int]:
        return {
            "slots": self.slots,
            "peak_occupancy": self.peak_occupancy,
            "chunks_aggregated": self.chunks_aggregated,
            "bytes_aggregated": self.bytes_aggregated,
            "spills": self.spills,
        }


class _GroupPlan:
    """Static layout of one in-network reduction group."""

    __slots__ = ("group_id", "member_hosts", "hosts_per_rack", "racks",
                 "tors", "member_rack", "deliver", "spines")

    def __init__(self, group_id: str, member_hosts: Sequence[str],
                 hosts_per_rack: int, racks: List[List[int]],
                 tors: List[str], spines: List[str], deliver) -> None:
        self.group_id = group_id
        self.member_hosts = list(member_hosts)
        self.hosts_per_rack = hosts_per_rack
        self.racks = racks
        self.tors = tors                    # tor name per rack index
        self.spines = spines                # spine names (striping pool)
        self.deliver = deliver
        self.member_rack = {}
        for rack_index, members in enumerate(racks):
            for m in members:
                self.member_rack[m] = rack_index

    def spine_for(self, chunk_index: int) -> str:
        index = zlib.crc32(
            f"{self.group_id}|{chunk_index}".encode()) % len(self.spines)
        return self.spines[index]

    def switch_names(self) -> List[str]:
        names = list(self.tors)
        if len(self.racks) > 1:
            names.extend(self.spines)
        return names


class _ChunkState:
    """In-flight aggregation state of one (round, chunk)."""

    __slots__ = ("arrivals", "count", "latest", "holds")

    def __init__(self) -> None:
        #: rack index -> list of (member_index, payload, arrival_time)
        self.arrivals: Dict[int, List[Tuple[int, object, float]]] = {}
        #: contributions recorded so far, and the latest arrival among them
        self.count = 0
        self.latest = 0.0
        #: switch names whose slot this chunk holds
        self.holds: List[str] = []


class AggregationPlane:
    """Switch-side model of NetReduce-style in-network reduction.

    Owns one :class:`SwitchAggregator` per ToR/spine and turns member
    chunk arrivals into a reduced result delivered back to every
    member:

    1. the sending protocol *reserves* a chunk — one slot on every ToR
       the group spans plus one on the striped spine; failure spills
       that chunk to the host-collective path (backpressure);
    2. each member's chunk arrival is announced via
       :meth:`chunk_arrival` when its egress is booked; one heap entry
       at the latest arrival combines the chunk, and a rack's partial
       is ready ``switch_agg_latency`` after its last contribution;
    3. multi-rack groups book the ToR->spine trunk pipe for each rack
       partial, combine at the spine, and book the spine->ToR pipes for
       the multicast down; the group's ``deliver`` callback fires once
       per member with the time the result clears that member's ToR
       (the host access hop and ingress booking stay the caller's job,
       exactly as :meth:`Fabric.traverse` divides labour with the NIC).

    Numeric payloads are combined in member-index order within a rack
    and rack-index order across racks — the same order the host-tree
    fallback uses, so a spilled chunk is bit-identical to a switched
    one.
    """

    def __init__(self, sim, fabric: Fabric, cost: Optional[CostModel] = None,
                 metrics=None, fault_plane=None) -> None:
        self.sim = sim
        self.fabric = fabric
        self.cost = cost or fabric.cost
        self.metrics = metrics
        self.fault_plane = fault_plane
        self.aggregators: Dict[str, SwitchAggregator] = {}
        for node in fabric.nodes.values():
            if node.kind in ("tor", "spine"):
                self.aggregators[node.name] = SwitchAggregator(
                    node.name, self.cost.switch_agg_slots)
        self._groups: Dict[str, _GroupPlan] = {}
        self._chunks: Dict[Tuple[str, int, int], _ChunkState] = {}
        #: chunks denied a slot and spilled to the host path, per group
        self.spilled_chunks: Dict[str, int] = {}
        #: groups degraded to the host path by a switch failure
        self.degraded_groups: List[str] = []

    # -- group setup -------------------------------------------------------------

    def register_group(self, group_id: str, member_hosts: Sequence[str],
                       hosts_per_rack: int, deliver) -> None:
        """Declare a reduction group and its result callback.

        ``deliver(chunk_index=..., round_id=..., members=..., ready=...,
        payload=..., size=...)`` fires once per rack when the reduced
        chunk clears that rack's ToR: ``members`` is the list of member
        indices behind the ToR, ``ready`` the time the chunk is
        available at the ToR's downlink ports, and ``payload`` the
        combined numpy array (None when any contribution was virtual).
        """
        if group_id in self._groups:
            raise FabricError(f"duplicate reduction group {group_id!r}")
        for host in member_hosts:
            node = self.fabric.nodes.get(host)
            if node is None or node.kind != "host":
                raise FabricError(f"group member {host!r} is not a fabric "
                                  f"host")
        racks = rack_groups(len(member_hosts), hosts_per_rack)
        tors = []
        for members in racks:
            first = member_hosts[members[0]]
            tor = next((n for n in self.fabric._adjacency[first]
                        if self.fabric.nodes[n].kind == "tor"), None)
            if tor is None:
                raise FabricError(f"host {first!r} has no ToR uplink")
            tors.append(tor)
        spines = [n.name for n in self.fabric.nodes.values()
                  if n.kind == "spine"]
        if len(racks) > 1 and not spines:
            raise FabricError(f"group {group_id!r} spans {len(racks)} racks "
                              f"but the fabric has no spine tier")
        self._groups[group_id] = _GroupPlan(
            group_id, member_hosts, hosts_per_rack, racks, tors, spines,
            deliver)

    def healthy(self, group_id: str, now: float) -> bool:
        """Whether every switch the group relies on can aggregate now.

        A failed switch degrades the *whole group* to the host path
        (the protocol re-checks per round, so recovery windows heal).
        """
        plan = self._groups[group_id]
        if self.fault_plane is None:
            return True
        for name in plan.switch_names():
            if self.fault_plane.switch_failed(name, now):
                if group_id not in self.degraded_groups:
                    self.degraded_groups.append(group_id)
                return False
        return True

    # -- chunk lifecycle ----------------------------------------------------------

    def reserve_chunk(self, group_id: str, round_id: int, chunk_index: int,
                      size: int) -> bool:
        """Acquire aggregation slots for one chunk, all switches or none.

        Called before the members post the chunk; False means the
        switches are out of slots and this chunk must take the
        host-collective path (backpressure spill).
        """
        plan = self._groups[group_id]
        needed = list(plan.tors)
        if len(plan.racks) > 1:
            needed.append(plan.spine_for(chunk_index))
        acquired: List[str] = []
        for name in needed:
            if self.aggregators[name].try_acquire():
                acquired.append(name)
            else:
                for held in acquired:
                    self.aggregators[held].release()
                self.spilled_chunks[group_id] = (
                    self.spilled_chunks.get(group_id, 0) + 1)
                return False
        state = _ChunkState()
        state.holds = acquired
        self._chunks[(group_id, round_id, chunk_index)] = state
        for name in needed:
            agg = self.aggregators[name]
            agg.chunks_aggregated += 1
            agg.bytes_aggregated += size
        return True

    def chunk_arrival(self, group_id: str, round_id: int, chunk_index: int,
                      member_index: int, size: int, payload,
                      arrival: float) -> None:
        """One member's contribution reaches its ToR at ``arrival``, recorded
        at egress booking; the last one schedules the chunk's completion."""
        plan = self._groups[group_id]
        key = (group_id, round_id, chunk_index)
        state = self._chunks.get(key)
        if state is None:
            raise FabricError(f"chunk {key!r} arrived without a reservation")
        rack = plan.member_rack[member_index]
        state.arrivals.setdefault(rack, []).append(
            (member_index, payload, arrival))
        if arrival > state.latest:
            state.latest = arrival
        state.count += 1
        if state.count == len(plan.member_hosts):
            del self._chunks[key]
            self.sim.call_at(state.latest, lambda: self._complete_chunk(
                plan, round_id, chunk_index, size, state))

    def _complete_chunk(self, plan: _GroupPlan, round_id: int,
                        chunk_index: int, size: int,
                        state: _ChunkState) -> None:
        cost = self.cost
        sim = self.sim
        # Rack partials: member-index order, ready one combine latency
        # after the rack's last contribution.
        partials: List[Tuple[int, object, float]] = []
        for rack_index in range(len(plan.racks)):
            entries = sorted(state.arrivals[rack_index])
            payload = combine([e[1] for e in entries])
            ready = max(e[2] for e in entries) + cost.switch_agg_latency
            partials.append((rack_index, payload, ready))

        if len(plan.racks) == 1:
            rack_index, payload, ready = partials[0]
            self._release_at(state.holds, ready)
            plan.deliver(chunk_index=chunk_index, round_id=round_id,
                         members=plan.racks[0], ready=ready,
                         payload=payload, size=size)
            return

        # Up: each rack partial crosses its ToR->spine trunk link.  The
        # ToR's aggregation slot frees as soon as the partial has left
        # it — the down-leg multicast streams through the egress ports
        # without touching accumulator memory.
        spine = plan.spine_for(chunk_index)
        arrivals: List[Tuple[int, object, float]] = []
        for rack_index, payload, ready in partials:
            link = self.fabric.links[(plan.tors[rack_index], spine)]
            start, end = link.book(ready, size, self.fabric.tracer,
                                   link.src.name, link.dst.name)
            arrivals.append((rack_index, payload, end + link.latency))
            self._record(link, size, start, end + link.latency)
            self._release_one_at(plan.tors[rack_index], end, state)
        combined = combine([p for _, p, _ in sorted(arrivals)])
        result_ready = (max(t for _, _, t in arrivals)
                        + cost.switch_agg_latency)

        # Down: the spine multicasts the result over every spine->ToR
        # trunk; a rack's members see it once it clears their ToR.
        spine_free = result_ready
        for rack_index in range(len(plan.racks)):
            link = self.fabric.links[(spine, plan.tors[rack_index])]
            start, end = link.book(result_ready, size, self.fabric.tracer,
                                   link.src.name, link.dst.name)
            at_tor = end + link.latency
            self._record(link, size, start, at_tor)
            spine_free = max(spine_free, end)
            plan.deliver(chunk_index=chunk_index, round_id=round_id,
                         members=plan.racks[rack_index], ready=at_tor,
                         payload=combined, size=size)
        self._release_one_at(spine, spine_free, state)

    # -- helpers ------------------------------------------------------------------

    def _record(self, link: FabricLink, size: int, start: float,
                end: float) -> None:
        if self.metrics is not None:
            self.metrics.record_transfer(
                "RDMA_WRITE", link.src.name, link.dst.name, size,
                start, end, role="in-network-trunk")

    def _release_at(self, names: List[str], when: float) -> None:
        # A chunk completes at its latest arrival.  When that is one
        # rack's retransmit, other racks' partials may have cleared
        # their switch in the past: those slots were free, release now.
        when = max(when, self.sim.now)
        for name in list(names):
            self.sim.call_at(when, self.aggregators[name].release)

    def _release_one_at(self, name: str, when: float,
                        state: _ChunkState) -> None:
        if name in state.holds:
            state.holds.remove(name)
            self.sim.call_at(max(when, self.sim.now),
                             self.aggregators[name].release)

    # -- reporting ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-able per-switch and per-group aggregation counters."""
        return {
            "switches": {name: agg.stats()
                         for name, agg in sorted(self.aggregators.items())},
            "spilled_chunks": dict(self.spilled_chunks),
            "degraded_groups": list(self.degraded_groups),
        }


def combine(payloads: List[object]):
    """Element-wise sum in list order, None when any contribution is virtual.

    The one reduction both the switch plane and the host fallback tree
    (:mod:`repro.core.innetwork`) perform: a degraded round must be
    bit-identical to a switched one, so both sum the same partials in
    the same order with the same arithmetic.
    """
    if any(p is None for p in payloads):
        return None
    result = payloads[0].copy()
    for payload in payloads[1:]:
        result += payload
    return result


def rack_of(host_index: int, hosts_per_rack: int) -> int:
    """Rack index of the ``host_index``-th host (fill racks in order)."""
    if hosts_per_rack < 1:
        raise FabricError("hosts_per_rack must be at least 1")
    return host_index // hosts_per_rack


def rack_groups(num_hosts: int, hosts_per_rack: int) -> List[List[int]]:
    """Host indices grouped by rack, e.g. ``[[0,1],[2,3]]``."""
    if num_hosts < 1:
        raise FabricError("need at least one host")
    groups: List[List[int]] = []
    for i in range(num_hosts):
        rack = rack_of(i, hosts_per_rack)
        if rack == len(groups):
            groups.append([])
        groups[rack].append(i)
    return groups


def build_fat_tree(num_hosts: int, hosts_per_rack: int,
                   oversubscription: float = 1.0,
                   cost: Optional[CostModel] = None,
                   name_prefix: str = "server") -> Fabric:
    """A two-tier leaf/spine fabric (the folded-Clos "fat tree").

    Every host gets a full-rate access link to its rack's ToR; each ToR
    connects to every spine, of which there are ``num_racks // 2``,
    clamped to 1..4.  The rack's aggregate uplink capacity is
    ``hosts_per_rack * host_bandwidth / oversubscription``, split
    evenly across the spines — so ``oversubscription=4`` means four
    hosts' worth of traffic contend for one host's worth of uplink, the
    classic cost-reduced datacenter shape.  Hop latencies split the
    cost model's one-way ``rdma_base_latency`` in half per hop, so an
    intra-rack transfer (2 hops) costs exactly the flat topology's
    latency and an inter-rack one (4 hops) costs twice that.
    """
    cost = cost or DEFAULT_COST_MODEL
    if num_hosts < 1:
        raise FabricError("need at least one host")
    if hosts_per_rack < 1:
        raise FabricError("hosts_per_rack must be at least 1")
    if oversubscription < 1.0:
        raise FabricError(f"oversubscription must be >= 1, "
                          f"got {oversubscription}")
    num_racks = (num_hosts + hosts_per_rack - 1) // hosts_per_rack
    num_spines = max(1, min(4, num_racks // 2))

    fabric = Fabric(cost=cost)
    host_bw = cost.rdma_bandwidth
    hop_latency = cost.rdma_base_latency / 2.0
    uplink_bw = hosts_per_rack * host_bw / (oversubscription * num_spines)

    for s in range(num_spines):
        fabric.add_node(f"spine{s}", "spine")
    for r in range(num_racks):
        tor = f"tor{r}"
        fabric.add_node(tor, "tor")
        for s in range(num_spines):
            fabric.add_duplex(tor, f"spine{s}", uplink_bw, hop_latency)
    for i in range(num_hosts):
        host = f"{name_prefix}{i}"
        fabric.add_node(host, "host")
        fabric.add_duplex(host, f"tor{rack_of(i, hosts_per_rack)}",
                          host_bw, hop_latency)
    return fabric
