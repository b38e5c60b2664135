"""Host-side protocol of the in-network (switch-aggregated) allreduce.

The graph side is one ``InNetworkReduce`` node per worker (see
:mod:`repro.collectives.innetwork`); everything that moves bytes lives
here.  Each reduction group owns, per member, a preallocated
RDMA-registered receive region of ``nbytes + 1`` — payload plus a tail
flag byte, the same static-placement discipline as every other
zero-copy transfer — and each iteration runs one *round*:

* the member streams its fusion buffer toward its ToR in
  aggregation-slot-sized chunks tagged ``in-network-aggregate``
  (NIC egress booked per chunk, access-link latency charged, the
  priority wire scheduler honoured when enabled);
* the :class:`~repro.simnet.fabric.AggregationPlane` combines the
  chunks in the switches and hands back, per member, the time the
  reduced chunk clears that member's ToR;
* the result chunk books the member's NIC ingress, commits in
  ascending address order, and — once every chunk of the round has
  landed — the flag byte is set to the round's epoch (the
  member's :class:`~repro.core.transfer.EpochLane`, so a stale flag
  from the previous round is never double-consumed) and parked
  executors are woken.

Fallback
--------
Two conditions push work off the switches, both onto a deterministic
**host-tree** path that reduces at the rack leaders and the global
root with the *same combination order* as the switches (member order
within a rack, rack order across racks) and the switches' own
:func:`~repro.simnet.fabric.combine` — so results are bit-identical
and a run that degrades mid-way stays numerically consistent:

* **backpressure spill** — the plane's slot reservation fails for one
  chunk; just that chunk takes the host path (sent exactly once, so
  the retry cost is bounded);
* **switch failure** — the fault plane reports a ToR/spine down at
  round start (``switch-fail`` rules); the whole round degrades, and
  the group re-checks each round so a bounded failure window heals.

Fallback traffic is tagged ``collective-chunk`` — it *is* host
collective traffic — so wire-byte identities for the in-network roles
stay exact.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..graph.executor import Executor
from ..graph.tensor import Tensor
from ..graph.transfer_api import Outcome
from ..simnet.fabric import AggregationPlane, combine, rack_groups
from ..simnet.nic import record_wire
from ..simnet.verbs import (ROLE_COLLECTIVE_CHUNK, ROLE_INNETWORK_AGGREGATE,
                            ROLE_INNETWORK_RESULT, ROLE_RETRANSMIT, Opcode,
                            WorkRequest)
from .device import DeviceError
from .transfer import CompletionFlag, EpochLane


class _Member:
    """Per-worker state of one reduction group."""

    __slots__ = ("index", "device", "executor", "host", "nic", "tensor",
                 "flag", "lane", "round", "egress_tail", "up_link",
                 "down_link", "window_event")

    def __init__(self, index: int, device: str, executor: Executor,
                 tensor: Tensor, flag_offset: int, up_link,
                 down_link) -> None:
        self.index = index
        self.device = device
        self.executor = executor
        self.host = executor.host
        self.nic = executor.host.nic
        self.tensor = tensor
        #: the receive region's tail flag, polled by the executor ...
        self.flag = CompletionFlag(tensor.buffer.backing, flag_offset)
        #: ... and the epochs the plane writes into it, one per round
        self.lane = EpochLane()
        self.round = 0
        #: tail of this member's uplink bookings: the quantum server's
        #: per-member FIFO chain (a pipe hands back none)
        self.egress_tail = None
        #: send process parked on the in-flight window, if any
        self.window_event = None
        #: host->ToR / ToR->host access links (latency + byte counters;
        #: their capacity *is* the NIC pipe, same as Fabric.traverse)
        self.up_link = up_link
        self.down_link = down_link


class InNetworkGroup:
    """One reduction group: members, receive regions, round protocol."""

    def __init__(self, comm, session, group_id: str,
                 nodes: List[Tuple[str, object]],
                 plane: AggregationPlane) -> None:
        self.comm = comm
        self.group_id = group_id
        self.plane = plane
        self.sim = session.sim
        self.cluster = session.cluster
        self.cost = session.cluster.cost
        self.fabric = session.cluster.fabric

        nodes = sorted(nodes, key=lambda item: item[1].attrs["member"])
        first = nodes[0][1]
        self.num_members = int(first.attrs["num_members"])
        self.hosts_per_rack = int(first.attrs["hosts_per_rack"])
        if len(nodes) != self.num_members:
            raise DeviceError(
                f"group {group_id!r}: {len(nodes)} InNetworkReduce nodes "
                f"for {self.num_members} members")
        shape = first.output_shapes[0]
        self.dtype = first.output_dtypes[0]
        self.shape = shape
        self.nbytes = shape.num_elements() * self.dtype.size
        self.priority = int(first.attrs.get("priority", 0))

        slot = max(int(self.cost.switch_agg_slot_bytes), self.dtype.size)
        slot -= slot % self.dtype.size
        self.chunks: List[Tuple[int, int]] = []
        offset = 0
        while offset < self.nbytes:
            size = min(slot, self.nbytes - offset)
            self.chunks.append((offset, size))
            offset += size

        self.members: List[_Member] = []
        for device, node in nodes:
            executor = session.executors[device]
            host_name = executor.host.name
            tor = next((n for n in self.fabric._adjacency.get(host_name, [])
                        if self.fabric.nodes[n].kind == "tor"), None)
            if tor is None:
                raise DeviceError(f"host {host_name!r} has no ToR uplink; "
                                  f"in-network reduction needs a fat-tree")
            buffer = executor.host.allocate(
                self.nbytes + 1, label=f"innet-recv:{group_id}:{device}")
            device_obj = comm.devices[device]
            device_obj.register_existing(buffer)
            comm.registration_seconds += \
                executor.host.cost.mr_register_time(self.nbytes + 1)
            tensor = Tensor(self.dtype, shape, buffer, offset=0)
            self.members.append(_Member(
                int(node.attrs["member"]), device, executor, tensor,
                flag_offset=self.nbytes,
                up_link=self.fabric.links[(host_name, tor)],
                down_link=self.fabric.links[(tor, host_name)]))

        self.racks = rack_groups(self.num_members, self.hosts_per_rack)
        self.rack_of = {}
        for rack_index, group in enumerate(self.racks):
            for m in group:
                self.rack_of[m] = rack_index
        #: member index fronting each rack, and the global root, of the
        #: host-tree fallback
        self.leaders = [group[0] for group in self.racks]
        self.root = self.leaders[0]

        plane.register_group(group_id,
                             [m.host.name for m in self.members],
                             self.hosts_per_rack, self._deliver)

        # -- per-round shared state (keyed by round id) ------------------
        #: round -> whether the switches carry this round (healthy check)
        self._round_switched: Dict[int, bool] = {}
        #: (round, chunk) -> "switch" | "host"
        self._chunk_path: Dict[Tuple[int, int], str] = {}
        #: (round, member) -> committed chunk count
        self._committed: Dict[Tuple[int, int], int] = {}
        #: members that finished a round (for state cleanup)
        self._round_done: Dict[int, int] = {}
        #: host-tree rack stage: (round, chunk, rack) -> contributions
        self._tree_rack: Dict[Tuple[int, int, int], List] = {}
        #: host-tree root stage: (round, chunk) -> rack partials
        self._tree_root: Dict[Tuple[int, int], List] = {}

        # -- counters -----------------------------------------------------
        self.rounds_switched = 0
        self.rounds_degraded = 0
        self.chunks_spilled = 0
        self.chunks_switched = 0

    # -- the executor-facing entry point ------------------------------------------

    def execute(self, executor: Executor, member_index: int,
                tensor: Tensor) -> Outcome:
        member = self.members[member_index]
        if executor is not member.executor:  # pragma: no cover - defensive
            raise DeviceError(f"group {self.group_id!r} member "
                              f"{member_index} ran on the wrong executor")
        if tensor.nbytes != self.nbytes:
            raise DeviceError(
                f"group {self.group_id!r}: expected {self.nbytes} bytes, "
                f"got {tensor.nbytes} (shape changed on a static edge?)")
        member.round += 1
        round_id = member.round
        self._committed[(round_id, member_index)] = 0
        self.sim.spawn(self._member_send(member, tensor, round_id),
                       name=f"innet-send:{self.group_id}:w{member_index}")
        flag = member.flag

        def complete() -> Outcome:
            flag.consume()
            self._member_done(round_id)
            return Outcome.done([member.tensor])

        return Outcome.polling(poll=flag.armed, complete=complete,
                               flag=(flag.backing, flag.offset))

    # -- member upstream --------------------------------------------------------

    def _member_send(self, member: _Member, tensor: Tensor,
                     round_id: int) -> Generator:
        executor = member.executor
        cost = self.cost
        sim = self.sim
        extra = self.comm._gpu_delay(executor, self.nbytes)
        if extra > 0:
            yield extra
        if not self.comm.zero_copy:
            # RDMA.cp: stage the buffer into registered memory first.
            yield cost.malloc_time(self.nbytes)
            yield from member.host.cpu.run(cost.memcpy_time(self.nbytes))

        switched = self._round_switched.get(round_id)
        if switched is None:
            switched = self.plane.healthy(self.group_id, sim.now)
            self._round_switched[round_id] = switched
            if switched:
                self.rounds_switched += 1
            else:
                self.rounds_degraded += 1

        dense = tensor.is_dense
        item = self.dtype.size
        window = max(1, cost.switch_agg_window)
        committed_key = (round_id, member.index)
        for chunk_index, (offset, size) in enumerate(self.chunks):
            # Send window: run at most ``window`` chunks ahead of the
            # results delivered back to this member.  This is what keeps
            # switch-slot occupancy bounded — without it every chunk
            # would hold its reservation from post time to delivery and
            # the slot pool would drain instantly on big buckets.
            while (chunk_index - self._committed.get(committed_key,
                                                     len(self.chunks))
                   >= window):
                member.window_event = sim.event()
                yield member.window_event
            yield cost.rdma_verb_overhead
            payload = None
            if dense:
                # Read each chunk when it goes out: results may be
                # landing in this tensor, and a view kept across yields
                # would miss chunks that commit in between.
                payload = tensor.array[offset // item:
                                       (offset + size) // item].copy()
            path = self._chunk_route(round_id, chunk_index, size)
            if path == "switch":
                self._send_up(member, round_id, chunk_index, size, payload)
            else:
                self._tree_send_to_leader(member, round_id, chunk_index,
                                          size, payload)
        return []

    def _chunk_route(self, round_id: int, chunk_index: int,
                     size: int) -> str:
        """Switch or host path for one chunk (first member decides)."""
        key = (round_id, chunk_index)
        path = self._chunk_path.get(key)
        if path is None:
            if not self._round_switched[round_id]:
                path = "host"
            elif self.plane.reserve_chunk(self.group_id, round_id,
                                          chunk_index, size):
                path = "switch"
                self.chunks_switched += 1
            else:
                path = "host"
                self.chunks_spilled += 1
            self._chunk_path[key] = path
        return path

    def _send_up(self, member: _Member, round_id: int, chunk_index: int,
                 size: int, payload,
                 role: str = ROLE_INNETWORK_AGGREGATE) -> None:
        """Book the member's egress toward its ToR for one chunk.

        On a lossy fabric the uplink consults the fault plane's
        loss-only hook (these bookings bypass the verb path): a lost
        chunk still burns its wire slot — recorded under the attempt's
        role — and is then re-issued as ``ROLE_RETRANSMIT`` traffic, so
        retransmitted bytes stay exactly the injected-loss bytes.  The
        switch-to-host downlink carries reduced results the switch
        replays from its slot until delivery acknowledges, so it is
        modelled reliable.
        """
        sim = self.sim
        tor_link = member.up_link
        latency = tor_link.latency
        tor_link.bytes_carried += size
        tor_link.transfers += 1
        injector = member.host.cluster.fault_plane
        lost = False
        if injector is not None:
            probe = WorkRequest(opcode=Opcode.WRITE, size=size, role=role)
            lost = injector.on_uplink(member.nic, probe)

        def arrived(start: float, egress_end: float) -> None:
            arrival = egress_end + latency
            record_wire(self.cluster, "RDMA_WRITE", member.host.name,
                        tor_link.dst.name, size, start, arrival, role)
            if lost:
                sim.call_at(arrival, lambda: self._send_up(
                    member, round_id, chunk_index, size, payload,
                    role=ROLE_RETRANSMIT))
                return
            sim.call_at(arrival, lambda: self.plane.chunk_arrival(
                self.group_id, round_id, chunk_index, member.index, size,
                payload, arrival))

        member.egress_tail = member.nic.egress.book(
            size, sim.now, arrived, self.priority, after=member.egress_tail)

    # -- downstream delivery -----------------------------------------------------

    def _deliver(self, chunk_index: int, round_id: int, members: List[int],
                 ready: float, payload, size: int) -> None:
        """Plane callback: the reduced chunk cleared these members' ToR."""
        offset, _ = self.chunks[chunk_index]
        for member_index in members:
            member = self.members[member_index]
            link = member.down_link
            begin = ready + link.latency
            link.bytes_carried += size
            link.transfers += 1

            # The wire span runs from the first bit reaching the port,
            # so time queued behind other ingress traffic is part of it.
            def landed(_start: float, end: float, member=member,
                       src=link.src.name, begin=begin) -> None:
                self._land(member, round_id, offset, size, payload, src,
                           begin, end, ROLE_INNETWORK_RESULT)

            member.nic.ingress.book(size, begin, landed, self.priority)

    def _land(self, member: _Member, round_id: int, offset: int, size: int,
              payload, src_name: str, start: float, end: float,
              role: str, record: bool = True) -> None:
        """Commit one result chunk into the member's receive region."""
        # Self-deliveries never hit the wire; tree hops were already
        # accounted by the transfer that carried them here.
        if record and src_name != member.host.name:
            record_wire(self.cluster, "RDMA_WRITE", src_name,
                        member.host.name, size, start, end, role)
        raw = payload.tobytes() if payload is not None else None
        member.nic._faulted_commit(
            None, member.tensor.buffer.backing, offset, size, raw, start,
            end, (),
            lambda _backing, _lo, _hi: self._chunk_committed(member,
                                                             round_id))

    def _chunk_committed(self, member: _Member, round_id: int) -> None:
        """The landing's last step: count the chunk, and once the round's
        last one is in, raise the flag and wake the member's executor."""
        key = (round_id, member.index)
        count = self._committed[key] + 1
        self._committed[key] = count
        if member.window_event is not None:
            event, member.window_event = member.window_event, None
            event.succeed()
        if count == len(self.chunks):
            del self._committed[key]
            flag = member.flag
            flag.backing.write(flag.offset, bytes([member.lane.advance()]))
            member.host.notify_memory_commit(flag.backing, flag.offset,
                                             flag.offset + 1)

    def _member_done(self, round_id: int) -> None:
        done = self._round_done.get(round_id, 0) + 1
        if done < self.num_members:
            self._round_done[round_id] = done
            return
        # Whole round consumed: drop its shared per-chunk state.
        self._round_done.pop(round_id, None)
        self._round_switched.pop(round_id, None)
        for chunk_index in range(len(self.chunks)):
            self._chunk_path.pop((round_id, chunk_index), None)

    # -- host-tree fallback -------------------------------------------------------

    def _tree_send_to_leader(self, member: _Member, round_id: int,
                             chunk_index: int, size: int, payload) -> None:
        """Stage 1: every member ships the chunk to its rack leader."""
        rack = self.rack_of[member.index]
        leader = self.members[self.leaders[rack]]
        if member.index == leader.index:
            self._tree_rack_arrival(round_id, chunk_index, rack,
                                    member.index, payload, size,
                                    self.sim.now)
            return
        self._tree_transfer(
            member, leader, size,
            lambda now, m=member.index: self._tree_rack_arrival(
                round_id, chunk_index, rack, m, payload, size, now))

    def _tree_rack_arrival(self, round_id: int, chunk_index: int, rack: int,
                           member_index: int, payload, size: int,
                           now: float) -> None:
        key = (round_id, chunk_index, rack)
        entries = self._tree_rack.setdefault(key, [])
        entries.append((member_index, payload, now))
        if len(entries) < len(self.racks[rack]):
            return
        del self._tree_rack[key]
        entries.sort()
        partial = combine([e[1] for e in entries])
        ready = max(e[2] for e in entries) + self._host_combine_time(size)
        leader = self.members[self.leaders[rack]]
        root = self.members[self.root]
        if leader.index == root.index:
            self.sim.call_at(ready, lambda: self._tree_root_arrival(
                round_id, chunk_index, rack, partial, size, ready))
        else:
            self.sim.call_at(ready, lambda: self._tree_transfer(
                leader, root, size,
                lambda now, r=rack: self._tree_root_arrival(
                    round_id, chunk_index, r, partial, size, now)))

    def _tree_root_arrival(self, round_id: int, chunk_index: int, rack: int,
                           partial, size: int, now: float) -> None:
        key = (round_id, chunk_index)
        entries = self._tree_root.setdefault(key, [])
        entries.append((rack, partial, now))
        if len(entries) < len(self.racks):
            return
        del self._tree_root[key]
        entries.sort()
        result = combine([e[1] for e in entries])
        ready = max(e[2] for e in entries) + self._host_combine_time(size)
        root = self.members[self.root]
        offset, _ = self.chunks[chunk_index]
        for rack_index, group in enumerate(self.racks):
            leader = self.members[self.leaders[rack_index]]

            def fan_out(now: float, leader=leader, group=group) -> None:
                for member_index in group:
                    member = self.members[member_index]
                    if member is leader:
                        self._tree_land(member, round_id, offset, size,
                                        result, leader.host.name, now)
                    else:
                        self._tree_transfer(
                            leader, member, size,
                            lambda t, m=member: self._tree_land(
                                m, round_id, offset, size, result,
                                leader.host.name, t))

            if leader is root:
                self.sim.call_at(ready, lambda f=fan_out: f(ready))
            else:
                self.sim.call_at(ready, lambda f=fan_out, l=leader:
                                 self._tree_transfer(root, l, size, f))

    def _tree_land(self, member: _Member, round_id: int, offset: int,
                   size: int, payload, src_name: str, now: float) -> None:
        """Terminal hop of the tree: commit into the receive region."""
        def land(start: float, end: float) -> None:
            self._land(member, round_id, offset, size, payload, src_name,
                       start, end, ROLE_COLLECTIVE_CHUNK, record=False)

        if src_name == member.host.name:
            # The node already holds the result locally (leader / root):
            # no wire, just the commit.
            land(now, now)
        else:
            member.nic.ingress.book(size, now, land, self.priority)

    def _tree_transfer(self, src: _Member, dst: _Member, size: int,
                       then) -> None:
        """One host-to-host hop of the fallback tree.

        Books the source NIC egress, charges the fabric path (trunk
        links contend via :meth:`Fabric.traverse`), and fires ``then``
        at the destination arrival time.  The destination's own ingress
        booking happens at the terminal hop.
        """
        def sent(start: float, egress_end: float) -> None:
            path = self.fabric.traverse(src.host.name, dst.host.name,
                                        start, egress_end, size)
            arrival = path.last_byte if path is not None \
                else egress_end + self.cost.rdma_base_latency
            record_wire(self.cluster, "RDMA_WRITE", src.host.name,
                        dst.host.name, size, start, arrival,
                        ROLE_COLLECTIVE_CHUNK)
            self.sim.call_at(arrival, lambda: then(arrival))

        src.nic.egress.book(size, self.sim.now, sent, self.priority)

    def _host_combine_time(self, size: int) -> float:
        return self.cost.op_overhead + \
            (size // self.dtype.size) / self.cost.gpu_elementwise

    # -- helpers ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "members": self.num_members,
            "chunks_per_round": len(self.chunks),
            "rounds_switched": self.rounds_switched,
            "rounds_degraded": self.rounds_degraded,
            "chunks_switched": self.chunks_switched,
            "chunks_spilled": self.chunks_spilled,
        }


class InNetworkRuntime:
    """All reduction groups of one session plus their shared plane."""

    def __init__(self, comm, session) -> None:
        grouped: Dict[str, List[Tuple[str, object]]] = {}
        for device, graph in session.partitioned.subgraphs.items():
            for node in graph:
                if node.op_type == "InNetworkReduce":
                    grouped.setdefault(node.attrs["group"], []).append(
                        (device, node))
        self.groups: Dict[str, InNetworkGroup] = {}
        self.plane: Optional[AggregationPlane] = None
        if not grouped:
            return
        cluster = session.cluster
        if cluster.fabric is None:
            raise DeviceError(
                "in-network reduction needs a fat-tree fabric; the runner "
                "falls back to the hierarchical host collective on flat "
                "topologies")
        self.plane = AggregationPlane(
            session.sim, cluster.fabric, cluster.cost,
            metrics=cluster.metrics, fault_plane=cluster.fault_plane)
        for group_id in sorted(grouped):
            self.groups[group_id] = InNetworkGroup(
                comm, session, group_id, grouped[group_id], self.plane)

    @property
    def active(self) -> bool:
        return bool(self.groups)

    def execute(self, comm, executor: Executor, node, tensor: Tensor):
        group = self.groups.get(node.attrs["group"])
        if group is None:  # pragma: no cover - defensive
            raise DeviceError(f"unknown reduction group "
                              f"{node.attrs['group']!r}")
        return group.execute(executor, int(node.attrs["member"]), tensor)

    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            group_id: group.snapshot()
            for group_id, group in sorted(self.groups.items())}
        if self.plane is not None:
            out["plane"] = self.plane.snapshot()
        return out
