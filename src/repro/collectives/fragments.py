"""Collective algorithms emitted as dataflow-graph fragments.

Each builder function takes one flat fusion buffer per worker (a
``NodeOutput`` tagged with that worker's device) and appends the nodes
of a bandwidth-optimal collective to the graph.  Cross-worker chunk
movement is expressed as ordinary data edges between devices: the
partitioner replaces each with a ``_Send``/``_Recv`` pair, and because
every chunk shape is static, the RDMA analyzer places the transfer on
the zero-copy static protocol — preallocated receive region, one-sided
WRITE, tail-flag completion (§3.2).  The collectives therefore inherit
the whole device layer (QP striping, polling-async receives, arena
registration) without any new transfer machinery.

Implemented primitives:

* :func:`ring_reduce_scatter`  — N-1 steps; worker *i* ends up owning
  the fully reduced chunk ``(i+1) % N``;
* :func:`ring_allreduce`       — reduce-scatter + an N-1 step
  forwarding all-gather + in-place reassembly: ``2·B·(N-1)/N`` bytes
  on the wire per worker;
* :func:`halving_doubling_allreduce` — recursive vector halving with
  distance doubling (Rabenseifner), ``2·log2(P)`` steps for the
  power-of-two core ``P``; non-power-of-two worker counts fold the
  ``N - P`` extras onto partners before and after the core exchange.

A single worker degenerates to a no-op: the input buffers are returned
unchanged and no transfer nodes are emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..graph.builder import GraphBuilder
from ..graph.node import NodeOutput
from ..graph.ops import infer_shapes
from ..graph.partition import transfer_key
from .bucketing import chunk_ranges
from . import ops as _collective_ops  # noqa: F401  (registers the ops)


def _mark_collective_edge(builder: GraphBuilder, value: NodeOutput,
                          dst_device: str) -> None:
    """Pre-label a cross-device edge as collective-chunk traffic.

    The partitioner will replace this edge with a ``_Send``/``_Recv``
    pair; recording its rendezvous key in ``Graph.collective_edges``
    lets the RDMA binding layer tag the transfer's protocol role (and
    trace spans) as a collective hop rather than a generic tensor move.
    """
    if (value.node.device or "device0") == dst_device:
        return
    edges = getattr(builder.graph, "collective_edges", None)
    if edges is None:
        edges = builder.graph.collective_edges = set()
    edges.add(transfer_key(value.node.name, value.index, dst_device))


def tag_fragment_priority(builder: GraphBuilder, first_node_index: int,
                          priority: int) -> None:
    """Stamp a scheduling priority on a just-emitted graph fragment.

    Applies ``priority`` to every node added since ``first_node_index``
    (a ``len(builder.graph)`` snapshot taken before emitting the
    fragment).  The partitioner copies the attr onto the ``_Send``/
    ``_Recv`` pairs of the fragment's cut edges, where the RDMA binding
    hands it to the wire scheduler — so one call here prioritizes a
    whole collective's chunk traffic end to end.  Nodes that already
    carry an explicit priority keep it.
    """
    for node in list(builder.graph)[first_node_index:]:
        node.attrs.setdefault("priority", priority)


@dataclass(frozen=True)
class ChunkRef:
    """A reduced chunk held by one worker after reduce-scatter."""

    chunk: int           # chunk index within the fusion buffer
    begin: int           # element offset of the chunk
    size: int            # element count of the chunk
    value: NodeOutput    # the reduced chunk tensor (on the owner's device)


def _check_inputs(builder: GraphBuilder, inputs: Sequence[NodeOutput],
                  devices: Sequence[str]) -> int:
    if len(inputs) != len(devices):
        raise ValueError(f"{len(inputs)} inputs for {len(devices)} devices")
    if not inputs:
        raise ValueError("collective needs at least one participant")
    # Shape inference normally runs at finalize(); chunking needs the
    # buffer extents now, so infer over the graph-so-far on demand.
    if any(not x.node.output_shapes for x in inputs):
        infer_shapes(builder.graph)
    shapes = {tuple(x.shape.as_tuple()) for x in inputs}
    if len(shapes) != 1:
        raise ValueError(f"mismatched participant shapes: {sorted(shapes)}")
    shape = inputs[0].shape
    if shape.rank != 1 or not shape.is_fully_defined:
        raise ValueError(
            f"collectives operate on static flat buffers, got {shape}")
    return shape.num_elements()


def ring_reduce_scatter(builder: GraphBuilder,
                        inputs: Sequence[NodeOutput],
                        devices: Sequence[str],
                        name: str = "rs") -> List[ChunkRef]:
    """Reduce-scatter around the ring; returns each worker's owned chunk.

    Step ``s`` has worker ``i`` send its running sum of chunk
    ``(i - s) mod N`` to worker ``i+1`` while receiving chunk
    ``(i - s - 1) mod N`` from worker ``i-1`` and folding it into its
    local slice; after ``N-1`` steps worker ``i`` holds the complete
    sum of chunk ``(i + 1) mod N``.
    """
    n = len(devices)
    num_elements = _check_inputs(builder, inputs, devices)
    if n == 1:
        return [ChunkRef(chunk=0, begin=0, size=num_elements,
                         value=inputs[0])]
    ranges = chunk_ranges(num_elements, n)

    slices: Dict[Tuple[int, int], NodeOutput] = {}

    def local_slice(i: int, c: int) -> NodeOutput:
        if (i, c) not in slices:
            begin, size = ranges[c]
            slices[(i, c)] = builder.add_op(
                "ChunkSlice", [inputs[i]],
                attrs={"begin": begin, "size": size},
                name=f"{name}/w{i}/slice{c}", device=devices[i])
        return slices[(i, c)]

    # acc[i][c]: worker i's running sum of chunk c (absent -> its slice)
    acc: List[Dict[int, NodeOutput]] = [{} for _ in range(n)]
    for step in range(n - 1):
        updates = []
        for i in range(n):
            src = (i - 1) % n
            c = (i - step - 1) % n
            incoming = acc[src].get(c)
            if incoming is None:
                incoming = local_slice(src, c)
            _mark_collective_edge(builder, incoming, devices[i])
            folded = builder.add_op(
                "Add", [incoming, local_slice(i, c)],
                name=f"{name}/w{i}/red{step}", device=devices[i])
            updates.append((i, c, folded))
        for i, c, folded in updates:
            acc[i][c] = folded

    out = []
    for i in range(n):
        c = (i + 1) % n
        begin, size = ranges[c]
        out.append(ChunkRef(chunk=c, begin=begin, size=size,
                            value=acc[i][c]))
    return out


def _forwarding_all_gather(builder: GraphBuilder,
                           owned: Sequence[Tuple[int, NodeOutput]],
                           devices: Sequence[str],
                           name: str) -> List[Dict[int, NodeOutput]]:
    """The N-1 forwarding rounds shared by both all-gather entry points.

    ``owned[i]`` is worker i's contribution ``(slot, value)``; slots
    must be distinct.  Returns per-worker ``slot -> value`` maps where
    the value sits on that worker's device.
    """
    n = len(devices)
    gathered: List[Dict[int, NodeOutput]] = [
        {slot: value} for slot, value in owned]
    last: List[Tuple[int, NodeOutput]] = list(owned)
    for step in range(n - 1):
        incoming = []
        for i in range(n):
            src = (i - 1) % n
            slot, value = last[src]
            _mark_collective_edge(builder, value, devices[i])
            landed = builder.add_op(
                "Identity", [value],
                name=f"{name}/w{i}/fwd{step}", device=devices[i])
            incoming.append((i, slot, landed))
        for i, slot, landed in incoming:
            gathered[i][slot] = landed
        last = [(slot, landed) for _, slot, landed in incoming]
    return gathered


def ring_allreduce(builder: GraphBuilder,
                   inputs: Sequence[NodeOutput],
                   devices: Sequence[str],
                   name: str = "ring") -> List[NodeOutput]:
    """Bandwidth-optimal ring allreduce over one flat fusion buffer."""
    n = len(devices)
    _check_inputs(builder, inputs, devices)
    if n == 1:
        return list(inputs)
    owned = ring_reduce_scatter(builder, inputs, devices,
                                name=f"{name}/rs")
    gathered = _forwarding_all_gather(
        builder, [(ref.chunk, ref.value) for ref in owned], devices,
        name=f"{name}/ag")
    return [builder.add_op(
        "ChunkConcat", [gathered[i][c] for c in range(n)],
        name=f"{name}/w{i}/out", device=devices[i]) for i in range(n)]


def halving_doubling_allreduce(builder: GraphBuilder,
                               inputs: Sequence[NodeOutput],
                               devices: Sequence[str],
                               name: str = "hd") -> List[NodeOutput]:
    """Recursive halving-doubling allreduce (Rabenseifner's algorithm).

    Reduce-scatter by recursive vector halving with distance doubling
    (partners ``p ^ 2^k`` exchange opposite halves of their shrinking
    segment and fold), then all-gather by vector doubling with distance
    halving.  ``N`` that is not a power of two folds the ``N - P``
    extra workers onto partners (full-buffer pre-reduce and post-copy),
    the standard pre/post phase.
    """
    n = len(devices)
    num_elements = _check_inputs(builder, inputs, devices)
    if n == 1:
        return list(inputs)
    core = 1 << (n.bit_length() - 1)
    extras = n - core
    if num_elements < core:
        raise ValueError(
            f"buffer of {num_elements} elements too small for a "
            f"{core}-way halving-doubling exchange")

    values: List[NodeOutput] = list(inputs[:core])
    # Pre-phase: extra worker core+j folds its whole buffer onto worker j.
    for j in range(extras):
        _mark_collective_edge(builder, inputs[core + j], devices[j])
        values[j] = builder.add_op(
            "Add", [inputs[core + j], values[j]],
            name=f"{name}/w{j}/fold", device=devices[j])

    rounds = core.bit_length() - 1
    # seg[p]: (lo, hi) element range of worker p's current segment
    seg: List[Tuple[int, int]] = [(0, num_elements)] * core

    def segment_slice(p: int, begin: int, size: int,
                      label: str) -> NodeOutput:
        lo, hi = seg[p]
        if begin == lo and size == hi - lo:
            return values[p]
        return builder.add_op(
            "ChunkSlice", [values[p]],
            attrs={"begin": begin - lo, "size": size},
            name=f"{name}/w{p}/{label}", device=devices[p])

    for k in range(rounds):
        halves: Dict[int, Tuple[Tuple[int, int], NodeOutput]] = {}
        for p in range(core):
            lo, hi = seg[p]
            mid = lo + (hi - lo) // 2
            partner = p ^ (1 << k)
            keep = (lo, mid) if p < partner else (mid, hi)
            send = (mid, hi) if p < partner else (lo, mid)
            halves[p] = (keep, send)
        new_values = []
        for p in range(core):
            partner = p ^ (1 << k)
            keep, _ = halves[p]
            _, partner_send = halves[partner]
            if partner_send != keep:  # pragma: no cover - invariant
                raise AssertionError("halving-doubling segment mismatch")
            incoming = segment_slice(partner, keep[0], keep[1] - keep[0],
                                     f"half{k}")
            _mark_collective_edge(builder, incoming, devices[p])
            local = segment_slice(p, keep[0], keep[1] - keep[0],
                                  f"keep{k}")
            new_values.append(builder.add_op(
                "Add", [incoming, local],
                name=f"{name}/w{p}/red{k}", device=devices[p]))
        for p in range(core):
            seg[p] = halves[p][0]
            values[p] = new_values[p]

    # All-gather: reverse the rounds, doubling segments back to full.
    for k in reversed(range(rounds)):
        staged = []
        for p in range(core):
            partner = p ^ (1 << k)
            _mark_collective_edge(builder, values[partner], devices[p])
            incoming = builder.add_op(
                "Identity", [values[partner]],
                name=f"{name}/w{p}/gath{k}", device=devices[p])
            lo, hi = seg[p]
            plo, phi = seg[partner]
            parts = ([values[p], incoming] if lo < plo
                     else [incoming, values[p]])
            staged.append((min(lo, plo), max(hi, phi), builder.add_op(
                "ChunkConcat", parts,
                name=f"{name}/w{p}/join{k}", device=devices[p])))
        for p, (lo, hi, joined) in enumerate(staged):
            seg[p] = (lo, hi)
            values[p] = joined

    # Post-phase: folded partners push the full result back out.
    outputs = list(values)
    for j in range(extras):
        _mark_collective_edge(builder, values[j], devices[core + j])
        outputs.append(builder.add_op(
            "Identity", [values[j]],
            name=f"{name}/w{core + j}/unfold", device=devices[core + j]))
    return outputs


# -- analytic wire-volume predictions ----------------------------------------------


def ring_allreduce_wire_bytes(nbytes: int, num_workers: int) -> float:
    """Mean payload bytes each worker puts on the wire per allreduce."""
    if num_workers <= 1:
        return 0.0
    return 2.0 * nbytes * (num_workers - 1) / num_workers


def halving_doubling_wire_bytes(nbytes: int, num_workers: int) -> float:
    """Mean per-worker wire bytes, including non-power-of-two folding."""
    if num_workers <= 1:
        return 0.0
    core = 1 << (num_workers.bit_length() - 1)
    if core == num_workers:
        return 2.0 * nbytes * (core - 1) / core
    extras = num_workers - core
    total = 2.0 * nbytes * (core - 1) + 2.0 * nbytes * extras
    return total / num_workers
