"""Rack-aware hierarchical allreduce for oversubscribed fabrics.

A flat ring over ``N`` workers spread across ``R`` racks crosses the
rack boundary on ``R`` of its edges, and each of those edges carries
the full ``2·M·(N-1)/N`` ring volume as one long chain of ``2·(N-1)``
dependent steps.  On a fat tree the crossing steps run at uplink
(not access-link) bandwidth, and at scale the chain length itself
dominates.  The hierarchical schedule reduces inside each rack first,
crosses the fabric once with all rack members in parallel, and
broadcasts back down — the classic three-phase decomposition:

1. **intra-rack reduce-scatter** — a ring over the rack's ``H``
   members at full access-link rate; member ``j`` ends up owning the
   rack-wide sum of chunk ``(j+1) % H``;
2. **inter-rack allreduce, one per chunk position** — member ``j`` of
   every rack runs a ring with its counterparts
   in the other racks over just its owned chunk.  All ``H`` position
   collectives proceed in parallel, so a rack's full uplink aggregate
   is in play, and the rack as a whole exchanges
   ``2·M·(R-1)/R`` bytes over the trunk — exactly the volume a single
   rack leader exchanging the rack sum would send, but without
   serializing it through one host's NIC;
3. **intra-rack all-gather** — the standard ``H-1`` forwarding rounds
   leave every member with the full globally reduced buffer.

Per worker that is ``2·M·(H-1)/H`` bytes at access rate plus
``2·(M/H)·(R-1)/R`` over the uplinks, with a dependency chain of
``≈ 2·H + 2·R - 4`` steps versus the flat ring's ``2·(N-1)``.

Degenerate shapes fall back to the flat collectives: one rack runs a
plain intra-rack ring, one-host racks run the inter-rack ring over
all workers directly, and a single worker is a no-op — so the
builder never emits a hop the topology does not need.

Reduction order differs from the flat ring (per-rack partial sums are
combined before crossing racks), so floating-point results can differ
in the last ulp; with integer-valued gradients both schedules are
exact and bit-identical, which is how the equivalence tests pin them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..graph.builder import GraphBuilder
from ..graph.node import NodeOutput
from ..simnet.fabric import rack_groups
from .fragments import (_check_inputs, _forwarding_all_gather,
                        ring_allreduce, ring_allreduce_wire_bytes,
                        ring_reduce_scatter)


def hierarchical_allreduce(builder: GraphBuilder,
                           inputs: Sequence[NodeOutput],
                           devices: Sequence[str],
                           hosts_per_rack: int,
                           name: str = "hier") -> List[NodeOutput]:
    """Rack-hierarchical allreduce over one flat fusion buffer.

    Workers are assigned to racks in index order, ``hosts_per_rack`` at
    a time (:func:`repro.simnet.fabric.rack_groups`, the fabric's own
    fill order, so graph placement and physical placement agree).
    Multi-rack shapes must tile evenly — the inter-rack phase pairs
    member ``j`` of every rack, so every rack needs a member ``j``.
    Returns the reduced buffer on every worker.
    """
    n = len(devices)
    _check_inputs(builder, inputs, devices)
    if n == 1:
        return list(inputs)
    groups = rack_groups(n, hosts_per_rack)
    if len(groups) == 1 or hosts_per_rack == 1:
        # Single rack: the intra-rack ring is the whole reduction.  One
        # host per rack: every worker fronts its rack; the inter-rack
        # ring is the whole reduction.
        return ring_allreduce(builder, inputs, devices, name=name)
    if n % hosts_per_rack != 0:
        raise ValueError(
            f"hierarchical allreduce needs racks of equal size; "
            f"{n} workers do not tile into racks of {hosts_per_rack}")

    # Phase 1: per-rack reduce-scatter at full access-link rate.
    rack_owned = [
        ring_reduce_scatter(builder, [inputs[i] for i in group],
                            [devices[i] for i in group],
                            name=f"{name}/r{r}/rs")
        for r, group in enumerate(groups)]

    # Phase 2: for each member position, allreduce that position's
    # owned chunk across the racks.  The H position collectives are
    # independent, so they overlap and spread across the uplinks.
    h = hosts_per_rack
    reduced_chunks: List[List[NodeOutput]] = [[None] * h  # type: ignore
                                              for _ in groups]
    for j in range(h):
        position_values = [rack_owned[r][j].value
                           for r in range(len(groups))]
        position_devices = [devices[group[j]] for group in groups]
        reduced = ring_allreduce(builder, position_values, position_devices,
                                 name=f"{name}/inter{j}")
        for r in range(len(groups)):
            reduced_chunks[r][j] = reduced[r]

    # Phase 3: per-rack all-gather of the globally reduced chunks.
    outputs: List[Optional[NodeOutput]] = [None] * n
    for r, group in enumerate(groups):
        member_owned = [(rack_owned[r][j].chunk, reduced_chunks[r][j])
                        for j in range(h)]
        gathered = _forwarding_all_gather(
            builder, member_owned, [devices[i] for i in group],
            name=f"{name}/r{r}/ag")
        for j, i in enumerate(group):
            outputs[i] = builder.add_op(
                "ChunkConcat", [gathered[j][c] for c in range(h)],
                name=f"{name}/r{r}/w{j}/out", device=devices[i])
    assert all(out is not None for out in outputs)
    return outputs  # type: ignore[return-value]


def hierarchical_wire_bytes(nbytes: int, num_workers: int,
                            hosts_per_rack: int) -> float:
    """Mean payload bytes each worker puts on the wire per allreduce.

    Mirrors the builder's phase structure (including its degenerate
    fallbacks) so the prediction matches the emitted graph exactly:
    ``2·M·(H-1)/H`` for the intra-rack rings plus a ``1/H`` share of
    the inter-rack ring's per-participant volume.
    """
    n = num_workers
    if n <= 1:
        return 0.0
    groups = rack_groups(n, hosts_per_rack)
    if len(groups) == 1 or hosts_per_rack == 1:
        return ring_allreduce_wire_bytes(nbytes, n)
    if n % hosts_per_rack != 0:
        raise ValueError(
            f"hierarchical allreduce needs racks of equal size; "
            f"{n} workers do not tile into racks of {hosts_per_rack}")
    h = hosts_per_rack
    num_racks = len(groups)
    intra = 2.0 * nbytes * (h - 1) / h
    inter = ring_allreduce_wire_bytes(nbytes, num_racks) / h
    return intra + inter


def rack_uplink_bytes(nbytes: int, num_racks: int) -> float:
    """Analytic per-rack trunk payload of the inter-rack ring phase.

    Each rack's members together exchange ``2·M·(R-1)/R`` bytes with
    the other racks during phase 2 — the only phase that crosses racks,
    and the same volume a designated rack leader exchanging the full
    rack sum would send.
    """
    if num_racks <= 1:
        return 0.0
    return 2.0 * nbytes * (num_racks - 1) / num_racks
