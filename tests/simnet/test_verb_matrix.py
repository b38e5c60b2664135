"""Golden matrix for the NIC verb pipeline.

opcode {WRITE, READ, SEND} x link server {Pipe, quantum} x QP {RC,
SharedQp} x topology {flat, cross-rack fat tree} x verdict {none,
straggler, partial, loss}: every cell posts two back-to-back verbs on
one QP (a 200000-byte transfer from a source written with real bytes,
then a 6000-byte one from an unwritten source but for its head window
and tail flag byte, which must still land) and pins the
``repr`` of every clock the pipeline produces.  The fault rules fire on
the first verb only, so the second one exercises the QP ordering state
a faulted verb leaves behind.

The values in ``verb_matrix_golden.json`` were captured at the commit
before the six ``_execute_*`` methods were folded into one pipeline;
regenerate with ``PYTHONPATH=src python tests/simnet/test_verb_matrix.py``
only for a change that is meant to move a clock.  ``events`` was
re-pinned on purpose, every clock unmoved, when a landing became one
heap entry: the 64 WRITE/READ cells lost three entries per landing over
4 KiB (pipe none/straggler/partial 10 -> 4, loss 6 -> 3; quantum 32 ->
26 and 28 -> 25); the SEND cells did not move.
"""

import itertools
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.simnet import Cluster, Opcode, WorkRequest
from repro.simnet.costmodel import DEFAULT_COST_MODEL, KB
from repro.simnet.fabric import build_fat_tree
from repro.simnet.faults import FaultInjector

GOLDEN_PATH = Path(__file__).with_name("verb_matrix_golden.json")

OPCODES = ("WRITE", "READ", "SEND")
LINKS = ("pipe", "quantum")
QPS = ("rc", "shared")
TOPOLOGIES = ("flat", "fattree")
VERDICTS = {
    "none": None,
    "straggler": "straggler:count=1,delay=3e-6",
    "partial": "partial:count=1,frac=0.5",
    "loss": "loss:count=1",
}
CELLS = list(itertools.product(OPCODES, LINKS, QPS, TOPOLOGIES, VERDICTS))

BIG, SMALL = 200_000, 6_000
FILL = 0xAB
HEAD = b"HEAD"


def cell_id(cell) -> str:
    return "-".join(cell)


def _prefix(buf, size: int) -> int:
    """Length of the leading run of FILL bytes (the committed prefix)."""
    data = buf.read(0, size)
    return len(data) - len(data.lstrip(bytes([FILL])))


def run_cell(opcode: str, link: str, qp_kind: str, topology: str,
             verdict: str) -> dict:
    cost = DEFAULT_COST_MODEL
    if link == "quantum":
        cost = replace(cost, wire_quantum_bytes=64 * KB)
    if topology == "flat":
        cluster = Cluster(2, cost=cost)
        a, b = cluster.hosts
    else:
        # 2 hosts per rack, uplinks at half the NIC rate: server0 ->
        # server2 crosses the spine and queues on the trunk.
        fabric = build_fat_tree(4, hosts_per_rack=2, oversubscription=4.0,
                                cost=cost)
        cluster = Cluster(4, cost=cost, fabric=fabric)
        a, b = cluster.hosts[0], cluster.hosts[2]
    metrics = cluster.enable_metrics()
    if VERDICTS[verdict] is not None:
        cluster.install_faults(FaultInjector.from_spec(VERDICTS[verdict]))

    cq_a, cq_b = a.nic.create_cq(), b.nic.create_cq()
    if qp_kind == "rc":
        qp_a, qp_b = a.nic.create_qp(cq_a), b.nic.create_qp(cq_b)
        qp_a.connect(qp_b)
        target = None
    else:
        qp_a = a.nic.create_shared_qp(cq_a)
        qp_b = b.nic.create_shared_qp(cq_b)
        target = qp_b

    # Data flows a -> b for WRITE/SEND and b -> a for READ.
    src_host, dst_host = (b, a) if opcode == "READ" else (a, b)
    transfers = []
    for wr_id, (size, real) in enumerate(((BIG, True), (SMALL, False)), 1):
        src = src_host.allocate(size)
        dst = dst_host.allocate(size)
        src_mr = src_host.nic.register_memory(src)
        dst_mr = dst_host.nic.register_memory(dst)
        if real:
            src.write(bytes([FILL]) * size)
        else:
            src.write(HEAD)
            src.write(b"\x01", size - 1)
        local, local_mr, remote, remote_mr = (
            (dst, dst_mr, src, src_mr) if opcode == "READ"
            else (src, src_mr, dst, dst_mr))
        if opcode == "SEND":
            qp_b.post_recv(WorkRequest(
                opcode=Opcode.RECV, size=size, local_addr=dst.addr,
                lkey=dst_mr.lkey, wr_id=wr_id))
        transfers.append((dst, size, real))
        qp_a.post_send(WorkRequest(
            opcode=Opcode[opcode], size=size, local_addr=local.addr,
            lkey=local_mr.lkey, remote_addr=remote.addr,
            rkey=remote_mr.rkey, dct_target=target, wr_id=wr_id))
    cluster.sim.run()

    def cqes(cq):
        return [[c.wr_id, c.opcode.name, c.status.name, c.byte_len,
                 repr(c.timestamp)] for c in cq.poll(64)]

    landed = []
    for dst, size, real in transfers:
        if real:
            landed.append(_prefix(dst, size))
        else:
            landed.append([dst.read(0, len(HEAD)).hex(),
                           dst.read_byte(size - 1)])
    return {
        "send_cq": cqes(cq_a),
        "recv_cq": cqes(cq_b),
        "landed": landed,
        "wire": [[t.kind, t.src_host, t.dst_host, t.nbytes, repr(t.start),
                  repr(t.end)] for t in metrics.transfers],
        "events": cluster.sim.event_count,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_verb_cell_matches_golden(cell, golden):
    assert run_cell(*cell) == golden[cell_id(cell)]


def test_golden_covers_exactly_the_matrix(golden):
    assert sorted(golden) == sorted(cell_id(cell) for cell in CELLS)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {cell_id(cell): run_cell(*cell) for cell in CELLS},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CELLS)} cells to {GOLDEN_PATH}")
