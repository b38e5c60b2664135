"""Storage follows content on the gRPC baselines too.

The RPC stack moves lengths and references: an untracked tensor crosses
gRPC.TCP as a virtual payload and lands in a size-only tensor, so a
gradient push allocates nothing on either side; a tracked tensor is
copied twice (the sender's snapshot, the receiver's delivery).  Sibling
of ``tests/graph/test_content_tracking.py``; reads the same
``AddressSpace.dense_bytes_allocated`` counter.
"""

import numpy as np
import pytest

from repro.distributed.replication import build_training_graph
from repro.distributed.rpc_comm import GrpcCommRuntime
from repro.graph import GraphBuilder, Session
from repro.models import get_model
from repro.simnet import Cluster

SERVERS = 8
ITERATIONS = 2


def _lstm_session():
    spec = get_model("LSTM")
    job = build_training_graph(spec, num_workers=SERVERS, batch_size=32)
    cluster = Cluster(SERVERS)
    hosts = {device: cluster.hosts[int(device.lstrip("workerps"))]
             for device in job.devices}
    return spec, cluster, Session(cluster, job.graph, hosts,
                                  comm=GrpcCommRuntime(transport="tcp"))


def _dense_bytes(cluster):
    return sum(host.address_space.dense_bytes_allocated
               for host in cluster.hosts)


def test_lstm_grpc_tcp_gradient_pushes_allocate_nothing():
    spec, cluster, session = _lstm_session()
    allocated = []
    for executor in session.executors.values():
        executor.heap.add_observer(
            lambda tensor, node_name, index, device=executor.device:
            allocated.append((device, node_name or "", tensor)))
    before = _dense_bytes(cluster)
    session.run(iterations=ITERATIONS)
    received = [(device, tensor) for device, node_name, tensor in allocated
                if node_name.startswith("recv/")]

    # Every gradient _Recv on a PS shard is size-only, though all of
    # LSTM's gradients would fit real storage ...
    pushes = [tensor for device, tensor in received
              if device.startswith("ps")]
    assert len(pushes) == ITERATIONS * SERVERS * len(spec.variables)
    assert not any(tensor.is_dense for tensor in pushes)
    # ... so ApplyGradient, which computes only on two dense operands,
    # does no arithmetic on any of them.
    for executor in session.executors.values():
        for node in executor.graph.nodes_of_type("ApplyGradient"):
            gradient = node.inputs[1]
            assert not executor.values[
                (gradient.node.name, gradient.index)].is_dense

    # Weight pulls stay tracked: LSTM's variables are dense, each worker
    # receives every one of them per step and its replica's Identity
    # read copies it once more (an executor matter).  Nothing else in
    # the run may cost real bytes; with the pushes dense-by-size the run
    # allocated half as much again.
    pulls = [tensor for device, tensor in received
             if device.startswith("worker")]
    assert all(tensor.is_dense for tensor in pulls)
    pulled = sum(tensor.nbytes for tensor in pulls)
    assert pulled == ITERATIONS * SERVERS * spec.model_bytes
    assert _dense_bytes(cluster) - before <= 2 * pulled + 64 * 1024


def _train_small_dense(transport, gpu_tensors=False):
    """Two workers push real gradients of two dense weights to one PS."""
    builder = GraphBuilder("small-dense")
    rng = np.random.default_rng(5)
    inits = {name: rng.standard_normal(shape).astype(np.float32)
             for name, shape in (("w", (96, 64)), ("b", (64,)))}
    variables = {name: builder.variable(init.shape, name=name, device="ps0",
                                        initializer=init)
                 for name, init in inits.items()}
    for worker in ("worker1", "worker2"):
        for name, variable in variables.items():
            read = builder.identity(variable, name=f"{worker}/read/{name}",
                                    device=worker)
            gradient = builder.square(read, name=f"{worker}/grad/{name}",
                                      device=worker)
            builder.apply_gradient(variable, gradient, lr=0.01,
                                   name=f"{worker}/apply/{name}",
                                   device="ps0")
    cluster = Cluster(3)
    comm = GrpcCommRuntime(transport=transport, gpu_tensors=gpu_tensors)
    session = Session(cluster, builder.finalize(),
                      {"ps0": cluster.hosts[0], "worker1": cluster.hosts[1],
                       "worker2": cluster.hosts[2]}, comm=comm)
    session.run(iterations=3)
    return inits, session, comm


def test_small_dense_model_trains_to_the_same_bytes_on_both_transports():
    inits, tcp, _ = _train_small_dense("tcp")
    _, rdma, _ = _train_small_dense("rdma")
    for name, init in inits.items():
        trained = tcp.variable(name).array
        assert not np.array_equal(trained, init)
        assert trained.tobytes() == rdma.variable(name).array.tobytes()


@pytest.mark.parametrize("gpu_tensors", [False, True])
def test_bytes_sent_counts_every_sent_tensor(gpu_tensors):
    _, session, comm = _train_small_dense("tcp", gpu_tensors=gpu_tensors)
    per_step = sum(edge.nbytes_static
                   for edge in session.partitioned.transfers)
    assert per_step > 0
    assert comm.bytes_sent == 3 * per_step
