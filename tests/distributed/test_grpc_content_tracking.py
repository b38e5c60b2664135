"""Storage follows content on the gRPC baselines too.

The RPC stack moves lengths and references: an untracked tensor crosses
either gRPC transport as a virtual payload and lands in a size-only
tensor, so a pull or push allocates nothing on either side; a tracked
tensor is copied twice (the sender's snapshot, the receiver's delivery).  Sibling
of ``tests/graph/test_content_tracking.py``; reads the same
``AddressSpace.dense_bytes_allocated`` counter.
"""

import numpy as np

from repro.distributed.replication import build_training_graph
from repro.distributed.rpc_comm import GrpcCommRuntime
from repro.graph import GraphBuilder, Session
from repro.models import get_model
from repro.simnet import Cluster

SERVERS = 8
ITERATIONS = 2


def _dense_bytes(cluster):
    return sum(host.address_space.dense_bytes_allocated
               for host in cluster.hosts)


def _run_lstm(transport):
    """Runs LSTM over ``transport``; returns the spec, the session, every
    ``_Recv`` output as ``(device, tensor)`` and the dense bytes the
    run allocated."""
    spec = get_model("LSTM")
    job = build_training_graph(spec, num_workers=SERVERS, batch_size=32)
    cluster = Cluster(SERVERS)
    hosts = {device: cluster.hosts[int(device.lstrip("workerps"))]
             for device in job.devices}
    session = Session(cluster, job.graph, hosts,
                      comm=GrpcCommRuntime(transport=transport))
    allocated = []
    for executor in session.executors.values():
        executor.heap.add_observer(
            lambda tensor, node_name, index, device=executor.device:
            allocated.append((device, node_name or "", tensor)))
    before = _dense_bytes(cluster)
    session.run(iterations=ITERATIONS)
    received = [(device, tensor) for device, node_name, tensor in allocated
                if node_name.startswith("recv/")]
    return spec, session, received, _dense_bytes(cluster) - before


def test_lstm_grpc_tcp_gradient_pushes_allocate_nothing():
    spec, session, received, allocated = _run_lstm("tcp")

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

    # Weight pulls are untracked too: no initializer gives LSTM's
    # variables content, so they are size-only, and so is every copy a
    # worker receives.  Each worker still pulls the whole model per
    # step; the run allocates no real bytes beyond control data (with
    # the variables dense-by-size it allocated 2x the pulled bytes).
    pulls = [tensor for device, tensor in received
             if device.startswith("worker")]
    assert not any(tensor.is_dense for tensor in pulls)
    pulled = sum(tensor.nbytes for tensor in pulls)
    assert pulled == ITERATIONS * SERVERS * spec.model_bytes
    assert allocated <= 64 * 1024


def test_lstm_grpc_rdma_pulls_and_pushes_allocate_nothing():
    """gRPC.RDMA sends each message as one byte stream, so an untracked
    tensor travels as a length there too: no pull or push is dense and
    the run allocates no real bytes beyond control data (sending
    untracked tensors of <= 16 MiB as zero bytes allocated 1.81 GB)."""
    spec, _, received, allocated = _run_lstm("rdma")
    pushes = [tensor for device, tensor in received
              if device.startswith("ps")]
    pulls = [tensor for device, tensor in received
             if device.startswith("worker")]
    assert len(pushes) == ITERATIONS * SERVERS * len(spec.variables)
    assert (sum(tensor.nbytes for tensor in pulls)
            == ITERATIONS * SERVERS * spec.model_bytes)
    assert not any(tensor.is_dense for tensor in pushes + pulls)
    assert allocated <= 64 * 1024


def _train_small_dense(transport):
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
    comm = GrpcCommRuntime(transport=transport)
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


def test_bytes_sent_counts_every_sent_tensor():
    _, session, comm = _train_small_dense("tcp")
    per_step = sum(edge.nbytes_static
                   for edge in session.partitioned.transfers)
    assert per_step > 0
    assert comm.bytes_sent == 3 * per_step


def _run_8mib_weight(initialized):
    """worker1 pulls an 8 MiB weight from ps0 over gRPC.RDMA and pushes
    its square back, twice; returns the weight's storage kind, the
    iteration-time reprs, the verbs posted and the heap events."""
    shape = (2048, 1024)  # float32: 8 MiB = 8 fragment bodies + 200 bytes
    builder = GraphBuilder("weight-8mib")
    initializer = np.ones(shape, np.float32) if initialized else None
    variable = builder.variable(shape, name="w", device="ps0",
                                initializer=initializer)
    read = builder.identity(variable, name="worker1/read/w",
                            device="worker1")
    gradient = builder.square(read, name="worker1/grad/w", device="worker1")
    builder.apply_gradient(variable, gradient, lr=0.01,
                           name="worker1/apply/w", device="ps0")
    cluster = Cluster(2)
    collector = cluster.enable_metrics()
    session = Session(cluster, builder.finalize(),
                      {"ps0": cluster.hosts[0], "worker1": cluster.hosts[1]},
                      comm=GrpcCommRuntime(transport="rdma"))
    stats = session.run(iterations=2)
    return (session.variable("w").is_dense,
            [repr(t) for t in stats.iteration_times], collector.count(),
            cluster.sim.event_count)


def test_storage_kind_does_not_move_the_grpc_rdma_clock():
    """A dense and a size-only 8 MiB weight cross gRPC.RDMA on the same
    clock: each message is one stream, so real and size-only bytes share
    fragments.  (Kept in separate fragments, the size-only pull and
    push each took one fragment more.)"""
    dense_kind, *dense = _run_8mib_weight(initialized=True)
    virtual_kind, *virtual = _run_8mib_weight(initialized=False)
    assert dense_kind and not virtual_kind
    assert dense == virtual
