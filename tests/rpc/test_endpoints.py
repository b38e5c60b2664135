"""Integration tests: RPC over both transports, end to end."""

import pytest

from repro.rpc import (
    GrpcRdmaServer, GrpcTcpServer, Message, Payload, RpcError, check_reply,
    connect_grpc_rdma, connect_grpc_tcp)
from repro.simnet import Cluster, CostModel, Endpoint, MB


TRANSPORTS = ["tcp", "rdma"]


def make_pair(cluster, transport, port=4000):
    """Returns (server_facade, client_endpoint) across hosts 0 -> 1."""
    client_host, server_host = cluster.hosts[0], cluster.hosts[1]
    if transport == "tcp":
        server = GrpcTcpServer(server_host, port)
        client = connect_grpc_tcp(client_host, Endpoint(server_host.name, port))
    else:
        server = GrpcRdmaServer(server_host, port)
        client = connect_grpc_rdma(client_host, Endpoint(server_host.name, port))
    return server, client


def run_call(cluster, client, method, request):
    out = []

    def proc():
        reply = yield client.call(method, request)
        out.append(reply)

    done = cluster.sim.spawn(proc())
    cluster.sim.run_until_complete(done, limit=60.0)
    return out[0]


@pytest.fixture(params=TRANSPORTS)
def rig(request):
    cluster = Cluster(2)
    server, client = make_pair(cluster, request.param)
    return cluster, server, client, request.param


class TestRequestResponse:
    def test_echo(self, rig):
        cluster, server, client, _ = rig
        server.register("echo", lambda msg: Message(text=msg["text"]))
        reply = run_call(cluster, client, "echo", Message(text="hello"))
        assert reply["text"] == "hello"

    def test_concrete_payload_roundtrip(self, rig):
        cluster, server, client, _ = rig
        server.register("sum", lambda msg: Message(
            total=sum(msg["data"].data)))
        reply = run_call(cluster, client, "sum",
                         Message(data=Payload(data=bytes(range(100)))))
        assert reply["total"] == sum(range(100))

    def test_large_concrete_payload_exact(self, rig):
        """Multi-fragment concrete payload survives byte-exactly."""
        cluster, server, client, _ = rig
        blob = bytes(i % 251 for i in range(300_000))
        server.register("mirror", lambda msg: Message(back=msg["blob"]))
        reply = run_call(cluster, client, "mirror",
                         Message(blob=Payload(data=blob)))
        assert reply["back"].data == blob

    def test_virtual_payload_size_preserved(self, rig):
        cluster, server, client, _ = rig
        got = []

        def handler(msg):
            got.append(msg["tensor"].size)
            return Message(ok=1)

        server.register("put", handler)
        run_call(cluster, client, "put",
                 Message(tensor=Payload(size=64 * MB)))
        assert got == [64 * MB]

    def test_unknown_method_error(self, rig):
        cluster, server, client, _ = rig
        reply = run_call(cluster, client, "nope", Message())
        with pytest.raises(RpcError, match="unknown method"):
            check_reply(reply)

    def test_sequential_calls(self, rig):
        cluster, server, client, _ = rig
        state = {"n": 0}

        def bump(msg):
            state["n"] += msg["by"]
            return Message(n=state["n"])

        server.register("bump", bump)
        results = [run_call(cluster, client, "bump", Message(by=by))["n"]
                   for by in (1, 2, 3)]
        assert results == [1, 3, 6]

    def test_generator_handler_charges_time(self, rig):
        cluster, server, client, _ = rig

        def slow(msg):
            yield cluster.sim.timeout(0.5)
            return Message(done=1)

        server.register("slow", slow)
        reply = run_call(cluster, client, "slow", Message())
        assert reply["done"] == 1
        assert cluster.sim.now >= 0.5

    def test_concurrent_calls_pipeline(self, rig):
        cluster, server, client, _ = rig
        server.register("id", lambda msg: Message(v=msg["v"]))
        replies = []

        def proc():
            futures = [client.call("id", Message(v=i)) for i in range(5)]
            for future in futures:
                reply = yield future
                replies.append(reply["v"])

        done = cluster.sim.spawn(proc())
        cluster.sim.run_until_complete(done, limit=60.0)
        assert sorted(replies) == [0, 1, 2, 3, 4]


class TestCopies:
    def test_tcp_delivers_the_payload_object_itself(self):
        """Between the handler's snapshot and the caller, gRPC.TCP
        charges its copies by length and performs none."""
        cluster = Cluster(2)
        server, client = make_pair(cluster, "tcp")
        blob = bytes(i % 251 for i in range(300_000))
        server.register("get", lambda msg: Message(
            data=Payload(data=blob), dims=[300_000], dtype=1))
        reply = run_call(cluster, client, "get", Message(key="w"))
        assert reply["data"].data is blob
        assert reply["dims"] == [300_000]

    def test_rdma_mixed_message_fragments_as_before(self):
        """3 MiB concrete + 5 MiB virtual: the bytes come back equal and
        each leg is one stream of 9 fragments (8 MiB + control over
        1048551-byte bodies), the fourth carrying the end of the
        concrete bytes and the start of the virtual ones.  Fragment
        count, wire size and wire bytes are pinned; with real and
        virtual spans in separate fragments a leg took 10."""
        cluster = Cluster(2)
        collector = cluster.enable_metrics()
        server, client = make_pair(cluster, "rdma")
        blob = bytes(i % 251 for i in range(3 * MB))
        server.register("mirror", lambda msg: Message(
            back=msg["blob"], tail=msg["tail"]))
        reply = run_call(cluster, client, "mirror", Message(
            blob=Payload(data=blob), tail=Payload(size=5 * MB)))
        assert reply["back"].data == blob
        assert reply["tail"] == Payload(size=5 * MB)
        assert reply.wire_size == 8388646
        assert client.link.side.ring.records_written == 9
        assert server.endpoints[0].link.side.ring.records_written == 9
        assert collector.count() == 18
        assert collector.total_bytes() == 16777842
        assert repr(cluster.sim.now) == "0.009088816738333332"

    def test_rdma_header_bytes_do_not_depend_on_process_history(
            self, monkeypatch):
        """Message and request ids are numbered per link and per
        endpoint: two identical runs in one process put identical
        bytes on the wire, in both directions."""
        from repro.simnet.nic import QueuePair
        sent = []
        post_send = QueuePair.post_send
        monkeypatch.setattr(QueuePair, "post_send", lambda qp, wr: (
            sent.append(wr.inline_data), post_send(qp, wr))[1])

        def run():
            del sent[:]
            cluster = Cluster(2)
            server, client = make_pair(cluster, "rdma")
            server.register("echo", lambda msg: Message(text=msg["text"]))
            for text in ("one", "two"):
                run_call(cluster, client, "echo", Message(text=text))
            return list(sent)
        first, second = run(), run()
        assert len(first) == 4 and first == second


class TestTransportTiming:
    def _timed_transfer(self, transport, size):
        cluster = Cluster(2)
        server, client = make_pair(cluster, transport)
        server.register("put", lambda msg: Message(ok=1))
        start = cluster.sim.now
        run_call(cluster, client, "put", Message(t=Payload(size=size)))
        return cluster.sim.now - start

    def test_rdma_transport_faster_than_tcp(self):
        tcp = self._timed_transfer("tcp", 16 * MB)
        rdma = self._timed_transfer("rdma", 16 * MB)
        assert rdma < tcp

    def test_both_scale_with_size(self):
        for transport in TRANSPORTS:
            small = self._timed_transfer(transport, 1 * MB)
            large = self._timed_transfer(transport, 32 * MB)
            assert large > 2 * small


class TestGrpcRdmaCrash:
    def test_message_over_1gb_crashes(self):
        """Reproduces TensorFlow's gRPC.RDMA crash above 1 GB (§5.1)."""
        cluster = Cluster(2)
        server, client = make_pair(cluster, "rdma")
        server.register("put", lambda msg: Message(ok=1))
        failed = []

        def proc():
            try:
                yield client.call("put",
                                  Message(t=Payload(size=1024 * MB + 1)))
            except RpcError as exc:
                failed.append(str(exc))

        done = cluster.sim.spawn(proc())
        cluster.sim.run_until_complete(done, limit=300.0)
        assert failed and "exceeds the maximum" in failed[0]

    def test_tcp_does_not_crash_at_1gb(self):
        cluster = Cluster(2)
        server, client = make_pair(cluster, "tcp")
        server.register("put", lambda msg: Message(ok=1))
        reply = run_call(cluster, client, "put",
                         Message(t=Payload(size=1024 * MB + 1)))
        assert reply["ok"] == 1


class TestFlowControl:
    def test_many_large_messages_respect_ring(self):
        """Sending far more than the ring capacity must still complete
        (credits throttle the sender instead of overflowing)."""
        cluster = Cluster(2)
        server, client = make_pair(cluster, "rdma")
        server.register("put", lambda msg: Message(ok=1))
        replies = []

        def proc():
            futures = [client.call("put", Message(t=Payload(size=8 * MB)))
                       for _ in range(6)]
            for future in futures:
                reply = yield future
                replies.append(reply["ok"])

        done = cluster.sim.spawn(proc())
        cluster.sim.run_until_complete(done, limit=600.0)
        assert replies == [1] * 6


class TestMultipleClients:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_two_clients_one_server(self, transport):
        cluster = Cluster(3)
        server_host = cluster.hosts[2]
        port = 4100
        if transport == "tcp":
            server = GrpcTcpServer(server_host, port)
            clients = [connect_grpc_tcp(h, Endpoint(server_host.name, port))
                       for h in cluster.hosts[:2]]
        else:
            server = GrpcRdmaServer(server_host, port)
            clients = [connect_grpc_rdma(h, Endpoint(server_host.name, port))
                       for h in cluster.hosts[:2]]
        server.register("whoami", lambda msg: Message(tag=msg["tag"]))
        got = []

        def proc(client, tag):
            reply = yield client.call("whoami", Message(tag=tag))
            got.append(reply["tag"])

        procs = [cluster.sim.spawn(proc(c, i)) for i, c in enumerate(clients)]
        for p in procs:
            cluster.sim.run_until_complete(p, limit=60.0)
        assert sorted(got) == [0, 1]
