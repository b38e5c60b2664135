"""Unit tests for graph IR, shape inference, and partitioning."""

import numpy as np
import pytest

from repro.graph import (DType, GraphBuilder, GraphError, Shape, infer_shapes,
                         partition)


def small_forward(device=None):
    """W2 @ sigmoid(W1 @ x): the paper's Figure 1 forward pass."""
    b = GraphBuilder("fig1")
    x = b.placeholder([4, 1], name="x", device=device)
    w1 = b.variable([8, 4], name="W1", device=device)
    w2 = b.variable([3, 8], name="W2", device=device)
    h = b.sigmoid(b.matmul(w1, x, device=device), name="h", device=device)
    y = b.sigmoid(b.matmul(w2, h, device=device), name="y", device=device)
    return b, y


class TestGraphStructure:
    def test_duplicate_names_rejected(self):
        b = GraphBuilder()
        b.placeholder([1], name="x")
        with pytest.raises(GraphError):
            b.graph.add_node("x", "NoOp")

    def test_unique_name_generation(self):
        b = GraphBuilder()
        first = b.placeholder([1])
        second = b.placeholder([1])
        assert first.node.name != second.node.name

    def test_topological_order_respects_edges(self):
        b, y = small_forward()
        order = [n.name for n in b.graph.topological_order()]
        assert order.index("x") < order.index("h")
        assert order.index("h") < order.index("y")

    def test_cycle_detected(self):
        b = GraphBuilder()
        a = b.placeholder([1], name="a")
        node1 = b.graph.add_node("n1", "Identity", [a])
        node2 = b.graph.add_node("n2", "Identity", [node1.output(0)])
        node1.inputs.append(node2.output(0))
        with pytest.raises(GraphError, match="cycle"):
            b.graph.topological_order()

    def test_control_inputs_order(self):
        b = GraphBuilder()
        a = b.placeholder([1], name="a")
        barrier = b.graph.add_node("barrier", "NoOp")
        barrier.add_control_input(a.node)
        order = [n.name for n in b.graph.topological_order()]
        assert order.index("a") < order.index("barrier")

    def test_self_control_rejected(self):
        b = GraphBuilder()
        node = b.graph.add_node("n", "NoOp")
        with pytest.raises(GraphError):
            node.add_control_input(node)

    def test_foreign_input_rejected(self):
        b1, y1 = small_forward()
        b2 = GraphBuilder()
        with pytest.raises(GraphError):
            b2.graph.add_node("bad", "Identity", [y1])


class TestShapeInference:
    def test_forward_shapes(self):
        b, y = small_forward()
        b.finalize()
        assert b.graph.node("h").output_shapes[0] == (8, 1)
        assert y.node.output_shapes[0] == (3, 1)

    def test_static_flag_set(self):
        b, y = small_forward()
        b.finalize()
        assert all(node.static_shape for node in b.graph)

    def test_dynamic_batch_propagates(self):
        b = GraphBuilder()
        x = b.placeholder([None, 10], name="x")
        w = b.variable([10, 5], name="w")
        out = b.matmul(x, w)
        b.finalize()
        assert out.node.output_shapes[0] == (None, 5)
        assert not out.node.static_shape

    def test_reduce_shapes(self):
        b = GraphBuilder()
        x = b.placeholder([4, 6], name="x")
        total = b.reduce_sum(x)
        per_col = b.reduce_max(x, axis=0)
        b.finalize()
        assert total.node.output_shapes[0] == ()
        assert per_col.node.output_shapes[0] == (6,)

    def test_xent_two_outputs(self):
        b = GraphBuilder()
        logits = b.placeholder([32, 10], name="logits")
        labels = b.placeholder([32, 10], name="labels")
        loss, dlogits = b.softmax_cross_entropy(logits, labels)
        b.finalize()
        assert loss.shape == ()
        assert dlogits.shape == (32, 10)

    def test_synthetic_outputs(self):
        b = GraphBuilder()
        node = b.synthetic_compute(
            0.01, outputs=[(DType.float32, Shape([100, 100]))])
        b.finalize()
        assert node.node.output_shapes[0] == (100, 100)


class TestPartitioning:
    def _two_device_graph(self):
        b = GraphBuilder()
        w = b.variable([16, 16], name="weight", device="ps0")
        x = b.placeholder([16, 16], name="x", device="worker0")
        prod = b.matmul(w, x, name="prod", device="worker0")
        b.finalize()
        return b.graph

    def test_subgraph_split(self):
        parts = partition(self._two_device_graph())
        assert set(parts.devices) == {"ps0", "worker0"}
        assert "weight" in parts.subgraphs["ps0"]
        assert "prod" in parts.subgraphs["worker0"]

    def test_send_recv_inserted(self):
        parts = partition(self._two_device_graph())
        sends = parts.subgraphs["ps0"].nodes_of_type("_Send")
        recvs = parts.subgraphs["worker0"].nodes_of_type("_Recv")
        assert len(sends) == 1 and len(recvs) == 1
        assert sends[0].attrs["key"] == recvs[0].attrs["key"]

    def test_transfer_edge_metadata(self):
        parts = partition(self._two_device_graph())
        (edge,) = parts.transfers
        assert edge.src_device == "ps0"
        assert edge.dst_device == "worker0"
        assert edge.static_shape
        assert edge.nbytes_static == 16 * 16 * 4

    def test_recv_inherits_shape_and_dtype(self):
        parts = partition(self._two_device_graph())
        (recv,) = parts.subgraphs["worker0"].nodes_of_type("_Recv")
        assert recv.output_shapes[0] == (16, 16)
        assert recv.output_dtypes[0] is DType.float32

    def test_multiple_consumers_share_one_transfer(self):
        b = GraphBuilder()
        w = b.variable([4, 4], name="w", device="ps0")
        a = b.identity(w, name="a", device="worker0")
        c = b.identity(w, name="c", device="worker0")
        b.finalize()
        parts = partition(b.graph)
        assert len(parts.transfers) == 1

    def test_distinct_destinations_get_distinct_transfers(self):
        b = GraphBuilder()
        w = b.variable([4, 4], name="w", device="ps0")
        b.identity(w, name="a", device="worker0")
        b.identity(w, name="c", device="worker1")
        b.finalize()
        parts = partition(b.graph)
        assert len(parts.transfers) == 2
        assert {t.dst_device for t in parts.transfers} == {"worker0", "worker1"}

    def test_dynamic_shape_edge_marked(self):
        b = GraphBuilder()
        x = b.placeholder([None, 8], name="x", device="worker0")
        consumer = b.identity(x, name="sink", device="ps0")
        b.finalize()
        parts = partition(b.graph)
        (edge,) = parts.transfers
        assert not edge.static_shape
        assert edge.nbytes_static is None

    def test_cross_device_control_edge_rejected(self):
        b = GraphBuilder()
        a = b.placeholder([1], name="a", device="worker0")
        sink = b.graph.add_node("sink", "NoOp", device="ps0")
        sink.add_control_input(a.node)
        b.finalize()
        with pytest.raises(GraphError, match="control edge"):
            partition(b.graph)

    def test_single_device_no_transfers(self):
        b, y = small_forward(device="worker0")
        b.finalize()
        parts = partition(b.graph)
        assert parts.transfers == []
        assert len(parts.devices) == 1

    def test_transfer_queries(self):
        parts = partition(self._two_device_graph())
        assert len(parts.transfers_into("worker0")) == 1
        assert len(parts.transfers_out_of("ps0")) == 1
        assert parts.transfers_into("ps0") == []
