"""Fluent graph-construction API (the user-facing layer, like tf.*)."""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from .dtypes import DType
from .node import Graph, Node, NodeOutput
from .ops import infer_shapes
from .shapes import Shape, ShapeLike, as_shape


class GraphBuilder:
    """Builds a dataflow graph with auto-named nodes.

    The optional ``device`` argument on every method tags nodes for
    partitioning (e.g. ``"worker0"`` / ``"ps0"``); untagged nodes
    inherit the builder's ``default_device``.
    """

    def __init__(self, name: str = "graph", default_device: Optional[str] = None) -> None:
        self.graph = Graph(name)
        self.default_device = default_device

    # -- internals ------------------------------------------------------------------

    def _add(self, op_type: str, inputs: Sequence[NodeOutput] = (),
             attrs: Optional[dict] = None, name: Optional[str] = None,
             device: Optional[str] = None) -> NodeOutput:
        node_name = self.graph.unique_name(name or op_type.lower())
        node = self.graph.add_node(node_name, op_type, inputs, attrs or {},
                                   device=device or self.default_device)
        return node.output(0)

    def add_op(self, op_type: str, inputs: Sequence[NodeOutput] = (),
               attrs: Optional[dict] = None, name: Optional[str] = None,
               device: Optional[str] = None) -> NodeOutput:
        """Append a node of any registered operator type.

        The public escape hatch for extension subsystems (e.g. the
        collectives' fusion/chunk operators) that define their own ops
        via :func:`repro.graph.ops.register` without a dedicated
        builder method.  Returns output 0; reach further outputs
        through ``result.node.output(i)``.
        """
        return self._add(op_type, list(inputs), attrs=attrs, name=name,
                         device=device)

    # -- sources ---------------------------------------------------------------------

    def placeholder(self, shape: ShapeLike, dtype: DType = DType.float32,
                    name: Optional[str] = None,
                    device: Optional[str] = None) -> NodeOutput:
        return self._add("Placeholder", attrs={"shape": as_shape(shape),
                                               "dtype": dtype},
                         name=name or "input", device=device)

    def constant(self, value: Any, name: Optional[str] = None,
                 device: Optional[str] = None) -> NodeOutput:
        value = np.asarray(value, dtype=np.float32 if np.asarray(value).dtype
                           == np.float64 else None)
        return self._add("Const", attrs={"value": np.asarray(value)},
                         name=name or "const", device=device)

    def variable(self, shape: ShapeLike, dtype: DType = DType.float32,
                 name: Optional[str] = None, device: Optional[str] = None,
                 initializer: Optional[np.ndarray] = None) -> NodeOutput:
        attrs = {"shape": as_shape(shape), "dtype": dtype}
        if initializer is not None:
            attrs["initializer"] = np.asarray(initializer, dtype=dtype.np)
        return self._add("Variable", attrs=attrs, name=name or "variable",
                         device=device)

    # -- math -------------------------------------------------------------------------

    def matmul(self, a: NodeOutput, b: NodeOutput, name=None, device=None) -> NodeOutput:
        return self._add("MatMul", [a, b], name=name, device=device)

    def add(self, a: NodeOutput, b: NodeOutput, name=None, device=None) -> NodeOutput:
        return self._add("Add", [a, b], name=name, device=device)

    def sub(self, a: NodeOutput, b: NodeOutput, name=None, device=None) -> NodeOutput:
        return self._add("Sub", [a, b], name=name, device=device)

    def mul(self, a: NodeOutput, b: NodeOutput, name=None, device=None) -> NodeOutput:
        return self._add("Mul", [a, b], name=name, device=device)

    def sigmoid(self, x: NodeOutput, name=None, device=None) -> NodeOutput:
        return self._add("Sigmoid", [x], name=name, device=device)

    def tanh(self, x: NodeOutput, name=None, device=None) -> NodeOutput:
        return self._add("Tanh", [x], name=name, device=device)

    def relu(self, x: NodeOutput, name=None, device=None) -> NodeOutput:
        return self._add("Relu", [x], name=name, device=device)

    def square(self, x: NodeOutput, name=None, device=None) -> NodeOutput:
        return self._add("Square", [x], name=name, device=device)

    def identity(self, x: NodeOutput, name=None, device=None) -> NodeOutput:
        return self._add("Identity", [x], name=name, device=device)

    def reduce_max(self, x: NodeOutput, axis=None, name=None, device=None) -> NodeOutput:
        return self._add("ReduceMax", [x], attrs={"axis": axis}, name=name,
                         device=device)

    def reduce_sum(self, x: NodeOutput, axis=None, name=None, device=None) -> NodeOutput:
        return self._add("ReduceSum", [x], attrs={"axis": axis}, name=name,
                         device=device)

    def reduce_mean(self, x: NodeOutput, axis=None, name=None, device=None) -> NodeOutput:
        return self._add("ReduceMean", [x], attrs={"axis": axis}, name=name,
                         device=device)

    def reshape(self, x: NodeOutput, shape: ShapeLike, name=None, device=None) -> NodeOutput:
        return self._add("Reshape", [x], attrs={"shape": as_shape(shape)},
                         name=name, device=device)

    def transpose(self, x: NodeOutput, name=None, device=None) -> NodeOutput:
        return self._add("Transpose", [x], name=name, device=device)

    # -- training ---------------------------------------------------------------------

    def softmax_cross_entropy(self, logits: NodeOutput, labels: NodeOutput,
                              name=None, device=None) -> Tuple[NodeOutput, NodeOutput]:
        out = self._add("SoftmaxCrossEntropy", [logits, labels],
                        name=name or "xent", device=device)
        return out, out.node.output(1)

    def apply_gradient(self, variable: NodeOutput, gradient: NodeOutput,
                       lr: float, name=None, device=None) -> NodeOutput:
        if variable.node.op_type != "Variable":
            raise ValueError("apply_gradient needs a Variable output")
        return self._add("ApplyGradient", [variable, gradient],
                         attrs={"lr": lr, "variable": variable.node.name},
                         name=name or f"apply_{variable.node.name}",
                         device=device)

    # -- synthetic --------------------------------------------------------------------

    def synthetic_compute(self, time: float,
                          outputs: Optional[List[Tuple[DType, Shape]]] = None,
                          inputs: Sequence[NodeOutput] = (),
                          name=None, device=None) -> NodeOutput:
        """A node that charges a fixed simulated duration and emits
        virtual tensors of the given dtypes/shapes."""
        attrs = {"time": time}
        if outputs is not None:
            attrs["outputs"] = outputs
        return self._add("SyntheticCompute", list(inputs), attrs=attrs,
                         name=name, device=device)

    # -- finalization -----------------------------------------------------------------

    def finalize(self) -> Graph:
        """Validate and run static shape inference; returns the graph."""
        self.graph.validate()
        infer_shapes(self.graph)
        return self.graph
