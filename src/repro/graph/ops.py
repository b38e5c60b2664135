"""Operator registry: shape inference, numpy compute, simulated cost.

Each operator type registers three aspects:

* ``infer``   — shape/dtype inference used by the analyzer's static
  pass (§3.4): given input shapes (possibly partial), produce output
  shapes.  Static shapes propagate; unknown dims stay unknown.
* ``compute`` — real numpy execution for dense tensors (used by the
  convergence applications and the examples).  Operators whose tensors
  are virtual (the big benchmark models) skip compute.
* ``cost``    — simulated execution time charged by the executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..simnet.costmodel import CostModel
from .dtypes import DType
from .node import GraphError, Node
from .shapes import Shape, as_shape, scalar


@dataclass
class OpDef:
    """Metadata and behaviour for one operator type."""

    name: str
    infer: Callable[[Node, List[Shape], List[DType]], None]
    compute: Optional[Callable[[Node, List[np.ndarray]], List[np.ndarray]]]
    cost: Callable[[Node, CostModel], float]
    stateful: bool = False


OPS: Dict[str, OpDef] = {}


def register(name: str, *, compute=None, cost=None, stateful=False):
    """Decorator over the shape-inference function for an op type."""
    def wrap(infer_fn):
        if name in OPS:
            raise GraphError(f"operator {name!r} already registered")
        OPS[name] = OpDef(name=name, infer=infer_fn, compute=compute,
                          cost=cost or _default_cost, stateful=stateful)
        return infer_fn
    return wrap


def get_op(name: str) -> OpDef:
    try:
        return OPS[name]
    except KeyError:
        raise GraphError(f"unknown operator type {name!r}")


def _set(node: Node, shapes: Sequence[Shape], dtypes: Sequence[DType]) -> None:
    node.output_shapes = [as_shape(s) for s in shapes]
    node.output_dtypes = list(dtypes)
    node.static_shape = all(s.is_fully_defined for s in node.output_shapes)


def _elements(shape: Shape) -> int:
    """Element count, treating unknown dims as 1 (for cost estimates)."""
    count = 1
    for dim in shape.dims:
        count *= dim if dim is not None else 1
    return count


def _default_cost(node: Node, cm: CostModel) -> float:
    total = sum(_elements(s) for s in node.output_shapes) or 1
    return cm.op_overhead + total / cm.gpu_elementwise


def _flops_cost(flops: float, cm: CostModel) -> float:
    return cm.op_overhead + flops / cm.gpu_flops


# --------------------------------------------------------------------------- sources

@register("Placeholder",
          compute=lambda node, inputs: [node.attrs["_feed"]])
def _infer_placeholder(node, in_shapes, in_dtypes):
    _set(node, [node.attrs["shape"]], [node.attrs["dtype"]])


@register("Const", compute=lambda node, inputs: [node.attrs["value"]])
def _infer_const(node, in_shapes, in_dtypes):
    value = node.attrs["value"]
    _set(node, [Shape(value.shape)], [DType.from_numpy(value.dtype)])


@register("Variable", stateful=True,
          compute=lambda node, inputs: [node.attrs["_storage"]])
def _infer_variable(node, in_shapes, in_dtypes):
    _set(node, [node.attrs["shape"]], [node.attrs["dtype"]])


# ------------------------------------------------------------------------- math

@register("MatMul",
          compute=lambda node, inputs: [inputs[0] @ inputs[1]],
          cost=lambda node, cm: _flops_cost(
              2.0 * _elements(node.output_shapes[0])
              * (node.inputs[0].shape[1] or 1), cm))
def _infer_matmul(node, in_shapes, in_dtypes):
    _set(node, [in_shapes[0].matmul(in_shapes[1])], [in_dtypes[0]])


def _infer_broadcast_binary(node, in_shapes, in_dtypes):
    _set(node, [in_shapes[0].broadcast(in_shapes[1])], [in_dtypes[0]])


register("Add", compute=lambda n, i: [i[0] + i[1]])(_infer_broadcast_binary)
OPS["Sub"] = OpDef("Sub", _infer_broadcast_binary,
                   lambda n, i: [i[0] - i[1]], _default_cost)
OPS["Mul"] = OpDef("Mul", _infer_broadcast_binary,
                   lambda n, i: [i[0] * i[1]], _default_cost)


def _infer_unary(node, in_shapes, in_dtypes):
    _set(node, [in_shapes[0]], [in_dtypes[0]])


OPS["Sigmoid"] = OpDef(
    "Sigmoid", _infer_unary,
    lambda n, i: [1.0 / (1.0 + np.exp(-i[0]))], _default_cost)
OPS["Tanh"] = OpDef("Tanh", _infer_unary,
                    lambda n, i: [np.tanh(i[0])], _default_cost)
OPS["Relu"] = OpDef("Relu", _infer_unary,
                    lambda n, i: [np.maximum(i[0], 0)], _default_cost)
OPS["Square"] = OpDef("Square", _infer_unary,
                      lambda n, i: [i[0] * i[0]], _default_cost)
OPS["Identity"] = OpDef("Identity", _infer_unary,
                        lambda n, i: [i[0]], _default_cost)


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _infer_reduce(node, in_shapes, in_dtypes):
    axis = node.attrs.get("axis")
    shape = in_shapes[0]
    if axis is None:
        out = scalar()
    else:
        out = Shape([d for i, d in enumerate(shape.dims) if i != axis])
    _set(node, [out], [in_dtypes[0]])


OPS["ReduceMax"] = OpDef(
    "ReduceMax", _infer_reduce,
    lambda n, i: [np.max(i[0], axis=n.attrs.get("axis"))], _default_cost)
OPS["ReduceSum"] = OpDef(
    "ReduceSum", _infer_reduce,
    lambda n, i: [np.sum(i[0], axis=n.attrs.get("axis"))], _default_cost)
OPS["ReduceMean"] = OpDef(
    "ReduceMean", _infer_reduce,
    lambda n, i: [np.mean(i[0], axis=n.attrs.get("axis"))], _default_cost)


@register("Reshape", compute=lambda node, inputs: [
    inputs[0].reshape(node.attrs["shape"].as_tuple())])
def _infer_reshape(node, in_shapes, in_dtypes):
    _set(node, [node.attrs["shape"]], [in_dtypes[0]])


@register("Transpose",
          compute=lambda node, inputs: [np.ascontiguousarray(inputs[0].T)])
def _infer_transpose(node, in_shapes, in_dtypes):
    _set(node, [Shape(tuple(in_shapes[0].dims)[::-1])], [in_dtypes[0]])


# --------------------------------------------------------------------- training ops

@register("ApplyGradient", stateful=True,
          compute=lambda node, inputs: [inputs[0] - node.attrs["lr"] * inputs[1]],
          cost=lambda node, cm: cm.op_overhead
          + 3 * _elements(node.output_shapes[0]) / cm.gpu_elementwise)
def _infer_apply_gradient(node, in_shapes, in_dtypes):
    """inputs: (variable value, gradient) -> updated variable value."""
    _set(node, [in_shapes[0].merge(in_shapes[1])], [in_dtypes[0]])


@register("SoftmaxCrossEntropy",
          compute=lambda node, inputs: list(_softmax_xent(inputs[0], inputs[1])))
def _infer_softmax_xent(node, in_shapes, in_dtypes):
    """inputs: (logits [B,C], labels [B,C]) -> (loss scalar, dlogits [B,C])."""
    _set(node, [scalar(), in_shapes[0]], [in_dtypes[0], in_dtypes[0]])


def _softmax_xent(logits: np.ndarray, labels: np.ndarray):
    probs = _softmax(logits)
    batch = logits.shape[0]
    eps = 1e-12
    loss = -np.sum(labels * np.log(probs + eps)) / batch
    dlogits = (probs - labels) / batch
    return np.asarray(loss, dtype=logits.dtype), dlogits.astype(logits.dtype)


# --------------------------------------------------------------------- synthetic ops

@register("SyntheticCompute",
          cost=lambda node, cm: node.attrs["time"])
def _infer_synthetic(node, in_shapes, in_dtypes):
    """Charges a fixed simulated time; outputs per attrs['outputs']:
    a list of (dtype, Shape) for tensors it 'produces' (virtual)."""
    outputs = node.attrs.get("outputs", [(DType.float32, scalar())])
    _set(node, [shape for _, shape in outputs],
         [dtype for dtype, _ in outputs])


@register("NoOp", cost=lambda node, cm: cm.op_overhead)
def _infer_noop(node, in_shapes, in_dtypes):
    _set(node, [], [])


# ----------------------------------------------------------------- transfer markers

# _Send consumes a tensor; produces nothing locally.
@register("_Send", cost=lambda node, cm: 0.0)
def _infer_send(node, in_shapes, in_dtypes):
    _set(node, [], [])


# _Recv produces the transferred tensor; shape from attrs.
@register("_Recv", cost=lambda node, cm: 0.0)
def _infer_recv(node, in_shapes, in_dtypes):
    _set(node, [node.attrs["shape"]], [node.attrs["dtype"]])


def infer_shapes(graph) -> None:
    """Run static shape inference over a whole graph (§3.4 step one).

    Walks in topological order, calling each op's ``infer`` with its
    input shapes; sets ``node.static_shape`` so the analyzer can split
    tensors into statically-placed vs dynamically-allocated.
    """
    for node in graph.topological_order():
        in_shapes = [src.shape for src in node.inputs]
        in_dtypes = [src.dtype for src in node.inputs]
        get_op(node.op_type).infer(node, in_shapes, in_dtypes)
