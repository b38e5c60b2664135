"""Reverse-mode automatic differentiation over the dataflow graph.

Builds gradient sub-graphs out of existing operators (the way
TensorFlow's ``tf.gradients`` does), so users write only the forward
pass and call :func:`minimize` — the backward pass then flows through
the same partitioning/transfer machinery, which is exactly how
gradients end up crossing servers in the paper's training runs.

Coverage: the dense operators (MatMul, Add/Sub/Mul, Sigmoid, Tanh,
Relu, Square, Identity, Reshape, Transpose, ReduceSum, ReduceMean,
SoftmaxCrossEntropy).  Unsupported operators raise a
clear :class:`GraphError` rather than silently mis-training.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from .builder import GraphBuilder
from .node import GraphError, Node, NodeOutput
from .shapes import Shape


#: op_type -> fn(builder, node, grad_outputs) -> grads per data input
GRADIENTS: Dict[str, Callable] = {}


def register_gradient(op_type: str):
    def wrap(fn):
        GRADIENTS[op_type] = fn
        return fn
    return wrap


@register_gradient("MatMul")
def _grad_matmul(b: GraphBuilder, node: Node, grads: List[NodeOutput]):
    """d(a@b) -> (g @ b^T, a^T @ g)."""
    g = grads[0]
    a, w = node.inputs
    device = node.device
    return [b.matmul(g, b.transpose(w, device=device), device=device),
            b.matmul(b.transpose(a, device=device), g, device=device)]


@register_gradient("Add")
def _grad_add(b, node, grads):
    return [grads[0], _reduce_to_shape(b, grads[0], node.inputs[1], node)]


@register_gradient("Sub")
def _grad_sub(b, node, grads):
    g = grads[0]
    neg = b.mul(g, b.constant(np.float32(-1.0), device=node.device),
                device=node.device)
    return [g, _reduce_to_shape(b, neg, node.inputs[1], node)]


@register_gradient("Mul")
def _grad_mul(b, node, grads):
    g = grads[0]
    a, c = node.inputs
    return [b.mul(g, c, device=node.device),
            b.mul(g, a, device=node.device)]


def _reduce_to_shape(b, grad, target: NodeOutput, node: Node):
    """Sum a broadcast gradient back down to the target's shape."""
    grad_rank = grad.shape.rank
    target_rank = target.shape.rank
    reduced = grad
    for _ in range(grad_rank - target_rank):
        reduced = b.reduce_sum(reduced, axis=0, device=node.device)
    return reduced


@register_gradient("Sigmoid")
def _grad_sigmoid(b, node, grads):
    y = node.output(0)
    device = node.device
    one = b.constant(np.float32(1.0), device=device)
    return [b.mul(grads[0], b.mul(y, b.sub(one, y, device=device),
                                  device=device), device=device)]


@register_gradient("Tanh")
def _grad_tanh(b, node, grads):
    y = node.output(0)
    device = node.device
    one = b.constant(np.float32(1.0), device=device)
    return [b.mul(grads[0],
                  b.sub(one, b.mul(y, y, device=device), device=device),
                  device=device)]


@register_gradient("Relu")
def _grad_relu(b, node, grads):
    """g * 1[y > 0]; the mask is y's sign since y = max(x, 0)."""
    y = node.output(0)
    device = node.device
    mask = b._add("ReluMask", [y], device=device)
    return [b.mul(grads[0], mask, device=device)]


@register_gradient("Square")
def _grad_square(b, node, grads):
    x = node.inputs[0]
    device = node.device
    two = b.constant(np.float32(2.0), device=device)
    return [b.mul(grads[0], b.mul(two, x, device=device), device=device)]


@register_gradient("Identity")
def _grad_identity(b, node, grads):
    return [grads[0]]


@register_gradient("Reshape")
def _grad_reshape(b, node, grads):
    return [b.reshape(grads[0], node.inputs[0].shape, device=node.device)]


@register_gradient("Transpose")
def _grad_transpose(b, node, grads):
    return [b.transpose(grads[0], device=node.device)]


@register_gradient("ReduceSum")
def _grad_reduce_sum(b, node, grads):
    return [_broadcast_back(b, node, grads[0], scale=1.0)]


@register_gradient("ReduceMean")
def _grad_reduce_mean(b, node, grads):
    shape = node.inputs[0].shape
    axis = node.attrs.get("axis")
    if axis is None:
        count = shape.num_elements()
    else:
        count = shape[axis]
    return [_broadcast_back(b, node, grads[0], scale=1.0 / count)]


def _broadcast_back(b, node, grad, scale: float):
    device = node.device
    input_shape = node.inputs[0].shape
    axis = node.attrs.get("axis")
    if axis is not None:
        # Re-insert the reduced axis as size 1 so broadcasting aligns.
        # (The incoming grad has the reduce's output shape, which was
        # inferred on the forward graph.)
        dims = list(node.output_shapes[0].dims)
        dims.insert(axis, 1)
        grad = b.reshape(grad, Shape(dims), device=device)
    ones = b._add("OnesLike", [node.inputs[0]], device=device)
    scaled = b.mul(grad, b.constant(np.float32(scale), device=device),
                   device=device)
    return b.mul(ones, scaled, device=device)


@register_gradient("SoftmaxCrossEntropy")
def _grad_softmax_xent(b, node, grads):
    """The op's second output *is* d(loss)/d(logits); scale by the
    incoming loss gradient.  Labels get no gradient."""
    dlogits = node.output(1)
    return [b.mul(dlogits, grads[0], device=node.device), None]


# Two helper ops the gradient builders need.
from .ops import OPS, OpDef, _default_cost, _set  # noqa: E402


def _infer_unary_passthrough(node, in_shapes, in_dtypes):
    _set(node, [in_shapes[0]], [in_dtypes[0]])


if "ReluMask" not in OPS:
    OPS["ReluMask"] = OpDef(
        "ReluMask", _infer_unary_passthrough,
        lambda n, i: [(i[0] > 0).astype(i[0].dtype)], _default_cost)
if "OnesLike" not in OPS:
    OPS["OnesLike"] = OpDef(
        "OnesLike", _infer_unary_passthrough,
        lambda n, i: [np.ones_like(i[0])], _default_cost)


def gradients(builder: GraphBuilder, loss: NodeOutput,
              targets: List[NodeOutput]) -> List[Optional[NodeOutput]]:
    """Build the backward graph: d(loss)/d(target) for each target.

    ``loss`` must be scalar.  Returns one gradient output per target
    (None if the loss does not depend on it).
    """
    graph = builder.graph
    # Shapes must be known to build the backward pass (finalize() will
    # re-run inference over the combined graph afterwards).
    from .ops import infer_shapes
    infer_shapes(graph)
    if loss.shape.rank != 0:
        raise GraphError(f"loss must be scalar, got shape {loss.shape}")
    # Accumulated gradient per (node name, output index).
    accumulated: Dict[tuple, NodeOutput] = {}
    one = builder.constant(np.float32(1.0), name="grad_seed",
                           device=loss.node.device)
    accumulated[(loss.node.name, loss.index)] = one

    # Reverse topological order over the current graph snapshot.
    order = [n for n in graph.topological_order()]
    for node in reversed(order):
        grads_out = [accumulated.get((node.name, i))
                     for i in range(max(len(node.output_shapes), 1))]
        if all(g is None for g in grads_out):
            continue
        if node.op_type in ("Variable", "Placeholder", "Const"):
            continue
        gradient_fn = GRADIENTS.get(node.op_type)
        if gradient_fn is None:
            raise GraphError(
                f"no gradient registered for {node.op_type!r} "
                f"(node {node.name!r})")
        # Missing output grads contribute zero; builders may index them.
        filled = [g if g is not None else _zero_like(builder, node, i)
                  for i, g in enumerate(grads_out)]
        input_grads = gradient_fn(builder, node, filled)
        if len(input_grads) != len(node.inputs):
            raise GraphError(
                f"gradient for {node.op_type} returned "
                f"{len(input_grads)} grads for {len(node.inputs)} inputs")
        for src, grad in zip(node.inputs, input_grads):
            if grad is None:
                continue
            key = (src.node.name, src.index)
            if key in accumulated:
                accumulated[key] = builder.add(
                    accumulated[key], grad, device=src.node.device)
            else:
                accumulated[key] = grad
    return [accumulated.get((t.node.name, t.index)) for t in targets]


def _zero_like(builder: GraphBuilder, node: Node, index: int) -> NodeOutput:
    zero = builder._add("ZerosLike", [node.output(index)],
                        device=node.device)
    return zero


if "ZerosLike" not in OPS:
    OPS["ZerosLike"] = OpDef(
        "ZerosLike", _infer_unary_passthrough,
        lambda n, i: [np.zeros_like(i[0])], _default_cost)


def minimize(builder: GraphBuilder, loss: NodeOutput, lr: float,
             variables: Optional[List[NodeOutput]] = None) -> List[NodeOutput]:
    """Build SGD update ops for every (or the given) variable.

    Returns the ApplyGradient outputs; variables the loss does not
    touch are skipped.
    """
    if variables is None:
        variables = [n.output(0)
                     for n in builder.graph.nodes_of_type("Variable")]
    grads = gradients(builder, loss, variables)
    updates = []
    for variable, grad in zip(variables, grads):
        if grad is None:
            continue
        updates.append(builder.apply_gradient(
            variable, grad, lr=lr, device=variable.node.device))
    return updates
