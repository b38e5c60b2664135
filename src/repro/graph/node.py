"""Dataflow-graph IR: nodes, edges, and the graph container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .dtypes import DType
from .shapes import Shape


class GraphError(ValueError):
    """Structural problems: cycles, duplicate names, missing inputs."""


@dataclass(frozen=True)
class NodeOutput:
    """A reference to one output slot of a node (an edge source)."""

    node: "Node"
    index: int = 0

    @property
    def shape(self) -> Shape:
        return self.node.output_shapes[self.index]

    @property
    def dtype(self) -> DType:
        return self.node.output_dtypes[self.index]

    def __repr__(self) -> str:
        return f"{self.node.name}:{self.index}"


class Node:
    """One operator instance in a graph."""

    def __init__(self, graph: "Graph", name: str, op_type: str,
                 inputs: Sequence[NodeOutput], attrs: Dict[str, Any],
                 device: Optional[str] = None) -> None:
        self.graph = graph
        self.name = name
        self.op_type = op_type
        self.inputs: List[NodeOutput] = list(inputs)
        self.control_inputs: List["Node"] = []
        self.attrs = dict(attrs)
        self.device = device
        # Filled by shape inference:
        self.output_shapes: List[Shape] = []
        self.output_dtypes: List[DType] = []
        #: whether every output shape was statically inferred (analyzer)
        self.static_shape: bool = False

    def output(self, index: int = 0) -> NodeOutput:
        return NodeOutput(self, index)

    def add_control_input(self, node: "Node") -> None:
        """Add an execution-order-only dependency (no data flows)."""
        if node is self:
            raise GraphError(f"{self.name} cannot depend on itself")
        self.control_inputs.append(node)

    def __repr__(self) -> str:
        return f"Node({self.name!r}, {self.op_type})"


class Graph:
    """A named collection of nodes with helper queries."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}

    # -- construction -------------------------------------------------------------

    def add_node(self, name: str, op_type: str,
                 inputs: Sequence[NodeOutput] = (),
                 attrs: Optional[Dict[str, Any]] = None,
                 device: Optional[str] = None) -> Node:
        if name in self._nodes:
            raise GraphError(f"duplicate node name {name!r}")
        for src in inputs:
            if src.node.graph is not self:
                raise GraphError(
                    f"input {src!r} belongs to a different graph")
        node = Node(self, name, op_type, inputs, attrs or {}, device)
        self._nodes[name] = node
        return node

    def unique_name(self, base: str) -> str:
        if base not in self._nodes:
            return base
        index = 1
        while f"{base}_{index}" in self._nodes:
            index += 1
        return f"{base}_{index}"

    # -- queries ------------------------------------------------------------------

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"no node named {name!r} in graph {self.name!r}")

    def nodes_of_type(self, op_type: str) -> List[Node]:
        return [n for n in self if n.op_type == op_type]

    # -- ordering -----------------------------------------------------------------

    def dependency_map(self) -> Dict[str, set]:
        """node name -> set of dependency node names (data + control)."""
        deps: Dict[str, set] = {}
        for node in self:
            names = {src.node.name for src in node.inputs}
            names.update(c.name for c in node.control_inputs)
            deps[node.name] = names
        return deps

    def dependency_tables(self) -> Tuple[Dict[str, int], Dict[str, List[str]]]:
        """Each node's dependency count, and its dependents in graph order."""
        deps = self.dependency_map()
        dependents: Dict[str, List[str]] = {name: [] for name in self._nodes}
        for name, dep_names in deps.items():
            for dep in dep_names:
                dependents[dep].append(name)
        return {name: len(d) for name, d in deps.items()}, dependents

    def topological_order(self) -> List[Node]:
        """Kahn's algorithm over data + control edges; raises on cycle."""
        in_degree, dependents = self.dependency_tables()
        from collections import deque
        ready = deque(name for name in self._nodes if in_degree[name] == 0)
        order: List[Node] = []
        while ready:
            name = ready.popleft()
            order.append(self._nodes[name])
            for dependent in dependents[name]:
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self._nodes):
            stuck = sorted(set(self._nodes) - {n.name for n in order})
            raise GraphError(f"cycle detected involving {stuck[:5]}")
        return order

    def validate(self) -> None:
        """Check structural sanity (acyclicity, input slot validity)."""
        self.topological_order()
        for node in self:
            for src in node.inputs:
                if src.node.name not in self._nodes:
                    raise GraphError(
                        f"{node.name} reads from foreign node {src.node.name}")
