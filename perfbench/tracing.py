"""The traced pass: boundary spans and the per-layer host-time table.

Both hooks are installed from this file and touch nothing under ``src/``:

* :class:`SpanTracer` wraps a fixed list of **public** boundary callables,
  resolved by dotted name, and records one span per call (name, start, end,
  parent, cell).  A span's self time is its duration minus its children's.
* :func:`layer_table` buckets a ``cProfile`` run by ``repro`` module into
  the layer names the benchmark uses.  Time in C built-ins and in library
  code (``numpy.zeros``, ``tobytes``, ``heappop``, ``bytes.join``) is
  charged to the repro module that called it, through the profiler's
  caller table.

A boundary that no longer resolves is a hard error: renaming one changes
what the benchmark's metric names mean and needs a ``benchmark`` issue.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Boundary:
    span: str                      # span name (layer-prefixed)
    module: str                    # module whose attribute is replaced
    attr: str                      # "name" or "Class.method"
    #: extra fields read from the call's arguments when the span closes
    annotate: Optional[Callable[[tuple], Dict[str, object]]] = None


#: Functions are patched in the module that *looks them up* at call time
#: (``runner`` imports the graph builders by name), methods on their class.
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("distributed.run_training_benchmark",
             "repro.distributed.runner", "run_training_benchmark"),
    Boundary("distributed.graph_build",
             "repro.distributed.runner", "build_training_graph"),
    Boundary("distributed.graph_build",
             "repro.distributed.runner", "build_allreduce_training_graph"),
    Boundary("simnet.fabric.build",
             "repro.distributed.runner", "build_fat_tree"),
    Boundary("simnet.cluster_init",
             "repro.simnet.topology", "Cluster.__init__"),
    Boundary("graph.session.init",
             "repro.graph.session", "Session.__init__"),
    Boundary("graph.session.run",
             "repro.graph.session", "Session.run"),
    # Session.run calls the comm runtime's public per-iteration hook first
    # thing in every iteration; a span there marks where the warm-up step
    # ends and the steady steps begin inside one and the same run.
    Boundary("graph.iteration_start",
             "repro.core.rdma_comm", "RdmaCommRuntime.on_iteration_start",
             annotate=lambda args: {"iteration": args[2]}),
    Boundary("graph.iteration_start",
             "repro.distributed.rpc_comm",
             "GrpcCommRuntime.on_iteration_start",
             annotate=lambda args: {"iteration": args[2]}),
    Boundary("llm.run_llm_serving_benchmark",
             "repro.llm.benchmark", "run_llm_serving_benchmark"),
    Boundary("simnet.simulator.run_until_complete",
             "repro.simnet.simulator", "Simulator.run_until_complete",
             annotate=lambda args: {"events": args[0].event_count}),
    Boundary("workloads.run_microbench",
             "repro.workloads.microbench", "run_microbench"),
)


class BoundaryError(RuntimeError):
    """A boundary callable's dotted name no longer resolves."""


def resolve(boundary: Boundary) -> Tuple[object, str, Callable]:
    """``(owner, attribute, callable)`` for a boundary, or raise."""
    try:
        owner = importlib.import_module(boundary.module)
        *path, leaf = boundary.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        target = getattr(owner, leaf)
    except (ImportError, AttributeError) as exc:
        raise BoundaryError(
            f"boundary {boundary.module}:{boundary.attr} does not resolve "
            f"({exc}); a rename needs a benchmark issue") from exc
    if not callable(target):
        raise BoundaryError(
            f"boundary {boundary.module}:{boundary.attr} is not callable")
    return owner, leaf, target


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    cell: str
    start: float
    end: float = 0.0
    children_s: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def to_dict(self) -> Dict[str, object]:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "cell": self.cell, "start": self.start, "end": self.end,
                "self_s": self.self_s, **self.extra}


class SpanTracer:
    """Spans around the boundary callables; kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: label of the cell (and pass) the next spans belong to
        self.cell = ""
        self._stack: List[Span] = []
        self._patched: List[Tuple[object, str, Callable]] = []

    def __enter__(self) -> "SpanTracer":
        resolved = [(b, *resolve(b)) for b in BOUNDARIES]   # all or nothing
        for boundary, owner, leaf, target in resolved:
            setattr(owner, leaf, self._wrap(boundary, target))
            self._patched.append((owner, leaf, target))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patched:
            owner, leaf, target = self._patched.pop()
            setattr(owner, leaf, target)

    def _wrap(self, boundary: Boundary, target: Callable) -> Callable:
        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(id=len(self.spans), name=boundary.span,
                        parent=parent.id if parent else None,
                        cell=self.cell, start=time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                return target(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.children_s += span.duration
                if boundary.annotate is not None:
                    span.extra.update(boundary.annotate(args))
        return wrapper

    def named(self, name: str, cell_prefix: str) -> List[Span]:
        """Spans called ``name`` whose cell label starts with the prefix,
        in start order."""
        return [span for span in self.spans
                if span.name == name and span.cell.startswith(cell_prefix)]

    def total(self, name: str, cell_prefix: str) -> float:
        return sum(span.duration for span in self.named(name, cell_prefix))

    def children(self, parent: Span, name: str) -> List[Span]:
        return [span for span in self.spans
                if span.parent == parent.id and span.name == name]


# -- cProfile -> layers ------------------------------------------------------

LAYERS: Tuple[str, ...] = (
    "simnet.simulator", "simnet.nic", "simnet.fabric", "simnet.memory",
    "simnet.faults", "simnet.tcp", "core", "core.recovery",
    "core.innetwork", "graph.executor", "graph", "collectives",
    "distributed", "rpc", "serving", "llm", "observability", "other")

#: first match wins; paths are relative to the ``repro`` package.  What
#: matches nothing (topology, cost model, model zoo, harness, and this
#: benchmark's own files) is ``other``.
_LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("simnet/simulator.py", "simnet.simulator"),
    ("simnet/nic.py", "simnet.nic"),
    ("simnet/verbs.py", "simnet.nic"),
    ("simnet/fabric.py", "simnet.fabric"),
    ("simnet/memory.py", "simnet.memory"),
    ("simnet/faults.py", "simnet.faults"),
    ("simnet/tcp.py", "simnet.tcp"),
    ("simnet/metrics.py", "observability"),
    ("core/recovery.py", "core.recovery"),
    ("core/innetwork.py", "core.innetwork"),
    ("core/", "core"),
    ("graph/executor.py", "graph.executor"),
    ("graph/", "graph"),
    ("collectives/", "collectives"),
    ("distributed/", "distributed"),
    ("rpc/", "rpc"),
    ("serving/", "serving"),
    ("llm/", "llm"),
    ("observability/", "observability"),
)

_REPRO_MARK = os.sep + "repro" + os.sep
_OWN_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of(filename: str) -> Optional[str]:
    """Layer of a profiled file; None for built-ins and library code."""
    if filename.startswith(_OWN_DIR):
        return "other"
    cut = filename.rfind(_REPRO_MARK)
    if cut < 0:
        return None
    relative = filename[cut + len(_REPRO_MARK):].replace(os.sep, "/")
    for prefix, layer in _LAYER_RULES:
        if relative.startswith(prefix):
            return layer
    return "other"


def layer_table(raw: Dict) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    ``raw`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``;
    ``callers`` maps each calling function to the same four figures for
    that edge alone.  A repro function's self time goes to its layer.  A
    foreign function's self time is split over its callers edge by edge;
    where the caller is foreign too, the edge goes to whoever called
    *that*, weighted by inclusive time.  The layers sum to the profile's
    total self time.
    """
    memo: Dict[tuple, Dict[str, float]] = {}
    cycles_cut = [0]

    def owners(func: tuple, visiting: frozenset) -> Dict[str, float]:
        """Layer shares responsible for the calls into ``func``'s callees."""
        if func in memo:
            return memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        cut_before = cycles_cut[0]
        callers = raw.get(func, (0, 0, 0.0, 0.0, {}))[4]
        shares: Dict[str, float] = defaultdict(float)
        weight_sum = 0.0
        for caller, (_, _, _, edge_ct) in callers.items():
            if caller in visiting:
                cycles_cut[0] += 1  # recursion through library code
                continue
            weight = max(edge_ct, 1e-12)
            for name, share in owners(caller, visiting | {func}).items():
                shares[name] += weight * share
            weight_sum += weight
        if weight_sum <= 0.0:
            return {"other": 1.0}   # a root, or only reachable recursively
        result = {name: value / weight_sum
                  for name, value in shares.items()}
        if cycles_cut[0] == cut_before:
            memo[func] = result     # a cut cycle makes the answer partial
        return result

    table: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for func, (_, _, self_s, _, callers) in raw.items():
        layer = layer_of(func[0])
        if layer is not None:
            table[layer] += self_s
            continue
        charged = 0.0
        for caller, (_, _, edge_self, _) in callers.items():
            for name, share in owners(caller, frozenset()).items():
                table[name] += edge_self * share
            charged += edge_self
        table["other"] += self_s - charged
    return table
