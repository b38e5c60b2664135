"""Which ``src/repro`` functions does no production run enter?

Usage (from anywhere; stdlib only, about ten minutes on two cores)::

    python tools/reach.py [--logs DIR]

Runs every production entry point -- the registry's smoke grids through
the CLI, the CI's flagged lines and its usage-error line, a fully
captured ``stallreport``, the examples, the regress gate and
``perfbench all --quick`` with its children -- with ``PYTHONPATH``
prefixed by a directory holding a ``sitecustomize.py``.  That hook
installs a ``sys.settrace`` function that records the code object of
every call and returns ``None`` (no line events), and writes the
``src/repro`` ones as (file, qualname, first line) when the interpreter
exits.  The logs are joined with an ``ast`` walk of ``src/repro``.

A function no run enters must carry a verdict in :data:`VERDICTS`,
the reason it stays.  The tool prints every unreached function without
one, and every verdict that names a function which is reached or gone,
and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

#: The keep rules.  A function no production run enters stays only if
#: it is one of these.
RULES = {
    "a": "safety code: fault or error handling a call can return",
    "b": "reference model that tests compare against",
    "c": "tool other tests use to assert on something else",
    "d": "used by benchmarks/",
    "e": "interface declaration, registered op or gradient implementation, "
         "__repr__ or other data-model method, or the release half of an "
         "acquire production makes",
}

#: rule -> every function no production run enters that stays under it,
#: as ``"<path under src/repro>:<qualname>"``
KEPT: Dict[str, Tuple[str, ...]] = {
    "a": (
        "core/device.py:RdmaChannel.reconnect",
        "core/device.py:RdmaChannel.fallback_transfer",
        "core/device.py:SharedChannel.broken",
        "core/device.py:SharedChannel.reconnect",
        # the host-tree fallback when a switch fails mid-allreduce
        "core/innetwork.py:InNetworkGroup._tree_send_to_leader",
        "core/innetwork.py:InNetworkGroup._tree_rack_arrival",
        "core/innetwork.py:InNetworkGroup._tree_root_arrival",
        "core/innetwork.py:InNetworkGroup._tree_root_arrival.<locals>.fan_out",
        "core/innetwork.py:InNetworkGroup._tree_land",
        "core/innetwork.py:InNetworkGroup._tree_land.<locals>.land",
        "core/innetwork.py:InNetworkGroup._tree_transfer",
        "core/innetwork.py:InNetworkGroup._tree_transfer.<locals>.sent",
        "core/innetwork.py:InNetworkGroup._host_combine_time",
        "core/recovery.py:RecoveryManager._fallback",
        "graph/allocator.py:ArenaAllocator.check_invariants",
        "graph/shapes.py:Shape.__setattr__",
        "models/zoo.py:model_names",
        "rpc/core.py:check_reply",
        "serving/benchmark.py:_killer",
        "serving/kvcache.py:KVCache.evict",
        "serving/llm.py:LLMReplica._shed",
        "serving/replica.py:Replica.fail",
        "simnet/nic.py:QueuePair._deliver_send.<locals>.fail",
        "simnet/nic.py:SharedQp.connect",
        "simnet/nic.py:RdmaNic._fail",
        "simnet/simulator.py:Store.fail_all",
    ),
    "b": (
        "collectives/hierarchical.py:rack_uplink_bytes",
        "collectives/innetwork.py:innetwork_uplink_bytes",
        "distributed/replication.py:TrainingJob.bytes_per_worker_per_step",
        "rpc/serialization.py:Message.wire_size",
        "rpc/serialization.py:encode",
        "rpc/serialization.py:decode",
        "simnet/costmodel.py:CostModel.rdma_read_time",
    ),
    "c": (
        "collectives/bucketing.py:GradientBucket.num_elements",
        "collectives/bucketing.py:GradientBucket.num_variables",
        "core/address_book.py:AddressBook.local_lookup",
        "graph/allocator.py:ArenaAllocator.capacity",
        "graph/allocator.py:ArenaAllocator.free_bytes",
        "graph/builder.py:GraphBuilder.add",
        "graph/builder.py:GraphBuilder.relu",
        "graph/builder.py:GraphBuilder.square",
        "graph/builder.py:GraphBuilder.reduce_sum",
        "graph/builder.py:GraphBuilder.reduce_mean",
        "graph/builder.py:GraphBuilder.reshape",
        "graph/executor.py:Executor.poll_misses",
        "graph/node.py:Graph.__contains__",
        "graph/session.py:Session.variable",
        "graph/tensor.py:Tensor.is_materialized",
        "models/convergence.py:TrainResult.first_step_reaching",
        "observability/chrome_trace.py:chrome_trace_events",
        "observability/timeseries.py:QuantileSketch.percentile",
        "observability/tracer.py:Tracer.spans_by_category",
        "rpc/framing.py:AssembledMessage.control",
        "rpc/framing.py:AssembledMessage.total_size",
        "rpc/framing.py:Reassembler.partial_count",
        "rpc/ring_buffer.py:RingBuffer.fits",
        "rpc/serialization.py:Message.payload_bytes",
        "rpc/transport_rdma.py:GrpcRdmaServer.endpoints",
        "serving/llm.py:LLMRequest.terminal",
        "simnet/fabric.py:Fabric.path_latency",
        "simnet/memory.py:AddressSpace.read",
        "simnet/memory.py:MemoryRegion.size",
        "simnet/nic.py:Pipe.available_at",
        "simnet/nic.py:RdmaNic.register_delay",
        "simnet/simulator.py:Event.ok",
        "simnet/tcp.py:Socket.close",
    ),
    "d": (
        "distributed/placement.py:greedy_placement",
        "distributed/placement.py:placement_balance",
        "graph/session.py:Session.executor_for",
        "harness/series.py:ExperimentResult.find",
        "harness/series.py:ExperimentResult.cell",
        "simnet/costmodel.py:CostModel.scaled",
    ),
    "e": (
        "collectives/ops.py:_concat_compute",
        "collectives/ops.py:_pack_compute",
        "collectives/ops.py:_slice_compute",
        "collectives/ops.py:_unpack_compute",
        "core/device.py:RdmaDevice.free_mem_region",
        "graph/allocator.py:BaseAllocator.remove_observer",
        "graph/allocator.py:BaseAllocator.allocate_tensor",
        "graph/allocator.py:BaseAllocator.free_tensor",
        "graph/autodiff.py:_grad_add",
        "graph/autodiff.py:_grad_sub",
        "graph/autodiff.py:_grad_mul",
        "graph/autodiff.py:_reduce_to_shape",
        "graph/autodiff.py:_grad_tanh",
        "graph/autodiff.py:_grad_relu",
        "graph/autodiff.py:_grad_square",
        "graph/autodiff.py:_grad_identity",
        "graph/autodiff.py:_grad_reshape",
        "graph/autodiff.py:_grad_transpose",
        "graph/autodiff.py:_grad_reduce_sum",
        "graph/autodiff.py:_grad_reduce_mean",
        "graph/autodiff.py:_broadcast_back",
        "graph/dtypes.py:DType.__repr__",
        "graph/executor.py:_ReadyQueue.__iter__",
        "graph/node.py:NodeOutput.__repr__",
        "graph/node.py:Node.__repr__",
        "graph/ops.py:_infer_reshape",
        "graph/ops.py:_infer_noop",
        "graph/ops.py:_infer_send",
        "graph/ops.py:_infer_recv",
        "graph/shapes.py:Shape.__iter__",
        "graph/shapes.py:Shape.__len__",
        "graph/shapes.py:Shape.__eq__",
        "graph/shapes.py:Shape.__hash__",
        "graph/shapes.py:Shape.__repr__",
        "graph/tensor.py:Tensor.__repr__",
        "graph/transfer_api.py:CommRuntime.execute_send",
        "graph/transfer_api.py:CommRuntime.execute_recv",
        "graph/transfer_api.py:CommRuntime.execute_innetwork",
        "graph/transfer_api.py:NullComm.execute_send",
        "graph/transfer_api.py:NullComm.execute_recv",
        "observability/registry.py:Counter.__repr__",
        "observability/registry.py:Gauge.__repr__",
        "observability/registry.py:Histogram.__repr__",
        "observability/timeseries.py:QuantileSketch.__repr__",
        "observability/timeseries.py:RingSeries.__repr__",
        "rpc/core.py:WireLink.send",
        "rpc/core.py:WireLink.recv",
        "rpc/serialization.py:Payload.__eq__",
        "rpc/serialization.py:Payload.__repr__",
        "rpc/serialization.py:Message.__contains__",
        "rpc/serialization.py:Message.__eq__",
        "rpc/serialization.py:Message.__repr__",
        "serving/kvcache.py:KVTracker.__repr__",
        "simnet/fabric.py:FabricLink.__repr__",
        "simnet/fabric.py:Fabric.__repr__",
        "simnet/memory.py:MrTable.__len__",
        "simnet/memory.py:MrTable.deregister",
        "simnet/nic.py:RdmaNic.deregister_memory",
        "simnet/simulator.py:Store.__len__",
        "simnet/topology.py:Host.__repr__",
        "simnet/topology.py:Cluster.__len__",
        "simnet/topology.py:Cluster.__iter__",
    ),
}

#: ``"<path under src/repro>:<qualname>": rule`` for every function no
#: production run enters that stays.
VERDICTS: Dict[str, str] = {key: rule for rule, keys in KEPT.items()
                            for key in keys}

HOOK = '''\
import atexit, os, sys, threading

_seen = set()


def _call(frame, event, arg):
    _seen.add(frame.f_code)


def _dump():
    sys.settrace(None)
    src = os.environ["REACH_SRC"]
    rows = {(os.path.realpath(c.co_filename), c.co_qualname, c.co_firstlineno)
            for c in list(_seen)}
    with open(os.path.join(os.environ["REACH_LOGS"],
                           "reach-%d.tsv" % os.getpid()), "w") as fh:
        for path, qualname, line in sorted(rows):
            if path.startswith(src):
                fh.write("%s\\t%s\\t%d\\n" % (path, qualname, line))


atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''


def production(out: str) -> List[Tuple[List[str], int]]:
    """Every production entry point as (argv, expected exit status)."""
    py = sys.executable
    harness = [py, "-m", "repro.harness"]
    runs = [
        # the 19 registry entries at their smoke grids
        (harness + ["--bench-dir", out], 0),
        # the CI's flagged lines and its usage-error line
        (harness + ["allreduce", "--qp-mode", "shared", "--num-cqs", "2",
                    "--qps-per-peer", "2", "--fusion-mb", "4"], 0),
        (harness + ["serving", "--replicas", "3", "--max-batch", "4"], 0),
        (harness + ["llmtrain", "--pipeline-stages", "2", "--microbatches",
                    "2", "--schedule", "gpipe"], 0),
        (harness + ["--num-cqs", "0", "table2"], 2),
        # every capture sink and budget
        (harness + ["stallreport",
                    "--trace-out", os.path.join(out, "s.trace.json"),
                    "--metrics-json", os.path.join(out, "s.metrics.json"),
                    "--telemetry-out", os.path.join(out, "s.telemetry.json"),
                    "--trace-sample", "0.5", "--trace-hosts", "2",
                    "--trace-event-cap", "100000"], 0),
        # the regress gate, with the report the CI uploads
        ([py, "-m", "repro.harness.regress",
          "--json", os.path.join(out, "regress.json")], 0),
        ([py, "-m", "perfbench", "all", "--quick",
          "--out", os.path.join(out, "perfbench.json")], 0),
    ]
    examples = os.path.join(ROOT, "examples")
    runs += [([py, os.path.join(examples, name)], 0)
             for name in sorted(os.listdir(examples)) if name.endswith(".py")]
    return runs


def trace(logs: str) -> Set[Tuple[str, str, int]]:
    """Run the production set under the hook; return what it entered."""
    hook_dir = os.path.join(logs, "hook")
    os.makedirs(hook_dir, exist_ok=True)
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as fh:
        fh.write(HOOK)
    env = dict(os.environ, REACH_SRC=SRC, REACH_LOGS=logs,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   hook_dir, os.path.join(ROOT, "src"),
                   os.environ.get("PYTHONPATH")])))
    for index, (argv, expected) in enumerate(production(logs)):
        label = " ".join(os.path.basename(a) for a in argv[1:])
        print(f"[reach] {label}", file=sys.stderr, flush=True)
        with open(os.path.join(logs, f"run-{index}.out"), "w") as out:
            status = subprocess.run(argv, cwd=ROOT, env=env, stdout=out,
                                    stderr=subprocess.STDOUT).returncode
        if status != expected:
            raise SystemExit(f"reach: `{label}` exited {status}, expected "
                             f"{expected} (log: {out.name})")
    entered = set()
    for name in os.listdir(logs):
        if name.startswith("reach-"):
            with open(os.path.join(logs, name)) as fh:
                for row in fh:
                    path, qualname, line = row.rstrip("\n").split("\t")
                    entered.add((os.path.relpath(path, SRC), qualname,
                                 int(line)))
    return entered


def functions() -> Iterator[Tuple[str, str, int, int]]:
    """Every ``def`` under ``src/repro`` as (path, qualname, first line,
    line count); the first line is the first decorator's, as in
    ``co_firstlineno``."""
    for folder, _, names in sorted(os.walk(SRC)):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            yield from _walk(tree, os.path.relpath(path, SRC), "")


def _walk(node: ast.AST, path: str, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _walk(child, path, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in child.decorator_list]
                        + [child.lineno])
            yield (path, prefix + child.name, first,
                   child.end_lineno - first + 1)
            yield from _walk(child, path, f"{prefix}{child.name}.<locals>.")
        else:
            yield from _walk(child, path, prefix)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/reach.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--logs", metavar="DIR",
                        help="keep the raw logs and run output here")
    args = parser.parse_args(argv)
    if args.logs:
        os.makedirs(args.logs, exist_ok=True)
        entered = trace(os.path.abspath(args.logs))
    else:
        with tempfile.TemporaryDirectory() as logs:
            entered = trace(logs)
    every = list(functions())
    unreached = [(path, qualname, lines)
                 for path, qualname, first, lines in every
                 if (path, qualname, first) not in entered]
    keys = {f"{path}:{qualname}" for path, qualname, _ in unreached}
    missing = [row for row in unreached
               if f"{row[0]}:{row[1]}" not in VERDICTS]
    stale = sorted(set(VERDICTS) - keys)
    print(f"production enters {len(every) - len(unreached)} of {len(every)} "
          f"functions; {len(unreached)} unreached "
          f"({sum(r[2] for r in unreached)} lines), "
          f"{len(unreached) - len(missing)} with a verdict")
    for rule, text in RULES.items():
        print(f"  {rule:>5}: {len(KEPT[rule]):3d}  {text}")
    for path, qualname, lines in missing:
        print(f"no verdict: {path}:{qualname} ({lines} lines)")
    for key in stale:
        print(f"stale verdict (reached or gone): {key}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
