"""Elided poll-miss runs against the two-callback chain they replace.

The executor plans a polling phase instead of running it: it pushes one
poll-chain entry at the first visit step that needs its generator and
replays the misses before it in bulk when a commit or a completion
could change what follows.  ``TwoCallbackExecutor`` keeps the chain as
it was before that — every visit a ``check`` and a ``requeue`` heap
entry under the same (time, executor index) keys — as the reference
model.  Both run the same inputs, and everything a run shows must
agree: the iteration clocks (exact reprs), each executor's
``poll_misses``, the order and start time of every op, the error a
failing run raises and, traced, the stall accounting's float sums.
"""

from types import SimpleNamespace
from typing import Dict, List

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.graph.session as session_module
from repro.core import RdmaCommRuntime
from repro.distributed import run_training_benchmark
from repro.graph.dtypes import DType
from repro.graph.executor import (_IDLE_BACKOFF_MAX, Executor, ExecutorError,
                                  _ReadyQueue)
from repro.graph.node import Graph, Node
from repro.graph.shapes import Shape
from repro.graph.tensor import Tensor
from repro.graph.transfer_api import CommRuntime, Outcome
from repro.harness.experiments import _scale_spec
from repro.models import MB, get_model
from repro.observability.tracer import executor_track
from repro.simnet import Cluster, SimulationError
from repro.simnet.simulator import SUSPEND


class TwoCallbackExecutor(Executor):
    """The polling phase as two heap callbacks per visit (reference)."""

    def run_iteration(self, feeds=None):
        self.iteration += 1
        self.values = {}
        for allocator, tensor in self._transient:
            allocator.free_tensor(tensor)
        self._transient = []
        feeds = feeds or {}
        deps = self.graph.dependency_map()
        pending = {name: len(d) for name, d in deps.items()}
        dependents: Dict[str, List[str]] = {name: [] for name in pending}
        for name, dep_names in deps.items():
            for dep in dep_names:
                dependents[dep].append(name)
        ready = _ReadyQueue((node for node in self._order
                             if pending[node.name] == 0),
                            priority=self.priority_sched)
        in_flight = completed = 0
        total = len(self._order)
        polling: Dict[str, Outcome] = {}
        idle_backoff = self.cost.idle_poll_interval
        sweep_misses = polls_since_park = 0
        tracer = self.host.cluster.tracer
        track = executor_track(self.device)
        hostname, iteration = self.host.name, self.iteration
        sim, index = self.sim, self.index
        sched_dispatch = self.cost.sched_dispatch
        poll_check = self.cost.poll_check
        poll_requeue = self.cost.poll_requeue
        fresh_in_queue = len(ready)
        me = sim.active_process
        fifo = ready._fifo

        def finish(node: Node, outputs: List[Tensor]) -> None:
            nonlocal completed, fresh_in_queue
            for i, tensor in enumerate(outputs):
                self.values[(node.name, i)] = tensor
            completed += 1
            for dependent in dependents[node.name]:
                pending[dependent] -= 1
                if pending[dependent] == 0:
                    ready.append(self.graph.node(dependent))
                    fresh_in_queue += 1
            self._wake_up()

        def check() -> None:
            nonlocal t0, polls_since_park
            if tracer is not None:
                t1 = t0 + sched_dispatch
                tracer.account(hostname, track, iteration, "sched",
                               t0, t1, emit=False)
                tracer.account(hostname, track, iteration, "poll",
                               t1, t2, emit=False)
                polls_since_park += 1
            try:
                hit = outcome.poll()
            except Exception as exc:  # noqa: BLE001 - fails the iteration
                me.resume(exception=exc)
                return
            if hit:
                me.resume()
                return
            self._poll_misses += 1
            t0 = t2 + poll_requeue
            sim.call_poll(t0, index, requeue)

        def requeue() -> None:
            nonlocal node, outcome, t2, sweep_misses
            if tracer is not None:
                tracer.account(hostname, track, iteration, "poll",
                               t2, t0, emit=False)
            fifo.append(node)
            sweep_misses += 1
            if fresh_in_queue == 0 and sweep_misses >= len(fifo):
                me.resume(True)
                return
            node = ready.popleft()
            outcome = polling.get(node.name)
            if outcome is None:
                me.resume()
            else:
                t2 = t0 + sched_dispatch + poll_check
                sim.call_poll(t2, index, check)

        while completed < total:
            if not ready:
                if in_flight == 0:
                    raise ExecutorError(
                        f"executor {self.device} stalled at "
                        f"{completed}/{total} nodes")
                t0 = sim.now
                yield self._wait_for_wake()
                if tracer is not None:
                    tracer.account(hostname, track, iteration, "wire_wait",
                                   t0, sim.now)
                continue
            node = ready.popleft()
            t0 = sim.now
            outcome = polling.get(node.name)
            if outcome is not None:
                t2 = t0 + sched_dispatch + poll_check
                sim.call_poll(t2, index, check)
                if (yield SUSPEND):
                    t0 = sim.now
                    yield sim.any_of([self._wait_for_wake(),
                                      sim.timeout(idle_backoff)])
                    if tracer is not None:
                        tracer.account(hostname, track, iteration,
                                       "poll_wait", t0, sim.now)
                        tracer.metrics.histogram(
                            "poll_iterations_per_wake").observe(
                                polls_since_park)
                        polls_since_park = 0
                    idle_backoff = min(idle_backoff * 2, _IDLE_BACKOFF_MAX)
                    sweep_misses = 0
                    continue
            if outcome is not None:
                idle_backoff = self.cost.idle_poll_interval
                sweep_misses = 0
                del polling[node.name]
                in_flight -= 1
                next_outcome = outcome.complete()
            else:
                yield sched_dispatch
                if tracer is not None:
                    tracer.account(hostname, track, iteration, "sched",
                                   t0, sim.now, emit=False)
                fresh_in_queue -= 1
                t0 = sim.now
                next_outcome = yield from self._execute(node, feeds)
                if tracer is not None:
                    tracer.account(hostname, track, iteration, "op",
                                   t0, sim.now,
                                   name=f"{node.op_type}:{node.name}")
            if next_outcome.kind == "sync":
                self.ops_executed += 1
                finish(node, next_outcome.outputs or [])
            elif next_outcome.kind == "async":
                in_flight += 1

                def on_done(event, node=node) -> None:
                    nonlocal in_flight
                    in_flight -= 1
                    self.ops_executed += 1
                    finish(node, event.value or [])
                next_outcome.event.add_callback(on_done)
            else:
                polling[node.name] = next_outcome
                in_flight += 1
                ready.append(node, retry=True)


def _recorder(base, log: list, made: list):
    """``base`` logging every op it runs, and every instance it makes."""
    class Recorded(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        def _execute(self, node, feeds):
            log.append((self.device, node.name, repr(self.sim.now)))
            return (yield from super()._execute(node, feeds))
    return Recorded


# -- the golden cells ---------------------------------------------------------------

def _gru(num_servers, strategy, **extra):
    return lambda: run_training_benchmark(
        get_model("GRU"), "RDMA", num_servers=num_servers, batch_size=8,
        iterations=2, strategy=strategy, **extra)


def _hier16(variable_mb=24.0, **extra):
    return lambda: run_training_benchmark(
        _scale_spec(variable_mb, num_variables=1), "RDMA", num_servers=16,
        batch_size=1, iterations=2, strategy="hierarchical",
        topology="fat-tree", hosts_per_rack=8, oversubscription=4.0,
        fusion_bytes=64 * MB, **extra)


CELLS = {
    "gru-ps": _gru(2, "ps"),
    "gru-ring": _gru(4, "ring"),
    "gru-halving-doubling": _gru(4, "halving-doubling"),
    "gru-ring-priority": _gru(3, "ring", priority_sched=True),
    "gru-ps-shared-qp": _gru(2, "ps", qp_mode="shared"),
    "hier16-synth24": _hier16(),
    # the smallest size-only variable: retransmits cost host time
    "hier16-loss": _hier16(17.0, loss_rate=1e-3, fault_seed=3),
    "innetwork8": lambda: run_training_benchmark(
        get_model("FCN-5"), "RDMA", num_servers=8, batch_size=8,
        iterations=2, strategy="innetwork", topology="fat-tree",
        hosts_per_rack=4),
    "lstm-rdmadyn": lambda: run_training_benchmark(
        get_model("LSTM"), "RDMA", num_servers=8, batch_size=32,
        iterations=2, comm=RdmaCommRuntime(force_dynamic=True)),
}


def _observe(monkeypatch, base, run):
    log, made = [], []
    monkeypatch.setattr(session_module, "Executor",
                        _recorder(base, log, made))
    bench = run()
    assert not bench.crashed, bench.crash_reason
    return ([repr(t) for t in bench.stats.iteration_times],
            [executor.poll_misses for executor in made], log)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_golden_cell_matches_the_two_callback_chain(monkeypatch, cell):
    elided = _observe(monkeypatch, Executor, CELLS[cell])
    reference = _observe(monkeypatch, TwoCallbackExecutor, CELLS[cell])
    assert elided == reference
    assert sum(elided[1]) > 0  # the cell polls


# -- scripted pollers -----------------------------------------------------------------

#: instants on a 2.5 us grid, so commits, arrivals and visits collide
instants = st.integers(0, 400).map(lambda k: k * 2.5e-6)


@st.composite
def scenarios(draw):
    executors = []
    for e in range(2):
        pollers = [SimpleNamespace(
            land=draw(instants),
            followers=draw(st.integers(0, 2)),
            # on completion, land poller (executor, index) at once
            pokes=draw(st.none() | st.tuples(st.integers(0, 1),
                                               st.integers(0, 3))))
            for _ in range(draw(st.integers(1, 4)))]
        asyncs = [SimpleNamespace(
            arrive=draw(instants),
            dependents=draw(st.lists(
                st.tuples(st.sampled_from(["compute", "send"]),
                          st.integers(0, 2)), max_size=3)))
            for _ in range(draw(st.integers(0, 3)))]
        #: commits beside the flags: (time, whether they name a range)
        noise = draw(st.lists(st.tuples(instants, st.booleans()),
                              max_size=3))
        executors.append(SimpleNamespace(pollers=pollers, asyncs=asyncs,
                                         noise=noise))
    raising = draw(st.none() | st.tuples(st.integers(0, 1), instants))
    return SimpleNamespace(executors=executors, raising=raising,
                           priority_sched=draw(st.booleans()),
                           traced=draw(st.booleans()))


def _graph(e: int, spec) -> Graph:
    graph = Graph(f"d{e}")

    def compute(name, source, micros):
        node = graph.add_node(name, "SyntheticCompute", [source.output(0)],
                              {"time": micros * 1e-6})
        node.output_dtypes, node.output_shapes = [DType.float32], [Shape([1])]

    for j, poller in enumerate(spec.pollers):
        recv = graph.add_node(f"p{j}", "_Recv", attrs={"key": (e, "p", j)})
        for k in range(poller.followers):
            compute(f"p{j}c{k}", recv, 1 + k)
    for j, arrival in enumerate(spec.asyncs):
        recv = graph.add_node(f"a{j}", "_Recv", attrs={"key": (e, "a", j)})
        for k, (kind, x) in enumerate(arrival.dependents):
            if kind == "compute":
                compute(f"a{j}c{k}", recv, x + 1)
            else:
                graph.add_node(f"a{j}s{k}", "_Send", [recv.output(0)],
                               {"key": (e, "s", j, k), "priority": x})
    return graph


class ScriptComm(CommRuntime):
    """Pollers read a flag byte their commit lands; async recvs arrive
    on schedule; sends complete at once.  One flag may go unmapped."""

    name = "script"

    def __init__(self, cluster, scenario) -> None:
        self.sim, self.scenario = cluster.sim, scenario
        self.flags = {}
        self.unmapped = set()
        for e, spec in enumerate(scenario.executors):
            host = cluster.hosts[e]
            for j, poller in enumerate(spec.pollers):
                backing = host.allocate(8).backing
                self.flags[(e, j)] = (host, backing)
                self.sim.call_at(poller.land,
                                 lambda e=e, j=j: self.land(e, j))
            for when, ranged in spec.noise:
                self.sim.call_at(when, lambda e=e, ranged=ranged:
                                 self.noise(e, ranged))
        if scenario.raising is not None:
            e, when = scenario.raising
            self.sim.call_at(when, lambda: self.unmap(e))

    def land(self, e: int, j: int) -> None:
        if (e, j) in self.flags:
            host, backing = self.flags[(e, j)]
            backing.write(0, b"\x01")
            host.notify_memory_commit(backing, 0, 1)

    def noise(self, e: int, ranged: bool) -> None:
        host, backing = self.flags[(e, 0)]
        backing.write(4, b"\x07")
        if ranged:
            host.notify_memory_commit(backing, 4, 5)
        else:
            host.notify_memory_commit()

    def unmap(self, e: int) -> None:
        host, backing = self.flags[(e, 0)]
        self.unmapped.add((e, 0))
        host.notify_memory_commit(backing, 0, 1)

    def execute_send(self, executor, node, tensor):
        return Outcome.done([])

    def execute_recv(self, executor, node):
        e, kind, j = node.attrs["key"]
        tensor = executor.allocate_output(node, 0, DType.float32, Shape([1]))
        if kind == "a":
            arrived = self.sim.event()
            self.sim.call_at(
                max(self.sim.now, self.scenario.executors[e].asyncs[j].arrive),
                lambda: arrived.succeed([tensor]))
            return Outcome.wait(arrived)
        poller = self.scenario.executors[e].pollers[j]
        _, backing = self.flags[(e, j)]

        def poll() -> bool:
            if (e, j) in self.unmapped:
                raise KeyError(f"flag {e}/{j} unmapped")
            return backing.read_byte(0) == 1

        def complete() -> Outcome:
            backing.write(0, b"\x00")
            if poller.pokes is not None:
                self.sim.call_at(self.sim.now,
                                 lambda: self.land(*poller.pokes))
            return Outcome.done([tensor])
        return Outcome.polling(poll=poll, complete=complete,
                               flag=(backing, 0))


def _play(base, scenario):
    cluster = Cluster(2)
    if scenario.traced:
        cluster.enable_tracing()
    comm = ScriptComm(cluster, scenario)
    log = []
    make = _recorder(base, log, [])
    executors = [make(cluster.hosts[e], _graph(e, spec), f"d{e}", comm,
                      priority_sched=scenario.priority_sched)
                 for e, spec in enumerate(scenario.executors)]
    sim = cluster.sim
    barrier = sim.all_of([sim.spawn(executor.run_iteration())
                          for executor in executors])
    try:
        sim.run_until_complete(barrier, limit=0.5)
        failure = None
    except (KeyError, ExecutorError, SimulationError) as exc:
        failure = repr(exc)
    tracer = cluster.tracer
    return (failure, repr(sim.now),
            [executor.poll_misses for executor in executors], log,
            None if tracer is None else (repr(tracer.breakdowns),
                                         tracer.metrics.to_dict()))


def _poller(land, pokes=None):
    return SimpleNamespace(land=land, followers=0, pokes=pokes)


def _scenario(*executors, priority_sched=False):
    return SimpleNamespace(
        executors=[SimpleNamespace(pollers=pollers, asyncs=asyncs, noise=[])
                   for pollers, asyncs in executors],
        raising=None, priority_sched=priority_sched, traced=False)


#: Two lock-step executors check at the same instant; executor 1 hits
#: and its completion lands executor 0's flag at once — in an ordinary
#: entry at that instant, after executor 0's (missed) check has run.
LOCK_STEP_POKE = _scenario(([_poller(1e-3)], []),
                           ([_poller(0.0, pokes=(0, 0))], []))
#: An async recv arrives between two pollers' visits and makes an
#: urgent send ready: the next requeue pops it ahead of the pollers.
URGENT_MID_SWEEP = _scenario(
    ([_poller(1e-3), _poller(1e-3)],
     [SimpleNamespace(arrive=2.5e-6, dependents=[("send", 2)])]),
    ([_poller(0.0)], []), priority_sched=True)


@settings(max_examples=60, deadline=None)
@given(scenarios())
@example(LOCK_STEP_POKE)
@example(URGENT_MID_SWEEP)
def test_scripted_pollers_match_the_two_callback_chain(scenario):
    assert _play(Executor, scenario) == _play(TwoCallbackExecutor, scenario)
