"""The contract between the graph executor and transfer mechanisms.

The executor knows nothing about gRPC or RDMA; when it reaches a
``_Send``/``_Recv`` node it delegates to the session's
:class:`CommRuntime`.  Implementations live in :mod:`repro.core`
(the paper's RDMA mechanisms) and :mod:`repro.distributed.rpc_comm`
(the gRPC baselines).

An op execution returns an :class:`Outcome`:

* ``sync``  — finished; outputs available now;
* ``async`` — an event will fire with the outputs (gRPC replies,
  a dynamic receive's payload READ);
* ``poll``  — the *polling-async* mode of §4: the executor visits the
  op from its ready queue, re-enqueuing it at the tail on misses, and
  calls ``complete()`` once the poll succeeds (``Outcome.polling``
  states what ``poll()`` may do).

A send may instead return a generator: the executor runs it as the
send's own process, detached from its ready queue, and the value the
generator returns is the send's outputs (the RDMA senders, which post
their verbs and wait for the last one inside it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Generator, List, Optional, Tuple, Union,
                    TYPE_CHECKING)

from ..simnet.memory import Backing
from ..simnet.simulator import Event
from .tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover
    from .executor import Executor
    from .node import Node


@dataclass
class Outcome:
    """Result of dispatching one operator execution."""

    kind: str                                  # "sync" | "async" | "poll"
    outputs: Optional[List[Tensor]] = None     # sync
    event: Optional[Event] = None              # async: fires with outputs
    poll: Optional[Callable[[], bool]] = None  # poll phase predicate
    complete: Optional[Callable[[], "Outcome"]] = None  # after poll success
    flag: Optional[Tuple[Backing, int]] = None  # poll: the byte it reads

    @classmethod
    def done(cls, outputs: List[Tensor]) -> "Outcome":
        return cls(kind="sync", outputs=outputs)

    @classmethod
    def wait(cls, event: Event) -> "Outcome":
        return cls(kind="async", event=event)

    @classmethod
    def polling(cls, poll: Callable[[], bool],
                complete: Callable[[], "Outcome"],
                flag: Tuple[Backing, int]) -> "Outcome":
        """The polling-async mode, under one contract.

        ``poll`` is a pure read: it changes nothing, and its answer may
        turn into a hit only inside a handler that then calls the
        receiving host's :meth:`~repro.simnet.topology.Host.notify_memory_commit`
        (the NIC's final-chunk commit, a local memcpy, the in-network
        flag write).  The executor relies on it: between two commits it
        replays a run of misses as arithmetic instead of calling
        ``poll`` once per visit, and a visit it planned as a hit that
        reads as a miss fails the iteration with ``ExecutorError``.

        ``flag`` names the byte ``poll`` reads as ``(backing, offset)``;
        a commit whose range misses it is not re-read.  Once the idle
        backoff is at its cap, each park that times out re-reads one
        queued flag, in turn: one that moved with no commit to announce
        it fails the iteration with ``ExecutorError`` naming the poller.
        """
        return cls(kind="poll", poll=poll, complete=complete, flag=flag)


class CommRuntime:
    """Per-session transfer mechanism; one instance serves all executors."""

    #: mechanism label used in reports ("gRPC.TCP", "RDMA", ...)
    name: str = "none"

    def prepare(self, session) -> None:
        """One-time setup after partitioning, before iteration 0.

        RDMA mechanisms run the graph analyzer here: size and register
        arenas, preallocate receiver tensors / metadata slots, and
        distribute remote addresses (§3.4).
        """

    def on_iteration_start(self, session, iteration: int) -> None:
        """Hook at the start of every training iteration."""

    def execute_send(self, executor: "Executor", node: "Node",
                     tensor: Tensor) -> Union[Outcome, Generator]:
        """Start sending ``tensor`` along ``node``'s edge.

        Returns an :class:`Outcome`, or a generator the executor spawns
        as the send's process: it returns the send's outputs, normally
        none, once the transfer is done.
        """
        raise NotImplementedError

    def execute_recv(self, executor: "Executor", node: "Node") -> Outcome:
        raise NotImplementedError

    def execute_innetwork(self, executor: "Executor", node: "Node",
                          tensor: Tensor) -> Outcome:
        """Run one worker's half of a switch-aggregated allreduce.

        Only comm runtimes that drive an RDMA-capable fat-tree fabric
        implement this; graphs containing ``InNetworkReduce`` nodes
        cannot run on other mechanisms.
        """
        raise NotImplementedError(
            f"{self.name}: in-network reduction is not supported by this "
            f"comm runtime")


class NullComm(CommRuntime):
    """For single-device graphs with no cross-device edges."""

    name = "local"

    def execute_send(self, executor, node, tensor):  # pragma: no cover
        raise RuntimeError("NullComm cannot transfer tensors")

    def execute_recv(self, executor, node):  # pragma: no cover
        raise RuntimeError("NullComm cannot transfer tensors")
