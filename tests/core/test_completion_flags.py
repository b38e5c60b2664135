"""Every completion flag carries an epoch, with the fault plane off too.

A receiver polls for the *next* epoch of its slot, never for "non-zero",
so a stale duplicate of the flag it just consumed cannot complete a
second receive, and a slot keeps working across the 255 -> 1 wrap.
"""

import numpy as np
import pytest

from repro.core import RdmaCommRuntime
from repro.core.transfer import DynamicReceiver, StaticReceiver
from repro.distributed import run_training_benchmark
from repro.graph import GraphBuilder, Session
from repro.graph.transfer_api import Outcome
from repro.models import get_model
from repro.simnet import Cluster


def _record_consumed(monkeypatch):
    """Record, per flag slot, the poller the executor was handed and the
    byte the slot held when that poller's receive was completed."""
    consumed = {}
    polling = Outcome.polling.__func__

    def recording(cls, poll, complete, flag):
        def consume():
            backing, offset = flag
            consumed[(id(backing), offset)] = (
                poll, backing, offset, backing.read_byte(offset))
            return complete()
        return polling(cls, poll, consume, flag)

    monkeypatch.setattr(Outcome, "polling", classmethod(recording))
    return consumed


@pytest.mark.parametrize("force_dynamic,kind", [
    (False, StaticReceiver), (True, DynamicReceiver)],
    ids=["static", "dynamic"])
def test_stale_duplicate_flag_is_not_a_new_transfer(monkeypatch,
                                                    force_dynamic, kind):
    consumed = _record_consumed(monkeypatch)
    comm = RdmaCommRuntime(force_dynamic=force_dynamic)
    run_training_benchmark(get_model("FCN-5"), "RDMA", num_servers=2,
                           batch_size=8, iterations=3, comm=comm)
    assert comm.recovery is None           # the fault-free path
    receivers = list(comm.receivers.values())
    assert receivers and all(isinstance(r, kind) for r in receivers)
    assert len(consumed) >= len(receivers)
    for poll, backing, offset, epoch in consumed.values():
        assert epoch != 0 and backing.read_byte(offset) == 0
        # The duplicate of the flag just consumed lands again.
        backing.write(offset, bytes([epoch]))
        assert poll() is False


def _one_edge_session(comm):
    cluster = Cluster(2)
    b = GraphBuilder()
    w = b.variable([4, 4], name="w", device="ps0",
                   initializer=np.arange(16, dtype=np.float32).reshape(4, 4))
    b.identity(w, name="out", device="worker0")
    return Session(cluster, b.finalize(),
                   {"ps0": cluster.hosts[0], "worker0": cluster.hosts[1]},
                   comm=comm)


@pytest.mark.parametrize("force_dynamic,kind", [
    (False, StaticReceiver), (True, DynamicReceiver)],
    ids=["static", "dynamic"])
def test_an_edge_outlives_the_epoch_wrap(force_dynamic, kind):
    comm = RdmaCommRuntime(force_dynamic=force_dynamic)
    session = _one_edge_session(comm)
    session.run(iterations=260)
    assert comm.recovery is None
    (receiver,) = comm.receivers.values()
    assert isinstance(receiver, kind)
    assert receiver.receives == 260
    # 255 epochs, then 1..5 again: the 261st flag would carry 6.
    assert receiver.flag.lane.next == 6
    (sender,) = comm.senders.values()
    assert sender.lane.next == 6
