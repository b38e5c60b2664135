"""One recorded run of every results-owning experiment, shared by the
registry, gate and CLI tests."""

import json
from types import SimpleNamespace

import pytest

from repro.harness import regress
from repro.harness.experiments import ALL_EXPERIMENTS, execute
from repro.harness.regress import GateReport

#: grids small enough for tier-1 (8 workers in racks of 4, the smallest
#: zoo models, 2 iterations) on which every headline still holds
TINY = {
    "overlap": ALL_EXPERIMENTS["overlap"].smoke,  # FCN-5 + GRU, ~1 s
    "chaos": dict(seeds=(0,)),
    "serving": dict(requests=120),
    "scale": dict(worker_counts=(8,), hosts_per_rack=4,
                  max_flat_ring_workers=0),
    "netreduce": dict(worker_counts=(8,), models=("TF-Tiny",),
                      hosts_per_rack=4, max_flat_ring_workers=0),
    "telemetry": dict(iterations=2, model="TF-Tiny"),
    "lossy": dict(worker_counts=(8,), loss_rates=(0.0, 1e-2),
                  strategies=("hierarchical",), model="TF-Tiny"),
    "llmtrain": dict(model="TF-Tiny", stage_counts=(4,), microbatches=2,
                     batch_size=4, iterations=2),
    "llmserve": dict(model="TF-Tiny", requests=60, qps=400.0,
                     static_timeouts=(2e-3, 50e-3)),
}


@pytest.fixture(scope="session")
def recorded(tmp_path_factory):
    """Each experiment written by the BENCH writer at its TINY grid
    (``committed[name]``: the file read back) and, where it has a gate,
    gated once against that file (``reports[name]``: the verdict,
    ``fresh[name]``: the ``(grid, payload)`` the gate re-ran)."""
    directory = tmp_path_factory.mktemp("bench")
    out = SimpleNamespace(directory=str(directory), committed={}, fresh={},
                          reports={})

    def recording_execute(entry, grid):
        out.fresh[entry.name] = grid, execute(entry, grid)
        return out.fresh[entry.name][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regress, "execute", recording_execute)
        for name, grid in TINY.items():
            entry = ALL_EXPERIMENTS[name]
            execute(entry, grid, out.directory)
            with open(directory / f"BENCH_{name}.json") as handle:
                out.committed[name] = json.load(handle)
            if entry.gate:
                out.reports[name] = GateReport()
                regress.probe(out.reports[name], entry, out.directory, 0.05)
    return out
