"""perfbench: named workloads, two clocks and a per-layer host-time table.

Measures the simulated RDMA stack under ``src/repro`` from the outside:
it times calls into public functions, reads public result objects and,
in a separate traced pass, installs span wrappers and ``cProfile`` from
its own files.  See ``perfbench/README.md``.

Every number carries a clock.  **sim** is what the modelled cluster
would take: deterministic, compared exactly.  **host** is what the
simulator costs us: noisy, compared against a bound.
"""
