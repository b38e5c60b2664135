"""Perf-regression gate: fresh runs vs committed baselines.

The simulator is deterministic — identical code and configuration
reproduce simulated metrics bit-for-bit — so committed benchmark
results double as regression baselines with *tight* tolerances: a 5%
drift in a simulated step time is a behavior change, not noise.
Wall-clock figures in the baselines (``wall_s``, ``events_per_s``)
are machine-dependent and never gated.

One probe per experiment in :data:`repro.harness.experiments.EXPERIMENTS`
that has a ``gate``: load the committed ``BENCH_<name>.json``, re-run
the slice of its grid the gate names through the experiment's own
``run`` (so the gate cannot simulate anything the experiment does
not), match fresh cells to committed cells, compare the gated fields,
and report the experiment's headline invariants on what was re-run.

Exit status is nonzero when any gated metric regresses beyond its
tolerance or a headline is violated, which is what lets CI fail the
build.  ``--json`` dumps the full comparison.

Usage::

    python -m repro.harness.regress       # every probe with a baseline
    python -m repro.harness.regress --probes scale
    python -m repro.harness.regress --tolerance 0.08 --json gate.json
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence

from .experiments import (ALL_EXPERIMENTS, EXPERIMENTS, Experiment,
                          bench_file, cell_value, execute)

#: default relative tolerance for gated metrics
DEFAULT_TOLERANCE = 0.05

PROBES = tuple(entry.name for entry in EXPERIMENTS if entry.gate)


@dataclass
class Check:
    """One gated metric: fresh value vs committed baseline."""

    probe: str
    metric: str
    baseline: float
    fresh: float
    direction: str      # "lower_better" | "higher_better" | "match"
    tolerance: float
    #: filled by evaluate(): "ok" | "improved" | "regressed"
    verdict: str = ""

    def evaluate(self) -> str:
        base, fresh = self.baseline, self.fresh
        scale = max(abs(base), 1e-12)
        delta = (fresh - base) / scale
        if self.direction == "match":
            self.verdict = "ok" if abs(delta) <= self.tolerance \
                else "regressed"
        elif self.direction == "lower_better":
            if delta > self.tolerance:
                self.verdict = "regressed"
            elif delta < -self.tolerance:
                self.verdict = "improved"
            else:
                self.verdict = "ok"
        elif self.direction == "higher_better":
            if delta < -self.tolerance:
                self.verdict = "regressed"
            elif delta > self.tolerance:
                self.verdict = "improved"
            else:
                self.verdict = "ok"
        else:
            raise ValueError(f"unknown direction {self.direction!r}")
        return self.verdict

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class GateReport:
    """Everything one gate invocation measured."""

    checks: List[Check] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def add(self, check: Check) -> None:
        check.evaluate()
        self.checks.append(check)

    @property
    def regressions(self) -> List[Check]:
        return [c for c in self.checks if c.verdict == "regressed"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.errors

    def to_dict(self) -> Dict[str, object]:
        return {"ok": self.ok,
                "checks": [c.to_dict() for c in self.checks],
                "regressions": len(self.regressions),
                "errors": list(self.errors)}


def compare(report: GateReport, entry: Experiment, committed: Dict,
            fresh: Dict, grid: Dict, tolerance: float) -> None:
    """Judge the ``fresh`` payload of ``entry.run(**grid)`` against the
    ``committed`` one: gated fields cell by cell, then the headlines."""
    gate, name = entry.gate, entry.name
    if not fresh["cells"]:  # a slice that filters everything out is no pass
        report.errors.append(f"{name}: gate slice produced no cells")
        return
    key = itemgetter(*gate.key)
    by_key = {key(cell): cell for cell in committed["cells"]}
    for cell in fresh["cells"]:
        label = gate.label.format(**cell)
        base = by_key.get(key(cell))
        if base is None:
            report.errors.append(f"{name}: no committed cell {label}")
            continue
        for metric, direction in gate.fields:
            if cell_value(cell, metric) is not None:
                report.add(Check(name, f"{label}.{metric}",
                                 cell_value(base, metric),
                                 cell_value(cell, metric), direction,
                                 tolerance))
    # What the grid does not pin comes from the run's RunConfig — the
    # defaults here: a baseline written under flags is not this run's.
    for key, value in fresh["config"].items():
        if key not in grid and committed["config"].get(key) != value:
            report.errors.append(
                f"{name}: committed under {key}="
                f"{committed['config'].get(key)!r}, re-run under {value!r}")
    report.errors.extend(f"{name}: {violated}"
                         for violated in entry.headlines(fresh))


def probe(report: GateReport, entry: Experiment, baseline_dir: str,
          tolerance: float) -> None:
    """Re-run the gated slice of one committed results file."""
    path = bench_file(entry.name, baseline_dir)
    if not os.path.exists(path):
        report.errors.append(f"{entry.name}: no {bench_file(entry.name)} "
                             f"baseline")
        return
    with open(path) as handle:
        committed = json.load(handle)
    keywords = inspect.signature(entry.run).parameters
    grid = {key: value for key, value in committed["config"].items()
            if key in keywords}
    grid.update(entry.gate.narrow(committed))
    compare(report, entry, committed, execute(entry, grid), grid, tolerance)


# -- CLI -------------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.regress",
        description="Compare fresh probe runs against committed "
                    "BENCH_*.json baselines; exit nonzero on regression.")
    parser.add_argument("--probes", default=None,
                        help=f"comma-separated subset of {PROBES}; a named "
                             "probe without a baseline is an error "
                             "(default: every probe whose baseline file "
                             "exists in --baseline-dir)")
    parser.add_argument("--baseline-dir", default="results",
                        help="directory holding the BENCH_*.json baselines")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="relative tolerance for gated metrics")
    parser.add_argument("--json", default=None,
                        help="dump the full comparison to this path")
    args = parser.parse_args(argv)
    if not 0.0 < args.tolerance < 1.0:
        parser.error(f"--tolerance must be in (0, 1), got {args.tolerance}")
    report = GateReport()
    if args.probes is None:
        # Gate what has a baseline in this directory and say what was
        # left out (nothing, against the committed results/).
        probes = [p for p in PROBES
                  if os.path.exists(bench_file(p, args.baseline_dir))]
        for name in PROBES:
            if name not in probes:
                print(f"[regress] skipped   {name}: no "
                      f"{bench_file(name)} in {args.baseline_dir}")
        if not probes:
            report.errors.append(
                f"no baseline for any probe in {args.baseline_dir}")
    else:
        probes = [p.strip() for p in args.probes.split(",") if p.strip()]
        for name in probes:
            if name not in PROBES:
                parser.error(f"unknown probe {name!r}; have {PROBES}")

    for name in probes:
        print(f"[regress] probe: {name}", flush=True)
        try:
            probe(report, ALL_EXPERIMENTS[name], args.baseline_dir,
                  args.tolerance)
        except Exception as exc:  # noqa: BLE001 - a broken probe IS a failure
            report.errors.append(f"{name}: probe raised {exc!r}")

    for check in report.checks:
        drift = ((check.fresh - check.baseline)
                 / max(abs(check.baseline), 1e-12) * 100)
        print(f"[regress] {check.verdict:9s} {check.probe}/{check.metric}: "
              f"{check.baseline:.6g} -> {check.fresh:.6g} ({drift:+.2f}%)")
    for error in report.errors:
        print(f"[regress] ERROR     {error}")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")

    if report.ok:
        print(f"[regress] PASS: {len(report.checks)} checks, "
              f"0 regressions")
        return 0
    print(f"[regress] FAIL: {len(report.regressions)} regressions, "
          f"{len(report.errors)} errors")
    return 1


if __name__ == "__main__":
    sys.exit(main())
