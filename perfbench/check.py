"""Compare two result sets of ``python3 -m perfbench all --out FILE``.

One row per workload and end-to-end metric: both values, the ratio with its
base, the bound, and a verdict.  Host metrics are ``worse`` when B is worse
than A by more than the bound, and ``unresolved`` when either side's spread
over its own repetitions is wider than the bound -- the two sets then cannot
tell a regression from noise, and saying "unchanged" would be a claim the
data does not support.  Simulated metrics, counts and ``ops_failed_share``
repeat exactly, so they are compared exactly, end-to-end and per-layer
alike: any difference is ``worse`` or, where B reads better, ``changed``,
and either fails the check (a change meant only to speed the simulator up
must leave them identical; one that changes the modelled design reads the
rows).  Two sets that did not run the same workloads with the same seed and
profile are not compared at all.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .metrics import END_TO_END, METRICS

#: EXPERIMENTS.md, Fig. 9 table: RDMA over gRPC.RDMA on FCN-5, the paper's
#: average over its batch sweep
PAPER_RDMA_OVER_GRPCRDMA_PCT_FCN5 = 151


PASSES = ("trace", "measure")


def merged_metrics(passes: Dict[str, dict]) -> Dict[str, dict]:
    """Traced-pass metrics overlaid with the untraced ones."""
    return {**passes["trace"]["metrics"], **passes["measure"]["metrics"]}


def cross_workload(results: Dict[str, dict]) -> Dict[str, object]:
    """Checks and figures that need both ps8 workloads."""
    steps = {}
    for name in ("ps8-rdma", "ps8-grpc"):
        for metric, entry in merged_metrics(results[name]).items():
            if metric.startswith("distributed.step_ms.fcn5-"):
                steps[metric.rsplit("-", 1)[1]] = entry["value"]
    summary: Dict[str, object] = {
        "problems": [],
        "validation": ("EXPERIMENTS.md holds a paper reference for the "
                       "FCN-5 RDMA/gRPC.RDMA ratio only; model otherwise "
                       "unvalidated"),
    }
    if {"rdma", "grpcrdma", "grpctcp"} <= steps.keys():
        if not steps["rdma"] < steps["grpcrdma"] < steps["grpctcp"]:
            summary["problems"].append(
                "FCN-5 step order RDMA < gRPC.RDMA < gRPC.TCP broken: "
                f"{steps['rdma']:.3f} / {steps['grpcrdma']:.3f} / "
                f"{steps['grpctcp']:.3f} ms")
        summary["distributed.rdma_over_grpcrdma_pct.fcn5"] = {
            "value": (steps["grpcrdma"] / steps["rdma"] - 1.0) * 100.0,
            "unit": "%", "clock": "sim",
            "paper_ref_pct": PAPER_RDMA_OVER_GRPCRDMA_PCT_FCN5,
            "note": ("the paper's figure averages its batch sweep; ours is "
                     "the batch-32 point"),
        }
    return summary


def _worse_by(metric, a: float, b: float) -> float:
    """Share of the base A by which B is worse (negative = better)."""
    if a == 0:
        return 0.0 if b == a else float("inf") * (
            1 if (b > a) == (metric.better == "lower") else -1)
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def verdict(metric, a: dict, b: dict) -> str:
    if metric.clock != "host":
        if a["value"] == b["value"]:
            return "ok"
        better = _worse_by(metric, a["value"], b["value"]) < 0
        return "changed" if better else "worse"
    if max(a.get("spread", 0.0), b.get("spread", 0.0)) > metric.bound:
        return "unresolved"
    worse_by = _worse_by(metric, a["value"], b["value"])
    return "worse" if worse_by > metric.bound else "ok"


def not_comparable(a_doc: dict, b_doc: dict) -> List[str]:
    """Why the two sets are not runs of the same inputs (empty = they are)."""
    a_results, b_results = a_doc["results"], b_doc["results"]
    reasons = [f"workload {name} is in one set only"
               for name in sorted(a_results.keys() ^ b_results.keys())]
    for name in sorted(a_results.keys() & b_results.keys()):
        for key in PASSES:
            for field in ("seed", "quick"):
                a, b = a_results[name][key][field], b_results[name][key][field]
                if a != b:
                    reasons.append(f"{name} ({key} run): {field} {a} in A, "
                                   f"{b} in B")
    return reasons


def check(a_doc: dict, b_doc: dict) -> Tuple[str, bool]:
    reasons = not_comparable(a_doc, b_doc)
    if reasons:
        return "\n".join(["not compared:"]
                         + [f"  {reason}" for reason in reasons]), False
    rows: List[Tuple[str, ...]] = [("workload", "metric", "A", "B",
                                    "B/A (base A)", "bound", "verdict")]
    ok = True
    exact_total, exact_differ = 0, []
    for name, a_passes in a_doc["results"].items():
        a_metrics, b_metrics = (merged_metrics(a_passes),
                                merged_metrics(b_doc["results"][name]))
        for metric in END_TO_END:
            a, b = a_metrics.get(metric.name), b_metrics.get(metric.name)
            if a is None and b is None:
                continue
            if a is None or b is None:
                rows.append((name, metric.name, str(a and a["value"]),
                             str(b and b["value"]), "-", "-", "worse"))
                ok = False
                continue
            result = verdict(metric, a, b)
            ok = ok and result in ("ok", "unresolved")
            ratio = (f"{b['value'] / a['value']:.4f}" if a["value"]
                     else "-")
            bound = ("exact" if metric.clock != "host"
                     else f"{metric.bound:.1%}")
            rows.append((name, metric.name, f"{a['value']:.6g}",
                         f"{b['value']:.6g}", ratio, bound, result))
        for metric_name in sorted(a_metrics.keys() | b_metrics.keys()):
            metric = METRICS[metric_name]
            if metric.end_to_end or metric.clock == "host":
                continue
            exact_total += 1
            a_value = a_metrics.get(metric_name, {}).get("value")
            b_value = b_metrics.get(metric_name, {}).get("value")
            if a_value != b_value:
                exact_differ.append(
                    f"  {name} {metric_name}: {a_value!r} -> {b_value!r}")
    for summary_key, doc in (("A", a_doc), ("B", b_doc)):
        for problem in doc.get("cross_workload", {}).get("problems", []):
            rows.append(("ps8-*", "fcn5 order", "-", "-", "-", "-",
                         f"worse ({summary_key}: {problem})"))
            ok = False
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width)
                       for cell, width in zip(row, widths)).rstrip()
             for row in rows]
    lines.append(f"{exact_total} per-layer sim/count metrics compared "
                 f"exactly, {len(exact_differ)} differ")
    lines += exact_differ
    ok = ok and not exact_differ
    lines.append("no `worse` row" if ok else
                 "at least one `worse` or `changed` row or differing count")
    return "\n".join(lines), ok


def check_files(a_path: str, b_path: str) -> Tuple[str, bool]:
    with open(a_path) as fh:
        a_doc = json.load(fh)
    with open(b_path) as fh:
        b_doc = json.load(fh)
    return check(a_doc, b_doc)
