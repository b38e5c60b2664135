"""Workload generators: the micro-benchmark and synthetic datasets."""

from .microbench import MicrobenchResult, run_microbench, sweep_microbench
from .synthetic import variable_length_batches

__all__ = [
    "MicrobenchResult", "run_microbench", "sweep_microbench",
    "variable_length_batches",
]
