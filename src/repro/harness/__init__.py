"""Experiment harness: regenerates every table and figure of §5."""

from .experiments import (ALL_EXPERIMENTS, extension_allreduce, figure7,
                          figure8, figure9, figure10, figure11, figure12,
                          table2, table3)
from .series import ExperimentResult

__all__ = [
    "ALL_EXPERIMENTS", "ExperimentResult", "extension_allreduce", "figure7",
    "figure8", "figure9", "figure10", "figure11", "figure12", "table2",
    "table3",
]
