"""Synthetic dataset generators (§5: "our synthetic datasets are
generated on the fly, which can avoid the overhead of data loading").
"""

from __future__ import annotations

from typing import List

import numpy as np


def variable_length_batches(max_length: int, feature_dim: int,
                            count: int, seed: int = 0) -> List[np.ndarray]:
    """Batches whose leading dimension varies (sparse-feature workloads,
    §3.3) — used to exercise the dynamic-allocation transfer path."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_length + 1, size=count)
    return [rng.standard_normal(size=(int(n), feature_dim)).astype(np.float32)
            for n in lengths]
