"""Parameter-server data-parallel training (Figure 3's architecture)."""

from .allreduce import (ALLREDUCE_ALGORITHMS, AllreduceTrainingJob,
                        build_allreduce_training_graph)
from .model_parallel import (ModelParallelJob, build_model_parallel_graph,
                             split_stages)
from .placement import (greedy_placement, placement_balance,
                        round_robin_placement)
from .replication import TrainingJob, build_training_graph
from .rpc_comm import GrpcCommRuntime
from .runner import (MECHANISMS, STRATEGIES, BenchmarkResult, RunConfig,
                     make_mechanism, run_training_benchmark)

__all__ = [
    "ALLREDUCE_ALGORITHMS", "AllreduceTrainingJob", "BenchmarkResult",
    "GrpcCommRuntime", "MECHANISMS", "RunConfig", "STRATEGIES",
    "TrainingJob", "ModelParallelJob", "build_allreduce_training_graph",
    "build_model_parallel_graph", "build_training_graph",
    "greedy_placement", "make_mechanism", "split_stages",
    "placement_balance", "round_robin_placement", "run_training_benchmark",
]
