"""Linear-SDP workbench: instances, color refinement, first-order solving,
relaxation generators, forward-pass embeddings, and a verification harness."""

from .colors import Algo, ColorState, Partition, init_colors, refines, run_to_stable, step
from .core import (
    SdpInstance,
    SdpxlabError,
    SolutionTriple,
    SparseSymMatrix,
    apply_A,
    apply_A_adjoint,
    constraint_residual,
    objective,
    quantize_key,
    relative_obj_gap,
    symmetrize,
)
from .pdhg import (
    PdhgConfig,
    iterates,
    kkt_residuals,
    lambda_max_op,
    min_norm_solution,
    project_psd,
    solve,
    solve_continuation,
)
from .sdpa import read_sdpa, write_sdpa

__all__ = [
    "Algo", "ColorState", "Partition", "PdhgConfig", "SdpInstance",
    "SdpxlabError", "SolutionTriple", "SparseSymMatrix", "apply_A",
    "apply_A_adjoint", "constraint_residual", "init_colors",
    "iterates", "kkt_residuals", "lambda_max_op", "min_norm_solution",
    "objective", "project_psd", "quantize_key", "read_sdpa", "refines",
    "relative_obj_gap", "run_to_stable", "solve", "solve_continuation",
    "step", "symmetrize", "write_sdpa",
]

__version__ = "0.1.0"
