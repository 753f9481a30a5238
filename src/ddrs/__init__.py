"""
Decentralized Douglas-Rachford splitting over the Stiefel manifold.

A simulation library for consensus optimization of smooth per-agent losses
under orthonormality constraints: manifold geometry, gossip mixing,
closed-form-prox PCA objectives, the exact and certified-inexact splitting
engines with gradient tracking, centralized monitoring oracles, and an
experiment harness with CLI.
"""

from .manifold import (
    ManifoldConstants,
    RankDeficientError,
    StiefelPoint,
    TangentVector,
    manifold_constants,
    project_stiefel,
    random_stiefel,
    subspace_distance,
    tangent_project,
    tube_distance,
)
from .network import (
    Graph,
    MixingMatrix,
    NotConnectedError,
    SpectralGapViolationError,
    gen_complete,
    gen_erdos_renyi,
    gen_ring,
    load_edgelist,
    metropolis_weights,
    mix,
    save_edgelist,
    second_singular,
)
from .problems import (
    BadMagicError,
    DPCAInstance,
    Dataset,
    DimMismatchError,
    NonFiniteInputError,
    SolverStallError,
    TruncatedFileError,
    gen_synthetic,
    load_idx,
    normalize_and_split,
)
from .algorithms import (
    AgentStack,
    BaselineStack,
    ConfigurationWarning,
    ParameterAdvice,
    SolverParams,
    advise_parameters,
    baseline_gt_init,
    baseline_gt_step,
    ddrs_init,
    ddrs_step,
    epsilon_schedule,
    iddrs_step,
)
from .metrics import (
    IterationRecord,
    NeighborhoodReport,
    consensus_and_stationarity,
    dre_value,
    induced_mean,
    neighborhood_report,
    rate_fit,
    tracking_residual,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    MissingRequiredError,
    ConfigTypeError,
    UnknownKeyError,
    parse_config,
    preset,
    preset_text,
    read_records,
    run_experiment,
    write_records,
)

__version__ = "0.1.0"
