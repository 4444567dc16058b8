"""gridfreq: frequency estimation for three-phase power signals.

Single-node estimators built on an augmented complex extended Kalman filter,
a bridge-node diffusion protocol for networks of estimators, matching
theoretical error recursions, and a config-driven experiment runner.
"""

__version__ = "0.1.0"

from .signals import (
    Scenario,
    ScenarioError,
    ScenarioSegment,
    clarke_arrays,
    generate_arrays,
    pos_neg_decompose,
    sequence_amplitudes,
)
from .estimators import (
    FilterDegenerateError,
    FilterRun,
    FreqTrace,
    StateSpaceModel,
    lss_model,
    nss_model,
    run_filter,
    shared_increment_model,
    wlss_model,
)
from .network import (
    BridgeAssignment,
    DiffusionWeights,
    DistributedConfigError,
    DistributedRun,
    Topology,
    conventional_weights,
    reference_network,
    run_distributed,
    select_bridges,
    uniform_weights,
)
from .analysis import (
    SpectrumResult,
    empirical_mse,
    error_spectrum,
)

__all__ = [
    "BridgeAssignment",
    "DiffusionWeights",
    "DistributedConfigError",
    "DistributedRun",
    "FilterDegenerateError",
    "FilterRun",
    "FreqTrace",
    "Scenario",
    "ScenarioError",
    "ScenarioSegment",
    "SpectrumResult",
    "StateSpaceModel",
    "Topology",
    "clarke_arrays",
    "conventional_weights",
    "empirical_mse",
    "error_spectrum",
    "generate_arrays",
    "lss_model",
    "nss_model",
    "pos_neg_decompose",
    "reference_network",
    "run_distributed",
    "run_filter",
    "select_bridges",
    "sequence_amplitudes",
    "shared_increment_model",
    "uniform_weights",
    "wlss_model",
    "__version__",
]
