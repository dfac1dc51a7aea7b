"""Watts-per-intelligence toolkit.

Quantifies the energy efficiency of computational systems as watts per
unit of intelligence, grounds the accounting in Landauer's principle, and
checks fluctuation-theorem-derived efficiency bounds empirically on
coarse-grained Markov models.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundCheckResult,
    CoupledSuiteResult,
    IftCheckResult,
    ModelTable,
    adaptivity_bound_check,
    coupled_bound_suite,
    efficiency_bound_check,
    ift_check,
    markov_tail_check,
    model_table,
    surprisal_table,
)
from .complexity import (
    CoarseState,
    ComplexityEstimate,
    Estimator,
    complexity_exact,
    complexity_lz,
    conditional_complexity,
    estimate_complexity,
    lz78_codelength,
    read_corpus,
)
from .config import (
    ExperimentConfig,
    SimSettings,
    config_from_dict,
    default_substrates,
    eight_state_chain,
    four_state_chain,
    ingest_config,
    serialize_config,
    shipped_chains,
    two_state_chain,
)
from .entropy import (
    EntropyDelta,
    StateMeasure,
    algorithmic_entropy,
    entropy_decomposition,
    min_energy_of_change,
)
from .errors import (
    ConfigError,
    EnumerationBudgetExceeded,
    ImpossibleTransitionError,
    NonErgodicChainError,
    TelemetryError,
    UndefinedMetricError,
    ValidationError,
)
from .machine import DEFAULT_MACHINE, ReferenceMachine
from .markov import (
    MAX_SEED,
    MarkovModel,
    is_ergodic,
    sample_trajectories,
    stationary_distribution,
    transition_counts,
)
from .metrics import (
    BOLTZMANN_CONSTANT,
    EnergyReport,
    ExecutionTrace,
    TaskRecord,
    TaskSuite,
    intelligence_score,
    landauer_constant,
    modeled_energy,
    phi_lower_bound,
    wpi,
)
from .substrate import (
    ComparisonRow,
    Substrate,
    SubstrateRun,
    account_run,
    run_comparison,
    total_overhead,
)
from .telemetry import ingest_telemetry, integrate_power, read_power_csv
