"""Watts-per-intelligence toolkit.

Quantifies the energy efficiency of computational systems as watts per
unit of intelligence, grounds the accounting in Landauer's principle, and
checks fluctuation-theorem-derived efficiency bounds empirically on
coarse-grained Markov models.
"""

__version__ = "0.1.0"

from .bounds import (
    AgentSpec,
    BoundCheckResult,
    CoupledSuiteResult,
    IftCheckResult,
    adaptivity_bound_check,
    coupled_bound_suite,
    delta_ik_samples,
    efficiency_bound_check,
    ift_check,
    markov_tail_check,
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
from .config import ExperimentConfig, SimSettings, config_from_dict, ingest_config, serialize_config
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
    eight_state_chain,
    four_state_chain,
    four_state_structural_chain,
    is_ergodic,
    sample_trajectories,
    shipped_chains,
    stationary_distribution,
    transition_counts,
    two_state_chain,
)
from .metrics import (
    BOLTZMANN_CONSTANT,
    NATURAL_UNIT_TEMPERATURE,
    EnergyReport,
    ExecutionTrace,
    IntelligenceScore,
    TaskRecord,
    TaskSuite,
    WpiReport,
    intelligence_score,
    landauer_constant,
    modeled_energy,
    phi_lower_bound,
    wpi,
    wpi_report,
)
from .substrate import (
    ComparisonReport,
    ComparisonRow,
    Substrate,
    SubstrateRun,
    account_run,
    default_substrates,
    run_comparison,
    total_overhead,
)
from .telemetry import ingest_telemetry, integrate_power, read_power_csv
