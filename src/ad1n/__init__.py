"""AD(1,n) affine diffusions: simulation, conditional least squares drift
estimation, exact moments and Monte Carlo verification of the limit theory."""

__version__ = "0.1.0"

from .errors import Ad1nError
from .model import (
    Classification,
    ModelParams,
    Regime,
    classify,
    drift,
    drift_design_row,
    stack_drift_fields,
    stack_tau,
    tau_length,
    unstack_tau,
)
from .simulate import (
    Path,
    increment_moment_probe,
    read_path_csv,
    simulate_critical_limit,
    simulate_critical_limits,
    simulate_path,
    simulate_paths,
    substream,
    write_path_csv,
)
from .estimate import (
    DesignBlocks,
    Estimate,
    TildeParams,
    clse_solve,
    design_blocks,
    error_term,
    estimate_blocks,
    estimate_path,
    g_inverse,
    g_map,
    tilde_regression,
)
from .moments import (
    CovarianceReport,
    asymptotic_covariance,
    point_initial_moments,
    riccati_cf,
    riccati_cf_batch,
    stationary_moment,
    stationary_moment_table,
    transient_moment,
)
from .asymptotics import (
    CriticalLimitFunctional,
    Normalizer,
    SupercriticalLimits,
    critical_limit_functional,
    extract_supercritical_limits,
    normalizer,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    GapReport,
    discrete_vs_continuous_gap,
    experiment_config_from_text,
    load_experiment_config,
    run_experiment,
    write_report,
)
