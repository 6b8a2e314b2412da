"""Low-rank plus sparse drift estimation for Levy-driven OU processes."""

from .matrix_ops import (
    TangentSpaces,
    l1_norm,
    linf_norm,
    nuclear_norm,
    numerical_rank,
    operator_norm,
    project_tl,
    project_tl_perp,
    project_ts,
    project_ts_perp,
    singular_value_threshold,
    soft_threshold,
)
from .models import (
    DriftModel,
    GenerationError,
    IncoherenceReport,
    estimate_incoherence,
    generate_drift,
    lyapunov_stationary_cov,
)
from .simulate import (
    LevyRegime,
    ObservationSet,
    PathConfig,
    SimulationBlowupError,
    derive_seed,
    empirical_trunc_moment,
    simulate_path,
    total_noise_cov,
)
from .contrast import (
    ContrastContext,
    DegenerateLocalizationError,
    LocalizationConfig,
    build_context,
    empirical_norm_sq,
    estimate_disc_bias,
    gradient,
    localization_from_observations,
    loss,
)
from .solver import (
    DivergenceError,
    EstimateResult,
    OptimalityReport,
    SolverConfig,
    TuningConfig,
    check_optimality,
    gamma_factor,
    solve,
    tune_lambdas,
)
from .analysis import (
    ConeReport,
    DualBoundReport,
    ErrorMetrics,
    OracleFitReport,
    RscReport,
    cone_membership,
    compute_error_metrics,
    linear_fit,
    oracle_bound_compare,
    verify_dual_bounds,
    verify_rsc,
)
from .experiment import (
    ExperimentConfig,
    LocalizationRule,
    calibrate_tuning,
    config_from_dict,
    config_to_dict,
    regime_preset,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"
