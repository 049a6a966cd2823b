"""riwfa: robust iterative water-filling for shared-spectrum power games.

M transmitter-receiver pairs allocate power over K shared sub-channels.  Each
user water-fills against the interference it measures; the measurement may
carry bounded relative error, and users can play the nominal, worst-case, or
probabilistically-hedged response to it.  The package provides the solvers,
best-response dynamics (including asynchronous schedules), equilibrium
uniqueness/convergence certificates, brute-force oracles, and a small CLI.
"""

from .analysis import (
    CertificateResult,
    check_async_convergence,
    check_rne_uniqueness,
    interference_ratio_matrix,
    interference_ratio_matrix_max,
    operator_norm_2,
    orthogonality_index,
    per_user_utilities,
    spectral_radius,
)
from .dynamics import (
    EquilibriumReport,
    RunConfig,
    Schedule,
    SweepResult,
    fixed_point_residual,
    run,
    sweep_reports,
    write_summary_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .model import (
    BUDGET_TOL,
    ENSEMBLES,
    ChannelRealization,
    DegenerateUncertaintyWarning,
    PowerConstraints,
    Scenario,
    UncertaintySpec,
    effective_interference,
    load_bundled_scenario,
    load_scenario,
    normalized_interference,
    profile_feasible,
    random_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    uniform_profile,
    user_utility,
    zero_profile,
)
from .oracle import (
    GridSpec,
    brute_force_best_response,
    cluster_profiles,
    exhaustive_equilibrium_scan,
)
from .waterfill import WaterfillSolution, best_response, waterfill

__version__ = "0.1.0"

__all__ = [
    "BUDGET_TOL",
    "CertificateResult",
    "ChannelRealization",
    "DegenerateUncertaintyWarning",
    "ENSEMBLES",
    "EquilibriumReport",
    "GridSpec",
    "PowerConstraints",
    "RunConfig",
    "Scenario",
    "Schedule",
    "SweepResult",
    "UncertaintySpec",
    "WaterfillSolution",
    "best_response",
    "brute_force_best_response",
    "check_async_convergence",
    "check_rne_uniqueness",
    "cluster_profiles",
    "effective_interference",
    "exhaustive_equilibrium_scan",
    "fixed_point_residual",
    "interference_ratio_matrix",
    "interference_ratio_matrix_max",
    "load_bundled_scenario",
    "load_scenario",
    "normalized_interference",
    "operator_norm_2",
    "orthogonality_index",
    "per_user_utilities",
    "profile_feasible",
    "random_scenario",
    "run",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "spectral_radius",
    "sweep_reports",
    "uniform_profile",
    "user_utility",
    "waterfill",
    "write_summary_csv",
    "write_sweep_csv",
    "write_trajectory_csv",
    "zero_profile",
]
