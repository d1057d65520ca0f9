"""Asymptotic expansions for h^3 (h'' + h') = 1: exact series apparatus
plus high-accuracy numerical verification."""

from .errors import AccuracyError, ConvergenceError, DomainError, IntegrationError
from .series import BivariatePoly, Rational, poly_eval
from .families import (
    clear_caches,
    gen_alpha,
    gen_beta,
    gen_lambert_p,
    gen_p,
    gen_q,
    ode_residual_order,
)
from .numerics import (
    GProblem,
    InitialData,
    SolverConfig,
    Trajectory,
    compute_G,
    compute_c,
    compute_c_for_data,
    g_problem_for_data,
    integrate_h,
    invert_G,
    lambert_wm1_numeric,
    solve_g,
    trajectory_to_csv,
)
from .asympt import (
    AsymptoticModel,
    RemainderReport,
    SyntheticTrajectory,
    eval_A_n,
    fit_c_from_trajectory,
    lambert_compare,
    lambert_report_to_csv,
    lambert_report_to_json,
    remainder_report_to_csv,
    remainder_report_to_json,
    remainder_study,
    shift_invariance_check,
)

__version__ = "0.1.0"
