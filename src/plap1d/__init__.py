"""Certified positive solutions of 1D p-Laplacian problems with indefinite weight."""

from .core_types import (
    DEFAULT_N,
    AssemblyPlan,
    BracketError,
    CertificateError,
    EigenError,
    EpsTooLargeError,
    GlueError,
    Grid,
    GridFunction,
    Interval,
    NoEigenvalueError,
    NoSupersolutionError,
    SolverError,
    TauTooLargeError,
    Problem,
    Weight,
    phi_p,
    sin_power_weight,
    step_weight,
)
from .bvp import solve_g
from .eigen import EigenPair, principal_eigenvalue, shoot, window_eigenpair
from .conditions import (
    CONDITION_NAMES,
    ConditionReport,
    TauInterval,
    c_pq,
    check,
    check_all,
    default_eps,
    gamma,
    outer_bound,
    tau_interval,
)
from .subsuper import (
    Certificate,
    build_subsolution,
    build_supersolution,
    build_u1_exp,
    build_u1_linear,
    build_u1_power,
    build_u1_sinh,
    build_u3_exp,
    build_u3_linear,
    build_u3_power,
    build_u3_sinh,
    enforce_ordering,
    glue,
)
from .verify import (
    WeakFormReport,
    check_weak_subsolution,
    check_weak_supersolution,
    default_certificate_tol,
    solution_residual,
    weak_form_values,
)
from .solver import (
    SolutionReport,
    certify,
    solve_between,
    solve_full,
    sweep,
)

__version__ = "0.1.0"
