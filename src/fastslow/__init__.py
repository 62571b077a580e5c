"""Numerical laboratory for coupled slow-fast stochastic systems.

The package simulates the two-scale system

    dX_t = c(X_t, Y_t) dt + sqrt(eps) * sigma(X_t, Y_t) dW^1_t
    dY_t = (1/eta) f(X_t, Y_t) dt + (1/sqrt(eta)) tau(X_t, Y_t) dW^2_t,

computes its averaged deterministic limit and Gaussian fluctuation limit,
and verifies quantitative Wasserstein convergence and tangent-process
(Malliavin derivative) moment inequalities by Monte Carlo.
"""

import time as _time

#: When this package began to import: the run manifest's ``setup_s`` counts
#: from here to the start of :func:`fastslow.cli.main`.
_IMPORT_STARTED = _time.monotonic()

from fastslow.coefficients import (
    CoefficientSet,
    AssumptionReport,
    check_assumptions,
    eval_all,
    get_model,
    model_from_expressions,
    validate_partials,
)
from fastslow.homogenization import (
    HomogenizedModel,
    LimitTrajectory,
    build_homogenized,
    limit_ode,
    limit_variance,
)
from fastslow.sde_engine import (
    PathBundle,
    ScaleRegime,
    fluctuation_samples,
    limit_gaussian_samples,
    simulate_paths,
)
from fastslow.malliavin import (
    first_order_tangents,
    moment_sweep,
    q_decomposition,
    quadruple_integral_check,
    second_order_tangents,
    z_process,
)
from fastslow.metrics import (
    RateFit,
    WassersteinReport,
    clt_verify,
    rate_sweep,
    theoretical_bound,
    w1_vs_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSet",
    "AssumptionReport",
    "check_assumptions",
    "eval_all",
    "get_model",
    "model_from_expressions",
    "validate_partials",
    "HomogenizedModel",
    "LimitTrajectory",
    "build_homogenized",
    "limit_ode",
    "limit_variance",
    "PathBundle",
    "ScaleRegime",
    "fluctuation_samples",
    "limit_gaussian_samples",
    "simulate_paths",
    "first_order_tangents",
    "moment_sweep",
    "q_decomposition",
    "quadruple_integral_check",
    "second_order_tangents",
    "z_process",
    "RateFit",
    "WassersteinReport",
    "clt_verify",
    "rate_sweep",
    "theoretical_bound",
    "w1_vs_gaussian",
    "__version__",
]
