"""Minimal front speed for a delayed nonlocal reaction-diffusion model.

The model is u_t = u_xx - u + (K * g(u(t-h, .)))(x) with a symmetric
dispersal kernel K and a monostable birth function g with g'(0) = p > 1.
This package computes the minimal traveling-front speed c*(h) as
1/sqrt(eps0(h)), where (z0, eps0) is the double root of the associated
characteristic function, and surrounds that single number with every
cross-check that makes it trustworthy: explicit two-sided bounds, an
independent continuation method in h, closed-form limit cases, and a
direct PDE simulation whose spreading speed must agree.

Modules: kernels (dispersal kernels and moment functionals), charfun
(the characteristic function and its partials), solver (double-root
solve, fast paths, continuation), bounds (explicit speed bounds),
front_sim (direct simulation), cli (command line).
"""

from .bounds import SpeedBounds, ad_upper, ad_upper_opt, bound_window, k1, k2, speed_bounds
from .charfun import (CriticalPoint, G_value, H_value, ModelParams, PsiEval,
                      R_value, critical_point, psi_eval, wform_residuals)
from .errors import (BracketError, ConvergenceError, CubicRootError,
                     DegenerateCubicError, DomainError, MgfOverflowError,
                     NumericalError, UnsupportedVariantError, WavespeedError)
from .front_sim import (BirthFunction, SimConfig, SimResult, fit_front_speed,
                        front_position, run)
from .kernels import (DiracKernel, GaussianKernel, Kernel, TabulatedKernel,
                      TwoPointKernel, UniformKernel, kernel_from_spec,
                      tabulated_twin)
from .solver import (DEFAULT_CONFIG, SpeedCurve, cardano_w0, continue_ode,
                     min_psi, solve_critical, solve_ivp_rho0, sweep_direct)

__version__ = "0.1.0"

__all__ = [
    "BirthFunction", "BracketError", "ConvergenceError", "CriticalPoint",
    "CubicRootError", "DEFAULT_CONFIG", "DegenerateCubicError", "DiracKernel",
    "DomainError", "G_value", "GaussianKernel", "H_value", "Kernel",
    "MgfOverflowError", "ModelParams", "NumericalError", "PsiEval", "R_value",
    "SimConfig", "SimResult", "SpeedBounds",
    "SpeedCurve", "TabulatedKernel", "TwoPointKernel", "UniformKernel",
    "UnsupportedVariantError", "WavespeedError",
    "ad_upper", "ad_upper_opt", "bound_window", "cardano_w0", "continue_ode",
    "critical_point", "fit_front_speed", "front_position", "k1", "k2",
    "kernel_from_spec", "min_psi", "psi_eval", "run", "solve_critical",
    "solve_ivp_rho0", "speed_bounds", "sweep_direct", "tabulated_twin",
    "wform_residuals",
]
