"""Characteristic function of the linearized front problem.

The model is u_t = u_xx - u + (K * g(u(t-h, .)))(x) with g'(0) = p > 1.
Looking for exponential profiles exp(-z*x/ c) of speed c = 1/sqrt(eps)
turns the linearization at 0 into a scalar condition psi(z, eps) = 0,

    psi(z, eps) = eps*z^2 - z - 1 + p * exp(-z*h) * M(sqrt(eps)*z),

where M is the kernel's moment functional (evenness of K folds the
exp(-sqrt(eps)*z*s) integral into M).  The minimal speed corresponds to
the double root: psi = 0 and psi_z = 0 simultaneously.

Everything here is exact arithmetic on M, M', M''; the solver module
owns the root finding.  The w-form below is the same condition after
the substitution w = sqrt(eps)*z, which is what the bound derivations
and the continuation equation work in.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .kernels import Kernel, checked_exp

# below this eps the speed exceeds 1e6 and float exponents misbehave
_EPS_FLOOR = 1e-12

# sys.float_info.min; e^{-z h} is subnormal past z h = 708.39, 0 past 745.13
_MIN_NORMAL = 2.2250738585072014e-308


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= _EPS_FLOOR):
        raise DomainError(f"eps must be finite and >= {_EPS_FLOOR:g}, got {eps}")


class _ModelParams(NamedTuple):
    p: float
    h: float


class ModelParams(_ModelParams):
    """Model parameters: linearization slope p and delay h (a tuple)."""

    __slots__ = ()

    def __new__(cls, p: float, h: float):
        # checks the arguments, not the fields: the solver builds one per
        # RK4 stage, and a field read costs more than a local one
        if not (math.isfinite(p) and p > 1.0):
            raise DomainError(
                f"linearization slope p must be > 1 (monostable hypothesis), got {p}")
        if not (math.isfinite(h) and h >= 0.0):
            raise DomainError(f"delay h must be >= 0, got {h}")
        return tuple.__new__(cls, (p, h))

    @classmethod
    def _make(cls, fields):     # so that _replace runs the checks too
        return cls(*fields)


class PsiEval(NamedTuple):
    """psi and its partials at one point (z, eps).

    dzz > 0 always (psi is strictly convex in z: dzz >= 2*eps plus a
    nonnegative kernel term), and deps > 0 for z > 0; both facts are
    what make the solver's nested bracketing valid.  Like every record in
    the package it is a NamedTuple, not a dataclass: its class costs about
    an eighth as much to create at import, and psi_eval builds one per call.
    """

    value: float
    dz: float
    dzz: float
    deps: float


class CriticalPoint(NamedTuple):
    """Converged double root (z0, eps0) with its certificate, as a tuple.

    w0 = sqrt(eps0)*z0 and c_star = 1/sqrt(eps0) are derived fields.
    res_* are absolute residuals (wform_residuals gives the w-form pair);
    psi_zz and psi_eps are the transversality factors, positive at a
    genuine critical point.  solve_critical decides whether they pass.
    """

    z0: float
    eps0: float
    w0: float
    c_star: float
    res_psi: float
    res_psi_z: float
    psi_zz: float
    psi_eps: float


def psi_eval(z: float, eps: float, params: ModelParams, kernel: Kernel) -> PsiEval:
    """Evaluate psi and its analytic partials at (z, eps).

    Partials come from differentiating through M rather than through the
    defining integral:

        psi_z   = 2*eps*z - 1 + p*e^{-z h} (sqrt(eps) M'(w) - h M(w))
        psi_zz  = 2*eps + p*e^{-z h} (eps M''(w) - 2 h sqrt(eps) M'(w) + h^2 M(w))
        psi_eps = z^2 + p*e^{-z h} M'(w) * z / (2 sqrt(eps))

    with w = sqrt(eps)*z.  Overflow inside M propagates as
    MgfOverflowError; psi(0, eps) = p - 1 exactly.
    """
    _check_eps(eps)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    root_eps = math.sqrt(eps)
    w = root_eps * z
    m0 = kernel.mgf(w)
    m1 = kernel.mgf_deriv(w)
    m2 = kernel.mgf_deriv2(w)
    h = params.h
    decay = checked_exp(-z * h)
    pm = (params.p * decay if decay >= _MIN_NORMAL
          else math.exp(math.log(params.p) - z * h))
    value = eps * z * z - z - 1.0 + pm * m0
    dz = 2.0 * eps * z - 1.0 + pm * (root_eps * m1 - h * m0)
    dzz = 2.0 * eps + pm * (eps * m2 - 2.0 * h * root_eps * m1 + h * h * m0)
    deps = z * z + pm * m1 * z / (2.0 * root_eps)
    return PsiEval(value, dz, dzz, deps)


def wform_residuals(w: float, eps: float, params: ModelParams,
                    kernel: Kernel) -> tuple[float, float]:
    """Residuals of the double-root system in the w = sqrt(eps)*z variable.

        rho_ew  = (1 + w/sqrt(eps) - w^2) e^{w h / sqrt(eps)} - p M(w)
        rho_eww = (h w^2/sqrt(eps) + (2 - h/eps) w - (1+h)/sqrt(eps))
                    e^{w h / sqrt(eps)} + p M'(w)

    (the signed moment integral s K e^{-w s} ds equals -M'(w)).  Both
    vanish exactly at a critical point; rho_eww = -d(rho_ew)/dw, so the
    critical w0 is a double root of rho_ew, a tangency rather than a
    crossing.  Identities tying these to psi:

        rho_ew(sqrt(eps) z, eps)  = -e^{z h} psi(z, eps)
        rho_eww(sqrt(eps) z, eps) = (e^{z h}/sqrt(eps)) psi_z
                                     + (h/sqrt(eps)) e^{z h} psi
    """
    _check_eps(eps)
    if not (math.isfinite(w) and w >= 0.0):
        raise DomainError(f"w must be finite and >= 0, got {w}")
    se = math.sqrt(eps)
    h, p = params.h, params.p
    grow = checked_exp(w * h / se)
    m0 = kernel.mgf(w)
    m1 = kernel.mgf_deriv(w)
    rho_ew = (1.0 + w / se - w * w) * grow - p * m0
    rho_eww = (h * w * w / se + (2.0 - h / eps) * w - (1.0 + h) / se) * grow + p * m1
    return rho_ew, rho_eww


def G_value(w: float, eps: float) -> float:
    """G(w) = 1 + w/sqrt(eps) - w^2; the polynomial factor of the w-form."""
    _check_eps(eps)
    return 1.0 + w / math.sqrt(eps) - w * w


def H_value(w: float, eps: float, h: float) -> float:
    """H(w) = G(w) * e^{w h / sqrt(eps)}; the delay-weighted side."""
    _check_eps(eps)
    return G_value(w, eps) * checked_exp(w * h / math.sqrt(eps))


def R_value(w: float, p: float, kernel: Kernel) -> float:
    """R(w) = p * M(w); the kernel side.  R(0) = p, nondecreasing on w >= 0."""
    return p * kernel.mgf(w)


def critical_point(z0: float, eps0: float, ev: PsiEval) -> CriticalPoint:
    """Package a root candidate and its ev = psi_eval(z0, eps0, ...) into a
    CriticalPoint; nothing is evaluated here."""
    root_eps = math.sqrt(eps0)
    return CriticalPoint(z0=z0, eps0=eps0, w0=root_eps * z0, c_star=1.0 / root_eps,
                         res_psi=abs(ev.value), res_psi_z=abs(ev.dz),
                         psi_zz=ev.dzz, psi_eps=ev.deps)
