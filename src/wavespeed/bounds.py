"""Constructive two-sided bounds on the minimal front speed.

Two ingredient constants depend only on (p, kernel):

    k1 = 2q + p*M'(q),  q = sqrt((p-1)/(1 + (p/2)*second_moment))
    k2 = ln(p*M(sqrt(ln p))) / sqrt(ln p)

and the assembled window switches regime at h = 1:

    h in [0,1]:  max{ l_add, 2 sqrt(ln p)/(1+h) } < c* < min{ k1/(1+h), k2/h }
    h in [1,oo): max{ l_add, sqrt(ln p)/h }       < c* < min{ k1/2, k2/sqrt(h) }

with the additive lower bound l_add = 2 sqrt((p-1)/(p(2h+h^2)+1)) valid
for every h >= 0.  At h = 0 the k2/h candidate diverges and is dropped.
Both regime formulas coincide at h = 1 by construction.

For spread-out kernels the window is strict, which is what lets the
solver bisect inside it; for the point-mass kernel some inequalities
degenerate to equalities, and consumers are expected to compare
non-strictly there.

On top of the window there is a sharper one-parameter family of upper
bounds for h > 0:

    ad_upper(r) = ln( (p/(1-r^2)) * M(r) ) / (h*r),   r in (0,1),

minimized numerically by ad_upper_opt.  Note ad_upper(r) = F(r)/h, so
the optimal r is independent of h and h*value is an h-free constant;
that is the O(1/h) ceiling reported for the large-delay regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .charfun import ModelParams
from .errors import DomainError
from .kernels import Kernel

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# ad_upper_opt: scan points over (0, 1), then golden section to this width
_AD_GRID = 65
_AD_TOL = 1e-10


@dataclass(frozen=True)
class SpeedBounds:
    """Assembled bound window at one delay value.

    lower/upper are the binding candidates (max of lowers, min of
    uppers); the individual candidates are kept for reporting and for
    curve CSVs.  upper_k2 is +inf at h = 0 where that candidate is
    dropped.  The ad-family optimum is attached only when requested
    (it costs a 1-D minimization) and only exists for h > 0.
    """

    h: float
    regime: str
    k1: float
    k2: float
    lower_add: float
    lower_log: float
    upper_k1: float
    upper_k2: float
    lower: float
    upper: float
    upper_ad_opt: Optional[float] = None
    ad_r_opt: Optional[float] = None


def _check_p(p: float) -> None:
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"bounds need p > 1, got {p}")


def k1(p: float, kernel: Kernel) -> float:
    """Upper-bound constant from the quadratic comparison argument."""
    _check_p(p)
    q = math.sqrt((p - 1.0) / (1.0 + 0.5 * p * kernel.second_moment()))
    return 2.0 * q + p * kernel.mgf_deriv(q)


def k2(p: float, kernel: Kernel) -> float:
    """Upper-bound constant from the logarithmic comparison argument."""
    _check_p(p)
    s = math.sqrt(math.log(p))
    return math.log(p * kernel.mgf(s)) / s


def speed_bounds(params: ModelParams, kernel: Kernel,
                 with_ad: bool = False) -> SpeedBounds:
    """Evaluate every explicit bound candidate and assemble the window."""
    p, h = params.p, params.h
    k1v = k1(p, kernel)
    k2v = k2(p, kernel)
    lower_add = 2.0 * math.sqrt((p - 1.0) / (p * (2.0 * h + h * h) + 1.0))
    sqrt_ln_p = math.sqrt(math.log(p))
    if h <= 1.0:
        regime = "h<=1"
        lower_log = 2.0 * sqrt_ln_p / (1.0 + h)
        upper_k1 = k1v / (1.0 + h)
        upper_k2 = k2v / h if h > 0.0 else math.inf
    else:
        regime = "h>=1"
        lower_log = sqrt_ln_p / h
        upper_k1 = 0.5 * k1v
        upper_k2 = k2v / math.sqrt(h)
    ad_val: Optional[float] = None
    ad_r: Optional[float] = None
    if with_ad and h > 0.0:
        ad_r, ad_val = ad_upper_opt(params, kernel)
    return SpeedBounds(
        h=h,
        regime=regime,
        k1=k1v,
        k2=k2v,
        lower_add=lower_add,
        lower_log=lower_log,
        upper_k1=upper_k1,
        upper_k2=upper_k2,
        lower=max(lower_add, lower_log),
        upper=min(upper_k1, upper_k2),
        upper_ad_opt=ad_val,
        ad_r_opt=ad_r,
    )


def bound_window(params: ModelParams, kernel: Kernel) -> tuple[float, float]:
    """(lower, upper) only; the cheap call the solver brackets with."""
    b = speed_bounds(params, kernel, with_ad=False)
    return b.lower, b.upper


def ad_upper(params: ModelParams, kernel: Kernel, r: float) -> float:
    """One member of the parametric upper-bound family, r in (0,1), h > 0."""
    if params.h <= 0.0:
        raise DomainError(f"ad_upper needs h > 0, got h={params.h}")
    if not (0.0 < r < 1.0):
        raise DomainError(f"ad_upper needs r in (0,1), got {r}")
    return math.log((params.p / (1.0 - r * r)) * kernel.mgf(r)) / (params.h * r)


def ad_upper_opt(params: ModelParams, kernel: Kernel) -> tuple[float, float]:
    """Minimize ad_upper over r by coarse scan plus golden section.

    The function is smooth on (0,1) and diverges at both ends (1/r at
    the left, the log at the right), so a scan bracket followed by
    golden section is reliable.  Returns (r_star, value); value is the
    smallest of every probe made, so it never exceeds the family at any
    probed r.
    """
    if params.h <= 0.0:
        raise DomainError(f"ad_upper_opt needs h > 0, got h={params.h}")
    lo_edge, hi_edge = 1e-6, 1.0 - 1e-6

    def f(r: float) -> float:
        return ad_upper(params, kernel, r)

    rs = [lo_edge + i * (hi_edge - lo_edge) / (_AD_GRID - 1)
          for i in range(_AD_GRID)]
    vals = [f(r) for r in rs]
    i_best = min(range(_AD_GRID), key=vals.__getitem__)
    best_r, best_v = rs[i_best], vals[i_best]
    a = rs[max(i_best - 1, 0)]
    b = rs[min(i_best + 1, _AD_GRID - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _AD_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if fc < best_v:
            best_r, best_v = c, fc
        if fd < best_v:
            best_r, best_v = d, fd
    return best_r, best_v
