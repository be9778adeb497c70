"""Constructive two-sided bounds on the minimal front speed.

Two ingredient constants depend only on (p, kernel):

    k1 = 2q + p*M'(q),  q = sqrt((p-1)/(1 + (p/2)*second_moment))
    k2 = ln(p*M(sqrt(ln p))) / sqrt(ln p)

and the assembled window switches regime at h = 1:

    h in [0,1]:  max{ l_add, 2 sqrt(ln p)/(1+h) } < c* < min{ k1/(1+h), k2/h }
    h in [1,oo): max{ l_add, sqrt(ln p)/h }       < c* < min{ k1/2, k2/sqrt(h) }

with the additive lower bound l_add = 2 sqrt((p-1)/(p(2h+h^2)+1)) valid
for every h >= 0.  At h = 0 the k2/h candidate diverges and is dropped;
k1 is +inf where M'(q) overflows and k2 where M(sqrt(ln p)) does, so
the window binds at the other one.
Both regime formulas coincide at h = 1 by construction.

For spread-out kernels the window is strict, which is what lets the
solver bisect inside it; for the point-mass kernel some inequalities
degenerate to equalities, and consumers are expected to compare
non-strictly there.

On top of the window there is a sharper one-parameter family of upper
bounds for h > 0 and r in (0,1):

    ad_upper(r) = phi(r)/(h*r),   phi(r) = ln p + ln M(r) - ln(1-r^2).

phi is convex with phi(0) = ln p > 0, so gap(r) = r*phi'(r) - phi(r),
the sign of the slope, changes once; ad_upper_opt bisects for that
first-order condition.  The optimal r is independent of h and h*value
is an h-free constant: the O(1/h) ceiling of the large-delay regime.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from .charfun import ModelParams
from .errors import DomainError, MgfOverflowError
from .kernels import Kernel


class SpeedBounds(NamedTuple):
    """Assembled bound window at one delay value, as a tuple.

    lower/upper are the binding candidates (max of lowers, min of
    uppers); the individual candidates are kept for reporting and for
    curve CSVs.  upper_k2 is +inf at h = 0, where that candidate is
    dropped, and where k2 is.  The ad family's optimum is a separate
    call, ad_upper_opt.
    """

    regime: str
    k1: float
    k2: float
    lower_add: float
    lower_log: float
    upper_k1: float
    upper_k2: float
    lower: float
    upper: float


def _check_p(p: float) -> None:
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"bounds need p > 1, got {p}")


def k1(p: float, kernel: Kernel) -> float:
    """Upper-bound constant from the quadratic comparison argument."""
    _check_p(p)
    m2 = kernel.second_moment()
    den = 1.0 + 0.5 * p * m2
    if den == math.inf:         # divided through by p, so q stays positive
        q = math.sqrt((1.0 - 1.0 / p) / (1.0 / p + 0.5 * m2))
    else:
        q = math.sqrt((p - 1.0) / den)
    try:
        return 2.0 * q + p * kernel.mgf_deriv(q)
    except MgfOverflowError:
        return math.inf


def k2(p: float, kernel: Kernel) -> float:
    """Upper-bound constant from the logarithmic comparison argument."""
    _check_p(p)
    s = math.sqrt(math.log(p))
    try:
        return math.log(p * kernel.mgf(s)) / s
    except MgfOverflowError:
        return math.inf


def speed_bounds(params: ModelParams, kernel: Kernel) -> SpeedBounds:
    """Evaluate every explicit bound candidate and assemble the window;
    the ad family's optimum is a separate call, ad_upper_opt."""
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
    return SpeedBounds(
        regime=regime,
        k1=k1v,
        k2=k2v,
        lower_add=lower_add,
        lower_log=lower_log,
        upper_k1=upper_k1,
        upper_k2=upper_k2,
        lower=max(lower_add, lower_log),
        upper=min(upper_k1, upper_k2),
    )


def bound_window(params: ModelParams, kernel: Kernel) -> tuple[float, float]:
    """(lower, upper) only; the cheap call the solver brackets with."""
    b = speed_bounds(params, kernel)
    return b.lower, b.upper


def ad_upper(params: ModelParams, kernel: Kernel, r: float) -> float:
    """One member of the parametric upper-bound family, r in (0,1), h > 0."""
    if params.h <= 0.0:
        raise DomainError(f"ad_upper needs h > 0, got h={params.h}")
    if not (0.0 < r < 1.0):
        raise DomainError(f"ad_upper needs r in (0,1), got {r}")
    return math.log((params.p / (1.0 - r * r)) * kernel.mgf(r)) / (params.h * r)


def ad_upper_opt(params: ModelParams, kernel: Kernel) -> tuple[float, float]:
    """Minimize ad_upper over r at its first-order condition gap(r) = 0.

    gap rises strictly from -ln p at r = 0 to +inf at r = 1, so its one
    sign change is the minimizer; bisect for it in log r over the
    positive normal doubles, until the midpoint meets an end.  Where M
    or p*M/(1-r^2) overflows, gap counts as positive: both rise in r, so
    the result is the family's minimum over the r where they are
    representable, still a member and still an upper bound.  Returns
    (r_star, value).
    """
    if params.h <= 0.0:
        raise DomainError(f"ad_upper_opt needs h > 0, got h={params.h}")
    p = params.p

    def rising(r: float) -> bool:
        try:
            m, q = kernel.mgf(r), 1.0 - r * r
            dphi = kernel.mgf_deriv(r) / m + 2.0 * r / q
        except MgfOverflowError:
            return True
        phi = math.log((p / q) * m)
        return r * dphi > phi or phi == math.inf

    log_r, _ = _bisect_sign(lambda t: rising(math.exp(t)),
                            math.log(sys.float_info.min), 0.0)
    r = math.exp(log_r)
    return r, ad_upper(params, kernel, r)


def _bisect_sign(rises: Callable[[float], bool], lo: float,
                 hi: float) -> tuple[float, float]:
    """Bisect [lo, hi] on a test false at lo and true at hi until the
    midpoint meets an end; return the last (lo, hi).  The midpoint halves
    each end first, so it stays finite up to the largest double."""
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        lo, hi = (lo, mid) if rises(mid) else (mid, hi)
    return lo, hi
