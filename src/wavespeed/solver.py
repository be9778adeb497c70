"""Double-root solver, fast paths, and continuation in the delay.

The critical pair (z0, eps0) is pinned down by two nested, provably
monotone 1-D problems instead of a 2-D Newton iteration:

  * inner: for fixed eps, psi(., eps) is strictly convex (psi_zz >=
    2*eps) and psi_z(0, eps) = -1 - p*h < 0, so it has a unique interior
    minimizer; min_psi finds it by bracketing the sign change of psi_z
    and polishing with safeguarded Newton.

  * outer: eps -> min_z psi(z, eps) is strictly increasing (psi_eps > 0
    for z > 0), and the explicit bound window [1/upper^2, 1/lower^2]
    from the bounds module brackets its root, so solve_critical bisects
    on its sign.  First a few safeguarded Newton steps on eps (slope
    psi_eps) certify a below point a and an above point b a few 1e-13
    apart around the root, which by monotonicity also sign the window
    ends; an end left uncertified gets one cold min_psi.  The bisection
    replays every midpoint outside (a, b) without evaluating.  Each sign
    comes from the enclosure psi - psi_z^2/(4*eps) <= min psi <= psi at
    a warm z, one psi_eval each, or from a cold min_psi when that cannot
    decide, so the decisions and the result equal those of a cold
    min_psi at every bracket end and midpoint.  The window is inflated
    by one part in 1e9 because for the point-mass kernel at h in {0, 1}
    the window degenerates to a point.

The tolerances are fixed (DEFAULT_CONFIG): eps to 1e-12 relative,
|psi_z| <= 1e-13 inside min_psi, and |psi|, |psi_z| <= 1e-9 at eps0.

On top of the direct solver:

  * solve_ivp_rho0 gives the classical seed value eps0(h=alpha) for the
    Gaussian kernel from a scalar transcendental equation;
  * cardano_w0 returns w0 = sqrt(eps)*z0 for the Gaussian kernel as the
    leftmost positive root of an explicit cubic (trigonometric form);
  * continue_ode integrates eps0'(h) = 2*eps0*G(w0) / (1 + h*G(w0))
    with classical fixed-step RK4, retrieving w0 per stage via the
    cubic (Gaussian) or, wherever that fails, via min_psi (any kernel);
    any other failed stage ends the run with its own error;
  * sweep_direct runs independent direct solves over an h-grid.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional, Sequence

from . import bounds as _bounds
from .charfun import (_EPS_FLOOR, CriticalPoint, G_value, ModelParams,
                      PsiEval, critical_point, psi_eval)
from .errors import (BracketError, ConvergenceError, CubicRootError,
                     DomainError, MgfOverflowError)
from .kernels import GaussianKernel, Kernel

_CURVE_METHODS = ("direct", "ode-continuation", "cardano-continuation")
# continuation endpoint must land this close (relative, on c*) to a
# direct solve at h_end
_ENDPOINT_RTOL = 1e-6
# how far off a continuation seed may be before we refuse to start
_ENTRY_PSI_TOL = 1e-7


class _SolverConfig(NamedTuple):
    """The solver's fixed tolerances and iteration caps, as a tuple."""

    eps_rel_tol: float = 1e-12
    residual_tol: float = 1e-9
    max_bisect: int = 200
    inner_tol: float = 1e-13
    max_inner: int = 100


DEFAULT_CONFIG = _SolverConfig()


class _SpeedCurve(NamedTuple):
    method: str
    h: tuple[float, ...]
    eps0: tuple[float, ...]
    z0: tuple[float, ...]
    c_star: tuple[float, ...]
    res_psi: tuple[float, ...]
    res_psi_z: tuple[float, ...]
    endpoint_gap: Optional[float] = None


class SpeedCurve(_SpeedCurve):
    """Sampled critical curve h -> (eps0, z0, c_star) with diagnostics.

    A tuple of the fields above; len(curve.h) counts its samples.
    Samples are ordered by strictly increasing h, and c_star must come
    out strictly decreasing; delay only ever slows the front, so a
    violation is treated as data corruption, not as an interesting
    result.  res_psi/res_psi_z are absolute residuals of
    each sample (for continuation methods they measure drift off the
    true curve).  endpoint_gap is the relative c* disagreement against
    a direct solve at the far end (continuation methods only).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.method not in _CURVE_METHODS:
            raise DomainError(
                f"method must be one of {_CURVE_METHODS}, got {self.method!r}")
        n = len(self.h)
        for name in ("eps0", "z0", "c_star", "res_psi", "res_psi_z"):
            if len(getattr(self, name)) != n:
                raise DomainError(f"curve field {name} has mismatched length")
        if n == 0:
            raise DomainError("curve needs at least one sample")
        for i in range(n - 1):
            if not self.h[i + 1] > self.h[i]:
                raise DomainError("curve h values must be strictly increasing")
            if not self.c_star[i + 1] < self.c_star[i]:
                raise DomainError(
                    f"c_star must be strictly decreasing; violated between "
                    f"h={self.h[i]:g} and h={self.h[i + 1]:g}")
        return self

    @classmethod
    def _make(cls, fields):     # so that _replace runs the checks too
        return cls(*fields)


def min_psi(eps: float, params: ModelParams, kernel: Kernel) -> tuple[float, PsiEval]:
    """Minimize the strictly convex z -> psi(z, eps); return (z_min, ev).

    psi_z(0) = -1 - p*h < 0, so the minimum is interior; the sign change
    of psi_z is bracketed by doubling from z = 1 and then polished with
    Newton safeguarded by the bracket.  ev is the psi_eval at z_min that
    stopped the search (|psi_z| <= inner_tol, or the bracket's 4-ulp
    exit), so ev.value is psi_min.  An MgfOverflowError while
    probing counts as psi_z = +inf: overflow means the kernel term has
    entered its growth regime, where its z-derivative factor is already
    positive (M'/M is increasing), so the sign information is correct
    even though the value is unrepresentable.  A non-finite psi_z or
    psi_zz in the Newton phase (the kernel term of psi_z overflowing to
    inf - inf) counts the same way.
    """
    lo = 0.0
    hi = 1.0
    for _ in range(64):
        try:
            dz_hi = psi_eval(hi, eps, params, kernel).dz
        except MgfOverflowError:
            break  # treat as positive
        if dz_hi > 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise BracketError(
            "psi_z never became positive while doubling z; "
            "parameters are outside the admissible regime")

    x = 0.5 * (lo + hi)
    dx_old = hi - lo
    dx = dx_old
    tol = DEFAULT_CONFIG.inner_tol
    for _ in range(DEFAULT_CONFIG.max_inner):
        try:
            ev = psi_eval(x, eps, params, kernel)
            overflow = not (math.isfinite(ev.dz) and math.isfinite(ev.dzz))
        except MgfOverflowError:
            overflow = True
        if overflow:
            hi = x
            x = 0.5 * (lo + hi)
            dx_old = dx = hi - lo
            continue
        if abs(ev.dz) <= tol:
            return x, ev
        if ev.dz > 0.0:
            hi = x
        else:
            lo = x
        if hi - lo <= 4.0 * 2.220446049250313e-16 * hi:
            # bracket 4 ulps wide relative to itself; |psi_z| may sit
            # above inner_tol only through its own rounding noise; if M
            # overflows there, the bracket has closed on the overflow edge
            x = 0.5 * (lo + hi)
            try:
                return x, psi_eval(x, eps, params, kernel)
            except MgfOverflowError:
                raise DomainError(
                    f"psi's minimizer at eps = {eps:.6g} lies where "
                    "M(sqrt(eps) z) leaves double range") from None
        # Newton only when it stays bracketed and keeps halving the
        # error; otherwise bisect (the far-from-root Newton step here
        # is O(1/psi_zz), which can crawl)
        leaves = (((x - hi) * ev.dzz - ev.dz)
                  * ((x - lo) * ev.dzz - ev.dz)) > 0.0
        slow = abs(2.0 * ev.dz) > abs(dx_old * ev.dzz)
        dx_old = dx
        if leaves or slow:
            dx = 0.5 * (hi - lo)
            x = 0.5 * (lo + hi)
        else:
            dx = ev.dz / ev.dzz
            x -= dx
    raise ConvergenceError(
        "inner minimization stalled above "
        f"|psi_z| <= {DEFAULT_CONFIG.inner_tol:g}")


# a sign (bracket end or midpoint) is certified only when psi clears
# this many ulps of its largest term, and after this many warm Newton
# evaluations the cold min_psi decides instead
_SIGN_ULPS = 64
_SIGN_TRIES = 3
# psi_eval calls allowed to _certified_bracket's Newton iteration on eps;
# at 16, 14 of 3000 sampled solves left the upper side uncertified and
# paid about 44 bisection midpoints for it, more than the extra tries
_BRACKET_TRIES = 32


def _enclosed_sign(ev: PsiEval, z: float,
                   eps: float) -> tuple[Optional[bool], float]:
    """Sign of a cold min_psi(eps)[1].value > 0.0 from one evaluation at z.

    psi_zz >= 2*eps, so one evaluation at z > 0 encloses the minimum:
    psi - psi_z^2/(4*eps) <= min_z psi <= psi.  A sign is taken only when
    the enclosure clears tau, a margin for the rounding of psi at z and
    at the minimizer (within |psi_z|/(2*eps) of z), so it is the sign of
    the value a cold min_psi would return.  Returns (sign or None, tau).
    """
    reach = abs(ev.dz) / (2.0 * eps)
    tau = (_SIGN_ULPS * 2.220446049250313e-16
           * (1.0 + z + eps * z * z + abs(ev.value) + reach))
    # a cold min_psi stops where |psi_z| <= inner_tol, which leaves its
    # value up to inner_tol^2/(4*eps) above the minimum
    if ev.value < -tau - DEFAULT_CONFIG.inner_tol ** 2 / (4.0 * eps):
        return False, tau
    if ev.value - ev.dz * ev.dz / (4.0 * eps) > tau:
        return True, tau
    return None, tau


def _newton_z(ev: PsiEval, z: float) -> float:
    """One Newton step of z towards the minimizer, kept positive."""
    step = z - ev.dz / ev.dzz
    return step if math.isfinite(step) and step > 0.0 else 0.5 * z


def _min_psi_sign(eps: float, z: float, params: ModelParams,
                  kernel: Kernel) -> tuple[bool, float]:
    """min_psi(eps)[1].value > 0.0 from a warm z; return it and the next z.

    The sign comes from the enclosure of _enclosed_sign; each evaluation
    moves z one Newton step towards the minimizer, which also warms the
    next call.  When _SIGN_TRIES evaluations cannot decide, one
    overflows, or one leaves undecided with its enclosure gap
    psi_z^2/(4*eps) already within tau (so only rounding is left, and
    another step cannot clear it), the cold min_psi decides, so the
    result always equals the cold comparison.
    """
    for _ in range(_SIGN_TRIES):
        try:
            ev = psi_eval(z, eps, params, kernel)
        except MgfOverflowError:
            break
        above, tau = _enclosed_sign(ev, z, eps)
        z = _newton_z(ev, z)
        if above is not None:
            return above, z
        if ev.dz * ev.dz / (4.0 * eps) <= tau:
            break
    z, ev = min_psi(eps, params, kernel)
    return ev.value > 0.0, z


def _window_end(eps: float, upper: bool, params: ModelParams,
                kernel: Kernel) -> float:
    """A window end whose cold min_psi sign is checked.

    A lower end must be below (psi_min(eps) < 0), and is halved up to
    8 times until it is.  An upper end is proven above (> 0); a wider
    window would only yield a speed outside it, so any other sign there
    raises BracketError.  Each sign is that of one cold min_psi, as in
    plain bisection.
    """
    for _ in range(1 if upper else 9):
        f = min_psi(eps, params, kernel)[1].value
        if (f > 0.0) if upper else (f < 0.0):
            return eps
        eps *= 0.5
    eps *= 2.0
    end = "the proven upper end" if upper else "the lower end, halved 8 times,"
    raise BracketError(f"psi_min is {f:.3g} at {end} eps = {eps:.17g}")


def _eps_bracket(lower: float, upper: float, params: ModelParams,
                 kernel: Kernel) -> tuple[float, float, float, float, float]:
    """Eps bracket (lo, a, b, hi, z): lo <= a < b <= hi around eps0.

    a is below (psi_min(a) < 0) and b above (> 0), and so, as
    psi_min increases in eps, is every eps <= a and every eps >= b; z is
    a warm iterate near eps0.  lo and hi start as the explicit bound
    window, inflated by one part in 1e9, and _certified_bracket runs on
    it first.  A certified a >= lo proves the lower end's sign, and a
    certified b <= hi the upper end's, so no end is evaluated then.  An
    end that stays uncertified takes its sign from _window_end, which
    halves lo as needed (hi must be above already, or it raises), and
    serves as a or b itself.  The window therefore equals that of
    checking both ends cold.  A lower bound whose square is below the
    smallest normal double (a delay near 1e154 or longer) would put hi
    out of double range, and an upper bound above about 1e6 puts lo
    below charfun's eps floor (to 0 past 1.3e154), so both raise
    DomainError first.
    """
    if not (0.0 < lower <= upper * (1.0 + 1e-12)):
        raise BracketError(
            f"bound window [{lower:g}, {upper:g}] is invalid; "
            "this indicates a bug, not bad input")
    if lower * lower < sys.float_info.min:
        raise DomainError(
            f"the lower speed bound {lower:.3g} is below 1.5e-154, so "
            f"eps = 1/c^2 would leave double range (h = {params.h:g})")
    lo = (1.0 - 1e-9) / (upper * upper)
    if lo < _EPS_FLOOR:
        raise DomainError(
            f"the upper speed bound {upper:.3g} puts the window's end "
            f"eps = 1/c^2 below the floor {_EPS_FLOOR:g} (h = {params.h:g})")
    hi = (1.0 + 1e-9) / (lower * lower)
    a, b, z = _certified_bracket(lo, hi, params, kernel)
    if a is None:
        a = lo = _window_end(lo, False, params, kernel)
    if b is None:
        b = hi = _window_end(hi, True, params, kernel)
    return lo, a, b, hi, z


def _certified_bracket(
        lo: float, hi: float, params: ModelParams, kernel: Kernel
) -> tuple[Optional[float], Optional[float], float]:
    """Certify a below point a and an above point b near eps0; return (a, b, z).

    Safeguarded Newton on eps -> psi_min(eps) inside the window
    [lo, hi], whose ends' signs are not known, started at lo with
    w = sqrt(eps)*z = 1.  Each evaluation estimates psi_min ~ psi -
    psi_z^2/(2*psi_zz), with slope psi_eps, and moves z one Newton step.
    Where the evaluation's enclosure clears rounding (_enclosed_sign),
    eps becomes a (a cold psi_min(eps) < 0) or b (> 0); psi_min
    increases in eps, so every eps <= a is below and every eps >= b
    above.  While z is too far off for that estimate (the psi_z^2 term
    outweighs psi) the next evaluation stays at eps.  Otherwise eps aims
    a band past the Newton root, where psi clears tau twice over, on the
    side whose end is farther from it; an uncertified end is the window
    end, which lies far out, so this aims at the uncertified side.  An
    iterate outside the ends bisects instead.  w, which moves little
    with eps, follows the secant of its last two estimates, unless that
    would halve or double it.  An end left uncertified is None.
    """
    a = b = None
    eps = eps_prev = lo
    z = 1.0 / math.sqrt(lo)
    w_prev = 1.0
    for _ in range(_BRACKET_TRIES):
        try:
            ev = psi_eval(z, eps, params, kernel)
        except MgfOverflowError:
            break
        sign, tau = _enclosed_sign(ev, z, eps)
        if sign is True:
            b = eps
        elif sign is False:
            a = eps
        if not (ev.dzz > 0.0 and ev.deps > 0.0):
            break
        z = _newton_z(ev, z)
        drop = 0.5 * ev.dz * ev.dz / ev.dzz
        band = (2.0 * (tau + DEFAULT_CONFIG.inner_tol ** 2 / (4.0 * eps))
                / ev.deps)
        left = lo if a is None else a
        right = hi if b is None else b
        if right - left <= max(DEFAULT_CONFIG.eps_rel_tol * right, 4.0 * band):
            break
        if drop > 0.5 * abs(ev.value):
            continue
        root = eps - (ev.value - drop) / ev.deps
        nxt = root + band if right - root > root - left else root - band
        if not left < nxt < right:
            nxt = 0.5 * (left + right)
        w = math.sqrt(eps) * z
        dw = (w - w_prev) / (eps - eps_prev) if eps != eps_prev else 0.0
        guess = w + dw * (nxt - eps)
        eps_prev, w_prev, eps = eps, w, nxt
        if not w / 2.0 < guess < w * 2.0:
            guess = w
        z = guess / math.sqrt(eps)
    return a, b, z


def solve_critical(params: ModelParams, kernel: Kernel) -> CriticalPoint:
    """Direct double-root solve by bisection on eps -> psi_min(eps).

    The initial eps bracket comes from the explicit bound window; the
    window is guaranteed (strictly for spread-out kernels, degenerately
    for the point mass) to contain 1/c*^2, and psi_min is strictly
    increasing in eps, so bisection cannot fail.  First a few Newton
    steps on eps certify a below point a and an above point b a few
    1e-13 (relative) either side of eps0 (_certified_bracket); they
    also prove the window ends' signs, and only an end left uncertified
    is evaluated (_eps_bracket).  The bisection replays every midpoint
    <= a as below and >= b as above with no evaluation.  Each midpoint
    inside (a, b) takes its sign from a warm Newton iterate z whenever
    the enclosure of psi_min at z clears rounding, and from a cold
    min_psi otherwise (_min_psi_sign); eps0 gets a cold min_psi, and the
    PsiEval it stopped on is the certificate (critical_point packages
    it).  Every decision equals the cold one, so the result is that of
    bisection with a cold min_psi at every bracket end and midpoint.
    The point is certified: |psi|, |psi_z| <= 1e-9, psi_zz, psi_eps > 0
    and c* in the window to 1e-12 (relative), or ConvergenceError.
    """
    lower, upper = _bounds.bound_window(params, kernel)
    lo, below, above, hi, z = _eps_bracket(lower, upper, params, kernel)
    for _ in range(DEFAULT_CONFIG.max_bisect):
        if hi - lo <= DEFAULT_CONFIG.eps_rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            positive, z = _min_psi_sign(mid, z, params, kernel)
            if positive:
                hi = mid
            else:
                lo = mid
    else:
        raise ConvergenceError(
            f"eps bisection did not reach rel tol {DEFAULT_CONFIG.eps_rel_tol:g} "
            f"within {DEFAULT_CONFIG.max_bisect} iterations")

    eps0 = 0.5 * (lo + hi)
    z0, ev = min_psi(eps0, params, kernel)
    cp = critical_point(z0, eps0, ev)
    tol = DEFAULT_CONFIG.residual_tol
    if cp.res_psi > tol or cp.res_psi_z > tol:
        raise ConvergenceError(
            f"critical point residuals ({cp.res_psi:.3g}, {cp.res_psi_z:.3g}) "
            f"exceed {tol:g}")
    if not (cp.psi_zz > 0.0 and cp.psi_eps > 0.0):
        raise ConvergenceError(
            "transversality certificate failed (psi_zz or psi_eps <= 0)")
    if not lower * (1.0 - 1e-12) <= cp.c_star <= upper * (1.0 + 1e-12):
        raise ConvergenceError(f"c* = {cp.c_star:.17g} lies outside its "
                               f"bound window [{lower:.17g}, {upper:.17g}]")
    return cp


def solve_ivp_rho0(p: float, alpha: float) -> float:
    """Seed value eps0(h=alpha) for the Gaussian kernel.

    Solves 1 + 1/(4*rho) = p * exp(-alpha/(4*rho)) for rho > 0 via the
    substitution x = 1/(4*rho), where 1 + x crosses the decreasing
    p*exp(-alpha*x) exactly once on (0, p).  Bisection to adjacent
    doubles, then two Newton polish steps; answers for every p > 1.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"solve_ivp_rho0 needs p > 1, got {p}")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"solve_ivp_rho0 needs alpha > 0, got {alpha}")

    def f(x: float) -> float:
        return 1.0 + x - p * math.exp(-alpha * x)

    lo, hi = _bounds._bisect_sign(lambda x: not f(x) < 0.0, 0.0, float(p))
    x = 0.5 * lo + 0.5 * hi
    for _ in range(2):
        x -= f(x) / (1.0 + alpha * p * math.exp(-alpha * x))
    return 0.25 / x


def _real_cubic_roots(a3: float, a2: float, a1: float, a0: float) -> list[float]:
    """All real roots of a3*w^3 + a2*w^2 + a1*w + a0 (trigonometric form).

    Requires a nonnegative discriminant (three real roots, counted with
    multiplicity); raises CubicRootError otherwise instead of silently
    returning a complex pair's real part.
    """
    b = a2 / a3
    c = a1 / a3
    d = a0 / a3
    # depressed cubic t^3 + pc*t + qc with w = t - b/3
    pc = c - b * b / 3.0
    qc = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    disc = -4.0 * pc ** 3 - 27.0 * qc * qc
    scale = max(1.0, abs(pc) ** 3, qc * qc)
    if disc < -1e-10 * scale:
        raise CubicRootError(
            f"cubic discriminant {disc:.3g} < 0: the three-real-roots "
            "assumption failed for these coefficients")
    if pc >= 0.0:
        # only possible (with disc >= 0) when pc ~ 0 ~ qc: near-triple root
        t = math.copysign(abs(qc) ** (1.0 / 3.0), -qc)
        roots = [t - b / 3.0]
    else:
        m = 2.0 * math.sqrt(-pc / 3.0)
        arg = 3.0 * qc / (pc * m)
        arg = max(-1.0, min(1.0, arg))
        theta = math.acos(arg) / 3.0
        roots = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) - b / 3.0
                 for k in range(3)]
    # one Newton polish per root against the original coefficients
    polished = []
    for w in roots:
        fw = ((a3 * w + a2) * w + a1) * w + a0
        dfw = (3.0 * a3 * w + 2.0 * a2) * w + a1
        if dfw != 0.0:
            w -= fw / dfw
        polished.append(w)
    return sorted(polished)


def cardano_w0(eps: float, h: float, alpha: float) -> float:
    """Gaussian fast path: w0 as the leftmost positive root of a cubic.

    For the Gaussian kernel the ratio of the two w-form equations
    collapses to

        (w^2 - w/sqrt(eps) - 1) * (2*sqrt(eps)*alpha*w - h)
            + 1 - 2*sqrt(eps)*w = 0,

    a cubic in w whose smallest positive root is the critical w0 when
    eps lies on the critical curve.  Coefficients: a3 = 2*sqrt(eps)*alpha,
    a2 = -(h + 2*alpha), a1 = h/sqrt(eps) - 2*sqrt(eps)*(1 + alpha),
    a0 = 1 + h.  The three-real-roots property is checked at runtime via
    the discriminant rather than assumed; that check, a3 < 1e-14, no
    positive root and the root's residual each raise CubicRootError.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"cardano_w0 needs eps > 0, got {eps}")
    if not (math.isfinite(h) and h >= 0.0):
        raise DomainError(f"cardano_w0 needs h >= 0, got {h}")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"cardano_w0 needs alpha > 0, got {alpha}")
    se = math.sqrt(eps)
    a3 = 2.0 * se * alpha
    if a3 < 1e-14:
        raise CubicRootError(
            f"leading coefficient 2*sqrt(eps)*alpha = {a3:.3g} is numerically "
            "zero; use the generic minimizer path")
    a2 = -(h + 2.0 * alpha)
    a1 = h / se - 2.0 * se * (1.0 + alpha)
    a0 = 1.0 + h
    roots = _real_cubic_roots(a3, a2, a1, a0)
    positive = [w for w in roots if w > 0.0]
    if not positive:
        raise CubicRootError(
            f"cubic has no positive root at eps={eps:g}, h={h:g}, "
            f"alpha={alpha:g}: eps is outside the critical curve's range")
    w0 = positive[0]
    res = abs(((a3 * w0 + a2) * w0 + a1) * w0 + a0)
    scale = abs(a3 * w0 ** 3) + abs(a2 * w0 * w0) + abs(a1 * w0) + abs(a0)
    if res > 1e-12 * max(scale, 1.0):
        raise CubicRootError(
            f"polished root residual {res:.3g} exceeds tolerance")
    return w0


def _w0_on_curve(p: float, kernel: Kernel, h: float, eps: float) -> float:
    """w0 = sqrt(eps)*argmin psi at a point assumed on the critical curve:
    the Gaussian cubic, or min_psi for other kernels and on CubicRootError."""
    if isinstance(kernel, GaussianKernel):
        try:
            return cardano_w0(eps, h, kernel.alpha)
        except CubicRootError:
            pass
    z, _ = min_psi(eps, ModelParams(p=p, h=h), kernel)
    return math.sqrt(eps) * z


def continue_ode(p: float, kernel: Kernel, h0: float, eps_init: float,
                 h_end: float, steps: int) -> SpeedCurve:
    """Trace eps0(h) from a seed by integrating its defining ODE.

        eps0'(h) = 2*eps0*G(w0) / (1 + h*G(w0)),  G(w) = 1 + w/sqrt(eps0) - w^2

    Classical fixed-step RK4 over `steps` steps from h0 to h_end (either
    direction); at every stage w0 is retrieved with the Gaussian cubic
    when available, else (or on CubicRootError) with the generic
    minimizer.  Any other stage failure ends the run with its own class;
    a stage ConvergenceError names the stage, and it and a stage or step
    that takes eps to zero, below or out of range ask for more steps.
    The seed must already satisfy |psi_min(eps_init)| <= 1e-7 and the
    endpoint is cross-checked against a direct solve at h_end.
    """
    if not (isinstance(steps, int) and steps >= 1):
        raise DomainError(f"steps must be an integer >= 1, got {steps}")
    if not (math.isfinite(eps_init) and eps_init > 0.0):
        raise DomainError(f"eps_init must be positive, got {eps_init}")
    params0 = ModelParams(p=p, h=h0)  # validates p, h0
    ModelParams(p=p, h=h_end)
    psi_seed = min_psi(eps_init, params0, kernel)[1].value
    if abs(psi_seed) > _ENTRY_PSI_TOL:
        raise DomainError(
            f"eps_init={eps_init:g} is not on the critical curve at h={h0:g} "
            f"(|psi_min| = {abs(psi_seed):.3g} > {_ENTRY_PSI_TOL:g})")

    def checked(h: float, eps: float) -> float:
        if not (math.isfinite(eps) and eps > 0.0):
            raise ConvergenceError(
                f"continuation stepped eps to {eps:g} at h={h:g}; "
                "increase steps")
        return eps

    def slope(h: float, eps: float) -> tuple[float, float]:
        checked(h, eps)
        try:
            w0 = _w0_on_curve(p, kernel, h, eps)
        except ConvergenceError as exc:     # a stage far off the curve
            raise ConvergenceError(
                f"{exc} in the stage at h={h:g}, eps={eps:.6g}; "
                "increase steps") from None
        g = G_value(w0, eps)
        return w0, 2.0 * eps * g / (1.0 + h * g)

    # each sample's w0 is its step's first stage; the last one's comes later
    hs, epss, w0s = [h0], [eps_init], []
    for i in range(1, steps + 1 if h_end != h0 else 1):
        h, eps = hs[-1], epss[-1]
        h_next = h0 + (h_end - h0) * i / steps
        dh = h_next - h
        w0, s1 = slope(h, eps)
        _, s2 = slope(h + 0.5 * dh, eps + 0.5 * dh * s1)
        _, s3 = slope(h + 0.5 * dh, eps + 0.5 * dh * s2)
        _, s4 = slope(h + dh, eps + dh * s3)
        hs.append(h_next)
        epss.append(checked(h_next, eps + dh * (s1 + 2.0 * s2 + 2.0 * s3
                                                + s4) / 6.0))
        w0s.append(w0)

    cp_end = solve_critical(ModelParams(p=p, h=h_end), kernel)
    c_end = 1.0 / math.sqrt(epss[-1])
    gap = abs(c_end - cp_end.c_star) / cp_end.c_star
    if gap > _ENDPOINT_RTOL:
        raise ConvergenceError(
            f"continuation endpoint drifted {gap:.3g} (relative on c*) from "
            f"the direct solve at h={h_end:g}; increase steps")

    w0s.append(_w0_on_curve(p, kernel, hs[-1], epss[-1]))
    if hs[-1] < hs[0]:
        hs.reverse()
        epss.reverse()
        w0s.reverse()
    z0s, res_p, res_pz = [], [], []
    for h_i, eps_i, w0 in zip(hs, epss, w0s):
        z_i = w0 / math.sqrt(eps_i)
        ev = psi_eval(z_i, eps_i, ModelParams(p=p, h=h_i), kernel)
        z0s.append(z_i)
        res_p.append(abs(ev.value))
        res_pz.append(abs(ev.dz))

    return SpeedCurve(
        method=("cardano-continuation" if isinstance(kernel, GaussianKernel)
                else "ode-continuation"),
        h=tuple(hs),
        eps0=tuple(epss),
        z0=tuple(z0s),
        c_star=tuple(1.0 / math.sqrt(e) for e in epss),
        res_psi=tuple(res_p),
        res_psi_z=tuple(res_pz),
        endpoint_gap=gap,
    )


def sweep_direct(p: float, kernel: Kernel, h_values: Sequence[float]) -> SpeedCurve:
    """Independent direct solves over an h-grid, ordered by h.

    The grid is sorted and deduplicated; a point that fails raises.
    """
    hs = sorted(set(float(h) for h in h_values))
    if not hs:
        raise DomainError("sweep_direct needs at least one h value")
    cps = [solve_critical(ModelParams(p=p, h=h), kernel) for h in hs]
    return SpeedCurve(
        method="direct",
        h=tuple(hs),
        eps0=tuple(cp.eps0 for cp in cps),
        z0=tuple(cp.z0 for cp in cps),
        c_star=tuple(cp.c_star for cp in cps),
        res_psi=tuple(cp.res_psi for cp in cps),
        res_psi_z=tuple(cp.res_psi_z for cp in cps),
    )
