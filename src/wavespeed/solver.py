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
    on its sign.  Every sign it needs comes from the enclosure
    psi - psi_z^2/(4*eps) <= min psi <= psi at a warm z, one psi_eval
    each, with a cold min_psi only when that cannot decide: the bracket
    ends, a few safeguarded Newton steps on eps (slope psi_eps) that
    certify a below point a and an above point b a few 1e-13 apart
    around the root, and the midpoints inside (a, b).  The bisection
    replays every midpoint outside (a, b) without evaluating.  So the
    decisions and the result equal those of a cold min_psi at every
    bracket end and midpoint.  The window is inflated by one part in
    1e9 because for the point-mass kernel at h in {0, 1} the window
    degenerates to a point.

The tolerances are fixed (DEFAULT_CONFIG): eps to 1e-12 relative,
|psi_z| <= 1e-13 inside min_psi, and |psi|, |psi_z| <= 1e-9 at eps0.

On top of the direct solver:

  * solve_ivp_rho0 gives the classical seed value eps0(h=alpha) for the
    Gaussian kernel from a scalar transcendental equation;
  * cardano_w0 returns w0 = sqrt(eps)*z0 for the Gaussian kernel as the
    leftmost positive root of an explicit cubic (trigonometric form);
  * continue_ode integrates eps0'(h) = 2*eps0*G(w0) / (1 + h*G(w0))
    with classical fixed-step RK4, retrieving w0 per stage via the
    cubic (Gaussian) or via min_psi (any kernel);
  * sweep_direct runs independent direct solves over an h-grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import bounds as _bounds
from .charfun import (CriticalPoint, G_value, ModelParams, PsiEval,
                      critical_point, psi_eval)
from .errors import (BracketError, ConvergenceError, CubicRootError,
                     DegenerateCubicError, DomainError, MgfOverflowError,
                     NumericalError)
from .kernels import GaussianKernel, Kernel

_CURVE_METHODS = ("direct", "ode-continuation", "cardano-continuation")
# continuation endpoint must land this close (relative, on c*) to a
# direct solve at h_end
_ENDPOINT_RTOL = 1e-6
# how far off a continuation seed may be before we refuse to start
_ENTRY_PSI_TOL = 1e-7


@dataclass(frozen=True)
class _SolverConfig:
    """The solver's fixed tolerances and iteration caps."""

    eps_rel_tol: float = 1e-12
    residual_tol: float = 1e-9
    max_bisect: int = 200
    inner_tol: float = 1e-13
    max_inner: int = 100


DEFAULT_CONFIG = _SolverConfig()


@dataclass(frozen=True)
class SpeedCurve:
    """Sampled critical curve h -> (eps0, z0, c_star) with diagnostics.

    Samples are ordered by strictly increasing h, and c_star must come
    out strictly decreasing; delay only ever slows the front, so a
    violation is treated as data corruption, not as an interesting
    result.  res_psi/res_psi_z are absolute residuals of
    each sample (for continuation methods they measure drift off the
    true curve).  endpoint_gap is the relative c* disagreement against
    a direct solve at the far end (continuation methods only).
    """

    method: str
    h: tuple[float, ...]
    eps0: tuple[float, ...]
    z0: tuple[float, ...]
    c_star: tuple[float, ...]
    res_psi: tuple[float, ...]
    res_psi_z: tuple[float, ...]
    endpoint_gap: Optional[float] = None

    def __post_init__(self):
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

    def __len__(self) -> int:
        return len(self.h)


def min_psi(eps: float, params: ModelParams, kernel: Kernel) -> tuple[float, float]:
    """Minimize the strictly convex z -> psi(z, eps); return (z_min, psi_min).

    psi_z(0) = -1 - p*h < 0, so the minimum is interior; the sign change
    of psi_z is bracketed by doubling from z = 1 and then polished with
    Newton safeguarded by the bracket.  An MgfOverflowError while
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
        if abs(ev.dz) <= DEFAULT_CONFIG.inner_tol:
            return x, ev.value
        if ev.dz > 0.0:
            hi = x
        else:
            lo = x
        if hi - lo <= 4.0 * 2.220446049250313e-16 * max(1.0, hi):
            # bracket exhausted at float resolution; |psi_z| may sit
            # above inner_tol only through its own rounding noise
            x = 0.5 * (lo + hi)
            ev = psi_eval(x, eps, params, kernel)
            return x, ev.value
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
# psi_eval calls allowed to _certified_bracket's Newton iteration on eps
_BRACKET_TRIES = 16


def _enclosed_sign(ev: PsiEval, z: float,
                   eps: float) -> tuple[Optional[bool], float]:
    """Sign of a cold min_psi(eps)[1] > 0.0 from one evaluation at z.

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
                  kernel: Kernel) -> tuple[float, float]:
    """Sign of min_psi(eps)[1] from a warm z; return it and the next z.

    The sign comes from the enclosure of _enclosed_sign, as +-1.0; each
    evaluation moves z one Newton step towards the minimizer, which also
    warms the next call.  When _SIGN_TRIES evaluations cannot decide, or
    one overflows, the cold min_psi(eps)[1] itself is returned, so every
    comparison of the result with 0.0 equals the cold one.
    """
    for _ in range(_SIGN_TRIES):
        try:
            ev = psi_eval(z, eps, params, kernel)
        except MgfOverflowError:
            break
        above, _ = _enclosed_sign(ev, z, eps)
        z = _newton_z(ev, z)
        if above is not None:
            return (1.0 if above else -1.0), z
    z, f = min_psi(eps, params, kernel)
    return f, z


def _eps_bracket(params: ModelParams,
                 kernel: Kernel) -> tuple[float, float, float]:
    """Eps bracket (lo, z_lo, hi): min_psi(lo)[1] < 0 < min_psi(hi)[1].

    It starts from the explicit bound window, inflated by one part in
    1e9, and halves lo or doubles hi (up to 8 times) until the signs
    straddle 0.  Each sign is that of a cold min_psi, taken through
    _min_psi_sign: the lower end starts at z = 1, where the cold search
    starts, and every other end at the previous z rescaled to keep
    w = sqrt(eps)*z.  z_lo is the warm z at lo, not its minimizer.
    """
    lower, upper = _bounds.bound_window(params, kernel)
    if not (0.0 < lower <= upper * (1.0 + 1e-12)):
        raise BracketError(
            f"bound window [{lower:g}, {upper:g}] is invalid; "
            "this indicates a bug, not bad input")
    eps_lo = (1.0 - 1e-9) / (upper * upper)
    eps_hi = (1.0 + 1e-9) / (lower * lower)

    f_lo, z_lo = _min_psi_sign(eps_lo, 1.0, params, kernel)
    for _ in range(8):
        if f_lo < 0.0:
            break
        eps_lo *= 0.5
        f_lo, z_lo = _min_psi_sign(eps_lo, z_lo * math.sqrt(2.0), params,
                                   kernel)
    z = z_lo * math.sqrt(eps_lo / eps_hi)
    f_hi, z = _min_psi_sign(eps_hi, z, params, kernel)
    for _ in range(8):
        if f_hi > 0.0:
            break
        eps_hi *= 2.0
        f_hi, z = _min_psi_sign(eps_hi, z * math.sqrt(0.5), params, kernel)
    if not (f_lo < 0.0 < f_hi):
        raise BracketError(
            f"psi_min has no sign change over eps in [{eps_lo:g}, {eps_hi:g}]")
    return eps_lo, z_lo, eps_hi


def _certified_bracket(lo: float, hi: float, z: float, params: ModelParams,
                       kernel: Kernel) -> tuple[float, float, float]:
    """Certify a below point a and an above point b near eps0; return (a, b, z).

    Safeguarded Newton on eps -> psi_min(eps), started at lo with z a
    warm iterate there, not necessarily the minimizer.  Each evaluation
    estimates psi_min ~ psi - psi_z^2/(2*psi_zz), with slope psi_eps,
    and moves z one Newton step.
    Where the evaluation's enclosure clears rounding (_enclosed_sign),
    eps becomes a (a cold min_psi(eps)[1] < 0) or b (> 0); psi_min
    increases in eps, so every eps <= a is below and every eps >= b
    above.  While z is too far off for that estimate (the psi_z^2 term
    outweighs psi) the next evaluation stays at eps.  Otherwise eps aims
    a band past the Newton root, on the side whose certified end is
    farther from it, where psi clears tau twice over; an iterate outside
    (a, b) bisects instead.  w = sqrt(eps)*z, which moves little with
    eps, follows the secant of its last two estimates.  The ends only
    ever shrink from (lo, hi), which is itself a valid answer.
    """
    a, b = lo, hi
    eps = eps_prev = lo
    w_prev = math.sqrt(lo) * z
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
        if b - a <= max(DEFAULT_CONFIG.eps_rel_tol * b, 4.0 * band):
            break
        if drop > 0.5 * abs(ev.value):
            continue
        root = eps - (ev.value - drop) / ev.deps
        nxt = root + band if b - root > root - a else root - band
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
        w = math.sqrt(eps) * z
        dw = (w - w_prev) / (eps - eps_prev) if eps != eps_prev else 0.0
        guess = w + dw * (nxt - eps)
        eps_prev, w_prev, eps = eps, w, nxt
        if not (math.isfinite(guess) and guess > 0.0):
            guess = w
        z = guess / math.sqrt(eps)
    return a, b, z


def solve_critical(params: ModelParams, kernel: Kernel) -> CriticalPoint:
    """Direct double-root solve by bisection on eps -> psi_min(eps).

    The initial eps bracket comes from the explicit bound window; the
    window is guaranteed (strictly for spread-out kernels, degenerately
    for the point mass) to contain 1/c*^2, and psi_min is strictly
    increasing in eps, so bisection cannot fail.  A few Newton steps on
    eps certify a below point a and an above point b a few 1e-13
    (relative) either side of eps0 (_certified_bracket), and the
    bisection replays every midpoint <= a as below and >= b as above
    with no evaluation.  The bracket ends and each midpoint inside
    (a, b) take their signs from a warm Newton iterate z whenever the
    enclosure of psi_min at z clears rounding, and from a cold min_psi
    otherwise (_min_psi_sign); eps0 gets a cold min_psi.  Every decision
    equals the cold one, so the result is that of bisection with a cold
    min_psi at every bracket end and midpoint.
    The returned point carries residuals and the positivity certificate
    (psi_zz, psi_eps); residuals above 1e-9 raise ConvergenceError.
    """
    lo, z_lo, hi = _eps_bracket(params, kernel)
    below, above, z = _certified_bracket(lo, hi, z_lo, params, kernel)
    for _ in range(DEFAULT_CONFIG.max_bisect):
        if hi - lo <= DEFAULT_CONFIG.eps_rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            f, z = _min_psi_sign(mid, z, params, kernel)
            if f > 0.0:
                hi = mid
            else:
                lo = mid
    else:
        raise ConvergenceError(
            f"eps bisection did not reach rel tol {DEFAULT_CONFIG.eps_rel_tol:g} "
            f"within {DEFAULT_CONFIG.max_bisect} iterations")

    eps0 = 0.5 * (lo + hi)
    z0, _ = min_psi(eps0, params, kernel)
    cp = critical_point(z0, eps0, params, kernel)
    tol = DEFAULT_CONFIG.residual_tol
    if cp.res_psi > tol or cp.res_psi_z > tol:
        raise ConvergenceError(
            f"critical point residuals ({cp.res_psi:.3g}, {cp.res_psi_z:.3g}) "
            f"exceed {tol:g}")
    if not (cp.psi_zz > 0.0 and cp.psi_eps > 0.0):
        raise ConvergenceError(
            "transversality certificate failed (psi_zz or psi_eps <= 0)")
    return cp


def solve_ivp_rho0(p: float, alpha: float) -> float:
    """Seed value eps0(h=alpha) for the Gaussian kernel.

    Solves 1 + 1/(4*rho) = p * exp(-alpha/(4*rho)) for rho > 0 via the
    substitution x = 1/(4*rho), where 1 + x crosses the decreasing
    p*exp(-alpha*x) exactly once on (0, p).  Bisection plus two Newton
    polish steps; accurate to full double precision.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise DomainError(f"solve_ivp_rho0 needs p > 1, got {p}")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"solve_ivp_rho0 needs alpha > 0, got {alpha}")

    def f(x: float) -> float:
        return 1.0 + x - p * math.exp(-alpha * x)

    lo, hi = 0.0, float(p)  # f(0) = 1 - p < 0, f(p) >= 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(2):
        x -= f(x) / (1.0 + alpha * p * math.exp(-alpha * x))
    return 1.0 / (4.0 * x)


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
    the discriminant rather than assumed.
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
        raise DegenerateCubicError(
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
    """w0 = sqrt(eps)*argmin psi at a point assumed on the critical curve."""
    if isinstance(kernel, GaussianKernel):
        try:
            return cardano_w0(eps, h, kernel.alpha)
        except DegenerateCubicError:
            pass
    z, _ = min_psi(eps, ModelParams(p=p, h=h), kernel)
    return math.sqrt(eps) * z


def continue_ode(p: float, kernel: Kernel, h0: float, eps_init: float,
                 h_end: float, steps: int) -> SpeedCurve:
    """Trace eps0(h) from a seed by integrating its defining ODE.

        eps0'(h) = 2*eps0*G(w0) / (1 + h*G(w0)),  G(w) = 1 + w/sqrt(eps0) - w^2

    Classical fixed-step RK4 over `steps` steps from h0 to h_end (either
    direction); at every stage w0 is retrieved with the Gaussian cubic
    when available, otherwise with the generic minimizer.  A stage
    failure triggers step halving (up to 4 levels) before giving up.
    The seed must already satisfy |psi_min(eps_init)| <= 1e-7 and the
    endpoint is cross-checked against a direct solve at h_end.
    """
    if not (isinstance(steps, int) and steps >= 1):
        raise DomainError(f"steps must be an integer >= 1, got {steps}")
    if not (math.isfinite(eps_init) and eps_init > 0.0):
        raise DomainError(f"eps_init must be positive, got {eps_init}")
    params0 = ModelParams(p=p, h=h0)  # validates p, h0
    ModelParams(p=p, h=h_end)
    _, psi_seed = min_psi(eps_init, params0, kernel)
    if abs(psi_seed) > _ENTRY_PSI_TOL:
        raise DomainError(
            f"eps_init={eps_init:g} is not on the critical curve at h={h0:g} "
            f"(|psi_min| = {abs(psi_seed):.3g} > {_ENTRY_PSI_TOL:g})")

    use_cardano = isinstance(kernel, GaussianKernel)
    # w0 at every stage point; stage s1 of each step starts at a sample,
    # so the samples below read their w0 from here
    w0s: dict[tuple[float, float], float] = {}

    def w0_at(h: float, eps: float) -> float:
        w0 = w0s.get((h, eps))
        if w0 is None:
            w0 = w0s[(h, eps)] = _w0_on_curve(p, kernel, h, eps)
        return w0

    def slope(h: float, eps: float) -> float:
        w0 = w0_at(h, eps)
        g = G_value(w0, eps)
        return 2.0 * eps * g / (1.0 + h * g)

    def rk4(h: float, eps: float, dh: float) -> float:
        s1 = slope(h, eps)
        s2 = slope(h + 0.5 * dh, eps + 0.5 * dh * s1)
        s3 = slope(h + 0.5 * dh, eps + 0.5 * dh * s2)
        s4 = slope(h + dh, eps + dh * s3)
        return eps + dh * (s1 + 2.0 * s2 + 2.0 * s3 + s4) / 6.0

    def advance(h: float, eps: float, dh: float) -> float:
        pieces = [(h, dh, 0)]         # (start, length, halvings); next on top
        while pieces:
            start, length, depth = pieces.pop()
            try:
                eps = rk4(start, eps, length)
            except NumericalError:
                if depth >= 4:
                    raise ConvergenceError(
                        f"continuation stage kept failing near h={start:g} "
                        "after 4 step halvings") from None
                half = 0.5 * length
                pieces += [(start + half, half, depth + 1),
                           (start, half, depth + 1)]
        return eps

    hs = [h0]
    epss = [eps_init]
    if h_end != h0:
        h_cur, eps_cur = h0, eps_init
        for i in range(1, steps + 1):
            h_next = h0 + (h_end - h0) * i / steps
            eps_cur = advance(h_cur, eps_cur, h_next - h_cur)
            h_cur = h_next
            hs.append(h_cur)
            epss.append(eps_cur)

    cp_end = solve_critical(ModelParams(p=p, h=h_end), kernel)
    c_end = 1.0 / math.sqrt(epss[-1])
    gap = abs(c_end - cp_end.c_star) / cp_end.c_star
    if gap > _ENDPOINT_RTOL:
        raise ConvergenceError(
            f"continuation endpoint drifted {gap:.3g} (relative on c*) from "
            f"the direct solve at h={h_end:g}; increase steps")

    if hs[-1] < hs[0]:
        hs.reverse()
        epss.reverse()
    z0s, res_p, res_pz = [], [], []
    for h_i, eps_i in zip(hs, epss):
        w0 = w0_at(h_i, eps_i)
        z_i = w0 / math.sqrt(eps_i)
        ev = psi_eval(z_i, eps_i, ModelParams(p=p, h=h_i), kernel)
        z0s.append(z_i)
        res_p.append(abs(ev.value))
        res_pz.append(abs(ev.dz))

    method = "cardano-continuation" if use_cardano else "ode-continuation"
    return SpeedCurve(
        method=method,
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
