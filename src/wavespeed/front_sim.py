"""Direct simulation of the delayed nonlocal front model.

Integrates u_t = u_xx - u + (K * g(u(t-h, .)))(x) on [0, L] with
zero-flux (Neumann) boundaries, by one positive macro step per Delta
time units.  A step at g's positive equilibrium on [0, init_width]
spreads rightward; the measured front speed should match the minimal
wave speed from the solver, which is the cross-validation this module
exists for.

The macro step equals m explicit Euler substeps of length delta =
Delta/m (central-difference Laplacian, mirror ghosts), with the
delayed forcing F_j = K * g(u_{j-N}) interpolated linearly across the
step at each substep's midpoint.  Folding the substeps together gives

    u_{n+1} = S u_n + Pa F_n + Pb F_{n+1},

with S = s1^{*m} for s1 = [r, 1 - delta - 2r, r], r = delta/dx^2, and
Pa, Pb = delta * sum_k (1 - theta_k, theta_k) s1^{*(m-1-k)}, theta_k =
(k + 1/2)/m.  Each forcing slice is convolved with K once, however
many substeps the stencils stand for.

Fixed choices, none of them settable:

  * Delta = 0.1, snapped so that h = N*Delta (Delta = h/ceil(h/0.1));
    at h = 0, N = 0 and the missing F_{n+1} comes from the predictor
    S u_n + (Pa + Pb) F_n.
  * m = ceil(Delta/(0.45*dx^2)) keeps s1, and so S, Pa and Pb,
    nonnegative; their weights sum to 1, so equilibria are exact and
    clamping at zero stays a no-op counter.  Every operator is a
    direct convolution with those nonnegative weights, never an FFT,
    so every cell is a nonnegative sum and no roundoff noise grows
    ahead of the front; it runs as a few small matrix products over
    blocks of 32 cells (_blocked).
  * The stencils' tails do spread ahead of the front, far below any
    level it sees, so each operator reads inputs below tiny/w_min as
    zero, where tiny is the smallest normal double and w_min the
    operator's smallest positive weight.  Every product u*w it forms,
    and every sum of them, is then a normal double: subnormals made the
    blocked products two to three times slower.  The threshold is
    capped at 2^-500, so that a weight below 2^-522 cannot raise it to
    a level the front sees (such an operator may meet subnormals).  This
    is the cutoff of Brunet & Derrida (Phys. Rev. E 56 (1997) 2597):
    it shifts the speed by about (pi/ln eps)^2 relative, 8e-5 even at
    the cap (eps ~ 3e-151), and only after a relaxation time ~ ln^2 eps,
    far beyond any run's t_end.
  * S, Pa and Pb use reflect padding (mirror ghosts on every substep);
    K uses edge replication.  The history holds u_{n-N}..u_n (N + 1
    slices), pre-filled with the initial condition (constant history).
  * The run stops two cells before the stencils' reach of the right
    edge (the largest of kernel_half_width, the discrete kernel's
    half-width, which atom kernels may exceed, and m cells).
  * Nothing checks the field's size: S, Pa and Pb are nonnegative with
    unit total weight and K has unit sum, so u never exceeds
    max(u_0, sup g), which is max(ln p, p/e) for Nicholson.
  * The speed is fitted over the trailing 40 % of the front trace.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .charfun import ModelParams
from .errors import DomainError
from .kernels import Kernel

_MACRO_STEP = 0.1  # Delta before snapping to divide h
_STABILITY = 0.45  # substep delta <= _STABILITY * dx^2
_FIT_FRACTION = 0.4  # trailing fraction of the front trace that is fitted
_BLOCK = 32  # output cells per row of a stencil's blocked product
_FLUSH_CAP = 2.0 ** -500  # no operator reads inputs above this as zero


@dataclass(frozen=True)
class BirthFunction:
    """Monostable birth term g with g(0) = 0 and g'(0) = p > 1.

    Variants: "nicholson" g(u) = p*u*exp(-u) (positive equilibrium
    ln p) and "capped-linear" g(u) = min(p*u, p*cap) (positive
    equilibrium p*cap).  Both satisfy g(s) <= p*s on s >= 0, the linear
    determinacy hypothesis under which the simulated spreading speed
    should match the solver's c*.
    """

    kind: str
    p: float
    cap: float = 1.0

    def __post_init__(self):
        if self.kind not in ("nicholson", "capped-linear"):
            raise DomainError(f"unknown birth function kind {self.kind!r}")
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise DomainError(f"birth function needs p > 1, got {self.p}")
        if not (math.isfinite(self.cap) and self.cap > 0.0):
            raise DomainError(f"cap must be positive, got {self.cap}")

    @classmethod
    def nicholson(cls, p: float) -> "BirthFunction":
        return cls(kind="nicholson", p=p)

    @classmethod
    def capped_linear(cls, p: float, cap: float = 1.0) -> "BirthFunction":
        return cls(kind="capped-linear", p=p, cap=cap)

    @property
    def equilibrium(self) -> float:
        """The positive fixed point of g (g(u*) = u*)."""
        if self.kind == "nicholson":
            return math.log(self.p)
        return self.p * self.cap

    def __call__(self, u):
        if self.kind == "nicholson":
            return self.p * u * np.exp(-u)
        return np.minimum(self.p * u, self.p * self.cap)


@dataclass(frozen=True)
class SimConfig:
    """Grid, time horizon, and measurement settings for one run.

    The time step is not set here: it is always 0.1 snapped to divide h,
    split into substeps of at most 0.45*dx^2 inside the stencils.
    """

    length: float = 400.0
    dx: float = 0.1
    t_end: float = 100.0
    threshold_frac: float = 0.5       # front threshold as fraction of equilibrium
    init_width: float = 20.0          # initial step occupies [0, init_width]
    kernel_half_width: float = 10.0   # convolution truncation (space units)

    def __post_init__(self):
        if not (self.dx > 0.0 and math.isfinite(self.dx)):
            raise DomainError(f"dx must be positive, got {self.dx}")
        if not (math.isfinite(self.length) and self.length >= 20.0 * self.dx):
            raise DomainError(
                f"length must be finite and span at least 20 grid cells, "
                f"got {self.length}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise DomainError(f"t_end must be finite and positive, got {self.t_end}")
        if not (0.0 < self.threshold_frac < 1.0):
            raise DomainError(
                f"threshold_frac must lie in (0,1), got {self.threshold_frac}")
        if not (0.0 < self.init_width < self.length):
            raise DomainError("init_width must lie inside the domain")
        if not (math.isfinite(self.kernel_half_width)
                and self.kernel_half_width > 0.0):
            raise DomainError(f"kernel_half_width must be finite and positive, "
                              f"got {self.kernel_half_width}")


@dataclass
class SimState:
    """Mutable state of one run; owned exclusively by that run.

    apply_s, apply_pa, apply_pb and apply_k apply the step's stencils
    S, Pa, Pb (mirror ghosts) and the discrete kernel K (edge
    replication) as blocked products (see _blocked); reach is the
    widest of their half-widths, in cells.  forcing is
    F_n = K * g(u_{n-N}), carried so that each history slice meets K
    once (at N = 0, step takes F_n from u_n instead).
    """

    u: np.ndarray
    history: deque                 # u_{n-N} .. u_n, N + 1 slices
    forcing: np.ndarray
    apply_s: Callable[[np.ndarray], np.ndarray]
    apply_pa: Callable[[np.ndarray], np.ndarray]
    apply_pb: Callable[[np.ndarray], np.ndarray]
    apply_k: Callable[[np.ndarray], np.ndarray]
    dt: float                      # the macro step Delta
    n_delay: int                   # N = h / Delta (0 means no delay)
    reach: int                     # cells the widest operator reads per side
    t: float = 0.0
    clamp_events: int = 0


@dataclass(frozen=True)
class SimResult:
    """Front trace and fitted speed of one run."""

    times: tuple[float, ...]
    front: tuple[float, ...]
    speed: float
    fit_residual: float            # rms of the linear fit, space units
    reference_speed: Optional[float]
    hit_boundary: bool
    clamp_events: int
    dt: float
    dx: float


def resolve_dt(h: float) -> tuple[float, int]:
    """Pick the macro step Delta = 0.1 snapped to divide h; return (Delta, N)."""
    if h <= 0.0:
        return _MACRO_STEP, 0
    n = max(1, math.ceil(h / _MACRO_STEP - 1e-12))
    return h / n, n


def _stencils(dt: float, dx: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S, Pa and Pb of a macro step dt: m positive explicit substeps folded."""
    m = math.ceil(dt / (_STABILITY * dx * dx) - 1e-12)
    sub = dt / m
    r = sub / (dx * dx)
    s1 = np.array([r, 1.0 - sub - 2.0 * r, r])
    power = np.zeros(2 * m + 1)    # s1^{*j}, centred; fits until j = m
    power[m] = 1.0
    pa = np.zeros_like(power)
    pb = np.zeros_like(power)
    for j in range(m):             # s1^{*j} carries the forcing of substep m-1-j
        theta = (m - j - 0.5) / m
        pa += (1.0 - theta) * power
        pb += theta * power
        power = np.convolve(power, s1, mode="same")
    return power, sub * pa, sub * pb


def _blocked(stencil: np.ndarray, gather: np.ndarray):
    """Apply a centred stencil to v padded by the index map gather.

    The valid convolution is a banded Toeplitz product.  Cut into
    _BLOCK x _BLOCK blocks, every block row holds the same q blocks
    T_0 .. T_{q-1} of T (T[r:r+L, r] = stencil[::-1], zero below), one
    block column further right each row down; so with the padded input
    read as rows of _BLOCK cells, the product is sum_j rows[j:j+nb] @ T_j,
    q matrix products over views, with no copy of overlapping windows.
    The index map is extended to whole blocks; the cells past n are
    computed and dropped.  Each output is still a direct sum of
    nonnegative weights times the field.  Entries of the gathered copy
    below tiny/w_min (at most _FLUSH_CAP), with w_min the smallest
    positive weight, are zeroed first (the caller's field is untouched),
    so no product of an input and a weight is subnormal.
    """
    if stencil.size == 1:
        return lambda v: stencil[0] * v
    flush = min(np.finfo(float).tiny / stencil[stencil > 0.0].min(), _FLUSH_CAP)
    n = gather.size - stencil.size + 1
    blocks = -(-n // _BLOCK)
    q = -(-(_BLOCK + stencil.size - 1) // _BLOCK)
    index = np.pad(gather, (0, (blocks + q - 1) * _BLOCK - gather.size),
                   mode="edge")
    toeplitz = np.zeros((q * _BLOCK, _BLOCK))
    for r in range(_BLOCK):
        toeplitz[r:r + stencil.size, r] = stencil[::-1]
    parts = toeplitz.reshape(q, _BLOCK, _BLOCK)

    def apply(v: np.ndarray) -> np.ndarray:
        rows = v[index].reshape(-1, _BLOCK)
        rows[rows < flush] = 0.0
        out = rows[:blocks] @ parts[0]
        for j in range(1, q):
            out += rows[j:j + blocks] @ parts[j]
        return out.ravel()[:n]
    return apply


def make_state(cfg: SimConfig, params: ModelParams, kernel: Kernel,
               g: BirthFunction) -> SimState:
    """Allocate the grid, build the stencils, pre-fill the history."""
    cells = np.arange(int(round(cfg.length / cfg.dx)) + 1)
    u0 = np.where(cells * cfg.dx <= cfg.init_width, float(g.equilibrium), 0.0)
    dt, n_delay = resolve_dt(params.h)
    s, pa, pb = _stencils(dt, cfg.dx)
    _, weights = kernel.discrete_weights(cfg.dx, cfg.kernel_half_width)
    reflect = np.pad(cells, s.size // 2, mode="reflect")
    apply_k = _blocked(weights, np.pad(cells, weights.size // 2, mode="edge"))
    history = deque(u0.copy() for _ in range(n_delay))
    history.append(u0)
    return SimState(u=u0, history=history, forcing=apply_k(g(history[0])),
                    apply_s=_blocked(s, reflect), apply_pa=_blocked(pa, reflect),
                    apply_pb=_blocked(pb, reflect), apply_k=apply_k,
                    dt=dt, n_delay=n_delay,
                    reach=max(weights.size, s.size) // 2)


def step(state: SimState, g: BirthFunction) -> SimState:
    """Advance one macro step in place; returns the same state.

    u_{n+1} = S u_n + Pa F_n + Pb F_{n+1} with F_j = K * g(u_{j-N}).
    With a delay, F_n is carried and F_{n+1} comes from the history;
    without one, F_n is taken from u_n and F_{n+1} from the predictor
    S u_n + (Pa + Pb) F_n.
    """
    u = state.u
    delayed = state.n_delay > 0
    forcing = state.forcing if delayed else state.apply_k(g(u))
    base = state.apply_s(u) + state.apply_pa(forcing)
    ahead = state.history[1] if delayed else base + state.apply_pb(forcing)
    state.forcing = state.apply_k(g(ahead))
    u_new = base + state.apply_pb(state.forcing)
    negatives = int(np.count_nonzero(u_new < 0.0))
    if negatives:
        state.clamp_events += negatives
        np.maximum(u_new, 0.0, out=u_new)
    state.history.append(u_new)
    state.history.popleft()
    state.u = u_new
    state.t += state.dt
    return state


def front_position(u: np.ndarray, dx: float, theta: float) -> float:
    """Rightmost x with u >= theta, linearly interpolated between cells."""
    above = np.nonzero(u >= theta)[0]
    if above.size == 0:
        return 0.0
    i = int(above[-1])
    if i == u.size - 1:
        return i * dx
    drop = u[i] - u[i + 1]
    frac = (u[i] - theta) / drop if drop > 0.0 else 0.0
    return (i + float(frac)) * dx


def fit_front_speed(times, positions) -> tuple[float, float]:
    """Least-squares slope of x_f(t) over the trailing 40 % of the trace.

    Returns (speed, rms residual).  Exact on an exactly linear trace.
    """
    t = np.asarray(times, dtype=float)
    x = np.asarray(positions, dtype=float)
    if t.size != x.size or t.size < 2:
        raise DomainError("need at least two trace points to fit a speed")
    k = max(2, int(math.ceil(t.size * _FIT_FRACTION)))
    t, x = t[-k:], x[-k:]
    slope, intercept = np.polyfit(t, x, 1)
    resid = x - (slope * t + intercept)
    return float(slope), float(math.sqrt(np.mean(resid * resid)))


def run(cfg: SimConfig, params: ModelParams, kernel: Kernel,
        g: BirthFunction, reference_speed: Optional[float] = None) -> SimResult:
    """Evolve to t_end (or until the front nears the boundary) and fit.

    The run stops early, flagged hit_boundary, once the front enters the
    zone where convolution padding distorts the dynamics; the trace up
    to that point is still fitted.  A run that starts in that zone
    raises DomainError.
    """
    if abs(g.p - params.p) > 1e-12:
        raise DomainError(
            f"birth function slope {g.p:g} disagrees with params.p {params.p:g}")
    state = make_state(cfg, params, kernel, g)
    theta = cfg.threshold_frac * g.equilibrium
    reach = max(cfg.kernel_half_width, state.reach * cfg.dx)
    stop_x = cfg.length - reach - 2.0 * cfg.dx
    times = [0.0]
    fronts = [front_position(state.u, cfg.dx, theta)]
    if fronts[0] >= stop_x:
        raise DomainError(f"initial front x={fronts[0]:g} is already at or "
                          f"past the stop line x={stop_x:g}")
    n_steps = int(math.ceil(cfg.t_end / state.dt))
    hit_boundary = False
    for _ in range(n_steps):
        step(state, g)
        xf = front_position(state.u, cfg.dx, theta)
        times.append(state.t)
        fronts.append(xf)
        if xf >= stop_x:
            hit_boundary = True
            break
    speed, resid = fit_front_speed(times, fronts)
    return SimResult(
        times=tuple(times),
        front=tuple(fronts),
        speed=speed,
        fit_residual=resid,
        reference_speed=reference_speed,
        hit_boundary=hit_boundary,
        clamp_events=state.clamp_events,
        dt=state.dt,
        dx=cfg.dx,
    )
