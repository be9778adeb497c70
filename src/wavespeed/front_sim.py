"""Direct simulation of the delayed nonlocal front model.

Integrates u_t = u_xx - u + (K * g(u(t-h, .)))(x) on [0, L] with an
explicit Euler step, central-difference Laplacian, zero-flux (Neumann)
boundaries, and the convolution done directly against precomputed
discrete kernel weights.  A step at g's positive equilibrium on
[0, init_width] spreads rightward; the measured front speed should
match the minimal wave speed from the solver, which is the
cross-validation this module exists for.

Fixed choices, none of them settable:

  * dt = 0.45*dx^2 keeps the explicit scheme stable and the update a
    positive combination, so clamping at zero stays a no-op counter;
    dt is then snapped so that h is an integer number of steps, and
    the history holds those h/dt slices, pre-filled with the initial
    condition (constant history).
  * The convolution weights have unit sum, so equilibria are exact.
  * The run stops two cells before the stencil's reach of the right
    edge (the larger of kernel_half_width and the discrete kernel's
    half-width, which atom kernels may exceed).
  * The speed is fitted over the trailing 40 % of the front trace.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charfun import ModelParams
from .errors import DomainError, UnstableSimulationError
from .kernels import Kernel

_STABILITY = 0.45  # dt <= _STABILITY * dx^2
_FIT_FRACTION = 0.4  # trailing fraction of the front trace that is fitted


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

    dt is not set here: it is always 0.45*dx^2 snapped to divide h.
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
        if not (self.length >= 20.0 * self.dx):
            raise DomainError("domain must span at least 20 grid cells")
        if not (self.t_end > 0.0):
            raise DomainError(f"t_end must be positive, got {self.t_end}")
        if not (0.0 < self.threshold_frac < 1.0):
            raise DomainError(
                f"threshold_frac must lie in (0,1), got {self.threshold_frac}")
        if not (0.0 < self.init_width < self.length):
            raise DomainError("init_width must lie inside the domain")
        if not (self.kernel_half_width > 0.0):
            raise DomainError("kernel_half_width must be positive")


@dataclass
class SimState:
    """Mutable state of one run; owned exclusively by that run."""

    u: np.ndarray
    history: deque                 # u slices going back exactly h
    weights: np.ndarray            # discrete kernel, unit sum
    pad: int                       # convolution half-width in cells
    dt: float
    n_delay: int                   # h / dt (0 means no delay)
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


def resolve_dt(cfg: SimConfig, h: float) -> tuple[float, int]:
    """Pick the time step: stability-limited, then snapped to divide h."""
    dt0 = _STABILITY * cfg.dx * cfg.dx
    if h <= 0.0:
        return dt0, 0
    n = max(1, math.ceil(h / dt0 - 1e-12))
    return h / n, n


def make_state(cfg: SimConfig, params: ModelParams, kernel: Kernel,
               g: BirthFunction) -> SimState:
    """Allocate the grid, discretize the kernel, pre-fill the history."""
    nx = int(round(cfg.length / cfg.dx)) + 1
    x = np.arange(nx) * cfg.dx
    u0 = np.where(x <= cfg.init_width, float(g.equilibrium), 0.0)
    dt, n_delay = resolve_dt(cfg, params.h)
    offsets, weights = kernel.discrete_weights(cfg.dx, cfg.kernel_half_width)
    pad = int(offsets[-1])
    history = deque(u0.copy() for _ in range(n_delay))
    return SimState(u=u0, history=history, weights=weights, pad=pad,
                    dt=dt, n_delay=n_delay)


def step(state: SimState, cfg: SimConfig, g: BirthFunction) -> SimState:
    """Advance one explicit Euler step in place; returns the same state.

    The delayed slice is the oldest history entry (the current field
    when h = 0).  Boundary cells use mirror ghosts for the Laplacian
    and edge replication for the convolution, both consistent with
    zero flux.
    """
    u = state.u
    delayed = state.history[0] if state.n_delay > 0 else u
    birth = g(delayed)
    if state.pad > 0:
        padded = np.pad(birth, state.pad, mode="edge")
        conv = np.convolve(padded, state.weights, mode="valid")
    else:
        conv = state.weights[0] * birth
    lap = np.empty_like(u)
    lap[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
    lap[0] = 2.0 * (u[1] - u[0])
    lap[-1] = 2.0 * (u[-2] - u[-1])
    lap /= cfg.dx * cfg.dx
    u_new = u + state.dt * (lap - u + conv)
    negatives = int(np.count_nonzero(u_new < 0.0))
    if negatives:
        state.clamp_events += negatives
        np.maximum(u_new, 0.0, out=u_new)
    top = float(u_new.max())
    if top > 10.0 * g.equilibrium:
        raise UnstableSimulationError(
            f"field reached {top:.3g} (> 10x equilibrium) at t={state.t:.3g}; "
            "time step too large for this configuration")
    if state.n_delay > 0:
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
    reach = max(cfg.kernel_half_width, state.pad * cfg.dx)
    stop_x = cfg.length - reach - 2.0 * cfg.dx
    times = [0.0]
    fronts = [front_position(state.u, cfg.dx, theta)]
    if fronts[0] >= stop_x:
        raise DomainError(f"initial front x={fronts[0]:g} is already at or "
                          f"past the stop line x={stop_x:g}")
    n_steps = int(math.ceil(cfg.t_end / state.dt))
    hit_boundary = False
    for _ in range(n_steps):
        step(state, cfg, g)
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
