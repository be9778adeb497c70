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
    ahead of the front; it runs as one stacked matrix product over
    blocks of 32 cells, summed in order (_blocked).
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
  * K is discretized out to the kernel's own reach (see
    Kernel.discrete_weights), so the grid convolves with the kernel the
    solver solves for.  The run stops two cells before the widest
    stencil (K or the m-cell S, Pa, Pb) reaches the right edge; stencils
    that reach across the whole domain are refused from K's reach and m
    alone (Kernel.reach, _substeps), before K is discretized or any
    operator is built.
  * The length only bounds the domain: make_state allocates no more
    than the cells the front can reach by t_end.  The operators are
    nonnegative and g(u) <= p u, so u stays below the linearized
    scheme's solution (Weinberger, SIAM J. Math. Anal. 13 (1982) 353),
    and so below u* exp(lam (x0 + c_lam (t + h) - x)) for every lam > 0,
    with x0 = init_width, u* g's equilibrium and c_lam = ln rho(lam) /
    (lam Delta) (_log_growth; the least c_lam is the scheme's own
    linear speed c*_Delta).  The grid ends at the widest stencil's reach
    plus two cells past E, the least over a lam grid of x0 + c_lam
    (T + h + Delta) + 53 ln 2 / lam, T the last step's time and c_lam
    capped so that E never passes the length: there that bound is
    below 2^-53 u* until the last step.  What the cut leaves at E moved
    no front by one bit on any configuration tested against the full
    length; the bound alone does not imply that.
  * Each step updates only an active range of cells, so a run's cost
    follows the cells the front can reach, not the grid: run ends it
    where the same bound falls to 2^-106 u* by 1.5 times the step's time
    (the cut's effect spreads back towards the front over time, so its
    depth grows with the time run so far; at the step's own time a Dirac
    front at p = 20 moved by 5e-4 by t = 50), and starts it eight widest
    stencil reaches, and at least 40 units, behind the front (a 40-unit
    cut moved the fronts of wide uniform and two-point kernels by up to
    1e-3).  Both ends move in whole _BLOCKs.  Every front tested equals
    that of stepping the whole grid bit for bit, except the two-point
    kernel a = 15 at h = 0, 2.3e-13 off; the bounds alone do not imply
    either.
  * Nothing checks the field's size: S, Pa and Pb are nonnegative with
    unit total weight and K has unit sum, so u never exceeds
    max(u_0, sup g), which is max(ln p, p/e) for Nicholson.
  * The front is where u crosses half of g's equilibrium; another level
    shifts it by a constant, not its speed (Bramson 1983).
  * The speed is fitted over the trailing 40 % of the front trace.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, NamedTuple, Optional

import numpy as np

from .charfun import ModelParams
from .errors import DomainError
from .kernels import Kernel

_MACRO_STEP = 0.1  # Delta before snapping to divide h
_STABILITY = 0.45  # substep delta <= _STABILITY * dx^2
_FIT_FRACTION = 0.4  # trailing fraction of the front trace that is fitted
_FRONT_FRACTION = 0.5  # front level, as a fraction of g's equilibrium
_BLOCK = 32  # output cells per row of a stencil's blocked product
_FLUSH_CAP = 2.0 ** -500  # no operator reads inputs above this as zero
_MAJORANT_DROP = 53 * math.log(2.0)  # the grid ends where u <= 2^-53 u*
_DECAY_RATES = np.geomspace(0.02, 20.0, 48)  # lambdas tried for that edge
_RANGE_DROP = 2 * _MAJORANT_DROP  # the active range ends where u <= 2^-106 u*
_RANGE_TIME = 1.5  # ... by 1.5 times the step's time
_TRAIL_FLOOR = 40.0  # the active range starts at least this far behind the front
_TRAIL_REACHES = 8  # ... and at least this many widest stencil reaches


class _BirthFunction(NamedTuple):
    kind: str
    p: float


class BirthFunction(_BirthFunction):
    """Monostable birth term g with g(0) = 0 and g'(0) = p > 1, as a tuple.

    Variants: "nicholson" g(u) = p*u*exp(-u) (positive equilibrium
    ln p) and "capped-linear" g(u) = min(p*u, p) (equilibrium p; any
    other cap would only rescale u).  Both satisfy g(s) <= p*s on
    s >= 0, the linear determinacy hypothesis under which the simulated
    spreading speed should match the solver's c*.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("nicholson", "capped-linear"):
            raise DomainError(f"unknown birth function kind {self.kind!r}")
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise DomainError(f"birth function needs p > 1, got {self.p}")
        return self

    @classmethod
    def _make(cls, fields):     # so that _replace runs the checks too
        return cls(*fields)

    @classmethod
    def nicholson(cls, p: float) -> "BirthFunction":
        return cls(kind="nicholson", p=p)

    @classmethod
    def capped_linear(cls, p: float) -> "BirthFunction":
        return cls(kind="capped-linear", p=p)

    @property
    def equilibrium(self) -> float:
        """The positive fixed point of g (g(u*) = u*)."""
        if self.kind == "nicholson":
            return math.log(self.p)
        return self.p

    def __call__(self, u):
        if self.kind == "nicholson":
            return self.p * u * np.exp(-u)
        return np.minimum(self.p * u, self.p)


class _SimConfig(NamedTuple):
    length: float = 400.0
    dx: float = 0.1
    t_end: float = 100.0
    init_width: float = 20.0          # initial step occupies [0, init_width]


class SimConfig(_SimConfig):
    """Grid, time horizon and initial step of one run, as a tuple.

    length bounds the domain; make_state sizes the grid only up to where
    the linear majorant falls to 2^-53 of g's equilibrium by t_end, when
    that is shorter.  The time step (0.1 snapped to divide h, in substeps
    of at most 0.45*dx^2) and the front's level (half g's equilibrium)
    are fixed.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.dx > 0.0 and math.isfinite(self.dx)):
            raise DomainError(f"dx must be positive, got {self.dx}")
        if not (math.isfinite(self.length) and self.length >= 20.0 * self.dx):
            raise DomainError(
                f"length must be finite and span at least 20 grid cells, "
                f"got {self.length}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise DomainError(f"t_end must be finite and positive, got {self.t_end}")
        if not (0.0 < self.init_width < self.length):
            raise DomainError("init_width must lie inside the domain")
        return self

    @classmethod
    def _make(cls, fields):     # so that _replace runs the checks too
        return cls(*fields)


class SimState:
    """Mutable state of one run; owned exclusively by that run.

    The one record that is not a tuple: make_state sets the fields below
    by keyword, and t and clamp_events start from the class's values.

    apply_s, apply_pa, apply_pb and apply_k apply the step's stencils
    S, Pa, Pb (mirror ghosts) and the discrete kernel K (edge
    replication) as blocked products (see _blocked); a run takes at
    most n_steps macro steps, the horizon the grid was sized for, and
    stops at stop_x, two cells before the widest stencil reaches the
    grid's end.
    forcing is F_n = K * g(u_{n-N}), carried so that each history slice
    meets K once (at N = 0, step takes F_n from u_n instead).

    step updates only the active range, cells [lo, hi), padding it at
    both ends as if they were the grid's (mirror and edge ghosts).
    make_state sets it to the whole grid; run narrows it in whole
    _BLOCKs, with two margins.  hi sits at the trim's edge formula with
    twice _MAJORANT_DROP (2^-106 u*), over the per-lam advance c_lam
    Delta, at _RANGE_TIME times the step's time, plus the widest reach
    and two cells; it never moves left, so past it every slice keeps the
    zeros it started with.  lo trails the front by _TRAIL_REACHES widest
    reaches, at least _TRAIL_FLOOR units, and never moves left either;
    cells below it keep what they held when they left the range.
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
    n_steps: int                   # ceil(t_end / Delta)
    stop_x: float                  # the run stops once the front reaches it
    reach: int                     # the widest stencil's reach, in cells
    advance: np.ndarray            # c_lam Delta over _DECAY_RATES, per step
    lo: int                        # step updates cells [lo, hi)
    hi: int
    t: float = 0.0
    clamp_events: int = 0

    def __init__(self, **fields):
        # one setattr each: a bulk __dict__ update would slow every read
        for name, value in fields.items():
            setattr(self, name, value)


class SimResult(NamedTuple):
    """Front trace and fitted speed of one run, as a tuple."""

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


def _substeps(dt: float, dx: float) -> int:
    """m, the explicit substeps of at most _STABILITY*dx^2 in a macro step."""
    m = math.ceil(dt / (_STABILITY * dx * dx) - 1e-12)
    if m < 1:                      # Delta <= 1e-12 of the substep limit
        raise DomainError(f"the macro step {dt:g} is at most 1e-12 of the "
                          f"substep limit 0.45*dx^2 = {_STABILITY * dx * dx:g}; "
                          "refine dx or lengthen the delay")
    return m


def _stencils(dt: float, dx: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S, Pa and Pb of a macro step dt: m positive explicit substeps folded."""
    m = _substeps(dt, dx)
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


def _blocked(stencil: np.ndarray, mode: str, size: int):
    """Apply a centred stencil to v, at most size cells, padded at both
    ends as np.pad's mode pads them.

    The valid convolution is a banded Toeplitz product.  Cut into
    _BLOCK x _BLOCK blocks, every block row holds the same q blocks
    T_0 .. T_{q-1} of T (T[r:r+L, r] = stencil[::-1], zero below), one
    block column further right each row down; so with the padded input
    read as rows of _BLOCK cells, the product is sum_j rows[j:j+nb] @ T_j:
    one stacked matmul over q strided views of the rows (no copy of the
    overlapping windows), each slice the BLAS call a 2-D @ makes, then
    one add.reduce over the outermost axis, which sums P_0 + P_1 + ..
    in order, so the bits are those of a loop over j.
    v is a run's active range, whose size changes a block at a time, so
    each call pads it into the same buffer, allocated once for size
    cells; the cells past v's end are computed from what the buffer
    holds there (zeros or an earlier call's finite, nonnegative cells,
    met only by zero weights for the kept cells) and dropped.  A cell's
    sum depends only on its place in its block, so a range that starts
    on a block boundary gives each cell the grid's bits.  Each output is
    still a direct sum of nonnegative weights times the field.  Entries of the padded copy below
    tiny/w_min (at most _FLUSH_CAP), with w_min the smallest positive
    weight, are zeroed first (the caller's field is untouched), so no
    product of an input and a weight is subnormal.
    """
    if stencil.size == 1:
        return lambda v: stencil[0] * v
    flush = min(np.finfo(float).tiny / stencil[stencil > 0.0].min(), _FLUSH_CAP)
    half = stencil.size // 2
    q = -(-(_BLOCK + stencil.size - 1) // _BLOCK)
    toeplitz = np.zeros((q * _BLOCK, _BLOCK))
    for r in range(_BLOCK):
        toeplitz[r:r + stencil.size, r] = stencil[::-1]
    parts = toeplitz.reshape(q, _BLOCK, _BLOCK)
    most = -(-size // _BLOCK)
    buffer = np.zeros((most + q - 1) * _BLOCK)
    windows = np.lib.stride_tricks.sliding_window_view(   # [j] is rows[j:j + most]
        buffer.reshape(-1, _BLOCK), most, axis=0).transpose(0, 2, 1)
    products = np.empty((q, most, _BLOCK))

    def apply(v: np.ndarray) -> np.ndarray:
        n = v.size
        blocks = -(-n // _BLOCK)
        padded = buffer[:(blocks + q - 1) * _BLOCK]
        padded[half:half + n] = v
        if mode == "reflect":          # ghosts -j and n - 1 + j mirror j and n - 1 - j
            padded[:half] = v[half:0:-1]
            padded[half + n:n + 2 * half] = v[n - 1 - half:n - 1][::-1]
        else:                          # ghosts repeat the end cells
            padded[:half] = v[0]
            padded[half + n:n + 2 * half] = v[n - 1]
        rows = padded.reshape(-1, _BLOCK)
        rows[rows < flush] = 0.0
        np.matmul(windows[:, :blocks], parts, out=products[:, :blocks])
        return np.add.reduce(products[:, :blocks], axis=0).ravel()[:n]
    return apply


def _log_growth(lam: np.ndarray, stencils, kernel_taps, dx: float, p: float,
                n: int) -> np.ndarray:
    """ln rho(lam): the linearized step's growth per macro step, per lam.

    Linearized at u = 0 (g(u) = p u), a step maps rho^n e^{-lam x} to
    rho^{n+1} e^{-lam x} when rho^{N+1} = S^ rho^N + p M^ (Pa^ + Pb^ rho),
    with X^ = sum_j X_j e^{lam x_j} over each operator's taps x_j (at
    N = 0 the predictor gives rho = S^ + pM^ Pa^ + pM^ Pb^ (S^ + pM^ (Pa^
    + Pb^)) instead).  By Descartes' rule of signs that relation has one
    positive root, where S^/rho + pM^ Pa^/rho^{N+1} + pM^ Pb^/rho^N
    falls through 1.  In y = ln rho the log of that sum is convex and
    decreasing, so Newton's method from the largest of the three terms'
    own roots (the log-sum is >= 0 there) rises monotonically to the
    root; it stops once no lam's y rises further.  Every sum is taken in
    log space over the taps of positive weight, shifted by the largest
    of their exponents, so no exp overflows.
    """
    offsets, weights = kernel_taps
    taps = (np.arange(stencils[0].size) - stencils[0].size // 2) * dx

    def log_hat(w, x):
        x, w = x[w > 0.0], w[w > 0.0]
        top = x.max()
        return lam * top + np.log(np.exp(np.outer(lam, x - top)) @ w)

    ls, la, lb = (log_hat(st, taps) for st in stencils)
    lk = math.log(p) + log_hat(weights, offsets * dx)
    if n == 0:
        ahead = np.logaddexp(ls, lk + np.logaddexp(la, lb))
        return np.logaddexp(np.logaddexp(ls, lk + la), lk + lb + ahead)
    y = np.maximum(np.maximum(ls, (lk + la) / (n + 1)), (lk + lb) / n)
    while True:
        ts, ta, tb = ls - y, lk + la - (n + 1) * y, lk + lb - n * y
        f = np.logaddexp(np.logaddexp(ts, ta), tb)
        slope = np.exp(ts - f) + (n + 1) * np.exp(ta - f) + n * np.exp(tb - f)
        y_new = np.maximum(y, y + f / slope)      # -slope is f's derivative
        if not np.any(y_new > y):
            return y
        y = y_new


def make_state(cfg: SimConfig, params: ModelParams, kernel: Kernel,
               g: BirthFunction) -> SimState:
    """Size the grid, build the stencils, pre-fill the history.

    The grid ends at cfg.length or, if sooner, where the front cannot
    reach by t_end (see the module docstring).  Raises DomainError,
    before discretizing K or building any operator, when the widest
    stencil (K's reach or the m substeps of S, Pa and Pb) plus two cells
    spans cfg.length.
    """
    dx = cfg.dx
    dt, n_delay = resolve_dt(params.h)
    reach = max(kernel.reach(dx), _substeps(dt, dx))
    size = int(round(cfg.length / dx))
    if reach + 2 >= size:
        raise DomainError(
            f"the stencils reach {reach * dx:g} units per side, which "
            f"leaves no room on a {cfg.length:g}-unit domain; lengthen it "
            "or coarsen dx")
    s, pa, pb = _stencils(dt, dx)
    offsets, weights = kernel.discrete_weights(dx)
    lam = _DECAY_RATES
    # c_lam Delta per macro step, over t + h <= (n_steps + N + 1) Delta;
    # capped so the majorant's advance never passes cfg.length
    n_steps = math.ceil(cfg.t_end / dt)
    horizon = n_steps + n_delay + 1.0
    advance = _log_growth(lam, (s, pa, pb), (offsets, weights), dx, params.p,
                          n_delay) / lam
    edge, _ = _majorant_edge(np.minimum(advance, cfg.length / horizon),
                             cfg.init_width, horizon, _MAJORANT_DROP)
    length = cfg.length
    trimmed = max(20, math.ceil(min(edge, cfg.length) / dx) + reach + 2)
    if trimmed < size:
        size, length = trimmed, trimmed * dx
    u0 = np.where(np.arange(size + 1) * dx <= cfg.init_width,
                  float(g.equilibrium), 0.0)
    apply_k = _blocked(weights, "edge", u0.size)
    history = deque(u0.copy() for _ in range(n_delay))
    history.append(u0)
    apply_s, apply_pa, apply_pb = (_blocked(x, "reflect", u0.size)
                                   for x in (s, pa, pb))
    return SimState(u=u0, history=history, forcing=apply_k(g(history[0])),
                    apply_s=apply_s, apply_pa=apply_pa, apply_pb=apply_pb,
                    apply_k=apply_k,
                    dt=dt, n_delay=n_delay, n_steps=n_steps,
                    stop_x=length - reach * dx - 2.0 * dx, reach=reach,
                    advance=advance, lo=0, hi=u0.size)


def _majorant_edge(advance: np.ndarray, x0: float, steps: float,
                   drop: float) -> tuple[float, float]:
    """Where the linear majorant falls to e^-drop u*, and that edge's slope.

    Returns x0 + min over lam of (advance * steps + drop / lam), with
    steps Delta = t + h + Delta, and the minimizing lam's advance per
    step; the edge never rises above that line in steps.
    """
    terms = advance * steps + drop / _DECAY_RATES
    j = int(np.argmin(terms))
    return x0 + float(terms[j]), float(advance[j])


def _range_end(state: SimState, x0: float, dx: float, n: int) -> tuple[int, float]:
    """hi for step n (u_n to u_{n+1}), and the first step that may need more.

    hi is the majorant's 2^-106 edge at _RANGE_TIME t_{n+1}, plus the
    widest reach and two cells, in whole _BLOCKs and never past the
    grid.  The edge is a minimum of lines in n, so it stays under the
    minimizing line, and that line says how many steps this hi holds.
    """
    edge, slope = _majorant_edge(state.advance, x0,
                                 _RANGE_TIME * (n + 1) + state.n_delay + 1,
                                 _RANGE_DROP)
    slope *= _RANGE_TIME
    hi = -(-(math.ceil(edge / dx) + state.reach + 2) // _BLOCK) * _BLOCK
    if hi >= state.u.size:
        return state.u.size, math.inf
    room = (hi - state.reach - 2) * dx - edge
    return hi, n + 1 + (room // slope if slope > 0.0 else math.inf)


def step(state: SimState, g: BirthFunction) -> SimState:
    """Advance the active range one macro step in place; returns the state.

    u_{n+1} = S u_n + Pa F_n + Pb F_{n+1} with F_j = K * g(u_{j-N}), on
    cells [lo, hi) only.  With a delay, F_n is carried and F_{n+1} comes
    from the history; without one, F_n is taken from u_n and F_{n+1}
    from the predictor S u_n + (Pa + Pb) F_n.  u_{n+1} is written into
    the slice that leaves the history (u_n itself at N = 0), so no cell
    outside the range is written and nothing grid-sized is allocated.
    """
    lo, hi = state.lo, state.hi
    u = state.u[lo:hi]
    delayed = state.n_delay > 0
    forcing = state.forcing[lo:hi] if delayed else state.apply_k(g(u))
    base = state.apply_s(u) + state.apply_pa(forcing)
    ahead = state.history[1][lo:hi] if delayed else base + state.apply_pb(forcing)
    forcing = state.apply_k(g(ahead))
    state.forcing[lo:hi] = forcing
    u_next = state.history.popleft()
    u_new = np.add(base, state.apply_pb(forcing), out=u_next[lo:hi])
    negatives = int(np.count_nonzero(u_new < 0.0))
    if negatives:
        state.clamp_events += negatives
        np.maximum(u_new, 0.0, out=u_new)
    state.history.append(u_next)
    state.u = u_next
    state.t += state.dt
    return state


def front_position(u: np.ndarray, dx: float, theta: float, lo: int = 0,
                   hi: Optional[int] = None) -> float:
    """Rightmost x with u >= theta among cells [lo, hi), linearly
    interpolated between cells (0.0 if there is none)."""
    above = np.flatnonzero(u[lo:hi] >= theta)
    if above.size == 0:
        return 0.0
    i = lo + int(above[-1])
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

    make_state sizes the grid for its n_steps steps and sets the stop
    line; before each step the active range follows the majorant's edge
    and the front (see SimState).  The run stops
    early, flagged hit_boundary, once the front crosses that line, where
    convolution padding would distort the dynamics; the trace up to that
    point is still fitted.  A run that starts past it raises DomainError.
    """
    if abs(g.p - params.p) > 1e-12:
        raise DomainError(
            f"birth function slope {g.p:g} disagrees with params.p {params.p:g}")
    state = make_state(cfg, params, kernel, g)
    theta = _FRONT_FRACTION * g.equilibrium
    times = [0.0]
    fronts = [front_position(state.u, cfg.dx, theta)]
    if fronts[0] >= state.stop_x:
        raise DomainError(f"initial front x={fronts[0]:g} is already at or "
                          f"past the stop line x={state.stop_x:g}")
    hit_boundary = False
    trail = max(_TRAIL_FLOOR / cfg.dx, _TRAIL_REACHES * state.reach)
    hold = 0
    for n in range(state.n_steps):
        if n >= hold:
            state.hi, hold = _range_end(state, cfg.init_width, cfg.dx, n)
        state.lo = max(state.lo,
                       int((fronts[-1] / cfg.dx - trail) // _BLOCK) * _BLOCK)
        step(state, g)
        xf = front_position(state.u, cfg.dx, theta, state.lo, state.hi)
        times.append(state.t)
        fronts.append(xf)
        if xf >= state.stop_x:
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
