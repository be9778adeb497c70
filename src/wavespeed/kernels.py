"""Symmetric dispersal kernels and their exponential moments.

Every kernel here is an even probability measure K on the real line
whose moment functional

    M(lam) = integral K(s) exp(lam*s) ds

is finite for every real lam.  Evenness makes M even, which the rest of
the package leans on in two places: the decayed moment
integral K(s) exp(-w*s) ds equals M(w), and the signed first moment
integral s*K(s) exp(-w*s) ds equals -M'(w).

Closed-form variants (Gaussian, Uniform, TwoPoint) know M, M' and M''
exactly; the point mass (Dirac) is the two-point kernel at a = 0.
TabulatedKernel carries atoms (s_j, m_j) on the nonnegative half line,
each atom standing for the symmetric pair +-s_j; that representation
keeps evenness exact in floating point instead of merely approximate.

Heavy-tailed kernels (Laplace, Cauchy, ...) have no finite M and are
rejected at construction by not existing here.  Kernels with atoms are
supported even though much of the surrounding theory is usually stated
for densities; they have no `density`, and all of them discretize
through `_fold_atoms` onto the contiguous offsets a density gets.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import DomainError, MgfOverflowError

# exp() overflows a little above 709; keep headroom for products
_EXP_LIMIT = 700.0


def checked_exp(x: float) -> float:
    """exp(x), but raise MgfOverflowError instead of returning inf."""
    if x > _EXP_LIMIT:
        raise MgfOverflowError(
            f"exp({x:.6g}) exceeds floating-point range; shrink the bracket"
        )
    return math.exp(x)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _atom_cells(support, dx: float) -> np.ndarray:
    """Grid offsets rint(s_j/dx) of pair atoms s_j >= 0, half to even."""
    _require(dx > 0.0, f"dx must be positive, got {dx}")
    return np.rint(np.asarray(support, dtype=float) / dx)


def _fold_atoms(support, masses, dx: float):
    """Discretize pair atoms (s_j >= 0, m_j) on a grid of spacing dx: half
    of m_j at each of the offsets +-_atom_cells(s_j), all of it at 0.
    Returns offsets -W..W, W the farthest atom's, and unit-sum weights."""
    cells = _atom_cells(support, dx).astype(int)
    share = np.where(cells == 0, 1.0, 0.5) * masses
    nw = int(cells.max())
    weights = np.zeros(2 * nw + 1)
    np.add.at(weights, nw + cells, share)
    np.add.at(weights, nw - cells[cells > 0], share[cells > 0])
    return np.arange(-nw, nw + 1), weights / weights.sum()


class Kernel(ABC):
    """Even probability kernel with finite exponential moments.

    Immutable after construction, apart from TabulatedKernel's one-entry
    memo of its last argument, which is replaced in one assignment;
    instances are freely shareable across threads.  Subclasses implement
    the moment functional M and its first two derivatives, the second
    moment, and a discretization used by the front simulator.
    """

    @abstractmethod
    def mgf(self, lam: float) -> float:
        """M(lam) >= 1, even in lam.  Raises MgfOverflowError when the
        value would leave floating-point range."""

    @abstractmethod
    def mgf_deriv(self, lam: float) -> float:
        """M'(lam); odd in lam, nonnegative for lam >= 0."""

    @abstractmethod
    def mgf_deriv2(self, lam: float) -> float:
        """M''(lam); even in lam, positive unless the kernel is a point
        mass at the origin."""

    @abstractmethod
    def second_moment(self) -> float:
        """integral s^2 K(s) ds, equal to M''(0)."""

    @abstractmethod
    def spec_string(self) -> str:
        """Round-trippable CLI spec, e.g. ``gaussian:alpha=1``."""

    def support_radius(self) -> float:
        """Smallest S with K supported in [-S, S]; inf if none."""
        return math.inf

    def reach(self, dx: float) -> int:
        """W of discrete_weights(dx), found without discretizing: the
        farthest atom's cell here, overridden by density kernels."""
        return int(_atom_cells(self.support_radius(), dx))

    @abstractmethod
    def discrete_weights(self, dx: float):
        """Discretize K on a grid of spacing dx for convolution.

        Returns (offsets, weights): integer grid offsets -W..W, W =
        reach(dx), and nonnegative weights renormalized to unit sum.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec_string()!r})"


class GaussianKernel(Kernel):
    """Heat kernel (4*pi*alpha)^(-1/2) exp(-s^2/(4*alpha)).

    M(lam) = exp(alpha*lam^2); the parameter alpha > 0 is the variance
    divided by two, so second_moment() = 2*alpha.
    """

    def __init__(self, alpha: float):
        _require(math.isfinite(alpha) and alpha > 0.0,
                 f"gaussian kernel needs alpha > 0, got {alpha}")
        self.alpha = float(alpha)

    def mgf(self, lam: float) -> float:
        return checked_exp(self.alpha * lam * lam)

    def mgf_deriv(self, lam: float) -> float:
        return 2.0 * self.alpha * lam * self.mgf(lam)

    def mgf_deriv2(self, lam: float) -> float:
        a = self.alpha
        return (2.0 * a + 4.0 * a * a * lam * lam) * self.mgf(lam)

    def second_moment(self) -> float:
        return 2.0 * self.alpha

    def density(self, s: float) -> float:
        return math.exp(-s * s / (4.0 * self.alpha)) / math.sqrt(4.0 * math.pi * self.alpha)

    def reach(self, dx: float) -> int:
        """Out to 10*sqrt(alpha), where the density is e^-25 of its peak."""
        _require(dx > 0.0, f"dx must be positive, got {dx}")
        return max(1, math.ceil(10.0 * math.sqrt(self.alpha) / dx))

    def discrete_weights(self, dx: float):
        nw = self.reach(dx)
        offsets = np.arange(-nw, nw + 1)
        weights = np.array([self.density(j * dx) for j in offsets], dtype=float)
        return offsets, weights / weights.sum()

    def spec_string(self) -> str:
        return f"gaussian:alpha={self.alpha:g}"


class UniformKernel(Kernel):
    """Box kernel 1/(2a) on [-a, a].

    M(lam) = sinh(a*lam)/(a*lam).  Near lam = 0 the ratio and its
    derivatives are evaluated by series to dodge cancellation in
    differences like u*cosh(u) - sinh(u).
    """

    _SERIES_CUT = 0.25

    def __init__(self, a: float):
        _require(math.isfinite(a) and a > 0.0,
                 f"uniform kernel needs a > 0, got {a}")
        self.a = float(a)

    def mgf(self, lam: float) -> float:
        u = self.a * lam
        if abs(u) > _EXP_LIMIT:
            raise MgfOverflowError(f"sinh({u:.6g}) exceeds floating-point range")
        if abs(u) <= self._SERIES_CUT:
            u2 = u * u
            return 1.0 + u2 / 6.0 + u2 * u2 / 120.0 + u2 * u2 * u2 / 5040.0 \
                + u2 * u2 * u2 * u2 / 362880.0
        return math.sinh(u) / u

    def mgf_deriv(self, lam: float) -> float:
        # d/dlam sinh(u)/u = a * (u*cosh(u) - sinh(u)) / u^2
        u = self.a * lam
        if abs(u) > _EXP_LIMIT:
            raise MgfOverflowError(f"sinh({u:.6g}) exceeds floating-point range")
        if abs(u) <= self._SERIES_CUT:
            u2 = u * u
            g = u * (1.0 / 3.0 + u2 / 30.0 + u2 * u2 / 840.0
                     + u2 * u2 * u2 / 45360.0 + u2 * u2 * u2 * u2 / 3991680.0)
            return self.a * g
        return self.a * (u * math.cosh(u) - math.sinh(u)) / (u * u)

    def mgf_deriv2(self, lam: float) -> float:
        u = self.a * lam
        if abs(u) > _EXP_LIMIT:
            raise MgfOverflowError(f"sinh({u:.6g}) exceeds floating-point range")
        a2 = self.a * self.a
        if abs(u) <= self._SERIES_CUT:
            u2 = u * u
            gp = 1.0 / 3.0 + u2 / 10.0 + u2 * u2 / 168.0 \
                + u2 * u2 * u2 / 6480.0 + u2 * u2 * u2 * u2 / 443520.0
            return a2 * gp
        sh, ch = math.sinh(u), math.cosh(u)
        return a2 * ((u * u + 2.0) * sh - 2.0 * u * ch) / (u * u * u)

    def second_moment(self) -> float:
        return self.a * self.a / 3.0

    def density(self, s: float) -> float:
        return 1.0 / (2.0 * self.a) if abs(s) <= self.a else 0.0

    def support_radius(self) -> float:
        return self.a

    def reach(self, dx: float) -> int:
        """The last cell that meets [-a, a]."""
        _require(dx > 0.0, f"dx must be positive, got {dx}")
        return math.ceil(self.a / dx - 0.5 - 1e-9)

    def discrete_weights(self, dx: float):
        """Cell averages |[j dx - dx/2, j dx + dx/2] cap [-a, a]| / dx.

        Sampling the density would keep both endpoints at full weight
        (second moment 0.367 instead of 1/3 for a = 1 at dx 0.1); the
        cell averages keep the box's moments to O(dx^2).
        """
        nw = self.reach(dx)
        offsets = np.arange(-nw, nw + 1)
        cells = offsets * dx
        weights = (np.minimum(cells + 0.5 * dx, self.a)
                   - np.maximum(cells - 0.5 * dx, -self.a))
        return offsets, weights / weights.sum()

    def spec_string(self) -> str:
        return f"uniform:a={self.a:g}"


class TwoPointKernel(Kernel):
    """Half masses at s = -a and s = +a; M(lam) = cosh(a*lam).

    a = 0 is the point mass at the origin, which DiracKernel names.
    There is no Lebesgue density, so the kernel has no `density` method.
    """

    def __init__(self, a: float):
        _require(math.isfinite(a) and a >= 0.0,
                 f"twopoint kernel needs a >= 0, got {a}")
        self.a = float(a)

    def _u(self, lam: float) -> float:
        u = self.a * lam
        if abs(u) > _EXP_LIMIT:
            raise MgfOverflowError(f"cosh({u:.6g}) exceeds floating-point range")
        return u

    def mgf(self, lam: float) -> float:
        return math.cosh(self._u(lam))

    def mgf_deriv(self, lam: float) -> float:
        return self.a * math.sinh(self._u(lam))

    def mgf_deriv2(self, lam: float) -> float:
        return self.a * self.a * math.cosh(self._u(lam))

    def second_moment(self) -> float:
        return self.a * self.a

    def support_radius(self) -> float:
        return self.a

    def discrete_weights(self, dx: float):
        return _fold_atoms((self.a,), (1.0,), dx)

    def spec_string(self) -> str:
        return f"twopoint:a={self.a:g}"


class DiracKernel(TwoPointKernel):
    """Point mass at the origin: the two-point kernel at a = 0.

    M = cosh(0) = 1 and every moment vanishes, bit for bit.  Realizes
    the vanishing-dispersal limit in which the nonlocal term becomes
    purely local; the only variant with closed-form critical speed,
    hence the prime test oracle.  Bound inequalities that are strict
    for spread-out kernels may degenerate to equalities here.
    """

    def __init__(self):
        super().__init__(0.0)

    def spec_string(self) -> str:
        return "dirac"


class TabulatedKernel(Kernel):
    """Kernel given by atoms on the nonnegative half line.

    Atom j sits at s_j >= 0 with mass m_j standing for the symmetric
    pair -s_j, +s_j together (for s_j = 0 it is a single atom), so

        M(lam)  = sum_j m_j cosh(lam*s_j)
        M'(lam) = sum_j m_j s_j sinh(lam*s_j)

    are even/odd exactly, and sum_j m_j = 1 after the constructor
    renormalizes.  Built either from explicit atoms (`from_atoms`,
    backing the CSV kernel spec) or from a density via composite
    Gauss-Legendre panels (`from_density`, used for quadrature twins of
    the closed-form kernels).
    """

    _GL_ORDER = 32
    _GL_PANELS = 8

    def __init__(self, support, masses, label: str = "table"):
        s = np.asarray(support, dtype=float)
        m = np.asarray(masses, dtype=float)
        _require(s.ndim == 1 and s.shape == m.shape and s.size > 0,
                 "tabulated kernel needs matching 1-D support and mass arrays")
        _require(bool(np.all(np.isfinite(s))) and bool(np.all(np.isfinite(m))),
                 "tabulated kernel entries must be finite")
        _require(bool(np.all(s >= 0.0)), "tabulated support lives on s >= 0 "
                 "(each atom stands for the pair +-s)")
        _require(bool(np.all(m >= 0.0)), "tabulated masses must be nonnegative")
        total = m.sum()
        _require(total > 0.0, "tabulated kernel has zero total mass")
        order = np.argsort(s)
        self._s = s[order]
        self._m = m[order] / total
        self._ms = self._m * self._s          # weights of M'
        self._mss = self._ms * self._s        # weights of M''
        self._top = float(self._s[-1])
        self._label = label
        self._memo = (None, None, None)

    @classmethod
    def from_atoms(cls, positions, weights, label: str = "table") -> "TabulatedKernel":
        """Fold signed atoms (s_i, w_i) onto the half line.

        Input may list one or both signs; mass accumulates at |s_i|, so a
        one-sided listing is symmetrized automatically.
        """
        pos = np.asarray(positions, dtype=float)
        wts = np.asarray(weights, dtype=float)
        _require(pos.shape == wts.shape and pos.ndim == 1 and pos.size > 0,
                 "atom positions and weights must be matching 1-D arrays")
        folded: dict[float, float] = {}
        for s_i, w_i in zip(np.abs(pos), wts):
            folded[float(s_i)] = folded.get(float(s_i), 0.0) + float(w_i)
        items = sorted(folded.items())
        return cls([s for s, _ in items], [m for _, m in items], label=label)

    @classmethod
    def from_density(cls, density, half_width: float,
                     label: str = "table") -> "TabulatedKernel":
        """Quadrature kernel: composite Gauss-Legendre panels on [0, S].

        The half line gets 8 equal panels of order 32 (256 nodes).  Pair
        masses are 2*weight*density(node), renormalized to unit total.
        """
        _require(half_width > 0.0, f"half_width must be positive, got {half_width}")
        edges = np.linspace(0.0, half_width, cls._GL_PANELS + 1)
        xg, wg = np.polynomial.legendre.leggauss(cls._GL_ORDER)
        pos, mass = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            s = mid + half * xg
            pos.append(s)
            mass.append(2.0 * half * wg * np.array([density(v) for v in s]))
        return cls(np.concatenate(pos), np.concatenate(mass), label=label)

    def _shared(self, lam: float):
        """(lam, lam*s, cosh(lam*s)), computed once per lam object.

        psi_eval passes one w object to mgf, mgf_deriv and mgf_deriv2, so
        a one-entry memo keyed by identity serves all three; the same
        object always has the same bits, where == would match -0.0 with
        0.0.  The memo is replaced as one tuple, so a kernel shared
        between threads never reads a torn entry.
        """
        memo = self._memo
        if memo[0] is lam:
            return memo
        top = abs(lam) * self._top
        if top > _EXP_LIMIT:
            raise MgfOverflowError(f"cosh({top:.6g}) exceeds floating-point range")
        x = lam * self._s
        memo = (lam, x, np.cosh(x))
        self._memo = memo
        return memo

    def mgf(self, lam: float) -> float:
        return float(np.dot(self._m, self._shared(lam)[2]))

    def mgf_deriv(self, lam: float) -> float:
        return float(np.dot(self._ms, np.sinh(self._shared(lam)[1])))

    def mgf_deriv2(self, lam: float) -> float:
        return float(np.dot(self._mss, self._shared(lam)[2]))

    def second_moment(self) -> float:
        return float(np.dot(self._m, self._s * self._s))

    def support_radius(self) -> float:
        return self._top

    def discrete_weights(self, dx: float):
        return _fold_atoms(self._s, self._m, dx)

    def spec_string(self) -> str:
        return self._label


def tabulated_twin(kernel: Kernel) -> TabulatedKernel:
    """Quadrature replacement for a closed-form kernel.

    Atom kernels copy their pair atom exactly; density kernels are
    sampled with the default truncation S = 10*(1 + sqrt(second moment)),
    clipped to the support radius when it is finite.  Used to check that
    the pipeline does not secretly depend on closed forms.
    """
    if isinstance(kernel, TabulatedKernel):
        return kernel
    label = f"twin-of-{kernel.spec_string()}"
    if isinstance(kernel, TwoPointKernel):
        return TabulatedKernel([kernel.support_radius()], [1.0], label=label)
    half = 10.0 * (1.0 + math.sqrt(kernel.second_moment()))
    half = min(half, kernel.support_radius())
    return TabulatedKernel.from_density(kernel.density, half_width=half,
                                        label=label)


def _parse_kv(body: str, key: str, variant: str) -> float:
    parts = body.split("=", 1)
    if len(parts) != 2 or parts[0].strip() != key:
        raise DomainError(
            f"kernel spec '{variant}:{body}' should look like '{variant}:{key}=<number>'")
    try:
        return float(parts[1])
    except ValueError as exc:
        raise DomainError(f"kernel spec '{variant}:{body}': "
                          f"'{parts[1]}' is not a number") from exc


def _load_table(path: str) -> TabulatedKernel:
    pos, wts = [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"cannot read kernel table '{path}': {exc}") from exc
    rows = [(no, raw.strip()) for no, raw in enumerate(lines, start=1)]
    rows = [(no, line) for no, line in rows if line and not line.startswith("#")]
    for k, (no, line) in enumerate(rows):
        cells = line.split(",")
        if len(cells) != 2:
            raise DomainError(f"{path}:{no}: expected two columns 's,weight'")
        try:
            s_i, w_i = float(cells[0]), float(cells[1])
        except ValueError:
            if k == 0:
                continue  # the optional header: first row past blanks and comments
            raise DomainError(f"{path}:{no}: non-numeric row {line!r}") from None
        pos.append(s_i)
        wts.append(w_i)
    if not pos:
        raise DomainError(f"kernel table '{path}' contains no data rows")
    return TabulatedKernel.from_atoms(pos, wts, label=f"table:{path}")


def kernel_from_spec(text: str) -> Kernel:
    """Parse a CLI kernel spec.

    Grammar: ``gaussian:alpha=A`` | ``uniform:a=A`` | ``twopoint:a=A``
    | ``dirac`` | ``table:PATH`` where PATH names a two-column CSV
    ``s,weight`` of (possibly one-sided) atoms.
    """
    text = text.strip()
    if not text:
        raise DomainError("empty kernel spec")
    head, _, body = text.partition(":")
    head = head.strip().lower()
    if head == "dirac":
        if body:
            raise DomainError("kernel spec 'dirac' takes no parameters")
        return DiracKernel()
    if head == "gaussian":
        return GaussianKernel(_parse_kv(body, "alpha", "gaussian"))
    if head == "uniform":
        return UniformKernel(_parse_kv(body, "a", "uniform"))
    if head == "twopoint":
        return TwoPointKernel(_parse_kv(body, "a", "twopoint"))
    if head == "table":
        if not body:
            raise DomainError("kernel spec 'table:' needs a CSV path")
        return _load_table(body)
    raise DomainError(
        f"unknown kernel variant '{head}'; expected one of "
        "gaussian:alpha=, uniform:a=, twopoint:a=, dirac, table:path.csv")
