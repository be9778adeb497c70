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
TabulatedKernel (atoms on the half line, module `tabulated`) is read
from here too, as `kernels.TabulatedKernel`.

Heavy-tailed kernels (Laplace, Cauchy, ...) have no finite M and are
rejected at construction by not existing here.  Kernels with atoms are
supported even though much of the surrounding theory is usually stated
for densities; they have no `density`, and all of them discretize
through `tabulated._fold_atoms` onto the contiguous offsets a density
gets.

This module imports no numpy: the closed forms are scalar math.  What
computes on arrays imports it when called, namely the simulator's
discretizations (`discrete_weights`, the atom kernels' `reach`) and the
`tabulated` module, which loads on first use of TabulatedKernel,
`tabulated_twin` or a ``table:`` spec.  A process that only solves,
bounds or writes curves with closed-form kernels never loads numpy.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from .errors import DomainError, MgfOverflowError

# exp() overflows a little above 709; keep headroom for products
_EXP_LIMIT = 700.0


def checked_exp(x: float) -> float:
    """exp(x), but raise MgfOverflowError instead of returning inf."""
    if x > _EXP_LIMIT:
        raise MgfOverflowError(f"exp({x:.6g}) exceeds floating-point range")
    return math.exp(x)


def _guard(u: float) -> float:
    """u, the argument of a compact kernel's cosh and sinh; raise
    MgfOverflowError once |u| passes the limit, on either side."""
    if abs(u) > _EXP_LIMIT:
        raise MgfOverflowError(f"exp({abs(u):.6g}) exceeds floating-point range")
    return u


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


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
        from .tabulated import _atom_cells
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
        import numpy as np
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
        u = _guard(self.a * lam)
        if abs(u) <= self._SERIES_CUT:
            u2 = u * u
            return 1.0 + u2 / 6.0 + u2 * u2 / 120.0 + u2 * u2 * u2 / 5040.0 \
                + u2 * u2 * u2 * u2 / 362880.0
        return math.sinh(u) / u

    def mgf_deriv(self, lam: float) -> float:
        # d/dlam sinh(u)/u = a * (u*cosh(u) - sinh(u)) / u^2
        u = _guard(self.a * lam)
        if abs(u) <= self._SERIES_CUT:
            u2 = u * u
            g = u * (1.0 / 3.0 + u2 / 30.0 + u2 * u2 / 840.0
                     + u2 * u2 * u2 / 45360.0 + u2 * u2 * u2 * u2 / 3991680.0)
            return self.a * g
        return self.a * (u * math.cosh(u) - math.sinh(u)) / (u * u)

    def mgf_deriv2(self, lam: float) -> float:
        u = _guard(self.a * lam)
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
        import numpy as np
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

    def mgf(self, lam: float) -> float:
        return math.cosh(_guard(self.a * lam))

    def mgf_deriv(self, lam: float) -> float:
        return self.a * math.sinh(_guard(self.a * lam))

    def mgf_deriv2(self, lam: float) -> float:
        return self.a * self.a * math.cosh(_guard(self.a * lam))

    def second_moment(self) -> float:
        return self.a * self.a

    def support_radius(self) -> float:
        return self.a

    def discrete_weights(self, dx: float):
        from .tabulated import _fold_atoms
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


def tabulated_twin(kernel: Kernel) -> TabulatedKernel:
    """Quadrature replacement for a closed-form kernel.

    Atom kernels copy their pair atom exactly; density kernels are
    sampled with the default truncation S = 10*(1 + sqrt(second moment)),
    clipped to the support radius when it is finite.  Used to check that
    the pipeline does not secretly depend on closed forms.
    """
    from .tabulated import TabulatedKernel
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
        from .tabulated import _load_table
        return _load_table(body)
    raise DomainError(
        f"unknown kernel variant '{head}'; expected one of "
        "gaussian:alpha=, uniform:a=, twopoint:a=, dirac, table:path.csv")


def __getattr__(name: str):
    """TabulatedKernel, imported from `tabulated` (and numpy) on first use."""
    if name == "TabulatedKernel":
        from .tabulated import TabulatedKernel
        return TabulatedKernel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
