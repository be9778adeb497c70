"""Tabulated kernels: atoms on the half line, and their grid discretization.

The one kernel module that computes on arrays, so the only one that
imports numpy at load time; `kernels` loads it on first use of
TabulatedKernel, of `tabulated_twin`, of a ``table:`` spec or of a
kernel's discretization for the simulator.

TabulatedKernel carries atoms (s_j, m_j) on the nonnegative half line,
each atom standing for the symmetric pair +-s_j; that representation
keeps evenness exact in floating point instead of merely approximate.
Kernels with atoms have no `density`, and all of them discretize
through `_fold_atoms` onto the contiguous offsets a density gets.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, MgfOverflowError
from .kernels import _EXP_LIMIT, Kernel, _require


@functools.cache
def _gauss_legendre(order: int):
    """leggauss(order), computed once per process: (nodes, weights), both
    read-only, since every caller shares them."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


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
        xg, wg = _gauss_legendre(cls._GL_ORDER)
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
