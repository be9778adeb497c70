"""Kernel layer: closed forms against quadrature, twins, parsing."""

import itertools
import math

import numpy as np
import pytest

from conftest import rel
from wavespeed.charfun import ModelParams
from wavespeed.errors import DomainError, MgfOverflowError
from wavespeed.kernels import (
    DiracKernel,
    GaussianKernel,
    TabulatedKernel,
    TwoPointKernel,
    UniformKernel,
    checked_exp,
    kernel_from_spec,
    tabulated_twin,
)
from wavespeed.solver import solve_critical
from wavespeed.tabulated import _gauss_legendre

LAMBDAS = (0.0, 0.1, 0.37, 0.8, 1.3, 2.0)


def quad_mgf(kernel, lam: float, half_width: float, panels: int = 8,
             order: int = 50) -> float:
    """Independent oracle: integrate density * exp(lam * s) directly.

    Composite Gauss-Legendre panels on [0, half_width]: a single
    high-order rule carries node/weight rounding of about 1e-13, which
    is as large as the tolerances the tests check against.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * half_width / panels
    total = 0.0
    for i in range(panels):
        s = (2 * i + 1) * half + half * x
        dens = np.array([kernel.density(v) for v in s])
        # even density: fold the two half lines into cosh
        total += 2.0 * half * float(np.dot(w, dens * np.cosh(lam * s)))
    return total


class TestGaussian:
    def test_mgf_matches_quadrature(self):
        k = GaussianKernel(1.0)
        for lam in LAMBDAS:
            assert rel(k.mgf(lam), quad_mgf(k, lam, 16.0)) < 1e-13

    def test_density_normalized(self):
        k = GaussianKernel(0.7)
        assert abs(quad_mgf(k, 0.0, 16.0) - 1.0) < 1e-13

    def test_second_moment(self):
        for alpha in (0.3, 1.0, 2.5):
            assert GaussianKernel(alpha).second_moment() == 2.0 * alpha

    def test_mgf_even(self):
        k = GaussianKernel(1.3)
        for lam in LAMBDAS:
            assert k.mgf(lam) == k.mgf(-lam)

    def test_overflow_guarded(self):
        k = GaussianKernel(1.0)
        with pytest.raises(MgfOverflowError):
            k.mgf(40.0)  # alpha*lam^2 = 1600 >> 700

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                GaussianKernel(alpha)


class TestUniform:
    def test_mgf_matches_quadrature(self):
        k = UniformKernel(1.0)
        for lam in LAMBDAS:
            assert rel(k.mgf(lam), quad_mgf(k, lam, 1.0)) < 1e-13

    def test_series_branch_matches_direct_formulas(self):
        # the Taylor branch is active for |a*lam| <= 0.25; at the top of
        # that range the direct formulas are still accurate, so the two
        # must coincide at the same point
        k = UniformKernel(1.0)
        u = 0.2499
        assert rel(k.mgf(u), math.sinh(u) / u) < 1e-12
        assert rel(k.mgf_deriv(u),
                   (u * math.cosh(u) - math.sinh(u)) / (u * u)) < 1e-12
        assert rel(k.mgf_deriv2(u),
                   ((u * u + 2.0) * math.sinh(u) - 2.0 * u * math.cosh(u))
                   / u ** 3) < 1e-12

    def test_deriv_small_argument_limit(self):
        # M'(lam) -> a^2 lam / 3 as lam -> 0; the naive difference of
        # cosh and sinh terms would lose every digit here
        a = 1.5
        k = UniformKernel(a)
        for lam in (1e-10, 1e-8, 1e-6):
            assert rel(k.mgf_deriv(lam), a * a * lam / 3.0) < 1e-9

    def test_second_moment(self):
        assert rel(UniformKernel(2.0).second_moment(), 4.0 / 3.0) < 1e-15

    @pytest.mark.parametrize("lam", [701.0, -701.0])
    def test_derivatives_raise_past_overflow_limit(self, lam):
        # |a lam| above 700: sinh and cosh would leave floating-point range
        k = UniformKernel(1.0)
        for moment in (k.mgf, k.mgf_deriv, k.mgf_deriv2):
            with pytest.raises(MgfOverflowError):
                moment(lam)

    def test_support_radius(self):
        assert UniformKernel(0.8).support_radius() == 0.8

    def test_density_box(self):
        k = UniformKernel(2.0)
        assert k.density(1.9) == 0.25
        assert k.density(2.1) == 0.0


class TestTwoPoint:
    def test_mgf_is_cosh(self):
        k = TwoPointKernel(1.2)
        for lam in LAMBDAS:
            assert rel(k.mgf(lam), math.cosh(1.2 * lam)) < 1e-15
            assert rel(k.mgf_deriv(lam) if lam else 0.0,
                       1.2 * math.sinh(1.2 * lam)) < 1e-15

    def test_second_moment(self):
        assert TwoPointKernel(3.0).second_moment() == 9.0

    def test_discrete_weights_are_atoms(self):
        # contiguous offsets -10..10 with the half masses at both ends
        offsets, weights = TwoPointKernel(1.0).discrete_weights(0.1)
        assert list(offsets) == list(range(-10, 11))
        assert list(weights) == [0.5] + [0.0] * 19 + [0.5]
        assert sum(weights) == 1.0
        # atoms sharing a cell add up, an atom at 0 keeps its whole mass,
        # and half a cell rounds to even: 0.5 cells to 0, 1.5 cells to 2
        table = TabulatedKernel([0.0, 0.25, 0.5, 0.625, 0.75], [1, 1, 1, 1, 4])
        offsets, weights = table.discrete_weights(0.5)
        assert list(offsets) == [-2, -1, 0, 1, 2]
        assert list(weights) == [0.25, 0.125, 0.25, 0.125, 0.25]


class TestDirac:
    def test_mgf_identically_one(self):
        k = DiracKernel()
        for lam in LAMBDAS:
            assert k.mgf(lam) == 1.0
            assert k.mgf_deriv(lam) == 0.0
        assert k.second_moment() == 0.0
        assert k.support_radius() == 0.0

    def test_discrete_weights(self):
        offsets, weights = DiracKernel().discrete_weights(0.1)
        assert list(offsets) == [0]
        assert list(weights) == [1.0]

    def test_is_the_two_point_kernel_at_zero(self):
        dirac, pair = DiracKernel(), TwoPointKernel(0.0)
        for lam in (0.0, 0.37, 2.5, 1e6):
            for k in (dirac, pair):
                assert (k.mgf(lam), k.mgf_deriv(lam),
                        k.mgf_deriv2(lam)) == (1.0, 0.0, 0.0)
        for dx in (0.05, 0.1, 0.2):
            for k in (dirac, pair):
                offsets, weights = k.discrete_weights(dx)
                assert (list(offsets), list(weights)) == ([0], [1.0])
        for p, h in itertools.product((1.5, 2.0, 4.0), (0.0, 0.5, 1.0, 3.0)):
            params = ModelParams(p=p, h=h)
            assert solve_critical(params, dirac) == solve_critical(params, pair)
        assert tabulated_twin(dirac).spec_string() == "twin-of-dirac"


class TestMgfDerivatives:
    """First and second derivatives against central differences."""

    KERNELS = (GaussianKernel(0.8), UniformKernel(1.3), TwoPointKernel(0.9))

    def test_first_derivative(self):
        step = 1e-6
        for k in self.KERNELS:
            for lam in (0.2, 0.9, 1.7):
                fd = (k.mgf(lam + step) - k.mgf(lam - step)) / (2.0 * step)
                assert rel(k.mgf_deriv(lam), fd) < 1e-8

    def test_second_derivative(self):
        # differentiate mgf_deriv rather than second-differencing mgf;
        # the latter is roundoff-limited near 1e-6 relative
        step = 1e-6
        for k in self.KERNELS:
            for lam in (0.2, 0.9, 1.7):
                fd = (k.mgf_deriv(lam + step)
                      - k.mgf_deriv(lam - step)) / (2.0 * step)
                assert rel(k.mgf_deriv2(lam), fd) < 1e-8

    def test_deriv_odd_and_zero_at_origin(self):
        for k in self.KERNELS:
            assert k.mgf_deriv(0.0) == 0.0
            assert k.mgf_deriv(0.7) == -k.mgf_deriv(-0.7)


class TestTabulated:
    def test_from_atoms_matches_twopoint(self):
        tab = TabulatedKernel.from_atoms([-1.0, 1.0], [0.5, 0.5])
        ref = TwoPointKernel(1.0)
        for lam in LAMBDAS:
            assert rel(tab.mgf(lam), ref.mgf(lam)) < 1e-15
            assert abs(tab.mgf_deriv(lam) - ref.mgf_deriv(lam)) < 1e-15

    def test_one_sided_listing_symmetrized(self):
        # listing only s = +1 must mean the pair {-1, +1}
        tab = TabulatedKernel.from_atoms([1.0], [1.0])
        assert rel(tab.mgf(0.9), math.cosh(0.9)) < 1e-15

    def test_masses_renormalized(self):
        tab = TabulatedKernel.from_atoms([0.0, 2.0], [3.0, 1.0])
        assert abs(tab.mgf(0.0) - 1.0) < 1e-15

    def test_rejects_negative_mass(self):
        with pytest.raises(DomainError):
            TabulatedKernel.from_atoms([1.0], [-1.0])

    def test_guard_on_huge_argument(self):
        tab = TabulatedKernel.from_atoms([5.0], [1.0])
        with pytest.raises(MgfOverflowError):
            tab.mgf(200.0)  # lam * s_max = 1000 > 700


def fresh(x: float) -> float:
    """A float equal to x, but a new object."""
    y = float(repr(x))
    assert y == x and y is not x
    return y


class TestTabulatedMemo:
    """mgf, mgf_deriv and mgf_deriv2 share lam*s and cosh(lam*s) through
    a one-entry memo keyed by the identity of lam; every value must keep
    the bits of the plain expression, whatever the call sequence."""

    METHODS = ("mgf", "mgf_deriv", "mgf_deriv2")
    KERNELS = (tabulated_twin(GaussianKernel(1.0)),
               TabulatedKernel.from_atoms([0.0, 1.5], [0.25, 0.75]))

    @staticmethod
    def plain(kernel, name, lam):
        s, m = kernel._s, kernel._m
        if name == "mgf":
            return float(np.dot(m, np.cosh(lam * s)))
        if name == "mgf_deriv":
            return float(np.dot(m * s, np.sinh(lam * s)))
        return float(np.dot(m * s * s, np.cosh(lam * s)))

    def lams(self, kernel):
        edge = 700.0 / kernel._top
        return [0.0, -0.0, 0.37, -0.37, 2.5, -1.1,
                float(np.nextafter(edge, 0.0)), -float(np.nextafter(edge, 0.0))]

    def check(self, kernel, name, lam):
        got = getattr(kernel, name)(lam)
        assert got.hex() == self.plain(kernel, name, lam).hex(), (name, lam)

    @pytest.mark.parametrize("kernel", KERNELS, ids=("twin", "two-atom"))
    def test_every_call_order(self, kernel):
        for order in itertools.permutations(self.METHODS):
            for lam in self.lams(kernel):
                for name in order:
                    self.check(kernel, name, lam)
                # an equal value in a new object, then the same again
                twin_lam = fresh(lam)
                for name in order + order:
                    self.check(kernel, name, twin_lam)

    @pytest.mark.parametrize("kernel", KERNELS, ids=("twin", "two-atom"))
    def test_alternating_objects(self, kernel):
        # -0.0 == 0.0, so only an identity key keeps their bits apart
        lams = self.lams(kernel)
        for a, b in itertools.product(lams, repeat=2):
            for name in self.METHODS:
                for lam in (a, b, a, fresh(b), a):
                    self.check(kernel, name, lam)

    def test_signed_zero_keeps_its_sign(self):
        kernel = TabulatedKernel.from_atoms([1.0], [1.0])
        for lam in (0.0, -0.0, 0.0, -0.0):
            self.check(kernel, "mgf_deriv", lam)
        assert kernel.mgf_deriv(-0.0).hex() == (-0.0).hex()
        assert kernel.mgf_deriv(0.0).hex() == (0.0).hex()

    @pytest.mark.parametrize("name", METHODS)
    def test_overflow_on_first_call(self, name):
        kernel = TabulatedKernel.from_atoms([5.0], [1.0])
        for lam in (141.0, -141.0):  # |lam| * s_max = 705 > 700
            with pytest.raises(MgfOverflowError):
                getattr(kernel, name)(lam)
        # and after the memo holds a good lam
        self.check(kernel, name, 1.0)
        with pytest.raises(MgfOverflowError):
            getattr(kernel, name)(141.0)
        self.check(kernel, name, 1.0)


class TestQuadratureTwins:
    """A twin built purely from density samples must reproduce the
    closed-form transform to within 1e-9; this is the cross-validation
    path for kernels supplied as tables."""

    def test_gaussian_twin(self):
        k = GaussianKernel(1.0)
        twin = tabulated_twin(k)
        for lam in LAMBDAS:
            assert rel(twin.mgf(lam), k.mgf(lam)) < 1e-9
            assert abs(twin.mgf_deriv(lam) - k.mgf_deriv(lam)) < 1e-9
        assert rel(twin.second_moment(), k.second_moment()) < 1e-9

    def test_uniform_twin(self):
        # compact support: the twin must clip its panels at the support
        # edge or the density jump costs six digits
        k = UniformKernel(1.0)
        twin = tabulated_twin(k)
        for lam in LAMBDAS:
            assert rel(twin.mgf(lam), k.mgf(lam)) < 1e-9
        assert twin.support_radius() <= 1.0 + 1e-12

    def test_atomic_twins_are_exact(self):
        # atom kernels need no quadrature; their twins copy the atoms
        dt = tabulated_twin(DiracKernel())
        tt = tabulated_twin(TwoPointKernel(1.4))
        for lam in LAMBDAS:
            assert dt.mgf(lam) == 1.0
            assert rel(tt.mgf(lam), math.cosh(1.4 * lam)) < 1e-15

    def test_twin_of_twin_is_itself(self):
        twin = tabulated_twin(GaussianKernel(1.0))
        assert tabulated_twin(twin) is twin

    def test_gauss_legendre_rule_is_built_once(self):
        # every twin shares one read-only copy of leggauss's 32-point rule
        rule = _gauss_legendre(TabulatedKernel._GL_ORDER)
        assert _gauss_legendre(TabulatedKernel._GL_ORDER) is rule
        for got, want in zip(rule, np.polynomial.legendre.leggauss(32)):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable


class TestDiscreteWeights:
    @pytest.mark.parametrize("kernel", [
        GaussianKernel(0.3), UniformKernel(1.0), UniformKernel(0.01),
        TwoPointKernel(0.15), DiracKernel(),
        TabulatedKernel([0.0, 0.3, 1.26], [1.0, 2.0, 3.0])])
    @pytest.mark.parametrize("dx", [0.05, 0.1, 0.2])
    def test_reach_is_the_discretized_width(self, kernel, dx):
        # the simulator sizes its domain check from reach alone
        offsets, _ = kernel.discrete_weights(dx)
        assert list(offsets) == list(range(-kernel.reach(dx),
                                           kernel.reach(dx) + 1))

    def test_unit_sum_and_symmetry(self):
        for k in (GaussianKernel(1.0), UniformKernel(1.0)):
            offsets, weights = k.discrete_weights(0.1)
            assert abs(float(np.sum(weights)) - 1.0) < 1e-12
            assert list(offsets) == [-o for o in reversed(list(offsets))]
            assert np.allclose(weights, weights[::-1], rtol=0, atol=0)

    @staticmethod
    def _fold_atoms_loop(support, masses, dx):
        """The per-cell loop that _fold_atoms vectorizes, kept as its
        reference: Python's round also rounds half to even."""
        acc = {}
        for s_j, m_j in zip(support, masses):
            j = int(round(s_j / dx))
            if j == 0:
                acc[0] = acc.get(0, 0.0) + m_j
            else:
                acc[j] = acc.get(j, 0.0) + 0.5 * m_j
                acc[-j] = acc.get(-j, 0.0) + 0.5 * m_j
        nw = max(acc)
        weights = np.array([acc.get(j, 0.0) for j in range(-nw, nw + 1)])
        return weights / weights.sum()

    @pytest.mark.parametrize("kernel", [
        DiracKernel(), TwoPointKernel(0.05), TwoPointKernel(0.15),
        TwoPointKernel(1.0), TwoPointKernel(8.0),
        TabulatedKernel.from_atoms([0.0, 0.04, -0.04, 0.06, 0.1, 0.14, 0.15,
                                    0.25, 1.0, 1.02], range(1, 11)),
        tabulated_twin(GaussianKernel(1.0)), tabulated_twin(UniformKernel(1.0))])
    @pytest.mark.parametrize("dx", [0.05, 0.1, 0.2])
    def test_atom_weights_equal_the_loop(self, kernel, dx):
        twin = tabulated_twin(kernel)
        _, weights = kernel.discrete_weights(dx)
        reference = self._fold_atoms_loop(twin._s, twin._m, dx)
        assert weights.tobytes() == reference.tobytes()

    def test_compact_support_truncation(self):
        offsets, _ = UniformKernel(1.0).discrete_weights(0.1)
        # no weight outside the support
        assert max(offsets) <= int(round(1.0 / 0.1)) + 1

    @pytest.mark.parametrize("alpha, taps", [(1.0, 201), (0.3, 111), (25.0, 1001)])
    def test_gaussian_reach_follows_its_width(self, alpha, taps):
        # sampled out to the first cell at or past 10 sqrt(alpha), where
        # the density is e^-25 of its peak, whatever the width
        offsets, weights = GaussianKernel(alpha).discrete_weights(0.1)
        assert offsets.size == taps
        ratio = weights / weights[taps // 2]
        assert ratio[0] <= math.exp(-25.0) * (1.0 + 1e-12) < ratio[1]

    def test_uniform_cells_are_averaged(self):
        # the cells at +-a straddle the box edge and carry half weight
        offsets, weights = UniformKernel(1.0).discrete_weights(0.1)
        assert list(offsets) == list(range(-10, 11))
        assert weights[0] == weights[-1] == pytest.approx(0.5 * weights[10])
        # the trapezoid rule's a^2/3 + dx^2/6; sampling gave 0.367
        second = float(np.sum(weights * (offsets * 0.1) ** 2))
        assert second == pytest.approx(1.0 / 3.0 + 0.1 ** 2 / 6.0, rel=1e-12)

    @staticmethod
    def _atoms_speed_gap(kernel) -> float:
        """Relative gap between c* of the atoms the simulator convolves
        with at dx 0.1 and the kernel's own c* (p = 2, h = 1)."""
        params = ModelParams(p=2.0, h=1.0)
        offsets, weights = kernel.discrete_weights(0.1)
        atoms = TabulatedKernel.from_atoms(offsets * 0.1, weights)
        c_atoms = solve_critical(params, atoms).c_star
        return rel(c_atoms, solve_critical(params, kernel).c_star)

    @pytest.mark.parametrize("a", [1.0, 0.95, 2.37, 12.0, 20.0])
    def test_uniform_atoms_keep_the_speed(self, a):
        # within 0.1 % however wide the box (sampling the density would
        # put a = 1 0.7 % high, and a cut at 10 units a = 20 49 % low)
        assert self._atoms_speed_gap(UniformKernel(a)) <= 1e-3

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 9.0, 25.0])
    def test_gaussian_atoms_keep_the_speed(self, alpha):
        # within 1e-9 however wide the Gaussian (a cut at 10 units would
        # put alpha = 9 7.4 % low and alpha = 25 31 % low)
        assert self._atoms_speed_gap(GaussianKernel(alpha)) <= 1e-9


class TestCheckedExp:
    def test_passthrough_and_guard(self):
        assert checked_exp(1.0) == math.exp(1.0)
        assert checked_exp(699.0) == math.exp(699.0)
        with pytest.raises(MgfOverflowError):
            checked_exp(701.0)


class TestKernelSpecParsing:
    def test_round_trips(self):
        for text, cls in (("gaussian:alpha=1", GaussianKernel),
                          ("gaussian:alpha=0.25", GaussianKernel),
                          ("uniform:a=2", UniformKernel),
                          ("twopoint:a=1.5", TwoPointKernel),
                          ("dirac", DiracKernel)):
            k = kernel_from_spec(text)
            assert isinstance(k, cls)
            assert repr(k) == f"{cls.__name__}({k.spec_string()!r})"
            again = kernel_from_spec(k.spec_string())
            for lam in LAMBDAS:
                assert k.mgf(lam) == again.mgf(lam)

    def test_rejects_malformed_text(self):
        for text in ("", "gauss:alpha=1", "gaussian", "gaussian:alpha=",
                     "gaussian:alpha=zero", "gaussian:beta=1",
                     "uniform:a=-1", "twopoint:a=nan", "dirac:x=1", "table:"):
            with pytest.raises(DomainError):
                kernel_from_spec(text)

    def test_table_file(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("s,weight\n# comment line\n-1.0,0.25\n\n"
                        "0.0,0.5\n1.0,0.25\n")
        k = kernel_from_spec(f"table:{path}")
        assert isinstance(k, TabulatedKernel)
        # symmetric pair plus center atom: M = 0.5 + 0.5 cosh(lam)
        for lam in LAMBDAS:
            assert rel(k.mgf(lam), 0.5 + 0.5 * math.cosh(lam)) < 1e-15

    def test_table_header_after_comments(self, tmp_path):
        # the optional header is the first row that is neither blank nor
        # a comment, wherever it sits; a later non-numeric row is refused
        path = tmp_path / "t.csv"
        path.write_text("# atoms of a three-point kernel\n\ns,weight\n"
                        "0,0.5\n1,0.5\n")
        k = kernel_from_spec(f"table:{path}")
        for lam in LAMBDAS:
            assert rel(k.mgf(lam), 0.5 + 0.5 * math.cosh(lam)) < 1e-15
        path.write_text("# atoms\n0,0.5\ns,weight\n1,0.5\n")
        with pytest.raises(DomainError, match=r"t\.csv:3: non-numeric row"):
            kernel_from_spec(f"table:{path}")

    def test_table_file_missing(self, tmp_path):
        with pytest.raises(DomainError):
            kernel_from_spec(f"table:{tmp_path / 'absent.csv'}")

    def test_table_file_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.5,extra\n")
        with pytest.raises(DomainError):
            kernel_from_spec(f"table:{path}")
        path.write_text("s,weight\n")
        with pytest.raises(DomainError, match="no data rows"):
            kernel_from_spec(f"table:{path}")
