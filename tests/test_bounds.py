"""Explicit speed bounds: closed forms, regimes, and the r-family."""

import math

import pytest

from conftest import AD_OPT_GAUSS_P2_H1, K1_GAUSS_P2, K2_GAUSS_P2, rel
from wavespeed.bounds import (
    ad_upper,
    ad_upper_opt,
    bound_window,
    k1,
    k2,
    speed_bounds,
)
from wavespeed.charfun import ModelParams
from wavespeed.errors import DomainError, MgfOverflowError
from wavespeed.kernels import (
    DiracKernel,
    GaussianKernel,
    TwoPointKernel,
    UniformKernel,
)
from wavespeed.solver import solve_critical

GAUSS1 = GaussianKernel(1.0)
AD_KERNELS = (DiracKernel(), GAUSS1, UniformKernel(1.0), TwoPointKernel(1.0),
              TwoPointKernel(50.0))


class TestExplicitConstants:
    def test_k1_closed_form(self):
        # q = sqrt((p-1)/(1+(p/2)m2)) = 1/sqrt(3) at p=2, m2=2, and
        # k1 = 2q + p M'(q) = 2q + 4q e^{q^2}
        q = 1.0 / math.sqrt(3.0)
        expected = 2.0 * q + 4.0 * q * math.exp(q * q)
        assert rel(k1(2.0, GAUSS1), expected) < 1e-14
        assert rel(k1(2.0, GAUSS1), K1_GAUSS_P2) < 1e-14

    def test_k2_closed_form(self):
        # ln(p M(sqrt(ln p)))/sqrt(ln p) with M = e^{lam^2} collapses to
        # ln(p^2)/sqrt(ln p) = 2 sqrt(ln p)
        assert rel(k2(2.0, GAUSS1), 2.0 * math.sqrt(math.log(2.0))) < 1e-14
        assert rel(k2(2.0, GAUSS1), K2_GAUSS_P2) < 1e-14

    def test_k2_general_identity(self):
        for kernel in (UniformKernel(1.0), TwoPointKernel(1.0)):
            for p in (2.0, 3.0):
                root = math.sqrt(math.log(p))
                expected = math.log(p * kernel.mgf(root)) / root
                assert rel(k2(p, kernel), expected) < 1e-14

    @pytest.mark.parametrize("p", [1.0, 0.5, math.nan])
    def test_constants_need_p_above_one(self, p):
        for constant in (k1, k2):
            with pytest.raises(DomainError):
                constant(p, GAUSS1)

    @pytest.mark.parametrize("kernel, p", [
        (UniformKernel(1e3), 2.0),          # sinh(832) overflows
        (GaussianKernel(1e3), 1e3),         # exp(6908) overflows
    ])
    def test_k2_is_infinite_where_the_mgf_overflows(self, kernel, p):
        # +inf is a valid upper-bound constant: the window binds at k1
        assert k2(p, kernel) == math.inf
        b = speed_bounds(ModelParams(p=p, h=1.0), kernel)
        assert b.upper_k2 == math.inf
        assert b.upper == b.upper_k1 < math.inf

    def test_k1_where_its_denominator_overflows(self):
        # alpha = 1e3 has m2 = 2e3, so 1 + (p/2) m2 overflows from p near
        # 1.8e305; q = sqrt((p-1)/inf) was 0 and k1 with it, which left
        # the window's upper end below its lower one.  q ~ 1/sqrt(1e3) and
        # M'(q) = 2 alpha q e^{alpha q^2}
        kernel = GaussianKernel(1e3)
        q = 1.0 / math.sqrt(1e3)
        expected = 2.0 * q + 1e306 * (2e3 * q * math.e)
        assert rel(k1(1e306, kernel), expected) < 1e-13
        assert k1(1e308, kernel) == math.inf

    def test_dirac_k2_is_exact_speed(self):
        # point kernel: M = 1, so k2 = sqrt(ln p), which is exactly the
        # unit-delay speed; the upper bound is sharp there
        for p in (2.0, math.e, 5.0):
            assert rel(k2(p, DiracKernel()), math.sqrt(math.log(p))) < 1e-14


class TestSpeedBounds:
    def test_short_delay_regime(self):
        b = speed_bounds(ModelParams(p=2.0, h=0.5), GAUSS1)
        assert b.regime == "h<=1"
        assert rel(b.upper_k1, b.k1 / 1.5) < 1e-15
        assert rel(b.upper_k2, b.k2 / 0.5) < 1e-15
        assert rel(b.lower_log, 2.0 * math.sqrt(math.log(2.0)) / 1.5) < 1e-15
        assert b.lower == max(b.lower_add, b.lower_log)
        assert b.upper == min(b.upper_k1, b.upper_k2)

    def test_long_delay_regime(self):
        b = speed_bounds(ModelParams(p=2.0, h=4.0), GAUSS1)
        assert b.regime == "h>=1"
        assert rel(b.upper_k1, b.k1 / 2.0) < 1e-15
        assert rel(b.upper_k2, b.k2 / 2.0) < 1e-15
        assert rel(b.lower_log, math.sqrt(math.log(2.0)) / 4.0) < 1e-15

    def test_regimes_join_continuously(self):
        # at h = 1 both branches give the same four candidates
        b = speed_bounds(ModelParams(p=2.0, h=1.0), GAUSS1)
        assert rel(b.upper_k1, b.k1 / 2.0) < 1e-15
        assert rel(b.upper_k2, b.k2) < 1e-15
        assert rel(b.lower_log, math.sqrt(math.log(2.0))) < 1e-15

    def test_no_delay_drops_k2(self):
        b = speed_bounds(ModelParams(p=2.0, h=0.0), GAUSS1)
        assert b.upper_k2 == math.inf
        assert b.upper == b.upper_k1

    def test_lower_add_formula(self):
        for h in (0.0, 0.5, 2.0):
            b = speed_bounds(ModelParams(p=2.0, h=h), GAUSS1)
            expected = 2.0 * math.sqrt(1.0 / (2.0 * (2.0 * h + h * h) + 1.0))
            assert rel(b.lower_add, expected) < 1e-15

    def test_sandwich_is_strict(self):
        for kernel in (GAUSS1, UniformKernel(1.0), TwoPointKernel(1.0)):
            for h in (0.0, 0.7, 1.0, 2.5):
                params = ModelParams(p=2.0, h=h)
                b = speed_bounds(params, kernel)
                c = solve_critical(params, kernel).c_star
                assert b.lower < c < b.upper

    def test_window_helper(self):
        params = ModelParams(p=2.0, h=1.0)
        lo, hi = bound_window(params, GAUSS1)
        b = speed_bounds(params, GAUSS1)
        assert (lo, hi) == (b.lower, b.upper)

    def test_with_ad_populates_optimum(self):
        b = speed_bounds(ModelParams(p=2.0, h=1.0), GAUSS1, with_ad=True)
        assert b.upper_ad_opt is not None
        assert rel(b.upper_ad_opt, AD_OPT_GAUSS_P2_H1["value"]) < 1e-9


class TestAdFamily:
    def test_h_scaling(self):
        # h * ad_upper(r) does not depend on h: the whole family is a
        # single function of r rescaled by the delay
        r = 0.4
        base = 1.0 * ad_upper(ModelParams(p=2.0, h=1.0), GAUSS1, r)
        for h in (0.5, 2.0, 7.0):
            val = h * ad_upper(ModelParams(p=2.0, h=h), GAUSS1, r)
            assert rel(val, base) < 1e-14

    def test_optimum_matches_frozen_value(self):
        r_star, value = ad_upper_opt(ModelParams(p=2.0, h=1.0), GAUSS1)
        assert rel(value, AD_OPT_GAUSS_P2_H1["value"]) < 1e-10
        assert abs(r_star - AD_OPT_GAUSS_P2_H1["r"]) < 1e-9

    def test_optimum_never_beats_probes(self):
        params = ModelParams(p=2.0, h=1.0)
        _, value = ad_upper_opt(params, GAUSS1)
        for r in (0.2, 0.4, 0.55, 0.7, 0.9):
            assert value <= ad_upper(params, GAUSS1, r) + 1e-12
        # 91 log-spaced r in [1e-9, 1 - 1e-9]; members whose M overflows
        # are not in the family
        lo, hi = math.log(1e-9), math.log1p(-1e-9)
        grid = [math.exp(lo + (hi - lo) * i / 90.0) for i in range(91)]
        for kernel in AD_KERNELS + (UniformKernel(100.0), GaussianKernel(1e3),
                                    TwoPointKernel(800.0)):
            for p in (1.0001, 2.0, 1e3):
                params = ModelParams(p=p, h=1.0)
                _, value = ad_upper_opt(params, kernel)
                for r in grid:
                    try:
                        probe = ad_upper(params, kernel, r)
                    except MgfOverflowError:
                        continue
                    assert value <= probe * (1.0 + 1e-12), (kernel, p, r)

    def test_is_an_upper_bound(self):
        params = ModelParams(p=2.0, h=1.0)
        _, value = ad_upper_opt(params, GAUSS1)
        assert value > solve_critical(params, GAUSS1).c_star

    @pytest.mark.parametrize("kernel, p, h, at_most", [
        # the members at r = 1e-6 are 0.63 % and 3.2 % above these minima
        (TwoPointKernel(50.0), 1.0 + 1e-9, 1e4, 2.23697e-7),
        (UniformKernel(100.0), 1.0 + 1e-9, 1.0, 2.58277e-3),
    ])
    def test_finds_minima_below_r_one_in_a_million(self, kernel, p, h,
                                                   at_most):
        r_star, value = ad_upper_opt(ModelParams(p=p, h=h), kernel)
        assert r_star < 1e-6
        assert value <= at_most

    @pytest.mark.parametrize("kernel", [GaussianKernel(1e3),
                                        TwoPointKernel(800.0)])
    def test_answers_where_the_family_overflows_far_out(self, kernel):
        # M(r) overflows for r > 0.84 and r > 0.875, far past the minima
        # near r = 0.026 and 0.0077: the family rises there, and no
        # overflow escapes
        params = ModelParams(p=2.0, h=1.0)
        r_star, value = ad_upper_opt(params, kernel)
        assert 0.0 < r_star < 0.1
        assert solve_critical(params, kernel).c_star < value < math.inf

    def test_minimum_past_the_overflow_is_the_last_representable_member(self):
        # p cosh(1000 r)/(1 - r^2) overflows past r = 0.6914 while the
        # family still falls (its minimum would sit near r = 0.95): the
        # result is the last member with a finite value, still a bound
        kernel, params = TwoPointKernel(1e3), ModelParams(p=1e8, h=1.0)
        r_star, value = ad_upper_opt(params, kernel)
        assert 0.69 < r_star < 0.6915 and value < math.inf
        for r in (0.5, 0.6, 0.69):
            assert value < ad_upper(params, kernel, r)
        assert ad_upper(params, kernel, 0.6915) == math.inf

    def test_domain_errors(self):
        params = ModelParams(p=2.0, h=1.0)
        for r in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(DomainError):
                ad_upper(params, GAUSS1, r)
        with pytest.raises(DomainError):
            ad_upper(ModelParams(p=2.0, h=0.0), GAUSS1, 0.5)
        with pytest.raises(DomainError):
            ad_upper_opt(ModelParams(p=2.0, h=0.0), GAUSS1)


def _mp_ad_minimum(mp, kernel, p):
    """(r*, F(r*)) of F(r) = ln(p M(r)/(1 - r^2))/r to 40 digits.

    M in closed form; r* by 150 bisections in log r on the sign of
    r^2 F'(r) = r phi'(r) - phi(r), where phi = r F.
    """
    def log_mgf_and_ratio(r):
        # (ln M(r), M'(r)/M(r))
        if isinstance(kernel, GaussianKernel):
            return kernel.alpha * r * r, 2 * kernel.alpha * r
        if isinstance(kernel, UniformKernel):
            u = kernel.a * r
            return mp.log(mp.sinh(u) / u), kernel.a * mp.coth(u) - 1 / r
        if kernel.a == 0.0:
            return mp.mpf(0), mp.mpf(0)
        u = kernel.a * r
        return mp.log(mp.cosh(u)), kernel.a * mp.tanh(u)

    def phi_and_gap(r):
        log_m, ratio = log_mgf_and_ratio(r)
        phi = mp.log(mp.mpf(p)) + log_m - mp.log(1 - r * r)
        return phi, r * (ratio + 2 * r / (1 - r * r)) - phi

    lo, hi = mp.log(mp.mpf("1e-12")), mp.mpf(0)
    for _ in range(150):
        mid = (lo + hi) / 2
        if phi_and_gap(mp.exp(mid))[1] > 0:
            hi = mid
        else:
            lo = mid
    r = mp.exp(lo)
    return r, phi_and_gap(r)[0] / r


class TestAdOracle:
    # p - 1 = 1e-9 leaves ln(p M/(1 - r^2)) an argument 1 + O(1e-9) whose
    # last bit is about 1e-7 of its log; elsewhere the bound is 1e-12
    @pytest.mark.parametrize("p, tol", [(1.0 + 1e-9, 1e-7), (1.0001, 1e-12),
                                        (2.0, 1e-12), (1e3, 1e-12)])
    @pytest.mark.parametrize("kernel", AD_KERNELS,
                             ids=lambda k: k.spec_string())
    def test_matches_forty_digit_minimum(self, kernel, p, tol):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            r_ref, value_ref = _mp_ad_minimum(mp, kernel, p)
            r_star, value = ad_upper_opt(ModelParams(p=p, h=1.0), kernel)
            assert abs(value - value_ref) <= tol * value_ref
            assert abs(r_star - r_ref) <= 1e-6 * r_ref
