"""Critical-point solver, seed equation, cubic fast path, continuation."""

import gc
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import IVP_REFERENCE, REFERENCE, rel
from wavespeed import solver
from wavespeed.bounds import ad_upper_opt, bound_window
from wavespeed.charfun import ModelParams, critical_point, psi_eval
from wavespeed.errors import (
    ConvergenceError,
    CubicRootError,
    DomainError,
    MgfOverflowError,
    NumericalError,
)
from wavespeed.kernels import (
    DiracKernel,
    GaussianKernel,
    TwoPointKernel,
    UniformKernel,
    tabulated_twin,
)
from wavespeed.solver import (
    DEFAULT_CONFIG,
    SpeedCurve,
    cardano_w0,
    continue_ode,
    min_psi,
    solve_critical,
    solve_ivp_rho0,
    sweep_direct,
)

GAUSS1 = GaussianKernel(1.0)


def kernel_for(tag):
    return {"gauss": GAUSS1, "uniform": UniformKernel(1.0),
            "twopoint": TwoPointKernel(1.0)}[tag.split("_")[0]]


def assert_certified(cp, params, kernel):
    assert cp.res_psi <= 1e-9
    assert cp.res_psi_z <= 1e-9
    assert cp.psi_zz > 0.0
    assert cp.psi_eps > 0.0
    lower, upper = bound_window(params, kernel)
    assert lower * (1.0 - 1e-12) <= cp.c_star <= upper * (1.0 + 1e-12)


def _bisect_reference(params, kernel):
    """solve_critical with a cold min_psi deciding every midpoint's sign.

    This is the solver before midpoint signs were certified from a warm
    z; both must take the same decisions and so return equal points.
    """
    lower, upper = bound_window(params, kernel)
    eps_lo = (1.0 - 1e-9) / (upper * upper)
    eps_hi = (1.0 + 1e-9) / (lower * lower)
    f_lo = min_psi(eps_lo, params, kernel)[1]
    for _ in range(8):
        if f_lo < 0.0:
            break
        eps_lo *= 0.5
        f_lo = min_psi(eps_lo, params, kernel)[1]
    f_hi = min_psi(eps_hi, params, kernel)[1]
    assert f_lo < 0.0 < f_hi
    lo, hi = eps_lo, eps_hi
    for _ in range(DEFAULT_CONFIG.max_bisect):
        if hi - lo <= DEFAULT_CONFIG.eps_rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if min_psi(mid, params, kernel)[1] > 0.0:
            hi = mid
        else:
            lo = mid
    eps0 = 0.5 * (lo + hi)
    z0, _ = min_psi(eps0, params, kernel)
    return critical_point(z0, eps0, params, kernel)


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


FAMILIES = ("gaussian", "uniform", "twopoint", "dirac", "gaussian-twin",
            "uniform-twin")


def make_kernel(family, param):
    if family == "gaussian-twin":
        return tabulated_twin(GaussianKernel(param))
    if family == "uniform-twin":
        return tabulated_twin(UniformKernel(param))
    if family == "dirac":
        return DiracKernel()
    return {"gaussian": GaussianKernel, "uniform": UniformKernel,
            "twopoint": TwoPointKernel}[family](param)


class TestMinPsi:
    def test_sign_straddles_critical_value(self):
        params = ModelParams(p=2.0, h=1.0)
        eps0 = REFERENCE["gauss_h1"]["eps0"]
        _, below = min_psi(0.9 * eps0, params, GAUSS1)
        _, above = min_psi(1.1 * eps0, params, GAUSS1)
        assert below < 0.0 < above

    def test_minimizer_is_stationary(self):
        params = ModelParams(p=2.0, h=0.5)
        z, _ = min_psi(0.4, params, GAUSS1)
        ev = psi_eval(z, 0.4, params, GAUSS1)
        assert abs(ev.dz) < 1e-9
        assert ev.dzz > 0.0

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(family=st.sampled_from(("gaussian", "uniform", "twopoint",
                                   "dirac", "gaussian-twin")),
           param=st.floats(0.1, 5.0),
           z=st.floats(1e-3, 20.0),
           eps=st.floats(1e-2, 10.0),
           p_minus_1=st.floats(1e-2, 10.0),
           h=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)))
    def test_one_evaluation_encloses_the_minimum(self, family, param, z, eps,
                                                 p_minus_1, h):
        # psi_zz >= 2*eps makes psi - psi_z^2/(4*eps) <= min psi <= psi at
        # any z; solve_critical decides midpoint signs from this enclosure
        kernel = make_kernel(family, param)
        params = ModelParams(p=1.0 + p_minus_1, h=h)
        try:
            ev = psi_eval(z, eps, params, kernel)
        except MgfOverflowError:
            assume(False)
        _, lowest = min_psi(eps, params, kernel)
        terms = 1.0 + z + eps * z * z + abs(ev.value) + abs(ev.dz) / eps
        slack = 1e-13 * terms
        assert ev.value - ev.dz * ev.dz / (4.0 * eps) <= lowest + slack
        assert lowest <= ev.value + slack

    def test_extreme_delay_converges(self):
        # large h pushes the minimizer toward z = 0 with huge curvature;
        # the safeguarded search must not stall on tiny Newton steps
        params = ModelParams(p=2.0, h=100.0)
        eps0 = REFERENCE["gauss_h100"]["eps0"]
        z, val = min_psi(eps0, params, GAUSS1)
        assert abs(val) < 1e-7
        assert 0.0 < z < 0.1


class TestSolveCritical:
    @pytest.mark.parametrize("kernel", [DiracKernel(), GaussianKernel(1.0),
                                        UniformKernel(1.0)])
    @pytest.mark.parametrize("h", [1e155, 1e200])
    def test_refuses_delay_beyond_double_range(self, kernel, h):
        # the lower speed bound sqrt(ln p)/h squares below the smallest
        # normal double, so 1/lower^2 would be inf (h = 1e155) or divide
        # by an underflowed 0 (h = 1e200)
        with pytest.raises(DomainError, match="lower speed bound .* double range"):
            solve_critical(ModelParams(p=2.0, h=h), kernel)

    @pytest.mark.parametrize("tag", sorted(REFERENCE))
    def test_matches_frozen_references(self, tag):
        h = float(tag.split("_h")[1])
        ref = REFERENCE[tag]
        cp = solve_critical(ModelParams(p=2.0, h=h), kernel_for(tag))
        assert rel(cp.eps0, ref["eps0"]) < 2e-12
        assert rel(cp.c_star, ref["c_star"]) < 2e-12
        assert rel(cp.z0, ref["z0"]) < 1e-9
        assert rel(cp.w0, ref["w0"]) < 1e-9

    def test_exact_gaussian_family(self):
        # For the Gaussian kernel with parameter alpha, the pair
        #   z0 = ln(p)/(1+alpha),  eps0 = (1+alpha)/ln(p)
        # solves both psi = 0 and psi_z = 0 exactly when h = 1+2*alpha:
        # plugging in makes the transform factor p*exp(-z*h+alpha*eps*z^2)
        # equal 1 and collapses the slope to (1+2*alpha-h)*1 = 0.
        for alpha in (0.5, 1.0, 2.0):
            for p in (2.0, math.e, 5.0):
                h = 1.0 + 2.0 * alpha
                cp = solve_critical(ModelParams(p=p, h=h),
                                    GaussianKernel(alpha))
                assert rel(cp.eps0, (1.0 + alpha) / math.log(p)) < 5e-12
                assert rel(cp.z0, math.log(p) / (1.0 + alpha)) < 1e-9

    def test_dirac_no_delay_is_classical(self):
        # h = 0 with the point kernel: eps0 = 1/(4(p-1)), c* = 2 sqrt(p-1)
        for p in (1.5, 2.0, 4.0):
            cp = solve_critical(ModelParams(p=p, h=0.0), DiracKernel())
            assert rel(cp.c_star, 2.0 * math.sqrt(p - 1.0)) < 1e-10

    def test_dirac_unit_delay_closed_form(self):
        # h = 1 with the point kernel: z0 = ln p, eps0 = 1/ln p
        for p in (2.0, math.e, 5.0):
            cp = solve_critical(ModelParams(p=p, h=1.0), DiracKernel())
            assert rel(cp.eps0, 1.0 / math.log(p)) < 1e-10
            assert rel(cp.z0, math.log(p)) < 1e-8

    def test_tabulated_twin_agrees(self):
        params = ModelParams(p=2.0, h=1.0)
        direct = solve_critical(params, UniformKernel(1.0))
        twin = solve_critical(params, tabulated_twin(UniformKernel(1.0)))
        assert rel(direct.c_star, twin.c_star) < 1e-9

    @pytest.mark.parametrize("h", (0.0, 1.0))
    @pytest.mark.parametrize("tag", ("gauss", "uniform", "twopoint"))
    def test_barely_supercritical_slope(self, tag, h):
        # psi_min at the inflated lower window end rounds to exactly 0.0
        # here; only the lower bracket expansion makes these solves pass
        params = ModelParams(p=1.0 + 1e-9, h=h)
        kernel = kernel_for(tag)
        cp = solve_critical(params, kernel)
        assert_certified(cp, params, kernel)
        assert cp == _bisect_reference(params, kernel)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bit_identical_to_plain_bisection(self, family):
        # warm midpoint signs must repeat every cold decision exactly
        rng = random.Random(f"bisect-{family}")
        for _ in range(64):
            kernel = make_kernel(family, log_uniform(rng, 0.1, 5.0))
            h = 0.0 if rng.random() < 0.1 else log_uniform(rng, 1e-3, 5.0)
            params = ModelParams(p=1.0 + log_uniform(rng, 1e-2, 10.0), h=h)
            assert solve_critical(params, kernel) == \
                _bisect_reference(params, kernel), (params, kernel)

    @pytest.mark.parametrize("kernel, h, budget, cold", [
        pytest.param(GAUSS1, 1.0, 14, 1, id="kernel0"),
        pytest.param(UniformKernel(1.0), 1.0, 16, 1, id="kernel1"),
        pytest.param(GAUSS1, 50.0, 25, 1, id="gauss-h50"),
        pytest.param(DiracKernel(), 1.0, 19, 2, id="dirac-h1"),
    ])
    def test_midpoint_signs_need_few_evaluations(self, kernel, h, budget,
                                                 cold, monkeypatch):
        # a cold min_psi at each of the ~40 midpoints took 221 (Gaussian,
        # h=1) and 252 (uniform) psi_eval calls.  These take 13, 15, 24
        # (Gaussian, h=50) and 18 (Dirac): a few Newton steps on eps,
        # which also sign both window ends, the one or two midpoints
        # inside the certified bracket, and the final cold min_psi at
        # eps0, the only cold one except for Dirac
        calls, mins = [], []

        def counted(*args):
            calls.append(args)
            return psi_eval(*args)

        def counted_min(*args):
            mins.append(args[0])
            return min_psi(*args)

        monkeypatch.setattr(solver, "psi_eval", counted)
        monkeypatch.setattr(solver, "min_psi", counted_min)
        cp = solve_critical(ModelParams(p=2.0, h=h), kernel)
        assert len(calls) <= budget
        assert len(mins) == cold
        assert mins[-1] == cp.eps0

    def test_mean_evaluations_per_solve(self, monkeypatch):
        # 300 draws over the six families take 20.65 psi_eval calls per
        # solve (25.92 when both window ends were evaluated); the bound
        # leaves 0.35 of margin
        calls = []

        def counted(*args):
            calls.append(args)
            return psi_eval(*args)

        monkeypatch.setattr(solver, "psi_eval", counted)
        rng = random.Random("work-count")
        for i in range(300):
            kernel = make_kernel(FAMILIES[i % 6], log_uniform(rng, 0.1, 5.0))
            h = 0.0 if rng.random() < 0.1 else log_uniform(rng, 1e-3, 5.0)
            params = ModelParams(p=1.0 + log_uniform(rng, 1e-2, 10.0), h=h)
            solve_critical(params, kernel)
        assert len(calls) / 300 <= 21.0

    @pytest.mark.parametrize("tries", (0, 1))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_uncertified_window_ends_are_evaluated(self, family, tries,
                                                   monkeypatch):
        # with one Newton evaluation only the lower end can be certified,
        # with none neither; an end left uncertified takes the cold check
        # (with its halvings at the lower end), and every midpoint between
        # the proven ends is evaluated, yet each decision stays the cold one
        ends = []

        def counted_end(*args):
            ends.append(args)
            return window_end(*args)

        window_end = solver._window_end
        monkeypatch.setattr(solver, "_BRACKET_TRIES", tries)
        monkeypatch.setattr(solver, "_window_end", counted_end)
        rng = random.Random(f"uncertified-{family}")
        for _ in range(8):
            kernel = make_kernel(family, log_uniform(rng, 0.1, 5.0))
            h = 0.0 if rng.random() < 0.1 else log_uniform(rng, 1e-3, 5.0)
            params = ModelParams(p=1.0 + log_uniform(rng, 1e-2, 10.0), h=h)
            assert solve_critical(params, kernel) == \
                _bisect_reference(params, kernel), (params, kernel)
        assert len(ends) >= 8 * (2 - tries)

    @pytest.mark.parametrize("kernel, p, h", [
        # min_psi meets psi_z = nan here; taken as negative, it moved the
        # bracket the wrong way and the inner search stalled
        (UniformKernel(100.0), 1.0 + 1e-9, 0.0),
        (UniformKernel(100.0), 1.0 + 1e-9, 1e-6),
        (UniformKernel(100.0), 1.0 + 1e-9, 1.0),
        # psi_z = inf - inf = nan sent a Newton step, and psi_eval, to nan
        (GaussianKernel(1e3), 2.0, 100.0),
        (TwoPointKernel(50.0), 2.0, 1e4),
        # k2's M(sqrt(ln p)) = exp(6908) overflows: the window binds at k1
        (GaussianKernel(1e3), 1e3, 0.0),
        (GaussianKernel(1e3), 1e3, 1.0),
        (GaussianKernel(1e3), 1e3, 1e4),
    ])
    def test_certifies_extreme_inputs(self, kernel, p, h):
        params = ModelParams(p=p, h=h)
        cp = solve_critical(params, kernel)
        assert_certified(cp, params, kernel)
        assert cp == _bisect_reference(params, kernel)

    def test_speed_past_the_eps_floor_is_refused(self):
        # k2 overflows here too, so the window's upper end is k1/2 = 8.6e9
        # and its eps end lies below the eps floor; the refusal names that
        # bound, since c* itself is 245
        with pytest.raises(DomainError, match="the upper speed bound 8.6e"):
            solve_critical(ModelParams(p=1e8, h=1.0), GaussianKernel(1e3))

    @pytest.mark.parametrize("kernel, p, h", [
        (GaussianKernel(1.0), 1e156, 1.0),
        (UniformKernel(1.0), 1e154, 0.0),
        (TwoPointKernel(1.0), 1e154, 0.0),
    ] + [(GaussianKernel(1e3), p, h) for p in (1e306, 1e308)
         for h in (0.0, 1.0, 100.0)])
    def test_upper_bound_past_1e154_is_refused(self, kernel, p, h):
        # eps = 1/upper^2 at the window's end underflows to 0; for alpha =
        # 1e3, 1 + (p/2) m2 overflows, where k1 was 0 and the window
        # [26.5, 0] raised a BracketError that called itself a bug
        with pytest.raises(DomainError, match="the upper speed bound"):
            solve_critical(ModelParams(p=p, h=h), kernel)

    @pytest.mark.parametrize("p", [1e3, 1e8])
    def test_minimizer_past_the_mgf_range_is_refused(self, p):
        # min_psi's bracket closes on the z where cosh(50 sqrt(eps) z)
        # overflows, so psi cannot be evaluated at its minimizer
        with pytest.raises(DomainError, match="leaves double range"):
            solve_critical(ModelParams(p=p, h=1.0), TwoPointKernel(50.0))

    @pytest.mark.parametrize("kernel, p", [
        (GaussianKernel(1.0), 1e3),
        (GaussianKernel(1e3), 1.0 + 1e-9),
        (UniformKernel(1.0), 1e8),
        (UniformKernel(100.0), 1.0 + 1e-9),
        (UniformKernel(100.0), 2.0),
        (TwoPointKernel(1.0), 1.0 + 1e-9),
        (TwoPointKernel(50.0), 1.0 + 1e-9),
        (TwoPointKernel(50.0), 1.0001),
    ], ids=["gauss1-p1e3", "gauss1e3-p1+1e-9", "uniform1-p1e8",
            "uniform100-p1+1e-9", "uniform100-p2", "twopoint1-p1+1e-9",
            "twopoint50-p1+1e-9", "twopoint50-p1.0001"])
    def test_min_psi_stops_at_a_relative_float_resolution(self, kernel, p):
        # min_psi stopped once its bracket was 4 ulps of max(1, hi) wide,
        # an absolute width below z = 1, so at h = 1e4 it returned points
        # with |psi_z| up to 7 and these solves raised ConvergenceError
        params = ModelParams(p=p, h=1e4)
        cp = solve_critical(params, kernel)
        assert_certified(cp, params, kernel)
        assert cp.c_star < ad_upper_opt(params, kernel)[1]

    @pytest.mark.parametrize("h", (0.0, 1e-6, 1.0, 100.0, 1e4))
    def test_never_returns_a_speed_outside_the_window(self, h):
        # psi_min is not positive at the proven upper eps end here; the
        # solver used to double that end and return c* 3e-8 to 8e-8
        # (relative) below the window's lower end
        params = ModelParams(p=1.0 + 1e-9, h=h)
        kernel = DiracKernel()
        try:
            cp = solve_critical(params, kernel)
        except NumericalError:
            return
        lower, upper = bound_window(params, kernel)
        assert lower * (1.0 - 1e-12) <= cp.c_star <= upper * (1.0 + 1e-12)

    def test_certifies_where_cold_bracket_end_overflowed(self):
        # a cold min_psi at a bracket end used to raise MgfOverflowError
        # at h = 2 and 3; the warm signs never make that call.  The
        # references are min_w c(w), frozen from a 40-digit mpmath solve
        # of p e^{-chw} cosh(50 w) = 1 + cw - w^2 and its w-derivative
        kernel = TwoPointKernel(50.0)
        ref = {2.0: 18.34135642656529366933501685736846702,
               3.0: 13.27597722114862855156896315150240110784}
        speeds = {}
        for h in (1.0, 2.0, 3.0, 4.0):
            params = ModelParams(p=2.0, h=h)
            cp = solve_critical(params, kernel)
            assert_certified(cp, params, kernel)
            speeds[h] = cp.c_star
        assert speeds[1.0] > speeds[2.0] > speeds[3.0] > speeds[4.0]
        for h, c_star in ref.items():
            assert rel(speeds[h], c_star) < 1e-12

    def test_certificate_fields(self):
        cp = solve_critical(ModelParams(p=3.0, h=2.0), GAUSS1)
        assert cp.res_psi <= 1e-9
        assert cp.res_psi_z <= 1e-9
        assert cp.psi_zz > 0.0
        assert cp.psi_eps > 0.0
        assert abs(cp.res_ew) <= 1e-8
        assert abs(cp.res_eww) <= 1e-8


class TestLongDelayAnchor:
    # h*c*(h) -> gamma_inf = h*ad_upper_opt as h -> oo, with
    # c* = gamma_inf/h - kappa/h^2 + O(h^-3); the limits kappa are
    # ROADMAP item 3's, measured at p = 2
    @pytest.mark.parametrize("kernel, kappa_inf", [
        (GaussianKernel(1.0), 3.37),
        (UniformKernel(1.0), 3.06),
        (TwoPointKernel(1.0), 3.20),
        (DiracKernel(), 2.99),
    ], ids=["gaussian", "uniform", "twopoint", "dirac"])
    def test_gap_to_the_ad_bound_falls_as_h_squared(self, kernel, kappa_inf):
        kappas = []
        for h in (1e2, 1e3, 1e4, 1e5, 1e6):
            params = ModelParams(p=2.0, h=h)
            cp = solve_critical(params, kernel)
            assert_certified(cp, params, kernel)
            upper = ad_upper_opt(params, kernel)[1]
            assert cp.c_star < upper
            kappas.append(h * h * (upper - cp.c_star))
        assert all(a < b for a, b in zip(kappas, kappas[1:])), kappas
        assert kappas[-1] - kappas[-2] < 1e-4, kappas
        assert rel(kappas[-1], kappa_inf) < 5e-3, kappas


def assert_cold_signs(params, kernel):
    # solve_critical replays every midpoint <= below as below and every
    # midpoint >= above as above, and takes the window ends' signs from
    # them unless an end stayed uncertified; a cold min_psi must agree at
    # both
    lo, below, above, hi, _ = solver._eps_bracket(params, kernel)
    assert lo <= below < above <= hi
    assert min_psi(below, params, kernel)[1] < 0.0
    assert min_psi(above, params, kernel)[1] > 0.0
    return (above - below) / above


class TestCertifiedBracket:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_ends_take_the_cold_signs(self, family):
        rng = random.Random(f"replay-{family}")
        widths = []
        for _ in range(32):
            kernel = make_kernel(family, log_uniform(rng, 0.1, 5.0))
            h = 0.0 if rng.random() < 0.1 else log_uniform(rng, 1e-3, 5.0)
            params = ModelParams(p=1.0 + log_uniform(rng, 1e-2, 10.0), h=h)
            widths.append(assert_cold_signs(params, kernel))
        # and narrow enough that the bisection replays all but a few
        # midpoints (it stops at a relative width of 1e-12)
        assert sum(w < 1e-11 for w in widths) >= 30, widths

    @pytest.mark.parametrize("h", (0.0, 1.0))
    @pytest.mark.parametrize("tag", ("gauss", "uniform", "twopoint"))
    def test_barely_supercritical_ends(self, tag, h):
        assert_cold_signs(ModelParams(p=1.0 + 1e-9, h=h), kernel_for(tag))


class TestSolveIvpRho0:
    def test_matches_frozen_roots(self):
        for (p, alpha), ref in IVP_REFERENCE.items():
            rho = solve_ivp_rho0(p, alpha)
            assert rel(rho, ref["rho0"]) < 1e-14
            x = 1.0 / (4.0 * rho)
            assert abs(1.0 + x - p * math.exp(-alpha * x)) < 1e-14

    def test_seeds_the_critical_curve(self):
        # rho0(p, alpha) equals eps0 at h = alpha for the Gaussian kernel
        rho = solve_ivp_rho0(2.0, 1.0)
        cp = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1)
        assert rel(rho, cp.eps0) < 1e-11

    def test_domain_errors(self):
        for p, alpha in ((1.0, 1.0), (0.5, 1.0), (2.0, 0.0), (2.0, -1.0)):
            with pytest.raises(DomainError):
                solve_ivp_rho0(p, alpha)

    def test_answers_for_every_p(self):
        # from p near 1e54 on, 200 halvings of [0, p] leave the bracket
        # wider than the root, so only a bisection that runs until its
        # midpoint meets an end gives a positive seed with a small residual
        ps = [10.0 ** k for k in range(2, 307, 2)] + [1.5, 1.0 + 1e-9,
                                                      1.0 + 1e-15]
        for p in ps:
            for alpha in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                rho = solve_ivp_rho0(p, alpha)
                assert rho > 0.0, (p, alpha)
                x = 1.0 / (4.0 * rho)
                resid = abs(1.0 + x - p * math.exp(-alpha * x))
                assert resid <= 1e-12 * max(1.0, x), (p, alpha, resid)

    @pytest.mark.parametrize("p, alpha", [(1.7e308, 1e-310),
                                          (1.7976931348623157e308, 5e-324)])
    def test_root_past_half_the_double_range(self, p, alpha):
        # the root x lies close to p, so both bracket ends pass 9e307,
        # where the midpoint 0.5*(lo + hi) overflowed and the seed was NaN;
        # the seed is subnormal there, and x < p puts it above 0.25/p
        assert 0.25 / p <= solve_ivp_rho0(p, alpha) < math.inf

    @pytest.mark.parametrize("p, alpha", [(1.5, 1e3), (1e70, 1.0),
                                          (1e200, 1e6), (1e306, 1e-6)])
    def test_matches_fifty_digit_root(self, p, alpha):
        # 1 + x = p e^{-alpha x} is alpha (1 + x) = W(alpha p e^alpha)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            a = mp.mpf(alpha)
            x = mp.lambertw(a * p * mp.exp(a)).real / a - 1
            assert rel(solve_ivp_rho0(p, alpha), float(1 / (4 * x))) < 1e-15


def cubic_coeffs(eps, h, alpha):
    rt = math.sqrt(eps)
    return (2.0 * rt * alpha,
            -(h + 2.0 * alpha),
            h / rt - 2.0 * rt * (1.0 + alpha),
            1.0 + h)


class TestCardanoW0:
    def test_on_curve_recovers_w0(self):
        for tag in ("gauss_h0", "gauss_h1", "gauss_h5", "gauss_h50"):
            h = float(tag.split("_h")[1])
            ref = REFERENCE[tag]
            w0 = cardano_w0(ref["eps0"], h, 1.0)
            assert rel(w0, ref["w0"]) < 1e-10

    def test_matches_companion_matrix_roots(self):
        # independent oracle: numpy's eigenvalue-based root finder on
        # the same cubic, keeping the smallest positive real root
        for h in (0.5, 1.0, 3.0):
            for alpha in (0.5, 1.0, 2.0):
                eps0 = solve_critical(ModelParams(p=2.0, h=h),
                                      GaussianKernel(alpha)).eps0
                for factor in (0.9, 1.0, 1.15):
                    eps = factor * eps0
                    coeffs = cubic_coeffs(eps, h, alpha)
                    roots = np.roots(coeffs)
                    real = sorted(r.real for r in roots
                                  if abs(r.imag) < 1e-9 * max(1.0, abs(r))
                                  and r.real > 0.0)
                    try:
                        w0 = cardano_w0(eps, h, alpha)
                    except CubicRootError:
                        # complex pair: numpy must agree there is at most
                        # one usable real root pattern
                        assert len(real) < 3
                        continue
                    assert real, "package found a root numpy did not"
                    assert rel(w0, real[0]) < 1e-9

    def test_residual_is_polished(self):
        ref = REFERENCE["gauss_h2"]
        w0 = cardano_w0(ref["eps0"], 2.0, 1.0)
        a3, a2, a1, a0 = cubic_coeffs(ref["eps0"], 2.0, 1.0)
        res = ((a3 * w0 + a2) * w0 + a1) * w0 + a0
        scale = max(abs(a3) * w0 ** 3, abs(a2) * w0 ** 2,
                    abs(a1) * w0, abs(a0))
        assert abs(res) <= 1e-12 * scale

    def test_triple_root_takes_the_near_triple_branch(self):
        # (w - 1)^3: the depressed cubic has pc = qc = 0, one root remains
        assert solver._real_cubic_roots(1.0, -3.0, 3.0, -1.0) == [1.0]

    def test_degenerate_cubic(self):
        with pytest.raises(CubicRootError, match="leading coefficient"):
            cardano_w0(1.0, 1.0, 1e-16)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cardano_w0(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            cardano_w0(1.0, -1.0, 1.0)
        for alpha in (0.0, -1.0):
            with pytest.raises(DomainError, match="alpha > 0"):
                cardano_w0(1.0, 1.0, alpha)


class TestContinueOde:
    def test_gaussian_path_uses_cubic(self):
        seed = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1)
        curve = continue_ode(2.0, GAUSS1, 1.0, seed.eps0, 3.0, steps=100)
        assert curve.method == "cardano-continuation"
        assert curve.endpoint_gap is not None
        assert curve.endpoint_gap < 1e-8
        assert rel(curve.eps0[-1], REFERENCE["gauss_h3"]["eps0"]) < 1e-8

    def test_generic_path(self):
        kernel = UniformKernel(1.0)
        seed = solve_critical(ModelParams(p=2.0, h=1.0), kernel)
        curve = continue_ode(2.0, kernel, 1.0, seed.eps0, 3.0, steps=100)
        assert curve.method == "ode-continuation"
        assert curve.endpoint_gap < 1e-7
        assert rel(curve.eps0[-1], REFERENCE["uniform_h3"]["eps0"]) < 1e-7

    @pytest.mark.parametrize("kernel", [GAUSS1, UniformKernel(1.0),
                                        TwoPointKernel(1.0), DiracKernel()])
    def test_endpoint_error_is_fourth_order(self, kernel):
        # RK4: doubling the steps divides the endpoint error by about 16
        seed = solve_critical(ModelParams(p=2.0, h=0.5), kernel)
        gaps = [continue_ode(2.0, kernel, 0.5, seed.eps0, 4.5, steps=n).endpoint_gap
                for n in (40, 80, 160)]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 14.0 <= coarse / fine <= 17.0, gaps

    def test_backward_sweep_normalized(self):
        seed = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1)
        curve = continue_ode(2.0, GAUSS1, 1.0, seed.eps0, 0.2, steps=50)
        assert curve.h[0] < curve.h[-1]          # stored ascending
        assert curve.h[0] == pytest.approx(0.2)
        assert curve.c_star[0] > curve.c_star[-1]
        assert curve.endpoint_gap < 1e-8

    def test_degenerate_cubic_takes_the_minimizer(self, monkeypatch):
        # at alpha = 1e-15 the cubic's leading coefficient is numerically
        # zero, so each of the run's 4*64 + 1 w0 lookups falls back to
        # the generic minimizer, and the curve still closes on its end
        kernel = GaussianKernel(1e-15)
        seed = solve_critical(ModelParams(p=2.0, h=0.5), kernel)
        degenerate = []
        true_cardano = solver.cardano_w0

        def cardano(*args):
            try:
                return true_cardano(*args)
            except CubicRootError:
                degenerate.append(args)
                raise
        monkeypatch.setattr(solver, "cardano_w0", cardano)
        curve = continue_ode(2.0, kernel, 0.5, seed.eps0, 1.5, steps=64)
        assert len(degenerate) == 4 * 64 + 1
        assert curve.endpoint_gap < 1e-9

    def test_failed_cubic_takes_the_minimizer_without_halving(self, monkeypatch):
        # a CubicRootError of any kind at one stage sends that stage to
        # min_psi; the step is not halved, so the run makes the same w0
        # lookups on the same h grid and lands on the same curve
        seed = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1)
        true_cardano, true_w0 = solver.cardano_w0, solver._w0_on_curve
        lookups = []

        def counted_w0(*args):
            lookups.append(args)
            return true_w0(*args)
        monkeypatch.setattr(solver, "_w0_on_curve", counted_w0)
        plain = continue_ode(2.0, GAUSS1, 1.0, seed.eps0, 2.0, steps=10)
        n_plain = len(lookups)
        cardano_calls = []

        def cardano(*args):
            cardano_calls.append(args)
            if len(cardano_calls) == 6:      # stage s2 of the second step
                raise CubicRootError("injected: no positive root")
            return true_cardano(*args)
        monkeypatch.setattr(solver, "cardano_w0", cardano)
        lookups.clear()
        curve = continue_ode(2.0, GAUSS1, 1.0, seed.eps0, 2.0, steps=10)
        assert len(cardano_calls) > 6
        assert len(lookups) == n_plain
        assert curve.h == plain.h
        for got, want in zip(curve.eps0, plain.eps0):
            assert rel(got, want) < 1e-8

    def test_single_point(self):
        seed = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1)
        curve = continue_ode(2.0, GAUSS1, 1.0, seed.eps0, 1.0, steps=10)
        assert len(curve.h) == 1

    def test_rejects_off_curve_seed(self):
        with pytest.raises(DomainError):
            continue_ode(2.0, GAUSS1, 1.0, 0.3, 2.0, steps=10)
        for eps_init in (0.0, -0.3):
            with pytest.raises(DomainError, match="eps_init must be positive"):
                continue_ode(2.0, GAUSS1, 1.0, eps_init, 2.0, steps=10)

    def test_rejects_bad_steps(self):
        seed = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1)
        with pytest.raises(DomainError):
            continue_ode(2.0, GAUSS1, 1.0, seed.eps0, 2.0, steps=0)

    @staticmethod
    def _failing_stages(monkeypatch, fails):
        """Make the w0 lookups numbered in `fails` (from 0) raise."""
        calls = []
        true_w0 = solver._w0_on_curve

        def w0(*args):
            calls.append(args)
            if len(calls) - 1 in fails:
                raise ConvergenceError("injected stage failure")
            return true_w0(*args)
        monkeypatch.setattr(solver, "_w0_on_curve", w0)
        return calls

    def test_stage_failure_propagates(self, monkeypatch):
        # the first step's second stage fails: the run stops there with
        # that stage's own error, and no other lookup is made
        seed = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1)
        calls = self._failing_stages(monkeypatch, {1})
        with pytest.raises(ConvergenceError, match="injected stage failure"):
            continue_ode(2.0, GAUSS1, 1.0, seed.eps0, 2.0, steps=10)
        assert [h for _, _, h, _ in calls] == [1.0, 1.05]

    @pytest.mark.parametrize("kernel", [DiracKernel(), GaussianKernel(0.1)])
    def test_overshoot_past_zero_asks_for_more_steps(self, kernel):
        # at p = 1000 eps0 falls steeply towards h = 0, and four RK4
        # steps from h = 1 land below zero; that is a step too long, not
        # an input outside the domain
        seed = solve_critical(ModelParams(p=1000.0, h=1.0), kernel)
        with pytest.raises(ConvergenceError, match="increase steps"):
            continue_ode(1000.0, kernel, 1.0, seed.eps0, 0.0, 4)

    def test_leaves_no_reference_cycle(self):
        # the stage memo and the closures over it are freed on return by
        # reference counting; the cyclic collector finds nothing after
        seed = solve_critical(ModelParams(p=2.0, h=1.0), UniformKernel(1.0))
        gc.collect()
        gc.disable()
        try:
            continue_ode(2.0, UniformKernel(1.0), 1.0, seed.eps0, 2.0,
                         steps=20)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSweepDirect:
    def test_sorts_and_dedupes(self):
        curve = sweep_direct(2.0, GAUSS1, [2.0, 0.5, 1.0, 0.5])
        assert curve.method == "direct"
        assert curve.h == (0.5, 1.0, 2.0)
        assert all(curve.c_star[i] > curve.c_star[i + 1]
                   for i in range(len(curve.h) - 1))

    def test_rejects_empty_grid(self):
        with pytest.raises(DomainError):
            sweep_direct(2.0, GAUSS1, [])


class TestSpeedCurveValidation:
    def test_rejects_disordered_h(self):
        with pytest.raises(DomainError):
            SpeedCurve(method="direct", h=(1.0, 0.5), eps0=(1.0, 2.0),
                       z0=(1.0, 1.0), c_star=(1.0, 0.7),
                       res_psi=(0.0, 0.0), res_psi_z=(0.0, 0.0))

    def test_rejects_nondecreasing_speed(self):
        with pytest.raises(DomainError):
            SpeedCurve(method="direct", h=(0.5, 1.0), eps0=(1.0, 2.0),
                       z0=(1.0, 1.0), c_star=(0.7, 0.9),
                       res_psi=(0.0, 0.0), res_psi_z=(0.0, 0.0))
        curve = SpeedCurve(method="direct", h=(0.5, 1.0), eps0=(1.0, 2.0),
                           z0=(1.0, 1.0), c_star=(0.9, 0.7),
                           res_psi=(0.0, 0.0), res_psi_z=(0.0, 0.0))
        with pytest.raises(DomainError):
            curve._replace(c_star=(0.7, 0.9))

    def test_rejects_unknown_method(self):
        with pytest.raises(DomainError):
            SpeedCurve(method="magic", h=(0.5,), eps0=(1.0,), z0=(1.0,),
                       c_star=(0.7,), res_psi=(0.0,), res_psi_z=(0.0,))

    def test_rejects_mismatched_fields(self):
        with pytest.raises(DomainError, match="eps0 has mismatched length"):
            SpeedCurve(method="direct", h=(0.5, 1.0), eps0=(1.0,),
                       z0=(1.0, 1.0), c_star=(0.9, 0.7),
                       res_psi=(0.0, 0.0), res_psi_z=(0.0, 0.0))

    def test_rejects_no_samples(self):
        with pytest.raises(DomainError, match="at least one sample"):
            SpeedCurve(method="direct", h=(), eps0=(), z0=(), c_star=(),
                       res_psi=(), res_psi_z=())
