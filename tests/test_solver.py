"""Critical-point solver, seed equation, cubic fast path, continuation."""

import math

import numpy as np
import pytest

from conftest import IVP_REFERENCE, REFERENCE, rel
from wavespeed.bounds import bound_window
from wavespeed.charfun import ModelParams, psi_eval
from wavespeed.errors import (
    CubicRootError,
    DegenerateCubicError,
    DomainError,
)
from wavespeed.kernels import (
    DiracKernel,
    GaussianKernel,
    TwoPointKernel,
    UniformKernel,
    tabulated_twin,
)
from wavespeed.solver import (
    SolverConfig,
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

    def test_extreme_delay_converges(self):
        # large h pushes the minimizer toward z = 0 with huge curvature;
        # the safeguarded search must not stall on tiny Newton steps
        params = ModelParams(p=2.0, h=100.0)
        eps0 = REFERENCE["gauss_h100"]["eps0"]
        z, val = min_psi(eps0, params, GAUSS1)
        assert abs(val) < 1e-7
        assert 0.0 < z < 0.1


class TestSolveCritical:
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
        assert cp.res_psi <= 1e-9
        assert cp.res_psi_z <= 1e-9
        assert cp.psi_zz > 0.0
        assert cp.psi_eps > 0.0
        lower, upper = bound_window(params, kernel)
        assert lower * (1.0 - 1e-12) <= cp.c_star <= upper * (1.0 + 1e-12)

    def test_certificate_fields(self):
        cp = solve_critical(ModelParams(p=3.0, h=2.0), GAUSS1)
        assert cp.res_psi <= 1e-9
        assert cp.res_psi_z <= 1e-9
        assert cp.psi_zz > 0.0
        assert cp.psi_eps > 0.0
        assert abs(cp.res_ew) <= 1e-8
        assert abs(cp.res_eww) <= 1e-8


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

    def test_degenerate_cubic(self):
        with pytest.raises(DegenerateCubicError):
            cardano_w0(1.0, 1.0, 1e-16)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cardano_w0(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            cardano_w0(1.0, -1.0, 1.0)


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

    def test_backward_sweep_normalized(self):
        seed = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1)
        curve = continue_ode(2.0, GAUSS1, 1.0, seed.eps0, 0.2, steps=50)
        assert curve.h[0] < curve.h[-1]          # stored ascending
        assert curve.h[0] == pytest.approx(0.2)
        assert curve.c_star[0] > curve.c_star[-1]
        assert curve.endpoint_gap < 1e-8

    def test_single_point(self):
        seed = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1)
        curve = continue_ode(2.0, GAUSS1, 1.0, seed.eps0, 1.0, steps=10)
        assert len(curve) == 1

    def test_rejects_off_curve_seed(self):
        with pytest.raises(DomainError):
            continue_ode(2.0, GAUSS1, 1.0, 0.3, 2.0, steps=10)

    def test_rejects_bad_steps(self):
        seed = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1)
        with pytest.raises(DomainError):
            continue_ode(2.0, GAUSS1, 1.0, seed.eps0, 2.0, steps=0)


class TestSweepDirect:
    def test_sorts_and_dedupes(self):
        curve = sweep_direct(2.0, GAUSS1, [2.0, 0.5, 1.0, 0.5])
        assert curve.method == "direct"
        assert curve.h == (0.5, 1.0, 2.0)
        assert all(curve.c_star[i] > curve.c_star[i + 1]
                   for i in range(len(curve) - 1))

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

    def test_rejects_unknown_method(self):
        with pytest.raises(DomainError):
            SpeedCurve(method="magic", h=(0.5,), eps0=(1.0,), z0=(1.0,),
                       c_star=(0.7,), res_psi=(0.0,), res_psi_z=(0.0,))


class TestSolverConfig:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(DomainError):
            SolverConfig(eps_rel_tol=0.0)
        with pytest.raises(DomainError):
            SolverConfig(residual_tol=-1.0)
        with pytest.raises(DomainError):
            SolverConfig(max_bisect=0)

    def test_custom_tolerance_is_honored(self):
        loose = SolverConfig(eps_rel_tol=1e-6, residual_tol=1e-3)
        cp = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1, loose)
        assert rel(cp.eps0, REFERENCE["gauss_h1"]["eps0"]) < 1e-5
