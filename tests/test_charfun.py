"""Dispersion function psi, its partials, and the w-form residuals."""

import math
import random

import pytest

from conftest import REFERENCE, on_curve_points, rel
from wavespeed import charfun
from wavespeed.charfun import (
    G_value,
    H_value,
    ModelParams,
    R_value,
    critical_point,
    psi_eval,
    wform_residuals,
)
from wavespeed.errors import DomainError
from wavespeed.kernels import GaussianKernel, TwoPointKernel, UniformKernel

KERNELS = (GaussianKernel(1.0), GaussianKernel(0.4),
           UniformKernel(1.0), TwoPointKernel(0.8))


def seeded_points(n: int, seed: int = 20240819):
    rng = random.Random(seed)
    for _ in range(n):
        yield (rng.uniform(0.05, 2.5),     # z
               rng.uniform(0.05, 4.0),     # eps
               rng.uniform(1.2, 5.0),      # p
               rng.uniform(0.0, 2.5),      # h
               KERNELS[rng.randrange(len(KERNELS))])


class TestModelParams:
    def test_rejects_slope_at_or_below_one(self):
        for p in (1.0, 0.5, 0.0, -2.0, math.nan):
            with pytest.raises(DomainError):
                ModelParams(p=p, h=1.0)
            with pytest.raises(DomainError):
                ModelParams(p=2.0, h=1.0)._replace(p=p)

    def test_rejects_negative_or_nonfinite_delay(self):
        for h in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError):
                ModelParams(p=2.0, h=h)

    def test_frozen(self):
        params = ModelParams(p=2.0, h=1.0)
        with pytest.raises(AttributeError):
            params.p = 3.0


class TestPsiEval:
    def test_frozen(self):
        ev = psi_eval(0.5, 0.7, ModelParams(p=2.0, h=1.0), KERNELS[0])
        for name in ("value", "dz", "dzz", "deps"):
            with pytest.raises(AttributeError):
                setattr(ev, name, 0.0)

    def test_value_at_origin(self):
        # psi(0, eps) = p - 1 for every kernel and every eps
        for p in (1.5, 2.0, 4.0):
            for kernel in KERNELS:
                ev = psi_eval(0.0, 0.7, ModelParams(p=p, h=1.3), kernel)
                assert rel(ev.value, p - 1.0) < 1e-15

    def test_slope_at_origin(self):
        # psi_z(0, eps) = -1 - p*h: the M' term vanishes because M is even
        for p, h in ((2.0, 0.0), (2.0, 1.0), (3.5, 0.7)):
            for kernel in KERNELS:
                ev = psi_eval(0.0, 0.7, ModelParams(p=p, h=h), kernel)
                assert rel(ev.dz, -1.0 - p * h) < 1e-15

    def test_partials_match_finite_differences(self):
        for z, eps, p, h, kernel in seeded_points(40):
            params = ModelParams(p=p, h=h)
            ev = psi_eval(z, eps, params, kernel)
            sz = 1e-6 * max(1.0, z)
            se = 1e-6 * max(1.0, eps)
            fd_z = (psi_eval(z + sz, eps, params, kernel).value
                    - psi_eval(z - sz, eps, params, kernel).value) / (2 * sz)
            fd_zz = (psi_eval(z + sz, eps, params, kernel).dz
                     - psi_eval(z - sz, eps, params, kernel).dz) / (2 * sz)
            fd_e = (psi_eval(z, eps + se, params, kernel).value
                    - psi_eval(z, eps - se, params, kernel).value) / (2 * se)
            scale = max(1.0, abs(ev.value))
            assert abs(ev.dz - fd_z) < 1e-6 * max(scale, abs(ev.dz))
            assert abs(ev.dzz - fd_zz) < 1e-6 * max(scale, abs(ev.dzz))
            assert abs(ev.deps - fd_e) < 1e-6 * max(scale, abs(ev.deps))

    def test_strict_convexity_in_z(self):
        # psi_zz >= 2*eps everywhere: the kernel term is itself convex
        for z, eps, p, h, kernel in seeded_points(40, seed=7):
            ev = psi_eval(z, eps, ModelParams(p=p, h=h), kernel)
            assert ev.dzz >= 2.0 * eps - 1e-12

    def test_eps_monotonicity(self):
        # psi_eps > 0 for z > 0: raising eps lifts the whole profile
        for z, eps, p, h, kernel in seeded_points(40, seed=11):
            ev = psi_eval(max(z, 1e-3), eps, ModelParams(p=p, h=h), kernel)
            assert ev.deps > 0.0

    def test_rejects_bad_arguments(self):
        params = ModelParams(p=2.0, h=1.0)
        kernel = GaussianKernel(1.0)
        for z, eps in ((math.nan, 1.0), (1.0, 0.0), (1.0, -0.5),
                       (1.0, math.nan)):
            with pytest.raises(DomainError):
                psi_eval(z, eps, params, kernel)


class TestWformResiduals:
    def test_first_identity(self):
        # rho_ew(sqrt(eps)*z, eps) = -exp(z*h) * psi(z, eps)
        for z, eps, p, h, kernel in seeded_points(100):
            params = ModelParams(p=p, h=h)
            w = math.sqrt(eps) * z
            r_ew, _ = wform_residuals(w, eps, params, kernel)
            lhs = -math.exp(z * h) * psi_eval(z, eps, params, kernel).value
            assert abs(r_ew - lhs) <= 1e-10 * max(1.0, abs(r_ew), abs(lhs))

    def test_second_identity(self):
        # rho_eww = exp(z*h)/sqrt(eps) * psi_z + h/sqrt(eps)*exp(z*h)*psi
        for z, eps, p, h, kernel in seeded_points(100, seed=3):
            params = ModelParams(p=p, h=h)
            w = math.sqrt(eps) * z
            _, r_eww = wform_residuals(w, eps, params, kernel)
            ev = psi_eval(z, eps, params, kernel)
            lhs = (math.exp(z * h) / math.sqrt(eps)) * ev.dz \
                + (h / math.sqrt(eps)) * math.exp(z * h) * ev.value
            assert abs(r_eww - lhs) <= 1e-10 * max(1.0, abs(r_eww), abs(lhs))

    @pytest.mark.parametrize("w", [-1e-300, -0.5, math.nan, math.inf])
    def test_rejects_negative_or_nonfinite_w(self, w):
        with pytest.raises(DomainError, match="w must be finite and >= 0"):
            wform_residuals(w, 1.0, ModelParams(p=2.0, h=1.0),
                            GaussianKernel(1.0))

    def test_reduced_identity_on_zero_set(self):
        # where psi = 0 the second identity loses its psi term, so
        # rho_eww equals exp(z*h)/sqrt(eps) * psi_z there
        kernel = GaussianKernel(1.0)
        params = ModelParams(p=2.0, h=1.0)
        ref = REFERENCE["gauss_h1"]
        eps = 0.9 * ref["eps0"]
        for z in on_curve_points(params, kernel, eps, ref["z0"]):
            _, r_eww = wform_residuals(math.sqrt(eps) * z, eps, params, kernel)
            ev = psi_eval(z, eps, params, kernel)
            lhs = (math.exp(z * params.h) / math.sqrt(eps)) * ev.dz
            assert abs(r_eww - lhs) <= 1e-9 * max(1.0, abs(lhs))


class TestAuxiliaryCurves:
    def test_h_factorizes_through_g(self):
        # H(w) = G(w) * exp(w*h/sqrt(eps)) by construction
        for w in (0.0, 0.3, 0.8, 1.4):
            for eps, h in ((0.5, 0.7), (1.5, 2.0)):
                expected = G_value(w, eps) * math.exp(w * h / math.sqrt(eps))
                assert rel(H_value(w, eps, h), expected) < 1e-14

    def test_r_is_scaled_transform(self):
        kernel = UniformKernel(1.0)
        for w in (0.0, 0.4, 1.1):
            assert rel(R_value(w, 2.0, kernel), 2.0 * kernel.mgf(w)) < 1e-15

    def test_g_zero_crossing(self):
        # G(w, eps) = 1 + w/sqrt(eps) - w^2 has a single positive root
        eps = 0.64
        w_root = (1.0 / 0.8 + math.sqrt(1.0 / 0.64 + 4.0)) / 2.0
        assert abs(G_value(w_root, eps)) < 1e-12


class TestCriticalPointBuilder:
    def test_fields_are_consistent(self):
        ref = REFERENCE["gauss_h1"]
        params = ModelParams(p=2.0, h=1.0)
        ev = psi_eval(ref["z0"], ref["eps0"], params, GaussianKernel(1.0))
        cp = critical_point(ref["z0"], ref["eps0"], ev)
        assert rel(cp.w0, math.sqrt(cp.eps0) * cp.z0) < 1e-15
        assert rel(cp.c_star, 1.0 / math.sqrt(cp.eps0)) < 1e-15
        # the reference pair is a genuine double root, so every residual
        # the builder reports must vanish to roundoff
        assert cp.res_psi < 1e-12
        assert cp.res_psi_z < 1e-12
        r_ew, r_eww = wform_residuals(cp.w0, cp.eps0, params,
                                      GaussianKernel(1.0))
        assert abs(r_ew) < 1e-11
        assert abs(r_eww) < 1e-11
        assert cp.psi_zz > 0.0
        assert cp.psi_eps > 0.0

    def test_packages_without_evaluating(self, monkeypatch):
        ref = REFERENCE["gauss_h1"]
        ev = psi_eval(ref["z0"], ref["eps0"], ModelParams(p=2.0, h=1.0),
                      GaussianKernel(1.0))

        def refuse(*args):
            raise AssertionError("critical_point evaluated psi")

        monkeypatch.setattr(charfun, "psi_eval", refuse)
        cp = critical_point(ref["z0"], ref["eps0"], ev)
        assert (cp.res_psi, cp.res_psi_z) == (abs(ev.value), abs(ev.dz))
        assert (cp.psi_zz, cp.psi_eps) == (ev.dzz, ev.deps)
