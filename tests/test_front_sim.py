"""Direct front simulation: configuration, stepping, and measurement."""

import math

import numpy as np
import pytest

from wavespeed.charfun import ModelParams
from wavespeed.errors import DomainError, UnstableSimulationError
from wavespeed.front_sim import (
    BirthFunction,
    SimConfig,
    fit_front_speed,
    front_position,
    make_state,
    resolve_dt,
    run,
    step,
)
from wavespeed.kernels import DiracKernel, GaussianKernel, TwoPointKernel
from wavespeed.solver import solve_critical


class TestBirthFunction:
    def test_nicholson_equilibrium(self):
        # p u e^{-u} = u pins the positive state at u = ln p
        for p in (1.5, 2.0, math.e):
            g = BirthFunction.nicholson(p)
            u_star = g.equilibrium
            assert abs(u_star - math.log(p)) < 1e-15
            assert abs(float(g(u_star)) - u_star) < 1e-12

    def test_capped_linear_equilibrium(self):
        # min(p u, p c) = u saturates at u = p c
        g = BirthFunction.capped_linear(2.0, cap=0.5)
        assert g.equilibrium == 1.0
        assert abs(float(g(g.equilibrium)) - g.equilibrium) < 1e-15

    def test_vectorized_evaluation(self):
        g = BirthFunction.nicholson(2.0)
        u = np.array([0.0, 0.5, 1.0])
        out = g(u)
        assert out.shape == u.shape
        assert out[0] == 0.0
        assert abs(out[2] - 2.0 * math.exp(-1.0)) < 1e-15

    def test_slope_at_zero(self):
        # both flavors rise with slope p at the unstable state
        for g in (BirthFunction.nicholson(3.0),
                  BirthFunction.capped_linear(3.0)):
            u = 1e-9
            assert abs(float(g(u)) / u - 3.0) < 1e-6

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            BirthFunction.nicholson(1.0)
        with pytest.raises(DomainError):
            BirthFunction.capped_linear(2.0, cap=0.0)


class TestSimConfig:
    def test_rejects_bad_threshold(self):
        for frac in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                SimConfig(threshold_frac=frac)

    def test_rejects_tiny_domain(self):
        with pytest.raises(DomainError):
            SimConfig(length=1.0, dx=0.1)

    def test_rejects_init_outside_domain(self):
        with pytest.raises(DomainError):
            SimConfig(length=50.0, init_width=60.0)


class TestResolveDt:
    def test_delay_is_integer_multiple(self):
        cfg = SimConfig(length=50.0, dx=0.1)
        dt, n_delay = resolve_dt(cfg, h=1.0)
        assert n_delay == math.ceil(1.0 / (0.45 * 0.01))
        assert abs(dt * n_delay - 1.0) < 1e-12
        assert dt <= 0.45 * 0.01 + 1e-15

    def test_no_delay(self):
        cfg = SimConfig(length=50.0, dx=0.1)
        dt, n_delay = resolve_dt(cfg, h=0.0)
        assert n_delay == 0
        assert dt == 0.45 * 0.01

    def test_coarse_grid_snaps_to_delay(self):
        # dx = 0.2 allows dt <= 0.018, so h = 0.2 takes 12 steps of 1/60
        cfg = SimConfig(length=50.0, dx=0.2)
        dt, n_delay = resolve_dt(cfg, h=0.2)
        assert n_delay == 12
        assert abs(dt - 1.0 / 60.0) < 1e-15
        assert dt <= 0.45 * 0.2 * 0.2


class TestFrontPosition:
    def test_linear_interpolation(self):
        # ramp u = 1 - x/10 on dx = 1: u crosses 0.35 at x = 6.5
        u = 1.0 - np.arange(11) / 10.0
        assert abs(front_position(u, 1.0, 0.35) - 6.5) < 1e-12

    def test_rightmost_crossing_wins(self):
        u = np.array([1.0, 0.2, 0.8, 0.2, 0.0])
        pos = front_position(u, 1.0, 0.5)
        assert 2.0 < pos < 3.0

    def test_all_below_threshold(self):
        u = np.zeros(5)
        assert front_position(u, 1.0, 0.5) == 0.0


class TestFitFrontSpeed:
    def test_exact_on_linear_trace(self):
        t = np.linspace(0.0, 10.0, 50)
        x = 3.0 + 2.0 * t
        speed, rms = fit_front_speed(t, x)
        assert abs(speed - 2.0) < 1e-12
        assert rms < 1e-12

    def test_uses_trailing_window(self):
        # early transient must not contaminate the fit: the trailing 40 %
        # of 101 points is 41 points, all with t >= 6
        t = np.linspace(0.0, 10.0, 101)
        x = np.where(t < 5.0, 0.1 * t, 2.0 * t - 9.5)
        speed, _ = fit_front_speed(t, x)
        assert abs(speed - 2.0) < 1e-10


class TestStepping:
    def test_history_depth_tracks_delay(self):
        cfg = SimConfig(length=20.0, dx=0.5, t_end=1.0, init_width=5.0)
        params = ModelParams(p=2.0, h=0.2)
        g = BirthFunction.nicholson(2.0)
        state = make_state(cfg, params, DiracKernel(), g)
        assert state.n_delay == len(state.history)
        depth = state.n_delay
        for _ in range(3):
            step(state, cfg, g)
        assert len(state.history) == depth
        assert state.t == pytest.approx(3 * state.dt)

    def test_equilibrium_is_stationary(self):
        # a flat profile at the positive equilibrium must not move
        cfg = SimConfig(length=20.0, dx=0.5, t_end=1.0, init_width=19.9)
        params = ModelParams(p=2.0, h=0.0)
        g = BirthFunction.nicholson(2.0)
        state = make_state(cfg, params, DiracKernel(), g)
        state.u[:] = g.equilibrium
        for _ in range(10):
            step(state, cfg, g)
        assert np.max(np.abs(state.u - g.equilibrium)) < 1e-12

    def test_instability_guard_trips(self):
        cfg = SimConfig(length=20.0, dx=0.5, t_end=1.0, init_width=5.0)
        params = ModelParams(p=2.0, h=0.0)
        g = BirthFunction.capped_linear(2.0)
        state = make_state(cfg, params, DiracKernel(), g)
        state.u[:] = 100.0  # far above 10x equilibrium
        with pytest.raises(UnstableSimulationError):
            for _ in range(5):
                step(state, cfg, g)


class TestRun:
    def test_short_pulled_front(self):
        # coarse, short run: the fitted speed should already be within
        # a third of the pulled value 2, and the trace must be sane
        cfg = SimConfig(length=80.0, dx=0.2, t_end=15.0)
        params = ModelParams(p=2.0, h=0.0)
        result = run(cfg, params, DiracKernel(),
                     BirthFunction.nicholson(2.0), reference_speed=2.0)
        assert 1.3 < result.speed < 2.7
        assert not result.hit_boundary
        assert result.reference_speed == 2.0
        assert result.dx == 0.2
        assert len(result.times) == len(result.front)
        # front must advance overall
        assert result.front[-1] > result.front[0] + 5.0

    def test_delayed_kernel_run(self):
        cfg = SimConfig(length=60.0, dx=0.25, t_end=8.0,
                        kernel_half_width=5.0)
        params = ModelParams(p=2.0, h=0.5)
        result = run(cfg, params, GaussianKernel(1.0),
                     BirthFunction.nicholson(2.0))
        assert result.speed > 0.5
        assert result.fit_residual < 1.0

    def test_two_point_kernel_front(self):
        # the atom kernel's 21-tap discretization drives a front at
        # nearly the solver's speed
        params = ModelParams(p=2.0, h=0.0)
        kernel = TwoPointKernel(1.0)
        c_star = solve_critical(params, kernel).c_star
        result = run(SimConfig(length=150.0, dx=0.2, t_end=30.0), params,
                     kernel, BirthFunction.nicholson(2.0))
        assert not result.hit_boundary
        assert abs(result.speed - c_star) < 0.1 * c_star

    def test_boundary_stop(self):
        # a domain too short for the horizon must stop early and say so
        cfg = SimConfig(length=30.0, dx=0.2, t_end=50.0,
                        kernel_half_width=2.0)
        params = ModelParams(p=2.0, h=0.0)
        result = run(cfg, params, DiracKernel(),
                     BirthFunction.nicholson(2.0))
        assert result.hit_boundary
        assert result.times[-1] < 50.0

    def test_atom_stencil_sets_stop_line(self):
        # two-point a=8 on dx=0.2 convolves with offsets -40..40 (8 units)
        # whatever kernel_half_width says; the run must stop before that
        # stencil reaches the edge-replicated padding
        cfg = SimConfig(length=200.0, dx=0.2, t_end=40.0, init_width=5.0,
                        kernel_half_width=2.0)
        params = ModelParams(p=2.0, h=0.0)
        result = run(cfg, params, TwoPointKernel(8.0),
                     BirthFunction.nicholson(2.0))
        assert result.hit_boundary
        assert result.front[-2] < cfg.length - 8.0

    def test_rejects_mismatched_slope(self):
        cfg = SimConfig(length=30.0, dx=0.2, t_end=5.0)
        params = ModelParams(p=2.0, h=0.0)
        with pytest.raises(DomainError):
            run(cfg, params, DiracKernel(), BirthFunction.nicholson(3.0))
