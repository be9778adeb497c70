"""Direct front simulation: configuration, stepping, and measurement."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavespeed
from wavespeed import front_sim
from wavespeed.charfun import ModelParams
from wavespeed.errors import DomainError
from wavespeed.front_sim import (
    BirthFunction,
    SimConfig,
    SimResult,
    _BLOCK,
    _blocked,
    _log_growth,
    _stencils,
    fit_front_speed,
    front_position,
    make_state,
    resolve_dt,
    run,
    step,
)
from wavespeed.kernels import (
    DiracKernel,
    GaussianKernel,
    TabulatedKernel,
    TwoPointKernel,
    UniformKernel,
)
from wavespeed.solver import solve_critical


def _is_normal_or_zero(x):
    return bool(np.all((x == 0.0) | (x >= np.finfo(float).tiny)))


class TestBirthFunction:
    def test_nicholson_equilibrium(self):
        # p u e^{-u} = u pins the positive state at u = ln p
        for p in (1.5, 2.0, math.e):
            g = BirthFunction.nicholson(p)
            u_star = g.equilibrium
            assert abs(u_star - math.log(p)) < 1e-15
            assert abs(float(g(u_star)) - u_star) < 1e-12

    def test_capped_linear_equilibrium(self):
        # min(p u, p) = u saturates at u = p
        g = BirthFunction.capped_linear(2.0)
        assert g.equilibrium == 2.0
        assert float(g(g.equilibrium)) == g.equilibrium

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
        with pytest.raises(DomainError, match="unknown birth function kind"):
            BirthFunction("foo", 2.0)
        with pytest.raises(DomainError, match="unknown birth function kind"):
            BirthFunction.nicholson(2.0)._replace(kind="foo")


class TestSimConfig:
    def test_rejects_tiny_domain(self):
        with pytest.raises(DomainError):
            SimConfig(length=1.0, dx=0.1)
        with pytest.raises(DomainError):
            SimConfig()._replace(length=1.0)

    def test_rejects_init_outside_domain(self):
        with pytest.raises(DomainError):
            SimConfig(length=50.0, init_width=60.0)

    @pytest.mark.parametrize("field", ["length", "t_end"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        # an infinite length or horizon cannot size a run
        with pytest.raises(DomainError, match=field):
            SimConfig(**{field: value})


class TestResolveDt:
    def test_delay_is_integer_multiple(self):
        dt, n_delay = resolve_dt(h=1.0)
        assert n_delay == 10
        assert abs(dt - 0.1) < 1e-15
        assert abs(dt * n_delay - 1.0) < 1e-12

    def test_no_delay(self):
        assert resolve_dt(h=0.0) == (0.1, 0)

    def test_coarse_grid_snaps_to_delay(self):
        # h = 0.25 is not a multiple of 0.1: it takes 3 steps of 1/12,
        # whatever the grid (the substeps live inside the stencils)
        dt, n_delay = resolve_dt(h=0.25)
        assert n_delay == 3
        assert abs(dt - 1.0 / 12.0) < 1e-15


class TestStencils:
    def test_nonnegative_with_unit_sum(self):
        # S, Pa and Pb are positive combinations of s1 powers whose
        # weights add up to exactly 1, so equilibria cannot drift
        for dx in (0.1, 0.2, 0.5):
            for h in (0.0, 0.25, 1.0):
                dt, _ = resolve_dt(h)
                stencils = _stencils(dt, dx)
                m = math.ceil(dt / (0.45 * dx * dx) - 1e-12)
                for stencil in stencils:
                    assert stencil.size == 2 * m + 1
                    assert np.all(stencil >= 0.0)
                total = math.fsum(np.concatenate(stencils))
                assert abs(total - 1.0) <= 1e-15, (dx, h, total)


class TestBlockedOperator:
    """The blocked products against a direct convolution kept only here."""

    @staticmethod
    def _check(stencil, n, mode, rng):
        gather = np.pad(np.arange(n), stencil.size // 2, mode=mode)
        # nonnegative, with exact zeros inside and a zero tail past 60 %
        v = rng.random(n) * (rng.random(n) < 0.8) * (np.arange(n) < 0.6 * n)
        ref = np.convolve(v[gather], stencil, mode="valid")
        out = _blocked(stencil, mode, n)(v)
        assert out.shape == ref.shape == (n,)
        assert np.all(out >= 0.0)
        assert np.array_equal(out == 0.0, ref == 0.0)
        assert np.all(np.abs(out - ref) <= 1e-14 * ref)

    # ids kept stable across versions of this test
    @pytest.mark.parametrize("kernel, dx", [
        (DiracKernel(), 0.1),          # 1 tap
        (GaussianKernel(1.0), 0.1),    # 201 taps
        (TwoPointKernel(8.0), 0.2),    # 81 taps, wider than S
    ], ids=["kernel0-0.1-10.0", "kernel1-0.1-10.0", "kernel2-0.2-2.0"])
    def test_kernel_matches_direct_convolution(self, kernel, dx):
        rng = np.random.default_rng(7)
        _, weights = kernel.discrete_weights(dx)
        for n in (4001, 2001, 3 * _BLOCK, 5 * _BLOCK + 7):
            self._check(weights, n, "edge", rng)

    def test_stencils_match_direct_convolution(self):
        rng = np.random.default_rng(8)
        for stencil in _stencils(0.1, 0.1):
            assert stencil.size == 47
            for n in (4001, 2 * _BLOCK, 3 * _BLOCK + 1):
                self._check(stencil, n, "reflect", rng)

    @pytest.mark.parametrize("operator", ["K", "S", "Pb", "tiny"])
    def test_inputs_below_flush_read_as_zero(self, operator):
        # each operator reads inputs below tiny / (its smallest weight)
        # as zero, and never inputs above 2^-500, whatever its weights
        rng = np.random.default_rng(9)
        s, _, pb = _stencils(0.1, 0.1)
        stencil, mode = {
            "K": (GaussianKernel(1.0).discrete_weights(0.1)[1], "edge"),
            "S": (s, "reflect"),
            "Pb": (pb, "reflect"),
            "tiny": (np.array([1e-300, 0.0, 1.0 - 2e-300, 0.0, 1e-300]), "edge"),
        }[operator]
        flush = min(np.finfo(float).tiny / stencil[stencil > 0.0].min(),
                    2.0 ** -500)
        assert (flush == 2.0 ** -500) == (operator == "tiny")
        n = 4001
        gather = np.pad(np.arange(n), stencil.size // 2, mode=mode)
        # a normal bulk, then a tail that decays through the flush level
        # into the subnormals, with exact zeros and that level in between
        v = rng.random(n) * (rng.random(n) < 0.9)
        v[2000:] *= np.logspace(0.0, -330.0, n - 2000)
        v[rng.integers(2000, n, 50)] = flush
        below = v < flush
        assert np.count_nonzero(below & (v > 0.0)) > 100
        assert not _is_normal_or_zero(v)
        kept = np.where(below, 0.0, v)
        before = v.copy()
        out = _blocked(stencil, mode, n)(v)
        ref = np.convolve(kept[gather], stencil, mode="valid")
        assert np.array_equal(v, before)            # the caller's field
        assert np.array_equal(out == 0.0, ref == 0.0)
        assert np.all(np.abs(out - ref) <= 1e-14 * ref)
        if operator != "tiny":
            assert _is_normal_or_zero(out)

    @staticmethod
    def _block_loop(stencil, mode, v):
        # the bit-level oracle: each Toeplitz block's product in turn,
        # summed in order, out = rows[:nb] @ T_0; out += rows[j:j+nb] @ T_j
        half = stencil.size // 2
        q = -(-(_BLOCK + stencil.size - 1) // _BLOCK)
        toeplitz = np.zeros((q * _BLOCK, _BLOCK))
        for r in range(_BLOCK):
            toeplitz[r:r + stencil.size, r] = stencil[::-1]
        parts = toeplitz.reshape(q, _BLOCK, _BLOCK)
        nb = -(-v.size // _BLOCK)
        padded = np.zeros((nb + q - 1) * _BLOCK)
        padded[:v.size + 2 * half] = np.pad(v, half, mode)
        flush = min(np.finfo(float).tiny / stencil[stencil > 0.0].min(), 2.0 ** -500)
        padded[padded < flush] = 0.0
        rows = padded.reshape(-1, _BLOCK)
        out = rows[:nb] @ parts[0]
        for j in range(1, q):
            out += rows[j:j + nb] @ parts[j]
        return out.ravel()[:v.size]

    @pytest.mark.parametrize("mode", ["reflect", "edge"])
    @pytest.mark.parametrize("name", ["3 taps", "33 taps", "S", "Pa", "Pb",
                                      "twopoint a=8", "gaussian"])
    def test_stacked_product_equals_the_block_loop(self, name, mode):
        # one applier through growing, shrinking and regrowing ranges, so
        # that cells past v's end hold an earlier call's values; 31 and 32
        # cells make one block row (numpy's gemv path), and 32 + 33 - 1
        # taps fill whole blocks
        rng = np.random.default_rng(11)
        s, pa, pb = _stencils(0.1, 0.1)
        stencil = {
            "3 taps": np.array([0.25, 0.5, 0.25]),
            "33 taps": rng.random(33) / 16.5,
            "S": s, "Pa": pa, "Pb": pb,
            "twopoint a=8": TwoPointKernel(8.0).discrete_weights(0.2)[1],
            "gaussian": GaussianKernel(1.0).discrete_weights(0.1)[1],
        }[name]
        flush = min(np.finfo(float).tiny / stencil[stencil > 0.0].min(), 2.0 ** -500)
        apply = _blocked(stencil, mode, 4001)
        half = stencil.size // 2
        sizes = (31, 32, 33, 5 * _BLOCK + 7, 4001, 5 * _BLOCK + 7, 33, 32, 31,
                 33, 5 * _BLOCK + 7, 4001)
        checked = 0
        for n in sizes:
            if mode == "reflect" and n <= half:
                continue                   # mirror ghosts need half + 1 cells
            # exact zeros, values just either side of the flush level, and
            # an exponential tail through it
            v = rng.random(n) * (rng.random(n) < 0.8)
            v[n // 2:] *= np.logspace(0.0, -320.0, n - n // 2)
            picks = rng.integers(0, n, max(3, n // 10))
            v[picks] = rng.choice([0.0, flush, np.nextafter(flush, 0.0),
                                   np.nextafter(flush, 1.0)], picks.size)
            assert np.array_equal(apply(v), self._block_loop(stencil, mode, v))
            checked += 1
        assert checked >= 5


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

    @pytest.mark.parametrize("last", [0.5, 0.9])
    def test_last_cell_at_or_above_threshold(self, last):
        # no cell to its right to interpolate with: the last cell's x
        u = np.array([1.0, 0.2, 0.8, last])
        assert front_position(u, 0.5, 0.5) == 1.5


    def test_scans_only_the_range(self):
        # a crossing left of lo is not seen; offsets add as whole cells
        u = np.array([1.0, 0.2, 0.0, 1.0, 1.0, 0.8, 0.2, 0.0, 0.0])
        assert front_position(u, 0.5, 0.5, 3, 7) == front_position(u, 0.5, 0.5)
        assert front_position(u, 0.5, 0.5, 0, 3) == front_position(u[:3], 0.5, 0.5)
        assert front_position(u, 0.5, 0.5, 6, 9) == 0.0


class TestFitFrontSpeed:
    def test_exact_on_linear_trace(self):
        t = np.linspace(0.0, 10.0, 50)
        x = 3.0 + 2.0 * t
        speed, rms = fit_front_speed(t, x)
        assert abs(speed - 2.0) < 1e-12
        assert rms < 1e-12

    @pytest.mark.parametrize("times, positions", [
        ([], []), ([1.0], [2.0]), ([0.0, 1.0], [2.0])])
    def test_needs_two_matching_points(self, times, positions):
        with pytest.raises(DomainError, match="at least two trace points"):
            fit_front_speed(times, positions)

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
        # u_{n-N} .. u_n: the delayed slice and the current field both
        assert len(state.history) == state.n_delay + 1 == 3
        assert state.history[-1] is state.u
        for _ in range(3):
            step(state, g)
        assert len(state.history) == state.n_delay + 1
        assert state.history[-1] is state.u
        assert state.t == pytest.approx(3 * state.dt)

    def test_forcing_reads_slice_n_minus_delay(self):
        # F_n = K * g(u_{n-N}): the n-th slice handed to g (make_state
        # builds F_0) must be u_{n-N}, with u_j = u_0 for j < 0
        seen = []

        class Spy(BirthFunction):
            def __call__(self, u):
                seen.append(np.array(u, copy=True))
                return super().__call__(u)

        cfg = SimConfig(length=20.0, dx=0.5, t_end=1.0, init_width=5.0)
        params = ModelParams(p=2.0, h=0.2)
        g = Spy.nicholson(2.0)
        state = make_state(cfg, params, GaussianKernel(1.0), g)
        n_delay = state.n_delay
        assert n_delay == 2
        fields = [state.u.copy()]
        for _ in range(6):
            step(state, g)
            fields.append(state.u.copy())
        assert len(seen) == 7
        for n, slice_n in enumerate(seen):
            assert np.array_equal(slice_n, fields[max(0, n - n_delay)]), n

    def test_equilibrium_is_stationary(self):
        # a flat profile at the positive equilibrium must not move
        cfg = SimConfig(length=20.0, dx=0.5, t_end=1.0, init_width=19.9)
        params = ModelParams(p=2.0, h=0.0)
        g = BirthFunction.nicholson(2.0)
        state = make_state(cfg, params, DiracKernel(), g)
        state.u[:] = g.equilibrium
        for _ in range(10):
            step(state, g)
        assert np.max(np.abs(state.u - g.equilibrium)) < 1e-12

    def test_nicholson_overshoot_stays_bounded(self):
        # a Nicholson population overshoots ln p far behind a fast front
        # (here past 10x); the positive step keeps u within [0, sup g],
        # sup g = p/e, so the run completes without clamping
        cfg = SimConfig(t_end=20.0)
        params = ModelParams(p=400.0, h=2.0)
        g = BirthFunction.nicholson(400.0)
        result = run(cfg, params, GaussianKernel(1.0), g)
        assert len(result.front) == 201
        assert result.clamp_events == 0
        state = _full_domain_state(cfg, params, GaussianKernel(1.0), g)
        top = 0.0
        for _ in range(200):
            step(state, g)
            assert state.u.min() >= 0.0
            top = max(top, float(state.u.max()))
        assert 10.0 * g.equilibrium < top <= 400.0 / math.e


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
        assert result.clamp_events == 0
        assert len(result.times) == len(result.front)
        # front must advance overall
        assert result.front[-1] > result.front[0] + 5.0

    def test_delayed_kernel_run(self):
        cfg = SimConfig(length=60.0, dx=0.25, t_end=8.0)
        params = ModelParams(p=2.0, h=0.5)
        result = run(cfg, params, GaussianKernel(1.0),
                     BirthFunction.nicholson(2.0))
        assert result.speed > 0.5
        assert result.fit_residual < 1.0
        assert result.clamp_events == 0

    def test_one_step_delay_differs_from_no_delay(self):
        # h = 0.1 is exactly one step, the same step as at h = 0; the
        # delayed front must lag (a history one slice short would read the
        # current field, which is no delay at all)
        cfg = SimConfig(length=40.0, dx=0.1, t_end=5.0, init_width=5.0)
        g = BirthFunction.nicholson(2.0)
        delayed = run(cfg, ModelParams(p=2.0, h=0.1), GaussianKernel(1.0), g)
        now = run(cfg, ModelParams(p=2.0, h=0.0), GaussianKernel(1.0), g)
        assert len(delayed.front) == len(now.front)
        assert delayed.front != now.front
        assert delayed.front[-1] < now.front[-1]
        assert delayed.clamp_events == now.clamp_events == 0

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
        assert result.clamp_events == 0

    def test_boundary_stop(self):
        # a domain too short for the horizon must stop early and say so,
        # two cells inside the widest stencil's reach: here the 13-cell
        # diffusion stencil's 1.2 units
        cfg = SimConfig(length=30.0, dx=0.2, t_end=50.0)
        params = ModelParams(p=2.0, h=0.0)
        result = run(cfg, params, DiracKernel(),
                     BirthFunction.nicholson(2.0))
        assert result.hit_boundary
        assert result.times[-1] < 50.0
        stop_x = 30.0 - 1.2 - 0.4
        assert result.front[-2] < stop_x + 1e-9
        assert result.front[-1] > stop_x - 1e-9
        assert result.clamp_events == 0

    def test_atom_stencil_sets_stop_line(self):
        # two-point a=8 on dx=0.2 convolves with offsets -40..40 (8 units);
        # the run must stop before that stencil reaches the
        # edge-replicated padding
        cfg = SimConfig(length=200.0, dx=0.2, t_end=40.0, init_width=5.0)
        params = ModelParams(p=2.0, h=0.0)
        result = run(cfg, params, TwoPointKernel(8.0),
                     BirthFunction.nicholson(2.0))
        assert result.hit_boundary
        assert result.front[-2] < cfg.length - 8.0
        assert result.clamp_events == 0

    @pytest.mark.parametrize("kernel", [
        TwoPointKernel(1e4), UniformKernel(500.0), GaussianKernel(2500.0),
        UniformKernel(1e6)])
    def test_refuses_kernel_wider_than_domain_unbuilt(self, monkeypatch,
                                                      kernel):
        # each blocked operator costs 256 bytes per tap, and the taps
        # themselves up to 800 MB (uniform:a=1e6), so stencils that reach
        # across the whole domain are refused before the kernel is
        # discretized (to size the grid, too) or any operator is built
        def unbuilt(*args):
            raise AssertionError("the kernel or an operator was built")
        monkeypatch.setattr(front_sim, "_blocked", unbuilt)
        monkeypatch.setattr(front_sim, "_stencils", unbuilt)
        monkeypatch.setattr(type(kernel), "discrete_weights", unbuilt)
        with pytest.raises(DomainError, match="stencils reach .* lengthen"):
            run(SimConfig(), ModelParams(p=2.0, h=0.0), kernel,
                BirthFunction.nicholson(2.0))

    def test_refuses_substep_stencils_wider_than_domain_unbuilt(self,
                                                                monkeypatch):
        # at dx = 1e-3 a macro step is m = 222223 substeps, so S, Pa and
        # Pb reach 222 units; the reach is known from m, before _stencils
        # runs its m convolution passes
        def unbuilt(*args):
            raise AssertionError("the stencils were built")
        monkeypatch.setattr(front_sim, "_stencils", unbuilt)
        cfg = SimConfig(length=20.0, dx=1e-3, init_width=5.0)
        with pytest.raises(DomainError, match="stencils reach .* coarsen dx"):
            run(cfg, ModelParams(p=2.0, h=1.0), DiracKernel(),
                BirthFunction.nicholson(2.0))

    @pytest.mark.parametrize("cfg, h", [
        (SimConfig(length=1e7, dx=5e5, t_end=1.0), 0.0),   # 0.45 dx^2 ~ 1e11
        (SimConfig(length=400.0, dx=0.1, t_end=1.0), 1e-300),
    ], ids=["coarse-dx", "tiny-delay"])
    def test_refuses_macro_step_below_substep_resolution(self, monkeypatch,
                                                         cfg, h):
        # Delta at most 1e-12 of 0.45 dx^2 would round m down to 0
        # substeps; the limit is named before any stencil is built
        def unbuilt(*args):
            raise AssertionError("the stencils were built")
        monkeypatch.setattr(front_sim, "_stencils", unbuilt)
        with pytest.raises(DomainError, match="substep limit"):
            run(cfg, ModelParams(p=2.0, h=h), DiracKernel(),
                BirthFunction.nicholson(2.0))

    def test_rejects_mismatched_slope(self):
        cfg = SimConfig(length=30.0, dx=0.2, t_end=5.0)
        params = ModelParams(p=2.0, h=0.0)
        with pytest.raises(DomainError):
            run(cfg, params, DiracKernel(), BirthFunction.nicholson(3.0))


class TestRegressionPin:
    """Both A9 configurations at t_end = 10, recorded with the np.convolve
    stepper; a change to the stepper's arithmetic must show itself here."""

    @pytest.mark.parametrize("kernel, h, front, speed", [
        (DiracKernel(), 0.0, 33.72618242020049, 1.7151500165398221),
        (GaussianKernel(1.0), 1.0, 26.309598024298637, 0.8537835885167943),
    ])
    def test_front_and_speed(self, kernel, h, front, speed):
        result = run(SimConfig(length=400.0, dx=0.1, t_end=10.0),
                     ModelParams(p=2.0, h=h), kernel,
                     BirthFunction.nicholson(2.0))
        assert len(result.front) == 101
        assert abs(result.front[-1] / front - 1.0) <= 1e-11
        assert abs(result.speed / speed - 1.0) <= 1e-11


def _full_domain_state(cfg, params, kernel, g):
    """make_state's state on the whole of cfg.length.

    It is built for a horizon of 1e300, whose majorant edge lies past
    any length (ceil(1e300 / Delta) is still finite), so make_state
    trims nothing; the caller chooses how many steps to take.
    """
    state = make_state(cfg._replace(t_end=1e300), params, kernel, g)
    assert state.u.size == round(cfg.length / cfg.dx) + 1
    return state


def test_a9_fields_hold_no_subnormal():
    # the stencils' tails reach the right edge within a few hundred steps;
    # without the flush, u and F held dozens of subnormals by step 300
    g = BirthFunction.nicholson(2.0)
    state = _full_domain_state(SimConfig(length=400.0, dx=0.1), ModelParams(
        p=2.0, h=1.0), GaussianKernel(1.0), g)
    for n in range(300):
        step(state, g)
        assert _is_normal_or_zero(state.u), n
        assert _is_normal_or_zero(state.forcing), n
    # the tail ahead of the front still reaches down to the flush level
    assert 0.0 < state.u[state.u > 0.0].min() < 2.0 ** -900


def test_fine_grid_fields_hold_no_subnormal():
    # at dx = 0.05 the stencils' smallest weights are 2^-103 (S) and
    # 2^-119 (Pb); a fixed 2^-960 flush let up to 22 subnormal cells back
    # into u within 300 steps, a per-operator one lets none
    g = BirthFunction.nicholson(2.0)
    state = _full_domain_state(SimConfig(length=400.0, dx=0.05), ModelParams(
        p=2.0, h=1.0), GaussianKernel(1.0), g)
    for n in range(300):
        step(state, g)
        assert _is_normal_or_zero(state.u), n
        assert _is_normal_or_zero(state.forcing), n
    assert 0.0 < state.u[state.u > 0.0].min() < 2.0 ** -1000


class TestFlushPin:
    """Both A9 front traces at t_end = 30, sampled at t = 0, 1, .., 30
    and recorded as float hex before inputs below _FLUSH were read as
    zero; a flush rule that moves one of these fronts by one ulp shows
    here.  A flush at 1e-24 already moves the local trace; one at 1e-25
    does not.
    Recorded with OpenBLAS's AVX2/AVX-512 kernels (Haswell, SkylakeX and
    Zen agree); its pre-AVX2 kernels sum in another order and move these
    fronts by up to 2 ulps."""

    LOCAL = (
        "0x1.40ccccccccccdp+4", "0x1.484eecabaa6b1p+4", "0x1.5657e766c9920p+4",
        "0x1.687b473b7aee6p+4", "0x1.7da1e178deda9p+4", "0x1.950347c421ae6p+4",
        "0x1.ae09067906daap+4", "0x1.c845e869f751ap+4", "0x1.e36b19351034dp+4",
        "0x1.ff406c0861045p+4", "0x1.0dcf38ba8d87bp+5", "0x1.1c33ec8dfbf03p+5",
        "0x1.2ac3ae9d63613p+5", "0x1.3976b8e6930e2p+5", "0x1.4846b8c4f5d58p+5",
        "0x1.572f5a37ebd20p+5", "0x1.662c6860addd1p+5", "0x1.753b5aeb00a20p+5",
        "0x1.8459bda36d639p+5", "0x1.9385954418534p+5", "0x1.a2bd42e2e1094p+5",
        "0x1.b1ff6f60948f4p+5", "0x1.c14afc5037a7ap+5", "0x1.d09ef8af475e2p+5",
        "0x1.dffa9854da41dp+5", "0x1.ef5cddc77d78ap+5", "0x1.fec569382dd80p+5",
        "0x1.0719e223375dbp+6", "0x1.0ed3b3294ccb3p+6", "0x1.168fce8d52c4bp+6",
        "0x1.1e4e3835e76fbp+6",
    )
    NONLOCAL = (
        "0x1.40ccccccccccdp+4", "0x1.40ccccccccccfp+4", "0x1.46c2c9a6f5ee0p+4",
        "0x1.4e6cdd2e554dap+4", "0x1.57de40c5fcb68p+4", "0x1.629f60e8b57e0p+4",
        "0x1.6e6957c03965bp+4", "0x1.7b102de3b1028p+4", "0x1.887100ed8c7fap+4",
        "0x1.966f697ceb094p+4", "0x1.a4f41d0ed44d4p+4", "0x1.b3ec46506ae0dp+4",
        "0x1.c3487da211f00p+4", "0x1.d2fb72d0c6e5dp+4", "0x1.e2fa6a6bbcc4cp+4",
        "0x1.f33c39cadd73cp+4", "0x1.01dc74cebb3cbp+5", "0x1.0a350ca004477p+5",
        "0x1.12a5008b35000p+5", "0x1.1b29eda101ab5p+5", "0x1.23c19c0425d2ap+5",
        "0x1.2c6a540892f7fp+5", "0x1.352278778bf91p+5", "0x1.3de8a1fe4d1fbp+5",
        "0x1.46bb9653e51c8p+5", "0x1.4f9a4145aca93p+5", "0x1.5883af2c9202cp+5",
        "0x1.617708729fd50p+5", "0x1.6a7386b0e2e24p+5", "0x1.73786d50bba0dp+5",
        "0x1.7c8536023940ep+5",
    )

    @pytest.mark.parametrize("kernel, h, trace, speed", [
        (DiracKernel(), 0.0, LOCAL, "0x1.eb91798c80bb4p+0"),
        (GaussianKernel(1.0), 1.0, NONLOCAL, "0x1.1aa5a4883381ep+0"),
    ], ids=["local", "nonlocal"])
    def test_front_trace(self, kernel, h, trace, speed):
        result = run(SimConfig(length=400.0, dx=0.1, t_end=30.0),
                     ModelParams(p=2.0, h=h), kernel,
                     BirthFunction.nicholson(2.0))
        assert len(result.front) == 301
        assert tuple(x.hex() for x in result.front[::10]) == trace
        assert result.speed.hex() == speed


_TRACE_SCRIPT = """
import json
from wavespeed.charfun import ModelParams
from wavespeed.front_sim import BirthFunction, SimConfig, run
from wavespeed.kernels import GaussianKernel
result = run(SimConfig(length=400.0, dx=0.1, t_end=20.0),
             ModelParams(p=2.0, h=1.0), GaussianKernel(1.0),
             BirthFunction.nicholson(2.0))
print(json.dumps([x.hex() for x in result.front]))
"""


def test_front_trace_independent_of_blas_threads():
    # the blocked products go through BLAS; a one-thread run in a fresh
    # process must repeat this process's trace bit for bit
    result = run(SimConfig(length=400.0, dx=0.1, t_end=20.0),
                 ModelParams(p=2.0, h=1.0), GaussianKernel(1.0),
                 BirthFunction.nicholson(2.0))
    src = str(Path(wavespeed.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _TRACE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == [x.hex() for x in result.front]


def _roots_growth(dx, params, kernel):
    """The linear step's growth factor rho(lam), from polynomial roots.

    Inserting u ~ rho^n e^{-lam x} into u_{n+1} = S u_n + Pa F_n +
    Pb F_{n+1}, with F_j linearized to p (K * u_{j-N}), makes rho the
    largest real root of rho^{N+1} = S^ rho^N + p M (Pa^ + Pb^ rho);
    at N = 0 the predictor gives rho in closed form.  The operators are
    built once; the returned function evaluates one lam.
    """
    dt, n = resolve_dt(params.h)
    stencils = _stencils(dt, dx)
    offsets, weights = kernel.discrete_weights(dx)
    half = stencils[0].size // 2
    taps = np.arange(-half, half + 1) * dx

    def rho(lam):
        s_hat, a_hat, b_hat = (float(np.sum(st * np.exp(lam * taps)))
                               for st in stencils)
        pm = params.p * float(np.sum(weights * np.exp(lam * offsets * dx)))
        if n == 0:
            return s_hat + pm * a_hat + pm * b_hat * (s_hat + pm * (a_hat + b_hat))
        coeffs = np.zeros(n + 2)        # rho^{N+1} down to rho^0
        coeffs[0] = 1.0
        coeffs[1] -= s_hat
        coeffs[n] -= pm * b_hat
        coeffs[n + 1] -= pm * a_hat
        return max(r.real for r in np.roots(coeffs)
                   if abs(r.imag) <= 1e-9 * abs(r))
    return rho


def _scheme_speed(cfg, params, kernel):
    """The stepper's own linear spreading speed c*_Delta (Weinberger).

    c*_Delta = min over lam of ln(rho)/(lam Delta), with rho(lam) from
    _roots_growth.
    """
    dt, _ = resolve_dt(params.h)
    rho = _roots_growth(cfg.dx, params, kernel)

    def speed(lam):
        return math.log(rho(lam)) / (lam * dt)

    grid = np.linspace(0.05, 3.0, 60)
    i = int(np.argmin([speed(lam) for lam in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-9:
        a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        if speed(a) < speed(b):
            hi = b
        else:
            lo = a
    return speed(0.5 * (lo + hi))


class TestDispersionOracle:
    @pytest.mark.parametrize("kernel, h", [
        (DiracKernel(), 0.0),          # A9, local
        (GaussianKernel(1.0), 1.0),    # A9, nonlocal
        (UniformKernel(1.0), 1.0),
    ])
    def test_scheme_speed_is_near_solver_speed(self, kernel, h):
        # compared with c* of the kernel the grid actually convolves with
        # (its discrete atoms): for Dirac and Gaussian that is c* itself,
        # and the box's cell-averaged atoms lift uniform's c* by 0.04 %
        cfg = SimConfig(length=400.0, dx=0.1, t_end=100.0)
        params = ModelParams(p=2.0, h=h)
        offsets, weights = kernel.discrete_weights(cfg.dx)
        sampled = TabulatedKernel.from_atoms(offsets * cfg.dx, weights)
        c_grid = solve_critical(params, sampled).c_star
        c_delta = _scheme_speed(cfg, params, kernel)
        assert abs(c_delta / c_grid - 1.0) <= 0.0075


def _growth(lam, dx, params, kernel):
    """ln rho(lam) from _log_growth, on the operators a run builds."""
    dt, n = resolve_dt(params.h)
    return _log_growth(lam, _stencils(dt, dx), kernel.discrete_weights(dx),
                       dx, params.p, n)


class TestGrowthFactor:
    """rho(lam), the linear step's growth, and the majorant it gives."""

    @pytest.mark.parametrize("kernel", [DiracKernel(), GaussianKernel(1.0)])
    @pytest.mark.parametrize("h", [0.0, 1.0])          # N = 0 and N = 10
    def test_matches_polynomial_roots(self, kernel, h):
        params = ModelParams(p=2.0, h=h)
        lam = np.array([0.1, 0.5, 1.0, 2.0])
        rho = np.exp(_growth(lam, 0.1, params, kernel))
        roots_rho = _roots_growth(0.1, params, kernel)
        for lam_i, rho_i in zip(lam, rho):
            ref = roots_rho(lam_i)
            assert abs(rho_i / ref - 1.0) <= 1e-12, (lam_i, rho_i, ref)

    @pytest.mark.parametrize("kernel, h", [
        (DiracKernel(), 0.0), (GaussianKernel(1.0), 1.0)])
    def test_scheme_speed_is_the_least_growth_speed(self, kernel, h):
        # c*_Delta = min over lam of c_lam = ln rho / (lam Delta); a dense
        # scan lands within its curvature times the spacing squared
        cfg = SimConfig(length=400.0, dx=0.1)
        params = ModelParams(p=2.0, h=h)
        lam = np.linspace(0.05, 3.0, 3000)
        dt, _ = resolve_dt(h)
        c_min = float(np.min(_growth(lam, 0.1, params, kernel) / (lam * dt)))
        c_delta = _scheme_speed(cfg, params, kernel)
        assert -1e-12 <= c_min / c_delta - 1.0 <= 1e-6

    @pytest.mark.parametrize("kernel, h", [
        (DiracKernel(), 0.0), (GaussianKernel(1.0), 1.0)])
    def test_field_stays_under_majorant(self, kernel, h):
        # u <= u* exp(lam (x0 + c_lam (t + h) - x)) at every step and cell:
        # the operators are nonnegative and g(u) <= p u (Weinberger)
        cfg = SimConfig(length=100.0, dx=0.1, t_end=20.0)
        params = ModelParams(p=2.0, h=h)
        g = BirthFunction.nicholson(2.0)
        lam = np.array([0.5, 1.0, 2.0])
        state = _full_domain_state(cfg, params, kernel, g)
        speeds = _growth(lam, cfg.dx, params, kernel) / (lam * state.dt)
        x = np.arange(state.u.size) * cfg.dx
        for _ in range(200):
            step(state, g)
            for lam_i, c_i in zip(lam, speeds):
                log_bound = lam_i * (cfg.init_width + c_i * (state.t + h) - x)
                bound = g.equilibrium * np.exp(log_bound)
                assert np.all(state.u <= bound * (1.0 + 1e-12)), (state.t, lam_i)


def _full_grid_run(cfg, params, kernel, g):
    """run on the whole of cfg.length, stopping at cfg.t_end."""
    state = _full_domain_state(cfg, params, kernel, g)
    theta = 0.5 * g.equilibrium
    times, fronts = [0.0], [front_position(state.u, cfg.dx, theta)]
    hit_boundary = False
    for _ in range(math.ceil(cfg.t_end / state.dt)):
        step(state, g)
        times.append(state.t)
        fronts.append(front_position(state.u, cfg.dx, theta))
        if fronts[-1] >= state.stop_x:
            hit_boundary = True
            break
    speed, resid = fit_front_speed(times, fronts)
    return SimResult(times=tuple(times), front=tuple(fronts), speed=speed,
                     fit_residual=resid, reference_speed=None,
                     hit_boundary=hit_boundary,
                     clamp_events=state.clamp_events, dt=state.dt)


class TestTrimmedGrid:
    """make_state sizes the grid only up to where the majorant falls to
    2^-53 u*."""

    @pytest.mark.parametrize("kernel, h, dx, p", [
        (DiracKernel(), 0.0, 0.1, 2.0),
        (DiracKernel(), 0.5, 0.2, 5.0),
        (DiracKernel(), 3.0, 0.1, 2.0),
        (GaussianKernel(0.25), 0.0, 0.2, 5.0),
        (GaussianKernel(0.25), 1.0, 0.1, 2.0),
        (GaussianKernel(1.0), 0.5, 0.2, 2.0),
        (GaussianKernel(1.0), 3.0, 0.2, 5.0),
        (UniformKernel(1.0), 0.0, 0.1, 5.0),
        (UniformKernel(1.0), 1.0, 0.2, 2.0),
        (TwoPointKernel(1.0), 0.0, 0.2, 2.0),
        (TwoPointKernel(1.0), 0.5, 0.1, 5.0),
        (TwoPointKernel(1.0), 3.0, 0.2, 2.0),
    ])
    def test_bit_identical_to_full_grid(self, kernel, h, dx, p):
        cfg = SimConfig(length=400.0, dx=dx, t_end=30.0)
        params = ModelParams(p=p, h=h)
        g = BirthFunction.nicholson(p)
        assert run(cfg, params, kernel, g) == _full_grid_run(cfg, params,
                                                              kernel, g)

    @pytest.mark.parametrize("init_width", [18.0, 22.0])
    @pytest.mark.parametrize("kernel, h", [
        (DiracKernel(), 0.0), (GaussianKernel(1.0), 1.0)],
        ids=["local", "nonlocal"])
    def test_a9_bit_identical_to_full_grid(self, kernel, h, init_width):
        cfg = SimConfig(length=400.0, dx=0.1, t_end=100.0,
                        init_width=init_width)
        params = ModelParams(p=2.0, h=h)
        g = BirthFunction.nicholson(2.0)
        assert run(cfg, params, kernel, g) == _full_grid_run(cfg, params,
                                                              kernel, g)

    def test_cost_follows_reach_not_length(self, monkeypatch):
        sizes = []
        built = front_sim.make_state

        def spy(*args):
            state = built(*args)
            sizes.append(state.u.size)
            return state
        monkeypatch.setattr(front_sim, "make_state", spy)
        params = ModelParams(p=2.0, h=0.0)
        g = BirthFunction.nicholson(2.0)
        long, short = (run(SimConfig(length=length, t_end=20.0), params,
                           DiracKernel(), g) for length in (4000.0, 150.0))
        assert long == short
        assert not long.hit_boundary
        assert sizes[0] == sizes[1] < 1501           # 150 units of 0.1

    @pytest.mark.parametrize("kernel, h", [
        (DiracKernel(), 0.0), (GaussianKernel(1.0), 1.0)],
        ids=["local", "nonlocal"])
    def test_make_state_alone_sizes_the_grid(self, kernel, h):
        # the grid and its stop line follow t_end, not a length past it
        params = ModelParams(p=2.0, h=h)
        g = BirthFunction.nicholson(2.0)
        states = [make_state(SimConfig(length=length, t_end=20.0), params,
                             kernel, g) for length in (150.0, 400.0, 4000.0)]
        assert len({state.u.size for state in states}) == 1
        assert len({state.stop_x for state in states}) == 1
        assert states[0].u.size < 1501
        # the step count the grid was sized for is the one run takes
        assert {state.n_steps for state in states} == {200}

    @pytest.mark.parametrize("kernel, h", [
        (DiracKernel(), 0.0), (GaussianKernel(1.0), 1.0)],
        ids=["local", "nonlocal"])
    def test_short_domain_keeps_its_length(self, kernel, h):
        # the majorant's edge lies past 60 units: the whole domain stays,
        # and the stop line sits two cells inside the widest stencil
        state = make_state(SimConfig(length=60.0, t_end=20.0),
                           ModelParams(p=2.0, h=h), kernel,
                           BirthFunction.nicholson(2.0))
        dt, _ = resolve_dt(h)
        reach = max(kernel.reach(0.1), math.ceil(dt / (0.45 * 0.01) - 1e-12))
        assert state.u.size == 601
        assert state.stop_x == 60.0 - reach * 0.1 - 2.0 * 0.1

    @pytest.mark.parametrize("kernel, p, h, dx, length, t_end", [
        (TwoPointKernel(100.0), 400.0, 10.0, 0.5, 300.0, 2.0),  # e^{20*100}
        (GaussianKernel(100.0), 2.0, 50.0, 0.5, 300.0, 2.0),    # N = 500
        (DiracKernel(), 1.0 + 1e-12, 3.0, 0.1, 300.0, 2.0),     # rho ~ 1
        # zero-weight taps 50 units out: exp(20 * 50) would overflow
        (TabulatedKernel([0.0, 50.0], [1.0, 0.0]), 2.0, 0.0, 0.5, 300.0, 2.0),
        (TabulatedKernel([0.0, 50.0], [1.0, 0.0]), 2.0, 1.0, 0.5, 300.0, 2.0),
        # Pa and Pb carry zero taps one dx past their support
        (DiracKernel(), 2.0, 0.0, 40.0, 1000.0, 2.0),
        (DiracKernel(), 2.0, 1.0, 40.0, 1000.0, 2.0),
        # c_lam * t_end overflows; the run stops at the boundary instead
        (DiracKernel(), 2.0, 0.0, 0.1, 60.0, 1e307),
        (DiracKernel(), 2.0, 0.0, 0.1, 60.0, 1.5e307),
    ])
    def test_sizing_overflows_nowhere(self, kernel, p, h, dx, length, t_end):
        # tier-1 raises RuntimeWarning: log space keeps every sum finite
        cfg = SimConfig(length=length, dx=dx, t_end=t_end)
        result = run(cfg, ModelParams(p=p, h=h), kernel,
                     BirthFunction.nicholson(p))
        assert math.isfinite(result.speed)
        assert result.hit_boundary == (t_end > 2.0)


def _full_range_run(cfg, params, kernel, g):
    """run with its active range reset to the whole grid before every step."""
    stepped = front_sim.step

    def whole_grid(state, g):
        state.lo, state.hi = 0, state.u.size
        return stepped(state, g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(front_sim, "step", whole_grid)
        return run(cfg, params, kernel, g)


def _hex(result):
    return [x.hex() for x in result.front], result.speed.hex(), result.hit_boundary


class TestActiveRange:
    """run steps only cells [lo, hi): hi at the majorant's 2^-106 edge by
    1.5 times the step's time, lo eight widest reaches, and at least 40
    units, behind the front.  The fronts are those of stepping the whole
    grid."""

    def test_make_state_leaves_the_whole_grid_active(self):
        state = make_state(SimConfig(t_end=20.0), ModelParams(p=2.0, h=1.0),
                           GaussianKernel(1.0), BirthFunction.nicholson(2.0))
        assert (state.lo, state.hi) == (0, state.u.size)

    def test_step_writes_only_the_range(self):
        g = BirthFunction.nicholson(2.0)
        state = make_state(SimConfig(t_end=20.0), ModelParams(p=2.0, h=0.5),
                           GaussianKernel(1.0), g)
        for _ in range(50):
            step(state, g)
        state.lo, state.hi = 2 * _BLOCK, 6 * _BLOCK
        slices = [u.copy() for u in state.history]
        forcing = state.forcing.copy()
        step(state, g)
        outside = np.ones(state.u.size, dtype=bool)
        outside[state.lo:state.hi] = False
        # the new field went into the slice that left the history
        assert np.array_equal(state.u[outside], slices[0][outside])
        assert not np.array_equal(state.u, slices[0])
        for old, new in zip(slices[1:], list(state.history)[:-1]):
            assert np.array_equal(old, new)
        assert np.array_equal(state.forcing[outside], forcing[outside])

    @pytest.mark.parametrize("init_width", [18.0, 20.0, 22.0])
    @pytest.mark.parametrize("t_end", [10.0, 30.0, 100.0])
    @pytest.mark.parametrize("kernel, h", [
        (DiracKernel(), 0.0), (GaussianKernel(1.0), 1.0)],
        ids=["local", "nonlocal"])
    def test_a9_matches_full_range(self, kernel, h, t_end, init_width):
        cfg = SimConfig(length=400.0, dx=0.1, t_end=t_end, init_width=init_width)
        args = (cfg, ModelParams(p=2.0, h=h), kernel, BirthFunction.nicholson(2.0))
        assert _hex(run(*args)) == _hex(_full_range_run(*args))

    @pytest.mark.parametrize("kernel, p, h, t_end, birth", [
        (UniformKernel(1.0), 2.0, 0.4, 100.0, "nicholson"),
        (TwoPointKernel(0.5), 2.0, 0.5, 100.0, "nicholson"),
        (DiracKernel(), 10.0, 5.0, 100.0, "nicholson"),
        (GaussianKernel(1.0), 10.0, 5.0, 100.0, "nicholson"),
        (DiracKernel(), 10.0, 2.0, 100.0, "nicholson"),
        (GaussianKernel(1.0), 400.0, 2.0, 20.0, "nicholson"),
        (GaussianKernel(1.0), 2.0, 1.0, 100.0, "capped-linear"),
    ])
    def test_matches_full_range(self, kernel, p, h, t_end, birth):
        args = (SimConfig(t_end=t_end), ModelParams(p=p, h=h), kernel,
                BirthFunction(birth, p))
        assert _hex(run(*args)) == _hex(_full_range_run(*args))

    def test_stop_line_matches_full_range(self):
        # a fast front reaches the stop line of an untrimmed 400-unit grid
        # after 497 steps, with the same truncated trace
        args = (SimConfig(length=400.0, t_end=100.0), ModelParams(p=20.0, h=0.0),
                DiracKernel(), BirthFunction.nicholson(20.0))
        result = run(*args)
        assert result.hit_boundary
        assert len(result.front) == 498
        assert _hex(result) == _hex(_full_range_run(*args))

    @pytest.mark.parametrize("h", [0.0, 1.0])
    @pytest.mark.parametrize("kernel", [
        GaussianKernel(10.0), UniformKernel(20.0), TwoPointKernel(15.0)])
    def test_wide_kernels_set_the_left_cut(self, kernel, h):
        # a fixed 40-unit cut moved these fronts by up to 1e-3; eight
        # reaches keep them within 1e-10
        args = (SimConfig(length=1500.0, t_end=60.0), ModelParams(p=2.0, h=h),
                kernel, BirthFunction.nicholson(2.0))
        result, full = run(*args), _full_range_run(*args)
        assert len(result.front) == len(full.front)
        assert max(abs(x - y) for x, y in zip(result.front, full.front)) <= 1e-10
        assert abs(result.speed / full.speed - 1.0) <= 1e-12

    def test_long_run_range_stays_bounded(self, monkeypatch):
        # by the last step the range ends at the grid's end and starts 40
        # units behind the front: 92 units at T = 300, 90 at T = 100
        states = []
        built = front_sim.make_state

        def spy(*args):
            states.append(built(*args))
            return states[-1]
        args = (SimConfig(length=1000.0, t_end=300.0), ModelParams(p=2.0, h=0.0),
                DiracKernel(), BirthFunction.nicholson(2.0))
        full = _full_range_run(*args)
        monkeypatch.setattr(front_sim, "make_state", spy)
        result = run(*args)
        assert not result.hit_boundary
        assert abs(result.speed / full.speed - 1.0) <= 1e-12
        state, = states
        assert state.u.size > 6000
        assert (state.hi - state.lo) * 0.1 < 100.0
