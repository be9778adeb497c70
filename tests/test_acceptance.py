"""Acceptance gate: ten numbered criteria, each printing one line.

Every test emits exactly one [PASS]/[FAIL] line (past pytest's capture)
carrying the measured quantity and the tolerance it was held to, so the
verdict is auditable straight from the test log.  Tolerances are stated
inline and are not adjustable from outside.
"""

import math
import random
import time

import pytest

from conftest import on_curve_points, rel
from wavespeed.bounds import k2, speed_bounds
from wavespeed.charfun import ModelParams, psi_eval, wform_residuals
from wavespeed.cli import main
from wavespeed.front_sim import BirthFunction, SimConfig, run
from wavespeed.kernels import (
    DiracKernel,
    GaussianKernel,
    TwoPointKernel,
    UniformKernel,
)
from wavespeed.solver import (
    continue_ode,
    solve_critical,
    solve_ivp_rho0,
    sweep_direct,
)

GAUSS1 = GaussianKernel(1.0)
H_GRID = [round(0.1 * i, 10) for i in range(51)]   # 51 samples of [0, 5]


def report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def gauss_curve():
    """51-sample reference sweep shared by the sandwich and shape tests."""
    return sweep_direct(2.0, GAUSS1, H_GRID)


def test_01_no_delay_point_kernel_limit(capsys):
    # point kernel, h = 0: the classical pulled speed 2 sqrt(p-1)
    start = time.perf_counter()
    worst = 0.0
    for p in (1.5, 2.0, 4.0):
        cp = solve_critical(ModelParams(p=p, h=0.0), DiracKernel())
        worst = max(worst, abs(cp.c_star - 2.0 * math.sqrt(p - 1.0)))
    elapsed = time.perf_counter() - start
    report(capsys, "A1 no-delay limit",
           worst < 1e-8 and elapsed < 1.0,
           f"max |c* - 2 sqrt(p-1)| = {worst:.2e} (tol 1e-8), "
           f"{elapsed:.2f} s (limit 1 s)")


def test_02_bound_sandwich_and_scaling_relations(capsys, gauss_curve):
    # every sample strictly inside its window; on h <= 1 the curve is
    # also pinched by 2 c*(1)/(1+h) from below and c*(0)/(1+h) from above
    strict = True
    margin = math.inf
    for h, c in zip(gauss_curve.h, gauss_curve.c_star):
        b = speed_bounds(ModelParams(p=2.0, h=h), GAUSS1)
        strict = strict and (b.lower < c < b.upper)
        margin = min(margin, c - b.lower, b.upper - c)
    c0 = gauss_curve.c_star[0]
    c1 = gauss_curve.c_star[10]
    slack = 1e-9
    pinch = 0.0
    for i in range(11):
        h, c = gauss_curve.h[i], gauss_curve.c_star[i]
        pinch = max(pinch,
                    2.0 * c1 / (1.0 + h) - c,
                    c - c0 / (1.0 + h))
    ok = strict and pinch <= slack
    report(capsys, "A2 sandwich + scaling relations", ok,
           f"51/51 strictly inside (min margin {margin:.3g}); "
           f"max scaling violation {pinch:.2e} (slack {slack:g})")


def test_03_monotonicity_and_smoothness(capsys, gauss_curve):
    c = gauss_curve.c_star
    decreasing = all(c[i + 1] < c[i] for i in range(len(c) - 1))
    d2 = [c[i - 1] - 2.0 * c[i] + c[i + 1] for i in range(1, len(c) - 1)]
    worst_ratio = 0.0
    for i in range(1, len(d2) - 1):
        neighbor = max(abs(d2[i - 1]), abs(d2[i + 1]))
        worst_ratio = max(worst_ratio, abs(d2[i]) / (neighbor + 1e-15))
    ok = decreasing and worst_ratio <= 10.0
    report(capsys, "A3 monotone + no kinks", ok,
           f"strictly decreasing: {decreasing}; max second-difference "
           f"ratio {worst_ratio:.2f} (limit 10)")


def test_04_continuation_agrees_with_direct(capsys):
    start = time.perf_counter()
    gaps = {}
    for kernel, label in ((GAUSS1, "cubic"), (UniformKernel(1.0), "generic")):
        seed = solve_critical(ModelParams(p=2.0, h=1.0), kernel)
        curve = continue_ode(2.0, kernel, 1.0, seed.eps0, 5.0, samples=50)
        direct = solve_critical(ModelParams(p=2.0, h=5.0), kernel)
        gaps[label] = rel(curve.c_star[-1], direct.c_star)
    elapsed = time.perf_counter() - start
    ok = max(gaps.values()) < 1e-6 and elapsed < 10.0
    report(capsys, "A4 continuation endpoint", ok,
           f"rel gap cubic {gaps['cubic']:.2e}, generic "
           f"{gaps['generic']:.2e} (tol 1e-6), {elapsed:.2f} s (limit 10 s)")


def test_05_seed_equation(capsys):
    rho = solve_ivp_rho0(2.0, 1.0)
    x = 1.0 / (4.0 * rho)
    residual = abs(1.0 + x - 2.0 * math.exp(-x))
    eps0 = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1).eps0
    gap = rel(rho, eps0)
    ok = residual <= 1e-12 and gap <= 1e-8
    report(capsys, "A5 seed equation", ok,
           f"equation residual {residual:.2e} (tol 1e-12); "
           f"|rho0 - eps0|/eps0 = {gap:.2e} (tol 1e-8)")


def test_06_residual_certificates(capsys):
    cases = [(GAUSS1, h) for h in (0.0, 0.5, 1.0, 2.0, 5.0)] + \
            [(UniformKernel(1.0), 1.0), (TwoPointKernel(1.0), 1.0),
             (DiracKernel(), 0.0), (DiracKernel(), 1.0)]
    worst_psi = worst_dz = worst_w = 0.0
    convex = True
    for kernel, h in cases:
        params = ModelParams(p=2.0, h=h)
        cp = solve_critical(params, kernel)
        worst_psi = max(worst_psi, cp.res_psi)
        worst_dz = max(worst_dz, cp.res_psi_z)
        r_ew, r_eww = wform_residuals(cp.w0, cp.eps0, params, kernel)
        worst_w = max(worst_w, abs(r_ew), abs(r_eww))
        convex = convex and cp.psi_zz > 0.0 and cp.psi_eps > 0.0
    ok = (worst_psi <= 1e-9 and worst_dz <= 1e-9
          and worst_w <= 1e-8 and convex)
    report(capsys, "A6 residual certificates", ok,
           f"max |psi| {worst_psi:.2e}, |psi_z| {worst_dz:.2e} (tol 1e-9); "
           f"max w-form {worst_w:.2e} (tol 1e-8); convexity {convex}")


def test_07_identity_suite(capsys):
    kernels = (GAUSS1, GaussianKernel(0.5), UniformKernel(1.0),
               TwoPointKernel(0.8))
    rng = random.Random(20240819)
    worst_rand = 0.0
    for _ in range(100):
        z = rng.uniform(0.05, 2.5)
        eps = rng.uniform(0.05, 4.0)
        p = rng.uniform(1.2, 5.0)
        h = rng.uniform(0.0, 2.5)
        kernel = kernels[rng.randrange(len(kernels))]
        params = ModelParams(p=p, h=h)
        r_ew, _ = wform_residuals(math.sqrt(eps) * z, eps, params, kernel)
        lhs = -math.exp(z * h) * psi_eval(z, eps, params, kernel).value
        worst_rand = max(worst_rand, abs(r_ew - lhs)
                         / max(1.0, abs(r_ew), abs(lhs)))

    # 20 points on the zero set of psi: there the second residual
    # collapses to exp(z h)/sqrt(eps) * psi_z
    worst_curve = 0.0
    count = 0
    for h in (0.2, 0.5, 0.8, 1.1, 1.4, 1.7, 2.0, 2.3, 2.6, 2.9):
        params = ModelParams(p=2.0, h=h)
        cp = solve_critical(params, GAUSS1)
        eps = 0.95 * cp.eps0
        for z in on_curve_points(params, GAUSS1, eps, cp.z0):
            _, r_eww = wform_residuals(math.sqrt(eps) * z, eps,
                                       params, GAUSS1)
            ev = psi_eval(z, eps, params, GAUSS1)
            lhs = (math.exp(z * h) / math.sqrt(eps)) * ev.dz
            worst_curve = max(worst_curve, abs(r_eww - lhs)
                              / max(1.0, abs(lhs)))
            count += 1
    ok = worst_rand <= 1e-10 and worst_curve <= 1e-8 and count == 20
    report(capsys, "A7 identity suite", ok,
           f"100 random points: worst rel {worst_rand:.2e} (tol 1e-10); "
           f"{count} on-curve points: worst {worst_curve:.2e} (tol 1e-8)")


def test_08_long_delay_asymptotics(capsys):
    floor = math.sqrt(math.log(2.0))
    k2_val = k2(2.0, GAUSS1)
    hc = {}
    ok = True
    for h in (10.0, 20.0, 50.0, 100.0):
        cp = solve_critical(ModelParams(p=2.0, h=h), GAUSS1)
        hc[h] = h * cp.c_star
        ok = ok and (floor < hc[h]) and (cp.c_star < k2_val / math.sqrt(h))
    tail = [hc[20.0], hc[50.0], hc[100.0]]
    spread = max(tail) / min(tail) - 1.0
    ok = ok and spread < 0.20
    report(capsys, "A8 long-delay asymptotics", ok,
           f"h*c* = {hc[10.0]:.4f}/{hc[20.0]:.4f}/{hc[50.0]:.4f}/"
           f"{hc[100.0]:.4f} all > {floor:.4f}; c* < k2/sqrt(h); "
           f"tail spread {100 * spread:.1f}% (limit 20%)")


def test_09_front_simulation_speeds(capsys):
    cfg = SimConfig(length=400.0, dx=0.1, t_end=100.0)

    start = time.perf_counter()
    res_a = run(cfg, ModelParams(p=2.0, h=0.0), DiracKernel(),
                BirthFunction.nicholson(2.0), reference_speed=2.0)
    t_a = time.perf_counter() - start
    gap_a = abs(res_a.speed - 2.0) / 2.0

    c1 = solve_critical(ModelParams(p=2.0, h=1.0), GAUSS1).c_star
    start = time.perf_counter()
    res_b = run(cfg, ModelParams(p=2.0, h=1.0), GAUSS1,
                BirthFunction.nicholson(2.0), reference_speed=c1)
    t_b = time.perf_counter() - start
    gap_b = abs(res_b.speed - c1) / c1

    ok = gap_a < 0.05 and gap_b < 0.10 and t_a < 60.0 and t_b < 60.0
    report(capsys, "A9 front simulation", ok,
           f"no delay: fitted {res_a.speed:.4f} vs 2 ({100 * gap_a:.2f}%, "
           f"tol 5%), {t_a:.1f} s; unit delay: fitted {res_b.speed:.4f} vs "
           f"{c1:.4f} ({100 * gap_b:.2f}%, tol 10%), {t_b:.1f} s "
           f"(limit 60 s each)")


def test_10_reference_dataset_determinism(capsys, tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["figure2", "--out", str(first)]) == 0
    assert main(["figure2", "--out", str(second)]) == 0
    a, b = first.read_bytes(), second.read_bytes()
    rows = a.decode("ascii").strip().split("\n")
    ok = a == b and len(rows) == 102
    report(capsys, "A10 dataset determinism", ok,
           f"two runs byte-identical: {a == b}; "
           f"{len(rows) - 1} data rows (expected 101)")
