"""The solver on the edge grid: every input certifies or fails as recorded.

The grid is 7 kernels x p in {1+1e-9, 1.0001, 2, 1e3, 1e8} x h in {0,
1e-6, 1, 100, 1e4}, the deterministic part of the benchmark's edge
probe.  FAILURES is exact: an input that starts to certify fails its
test as surely as one that stops, so every change to the solver's
domain shows here and has to update the table.
"""

import math

import pytest

from wavespeed.bounds import bound_window, speed_bounds
from wavespeed.charfun import ModelParams
from wavespeed.errors import WavespeedError
from wavespeed.kernels import kernel_from_spec
from wavespeed.solver import DEFAULT_CONFIG, solve_critical

KERNELS = ("dirac", "gaussian:alpha=1", "gaussian:alpha=1000", "uniform:a=1",
           "uniform:a=100", "twopoint:a=1", "twopoint:a=50")
P_VALUES = (1.0 + 1e-9, 1.0001, 2.0, 1e3, 1e8)
H_VALUES = (0.0, 1e-6, 1.0, 100.0, 1e4)
GRID = [(spec, p, h) for spec in KERNELS for p in P_VALUES for h in H_VALUES]

# (kernel, p, h) -> the class solve_critical raises there
FAILURES = {
    # psi_min rounds to 0 at the window's proven upper end
    **{("dirac", 1.0 + 1e-9, h): "BracketError" for h in H_VALUES},
    # the certificate's residuals exceed 1e-9
    ("dirac", 1e8, 0.0): "ConvergenceError",
    ("dirac", 1e8, 1e-6): "ConvergenceError",
    ("uniform:a=100", 1e8, 1.0): "ConvergenceError",
    # the window's upper speed bound passes 1e6, so its eps end lies
    # below the eps floor; c* itself can be far lower (gaussian:alpha=1000
    # has c* 245, 2.7 and 0.027 at h = 1, 100 and 1e4)
    ("gaussian:alpha=1", 1e8, 0.0): "DomainError",
    ("gaussian:alpha=1", 1e8, 1e-6): "DomainError",
    **{("gaussian:alpha=1000", 1e8, h): "DomainError" for h in H_VALUES},
    ("uniform:a=1", 1e8, 0.0): "DomainError",
    ("uniform:a=1", 1e8, 1e-6): "DomainError",
    ("uniform:a=100", 1e8, 0.0): "DomainError",
    ("uniform:a=100", 1e8, 1e-6): "DomainError",
    ("twopoint:a=1", 1e8, 0.0): "DomainError",
    ("twopoint:a=1", 1e8, 1e-6): "DomainError",
    ("twopoint:a=50", 1e8, 0.0): "DomainError",
    ("twopoint:a=50", 1e8, 1e-6): "DomainError",
    # psi's minimizer on the overflow edge of M
    ("twopoint:a=50", 1e3, 1.0): "DomainError",
    ("twopoint:a=50", 1e8, 1.0): "DomainError",
}


def test_failure_table_is_on_the_grid():
    assert set(FAILURES) <= set(GRID)
    assert len(GRID) == 175 and len(FAILURES) == 25


@pytest.mark.parametrize("spec, p, h", GRID,
                         ids=[f"{s}-p{p:g}-h{h:g}" for s, p, h in GRID])
def test_certifies_or_fails_as_recorded(spec, p, h):
    params = ModelParams(p=p, h=h)
    kernel = kernel_from_spec(spec)
    try:
        cp = solve_critical(params, kernel)
    except WavespeedError as exc:
        assert type(exc).__name__ == FAILURES.get((spec, p, h)), exc
        return
    assert (spec, p, h) not in FAILURES, "certifies now: update FAILURES"
    tol = DEFAULT_CONFIG.residual_tol
    assert cp.res_psi <= tol and cp.res_psi_z <= tol
    assert cp.psi_zz > 0.0 and cp.psi_eps > 0.0
    lower, upper = bound_window(params, kernel)
    assert lower * (1.0 - 1e-12) <= cp.c_star <= upper * (1.0 + 1e-12)


def test_bounds_answer_on_the_whole_grid():
    # k2 is +inf wherever M(sqrt(ln p)) overflows, and the window then
    # binds at k1; for the point kernel at h = 1 the window is one point,
    # with its ends an ulp apart either way
    infinite = 0
    for spec, p, h in GRID:
        b = speed_bounds(ModelParams(p=p, h=h), kernel_from_spec(spec))
        assert 0.0 < b.lower <= b.upper * (1.0 + 1e-15)
        assert b.upper < math.inf
        infinite += math.isinf(b.upper_k2)
    assert infinite == 43
