"""The benchmark's workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop with one caller.  It builds its inputs
from the seed when it is constructed (that is the timed set-up), yields
operations from `stream()`, runs one with `run_op` (the timed part) and
checks its output with `check`, which returns a problem string or None
plus facts about the output.  Package functions are always looked up on
their module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
import shutil
import statistics
import tempfile
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

@dataclass(frozen=True)
class Failure:
    """An operation that raised instead of returning."""

    kind: str
    message: str


@dataclass(frozen=True)
class Record:
    item: Any
    output: Any
    latency_s: float
    problem: Optional[str]      # None when every output check passed
    facts: dict


class Tally:
    """Streaming totals of a loop's records.

    Memory stays flat however many operations run (8 bytes of latency
    each), so peak_rss_mb measures the package, not the benchmark's
    bookkeeping of a faster program.
    """

    def __init__(self):
        self.latency = array("d")
        self.problems: Counter = Counter()
        self.examples: list[str] = []
        self.total: defaultdict = defaultdict(float)   # sum of each numeric fact
        self.count: Counter = Counter()                 # records with each fact
        self.largest: dict = {}                         # max of each numeric fact

    def add(self, record: Record) -> None:
        self.latency.append(record.latency_s)
        if record.problem is not None:
            self.problems[record.problem] += 1
            if len(self.examples) < 5:
                what = (record.output.message if isinstance(record.output, Failure)
                        else record.item)
                self.examples.append(f"{record.problem}: {what}")
        for key, value in record.facts.items():
            if key != "sig":
                self.total[key] += value
                self.count[key] += 1
                self.largest[key] = max(value, self.largest.get(key, value))

    @property
    def attempted(self) -> int:
        return len(self.latency)

    @property
    def failed(self) -> int:
        return sum(self.problems.values())


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ------------------------------------------------------------ solve_scatter

@dataclass(frozen=True)
class Solve:
    label: str                  # "stream", "anchor" or "edge"
    p: float
    h: float
    kernel: Any
    expected_c: Optional[float] = None


class SolveScatter:
    """A seeded stream of independent solve_critical calls.

    The timed stream stays inside CORE, where every solve is certified at
    this commit.  The six kernel families take turns, and every 32nd call
    is a closed-form anchor.  The edge probe (ROADMAP item 3's 175-point
    grid plus draws over the FULL ranges) runs untimed: its failures are
    reported as edge_fail_frac, not hidden, and the traced pass includes it
    so the failure counters can move.
    """

    CORE = {"p_minus_1": (1e-2, 1e1), "h": (1e-3, 5.0), "param": (0.1, 5.0)}
    FULL = {"p_minus_1": (1e-4, 1e2), "h": (1e-3, 1e2), "param": (0.1, 10.0)}
    FAMILIES = ("gaussian", "uniform", "twopoint", "dirac",
                "gaussian-twin", "uniform-twin")
    ANCHOR_EVERY = 32
    TWINS_PER_FAMILY = 4
    WIDE_DRAWS = 120
    TRACE_PREFIX = 200
    GRID_P = (1.0 + 1e-9, 1.0001, 2.0, 1e3, 1e8)
    GRID_H = (0.0, 1e-6, 1.0, 100.0, 1e4)

    def __init__(self, ws, seed: int):
        self.ws = ws
        self.seed = seed
        k = ws.kernels
        rng = random.Random(f"twins-{seed}")
        lo, hi = self.CORE["param"]
        self.twins = {
            "gaussian-twin": [k.tabulated_twin(k.GaussianKernel(log_uniform(rng, lo, hi)))
                              for _ in range(self.TWINS_PER_FAMILY)],
            "uniform-twin": [k.tabulated_twin(k.UniformKernel(log_uniform(rng, lo, hi)))
                             for _ in range(self.TWINS_PER_FAMILY)],
        }
        grid_kernels = (k.DiracKernel(), k.GaussianKernel(1.0), k.GaussianKernel(1e3),
                        k.UniformKernel(1.0), k.UniformKernel(100.0),
                        k.TwoPointKernel(1.0), k.TwoPointKernel(50.0))
        self.edge = [Solve("edge", p, h, kern) for kern in grid_kernels
                     for p in self.GRID_P for h in self.GRID_H]
        rng = random.Random(f"edge-{seed}")
        self.edge += [self._draw(rng, self.FULL, self.FAMILIES[i % 4], "edge")
                      for i in range(self.WIDE_DRAWS)]

    def _kernel(self, rng, family: str, ranges):
        k = self.ws.kernels
        if family in self.twins:
            return rng.choice(self.twins[family])
        if family == "dirac":
            return k.DiracKernel()
        cls = {"gaussian": k.GaussianKernel, "uniform": k.UniformKernel,
               "twopoint": k.TwoPointKernel}[family]
        return cls(log_uniform(rng, *ranges["param"]))

    def _draw(self, rng, ranges, family: str, label: str) -> Solve:
        kernel = self._kernel(rng, family, ranges)
        p = 1.0 + log_uniform(rng, *ranges["p_minus_1"])
        h = 0.0 if rng.random() < 0.1 else log_uniform(rng, *ranges["h"])
        return Solve(label, p, h, kernel)

    def _anchor(self, rng) -> Solve:
        k = self.ws.kernels
        p = 1.0 + log_uniform(rng, *self.CORE["p_minus_1"])
        which = rng.randrange(3)
        if which == 0:    # no delay, point kernel: c* = 2 sqrt(p-1)
            return Solve("anchor", p, 0.0, k.DiracKernel(), 2.0 * math.sqrt(p - 1.0))
        if which == 1:    # unit delay, point kernel: eps0 = 1/ln p
            return Solve("anchor", p, 1.0, k.DiracKernel(), math.sqrt(math.log(p)))
        alpha = log_uniform(rng, 0.1, 2.0)   # h = 1+2*alpha stays inside CORE
        return Solve("anchor", p, 1.0 + 2.0 * alpha, k.GaussianKernel(alpha),
                     math.sqrt(math.log(p) / (1.0 + alpha)))

    def stream(self, seed=None):
        """Families in turn (so every seed has the same mix), parameters drawn."""
        rng = random.Random(self.seed if seed is None else seed)
        i = 0
        while True:
            i += 1
            if i % self.ANCHOR_EVERY == 0:
                yield self._anchor(rng)
            else:
                family = self.FAMILIES[i % len(self.FAMILIES)]
                yield self._draw(rng, self.CORE, family, "stream")

    def warm_up_items(self):
        return self.stream(f"warm-{self.seed}")

    def trace_items(self) -> list:
        stream = self.stream()
        return [next(stream) for _ in range(self.TRACE_PREFIX)] + self.edge

    def run_op(self, item: Solve):
        params = self.ws.charfun.ModelParams(p=item.p, h=item.h)
        return self.ws.solver.solve_critical(params, item.kernel)

    def check(self, item: Solve, out):
        if isinstance(out, Failure):
            return out.kind, {"sig": out.kind}
        facts = {"sig": out.c_star}
        params = self.ws.charfun.ModelParams(p=item.p, h=item.h)
        lower, upper = self.ws.bounds.bound_window(params, item.kernel)
        tol = self.ws.solver.DEFAULT_CONFIG.residual_tol
        problem = None
        if out.res_psi > tol or out.res_psi_z > tol:
            problem = "residual"
        elif not (out.psi_zz > 0.0 and out.psi_eps > 0.0):
            problem = "transversality"
        elif not (lower * (1.0 - 1e-12) <= out.c_star <= upper * (1.0 + 1e-12)):
            problem = "outside-window"
        if item.expected_c is not None:
            err = abs(out.c_star - item.expected_c) / item.expected_c
            facts["anchor_rel_err"] = err
            if problem is None and not err <= 1e-9:
                problem = "anchor"
        return problem, facts

    def summary(self, tally: Tally) -> tuple[float, dict]:
        lat = tally.latency
        details = {
            "solves_per_s": len(lat) / sum(lat),
            "solve_p50_ms": 1e3 * statistics.median(lat),
            "solve_p95_ms": 1e3 * percentile(lat, 0.95),
            "anchor_rel_err": tally.largest.get("anchor_rel_err"),
            "anchors": tally.count["anchor_rel_err"],
            "fail_frac": tally.failed / tally.attempted,
        }
        return details["solves_per_s"], details

    @staticmethod
    def edge_summary(tally: Tally) -> dict:
        return {"edge_attempted": tally.attempted, "edge_failed": tally.failed,
                "edge_fail_frac": tally.failed / tally.attempted,
                "edge_failures": dict(sorted(tally.problems.items()))}

    def close(self) -> None:
        pass


# -------------------------------------------------------------- curve_sweep

CURVE_JOBS = {
    "figure2": ["figure2"],
    "curve-direct-uniform": ["curve", "--p", "2", "--kernel", "uniform:a=1",
                             "--method", "direct"],
    "curve-direct-twopoint": ["curve", "--p", "2", "--kernel", "twopoint:a=1",
                              "--method", "direct"],
    "curve-ode-uniform": ["curve", "--p", "2", "--kernel", "uniform:a=1",
                          "--method", "ode"],
    "curve-ode-gaussian": ["curve", "--p", "2", "--kernel", "gaussian:alpha=1",
                           "--method", "ode"],
}

# SHA-256 of each job's CSV, recorded from the package as the benchmark
# was written; a CSV that changes by one byte fails its check
CURVE_DIGESTS = {
    "figure2":
        "d1ab5d86bb508a930cca0a15d04a2edfabe1d81d70b874fdc9bbe4e605a6b53e",
    "curve-direct-uniform":
        "518297ce9111e150d52a56ea6490be93ff81c5ee287e5310b5a84223fac48b0a",
    "curve-direct-twopoint":
        "879a7afd963151385f5cef368a2289fd044a598a7bfb15f4194ad3f6e4bfc06f",
    "curve-ode-uniform":
        "9716ef309f8a36798a8ae4d8ccb58afb78a8a807ed259878ead45a41542522f8",
    "curve-ode-gaussian":
        "6b0fbab9e7fb18bf16d7d8efacc105a57047e4aa546718f77659f908b519f084",
}

_GAP = re.compile(r"max relative gap (\S+)")


class CurveSweep:
    """User CLI curve jobs run in-process through cli.main.

    The job list is fixed; the seed shuffles the order of every cycle.
    Each job writes its CSV into a private directory under `out_dir`.
    """

    def __init__(self, ws, seed: int, out_dir: Path):
        self.ws = ws
        self.seed = seed
        self.workdir = Path(tempfile.mkdtemp(prefix="curve-", dir=out_dir))

    def stream(self):
        rng = random.Random(self.seed)
        while True:
            order = list(CURVE_JOBS)
            rng.shuffle(order)
            yield from order

    def warm_up_items(self):
        while True:
            yield from CURVE_JOBS

    def trace_items(self) -> list:
        stream = self.stream()
        return [next(stream) for _ in CURVE_JOBS]

    def _csv(self, job: str) -> Path:
        return self.workdir / f"{job}.csv"

    def run_op(self, job: str):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = self.ws.cli.main(CURVE_JOBS[job] + ["--out", str(self._csv(job))])
        return code, text.getvalue()

    def check(self, job: str, out):
        path = self._csv(job)
        if isinstance(out, Failure):
            path.unlink(missing_ok=True)
            return out.kind, {"sig": out.kind}
        code, text = out
        data = path.read_bytes() if path.is_file() else b""
        path.unlink(missing_ok=True)
        digest = hashlib.sha256(data).hexdigest()
        facts = {"sig": digest, "csv_bytes": len(data),
                 "rows": max(0, data.count(b"\n") - 1)}
        gap = _GAP.search(text)
        if gap:
            facts["cross_gap"] = float(gap.group(1))
        if code != 0:
            return f"exit-{code}", facts
        if digest != CURVE_DIGESTS[job]:
            return "digest", facts
        return None, facts

    def summary(self, tally: Tally) -> tuple[float, dict]:
        lat = tally.latency
        details = {
            "curve_points_per_s": tally.total["rows"] / sum(lat),
            "curve_job_p50_ms": 1e3 * statistics.median(lat),
            "curve_job_p95_ms": 1e3 * percentile(lat, 0.95),
            "curve_cross_gap": tally.largest.get("cross_gap"),
            "fail_frac": tally.failed / tally.attempted,
        }
        return details["curve_points_per_s"], details

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------- front_sim

class FrontSim:
    """The A9 acceptance simulation of one case through front_sim.run.

    A9 config: length 400, dx 0.1, t_end 100, Nicholson birth, p = 2.
    `local` is the point kernel at h = 0 (no convolution, no history);
    `nonlocal` is gaussian:alpha=1 at h = 1 (201-tap convolution, 223
    history slices).  The seed draws each run's initial step width from
    [18, 22] around A9's 20, which moves the front but not its speed.
    """

    P = 2.0
    TOLERANCE = {"local": 0.05, "nonlocal": 0.10}    # A9's speed tolerances

    def __init__(self, ws, seed: int, case: str):
        self.ws = ws
        self.seed = seed
        self.case = case
        k = ws.kernels
        if case == "local":
            self.kernel = k.DiracKernel()
            self.params = ws.charfun.ModelParams(p=self.P, h=0.0)
            self.c_ref = 2.0 * math.sqrt(self.P - 1.0)
        else:
            self.kernel = k.GaussianKernel(1.0)
            self.params = ws.charfun.ModelParams(p=self.P, h=1.0)
            self.c_ref = ws.solver.solve_critical(self.params, self.kernel).c_star
        self.birth = ws.front_sim.BirthFunction.nicholson(self.P)

    def _config(self, init_width: float, t_end: float = 100.0):
        return self.ws.front_sim.SimConfig(length=400.0, dx=0.1, t_end=t_end,
                                           init_width=init_width)

    def stream(self):
        rng = random.Random(self.seed)
        while True:
            yield self._config(rng.uniform(18.0, 22.0))

    def warm_up_items(self):
        while True:
            yield self._config(20.0, t_end=1.0)

    def trace_items(self) -> list:
        return [next(self.stream())]

    def run_op(self, cfg):
        return self.ws.front_sim.run(cfg, self.params, self.kernel, self.birth,
                                     reference_speed=self.c_ref)

    def check(self, cfg, out):
        if isinstance(out, Failure):
            return out.kind, {"sig": out.kind}
        err = (out.speed - self.c_ref) / self.c_ref
        facts = {"sig": out.speed, "speed_err": err, "sim_time": out.times[-1],
                 "steps": len(out.times) - 1, "clamp_events": out.clamp_events,
                 "fit_residual": out.fit_residual}
        if out.hit_boundary:
            return "hit-boundary", facts
        if not abs(err) <= self.TOLERANCE[self.case]:
            return "speed", facts
        return None, facts

    def summary(self, tally: Tally) -> tuple[float, dict]:
        lat = tally.latency
        n_err = tally.count["speed_err"]
        details = {
            f"sim_{self.case}_s": statistics.median(lat),
            f"sim_{self.case}_err": tally.total["speed_err"] / n_err if n_err else None,
            "sim_time_per_s": tally.total["sim_time"] / sum(lat),
            "runs": tally.attempted,
            "fail_frac": tally.failed / tally.attempted,
        }
        return details["sim_time_per_s"], details

    def close(self) -> None:
        pass
