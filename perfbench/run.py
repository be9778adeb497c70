"""wavespeed benchmark: one workload per run, or the full report.

    python3 perfbench/run.py --workload solve_scatter --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --report --seed 1 --seconds 25

A run imports the package from src/ of this checkout and sets it up,
warms up for one second, then drives the workload as a closed loop with
one caller for --seconds and checks every output.  It sets up three
times before timing and once more every two seconds of timing; setup_s
is the median.  With --trace 0 it reports the end-to-end metrics.  With
--trace 1 it alternates an untraced and a traced pass over a fixed,
seeded set of operations until --seconds is used, checks that both
passes give the same outputs and that exact counts repeat, and reports
the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record (environment,
every workload metric, failure kinds) goes to perfbench/out/, and a traced
run also writes its span log there.  --report runs every workload on the
seed and on a held-out seed, plus one traced run, and prints every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import (CurveSweep, Failure, FrontSim, Record, SolveScatter,
                       Tally)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUP_REPEATS = 3       # set-ups before timing; the first also imports numpy
SETUP_EVERY_S = 2.0     # one more set-up after each such stretch of timing
WARM_UP_S = 1.0
HELD_OUT_OFFSET = 1000      # --report's second seed is seed + 1000

FAILURE_CLASSES = ("BracketError", "ConvergenceError", "DomainError",
                   "MgfOverflowError")
# per-layer metrics that must repeat exactly for the same seed
EXACT = ("solver.solves", "kernels.mgf_calls_per_solve",
         "charfun.psi_evals_per_solve", "charfun.overflows",
         "solver.min_psi_per_solve",
         *(f"solver.failures.{e}" for e in FAILURE_CLASSES),
         "solver.cardano_w0_calls", "bounds.speed_bounds_calls",
         "front_sim.steps_per_time_unit", "front_sim.clamp_events",
         "front_sim.fit_residual", "cli.csv_bytes")

# workload metrics the report prints next to the end-to-end ones
DETAIL_UNITS = {
    "fail_frac": ("ratio", "lower"),
    "edge_fail_frac": ("ratio", "lower"),
    "solves_per_s": ("1/s", "higher"),
    "solve_p50_ms": ("ms", "lower"),
    "solve_p95_ms": ("ms", "lower"),
    "anchor_rel_err": ("ratio", "lower"),
    "curve_points_per_s": ("1/s", "higher"),
    "curve_job_p50_ms": ("ms", "lower"),
    "curve_job_p95_ms": ("ms", "lower"),
    "curve_cross_gap": ("ratio", "lower"),
    "sim_local_s": ("s", "lower"),
    "sim_local_err": ("ratio", "closer to 0"),
    "sim_nonlocal_s": ("s", "lower"),
    "sim_nonlocal_err": ("ratio", "closer to 0"),
    "sim_time_per_s": ("1/s", "higher"),
}


# ------------------------------------------------------------------ set-up

def fresh_import():
    """Import wavespeed (and its cli) from scratch, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "wavespeed" or m.startswith("wavespeed.")]:
        del sys.modules[name]
    ws = importlib.import_module("wavespeed")
    importlib.import_module("wavespeed.cli")
    return ws


def make_workload(name: str, ws, seed: int):
    if name == "solve_scatter":
        return SolveScatter(ws, seed)
    if name == "curve_sweep":
        OUT.mkdir(exist_ok=True)
        return CurveSweep(ws, seed, OUT)
    return FrontSim(ws, seed, name.removeprefix("front_"))


def time_set_up(name: str, seed: int):
    start = perf_counter()
    ws = fresh_import()
    wl = make_workload(name, ws, seed)
    return ws, wl, perf_counter() - start


def set_up(name: str, seed: int):
    """Import and build the inputs SETUP_REPEATS times; keep the last."""
    times, wl = [], None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        ws, wl, seconds = time_set_up(name, seed)
        times.append(seconds)
    if not Path(ws.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported wavespeed from {ws.__file__}, "
                         f"not from {SRC}")
    return ws, wl, times


def attempt(wl, item, tracer=None) -> Record:
    """Run one operation (timed) and check its output (untimed, untraced)."""
    start = perf_counter()
    try:
        out = wl.run_op(item)
    except Exception as exc:  # the loop must go on; the failure is counted
        out = Failure(type(exc).__name__, str(exc))
    latency = perf_counter() - start
    if tracer is None:
        problem, facts = wl.check(item, out)
    else:
        with tracer.paused():
            problem, facts = wl.check(item, out)
    return Record(item, out, latency, problem, facts)


def warm_up(wl) -> None:
    items = wl.warm_up_items()
    deadline = perf_counter() + WARM_UP_S
    while perf_counter() < deadline:
        attempt(wl, next(items))


def is_edge(record: Record) -> bool:
    return getattr(record.item, "label", "") == "edge"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tally_of(records) -> Tally:
    tally = Tally()
    for record in records:
        tally.add(record)
    return tally


# ---------------------------------------------------------- untraced run

def run_untraced(name: str, seed: int, seconds: float) -> dict:
    ws, wl, setup_times = set_up(name, seed)
    details: dict = {"setup_runs_s": setup_times}
    try:
        warm_up(wl)
        if isinstance(wl, SolveScatter):
            edge = tally_of(attempt(wl, item) for item in wl.edge)
            details.update(wl.edge_summary(edge))
        tally = Tally()
        items = wl.stream()
        deadline = perf_counter() + seconds
        next_setup = perf_counter() + SETUP_EVERY_S
        while perf_counter() < deadline:
            tally.add(attempt(wl, next(items)))
            # set-up samples spread over the run see the same drift in the
            # machine's speed as the operations do
            if perf_counter() >= next_setup:
                _, spare, seconds_taken = time_set_up(name, seed)
                spare.close()
                setup_times.append(seconds_taken)
                next_setup = perf_counter() + SETUP_EVERY_S
    finally:
        wl.close()
    throughput, wl_details = wl.summary(tally)
    details.update(wl_details, failure_kinds=dict(tally.problems),
                   failure_examples=tally.examples)
    values = {"setup_s": statistics.median(setup_times),
              "peak_rss_mb": peak_rss_mb(),
              "throughput_per_s": throughput}
    failed = tally.failed
    return {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in SPEC["end_to_end"]},
            "details": details}


# ------------------------------------------------------------ traced run

def layer_metrics(t: Tracer, records) -> dict:
    """Per-layer counts and time shares of one traced pass.

    Times are shares of the pass's busy time (self time, or total time
    for spans that contain other layers), so a layer that a workload
    bypasses reads 0 without being a time; trace.busy_s gives the base.
    """
    busy = sum(r.latency_s for r in records)
    solves = t.calls["solver.solve_critical"]

    def per_solve(n: int) -> float:
        return n / solves if solves else 0.0

    def fact_sum(key: str, zero=0):
        return sum((r.facts.get(key, zero) for r in records), zero)

    def share(seconds: float) -> float:
        return seconds / busy

    sim_time = fact_sum("sim_time", 0.0)
    metrics = {
        "trace.busy_s": busy,
        "solver.solves": solves,
        "kernels.mgf_calls_per_solve": per_solve(
            t.count("kernels.closed.") + t.count("kernels.tabulated.")),
        "kernels.mgf_share.closed": share(t.time("kernels.closed.")),
        "kernels.mgf_share.tabulated": share(t.time("kernels.tabulated.")),
        "charfun.psi_evals_per_solve": per_solve(t.calls["charfun.psi_eval"]),
        "charfun.psi_eval_self_share": share(t.self_s["charfun.psi_eval"]),
        "charfun.overflows": t.raised[("charfun.psi_eval", "MgfOverflowError")],
        "solver.min_psi_per_solve": per_solve(t.calls["solver.min_psi"]),
        "solver.min_psi_self_share": share(t.self_s["solver.min_psi"]),
        "solver.solve_critical_self_share": share(t.self_s["solver.solve_critical"]),
        "solver.cardano_w0_calls": t.calls["solver.cardano_w0"],
        "solver.cardano_w0_share": share(t.total_s["solver.cardano_w0"]),
        "solver.continue_ode_share": share(t.total_s["solver.continue_ode"]),
        "solver.sweep_direct_share": share(t.total_s["solver.sweep_direct"]),
        "bounds.speed_bounds_calls": t.calls["bounds.speed_bounds"],
        "bounds.speed_bounds_share": share(t.total_s["bounds.speed_bounds"]),
        "front_sim.steps_per_time_unit": (t.calls["front_sim.step"] / sim_time
                                          if sim_time else 0.0),
        "front_sim.step_share": share(t.total_s["front_sim.step"]),
        "front_sim.front_position_share": share(t.total_s["front_sim.front_position"]),
        "front_sim.fit_share": share(t.total_s["front_sim.fit_front_speed"]),
        "front_sim.make_state_share": share(t.total_s["front_sim.make_state"]),
        "front_sim.clamp_events": fact_sum("clamp_events"),
        "front_sim.fit_residual": fact_sum("fit_residual", 0.0),
        "cli.self_share": share(t.self_s["cli.main"]),
        "cli.csv_bytes": fact_sum("csv_bytes"),
    }
    for err in FAILURE_CLASSES:
        metrics[f"solver.failures.{err}"] = t.raised[("solver.solve_critical", err)]
    return metrics


def reference_solve(ws) -> dict:
    """Counts of one gaussian:alpha=1, p=2, h=1 solve, ROADMAP's reference point."""
    tracer = Tracer(ws)
    tracer.install()
    try:
        ws.solver.solve_critical(ws.charfun.ModelParams(p=2.0, h=1.0),
                                 ws.kernels.GaussianKernel(1.0))
    finally:
        tracer.uninstall()
    return {"psi_evals": tracer.calls["charfun.psi_eval"],
            "min_psi_calls": tracer.calls["solver.min_psi"],
            "mgf_calls": tracer.count("kernels.closed.")}


def run_traced(name: str, seed: int, seconds: float) -> dict:
    ws, wl, setup_times = set_up(name, seed)
    passes = []
    try:
        warm_up(wl)
        items = wl.trace_items()
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            plain = [attempt(wl, item) for item in items]
            tracer = Tracer(ws, keep_spans=not passes)
            tracer.install()
            try:
                traced = []
                for job, item in enumerate(items):
                    tracer.job = job
                    traced.append(attempt(wl, item, tracer))
            finally:
                tracer.uninstall()
            if not passes:
                OUT.mkdir(exist_ok=True)
                n_spans = tracer.write_spans(OUT / f"spans-{name}-seed{seed}.npz")
                spans = {n: {"calls": tracer.calls[n], "self_s": tracer.self_s[n],
                             "total_s": tracer.total_s[n]} for n in sorted(tracer.calls)}
            passes.append((plain, traced, layer_metrics(tracer, traced)))
    finally:
        wl.close()

    first = passes[0][2]
    mismatches = sum(a.facts["sig"] != b.facts["sig"]
                     for plain, traced, _ in passes for a, b in zip(plain, traced))
    unrepeated = sorted({m for _, _, lm in passes for m in EXACT if lm[m] != first[m]})
    counted = tally_of(r for plain, traced, _ in passes for r in plain + traced
                       if not is_edge(r))
    failed = counted.failed + mismatches + len(unrepeated)

    # exact counts from the first pass, times as medians over all passes
    values = {m: v if m in EXACT else statistics.median(lm[m] for _, _, lm in passes)
              for m, v in first.items()}
    busy = [(sum(r.latency_s for r in plain), sum(r.latency_s for r in traced))
            for plain, traced, _ in passes]
    values["trace.overhead_frac"] = (statistics.median(b for _, b in busy)
                                     / statistics.median(a for a, _ in busy) - 1.0)
    details = {"passes": len(passes), "ops_per_pass": len(passes[0][0]),
               "outputs_compared": len(passes) * len(passes[0][0]),
               "output_mismatches": mismatches, "unrepeated_exact": unrepeated,
               "spans_written": n_spans, "first_pass_spans": spans,
               "setup_runs_s": setup_times,
               "failure_kinds": dict(counted.problems),
               "failure_examples": counted.examples}
    if isinstance(wl, SolveScatter):
        details["reference_solve"] = reference_solve(ws)
    if isinstance(wl, FrontSim):
        details["steps_per_run"] = [r.facts.get("steps") for r in passes[0][1]]
        step = spans["front_sim.step"]
        details["step_us"] = 1e6 * step["total_s"] / step["calls"]
    return {"correct": failed == 0, "attempted": counted.attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in SPEC["per_layer"]},
            "details": details}


# ------------------------------------------------------------ environment

def git_commit():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = git / ref[5:]
    return ref.read_text().strip() if ref.is_file() else None


def environment(seed: int) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "wavespeed").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "commit": git_commit(),
            "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


# ----------------------------------------------------------------- output

def print_metrics(title: str, metrics: dict, details: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:<14.6g} {m['unit']}")
    for name, (unit, better) in DETAIL_UNITS.items():
        if details.get(name) is not None:
            print(f"  {name:<34} {details[name]:<14.6g} {unit} ({better})")


def run_one(args) -> int:
    if not (SRC / "wavespeed" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'wavespeed'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, **result, "env": environment(args.seed)}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_metrics(f"{args.workload} seed {args.seed} trace {args.trace}: "
                  f"{result['attempted']} attempted, {result['failed']} failed",
                  result["metrics"], result["details"])
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def report(seed: int, seconds: float) -> int:
    """Every workload on the seed, the held-out seed, and traced."""
    runs = []
    for name in WORKLOADS:
        for role, s, trace in (("seed", seed, 0),
                               ("held_out", seed + HELD_OUT_OFFSET, 0),
                               ("traced", seed, 1)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(s), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            path = OUT / f"{name}-seed{s}-trace{trace}.json"
            record = json.loads(path.read_text(encoding="utf-8"))
            runs.append({"role": role, **record})
            print_metrics(f"{name} [{role}] seed {s}: correct {record['correct']}, "
                          f"{record['attempted']} attempted, {record['failed']} failed",
                          record["metrics"], record["details"])
            sys.stdout.flush()
    (OUT / "report.json").write_text(json.dumps(runs, indent=1) + "\n",
                                     encoding="utf-8")
    return 0 if all(r["correct"] for r in runs) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload on the seed and a held-out seed, "
                             "plus a traced run, and print every metric")
    args = parser.parse_args(argv)
    # measure the default serial path users get
    os.environ.pop("WAVESPEED_THREADS", None)
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
