"""Command-line front end.

Subcommands:

    speed     one critical point: c*, z0, eps0, w0, residuals, window
    bounds    every explicit bound candidate at one (p, h, kernel)
    curve     sample c*(h) and its bounds over an h range to CSV (+SVG)
    curves    sample the auxiliary functions G, H, R on a w grid to CSV
    verify    built-in consistency suite (seed, continuation, identities)
    simulate  direct front simulation, fitted speed vs the solver's c*
    figure2   the reference speed-vs-delay dataset (p=2, gaussian:alpha=1)

Only simulate, and a table: kernel, load numpy; the other commands are
scalar math.

Exit codes, the same for every command: 0 success, every c* certified
(its window included) and every verify check passed; 2 an argument or
DomainError (outside the domain, or a named double-range limit); 3 a
NumericalError on admitted input or a failed verify check, where curve
--method direct still writes every row and leaves a failed one empty,
while figure2 writes nothing unless every point certifies and its two
legs agree.  bounds solves nothing and has no exit-3 path.
All CSV output is deterministic: fixed column order, 12 significant
digits, LF line endings.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional, Sequence

from . import bounds as bounds_mod
from .charfun import (G_value, H_value, ModelParams, R_value, _check_eps,
                      psi_eval, wform_residuals)
from .errors import DomainError, MgfOverflowError, NumericalError, WavespeedError
from .kernels import GaussianKernel, Kernel, kernel_from_spec
from .solver import (cardano_w0, continue_ode, solve_critical, solve_ivp_rho0,
                     sweep_direct)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f", "#bcbd22")

_CURVE_HEADER = ("h", "c_star", "lower_add", "lower_log", "upper_k1",
                 "upper_k2", "lower_active", "upper_active", "residual")


# ---------------------------------------------------------------- formatting

def _fmt(value) -> str:
    if value is None:
        return ""
    return "%.12g" % float(value)


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _render_svg(path: str, title: str, x_label: str,
                series: Sequence[tuple[str, Sequence[float], Sequence[float]]]
                ) -> None:
    """Self-contained polyline chart, fixed 960x600 viewBox.

    Non-finite points split a series into separate polyline segments, so
    an inf bound candidate simply leaves a gap instead of breaking the
    chart.
    """
    width, height = 960, 600
    ml, mr, mt, mb = 75, 200, 50, 55
    xs_all, ys_all = [], []
    for _, xs, ys in series:
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                xs_all.append(x)
                ys_all.append(y)
    if not xs_all:
        raise DomainError("nothing finite to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi - x_lo < 1e-300:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-300:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo -= pad_y
    y_hi += pad_y

    def sx(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(y: float) -> float:
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
           f'font-family="sans-serif" font-size="13">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{ml}" y="{mt - 20}" font-size="17">{title}</text>']
    n_ticks = 6
    for i in range(n_ticks):
        xv = x_lo + (x_hi - x_lo) * i / (n_ticks - 1)
        yv = y_lo + (y_hi - y_lo) * i / (n_ticks - 1)
        px, py = sx(xv), sy(yv)
        out.append(f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" '
                   f'y2="{height - mb}" stroke="#dddddd"/>')
        out.append(f'<line x1="{ml}" y1="{py:.2f}" x2="{width - mr}" '
                   f'y2="{py:.2f}" stroke="#dddddd"/>')
        out.append(f'<text x="{px:.2f}" y="{height - mb + 20}" '
                   f'text-anchor="middle">{xv:.4g}</text>')
        out.append(f'<text x="{ml - 8}" y="{py + 4:.2f}" '
                   f'text-anchor="end">{yv:.4g}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" '
               f'height="{height - mt - mb}" fill="none" stroke="#333333"/>')
    out.append(f'<text x="{(ml + width - mr) / 2:.0f}" y="{height - 12}" '
               f'text-anchor="middle">{x_label}</text>')
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        segment: list[str] = []
        segments: list[list[str]] = []
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                segment.append(f"{sx(x):.2f},{sy(y):.2f}")
            elif segment:
                segments.append(segment)
                segment = []
        if segment:
            segments.append(segment)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                out.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                out.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                           f'stroke="{color}" stroke-width="1.8"/>')
        ly = mt + 22 * idx + 10
        out.append(f'<line x1="{width - mr + 12}" y1="{ly}" '
                   f'x2="{width - mr + 40}" y2="{ly}" stroke="{color}" '
                   f'stroke-width="3"/>')
        out.append(f'<text x="{width - mr + 48}" y="{ly + 4}">{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(out) + "\n")


# ----------------------------------------------------------- argument types
# Numbers are parsed as plain floats: ModelParams, SimConfig, BirthFunction
# and the commands check their ranges, and main maps that DomainError to 2.

def _arg_kernel(text: str) -> Kernel:
    try:
        return kernel_from_spec(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# ---------------------------------------------------------------- commands

def cmd_speed(args) -> int:
    params = ModelParams(p=args.p, h=args.h)
    cp = solve_critical(params, args.kernel)
    b = bounds_mod.speed_bounds(params, args.kernel)
    ad = bounds_mod.ad_upper_opt(params, args.kernel) if params.h > 0.0 else None
    print(f"c_star    = {_fmt(cp.c_star)}")
    print(f"eps0      = {_fmt(cp.eps0)}")
    print(f"z0        = {_fmt(cp.z0)}")
    print(f"w0        = {_fmt(cp.w0)}")
    print(f"|psi|     = {_fmt(cp.res_psi)}")
    print(f"|psi_z|   = {_fmt(cp.res_psi_z)}")
    print(f"window    = ({_fmt(b.lower)}, {_fmt(b.upper)})  regime {b.regime}")
    print("inside    = yes")     # solve_critical certified it
    if ad is not None:
        print(f"ad_upper  = {_fmt(ad[1])}  at r = {_fmt(ad[0])}")
    return 0


def cmd_bounds(args) -> int:
    params = ModelParams(p=args.p, h=args.h)
    b = bounds_mod.speed_bounds(params, args.kernel)
    ad = bounds_mod.ad_upper_opt(params, args.kernel) if params.h > 0.0 else None
    print(f"p         = {_fmt(args.p)}")
    print(f"h         = {_fmt(args.h)}")
    print(f"kernel    = {args.kernel.spec_string()}")
    print(f"regime    = {b.regime}")
    print(f"k1        = {_fmt(b.k1)}")
    print(f"k2        = {_fmt(b.k2)}")
    print(f"lower_add = {_fmt(b.lower_add)}")
    print(f"lower_log = {_fmt(b.lower_log)}")
    print(f"upper_k1  = {_fmt(b.upper_k1)}")
    print(f"upper_k2  = {_fmt(b.upper_k2)}")
    print(f"lower     = {_fmt(b.lower)}")
    print(f"upper     = {_fmt(b.upper)}")
    if ad is not None:
        print(f"upper_ad  = {_fmt(ad[1])}  at r = {_fmt(ad[0])}")
    return 0


def _curve_points(p: float, kernel: Kernel, grid: Sequence[float],
                  method: str) -> list[tuple[float, float] | WavespeedError]:
    """(c_star, residual) per grid point, or the error of a failed direct
    solve there."""
    grid_params = [ModelParams(p=p, h=h) for h in grid]  # bad --p: exit 2
    if method == "direct":
        points: list[tuple[float, float] | WavespeedError] = []
        for params in grid_params:
            try:
                cp = solve_critical(params, kernel)
                points.append((cp.c_star, cp.res_psi))
            except WavespeedError as exc:
                points.append(exc)
        return points
    # ode: seed at the left end, RK4 across the grid's sample intervals
    seed = solve_critical(grid_params[0], kernel)
    if len(grid) == 1:
        return [(seed.c_star, seed.res_psi)]
    try:
        curve = continue_ode(p, kernel, grid[0], seed.eps0, grid[-1],
                             samples=len(grid) - 1)
    except WavespeedError as exc:
        # the input was admitted, so a stage refused mid-run fails the job
        # (exit 3); name the flag that sets the sample count
        raise NumericalError(f"{type(exc).__name__}: " + str(exc).replace(
            "increase samples", "increase --samples")) from None
    return list(zip(curve.c_star, curve.res_psi))


def _write_curve(p: float, kernel: Kernel, grid: Sequence[float], points,
                 out: str, svg: Optional[str]) -> None:
    """Curve CSV with the bounds at every grid point, plus an optional chart.

    A point given as an error (failed solve) keeps its bounds and leaves
    c_star and residual empty in the CSV and as gaps in the chart.
    """
    rows = []
    for h, point in zip(grid, points):
        b = bounds_mod.speed_bounds(ModelParams(p=p, h=h), kernel)
        failed = isinstance(point, WavespeedError)
        c_star, residual = (None, None) if failed else point
        rows.append((h, c_star, b.lower_add, b.lower_log, b.upper_k1,
                     b.upper_k2, b.lower, b.upper, residual))
    _write_csv(out, _CURVE_HEADER, rows)
    if svg:
        series = [(name, grid, [math.nan if r[col] is None else r[col]
                                for r in rows])
                  for col, name in enumerate(_CURVE_HEADER[1:], start=1)]
        _render_svg(svg, f"minimal speed and bounds vs delay "
                         f"(p={p:g}, {kernel.spec_string()})", "h", series)


def cmd_curve(args) -> int:
    if args.h_max < args.h_min:
        raise DomainError(f"--h-max {args.h_max:g} is below --h-min {args.h_min:g}")
    if args.samples < 1:
        raise DomainError(f"--samples must be >= 1, got {args.samples}")
    if args.h_max == args.h_min or args.samples == 1:
        grid = [args.h_min]
    else:
        grid = [args.h_min + (args.h_max - args.h_min) * i / (args.samples - 1)
                for i in range(args.samples)]
    points = _curve_points(args.p, args.kernel, grid, args.method)
    _write_curve(args.p, args.kernel, grid, points, args.out, args.svg)
    print(f"wrote {len(grid)} rows to {args.out} (method {args.method})")
    if args.svg:
        print(f"wrote chart to {args.svg}")
    failures = [(h, exc) for h, exc in zip(grid, points)
                if isinstance(exc, WavespeedError)]
    for h, exc in failures:
        print(f"h = {_fmt(h)}: {type(exc).__name__}: {exc}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} samples failed (empty fields)",
              file=sys.stderr)
        return 3
    return 0


def cmd_curves(args) -> int:
    if args.samples < 1:
        raise DomainError(f"--samples must be >= 1, got {args.samples}")
    params = ModelParams(p=args.p, h=args.h)
    if args.eps is not None:
        _check_eps(args.eps)
        eps = args.eps
    else:
        eps = solve_critical(params, args.kernel).eps0
    w_hi = 1.5 / math.sqrt(eps)
    n = args.samples
    rows = []
    for i in range(n):
        w = w_hi * i / (n - 1) if n > 1 else 0.0
        column = "H"
        try:
            hv = H_value(w, eps, args.h)
            column = "R"
            rows.append((w, G_value(w, eps), hv, R_value(w, args.p, args.kernel)))
        except MgfOverflowError:
            levers = "--eps or a smaller --h" if column == "H" else "--eps"
            raise MgfOverflowError(
                f"column {column} leaves double range at w = {w:.6g} (the grid "
                f"ends at 1.5/sqrt(eps)); a larger {levers} keeps it finite") from None
    _write_csv(args.out, ("w", "G", "H", "R"), rows)
    print(f"wrote {n} rows to {args.out} (eps = {_fmt(eps)})")
    return 0


def cmd_verify(args) -> int:
    kernel = args.kernel
    p = args.p
    checks: list[tuple[str, bool, str]] = []
    is_gaussian = isinstance(kernel, GaussianKernel)
    # each delay is solved once, when a check first needs it
    solve = functools.cache(lambda h: solve_critical(ModelParams(p=p, h=h), kernel))

    if is_gaussian:
        alpha = kernel.alpha
        rho0 = solve_ivp_rho0(p, alpha)
        x = 1.0 / (4.0 * rho0)
        resid = abs(1.0 + x - p * math.exp(-alpha * x))
        checks.append(("ivp-equation-residual", resid <= 1e-12,
                       f"residual {resid:.3g}"))
        cp_seed = solve(alpha)
        rel = abs(cp_seed.eps0 - rho0) / cp_seed.eps0
        checks.append(("ivp-matches-direct-eps0", rel <= 1e-8,
                       f"rel diff {rel:.3g}"))
        h0, eps_seed = alpha, rho0
    else:
        h0 = 0.5
        eps_seed = solve(h0).eps0

    try:
        curve = continue_ode(p, kernel, h0, eps_seed, h0 + 2.0, samples=25)
        checks.append((f"continuation-endpoint ({curve.method})", True,
                       f"gap {curve.endpoint_gap:.3g}"))
    except NumericalError as exc:
        checks.append(("continuation-endpoint", False, str(exc)))

    if is_gaussian:
        ok = True
        detail = []
        for h in (1.0, 2.0):
            cp = solve(h)
            w_c = cardano_w0(cp.eps0, h, kernel.alpha)
            diff = abs(w_c - cp.w0)     # cp.w0 is min_psi's at cp.eps0
            ok = ok and diff <= 1e-8 * max(1.0, w_c)
            detail.append(f"h={h:g}: {diff:.3g}")
        checks.append(("cardano-vs-generic-w0", ok, "; ".join(detail)))

    import random as _random
    rng = _random.Random(20240817)
    worst = 0.0
    for _ in range(50):
        z = rng.uniform(0.0, 4.0)
        eps = rng.uniform(0.05, 4.0)
        h = rng.uniform(0.0, 3.0)
        pr = ModelParams(p=p, h=h)
        rhs = -math.exp(z * h) * psi_eval(z, eps, pr, kernel).value
        lhs, _ = wform_residuals(math.sqrt(eps) * z, eps, pr, kernel)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    checks.append(("wform-identity", worst <= 1e-10, f"worst rel {worst:.3g}"))

    # solve_critical raises unless its certificate holds
    detail = [f"h={h:g}: |psi|={solve(h).res_psi:.2g}" for h in (0.0, 1.0, 2.0)]
    checks.append(("critical-point-certificates", True, "; ".join(detail)))

    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, good, info in checks:
        tag = "PASS" if good else "FAIL"
        all_ok = all_ok and good
        print(f"[{tag}] {name:<{width}}  {info}")
    return 0 if all_ok else 3


def cmd_simulate(args) -> int:
    from .front_sim import BirthFunction, SimConfig, run
    params = ModelParams(p=args.p, h=args.h)
    kind = "nicholson" if args.birth == "nicholson" else "capped-linear"
    g = BirthFunction(kind, args.p)
    cfg = SimConfig(length=args.length, dx=args.dx, t_end=args.t_end,
                    init_width=args.init_width)
    reference = solve_critical(params, args.kernel).c_star
    result = run(cfg, params, args.kernel, g, reference_speed=reference)
    print(f"fitted speed   = {_fmt(result.speed)}")
    print(f"reference c*   = {_fmt(reference)}")
    print(f"relative gap   = {_fmt(abs(result.speed - reference) / reference)}")
    print(f"fit rms        = {_fmt(result.fit_residual)}")
    print(f"dt             = {_fmt(result.dt)}")
    print(f"clamp events   = {result.clamp_events}")
    if result.hit_boundary:
        print("warning: front reached the domain boundary; trace truncated",
              file=sys.stderr)
    if args.out:
        _write_csv(args.out, ("t", "x_front"),
                   zip(result.times, result.front))
        print(f"wrote {len(result.times)} trace rows to {args.out}")
    return 0


def cmd_figure2(args) -> int:
    """Reference dataset: both solve paths, cross-checked, then CSV."""
    p = 2.0
    kernel = GaussianKernel(1.0)
    grid = [5.0 * i / 100 for i in range(101)]
    direct = sweep_direct(p, kernel, grid)
    rho0 = solve_ivp_rho0(p, kernel.alpha)
    # seeded at h = 1, grid[20]: 20 sample intervals down, 80 up
    down = continue_ode(p, kernel, 1.0, rho0, 0.0, samples=20)
    up = continue_ode(p, kernel, 1.0, rho0, 5.0, samples=80)
    ode_c = down.c_star + up.c_star[1:]
    gap = max(abs(a - b) / b for a, b in zip(ode_c, direct.c_star))
    if gap > 1e-6:
        raise NumericalError(
            f"continuation and direct solves disagree by {gap:.3g} "
            "(relative on c*); refusing to write an inconsistent dataset")
    _write_curve(p, kernel, grid, list(zip(direct.c_star, direct.res_psi)),
                 args.out, args.svg)
    print(f"wrote {len(grid)} rows to {args.out}")
    print(f"method cross-check: max relative gap {gap:.3g}")
    if args.svg:
        print(f"wrote chart to {args.svg}")
    return 0


# ------------------------------------------------------------------- parser

def _add_model_flags(sub, with_h: bool = True) -> None:
    sub.add_argument("--p", type=float, required=True,
                     help="birth-function slope at 0 (must exceed 1)")
    if with_h:
        sub.add_argument("--h", type=float, required=True,
                         help="maturation delay (>= 0)")
    sub.add_argument("--kernel", type=_arg_kernel, required=True,
                     help="kernel spec: gaussian:alpha=A | uniform:a=A | "
                          "twopoint:a=A | dirac | table:path.csv")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (parse_args leaves it as
    it was)."""
    parser = argparse.ArgumentParser(
        prog="wavespeed",
        description="Minimal front speed of a delayed nonlocal "
                    "reaction-diffusion model: solver, bounds, simulation.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("speed", help="critical point at one (p, h, kernel)")
    _add_model_flags(sp)
    sp.set_defaults(func=cmd_speed)

    sp = subs.add_parser("bounds", help="explicit bound candidates")
    _add_model_flags(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = subs.add_parser("curve", help="c*(h) and bounds over an h range")
    _add_model_flags(sp, with_h=False)
    sp.add_argument("--h-min", type=float, default=0.0)
    sp.add_argument("--h-max", type=float, default=5.0)
    sp.add_argument("--samples", type=int, default=101)
    sp.add_argument("--method", choices=("direct", "ode"), default="direct")
    sp.add_argument("--out", default="curve.csv")
    sp.add_argument("--svg", default=None, help="also render a line chart")
    sp.set_defaults(func=cmd_curve)

    sp = subs.add_parser("curves", help="auxiliary functions G, H, R on a w grid")
    _add_model_flags(sp)
    sp.add_argument("--eps", type=float, default=None,
                    help="evaluate at this eps (default: the critical eps0)")
    sp.add_argument("--samples", type=int, default=151)
    sp.add_argument("--out", default="curves.csv")
    sp.set_defaults(func=cmd_curves)

    sp = subs.add_parser("verify", help="built-in consistency suite")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--kernel", type=_arg_kernel, default="gaussian:alpha=1")
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("simulate", help="direct front simulation")
    _add_model_flags(sp)
    sp.add_argument("--birth", choices=("nicholson", "capped"),
                    default="nicholson")
    sp.add_argument("--length", type=float, default=400.0)
    sp.add_argument("--dx", type=float, default=0.1)
    sp.add_argument("--t-end", type=float, default=100.0)
    sp.add_argument("--init-width", type=float, default=20.0)
    sp.add_argument("--out", default=None, help="front trace CSV (t,x_front)")
    sp.set_defaults(func=cmd_simulate)

    sp = subs.add_parser(
        "figure2",
        help="reference speed-vs-delay dataset (p=2, gaussian:alpha=1, "
             "h in [0,5], 101 samples, both methods cross-checked)")
    sp.add_argument("--out", default="figure2.csv")
    sp.add_argument("--svg", default=None)
    sp.set_defaults(func=cmd_figure2)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
