"""Layer tracer: wraps the package's public functions from outside.

Nothing in the package is edited.  `Tracer.install` replaces every public
function of each layer module under every module name it is looked up
from (``solver.psi_eval`` and ``charfun.psi_eval`` get the same wrapper,
``cli.run_sim`` is ``front_sim.run``), and wraps the moment functional
methods of each kernel instance the first time a wrapped function sees
that instance.  Kernels are wrapped on the instance, not through a proxy
class, so ``isinstance(kernel, GaussianKernel)`` still picks the Cardano
path.  `uninstall` puts every original back.

Each wrapped call is one span: name, start, end, parent span and job id.
Self time is a span's duration minus the time its child spans cover;
the tracer keeps per-name call counts, self and total time, and the
exceptions that propagate out, and can also keep every span in memory
for writing out when the run ends.  Single-threaded use only.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# public functions of each layer; `errors` holds only exception types
LAYER_FUNCTIONS = {
    "kernels": ("kernel_from_spec", "tabulated_twin"),
    "charfun": ("psi_eval", "wform_residuals", "critical_point",
                "G_value", "H_value", "R_value"),
    "solver": ("min_psi", "solve_critical", "solve_ivp_rho0", "cardano_w0",
               "continue_ode", "sweep_direct"),
    "bounds": ("k1", "k2", "speed_bounds", "bound_window", "ad_upper",
               "ad_upper_opt"),
    "front_sim": ("run", "make_state", "step", "front_position",
                  "fit_front_speed", "resolve_dt"),
    "cli": ("main",),
}
KERNEL_METHODS = ("mgf", "mgf_deriv", "mgf_deriv2")


class Tracer:
    """Span recorder for one traced pass over a workload."""

    def __init__(self, ws, keep_spans: bool = False):
        self.ws = ws
        self.active = False
        self.job = -1
        self.keep_spans = keep_spans
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()      # (span name, exception class)
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []          # [start, child time, span index]
        self._patched: list[tuple] = []       # (namespace, attribute, original)
        self._kernels: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        namespaces = [self.ws] + [getattr(self.ws, m) for m in LAYER_FUNCTIONS]
        for layer, names in LAYER_FUNCTIONS.items():
            module = getattr(self.ws, layer)
            for fname in names:
                original = getattr(module, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)
                            self._patched.append((ns, attr, original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        for kernel in self._kernels:
            for method in KERNEL_METHODS:
                vars(kernel).pop(method, None)
        self._kernels.clear()

    @contextmanager
    def paused(self):
        """Calls inside run untraced (the benchmark's own output checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # ----------------------------------------------------------- wrapping

    def _adopt(self, kernel) -> None:
        group = ("tabulated" if isinstance(kernel, self.ws.kernels.TabulatedKernel)
                 else "closed")
        for method in KERNEL_METHODS:
            setattr(kernel, method,
                    self._wrap(f"kernels.{group}.{method}", getattr(kernel, method),
                               leaf=True))
        self._kernels.append(kernel)

    def _wrap(self, name: str, fn, leaf: bool = False):
        """Wrap fn as span `name`; leaf spans are counted and timed only."""
        tracer = self
        kernel_type = self.ws.kernels.Kernel
        stack = self._stack
        keep = self.keep_spans and not leaf
        params = [] if leaf else list(inspect.signature(fn).parameters)
        kernel_at = params.index("kernel") if "kernel" in params else None
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if kernel_at is not None:
                kernel = (args[kernel_at] if len(args) > kernel_at
                          else kwargs.get("kernel"))
                if isinstance(kernel, kernel_type) and "mgf" not in vars(kernel):
                    tracer._adopt(kernel)
            start = perf_counter()
            index = -1
            if keep:
                index = len(tracer.span_start)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(stack[-1][2] if stack else -1)
                tracer.span_job.append(tracer.job)
                tracer.span_start.append(start)
                tracer.span_end.append(start)
            frame = [start, 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                tracer.total_s[name] += duration
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    tracer.span_end[index] = end

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------ queries

    def count(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def time(self, prefix: str) -> float:
        return sum((t for name, t in self.total_s.items() if name.startswith(prefix)),
                   0.0)

    def write_spans(self, path) -> int:
        """Write the kept spans as arrays (.npz); times relative to the first."""
        import numpy as np
        start = np.frombuffer(self.span_start, dtype=float)
        t0 = start[0] if start.size else 0.0
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 job=np.frombuffer(self.span_job, dtype=np.int32),
                 start_s=start - t0,
                 end_s=np.frombuffer(self.span_end, dtype=float) - t0)
        return int(start.size)
