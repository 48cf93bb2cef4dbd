"""In-memory spans around the public functions of the skewdisc modules.

A traced run wraps every public function defined in each module of
LAYER_MODULES. A function that other modules import by name (for
example ``sample`` in ``montecarlo``, ``inv_sqrt`` and ``sym_eigen`` in
``estimators``) is looked up in the importing module's namespace, so the
wrapper replaces every name that is bound to the original function, in
every loaded ``skewdisc`` module.

A span records its name, start, end and parent. A span opened on a
worker thread that has no open span of its own takes as parent the
innermost span open on the thread that installed the tracer; that
thread is blocked in the thread pool while the workers run. A layer's
self time is its span's duration minus the part of that interval its
child spans cover, so overlapping children from two workers are counted
once.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

LAYER_MODULES = ("cli", "model", "moments", "linalg", "estimators", "montecarlo")

#: Spans reported under their own name: self time, call count and share.
NAMED = ("cli.load_csv", "model.sample", "moments.sample_moments",
         "moments.tk_slices", "moments.tobi_matrix", "linalg.inv_sqrt",
         "linalg.sym_eigen", "estimators.whiten", "estimators.jade3_unit")

#: Estimator entry points; their inclusive time is reported per method.
METHOD_SPANS = {f"estimators.est_{m}": m
                for m in ("mom", "skewvec", "tobi", "jade3", "lda", "pp")}

#: Exception classes counted separately when an estimator raises.
RAISED_CLASSES = ("DegenerateSkewnessError", "NearSingularError",
                  "SymmetryError", "SupervisionRequiredError",
                  "LinAlgError", "ValueError")

EXPERIMENT_SPANS = ("montecarlo.chat_experiment", "montecarlo.msi_experiment")


def _estimate_info(est):
    return {"converged": est.converged, "iterations": est.iterations}


def _jade3_unit_info(result):
    _, converged, iterations, _ = result
    return {"converged": converged, "iterations": iterations}


RESULT_INFO = {
    "cli.load_csv": lambda data: {"rows": data.n},
    "estimators.jade3_unit": _jade3_unit_info,
    **{name: _estimate_info for name in METHOD_SPANS},
}


class Span:
    """One call of a wrapped function. parent is a Span or None; info
    holds what the call returned that the metrics need (iterations,
    convergence, rows) or the class name of what it raised."""

    __slots__ = ("name", "start", "end", "parent", "info", "cpu")

    def __init__(self, name, start, end, parent=None, info=None, cpu=0.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.info = info
        self.cpu = cpu


class Tracer:
    """Collects spans in memory. Use ``with tracer.installed():`` to
    wrap the layer functions; ``take()`` returns and clears the spans."""

    def __init__(self):
        self._spans = []
        self._stacks = {}
        self._home = threading.get_ident()

    def take(self):
        spans, self._spans = self._spans, []
        return spans

    def _parent(self):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            return stack, stack[-1]
        home = self._stacks.get(self._home)
        return stack, (home[-1] if home else None)

    def wrap(self, name, fn):
        info_of = RESULT_INFO.get(name)
        cpu = name in EXPERIMENT_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, parent = self._parent()
            span = Span(name, 0.0, 0.0, parent)
            stack.append(span)
            self._spans.append(span)
            cpu0 = time.process_time() if cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = {"raised": type(exc).__name__}
                raise
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu = time.process_time() - cpu0
                stack.pop()
            if info_of is not None:
                span.info = info_of(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace every public function of the layer modules, wherever
        a skewdisc module binds it, by a wrapper; restore on exit."""
        packages = [m for n, m in sorted(sys.modules.items())
                    if n == "skewdisc" or n.startswith("skewdisc.")]
        patches = []
        try:
            for layer in LAYER_MODULES:
                module = importlib.import_module(f"skewdisc.{layer}")
                for attr, fn in list(vars(module).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != module.__name__):
                        continue
                    wrapper = self.wrap(f"{layer}.{attr}", fn)
                    for pkg in packages:
                        for key, value in list(vars(pkg).items()):
                            if value is fn:
                                setattr(pkg, key, wrapper)
                                patches.append((pkg, key, fn))
            yield self
        finally:
            for pkg, key, fn in reversed(patches):
                setattr(pkg, key, fn)


def covered_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Self time of each span, in the order given: its duration minus
    the union of its children's intervals within it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return [(s.end - s.start) - covered_length(children[id(s)], s.start, s.end)
            for s in spans]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced pass whose wall time is wall."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] += 1
        self_s[span.name] += own
        incl[span.name] += span.end - span.start

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans
                   if s.name == name and s.info is not None)

    out = {}

    def timed(key, seconds):
        out[key] = seconds
        out[key.rsplit(".", 1)[0] + (".share" if key.endswith(".s") else ".self_share")] = \
            _ratio(seconds, wall)

    for name in NAMED:
        timed(f"{name}.s", self_s[name])
        out[f"{name}.calls"] = calls[name]
    out["cli.load_csv.rows_per_s"] = _ratio(info_sum("cli.load_csv", "rows"),
                                            self_s["cli.load_csv"])
    for layer in LAYER_MODULES:
        timed(f"{layer}.self_s", sum(v for k, v in self_s.items()
                                     if k.startswith(layer + ".") and k not in NAMED))
    for name, method in METHOD_SPANS.items():
        timed(f"estimators.{method}.s", incl[name])

    jade_iter = info_sum("estimators.jade3_unit", "iterations")
    out["estimators.jade3_unit.iterations"] = jade_iter
    out["estimators.jade3_unit.s_per_iter"] = _ratio(self_s["estimators.jade3_unit"], jade_iter)
    pp_iter = info_sum("estimators.est_pp", "iterations")
    out["estimators.pp.iterations"] = pp_iter
    out["estimators.pp.s_per_iter"] = _ratio(self_s["estimators.est_pp"], pp_iter)
    for method in ("jade3", "pp"):
        name = f"estimators.est_{method}"
        out[f"estimators.{method}.converged_share"] = _ratio(
            info_sum(name, "converged"), calls[name])

    raised = defaultdict(int)
    for s in spans:
        if s.name in METHOD_SPANS and s.info is not None and "raised" in s.info:
            kind = s.info["raised"]
            raised[kind if kind in RAISED_CLASSES else "other"] += 1
    out["estimators.raised"] = sum(raised.values())
    for kind in RAISED_CLASSES + ("other",):
        out[f"estimators.raised.{kind}"] = raised[kind]

    experiments = [s for s in spans if s.name in EXPERIMENT_SPANS]
    out["montecarlo.cpu_per_wall"] = _ratio(sum(s.cpu for s in experiments),
                                            sum(s.end - s.start for s in experiments))
    out["trace.spans"] = len(spans)
    return out
