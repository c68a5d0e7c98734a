"""Spans around qplab's public functions, recorded from outside the package.

The tracer replaces each listed function by a wrapper wherever a loaded
``qplab`` module binds it (module globals, ``from`` imports, the package
namespace, and methods on ``Series``), so calls that go through a module
global, such as the recursion in ``recipes.evaluate``, are seen too.
``restore`` puts every original back.

Spans stay in memory as parallel arrays (metric, parent span, start, end)
and are written out once, after the pass, by ``write_spans``.
"""

from __future__ import annotations

import array
import json
import sys
from time import perf_counter

#: (module, attribute, metric).  A dotted attribute names a method.
TARGETS = (
    ("series", "Series.__mul__", "series.mul"),
    ("series", "Series.invert", "series.invert"),
    ("series", "mul_one_minus", "series.binomial"),
    ("series", "div_one_minus", "series.binomial"),
    ("series", "Series.__init__", "series.construct"),
    ("series", "equal_up_to", "series.compare"),
    ("qengine", "phi21", "qengine.phi21"),
    ("qengine", "sum_over_smallest", "qengine.sum_over_smallest"),
    ("qengine", "poch_finite", "qengine.poch"),
    ("qengine", "poch_infinite", "qengine.poch"),
    ("qengine", "rational_series", "qengine.rational_series"),
    # the CLI calls omega, psi, nu and theta_squares directly; the catalog
    # goes through mock_theta, which may dispatch to nu
    ("mocktheta", "mock_theta", "mocktheta.mock_theta"),
    ("mocktheta", "omega", "mocktheta.mock_theta"),
    ("mocktheta", "psi", "mocktheta.mock_theta"),
    ("mocktheta", "nu", "mocktheta.mock_theta"),
    ("mocktheta", "theta_squares", "mocktheta.mock_theta"),
    ("family_gf", "family_gf_series", "family_gf.family_gf_series"),
    ("partitions", "family_series", "partitions.family_series"),
    ("partitions", "count_overpartitions", "partitions.count_overpartitions"),
    ("partitions", "count_ady", "partitions.count_ady"),
    ("partitions", "enumerate_family", "partitions.enumerate_family"),
    ("recipes", "evaluate", "recipes.evaluate"),
    ("registry", "verify", "registry.verify"),
    ("registry", "verify_all", "registry.verify"),
    ("cli", "main", "cli.main"),
)

METRICS = tuple(dict.fromkeys(metric for _, _, metric in TARGETS))

#: metrics whose results are series; their largest coefficient is measured
_SERIES_RESULTS = {
    "series.mul",
    "series.invert",
    "recipes.evaluate",
    "partitions.family_series",
    "mocktheta.mock_theta",
    "family_gf.family_gf_series",
    "qengine.phi21",
    "qengine.sum_over_smallest",
}


def _coeff_bits(series) -> int:
    coeffs = series.coeffs
    return max(max(coeffs), -min(coeffs)).bit_length()


def _coeff_mults(a, b) -> int:
    """Nonzero coefficient products of a schoolbook a*b truncated to min order."""
    n = min(len(a.coeffs), len(b.coeffs)) - 1
    below = []  # below[k] = nonzero coefficients of b at q^0..q^k
    count = 0
    for c in b.coeffs[: n + 1]:
        count += c != 0
        below.append(count)
    return sum(below[n - i] for i, c in enumerate(a.coeffs[: n + 1]) if c)


class Tracer:
    """Records one span per wrapped call, plus the counters the spans carry."""

    def __init__(self):
        self.names: list[str] = []  # function label per function id
        self.metric_of: list[str] = []  # metric per function id
        self.fn = array.array("H")
        self.parent = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.errors: dict[str, int] = {}
        self.counters = {"series.mul.coeff_mults": 0, "partitions.enumerate_family.listed": 0}
        self.coeff_bits_max = 0
        self.repeats: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def install(self) -> None:
        import qplab

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qplab" or name.startswith("qplab."))]
        for module_name, attr, metric in TARGETS:
            owner = getattr(qplab, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, f"{module_name}.{attr}", metric))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, f"{module_name}.{attr}", metric)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, replacement) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, replacement)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # the wrapper

    def _wrap(self, original, label: str, metric: str):
        fid = len(self.names)
        self.names.append(label)
        self.metric_of.append(metric)
        fn, parent, start, end, stack = self.fn, self.parent, self.start, self.end, self._stack
        after = self._after_hooks(metric)

        def wrapper(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                self.errors[metric] = self.errors.get(metric, 0) + 1
                raise
            else:
                t1 = perf_counter()
            finally:
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            for hook in after:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", label)
        return wrapper

    def _after_hooks(self, metric: str) -> list:
        """Counters a metric carries, computed outside the span's own timing."""
        hooks = []
        if metric == "series.mul":
            def mults(args, kwargs, result):
                a, b = args
                if hasattr(b, "coeffs"):
                    self.counters["series.mul.coeff_mults"] += _coeff_mults(a, b)
            hooks.append(mults)
        if metric in _SERIES_RESULTS:
            def bits(args, kwargs, result):
                if hasattr(result, "coeffs"):
                    self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(result))
            hooks.append(bits)
        if metric == "recipes.evaluate":
            hooks.append(self._repeat_hook(metric, lambda a, k: (a[0], a[1])))
        if metric == "partitions.family_series":
            def key(a, k):
                mode = a[2] if len(a) > 2 else k.get("mode", "none")
                return (a[0], a[1], mode)
            hooks.append(self._repeat_hook(metric, key))
        if metric == "partitions.enumerate_family":
            def listed(args, kwargs, result):
                self.counters["partitions.enumerate_family.listed"] += len(result)
            hooks.append(listed)
        return hooks

    def _repeat_hook(self, metric: str, key_of):
        """Count calls whose key an earlier call of the pass already had."""
        seen = set()
        self.repeats[metric] = 0

        def hook(args, kwargs, result):
            key = key_of(args, kwargs)
            if key in seen:
                self.repeats[metric] += 1
            else:
                seen.add(key)
        return hook

    # ------------------------------------------------------------------
    # aggregation and output

    def summary(self) -> dict:
        """Per-metric calls, self and inclusive time, and the counters.

        Self time is a span's duration minus the durations of its direct
        children; inclusive time sums the spans not nested in a span of the
        same metric.  A call that one function of a metric makes to another
        function of the same metric (mock_theta dispatching to nu) is the
        same call and is not counted twice; recursion of one function is.
        """
        n = len(self.fn)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        fn, parent, metric_of = self.fn, self.parent, self.metric_of
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = dict.fromkeys(METRICS, 0)
        self_s = dict.fromkeys(METRICS, 0.0)
        inclusive = dict.fromkeys(METRICS, 0.0)
        for i in range(n):
            f = fn[i]
            m = metric_of[f]
            self_s[m] += dur[i] - child[i]
            p = parent[i]
            outer = p < 0 or metric_of[fn[p]] != m
            if outer:
                inclusive[m] += dur[i]
            if outer or fn[p] == f:
                calls[m] += 1
        metrics = {}
        for m in METRICS:
            metrics[f"{m}.calls"] = calls[m]
            metrics[f"{m}.self_s"] = self_s[m]
        for m in self.repeats:
            metrics[f"{m}.repeat_ratio"] = self.repeats[m] / calls[m] if calls[m] else 0.0
        for m in ("partitions.count_overpartitions", "partitions.count_ady"):
            metrics[f"{m}.errors"] = self.errors.get(m, 0)
        metrics.update(self.counters)
        metrics["series.coeff_bits_max"] = self.coeff_bits_max
        return {
            "metrics": metrics,
            "inclusive_s": inclusive,
            "self_total_s": sum(self_s.values()),
            "spans": n,
        }

    def write_spans(self, path: str) -> None:
        """Write the spans: a JSON header line, then the four arrays in order."""
        header = {
            "functions": self.names,
            "metrics": self.metric_of,
            "spans": len(self.fn),
            "arrays": [["fn", self.fn.typecode], ["parent", self.parent.typecode],
                       ["start", self.start.typecode], ["end", self.end.typecode]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fn, self.parent, self.start, self.end):
                arr.tofile(fh)
