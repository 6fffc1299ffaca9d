"""Outside-in layer trace: wrap the names each consumer module imported.

The program is not changed. ``Tracer.install`` replaces public functions in
the namespaces of the consumer modules (``radreg.linear``, ``radreg.relu``,
``radreg.bench``) plus ``radreg.isotropy.{matrix_rank,span_basis}`` and
``radreg.l1.linprog`` with wrappers that record one span per call: name,
start, end, parent span and fit id. Calls that resolve those names through
module globals, recursion included, go through the wrappers. Spans stay in
memory until the run ends.

A span's self time is its duration minus the time its child spans cover.
The traced code is single threaded, so children never overlap and the self
times of all spans add up to the duration of the top-level spans.
"""

import inspect
import json
import time
from collections import defaultdict

from radreg import bench, isotropy, l1, linear, relu

CONSUMERS = (linear, relu, bench)
EXTRA = (
    (isotropy, "matrix_rank", "linalg.matrix_rank"),
    (isotropy, "span_basis", "linalg.span_basis"),
    (l1, "linprog", "l1.linprog"),
)

NAME, START, END, PARENT, FIT, INFO = range(6)


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _result_info(name, result):
    """Per-call counts read off a layer's return value."""
    if name == "isotropy.radial_isotropize":
        return {"iterations": getattr(result, "iterations_used", 0),
                "heavy": isinstance(result, isotropy.HeavySubspace)}
    if name == "l1.linprog":
        return {"iterations": int(result.nit)}
    if name == "linear.recover_linear":
        return {"levels": len(result.recursion_trace),
                "heavy_levels": sum(e["outcome"] == "heavy-subspace"
                                    for e in result.recursion_trace)}
    if name == "relu.ellipsoid_recover_relu":
        return {"steps": result.diagnostics["steps"],
                "certified": result.majority_certified}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.fit = -1
        self._stack = []
        self._undo = []

    def _wrap(self, module, attr, name):
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.fit, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[INFO] = {"error": type(exc).__name__}
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            span[INFO] = _result_info(name, result)
            return result

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def install(self):
        for module in CONSUMERS:
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("radreg.")):
                    self._wrap(module, attr, _span_name(obj))
        for module, attr, name in EXTRA:
            self._wrap(module, attr, name)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def write(self, path):
        keys = ("name", "start", "end", "parent", "fit", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time covered by child spans."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def _depth_within(spans, index, name):
    depth, parent = 0, spans[index][PARENT]
    while parent >= 0:
        depth += spans[parent][NAME] == name
        parent = spans[parent][PARENT]
    return depth


def layer_metrics(spans):
    """Aggregate spans into the per-layer metrics named in BENCHMARK.json."""
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    info = defaultdict(lambda: defaultdict(int))
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] += 1
        total[name] += span[END] - span[START]
        self_s[name] += own[i]
        for key, value in (span[INFO] or {}).items():
            if key != "error":
                info[name][key] += int(value)

    iso = "isotropy.radial_isotropize"
    ell = "relu.ellipsoid_recover_relu"
    ladder_snaps = sum(1 for s in spans if s[NAME] == "l1.snap_to_rational"
                       and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == ell)
    oracle_depths = [_depth_within(spans, i, "relu.sep_oracle")
                     for i, s in enumerate(spans) if s[NAME] == "relu.sep_oracle"]
    metrics = {
        f"{iso}.calls": calls[iso],
        f"{iso}.self_s": self_s[iso],
        f"{iso}.iterations": info[iso]["iterations"],
        f"{iso}.heavy_share": info[iso]["heavy"] / calls[iso] if calls[iso] else 0.0,
    }
    for name in ("linalg.matrix_rank", "linalg.span_basis", "linalg.orthonormal_complement",
                 "l1.snap_to_rational", "l1.exact_fit_mask", "relu.ellipsoid_cut"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.time_s"] = total[name]
    metrics.update({
        "l1.l1_fit_linear.calls": calls["l1.l1_fit_linear"],
        "l1.l1_fit_linear.self_s": self_s["l1.l1_fit_linear"],
        "l1.linprog.calls": calls["l1.linprog"],
        "l1.linprog.time_s": total["l1.linprog"],
        "l1.linprog.iterations": info["l1.linprog"]["iterations"],
        "linear.recover_linear.calls": calls["linear.recover_linear"],
        "linear.recover_linear.self_s": self_s["linear.recover_linear"],
        "linear.levels": info["linear.recover_linear"]["levels"],
        "linear.heavy_levels": info["linear.recover_linear"]["heavy_levels"],
        f"{ell}.calls": calls[ell],
        f"{ell}.self_s": self_s[ell],
        f"{ell}.steps": info[ell]["steps"],
        "relu.sep_oracle.calls": calls["relu.sep_oracle"],
        "relu.sep_oracle.self_s": self_s["relu.sep_oracle"],
        "relu.sep_oracle.max_depth": max(oracle_depths, default=0),
        "relu.certify_share": info[ell]["certified"] / ladder_snaps if ladder_snaps else 0.0,
        "noise.corrupt_massart.time_s": total["noise.corrupt_massart"],
        "bench.make_synthetic_dataset.time_s": total["bench.make_synthetic_dataset"],
        "trace.self_s": sum(own),
    })
    return metrics
