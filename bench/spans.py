"""Span tracer that wraps heatgen's public functions from outside.

install() replaces each traced function, in every heatgen module that
holds a reference to it, with a wrapper that records a span: name, start,
end, parent span and request id.  Spans stay in memory; write() saves
them as JSON lines.  A span's self time is its duration minus the time
of its direct children, where a child's time includes the tracer's own
bookkeeping around it, so the tracer's cost is charged to no layer.

Count metrics are computed from arguments and results at the boundary
(words enumerated, polynomial terms, moments looked up, numeric
evaluations), so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict


def _log_words(args, kwargs, result):
    hol = args[0]
    order = args[1] if len(args) > 1 else kwargs["order"]
    return {"words": sum(hol.p ** (2 * m) for m in range(1, order + 1))}


def _exp_terms(args, kwargs, result):
    return {"terms_out": len(result.terms)}


def _moments(args, kwargs, result):
    poly = args[0]
    return {
        "moments": sum(
            1 for _, exps in poly.terms if sum(exps) and not sum(exps) % 2
        )
    }


def _numeric(args, kwargs, result):
    return {
        "evaluations": result.evaluations,
        "singularity_hits": result.singularity_hits,
    }


# (module, function, span name, count hook)
TRACED = (
    ("cli", "main", "cli.main", None),
    ("catalog", "builtin", "catalog.builtin", None),
    ("catalog", "load", "catalog.load", None),
    ("curvature", "derive_holonomy", "curvature.derive_holonomy", None),
    ("curvature", "validate_symmetric_space", "curvature.validate", None),
    ("curvature", "curvature_scalars", "curvature.curvature_scalars", None),
    ("rational", "exact_einsum", "rational.exact_einsum", None),
    ("series", "integrand_log_expansion", "series.log", _log_words),
    ("series", "exponentiate_with_prefactor", "series.exp", _exp_terms),
    ("averaging", "average", "averaging.average", _moments),
    ("averaging", "numeric_average", "averaging.numeric_average", _numeric),
    ("invariants", "heat_coefficients", "invariants.heat_coefficients", None),
    ("invariants", "compare", "invariants.compare", None),
)

# CPU time, as the worker times requests.
_clock = time.process_time


class Tracer:
    """In-memory span recorder.  Each span is a list
    [name, start, end, parent, request, overhead, counts, error], times
    in seconds of process CPU time; parent is the index of the enclosing
    span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            enter = _clock()
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.request, 0.0, None, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[7] = True
                raise
            finally:
                end = _clock()
                tracer._stack.pop()
                span[1], span[2], span[5] = start, end, start - enter
            if hook is not None:
                span[6] = hook(args, kwargs, result)
            span[5] += _clock() - end
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever heatgen refers to it."""
        for module, func, name, hook in TRACED:
            original = getattr(importlib.import_module(f"heatgen.{module}"), func)
            wrapper = self.wrap(name, original, hook)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name == "heatgen" or loaded_name.startswith("heatgen."):
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, self_ms and summed counts."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, overhead, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += (end - start) + overhead
        out: dict = {}
        for index, (name, start, end, _, _, _, counts, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child_time[index]) * 1000.0
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request", "overhead",
                "counts", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
