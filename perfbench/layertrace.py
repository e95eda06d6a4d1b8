"""Outside-in layer tracing of ltvcontrol: spans recorded around its public functions.

Nothing under ``src/`` is instrumented. While a ``LayerTracer`` is installed,
each traced function is replaced by a timing wrapper in every ``ltvcontrol``
module namespace that binds it (and methods on their class), so nested calls
such as ``hautus.hautus_sweep -> duality.admissibility_constant`` record real
parent/child spans. A layer's self time is its span's duration minus the
durations of its child spans. ``eval_coeff`` runs about 10^5 times per spec,
so it is counted, not timed.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, layer). "Class.method" attributes are patched on the class.
TRACED = (
    ("cli", "main", "cli"),
    ("sysmodel", "parse_system", "sysmodel.parse_system"),
    ("propagate", "Propagator.__init__", "propagate.step_build"),
    ("propagate", "Propagator.transitions_to_end", "propagate.prefix_products"),
    ("propagate", "Propagator.transitions_from_start", "propagate.prefix_products"),
    ("propagate", "Propagator.propagate_state", "propagate.propagate_state"),
    ("gramian", "ctrl_gramian_quadrature", "gramian.ctrl_quadrature"),
    ("gramian", "ctrl_gramian_lyapunov", "gramian.ctrl_lyapunov"),
    ("gramian", "obs_gramian", "gramian.obs"),
    ("duality", "admissibility_constant", "duality.admissibility"),
    ("duality", "input_map_adjoint", "duality.input_map_adjoint"),
    ("duality", "null_controllability_test", "duality.null_test"),
    ("synth", "min_norm_control", "synth"),
    ("hautus", "hautus_sweep", "hautus.sweep"),
    ("hautus", "frozen_observability_constant", "hautus.frozen"),
)
COUNTED = (("sysmodel", "eval_coeff", "sysmodel.eval_coeff"),)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TRACED))


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    layer: str
    start: float
    end: float


class LayerTracer:
    """Collects spans and call counts while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _timed(self, layer, fn):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(span_id, parent, layer, start, end))

        return wrapper

    def _counted(self, layer, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "LayerTracer":
        package = sys.modules["ltvcontrol"]
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ltvcontrol" or name.startswith("ltvcontrol."))]
        for entries, make in ((TRACED, self._timed), (COUNTED, self._counted)):
            for module_name, attr, layer in entries:
                home = getattr(package, module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, method, make(layer, cls.__dict__[method]))
                    continue
                original = getattr(home, attr)
                wrapped = make(layer, original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        self._patch(module, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: summed self time, summed span time and call count.

        Call counts include the counted-only layers (``eval_coeff``)."""
        child_time: Counter[int] = Counter()
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = {layer: {"self_s": 0.0, "total_s": 0.0, "calls": 0} for layer in LAYERS}
        for span in self.spans:
            row = totals[span.layer]
            duration = span.end - span.start
            row["self_s"] += duration - child_time[span.id]
            row["total_s"] += duration
            row["calls"] += 1
        for _, _, layer in COUNTED:
            totals[layer] = {"calls": self.counts[layer]}
        return totals

    def dump(self) -> dict:
        """Spans (times relative to the first span) and counts, as JSON-ready data."""
        t0 = min((s.start for s in self.spans), default=0.0)
        return {
            "spans": [[s.id, s.parent, s.layer, s.start - t0, s.end - t0] for s in self.spans],
            "counts": dict(self.counts),
        }
