"""In-memory span tracing around slcurv's public functions.

The tracer replaces a function at the name its caller looks it up under
(for example `slcurv.surfaces.hessian`, which `weingarten_matrix` calls)
with a wrapper that records one span per call: name, start, end, the
enclosing span and the operation it belongs to. Nothing inside the
package is edited; `uninstall` puts every original back. A target that a
later refactor removed or renamed is recorded as absent, never an error.

Spans stay in memory until the run ends. `LayerStats` turns span lists
(one per process) into per-layer totals, self times and counts.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np


def _point_key(args, kwargs):
    # the evaluation point of hessian(field, p), used to count distinct points
    p = args[1] if len(args) > 1 else kwargs.get("p")
    return hash(np.asarray(p, dtype=float).tobytes())


def _n_label(args, kwargs):
    # run_verify_sl(n, tolerance, seed): one span name per n
    n = args[0] if args else kwargs.get("n")
    return f".n{int(n)}"


# (module, attribute path, span name, label, key). The part of a span name
# before the first dot is its layer. Each target is the name a caller in
# the pipeline or the CLI looks up, so the span sits at that call.
TARGETS = (
    ("slcurv", "curvature_report", "surfaces.curvature_report", None, None),
    ("slcurv.cli", "curvature_report", "surfaces.curvature_report", None, None),
    ("slcurv.cli", "weingarten_apply", "surfaces.weingarten_apply", None, None),
    ("slcurv.surfaces", "weingarten_matrix", "surfaces.weingarten_matrix", None, None),
    ("slcurv.surfaces", "gradient", "autodiff.gradient", None, None),
    ("slcurv.surfaces", "hessian", "autodiff.hessian", None, _point_key),
    ("slcurv.surfaces", "complement_basis", "linalg.complement_basis", None, None),
    ("slcurv.surfaces", "jacobi_eigh", "linalg.jacobi_eigh", None, None),
    ("slcurv.surfaces", "cluster_multiplicities", "linalg.cluster_multiplicities", None, None),
    ("slcurv.slgroup", "det_inverse", "linalg.det_inverse", None, None),
    ("slcurv.slgroup", "determinant", "linalg.determinant", None, None),
    ("slcurv.cli", "determinant", "linalg.determinant", None, None),
    ("slcurv.fields", "ScalarField.__call__", "fields.eval", None, None),
    ("slcurv.fields", "parse_expression", "fields.parse", None, None),
    ("slcurv.cli", "gauss_map", "slgroup.gauss_map", None, None),
    ("slcurv.cli", "gauss_map_preimage", "slgroup.gauss_map_preimage", None, None),
    ("slcurv.cli", "random_sl", "slgroup.random_sl", None, None),
    ("slcurv.cli", "run_verify_sl", "cli.run_verify_sl", _n_label, None),
)


class Tracer:
    """Records spans [name, start, end, parent, op, key] while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, label, key):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            full = name
            point = None
            try:
                if label is not None:
                    full = name + label(args, kwargs)
                if key is not None:
                    point = key(args, kwargs)
            except (TypeError, ValueError, IndexError, KeyError):
                pass  # a changed signature loses the label, never the call
            span = [full, clock(), 0.0, stack[-1] if stack else -1, self.op, point]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        for module_name, path, name, label, key in targets:
            where = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(where)
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            # on a class, only an attribute it defines itself counts
            present = owner is not None and (
                attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
            )
            if not present:
                self.absent.append(where)
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, label, key))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class LayerStats:
    """Totals over span lists, one list per traced process.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process never overlap except by nesting.
    """

    def __init__(self, span_lists):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.per_call_s = defaultdict(list)
        points = set()
        for source, spans in enumerate(span_lists):
            child_s = [0.0] * len(spans)
            for name, start, end, parent, _op, _key in spans:
                if parent >= 0:
                    child_s[parent] += end - start
            for (name, start, end, _parent, op, key), inner in zip(spans, child_s):
                own = end - start - inner
                self.calls[name] += 1
                self.total_s[name] += end - start
                self.per_call_s[name].append(end - start)
                self.self_s[name] += own
                self.layer_self_s[name.split(".", 1)[0]] += own
                if key is not None:
                    points.add((source, op, key))
        self.distinct_points = len(points)
