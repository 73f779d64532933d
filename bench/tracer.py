"""Outside-in tracing of isofilt's layers for the benchmark's traced run.

``Tracer.install`` wraps the public functions and methods listed in
``TRACED``.  It rebinds every alias of each one across the loaded
``isofilt.*`` modules -- module globals and class attributes -- so a name
imported with ``from .admissible import is_admissible`` in the driver or the
CLI is traced as well.  ``Tracer.uninstall`` restores every binding it
changed.

Spans nest inside the benchmark operation that caused them.  A call's self
time is its duration minus the durations of the traced calls it made.  The
cost of the wrapper itself is measured on an empty function before
installing and subtracted from both inclusive and self times.  Aggregates for
every traced function stay in memory; individual span records are kept for
the coarse layers only, because the linalg, scalar and ring layers run
hundreds of thousands of times per operation.  Nothing is written until the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import Counter

# (layer, metric name, module, attribute path inside the module)
TRACED = (
    ("formats", "load_json", "isofilt.formats", "load_json"),
    ("formats", "module_from_json", "isofilt.formats", "module_from_json"),
    ("formats", "group_from_json", "isofilt.formats", "group_from_json"),
    ("formats", "extension_from_json", "isofilt.formats", "extension_from_json"),
    ("formats", "setup_from_json", "isofilt.formats", "setup_from_json"),
    ("formats", "matrix_from_json", "isofilt.formats", "matrix_from_json"),
    ("formats", "build_certificate", "isofilt.formats", "build_certificate"),
    ("formats", "certificate_digest", "isofilt.formats", "certificate_digest"),
    ("driver", "find_admissible_stable_filtration",
     "isofilt.filtration.driver", "find_admissible_stable_filtration"),
    ("driver", "two_slope_filtration",
     "isofilt.filtration.driver", "two_slope_filtration"),
    ("driver", "supersingular_filtration",
     "isofilt.filtration.driver", "supersingular_filtration"),
    ("admissible", "is_admissible",
     "isofilt.filtration.admissible", "is_admissible"),
    ("galois", "lift_matrix", "isofilt.filtration.galois", "lift_matrix"),
    ("galois", "is_diagonally_stable",
     "isofilt.filtration.galois", "is_diagonally_stable"),
    ("galois", "galois_descend", "isofilt.filtration.galois", "galois_descend"),
    ("groups", "validate", "isofilt.groups.core", "GroupRepresentation.validate"),
    ("groups", "isotypic_decomposition",
     "isofilt.groups.isotypic", "isotypic_decomposition"),
    ("groups", "find_perturbateur", "isofilt.groups.isotypic", "find_perturbateur"),
    ("symplectic", "random_rational_lagrangian",
     "isofilt.symplectic.lagrangian", "random_rational_lagrangian"),
    ("symplectic", "lagrangian_h_small_intersection",
     "isofilt.symplectic.lagrangian", "lagrangian_h_small_intersection"),
    ("symplectic", "LagrangianSubspace",
     "isofilt.symplectic.space", "LagrangianSubspace.__init__"),
    ("submodules", "exact_submodules",
     "isofilt.isocrystal.submodules", "exact_submodules"),
    ("submodules", "sampled_submodules",
     "isofilt.isocrystal.submodules", "sampled_submodules"),
    ("slopes", "newton_slopes", "isofilt.isocrystal.slopes", "newton_slopes"),
    ("slopes", "slope_factors", "isofilt.isocrystal.slopes", "slope_factors"),
    ("slopes", "isoclinic_decompose",
     "isofilt.isocrystal.slopes", "isoclinic_decompose"),
    ("linalg", "certified_row_reduce",
     "isofilt.padic.linalg", "certified_row_reduce"),
    ("linalg", "charpoly", "isofilt.padic.linalg", "charpoly"),
    ("linalg", "mat_mul", "isofilt.padic.linalg", "mat_mul"),
    ("scalar", "sc_add", "isofilt.padic.scalar", "sc_add"),
    ("scalar", "sc_mul", "isofilt.padic.scalar", "sc_mul"),
    ("scalar", "sc_inv", "isofilt.padic.scalar", "sc_inv"),
    ("scalar", "sc_from_fraction", "isofilt.padic.scalar", "sc_from_fraction"),
    ("ring", "mul", "isofilt.padic.ring", "TowerRing.mul"),
    ("ring", "inv_unit", "isofilt.padic.ring", "TowerRing.inv_unit"),
)

# layers that report per-call microseconds and keep no span records
LEAF_LAYERS = ("linalg", "scalar", "ring")

_MARK = "__bench_traced__"


def _isofilt_namespaces():
    """Every loaded isofilt module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "isofilt" or name.startswith("isofilt.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def find_wrapped():
    """(namespace, attribute) of every traced wrapper still bound in isofilt."""
    found = []
    for ns in _isofilt_namespaces():
        for attr, value in list(vars(ns).items()):
            if getattr(value, _MARK, False):
                found.append((getattr(ns, "__name__", repr(ns)), attr))
    return found


class Tracer:
    """Timing wrappers around isofilt's layers, with per-op span nesting."""

    def __init__(self, observers=None):
        self.observers = dict(observers or {})   # key -> fn(args, kwargs, result)
        self.stats = {}       # key -> [calls, inclusive s, self s]
        self.raised = {}      # key -> Counter of exception class names
        self.spans = []       # [op, name, parent span index, start, end]
        self.wrapper_s = 0.0  # caller-visible cost of one wrapped call
        self.inner_s = 0.0    # part of that cost inside the wrapped span
        self._stack = []
        self._op = None
        self._rebound = []    # (namespace, attribute, original)

    # -- wrapper -----------------------------------------------------------

    def _wrap(self, key, fn, record, a, b):
        stack = self._stack
        spans = self.spans
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        observe = self.observers.get(key)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if record:
                span = len(spans)
                spans.append([tracer._op, key, parent[3] if parent else None,
                              0.0, 0.0])
            else:
                span = parent[3] if parent else None
            # child time, direct traced children, traced descendants, span
            frame = [0.0, 0, 0, span]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                tracer.raised.setdefault(key, Counter())[type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - b - frame[2] * a
                stat[2] += dt - frame[0] - b - frame[1] * (a - b)
                if record:
                    spans[span][3] = t0
                    spans[span][4] = t1
                if parent is not None:
                    parent[0] += dt
                    parent[1] += 1
                    parent[2] += 1 + frame[2]
                if observe is not None:
                    observe(args, kwargs, result)

        setattr(traced, _MARK, True)
        return traced

    def calibrate(self, calls=100_000, rounds=5):
        """Measure the wrapper's cost on an empty function."""
        def empty():
            return None

        clock = time.perf_counter
        key = ("trace", "calibrate")
        outer, inner = [], []
        for _ in range(rounds):
            self.stats[key] = stat = [0, 0.0, 0.0]
            wrapped = self._wrap(key, empty, False, 0.0, 0.0)
            self._stack.append([0.0, 0, 0, None])
            t0 = clock()
            for _ in range(calls):
                empty()
            plain = clock() - t0
            t0 = clock()
            for _ in range(calls):
                wrapped()
            traced = clock() - t0
            self._stack.pop()
            outer.append((traced - plain) / calls)
            inner.append(stat[1] / calls)
        del self.stats[key]
        self.wrapper_s = statistics.median(outer)
        self.inner_s = min(statistics.median(inner), self.wrapper_s)

    # -- install / uninstall ------------------------------------------------

    def install(self):
        originals = {}
        for layer, name, module, path in TRACED:
            key = (layer, name)
            fn = _resolve(module, path)
            originals[id(fn)] = (fn, self._wrap(key, fn, layer not in LEAF_LAYERS,
                                                self.wrapper_s, self.inner_s))
        try:
            for ns in _isofilt_namespaces():
                for attr, value in list(vars(ns).items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(ns, attr, hit[1])
                        self._rebound.append((ns, attr, value))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._rebound:
            ns, attr, original = self._rebound.pop()
            setattr(ns, attr, original)

    # -- spans opened by the benchmark --------------------------------------

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one benchmark operation."""
        self._op = op_id
        with self.span("op"):
            yield

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([self._op, ("bench", name),
                           parent[3] if parent else None, 0.0, 0.0])
        frame = [0.0, 0, 0, idx]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx][3] = t0
            self.spans[idx][4] = t1
            if parent is not None:
                parent[0] += t1 - t0
                parent[1] += 1
                parent[2] += 1 + frame[2]

    # -- results -------------------------------------------------------------

    def layer_metrics(self, ops):
        """Per-op calls and self seconds for every traced function, and
        per-call microseconds for the leaf layers."""
        out = {}
        for layer, name, _, _ in TRACED:
            calls, incl, self_s = self.stats.get((layer, name), (0, 0.0, 0.0))
            base = f"{layer}.{name}"
            out[f"{base}.calls"] = (calls / ops, "calls/op")
            out[f"{base}.self_s"] = (max(self_s, 0.0) / ops, "s/op")
            if layer in LEAF_LAYERS:
                out[f"{base}.us"] = (max(incl, 0.0) / calls * 1e6 if calls else 0.0,
                                     "us")
        return out

    def dump(self):
        """JSON-ready aggregates and span records."""
        return {
            "wrapper_us": self.wrapper_s * 1e6,
            "wrapper_inner_us": self.inner_s * 1e6,
            "functions": {f"{layer}.{name}": {
                "calls": calls, "inclusive_s": incl, "self_s": self_s,
                "raised": dict(self.raised.get((layer, name), {}))}
                for (layer, name), (calls, incl, self_s) in self.stats.items()},
            "span_fields": ["op", "name", "parent", "start", "end"],
            "spans": [[op, ".".join(key), parent, t0, t1]
                      for op, key, parent, t0, t1 in self.spans],
        }
