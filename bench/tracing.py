"""Outside-in span tracing of the clifflag layers.

The package is not changed. `Instrumentation.install()` replaces each
layer's public functions and methods with wrappers that record a span
(name, start, end, parent span, op id) per call, and `remove()` puts the
originals back. `from .x import y` binds y in every importing module, so a
function is rebound under every name in every clifflag module that holds
it (for example `solve_exact` in clifflag.linsolve, clifflag.multivector
and clifflag.interpolate). The package attribute `clifflag.interpolate` is
the function, not the submodule, so modules are looked up in sys.modules.
Methods are replaced on the class; `Multivector.__mul__` records a
product or a scale span by the type of its operand.

Spans stay in memory until the pass ends; `layer_metrics` turns them into
per-layer counts and self times. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import gzip
import sys
from fractions import Fraction
from time import perf_counter

FUNCTIONS = {
    "clifflag.poly": {
        "append_root": "poly.append_root",
        "roots_in_class": "poly.roots",
        "affine_restriction": "poly.roots",
        "divide_by_real": "poly.divide",
        "factor_out_characteristic": "poly.divide",
        "real_root_multiplicity": "poly.divide",
    },
    "clifflag.multivector": {
        "to_quaternion_pair": "multivector.split",
        "from_quaternion_pair": "multivector.split",
    },
    "clifflag.interpolate": {
        "interpolate": "interpolate.construct",
        "group_by_class": "interpolate.group",
        "brute_force_interpolate": "interpolate.oracle",
    },
    "clifflag.linsolve": {"solve_exact": "linsolve.solve"},
    "clifflag.classpoints": {
        "quaternion_class_points": "classpoints.sample",
        "reflect_through": "classpoints.sample",
        "rational_unit_vectors": "classpoints.sample",
        "square_roots_of_minus_one": "classpoints.sample",
        "r03_square_roots_of_minus_one": "classpoints.sample",
        "r03_cone_point": "classpoints.sample",
    },
}

METHODS = {
    ("clifflag.multivector", "Multivector"): {
        "__add__": "multivector.add",
        "__radd__": "multivector.add",
        "inverse": "multivector.inverse",
        "in_quadratic_cone": "multivector.cone",
        "conjugacy_class": "multivector.cone",
    },
    ("clifflag.poly", "Polynomial"): {
        "__mul__": "poly.mul",
        "__call__": "poly.eval",
    },
}

# Spans whose arguments and results the metrics need; kept by reference
# and examined after the pass, outside every timed span.
OBSERVED = {"interpolate.construct", "poly.roots", "linsolve.solve"}

TIMED_LAYERS = (
    "multivector.product", "multivector.scale", "multivector.add", "multivector.split",
    "multivector.cone", "multivector.inverse",
    "poly.mul", "poly.eval", "poly.append_root", "poly.roots", "poly.divide",
    "linsolve.solve", "classpoints.sample",
)


class Tracer:
    """In-memory span store; one per traced pass."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.stack: list[int] = []
        self.observed: list = []  # (name, args, result)
        self.op = -1

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def wrap_mul(self, fn, mv_type):
        def traced(a, b):
            name = "multivector.product" if isinstance(b, mv_type) else "multivector.scale"
            return self.call(name, fn, (a, b), {})

        return traced

    def call(self, name, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.op)
        if name in OBSERVED:
            self.observed.append((name, args, result))
        return result

    def write(self, path: str):
        """Spans as gzipped tab-separated lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\t{op}\n")


class Instrumentation:
    """Installs a tracer's wrappers into the clifflag modules and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list = []  # (owner, attribute, original)

    def install(self):
        import clifflag  # noqa: F401  (loads every submodule named below)

        modules = [m for n, m in sys.modules.items() if n == "clifflag" or n.startswith("clifflag.")]
        for module_name, table in FUNCTIONS.items():
            module = sys.modules[module_name]
            for attr, name in table.items():
                original = getattr(module, attr)
                wrapper = self.tracer.wrap(original, name)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is original:
                            self._set(owner, key, wrapper)
        for (module_name, cls_name), table in METHODS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            wrappers = {}  # aliases such as __radd__ = __add__ share one wrapper
            for attr, name in table.items():
                original = vars(cls)[attr]
                if original not in wrappers:
                    wrappers[original] = self.tracer.wrap(original, name)
                self._set(cls, attr, wrappers[original])
        mv = sys.modules["clifflag.multivector"].Multivector
        self._set(mv, "__mul__", self.tracer.wrap_mul(vars(mv)["__mul__"], mv))

    def _set(self, owner, attr, value):
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def fraction_bits(value) -> int:
    value = Fraction(value)
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer counts, self times and ratios of one traced pass of `ops` operations."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)

    out: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)

    nodes = sum(len(args[0].pairs) for name, args, _ in tracer.observed if name == "interpolate.construct")
    out["poly.append_root.per_node"] = calls.get("poly.append_root", 0) / nodes if nodes else 0.0
    root_sets = [r for name, _, r in tracer.observed if name == "poly.roots" and hasattr(r, "is_empty")]
    out["poly.roots.nonempty_ratio"] = (
        sum(1 for r in root_sets if not r.is_empty) / len(root_sets) if root_sets else 0.0
    )

    out["interpolate.construct.self_s"] = self_s.get("interpolate.construct", 0.0)
    out["interpolate.construct.total_s"] = total_s.get("interpolate.construct", 0.0)
    out["interpolate.group.calls"] = calls.get("interpolate.group", 0)
    out["interpolate.group.self_s"] = self_s.get("interpolate.group", 0.0)
    out["interpolate.group.per_op"] = calls.get("interpolate.group", 0) / ops
    out["interpolate.oracle_rows.self_s"] = self_s.get("interpolate.oracle", 0.0)
    out["interpolate.oracle.total_s"] = total_s.get("interpolate.oracle", 0.0)

    cells = 0
    entry_bits = 0
    for name, args, _ in tracer.observed:
        if name == "linsolve.solve":
            rows, rhs = args[0], args[1]
            cells += len(rows) * (len(rows[0]) + 1) if rows else 0
            for row in rows:
                for v in row:
                    entry_bits = max(entry_bits, fraction_bits(v))
            for v in rhs:
                entry_bits = max(entry_bits, fraction_bits(v))
    out["linsolve.cells"] = cells
    out["linsolve.entry_max_bits"] = entry_bits
    return out
