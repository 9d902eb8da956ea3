"""Layer tracing from outside the program.

``install`` replaces the public functions of each ``stmod`` layer with
wrappers, in every module namespace that bound the name (``resolve`` and
``stable`` import ``rref`` directly, for instance), and on the classes that
own the hot methods.  Three kinds of wrapper:

- span: records (id, parent span, name, start, end, leaf time) in memory;
- leaf: hot functions; only a call count and a total self time, no spans
  (``SubHopfAlgebra.mult`` runs millions of times for one A(2) chart);
- count: the hottest functions; a call count and nothing else, so their time
  stays in the caller's self time.

A span's self time is its duration minus the part of it covered by child
spans and by the leaf calls made directly under it.
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []     # [id, parent id or None, name, start, end, leaf_s]
        self.counts: dict[str, float] = defaultdict(float)
        self.leaf_self: dict[str, float] = defaultdict(float)
        self.leaf_self_solve: dict[str, float] = defaultdict(float)
        self.solve_start: float | None = None
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[list] = []    # [span id or None, start, covered, span_cover]
        self._ids = itertools.count()
        self._serial = itertools.count()

    def start_solve(self) -> None:
        """Mark the end of set-up: later time also counts as solve time."""
        self.solve_start = self.clock()

    # frame fields: span id (None for a leaf), start, time covered by leaf
    # calls (for a span) or by any nested call (for a leaf), and time of
    # spans nested under a leaf, which a leaf passes up to its span

    def _enter(self, sid):
        frame = [sid, self.clock(), 0.0, 0.0]
        self._stack.append(frame)
        return frame

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def span(self, name: str, fn, hook=None):
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self._parent_span()
            frame = self._enter(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append([sid, parent, name, frame[1], end, frame[2]])
                if self._stack and self._stack[-1][0] is None:
                    # nested in a leaf: the leaf's self time excludes us
                    self._stack[-1][2] += end - frame[1]
                    self._stack[-1][3] += end - frame[1]
            if hook:
                hook(self, args, result)
            return result
        return wrapper

    def leaf(self, name: str, fn, hook=None):
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            frame = self._enter(None)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.clock() - frame[1]
                self._stack.pop()
                self.counts[calls] += 1
                self.leaf_self[name] += dur - frame[2]
                if self.solve_start is not None:
                    self.leaf_self_solve[name] += dur - frame[2]
                if self._stack:
                    parent = self._stack[-1]
                    # a span above counts only the leaf time outside nested spans
                    parent[2] += dur if parent[0] is None else dur - frame[3]
                    if parent[0] is None:
                        parent[3] += frame[3]
            if hook:
                hook(self, args, result)
            return result
        return wrapper

    def count(self, name: str, fn, hook=None):
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[calls] += 1
            if hook:
                hook(self, args, result)
            return result
        return wrapper

    def serial(self, obj) -> int:
        """A number that names one object for the life of the trace."""
        key = "_bench_trace_serial"
        if key not in obj.__dict__:
            obj.__dict__[key] = next(self._serial)
        return obj.__dict__[key]

    def export(self) -> dict:
        counts = dict(self.counts)
        for name, keys in self.distinct.items():
            counts[name + ".distinct"] = len(keys)
        return {"spans": self.spans, "counts": counts, "leaf_self": dict(self.leaf_self),
                "leaf_self_solve": dict(self.leaf_self_solve),
                "solve_start": self.solve_start}


def covered_length(intervals) -> float:
    """Total length of a union of intervals."""
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the time covered by its
    child spans and by the leaf calls made directly under it."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _leaf in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - covered_length(children[sid]) - leaf
            for sid, _parent, _name, start, end, leaf in spans}


# ---------------------------------------------------------------------------
# What to wrap.  (module, attribute or Class.method, metric name, kind, hook)


def _rref_cells(tr, args, result):
    tr.counts["f2linalg.rref.cells"] += args[0].rows * args[0].cols


def _mult_key(tr, args, result):
    alg, i, j = args
    tr.distinct["steenrod.mult"].add((tr.serial(alg), i, j))


def _basis_op_key(tr, args, result):
    tr.distinct["module.basis_op"].add((tr.serial(args[0]), args[1]))


def _module_dim(tr, args, result):
    dim = args[0].total_dim
    if dim > tr.counts["module.max_dim"]:
        tr.counts["module.max_dim"] = dim


def _free_summands(tr, args, result):
    tr.counts["stable.reduce_module.free_summands"] += len(result.free_part)


def _generators(tr, args, result):
    tr.counts["resolve.generators"] += sum(stage.rank for stage in result.stages)


def _positive_roots(tr, args, result):
    tr.counts["rootspin.positive_roots"] += len(result.positive_roots)


def _parse_bytes(tr, args, result):
    tr.counts["modfile.parse.bytes"] += len(args[0].encode())


def _serialize_bytes(tr, args, result):
    tr.counts["modfile.serialize.bytes"] += len(result.encode())


WRAPS = (
    ("f2linalg", "rref", "f2linalg.rref", "span", _rref_cells),
    ("f2linalg", "kernel_basis", "f2linalg.kernel_basis", "span", None),
    ("f2linalg", "solve_matrix", "f2linalg.solve_matrix", "span", None),
    ("f2linalg", "F2Span.reduce", "f2linalg.span_reduce", "count", None),
    ("steenrod", "subalgebra_closure", "steenrod.closure", "span", None),
    ("steenrod", "wall_relations", "steenrod.wall_relations", "span", None),
    ("steenrod", "SubHopfAlgebra.mult", "steenrod.mult", "leaf", _mult_key),
    ("steenrod", "SubHopfAlgebra.basis_by_degree", "steenrod.basis_by_degree", "leaf", None),
    ("steenrod", "SteenrodElt.__mul__", "steenrod.product", "leaf", None),
    ("steenrod", "SteenrodElt.degree", "steenrod.degree", "count", None),
    ("module", "tensor", "module.tensor", "span", None),
    ("module", "dual", "module.dual", "span", None),
    ("module", "quotient_by_left_ideal", "module.quotient", "span", None),
    ("module", "double", "module.double", "span", None),
    ("module", "validate", "module.validate", "span", None),
    ("module", "GradedModule.basis_op", "module.basis_op", "count", _basis_op_key),
    ("module", "GradedModule.__init__", "module.init", "count", _module_dim),
    ("stable", "reduce_module", "stable.reduce_module", "span", _free_summands),
    ("stable", "loop", "stable.loop", "span", None),
    ("stable", "hom_space", "stable.hom_space", "span", None),
    ("stable", "iso_test", "stable.iso_test", "span", None),
    ("stable", "selfdual_shift", "stable.selfdual_shift", "span", None),
    ("resolve", "minimal_resolution", "resolve.minimal_resolution", "span", _generators),
    ("resolve", "MinimalResolution.diff_matrix", "resolve.diff_matrix", "span", None),
    ("resolve", "FreeStage.act", "resolve.act", "count", None),
    ("resolve", "ext_groups", "resolve.ext_groups", "span", None),
    ("resolve", "render_chart", "resolve.render_chart", "span", None),
    ("rootspin", "adjoint_spin", "rootspin.adjoint_spin", "span", None),
    ("rootspin", "generate_positive_roots", "rootspin.generate_positive_roots", "count",
     _positive_roots),
    ("modfile", "parse_module", "modfile.parse", "span", _parse_bytes),
    ("modfile", "serialize_module", "modfile.serialize", "span", _serialize_bytes),
    ("fixtures", "load_fixture", "fixtures.load", "span", None),
    ("fixtures", "verify_fixture", "fixtures.verify", "span", None),
    ("cli", "main", "cli", "span", None),
)


def install(tracer: Tracer, package: str = "stmod") -> None:
    """Wrap every function in WRAPS wherever the imported package bound it."""
    namespaces = [mod for name, mod in sorted(sys.modules.items())
                  if name == package or name.startswith(package + ".")]
    for module_name, attr, metric, kind, hook in WRAPS:
        module = sys.modules[f"{package}.{module_name}"]
        make = getattr(tracer, kind)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(metric, cls.__dict__[meth], hook))
            continue
        original = getattr(module, attr)
        wrapped = make(metric, original, hook)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
