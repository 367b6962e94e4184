"""Per-layer spans recorded from outside the program.

``Tracer.install()`` rebinds the public functions of the maxwass modules
to wrappers that record one span per call: name, start, end and the
index of the enclosing span.  maxwass modules bind each other's
functions by ``from .transport import wasserstein``, so a function is
rebound under every module attribute that holds it, not only in the
module that defines it; otherwise calls from ``verify``, ``wgeom`` and
``cli`` would go unrecorded.  ``uninstall()`` restores every binding.

Spans stay in memory until ``dump``.  A span's self time is its
duration minus the durations of its direct children.  A layer's
inclusive time counts only its outermost spans, so a layer that calls
itself (``radon`` calling ``project_measure``) is not counted twice.

``geometry.dm`` is only counted: a wrapper that timed it would cost
more than ``dm`` itself.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (metric, unit, span or counter name, what is read)
#   incl: inclusive ms of the outermost spans    self: self ms
#   calls: number of spans                       count: a counter
#   suite: inclusive seconds
LAYER_METRICS = [
    ("cli.ms", "ms", "cli", "incl"),
    ("cli.self_ms", "ms", "cli", "self"),
    ("measure.parse_ms", "ms", "measure.parse", "incl"),
    ("geometry.dm_calls", "count", "geometry.dm", "count"),
    ("transport.wasserstein_calls", "count", "transport.wasserstein", "calls"),
    ("transport.dirac_calls", "count", "transport.dirac", "count"),
    ("transport.wasserstein_self_ms", "ms", "transport.wasserstein", "self"),
    ("transport.plan_ms", "ms", "transport.plan", "incl"),
    ("transport.plan_calls", "count", "transport.plan", "calls"),
    ("transport.cost_pow_ms", "ms", "transport.cost_pow", "incl"),
    ("transport.cost_pow_calls", "count", "transport.cost_pow", "calls"),
    ("transport.to_csv_ms", "ms", "transport.to_csv", "incl"),
    ("transport.oracle_ms", "ms", "transport.oracle", "incl"),
    ("transport.oracle_calls", "count", "transport.oracle", "calls"),
    ("transport.unique_ms", "ms", "transport.unique", "incl"),
    ("netsimplex.solve_ms", "ms", "netsimplex.solve", "incl"),
    ("netsimplex.solve_calls", "count", "netsimplex.solve", "calls"),
    ("netsimplex.cells", "count", "netsimplex.cells", "count"),
    ("wgeom.ms", "ms", "wgeom", "incl"),
    ("wgeom.calls", "count", "wgeom", "calls"),
]

# The verify suites of the verify-suites workload, in verify.SUITES
# order: every suite of reproduce-paper except same-diag and
# oracle-agreement, whose single calls run for 5 to 35 s.
SUITES = (
    "diag-char",
    "dirac-char",
    "unique-geodesic",
    "w2-table",
    "q-sides",
    "q-saturation",
    "q-functional",
    "q-corners",
)
LAYER_METRICS += [(f"verify.{s}_s", "s", f"verify.{s}", "suite") for s in SUITES]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, outermost)
        self.counts = Counter()
        self._stack = []
        self._depth = Counter()
        self._undo = []

    # -- wrappers --------------------------------------------------------

    def _timed(self, name, fn, note=None):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = depth[name] == 0
            depth[name] += 1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                spans[index] = (name, start, end, parent, outermost)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note_dirac(self, args):
        if len(args) >= 2 and (args[0].support_size == 1 or args[1].support_size == 1):
            self.counts["transport.dirac"] += 1

    def _note_cells(self, args):
        self.counts["netsimplex.cells"] += len(args[1]) * len(args[2])

    # -- binding ---------------------------------------------------------

    def _set(self, owner, key, value):
        """Bind owner.key (or owner[key] for a dict) and remember the old value."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def _rebind(self, original, replacement):
        for module_name, module in list(sys.modules.items()):
            if module_name != "maxwass" and not module_name.startswith("maxwass."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _wrap(self, owner, attr, name, note=None):
        """Trace owner.attr under name, in every module that binds it.  A
        function the program no longer has is skipped; its layer reads 0."""
        original = vars(owner).get(attr)
        if original is None:
            return
        if isinstance(original, classmethod):
            self._set(owner, attr, classmethod(self._timed(name, original.__func__, note)))
        elif isinstance(owner, type):
            self._set(owner, attr, self._timed(name, original, note))
        else:
            self._rebind(original, self._timed(name, original, note))

    def install(self):
        from maxwass import cli, geometry, measure, netsimplex, transport, verify, wgeom

        self._wrap(cli, "main", "cli")
        if hasattr(geometry, "dm"):
            self._rebind(geometry.dm, self._counted("geometry.dm", geometry.dm))
        self._wrap(transport, "wasserstein", "transport.wasserstein", self._note_dirac)
        self._wrap(transport, "brute_force_wasserstein", "transport.oracle")
        self._wrap(transport, "is_unique_optimal_plan", "transport.unique")
        self._wrap(netsimplex, "solve_transportation", "netsimplex.solve", self._note_cells)
        for attr, value in list(vars(wgeom).items()):
            if (
                not attr.startswith("_")
                and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == wgeom.__name__
            ):
                self._wrap(wgeom, attr, "wgeom")
        for attr, name in (("__init__", "plan"), ("cost_pow", "cost_pow"), ("to_csv", "to_csv")):
            self._wrap(transport.TransportPlan, attr, f"transport.{name}")
        self._wrap(measure.DiscreteMeasure, "from_json_dict", "measure.parse")
        for suite, fn in list(verify.SUITES.items()):
            self._set(verify.SUITES, suite, self._timed(f"verify.{suite}", fn))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- results ---------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Every layer metric, per op (one traced CLI call)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, self_time, calls = Counter(), Counter(), Counter()
        for index, (name, start, end, _, outermost) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += end - start - child[index]
            if outermost:
                incl[name] += end - start
        read = {
            "incl": lambda key: incl[key] * 1e3,
            "self": lambda key: self_time[key] * 1e3,
            "calls": lambda key: calls[key],
            "count": lambda key: self.counts[key],
            "suite": lambda key: incl[key],
        }
        return {
            metric: (read[kind](key) / ops, unit)
            for metric, unit, key, kind in LAYER_METRICS
        }

    def dump(self, path):
        """Write the spans as CSV, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,parent,name,start_s,end_s\n")
            for index, (name, start, end, parent, _) in enumerate(self.spans):
                handle.write(
                    f"{index},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n"
                )
