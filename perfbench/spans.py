"""Timing spans around bmcc's public functions, installed from outside.

:func:`installed` rebinds each name in :data:`WRAPPED` to a timing wrapper in
every ``bmcc`` namespace that holds the same object, so calls one layer makes
into another are caught too (``connected_components`` is bound in both
``bmcc.graph`` and ``bmcc.solvers``). Spans nest; each records its self time,
its duration minus the time of its child spans. The originals are restored on
exit.
"""

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, public name, metric key of its self time)
WRAPPED = (
    ("bmcc.grid", "read_points_file", "grid.read_points_s"),
    ("bmcc.grid", "rasterize", "grid.rasterize_s"),
    ("bmcc.marketplace", "Marketplace.build", "marketplace.build_s"),
    ("bmcc.marketplace", "save_catalog", "marketplace.save_catalog_s"),
    ("bmcc.marketplace", "load_catalog", "marketplace.load_catalog_s"),
    ("bmcc.graph", "build_ball_tree", "graph.ball_tree_s"),
    ("bmcc.graph", "build_graph_indexed", "graph.walk_s"),
    ("bmcc.graph", "connected_components", "graph.components_s"),
    ("bmcc.solvers", "solve_dsa", "solvers.dsa_self_s"),
    ("bmcc.solvers", "solve_dpsa", "solvers.dpsa_self_s"),
    ("bmcc.solvers", "solve_cmc", "solvers.cmc_self_s"),
    ("bmcc.solvers", "find_center_exact", "solvers.center_exact_s"),
    ("bmcc.solvers", "find_center_two_bfs", "solvers.center_two_bfs_s"),
    ("bmcc.solvers", "build_bfs_tree", "solvers.bfs_tree_s"),
    ("bmcc.solvers", "budgeted_greedy", "solvers.greedy_s"),
    ("bmcc.solvers", "verify_solution", "solvers.verify_s"),
)

# Graph spans are keyed by the delta of the enclosing build_graph_indexed call.
_PER_DELTA = ("graph.walk_s", "graph.ball_tree_s")


def delta_label(delta):
    return f"d{float(delta):g}"


class Tracer:
    """Self time and call count per metric key, plus work counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.top_level_s = 0.0  # time inside outermost spans
        self._stack = []        # [key, child seconds] per open span
        self._delta = None      # label of the enclosing graph build

    def _key(self, key, args, kwargs):
        if key == "graph.walk_s":
            self._delta = delta_label(kwargs["delta"] if "delta" in kwargs else args[1])
        if key in _PER_DELTA and self._delta is not None:
            return f"{key}.{self._delta}"
        return key

    def wrap(self, key, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self._key(key, args, kwargs), 0.0]
            self._stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[span[0]] += duration - span[1]
                self.calls[span[0]] += 1
                if self._stack:
                    self._stack[-1][1] += duration
                else:
                    self.top_level_s += duration
                if key == "graph.walk_s":
                    self._delta = None
            if key == "grid.rasterize_s":
                self.counts["grid.points"] += len(args[0].points)
                self.counts["grid.cells"] += result.coverage
            return result

        return traced


@contextmanager
def installed(tracer):
    """Rebind every name in WRAPPED to ``tracer``'s wrappers; restore after."""
    saved = []
    bmcc_modules = [m for name, m in sys.modules.items()
                    if name == "bmcc" or name.startswith("bmcc.")]
    try:
        for module_name, name, key in WRAPPED:
            module = sys.modules[module_name]
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                setattr(cls, attr, classmethod(tracer.wrap(key, original.__func__)))
                continue
            original = getattr(module, name)
            wrapper = tracer.wrap(key, original)
            for m in bmcc_modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        saved.append((m, attr, original))
                        setattr(m, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
